import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_z2_abcd_ball
from hnnkit import base_groups
from hnnkit.base_groups import (
    abelian_from_presentation,
    base_geodesic_length,
    free_oracle,
)
from hnnkit.cayley import build_ball
from hnnkit.presets import preset
from hnnkit.words import Word, format_word, invert, parse_word


@pytest.fixture(scope="module")
def wise_base():
    return abelian_from_presentation(["a", "b", "c", "d"], ["c'ab", "c'ba", "d'cc"])


def z_times_z2():
    """Z x Z/2 with a redundant generator: a of order 2, b, and c = ab."""
    return abelian_from_presentation(["a", "b", "c"], ["aa", "c'ab"])


def z6_times_z():
    """Z/6 x Z with a redundant generator: a of order 6, b, and c = ab^-1.  The
    Hadamard bound puts its window's Delta at 8, above the largest
    subdeterminant, 6."""
    return abelian_from_presentation(["a", "b", "c"], ["aaaaaa", "c'ab'"])


def test_wise_base_structure(wise_base):
    z2 = wise_base
    assert z2.free_rank == 2
    assert z2.moduli == ()
    p = lambda s: parse_word(z2.alphabet, s)
    img = lambda s: z2.evaluate(p(s))
    # images forced by the relators, independently of the coordinate basis
    assert img("c") == z2.mult_key(img("a"), img("b"))
    assert img("d") == z2.mult_key(img("c"), img("c"))
    assert img("abc'") == z2.identity_key()
    for r in z2.relators:
        assert z2.is_identity(z2.evaluate(r))


def test_torsion_presentation():
    z3 = abelian_from_presentation(["a"], ["aaa"])
    assert z3.free_rank == 0
    assert z3.moduli == (3,)
    p = lambda s: parse_word(z3.alphabet, s)
    assert z3.is_identity(z3.evaluate(p("aaa")))
    assert not z3.is_identity(z3.evaluate(p("aa")))


def test_mixed_presentation_rank():
    g = abelian_from_presentation(["a", "b"], ["aabb"])
    # Z^2 / <(2,2)> is Z x Z/2
    assert g.free_rank == 1
    assert g.moduli == (2,)


def test_abelian_commutativity(wise_base):
    rng = random.Random(3)
    z2 = wise_base
    for _ in range(100):
        ids1 = tuple(rng.randrange(z2.alphabet.n_letters) for _ in range(rng.randint(0, 6)))
        ids2 = tuple(rng.randrange(z2.alphabet.n_letters) for _ in range(rng.randint(0, 6)))
        w1, w2 = Word(z2.alphabet, ids1), Word(z2.alphabet, ids2)
        assert z2.evaluate(w1 * w2) == z2.evaluate(w2 * w1)


def test_word_of_key_roundtrip(wise_base):
    z2 = wise_base
    rng = random.Random(4)
    for _ in range(100):
        ids = tuple(rng.randrange(z2.alphabet.n_letters) for _ in range(rng.randint(0, 8)))
        key = z2.evaluate(Word(z2.alphabet, ids))
        assert z2.evaluate(z2.word_of_key(key)) == key


def test_free_oracle_examples():
    f2 = free_oracle(["a", "b"])
    p = lambda s: parse_word(f2.alphabet, s)
    assert f2.is_identity(f2.evaluate(p("aa'")))
    assert f2.key_str(f2.mult_key(f2.evaluate(p("ab")), f2.evaluate(p("b'a")))) == "aa"
    assert base_geodesic_length(f2, p("abab")) == 4
    key = f2.evaluate(p("ab'a"))
    assert f2.geodesic_length_exact(key) == 3 and f2.geodesic_word(key) == p("ab'a")


def test_base_geodesic_length_examples(wise_base):
    z2 = wise_base
    p = lambda s: parse_word(z2.alphabet, s)
    assert base_geodesic_length(z2, p("d")) == 1
    # derived: brute-force BFS over Z^2 with the four generator vectors
    naive = naive_z2_abcd_ball(6)
    assert naive[(2, 2)] == 1
    assert base_geodesic_length(z2, p("aabb")) == 1
    for k in range(1, 7):
        assert naive[(k, 0)] == k
        assert base_geodesic_length(z2, p("a" * k)) == k


def test_geodesic_length_matches_naive_ball(wise_base):
    # engine distances against the independent vector BFS, radius 5
    z2 = wise_base
    naive = naive_z2_abcd_ball(5)
    p = lambda s: parse_word(z2.alphabet, s)
    for (x, y), d in naive.items():
        if d > 4:
            continue
        text = ("a" if x >= 0 else "a'") * abs(x) + ("b" if y >= 0 else "b'") * abs(y)
        assert base_geodesic_length(z2, p(text)) == d


def test_length_symmetry_and_triangle(wise_base):
    z2 = wise_base
    rng = random.Random(5)
    words = []
    for _ in range(40):
        ids = tuple(rng.randrange(z2.alphabet.n_letters) for _ in range(rng.randint(0, 4)))
        words.append(Word(z2.alphabet, ids))
    for w in words:
        assert base_geodesic_length(z2, w) == base_geodesic_length(z2, invert(w))
    for u in words[:20]:
        for v in words[:20]:
            lu = base_geodesic_length(z2, u)
            lv = base_geodesic_length(z2, v)
            luv = base_geodesic_length(z2, u * v)
            assert abs(luv - lu) <= lv


def test_geodesic_length_depends_on_the_generators(z2_ab, z2_abcd):
    """Over Z^2 with the extra generators c = ab and d = c^2, aab has
    length 2 and aabb length 1; over a and b alone, 3 and 4."""
    lengths = [[base_geodesic_length(g, parse_word(g.alphabet, t)) for t in ("aab", "aabb")]
               for g in (z2_ab, z2_abcd)]
    assert lengths == [[3, 4], [2, 1]]


def test_length_of_a_long_word_builds_no_ball(no_balls):
    z2 = abelian_from_presentation(["a", "b"], [])
    assert base_geodesic_length(z2, parse_word(z2.alphabet, "a" * 50)) == 50
    assert base_geodesic_length(z2, parse_word(z2.alphabet, "ab")) == 2
    wise_base = preset("wise").base
    key = wise_base.evaluate(parse_word(wise_base.alphabet, "ab" * 5000))
    assert wise_base.geodesic_length_exact(key) == 2500
    assert format_word(wise_base.geodesic_word(key)) == "d" * 2500


def test_length_lookup_in_finite_group():
    z6 = abelian_from_presentation(["a"], ["aaaaaa"])
    assert base_geodesic_length(z6, parse_word(z6.alphabet, "aaaa")) == 2


@pytest.mark.parametrize("group,radius", [
    pytest.param(lambda: preset("z2_abcd"), 12, id="z2_abcd"),
    pytest.param(lambda: preset("wise").base, 12, id="wise-base"),
    pytest.param(z_times_z2, 60, id="z-times-z2"),
    pytest.param(z6_times_z, 30, id="z6-times-z"),
])
def test_norm_and_geodesic_word_match_the_ball(group, radius):
    """The exact norm is the ball distance and geodesic_word the ball's label
    (the shortlex least geodesic), on every element of the ball.  Each radius
    makes a sweep of about a second."""
    g = group()
    ball = build_ball(g, radius)
    for eid in range(len(ball)):
        key = ball.key(eid)
        assert g.geodesic_length_exact(key) == ball.distance_of(eid)
        assert format_word(g.geodesic_word(key)) == ball.label(eid)


def _words(group, max_len=40):
    return st.lists(st.integers(0, group.alphabet.n_letters - 1), max_size=max_len).map(
        lambda ids: Word(group.alphabet, tuple(ids)))


@pytest.mark.parametrize("group", [
    pytest.param(lambda: preset("z2_abcd"), id="z2_abcd"),
    pytest.param(z_times_z2, id="z-times-z2"),
])
def test_norm_is_a_word_metric(group):
    """|v x| - |v| is -1, 0 or 1 for every letter x, and |v^-1| = |v|."""
    g = group()

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(_words(g))
    def check(w):
        key = g.evaluate(w)
        n = g.geodesic_length_exact(key)
        assert n <= len(w)
        assert g.geodesic_length_exact(g.inv_key(key)) == n
        for lid in range(g.alphabet.n_letters):
            assert g.geodesic_length_exact(g.apply_letter(key, lid)) - n in (-1, 0, 1)

    check()


@st.composite
def presentations(draw):
    gens = ["a", "b", "c", "d"][:draw(st.integers(1, 3))]
    letters = gens + [g + "'" for g in gens]
    relators = draw(st.lists(st.lists(st.sampled_from(letters), min_size=1, max_size=6)
                             .map("".join), max_size=3))
    return abelian_from_presentation(gens, relators)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(presentations())
def test_norm_matches_the_ball_on_random_presentations(g):
    ball = build_ball(g, 4)
    for eid in range(len(ball)):
        key = ball.key(eid)
        assert g.geodesic_length_exact(key) == ball.distance_of(eid)
        assert format_word(g.geodesic_word(key)) == ball.label(eid)


def test_window_costs_one_determinant_per_basic_solution_set(monkeypatch):
    """Delta is Hadamard's bound, not a search of the subdeterminants: over Z^9
    the only determinant is the one of the single set of 9 generators (the
    search took 48,619)."""
    z9 = abelian_from_presentation(list("abcdefghi"), [])
    calls = []
    det = base_groups._det
    monkeypatch.setattr(base_groups, "_det", lambda m: calls.append(m) or det(m))
    vertices, _, window = z9._metric_tables()
    assert len(calls) <= comb(9, 9) == len(vertices) == 1
    assert window == 18  # N = 18 variables, and Delta = 1
