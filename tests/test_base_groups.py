import random

import pytest

from conftest import naive_z2_abcd_ball
from hnnkit.base_groups import (
    abelian_from_presentation,
    base_geodesic_length,
    free_oracle,
)
from hnnkit.cayley import BallCapError, build_ball, locate
from hnnkit.words import Word, invert, parse_word


@pytest.fixture(scope="module")
def wise_base():
    return abelian_from_presentation(["a", "b", "c", "d"], ["c'ab", "c'ba", "d'cc"])


@pytest.fixture(scope="module")
def wise_cache(wise_base):
    # grown on demand by the length lookups
    return build_ball(wise_base, 0)


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


def test_base_geodesic_length_examples(wise_base, wise_cache):
    z2 = wise_base
    p = lambda s: parse_word(z2.alphabet, s)
    assert base_geodesic_length(z2, p("d"), wise_cache) == 1
    # derived: brute-force BFS over Z^2 with the four generator vectors
    naive = naive_z2_abcd_ball(6)
    assert naive[(2, 2)] == 1
    assert base_geodesic_length(z2, p("aabb"), wise_cache) == 1
    for k in range(1, 7):
        assert naive[(k, 0)] == k
        assert base_geodesic_length(z2, p("a" * k), wise_cache) == k


def test_geodesic_length_matches_naive_ball(wise_base, wise_cache):
    # engine distances against the independent vector BFS, radius 5
    z2 = wise_base
    naive = naive_z2_abcd_ball(5)
    p = lambda s: parse_word(z2.alphabet, s)
    for (x, y), d in naive.items():
        if d > 4:
            continue
        text = ("a" if x >= 0 else "a'") * abs(x) + ("b" if y >= 0 else "b'") * abs(y)
        assert base_geodesic_length(z2, p(text), wise_cache) == d


def test_length_symmetry_and_triangle(wise_base, wise_cache):
    z2 = wise_base
    rng = random.Random(5)
    words = []
    for _ in range(40):
        ids = tuple(rng.randrange(z2.alphabet.n_letters) for _ in range(rng.randint(0, 4)))
        words.append(Word(z2.alphabet, ids))
    for w in words:
        assert base_geodesic_length(z2, w, wise_cache) == base_geodesic_length(
            z2, invert(w), wise_cache
        )
    for u in words[:20]:
        for v in words[:20]:
            lu = base_geodesic_length(z2, u, wise_cache)
            lv = base_geodesic_length(z2, v, wise_cache)
            luv = base_geodesic_length(z2, u * v, wise_cache)
            assert abs(luv - lu) <= lv


def test_geodesic_length_rejects_a_ball_over_another_oracle(z2_ab, z2_abcd):
    """A ball over Z^2 with the extra generators c = ab and d = c^2 would
    give aab length 2 and aabb length 3, not 3 and 4."""
    p = lambda s: parse_word(z2_ab.alphabet, s)
    foreign = build_ball(z2_abcd, 0)
    for text in ("aab", "aabb"):
        with pytest.raises(ValueError, match="different oracle"):
            base_geodesic_length(z2_ab, p(text), foreign)
    own = build_ball(z2_ab, 0)
    assert [base_geodesic_length(z2_ab, p(t), own) for t in ("aab", "aabb")] == [3, 4]


def test_radius_cap_error():
    z2 = abelian_from_presentation(["a", "b"], [])
    ball = build_ball(z2, 0, mem_cap=20)
    with pytest.raises(BallCapError) as err:
        base_geodesic_length(z2, parse_word(z2.alphabet, "a" * 50), ball)
    assert err.value.cap_elements == 20
    # the lookup stops at the last complete sphere, which stays usable
    assert len(ball) == sum(ball.sphere_sizes) <= 20
    assert base_geodesic_length(z2, parse_word(z2.alphabet, "ab"), ball) == 2


def test_length_lookup_in_finite_group():
    z6 = abelian_from_presentation(["a"], ["aaaaaa"])
    ball = build_ball(z6, 0)
    assert base_geodesic_length(z6, parse_word(z6.alphabet, "aaaa"), ball) == 2
    assert ball.radius == 2
    # a key that is no element: the BFS exhausts the group, then gives up
    with pytest.raises(ValueError, match="not an element"):
        locate(ball, (7,))
    assert ball.sphere_sizes == [1, 2, 2, 1, 0]
