import functools
import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hnnkit.cayley
from hnnkit import hnn
from hnnkit.base_groups import abelian_from_presentation
from hnnkit.hnn import (
    AssociatedPair,
    HnnSpec,
    britton_reduce,
    find_pinch,
    invert_el,
    multiply,
    normal_form,
    stable_letter_signature,
    verify_isometric,
)
from hnnkit.presets import preset
from hnnkit.specfile import load_spec_text
from hnnkit.subgroups import CyclicSubgroup, cyclic_subgroup, stallings_subgroup
from hnnkit.words import Word, format_word, free_reduce, invert, parse_word


def random_word(spec, rng, max_len=10):
    n = rng.randint(0, max_len)
    return Word(spec.alphabet, tuple(rng.randrange(spec.alphabet.n_letters) for _ in range(n)))


def test_find_pinch_examples(wise):
    p = lambda s: parse_word(wise.alphabet, s)
    pinch = find_pinch(wise, p("s'as"))
    assert pinch is not None
    assert (pinch.start, pinch.end) == (0, 2)
    assert pinch.direction == "s'us"
    assert pinch.rewrite == ((0, 1),)
    assert find_pinch(wise, p("sas'")) is None  # a is not a power of d
    pinch = find_pinch(wise, p("t'bbt"))
    assert pinch is not None and pinch.rewrite == ((0, 1), (0, 1))
    assert find_pinch(wise, p("abcd")) is None  # no stable letters


def test_britton_reduce_defining_relations(wise, g2):
    p = lambda s: parse_word(wise.alphabet, s)
    assert format_word(britton_reduce(wise, p("s'as"))) == "d"
    assert format_word(britton_reduce(wise, p("t'bt"))) == "d"
    q = lambda s: parse_word(g2.alphabet, s)
    assert format_word(britton_reduce(g2, q("s'aas"))) == "bb"
    assert format_word(britton_reduce(g2, q("s'bbbs"))) == "aba"


def test_britton_output_has_no_pinch(wise, g2):
    rng = random.Random(8)
    for spec in (wise, g2):
        for _ in range(300):
            w = britton_reduce(spec, random_word(spec, rng))
            assert free_reduce(w) == w
            assert find_pinch(spec, w) is None


def reference_britton(spec, w):
    """Britton reduction searching for each pinch from the start of the word."""
    w = free_reduce(w)
    while (pinch := find_pinch(spec, w)) is not None:
        pair = spec.pairs[pinch.pair_index]
        target = pair.v if pinch.direction == "s'us" else pair.u
        image = target.expand(pinch.rewrite)
        ids = w.ids[: pinch.start] + image.ids + w.ids[pinch.end + 1 :]
        w = free_reduce(Word(spec.alphabet, ids))
    return w


def pinch_rich_ids(spec, rng, length, depth=2):
    """Random letters mixed with blocks x' g x, g a product of the crossed
    subgroup's generators and of smaller blocks, cut to `length` letters."""
    nb, n = spec.n_base_letters, spec.alphabet.n_letters
    ids = []
    while len(ids) < length:
        if depth == 0 or rng.random() < 0.4:
            ids.append(rng.randrange(n))
            continue
        opening = rng.randrange(nb, n)
        i, sign = spec.stable_of_letter(opening)
        sub = spec.pairs[i].u if sign < 0 else spec.pairs[i].v
        inner = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.7:
                inner += sub.expand(((rng.randrange(len(sub.generator_words)), rng.choice((1, -1))),)).ids
            else:
                inner += pinch_rich_ids(spec, rng, rng.randint(3, 9), depth - 1)
        ids += [opening] + inner + [opening ^ 1]
    return tuple(ids[:length])


@pytest.mark.parametrize("name", ["wise", "g2"])
def test_britton_pass_matches_the_full_rescan(name):
    spec = preset(name)
    n = spec.alphabet.n_letters
    rng = random.Random(9)
    words = [ids for k in range(5) for ids in itertools.product(range(n), repeat=k)]
    words += [tuple(rng.randrange(n) for _ in range(200)) for _ in range(15)]
    words += [pinch_rich_ids(spec, rng, 200) for _ in range(15)]
    words += [pinch_rich_ids(spec, rng, 2000, depth=4) for _ in range(10)]
    for ids in words:
        w = Word(spec.alphabet, ids)
        assert britton_reduce(spec, w) == reference_britton(spec, w)


@pytest.mark.parametrize("kind", ["random", "pinch-rich"])
@pytest.mark.parametrize("name", ["wise", "g2"])
def test_britton_pass_on_long_words_counts_its_work(name, kind):
    """On 10^5 letters: at most one membership test per stable letter and at
    most one base letter evaluated per input letter, so the pass is linear."""
    spec = preset(name)
    rng = random.Random(13)
    length = 100_000
    if kind == "random":
        ids = tuple(rng.randrange(spec.alphabet.n_letters) for _ in range(length))
    else:
        ids = pinch_rich_ids(spec, rng, length, depth=4)
    w = Word(spec.alphabet, ids)
    counts = {"membership": 0, "letters": 0}

    def membership(key, inner):
        counts["membership"] += 1
        return inner(key)

    def evaluate(word, inner=spec.base.evaluate):
        counts["letters"] += len(word)
        return inner(word)

    for sub in {id(s): s for pair in spec.pairs for s in (pair.u, pair.v)}.values():
        sub.membership_with_rewrite = functools.partial(membership,
                                                        inner=sub.membership_with_rewrite)
    spec.base.evaluate = evaluate
    out = britton_reduce(spec, w)
    stable = sum(lid >= spec.n_base_letters for lid in free_reduce(w).ids)
    assert counts["membership"] <= stable
    assert counts["letters"] <= len(w)
    assert free_reduce(out) == out
    assert find_pinch(spec, out) is None
    assert normal_form(spec, out) == normal_form(spec, w)


def test_normal_form_examples(wise, g2):
    p = lambda s: parse_word(wise.alphabet, s)
    for text in ("c'ab", "c'ba", "d'cc", "s'asd'", "t'btd'"):
        assert normal_form(wise, p(text)).is_identity()
    assert normal_form(wise, p("as")) == normal_form(wise, p("sd"))
    q = lambda s: parse_word(g2.alphabet, s)
    assert normal_form(g2, q("as")) != normal_form(g2, q("sa"))


def test_g2_as_sa_not_equal_by_brute_force(g2):
    # derived check: no sequence of <= 3 relator insertions turns "as" into "sa"
    q = lambda s: parse_word(g2.alphabet, s)
    target = q("sa").ids
    seen = {q("as").ids}
    frontier = list(seen)
    rels = [r.ids for r in g2.relators] + [invert(r).ids for r in g2.relators]
    for _ in range(3):
        nxt = []
        for ids in frontier:
            for rel in rels:
                for pos in range(len(ids) + 1):
                    cand = free_reduce(Word(g2.alphabet, ids[:pos] + rel + ids[pos:])).ids
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    assert target not in seen


def test_multiply_and_invert(wise):
    p = lambda s: parse_word(wise.alphabet, s)
    x = normal_form(wise, p("ast'b"))
    e = normal_form(wise, p(""))
    assert multiply(wise, x, e) == x
    assert multiply(wise, x, invert_el(wise, x)).is_identity()
    assert multiply(wise, normal_form(wise, p("s")), normal_form(wise, p("d"))) == normal_form(
        wise, p("as")
    )


def test_group_axioms_random(wise, g2):
    rng = random.Random(9)
    for spec in (wise, g2):
        for _ in range(1000):
            x = normal_form(spec, random_word(spec, rng, 8))
            y = normal_form(spec, random_word(spec, rng, 8))
            z = normal_form(spec, random_word(spec, rng, 8))
            assert multiply(spec, multiply(spec, x, y), z) == multiply(
                spec, x, multiply(spec, y, z)
            )


def test_inverse_cancels_random(wise, g2):
    rng = random.Random(10)
    for spec in (wise, g2):
        for _ in range(5000):
            w = random_word(spec, rng)
            assert normal_form(spec, w * invert(w)).is_identity()


def test_relator_insertion_invariance(wise, g2):
    rng = random.Random(11)
    for spec in (wise, g2):
        for _ in range(1000):
            w = random_word(spec, rng)
            rel = rng.choice(spec.relators)
            if rng.random() < 0.5:
                rel = invert(rel)
            pos = rng.randint(0, len(w))
            w2 = Word(spec.alphabet, w.ids[:pos] + rel.ids + w.ids[pos:])
            assert normal_form(spec, w) == normal_form(spec, w2)


def test_key_expands_back_to_the_same_element(wise, g2):
    rng = random.Random(21)
    for spec in (wise, g2):
        for _ in range(500):
            w = random_word(spec, rng)
            key = spec.evaluate(w)
            assert spec.evaluate(spec.word_of_key(key)) == key


def test_normal_form_matches_britton_then_fold(wise, g2):
    rng = random.Random(12)
    for spec in (wise, g2):
        for _ in range(300):
            w = random_word(spec, rng)
            assert normal_form(spec, w) == normal_form(spec, britton_reduce(spec, w))


def test_abelianization_preserved(wise, g2):
    rng = random.Random(13)
    for spec in (wise, g2):
        gens = [g.name for g in spec.alphabet.generators]
        ab = abelian_from_presentation(gens, [format_word(r) for r in spec.relators])
        for _ in range(500):
            w = random_word(spec, rng)
            br = britton_reduce(spec, w)
            image = ab.evaluate(Word(ab.alphabet, w.ids))
            assert image == ab.evaluate(Word(ab.alphabet, br.ids))
            nf_word = spec.word_of_key(normal_form(spec, w).key)
            assert image == ab.evaluate(Word(ab.alphabet, nf_word.ids))


def test_stable_letter_signature(wise):
    p = lambda s: parse_word(wise.alphabet, s)
    assert stable_letter_signature(normal_form(wise, p("ast'b"))) == (("s", 1), ("t", -1))
    assert stable_letter_signature(normal_form(wise, p(""))) == ()
    assert stable_letter_signature(normal_form(wise, p("s'as"))) == ()


def test_verify_isometric_passes_for_presets(wise, g2):
    for spec in (wise, g2):
        report = verify_isometric(spec, 6)
        assert report.passed, report.lines()


BROKEN = """
base {
  kind = abelian
  generators = a b c d
  relator c = ab
  relator c = ba
  relator d = cc
}
stable s {
  u = [a]
  v = [c]
}
"""


def test_verify_isometric_builds_no_code_index(g2, monkeypatch):
    """Strip lengths are exact and geodesics are walked from the element's
    id, so the base ball is never looked up by key."""
    balls = []
    real = hnnkit.cayley.build_ball

    def kept(*args, **kwargs):
        balls.append(real(*args, **kwargs))
        return balls[-1]

    monkeypatch.setattr(hnnkit.cayley, "build_ball", kept)
    assert verify_isometric(g2, 6).passed
    assert len(balls) == 1 and balls[0]._index is None


def test_verify_isometric_incomplete_under_small_cap(wise):
    report = verify_isometric(wise, 6, mem_cap=30)
    assert report.incomplete
    assert not report.passed
    # strip equidistance needs no ball; the two ball conditions are unknown
    assert report.strip_equidistant.passed is True
    assert report.geodesic.passed is None and report.totally_geodesic.passed is None
    assert report.lines()[1:] == ["geodesic           UNKNOWN", "totally-geodesic   UNKNOWN",
                                  "report INCOMPLETE: ball cap exceeded"]


def test_verify_isometric_broken_fixture_witnesses():
    spec = load_spec_text(BROKEN, name="broken")
    report = verify_isometric(spec, 6)
    # |a| = |c| = 1: strip equidistance holds, but <c> is not geodesic
    # (cc and d land on the same element, d is shorter)
    assert report.strip_equidistant.passed
    assert not report.geodesic.passed
    assert not report.totally_geodesic.passed
    assert any("c'c'" in w or "cc" in w for w in report.geodesic.witnesses)
    assert report.geodesic.witnesses and report.totally_geodesic.witnesses
    assert not report.passed


_BS12 = "base {\n  kind = abelian\n  generators = a\n}\nstable t {\n  u = [a]\n  v = [aa]\n}\n"
# g2 with u = <ab, b> = F2, where |ab| = 2, paired with v = <aab, b>, where |aab| = 3
_G2_SKEW = "base {\n  kind = free\n  generators = a b\n}\nstable s {\n  u = [ab, b]\n  v = [aab, b]\n}\n"


@pytest.mark.parametrize("source,max_len,counts", [
    *(pytest.param(name, n, (0, 0, 0), id=f"{name}-{n}") for name in ("wise", "g2")
      for n in (4, 6, 8)),
    *(pytest.param(BROKEN, n, c, id=f"broken-{n}")
      for n, c in ((4, (0, 6, 26)), (6, (0, 10, 52)), (8, (0, 14, 86)))),
    *(pytest.param(_BS12, n, (1, 0, 0), id=f"bs12-{n}") for n in (4, 6, 8)),
    pytest.param(_G2_SKEW, 4, (1, 10, 152), id="g2-skew-4"),
    pytest.param(_G2_SKEW, 6, (1, 88, 1480), id="g2-skew-6"),
])
def test_verify_isometric_pinned_witness_counts(source, max_len, counts):
    """Witness counts of (strip, geodesic, totally geodesic) on the presets
    and on three extensions that fail some of the conditions."""
    spec = preset(source) if source in ("wise", "g2") else load_spec_text(source)
    report = verify_isometric(spec, max_len)
    conds = (report.strip_equidistant, report.geodesic, report.totally_geodesic)
    assert tuple(c.witness_count for c in conds) == counts
    assert tuple(c.passed for c in conds) == tuple(n == 0 for n in counts)
    assert report.passed == (counts == (0, 0, 0)) and not report.incomplete
    if source == BROKEN and max_len == 4:
        assert set(report.geodesic.witnesses) == {
            "pair 0 V: expansion cc has length 1 < 2",
            "pair 0 V: expansion ccc has length 2 < 3",
            "pair 0 V: expansion cccc has length 2 < 4",
            "pair 0 V: expansion c'c' has length 1 < 2",
            "pair 0 V: expansion c'c'c' has length 2 < 3",
            "pair 0 V: expansion c'c'c'c' has length 2 < 4",
        }


def reference_fold(spec, ids):
    """The normal-form key of a word, folded without the split memo: a stable
    letter pinches if the segment before it is in the crossed subgroup, else
    splits that segment along the subgroup's left cosets."""
    base = spec.base
    segs = [base.identity_key()]
    for lid in ids:
        if lid < spec.n_base_letters:
            segs[-1] = base.apply_letter(segs[-1], lid)
            continue
        i, eps = spec.stable_of_letter(lid)
        pair = spec.pairs[i]
        sub, target = (pair.u, pair.v) if eps > 0 else (pair.v, pair.u)
        if len(segs) >= 3 and segs[-2] == (i, -eps):
            img = sub.image(segs[-1], target)
            if img is not None:
                segs.pop()
                segs.pop()
                segs[-1] = base.mult_key(segs[-1], img)
                continue
        r = sub.coset_rep_left(segs[-1])
        img = sub.image(base.mult_key(base.inv_key(r), segs[-1]), target)
        segs[-1:] = [r, (i, eps), img]
    return tuple(segs)


def inverse_ids(ids):
    return tuple(lid ^ 1 for lid in reversed(ids))


@pytest.mark.parametrize("name", ["wise", "g2"])
def test_segment_table_matches_the_reference_fold(name, monkeypatch):
    monkeypatch.setattr(hnn, "_SEGMENT_TABLE_SIZE", 8)
    spec = preset(name)  # a fresh spec, so its table starts empty
    begin = spec._begin
    sizes, tables = [], [spec._segments]

    def counted_begin():
        begin()
        if spec._segments is not tables[-1]:  # replaced by a fresh table
            tables.append(spec._segments)
        sizes.append(len(spec._segments.keys))

    spec._begin = counted_begin
    n = spec.alphabet.n_letters
    rng = random.Random(14)
    words = [ids for k in range(5) for ids in itertools.product(range(n), repeat=k)]
    words += [tuple(rng.randrange(n) for _ in range(200)) for _ in range(30)]
    prev, y = (), normal_form(spec, Word(spec.alphabet, ()))
    for ids in words:
        x = normal_form(spec, Word(spec.alphabet, ids))
        assert x.key == reference_fold(spec, ids)
        assert invert_el(spec, x).key == reference_fold(spec, inverse_ids(ids))
        assert multiply(spec, y, x).key == reference_fold(spec, prev + ids)
        prev, y = ids, x
    assert len(sizes) == 3 * len(words) + 1
    assert max(sizes) <= 8
    assert len(tables) - 1 > len(words) // 10


def test_threads_share_one_segment_table(monkeypatch):
    monkeypatch.setattr(hnn, "_SEGMENT_TABLE_SIZE", 8)
    spec = preset("g2")
    n = spec.alphabet.n_letters
    rng = random.Random(16)
    words = [tuple(rng.randrange(n) for _ in range(60)) for _ in range(40)]
    want = [reference_fold(spec, ids) for ids in words]
    wrong = []

    def fold_all(offset):
        for k in range(len(words)):
            k = (k + offset) % len(words)
            x = normal_form(spec, Word(spec.alphabet, words[k]))
            if x.key != want[k] or not multiply(spec, x, invert_el(spec, x)).is_identity():
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fold_all, args=(7 * t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_fold_properties(wise, g2, data):
    spec = data.draw(st.sampled_from([wise, g2]))
    words = st.lists(st.integers(0, spec.alphabet.n_letters - 1), max_size=40)
    ids = tuple(data.draw(words))
    rel = data.draw(st.sampled_from(spec.relators)).ids
    if data.draw(st.booleans()):
        rel = inverse_ids(rel)
    pos = data.draw(st.integers(0, len(ids)))
    x = normal_form(spec, Word(spec.alphabet, ids))
    assert x.key == reference_fold(spec, ids)
    assert normal_form(spec, Word(spec.alphabet, ids[:pos] + rel + ids[pos:])) == x
    assert multiply(spec, x, invert_el(spec, x)).is_identity()
    assert spec.inv_key(x.key) == reference_fold(spec, inverse_ids(ids))
    stable = data.draw(st.integers(spec.n_base_letters, spec.alphabet.n_letters - 1))
    assert spec.apply_letter(x.key, stable) == reference_fold(spec, ids + (stable,))
    assert spec.apply_letter_left(stable, x.key) == reference_fold(spec, (stable,) + ids)
    ids2 = tuple(data.draw(words))
    y = normal_form(spec, Word(spec.alphabet, ids2))
    assert spec.mult_key(x.key, y.key) == reference_fold(spec, ids + ids2)


@pytest.mark.parametrize("name", ["wise", "g2"])
def test_pinch_test_and_split_cross_the_same_subgroups(name):
    """s_i^eps crosses U_i onto V_i if eps > 0, else V_i onto U_i.  Britton's
    pinch test and the fold's split must both say so: a segment closed by a
    stable letter pinches exactly when the split along that letter leaves the
    identity as coset representative, and the pinch carries the segment to
    the split's image."""
    spec = preset(name)
    base, nb = spec.base, spec.n_base_letters
    rng = random.Random(25)
    pinches = splits = 0
    for lid in range(nb, spec.alphabet.n_letters):
        i, eps = spec.stable_of_letter(lid)
        pair = spec.pairs[i]
        assert spec._sides[lid] == ((pair.u, pair.v) if eps > 0 else (pair.v, pair.u))
        for n in range(300):
            if n % 2:  # a word of U_i or of V_i
                sub = rng.choice((pair.u, pair.v))
                sw = tuple((rng.randrange(len(sub.generator_words)), rng.choice((1, -1)))
                           for _ in range(rng.randint(1, 4)))
                seg = sub.expand(sw).ids
            else:
                seg = tuple(rng.randrange(nb) for _ in range(rng.randint(0, 8)))
            r, img = spec._split(base.evaluate(Word(base.alphabet, seg)), lid)
            found = hnn._pinch_rewrite(spec, lid ^ 1, seg)
            assert (found is not None) == base.is_identity(r)
            if found is None:
                splits += 1
                continue
            pinches += 1
            rewrite, target = found
            assert base.evaluate(target.expand(rewrite)) == img
    assert pinches >= 200 and splits >= 200


@pytest.mark.parametrize("name", ["wise", "g2", "z2_abcd", "z2_ab", "f2"])
def test_apply_letter_left_is_the_letter_times_the_key(name):
    """apply_letter_left is derived from apply_letter and mult_key on every oracle."""
    group = preset(name)
    rng = random.Random(26)
    alphabet = group.alphabet
    for _ in range(40):
        w = Word(alphabet, tuple(rng.randrange(alphabet.n_letters) for _ in range(rng.randint(0, 12))))
        key = group.evaluate(w)
        for lid in range(alphabet.n_letters):
            want = group.evaluate(Word(alphabet, (lid,) + group.word_of_key(key).ids))
            assert group.apply_letter_left(lid, key) == want


def test_every_stable_letter_a_fold_meets_goes_through_the_hook():
    """The one place a stable letter meets a fold state, as a tracer wraps it."""
    spec = preset("g2")
    fold, calls, steps = spec._append_stable, [0], set()

    def counted(segs, i, eps):
        n = len(segs)
        fold(segs, i, eps)
        calls[0] += 1
        steps.add(len(segs) - n)

    spec._append_stable = counted
    rng = random.Random(15)
    nb = spec.n_base_letters
    y = normal_form(spec, Word(spec.alphabet, ()))
    for _ in range(50):
        w = random_word(spec, rng, 30)
        calls[0] = 0
        x = normal_form(spec, w)
        assert calls[0] == sum(1 for lid in w.ids if lid >= nb)
        calls[0] = 0
        invert_el(spec, x)
        assert calls[0] == len(x.stable_markers)
        calls[0] = 0
        multiply(spec, x, y)
        assert calls[0] == len(y.stable_markers)
        y = x
    assert steps == {-2, 2}


@pytest.mark.parametrize("call, message", [
    (lambda wise, w, x, y: britton_reduce(wise, w), "different alphabet"),
    (lambda wise, w, x, y: find_pinch(wise, w), "different alphabet"),
    (lambda wise, w, x, y: invert_el(wise, x), "different group"),
    (lambda wise, w, x, y: multiply(wise, y, x), "different group"),
], ids=["britton_reduce", "find_pinch", "invert_el", "multiply"])
def test_word_functions_reject_another_groups_input(wise, g2, call, message):
    w = parse_word(g2.alphabet, "s'bbbs")
    x = normal_form(g2, w)
    y = normal_form(wise, parse_word(wise.alphabet, "s'as"))
    with pytest.raises(ValueError, match=message):
        call(wise, w, x, y)


@pytest.mark.parametrize("u,v,side,rank", [
    (["a", "aa"], ["b", "bbb"], "u", 1),
    (["a", "b"], ["ab", "abab"], "v", 1),
    (["a", "b", "ab"], ["a", "b", "ba"], "u", 2),
])
def test_pair_rejects_stallings_words_that_are_not_a_free_basis(f2, u, v, side, rank):
    """On words that are not a free basis the generator-wise map is not well
    defined: aa = a*a in <a, aa>, so s'aas would be both bb and bbb."""
    sub = lambda texts: stallings_subgroup(f2, [parse_word(f2.alphabet, t) for t in texts])
    with pytest.raises(ValueError, match=rf"the {side} words are not a free basis "
                                         rf"\(they generate a subgroup of rank {rank}\)"):
        AssociatedPair(sub(u), sub(v))


class OffsetCosetReps(CyclicSubgroup):
    """<a> in Z^2 with (1, y) representing the coset of (x, y): constant on
    cosets and idempotent, but the subgroup's own coset is not the identity."""

    def coset_rep(self, key):
        return self.base._norm([1, key[1]])


def test_spec_rejects_a_subgroup_not_represented_by_the_identity():
    z2 = abelian_from_presentation(["a", "b"], [])
    a = parse_word(z2.alphabet, "a")
    odd = OffsetCosetReps(z2, a)
    assert odd.coset_rep(z2.evaluate(parse_word(z2.alphabet, "aab"))) == (1, 1)
    for pair in (AssociatedPair(odd, cyclic_subgroup(z2, a)),
                 AssociatedPair(cyclic_subgroup(z2, a), odd)):
        with pytest.raises(ValueError, match="is not the identity"):
            HnnSpec(z2, ["s"], [pair])
    HnnSpec(z2, ["s"], [AssociatedPair(cyclic_subgroup(z2, a), cyclic_subgroup(z2, a))])
