import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hnnkit.subgroups as subgroups
from hnnkit.base_groups import abelian_from_presentation, free_oracle
from hnnkit.cli import main as cli_main
from hnnkit.hnn import invert_el, multiply, normal_form
from hnnkit.presets import preset
from hnnkit.subgroups import cyclic_subgroup, stallings_subgroup
from hnnkit.words import Word, enumerate_words, free_reduce, parse_word


@pytest.fixture(scope="module")
def wise_base():
    return abelian_from_presentation(["a", "b", "c", "d"], ["c'ab", "c'ba", "d'cc"])


@pytest.fixture(scope="module")
def f2():
    return free_oracle(["a", "b"])


def brute_members(oracle, sub, max_sw_len):
    """All elements expressible by SubgroupWords of bounded length, by expansion."""
    members = {oracle.identity_key()}
    frontier = {(): oracle.identity_key()}
    for _ in range(max_sw_len):
        nxt = {}
        for sw, key in frontier.items():
            for j in range(len(sub.generator_words)):
                for s in (1, -1):
                    if sw and sw[-1] == (j, -s):
                        continue
                    step = oracle.evaluate(sub.expand(((j, s),)))
                    k2 = oracle.mult_key(key, step)
                    nxt[sw + ((j, s),)] = k2
                    members.add(k2)
        frontier = nxt
    return members


# -- cyclic subgroups of abelian groups ------------------------------------------


def test_cyclic_membership_examples(wise_base):
    z2 = wise_base
    p = lambda s: parse_word(z2.alphabet, s)
    dsub = cyclic_subgroup(z2, p("d"))
    asub = cyclic_subgroup(z2, p("a"))
    assert dsub.membership_with_rewrite(z2.evaluate(p("aaaabbbb"))) == ((0, 1), (0, 1))
    assert dsub.membership_with_rewrite(z2.evaluate(p("a"))) is None
    assert asub.membership_with_rewrite(z2.evaluate(p("a'a'a'"))) == ((0, -1),) * 3


def test_cyclic_coset_rep_properties(wise_base):
    z2 = wise_base
    p = lambda s: parse_word(z2.alphabet, s)
    rng = random.Random(6)
    for gen_text in ("d", "a", "b"):
        sub = cyclic_subgroup(z2, p(gen_text))
        gen_key = sub.vector
        for _ in range(100):
            ids = tuple(rng.randrange(z2.alphabet.n_letters) for _ in range(rng.randint(0, 8)))
            g = z2.evaluate(z2.alphabet.word(ids))
            r = sub.coset_rep(g)
            # rep is in the same right coset and canonical on it
            assert sub.contains(z2.mult_key(g, z2.inv_key(r)))
            assert sub.coset_rep(z2.mult_key(gen_key, g)) == r
            assert sub.coset_rep(r) == r


def test_cyclic_rejects_trivial_and_torsion():
    z2 = abelian_from_presentation(["a", "b"], [])
    with pytest.raises(ValueError):
        cyclic_subgroup(z2, parse_word(z2.alphabet, "aa'"))
    zz3 = abelian_from_presentation(["a", "b"], ["bbb"])
    with pytest.raises(ValueError):
        cyclic_subgroup(zz3, parse_word(zz3.alphabet, "b"))


# -- Stallings automata -----------------------------------------------------------


def test_stallings_membership_examples(f2):
    p = lambda s: parse_word(f2.alphabet, s)
    u = stallings_subgroup(f2, [p("aa"), p("bbb")])
    v = stallings_subgroup(f2, [p("bb"), p("aba")])
    assert v.membership_with_rewrite(f2.evaluate(p("bb"))) == ((0, 1),)
    assert v.membership_with_rewrite(f2.evaluate(p("b"))) is None
    # derived: no expansion of SubgroupWords of length <= 4 reduces to "b"
    assert f2.evaluate(p("b")) not in brute_members(f2, v, 4)
    assert u.membership_with_rewrite(f2.evaluate(p("aabbb"))) == ((0, 1), (1, 1))


def test_stallings_folded_determinism(f2):
    p = lambda s: parse_word(f2.alphabet, s)
    for gens in (["aa", "bbb"], ["bb", "aba"], ["ab", "ab'"], ["aba'", "bab'"], ["a", "b"]):
        sub = stallings_subgroup(f2, [p(t) for t in gens])
        assert sub.is_folded()


def test_stallings_rank(f2):
    p = lambda s: parse_word(f2.alphabet, s)
    for gens, rank in ((["aa", "bbb"], 2), (["a", "aa"], 1), (["ab", "ba", "abba"], 2),
                       (["aba'"], 1), (["b", "aab", "bab'"], 2)):
        assert stallings_subgroup(f2, [p(t) for t in gens]).rank == rank


@pytest.mark.parametrize("gens", [["ab'", "a"], ["ab", "a"], ["ba", "a"]])
def test_stallings_keeps_its_base_vertex(f2, gens):
    # each list generates F2, and its fold meets two equal labels at a vertex
    # where the later edge ends at the base vertex, which must survive the merge
    p = lambda s: parse_word(f2.alphabet, s)
    sub = stallings_subgroup(f2, [p(t) for t in gens])
    for word in enumerate_words(f2.alphabet, 4):
        key = f2.evaluate(word)
        sw = sub.membership_with_rewrite(key)
        assert sw is not None and f2.evaluate(sub.expand(sw)) == key
        assert sub.coset_rep(key) == ()


def test_stallings_rewrite_soundness_exhaustive(f2):
    # every member in the radius-6 ball rewrites to a SubgroupWord that
    # expands back to the same element
    p = lambda s: parse_word(f2.alphabet, s)
    subs = [
        stallings_subgroup(f2, [p("aa"), p("bbb")]),
        stallings_subgroup(f2, [p("bb"), p("aba")]),
        stallings_subgroup(f2, [p("ab"), p("ab'")]),
    ]
    for word in enumerate_words(f2.alphabet, 6):
        key = f2.evaluate(word)
        for sub in subs:
            sw = sub.membership_with_rewrite(key)
            if sw is not None:
                assert f2.evaluate(sub.expand(sw)) == key


def test_stallings_rewrite_cache_is_bounded(f2, monkeypatch):
    p = lambda s: parse_word(f2.alphabet, s)
    gens = [p("bb"), p("aba")]
    keys = [f2.evaluate(w) for w in enumerate_words(f2.alphabet, 6)]
    want = [stallings_subgroup(f2, gens).membership_with_rewrite(k) for k in keys]
    monkeypatch.setattr(subgroups, "_REWRITE_CACHE_SIZE", 8)
    sub = stallings_subgroup(f2, gens)
    got = []
    for k in keys + keys:
        got.append(sub.membership_with_rewrite(k))
        assert len(sub._rewrite_cache) <= 8
    assert got == want + want


def test_image_is_the_generator_wise_isomorphism(wise_base, f2):
    p = lambda o, s: parse_word(o.alphabet, s)
    pairs = [
        (cyclic_subgroup(wise_base, p(wise_base, "a")),
         cyclic_subgroup(wise_base, p(wise_base, "c"))),
        (stallings_subgroup(f2, [p(f2, "aa"), p(f2, "bab")]),
         stallings_subgroup(f2, [p(f2, "ba"), p(f2, "b'b'")])),
    ]
    for u, v in pairs:
        base = u.base
        for sw in (((0, 1),), ((0, -1), (0, -1), (0, -1)), ((0, 1), (1, -1), (0, 1))):
            if max(j for j, _ in sw) >= len(u.generator_words):
                continue
            key = u.evaluate_subgroup_word(sw)
            img = u.image(key, v)
            assert img == v.evaluate_subgroup_word(sw)
            assert v.image(img, u) == key
        outside = base.evaluate(p(base, "b"))
        assert not u.contains(outside)
        assert u.image(outside, v) is None


def test_stallings_membership_completeness(f2):
    # agreement with brute-force expansion on the radius-8 ball
    p = lambda s: parse_word(f2.alphabet, s)
    ball8 = {f2.evaluate(w) for w in enumerate_words(f2.alphabet, 8)}
    for gens in (["aa", "bbb"], ["bb", "aba"]):
        sub = stallings_subgroup(f2, [p(t) for t in gens])
        brute = brute_members(f2, sub, 4) & ball8
        oracle_members = {k for k in ball8 if sub.contains(k)}
        assert brute == oracle_members


def test_stallings_coset_rep_examples(f2):
    p = lambda s: parse_word(f2.alphabet, s)
    v = stallings_subgroup(f2, [p("bb"), p("aba")])
    rep_b = v.coset_rep(f2.evaluate(p("b")))
    assert f2.key_str(rep_b) == "b"
    assert v.coset_rep(f2.evaluate(p("bbb"))) == rep_b
    # derived by brute force: u*g stays in the coset for short subgroup words
    g = f2.evaluate(p("b"))
    for u_key in brute_members(f2, v, 3):
        assert v.coset_rep(f2.mult_key(u_key, g)) == rep_b


def test_stallings_coset_rep_properties(f2):
    p = lambda s: parse_word(f2.alphabet, s)
    rng = random.Random(7)
    for gens in (["aa", "bbb"], ["bb", "aba"]):
        sub = stallings_subgroup(f2, [p(t) for t in gens])
        gen_keys = [f2.evaluate(w) for w in sub.generator_words]
        for _ in range(100):
            ids = tuple(rng.randrange(f2.alphabet.n_letters) for _ in range(rng.randint(0, 8)))
            g = f2.evaluate(f2.alphabet.word(ids))
            r = sub.coset_rep(g)
            assert sub.contains(f2.mult_key(g, f2.inv_key(r)))
            assert sub.coset_rep(r) == r
            for u in gen_keys:
                assert sub.coset_rep(f2.mult_key(u, g)) == r


def loop_coset_rep(sub, key):
    """Walk the automaton, then reduce the leftover letters one at a time."""
    v, suffix = 0, ()
    for lid in key:
        if suffix:
            if suffix[-1] == lid ^ 1:
                suffix = suffix[:-1]
            else:
                suffix = suffix + (lid,)
            continue
        hit = sub._adj[v].get(lid)
        if hit is not None:
            v = hit[0]
        else:
            suffix = (lid,)
    return sub._reps[v] + suffix


def test_stallings_coset_rep_matches_letter_loop():
    g2 = preset("g2")
    base = g2.base
    n = base.alphabet.n_letters
    short = [base.evaluate(w) for w in enumerate_words(base.alphabet, 6)]
    rng = random.Random(13)
    long = []
    for _ in range(2000):
        ids = [rng.randrange(n)]
        for _ in range(rng.randrange(119)):
            ids.append(rng.choice([l for l in range(n) if l != ids[-1] ^ 1]))
        long.append(tuple(ids))
    assert max(map(len, long)) > 100
    for pair in g2.pairs:
        for sub in (pair.u, pair.v):
            for key in short + long:
                assert sub.coset_rep(key) == loop_coset_rep(sub, key)


def test_subgroup_generator_validation(f2):
    p = lambda s: parse_word(f2.alphabet, s)
    with pytest.raises(ValueError):
        stallings_subgroup(f2, [p("")])
    with pytest.raises(ValueError):
        stallings_subgroup(f2, [p("aa'b")])


def test_long_keys_fold_without_a_length_cap(capsys):
    # coset_rep walks the key once, so a base segment of any length folds
    text = "a" * 10002 + "s"
    rc = cli_main(["normalize", "--preset", "g2", text])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[:2] == ["s" + "b" * 10002, "signature: s"]  # a^n s = s b^n
    g2 = preset("g2")
    x = normal_form(g2, parse_word(g2.alphabet, text))
    assert multiply(g2, x, invert_el(g2, x)).is_identity()


F2 = free_oracle(["a", "b"])
F2_KEYS6 = [F2.evaluate(w) for w in enumerate_words(F2.alphabet, 6)]


def reduced_words(max_len):
    """Freely reduced nonempty letter-id tuples over F2 (ids 0..3)."""
    def reduce(ids):
        return tuple(free_reduce(Word(F2.alphabet, tuple(ids))).ids)

    return (st.lists(st.integers(0, 3), min_size=1, max_size=max_len)
            .map(reduce).filter(len))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(gens=st.lists(reduced_words(6), min_size=1, max_size=3), data=st.data())
def test_random_stallings_subgroups(gens, data):
    sub = stallings_subgroup(F2, [Word(F2.alphabet, ids) for ids in gens])
    assert sub.is_folded()
    for key in F2_KEYS6:
        sw = sub.membership_with_rewrite(key)
        if sw is not None:
            assert F2.evaluate(sub.expand(sw)) == key
    sw_strategy = st.lists(st.tuples(st.integers(0, len(gens) - 1), st.sampled_from([1, -1])),
                           max_size=6)
    if sub.rank == len(gens):
        for _ in range(5):
            sw = subgroups._sw_reduce(data.draw(sw_strategy))
            assert sub.membership_with_rewrite(F2.evaluate(sub.expand(sw))) == sw
    gen_keys = [F2.evaluate(w) for w in sub.generator_words]
    for key in F2_KEYS6:
        r = sub.coset_rep(key)
        assert sub.coset_rep(r) == r
        assert sub.contains(F2.mult_key(key, F2.inv_key(r)))
        for u in gen_keys + [F2.inv_key(u) for u in gen_keys]:
            assert sub.coset_rep(F2.mult_key(u, key)) == r
