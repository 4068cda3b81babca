import itertools
import random
import tracemalloc

import pytest

import hnnkit.cayley
import hnnkit.convexity
from conftest import links_of, naive_z2_abcd_ball
from hnnkit import hnn
from hnnkit.cayley import (
    BallCapError,
    OutOfBallError,
    ball_edges,
    build_ball,
    distance,
    export_ball,
    extend_ball,
    geodesics_of,
    is_geodesic,
)
from hnnkit.convexity import ac_profile, fftp_search
from hnnkit.hnn import verify_isometric
from hnnkit.presets import preset
from hnnkit.specfile import load_spec_text
from hnnkit.words import Word, enumerate_words, format_word, parse_word


def test_sphere_sizes_examples(z2_abcd, wise):
    ball = build_ball(z2_abcd, 1)
    assert ball.sphere_sizes == [1, 8]
    ball0 = build_ball(z2_abcd, 0)
    assert ball0.sphere_sizes == [1]
    wball = build_ball(wise, 1)
    assert wball.sphere_sizes == [1, 12]


def test_wise_generators_pairwise_distinct(wise):
    # the 12 signed generators give 12 distinct normal forms
    nfs = set()
    for lid in range(wise.alphabet.n_letters):
        nfs.add(wise.apply_letter(wise.identity_key(), lid))
    assert len(nfs) == 12


def test_distances_against_naive_bfs(z2_abcd, z2_abcd_ball9):
    naive = naive_z2_abcd_ball(9)
    p = lambda s: parse_word(z2_abcd.alphabet, s)
    for x, y in itertools.product(range(-4, 5), repeat=2):
        text = ("a" if x >= 0 else "a'") * abs(x) + ("b" if y >= 0 else "b'") * abs(y)
        key = z2_abcd.evaluate(p(text))
        assert z2_abcd_ball9.distance_of_key(key) == naive[(x, y)]


def test_sphere_additivity(z2_abcd_ball9, g2_ball7):
    for ball in (z2_abcd_ball9, g2_ball7):
        assert sum(ball.sphere_sizes) == len(ball)


def test_sphere_ranges(z2_abcd_ball9, g2_ball7):
    for ball in (z2_abcd_ball9, g2_ball7):
        ids = [eid for n in range(ball.radius + 1) for eid in ball.sphere(n)]
        assert ids == list(range(len(ball)))
        for n in range(ball.radius + 1):
            assert len(ball.sphere(n)) == ball.sphere_sizes[n]
            assert all(ball.distance_of(eid) == n for eid in ball.sphere(n))
        with pytest.raises(OutOfBallError):
            ball.sphere(ball.radius + 1)
        for eid in (-1, len(ball)):
            with pytest.raises(IndexError):
                ball.distance_of(eid)


def test_predecessor_completeness(z2_abcd, z2_abcd_ball9):
    ball = z2_abcd_ball9
    for eid in range(len(ball)):
        if ball.distance_of(eid) >= 3:
            continue
        expected = set()
        for lid in range(z2_abcd.alphabet.n_letters):
            k2 = z2_abcd.apply_letter(ball.key(eid), lid)
            tid = ball.id_of(k2)
            if ball.distance_of(tid) == ball.distance_of(eid) - 1:
                expected.add((tid, lid ^ 1))
        assert set(links_of(ball, eid)) == expected


def test_distance_queries(wise, z2_abcd, z2_abcd_ball9):
    wball = build_ball(wise, 3)
    p = lambda s: parse_word(wise.alphabet, s)
    ka = wise.evaluate(p("a"))
    ident = wise.identity_key()
    assert distance(wball, ident, ka) == 1
    assert distance(wball, ka, ka) == 0
    # d(a, d) in the base: a^-1 d = b + c, two letters, and no single letter hits it
    naive = naive_z2_abcd_ball(4)
    assert naive[(1, 2)] == 2
    q = lambda s: parse_word(z2_abcd.alphabet, s)
    assert (
        distance(z2_abcd_ball9, z2_abcd.evaluate(q("a")), z2_abcd.evaluate(q("d"))) == 2
    )
    # d(s, t) in the Wise group: s^-1 t is Britton-reduced with two stable letters
    ks, kt = wise.evaluate(p("s")), wise.evaluate(p("t"))
    assert distance(wball, ks, kt) == 2
    assert distance(wball, ks, kt) == distance(wball, kt, ks)


def test_distance_symmetry_random(z2_abcd, z2_abcd_ball9):
    import random

    rng = random.Random(15)
    inner = [z2_abcd_ball9.key(eid) for eid in range(z2_abcd_ball9.sphere(4).stop)]
    for _ in range(100):
        x, y = rng.choice(inner), rng.choice(inner)
        assert distance(z2_abcd_ball9, x, y) == distance(z2_abcd_ball9, y, x)
        assert distance(z2_abcd_ball9, x, x) == 0


def test_out_of_ball_error(z2_abcd):
    ball = build_ball(z2_abcd, 2)
    p = lambda s: parse_word(z2_abcd.alphabet, s)
    far = z2_abcd.evaluate(p("a" * 9))
    with pytest.raises(OutOfBallError):
        ball.distance_of_key(far)


def test_is_geodesic_and_geodesics_of(z2_abcd, z2_abcd_ball9):
    ball = z2_abcd_ball9
    p = lambda s: parse_word(z2_abcd.alphabet, s)
    assert not is_geodesic(ball, p("cc"))  # d is shorter
    assert is_geodesic(ball, p("d"))
    geos = geodesics_of(ball, z2_abcd.evaluate(p("c")))
    assert [format_word(g) for g in geos] == ["c"]
    for n in range(1, 6):
        for gen in ("a", "b", "d"):
            geos = geodesics_of(ball, z2_abcd.evaluate(p(gen * n)))
            assert [format_word(g) for g in geos] == [gen * n]


def test_geodesics_shortlex_order_and_count(z2_ab, z2_ab_ball9):
    p = lambda s: parse_word(z2_ab.alphabet, s)
    key = z2_ab.evaluate(p("aabb"))
    geos = geodesics_of(z2_ab_ball9, key)
    assert len(geos) == 6  # (4 choose 2) orderings of aabb
    texts = [format_word(g) for g in geos]
    assert texts == sorted(texts, key=lambda t: (len(t), t))
    assert z2_ab_ball9.geodesic_count(z2_ab_ball9.id_of(key)) == 6



def test_geodesics_of_past_the_recursion_limit():
    from hnnkit.base_groups import abelian_from_presentation

    z = abelian_from_presentation(["a"], [])
    ball = build_ball(z, 1500)
    geos = geodesics_of(ball, z.evaluate(parse_word(z.alphabet, "a" * 1200)))
    assert [format_word(g) for g in geos] == ["a" * 1200]


@pytest.mark.parametrize("name,radius", [
    ("wise", 4), ("g2", 5), ("z2_abcd", 8), ("z2_ab", 8), ("f2", 5),
])
def test_ids_follow_shortlex_order_and_first_links_end_least_geodesics(name, radius, request):
    group = request.getfixturevalue(name)
    ball = build_ball(group, radius)
    words = [ball.shortlex_geodesic(e).ids for e in range(len(ball))]
    assert all((len(u), u) < (len(w), w) for u, w in zip(words, words[1:]))
    for eid, ids in enumerate(words):
        assert geodesics_of(ball, ball.key(eid))[0].ids == ids
        if eid:
            p = 0
            for lid in ids[:-1]:
                p = ball.row(p)[lid]
            assert links_of(ball, eid)[0] == (p, ids[-1])


def test_export_examples(z2_ab, wise):
    ball0 = build_ball(z2_ab, 0)
    dot = export_ball(ball0, "dot").decode()
    assert dot.count("->") == 0
    assert dot.count("label=") == 1
    ball1 = build_ball(z2_ab, 1)
    dot = export_ball(ball1, "dot").decode()
    assert dot.count('[label="') - dot.count("->") == 5  # 5 vertices
    assert dot.count("->") == 8  # 8 directed edge records
    wball = build_ball(wise, 2)
    csv_rows = export_ball(wball, "csv").decode().strip().splitlines()
    assert len(csv_rows) == 1 + 1 + 12 + wball.sphere_sizes[2]


def test_export_determinism(z2_abcd):
    b1 = build_ball(z2_abcd, 4)
    b2 = build_ball(z2_abcd, 4)
    for fmt in ("dot", "json", "csv"):
        assert export_ball(b1, fmt) == export_ball(b2, fmt)


def _ball_state(ball):
    return (ball.radius, [ball.key(e) for e in range(len(ball))],
            [ball.distance_of(e) for e in range(len(ball))], ball.rows.tolist(),
            [links_of(ball, e) for e in range(len(ball))],
            ball.sphere_sizes, [ball.label(e) for e in range(len(ball))],
            [ball.geodesic_count(e) for e in range(len(ball))])


@pytest.mark.parametrize("name,r0,r", [
    ("z2_abcd", 0, 9), ("z2_abcd", 3, 8), ("wise", 2, 5), ("g2", 1, 6), ("f2", 0, 6),
])
def test_extension_equals_fresh_build(name, r0, r, request):
    group = request.getfixturevalue(name)
    ball = build_ball(group, r0)
    # fill the geodesic tables first: extending must invalidate them
    ball.label(len(ball) - 1)
    ball.geodesic_count(len(ball) - 1)
    extend_ball(ball, r)
    assert _ball_state(ball) == _ball_state(build_ball(group, r))


def test_ball_key_table_is_independent_of_the_word_folds_bound(monkeypatch):
    monkeypatch.setattr(hnn, "_SEGMENT_TABLE_SIZE", 8)
    g2 = preset("g2")  # fresh, so its word fold runs under the small bound
    n = g2.alphabet.n_letters
    rng = random.Random(19)
    tables = [g2._segments]
    ball = build_ball(g2, 2)
    for r in range(3, 7):
        # fold words between the spheres, so the spec replaces its table
        for _ in range(10):
            g2.evaluate(Word(g2.alphabet, tuple(rng.randrange(n) for _ in range(30))))
            if g2._segments is not tables[-1]:
                tables.append(g2._segments)
        extend_ball(ball, r)
    assert len(tables) > 30
    assert _ball_state(ball) == _ball_state(build_ball(g2, 6))


def test_engines_build_balls_through_their_modules_names(g2, z2_abcd, monkeypatch):
    """verify_isometric and fftp_search look build_ball up at call time in
    hnnkit.cayley and hnnkit.convexity, so a wrapper put there sees their builds."""
    ball = build_ball(z2_abcd, 0)
    calls = []

    def count_builds(module):
        real = module.build_ball

        def counted(*args, **kwargs):
            calls.append(module.__name__)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "build_ball", counted)

    count_builds(hnnkit.cayley)
    count_builds(hnnkit.convexity)
    assert verify_isometric(g2, 4).passed
    assert calls == ["hnnkit.cayley"]
    calls.clear()
    fftp_search(ball, max_len=3, k_cap=2)
    assert calls == ["hnnkit.convexity"]


def test_extension_of_exhausted_group():
    from hnnkit.base_groups import abelian_from_presentation

    z3 = abelian_from_presentation(["a"], ["aaa"])
    ball = build_ball(z3, 1)
    extend_ball(ball, 4)
    assert ball.sphere_sizes == [1, 2, 0, 0, 0]
    assert _ball_state(ball) == _ball_state(build_ball(z3, 4))


def test_mem_cap(z2_abcd):
    with pytest.raises(BallCapError) as err:
        build_ball(z2_abcd, 9, mem_cap=50)
    assert err.value.cap_elements == 50
    assert 0 <= err.value.radius_reached < 9


def test_mem_cap_keeps_the_last_complete_sphere(z2_abcd):
    ball = build_ball(z2_abcd, 0, mem_cap=50)
    with pytest.raises(BallCapError) as err:
        extend_ball(ball, 9)
    reached = err.value.radius_reached
    assert reached == 2  # 27 elements, and radius 3 has 55
    # the partial sphere is dropped; the ball is the complete radius-reached one
    assert _ball_state(ball) == _ball_state(build_ball(z2_abcd, reached))
    # the cap is the ball's own, so retrying fails the same way
    with pytest.raises(BallCapError):
        extend_ball(ball, reached + 1)


def test_mem_cap_below_one_is_rejected(z2_abcd, monkeypatch):
    for cap in (0, -5):
        with pytest.raises(ValueError, match="mem_cap must be >= 1"):
            build_ball(z2_abcd, 2, mem_cap=cap)
    monkeypatch.setenv("HNNKIT_MEM_CAP", "0")
    with pytest.raises(ValueError, match="mem_cap must be >= 1"):
        build_ball(z2_abcd, 2)
    # a cap of 1 holds the identity alone
    assert len(build_ball(z2_abcd, 0, mem_cap=1)) == 1
    with pytest.raises(BallCapError):
        build_ball(z2_abcd, 1, mem_cap=1)


def test_mem_cap_env_var_reaches_library_builds(z2_abcd, monkeypatch):
    monkeypatch.setenv("HNNKIT_MEM_CAP", "50")
    with pytest.raises(BallCapError) as err:
        build_ball(z2_abcd, 9)
    assert err.value.cap_elements == 50
    # an explicit cap wins over the environment
    assert len(build_ball(z2_abcd, 9, mem_cap=1000)) == 433


def test_base_embeds_isometrically_in_extension(wise, z2_abcd):
    wball = build_ball(wise, 5)
    zball = build_ball(z2_abcd, 5)
    for eid in range(len(zball)):
        ext = (zball.key(eid),)
        assert ext in wball
        assert wball.distance_of_key(ext) == zball.distance_of(eid)


def tuple_key_ball(oracle, radius):
    """The BFS over the oracle's own keys that the compact ball replaced.

    Returns keys, ids (key -> id), dist, rows, predecessor links and sphere sizes.
    """
    keys = [oracle.identity_key()]
    ids = {keys[0]: 0}
    dist, trans, preds, sizes = [0], [None], [[]], [1]
    for d in range(radius):
        n_before = len(keys)
        for eid in range(sum(sizes[:-1]), n_before):
            row = []
            for lid in range(oracle.alphabet.n_letters):
                k2 = oracle.apply_letter(keys[eid], lid)
                tid = ids.get(k2)
                if tid is None:
                    tid = ids[k2] = len(keys)
                    keys.append(k2)
                    dist.append(d + 1)
                    trans.append(None)
                    preds.append([(eid, lid)])
                elif dist[tid] == d + 1:
                    preds[tid].append((eid, lid))
                row.append(tid)
            trans[eid] = tuple(row)
        sizes.append(len(keys) - n_before)
    return keys, ids, dist, trans, preds, sizes


@pytest.mark.parametrize("name,radius", [
    ("wise", 5), ("g2", 6), ("z2_abcd", 6), ("z2_ab", 6), ("f2", 5),
])
def test_compact_ball_equals_tuple_key_bfs(name, radius, request):
    group = request.getfixturevalue(name)
    keys, ids, dist, trans, preds, sizes = tuple_key_ball(group, radius)
    ball = build_ball(group, radius)
    assert [ball.key(eid) for eid in range(len(ball))] == keys
    assert {key: ball.id_of(key) for key in keys} == ids
    assert [ball.distance_of(eid) for eid in range(len(ball))] == dist
    # the flat rows, one per expanded element, are the tuple BFS's rows
    assert [tuple(ball.row(eid)) or None for eid in range(len(ball))] == trans
    assert [links_of(ball, eid) for eid in range(len(ball))] == preds
    assert ball.sphere_sizes == sizes


# Z x Z/2 with t commuting with a: b and b^-1 are one element, so a row
# can repeat a code within one element as well as across elements
TORSION = """base {
  kind = abelian
  generators = a b
  relator bb
}
stable t {
  u = [a]
  v = [a]
}
"""


def test_rows_that_repeat_a_code_equal_tuple_key_bfs():
    group = load_spec_text(TORSION, name="torsion")
    radius = 6
    keys, _, _, trans, preds, sizes = tuple_key_ball(group, radius)
    ball = build_ball(group, radius)
    assert list(ball.row(0)) == [1, 2, 3, 3, 4, 5]
    assert [ball.key(eid) for eid in range(len(ball))] == keys
    assert [tuple(ball.row(eid)) or None for eid in range(len(ball))] == trans
    assert [links_of(ball, eid) for eid in range(len(ball))] == preds
    assert ball.sphere_sizes == sizes
    # the same ball, grown from a smaller one
    grown = build_ball(group, 2)
    extend_ball(grown, radius)
    assert _ball_state(grown) == _ball_state(ball)


def test_ball_edges_intern_no_key_prefix(wise):
    ball = build_ball(wise, 5)
    table = ball.table
    assert len(table.prefix_parent) == 1_531
    edges = list(ball_edges(ball))
    dot = export_ball(ball, "dot")
    assert len(table.prefix_parent) == 1_531
    # the interning rows give the same edges: a push to a new prefix leaves the ball
    ids = ball._ids()
    interned = [(eid, lid, tid) for eid in range(len(ball))
                for lid, tid in enumerate(ball.row(eid) or map(ids.get, table.row(ball.codes[eid])))
                if tid is not None]
    assert len(table.prefix_parent) > 1_531
    assert edges == interned
    assert export_ball(ball, "dot") == dot


@pytest.mark.parametrize("name", ["wise", "g2"])
def test_word_keys_one_sphere_in_and_one_out(name, request):
    group = request.getfixturevalue(name)
    ball = build_ball(group, 3)
    known = set(tuple_key_ball(group, 3)[0])
    inside, outside = [], []
    for w in enumerate_words(group.alphabet, 4):
        key = group.evaluate(w)
        (inside if key in known else outside).append(key)
    assert inside and outside
    for key in inside:
        assert key in ball and ball.key(ball.id_of(key)) == key
    for key in outside:
        assert key not in ball
        with pytest.raises(OutOfBallError):
            ball.id_of(key)
    assert 5 not in ball and () not in ball
    extend_ball(ball, 4)
    found = [ball.id_of(key) for key in outside]
    assert ball.radius == 4
    assert [ball.key(eid) for eid in found] == outside
    assert all(ball.distance_of(eid) == 4 for eid in found)


def test_any_error_mid_sphere_drops_the_partial_rows(wise):
    ball = build_ball(wise, 2)
    row, calls = ball.table.row, [0]

    def interrupted(code):
        calls[0] += 1
        if calls[0] == 200:
            raise KeyboardInterrupt
        return row(code)

    ball.table.row = interrupted
    with pytest.raises(KeyboardInterrupt):
        extend_ball(ball, 4)
    assert ball.radius == 3 and len(ball.rows) == ball.sphere(3).start * ball.n_letters
    # codes grow inside a sphere, so the partial sphere's are dropped too
    assert len(ball.codes) == ball.sphere(ball.radius).stop
    extend_ball(ball, 4)
    assert _ball_state(ball) == _ball_state(build_ball(wise, 4))


def test_running_out_of_key_prefixes_raises(monkeypatch):
    # eight prefix ids; B(2) of wise interns 5 and B(3) 35, one per key
    # prefix of an element of B(2)
    monkeypatch.setattr(hnn, "_PREFIX_MASK", 7)
    wise = preset("wise")
    assert len(build_ball(wise, 2)) == 99
    with pytest.raises(OverflowError, match="more key prefixes than a code can address"):
        build_ball(wise, 3)


def test_running_out_of_key_pairs_raises(monkeypatch):
    # eight pair ids; B(1) of wise interns 5 (with the empty pair) and B(2) 23
    monkeypatch.setattr(hnn, "_PAIR_MASK", 7)
    wise = preset("wise")
    assert len(build_ball(wise, 1)) == 13
    with pytest.raises(OverflowError, match="more key pairs than a code can address"):
        build_ball(wise, 2)


def test_running_out_of_key_segments_raises(monkeypatch):
    # sixteen segment ids; B(1) of wise interns 9 and B(2) 27
    monkeypatch.setattr(hnn, "_SEGMENT_MASK", 15)
    wise = preset("wise")
    assert len(build_ball(wise, 1)) == 13
    with pytest.raises(OverflowError, match="more key segments than a code can address"):
        build_ball(wise, 2)


def _prefix_parts(table, pid):
    """The key parts of a prefix id: its pairs' segments and markers, in order."""
    segments, markers = table._segments.keys, table.spec._stable_markers
    parts = []
    while pid:
        pair = table.prefix_pair[pid]
        parts += [markers[table.pair_letter[pair]], segments[table.pair_segment[pair]]]
        pid = table.prefix_parent[pid]
    return tuple(reversed(parts))


@pytest.mark.parametrize("name,radius,prefixes", [
    pytest.param("wise", 6, 10_375, id="wise-r6"),
    pytest.param("g2", 7, 4_457, id="g2-r7"),
])
def test_ball_interns_the_prefixes_of_its_expanded_elements(name, radius, prefixes, request):
    group = request.getfixturevalue(name)
    ball = build_ball(group, radius)
    table = ball.table
    # one prefix per distinct key prefix (the key without its last segment) of
    # an expanded element, the empty one included; the outer sphere adds none
    expanded = {ball.key(eid)[:-1] for eid in range(ball.sphere(radius).start)}
    assert len(table.prefix_parent) == len(table.prefix_pair) == len(expanded) == prefixes
    assert {_prefix_parts(table, pid) for pid in range(prefixes)} == expanded
    assert all(ball.id_of(ball.key(eid)) == eid for eid in range(len(ball)))
    extended = build_ball(group, radius - 3)
    extend_ball(extended, radius)
    assert len(extended.table.prefix_parent) == prefixes


@pytest.mark.parametrize("name", ["wise", "g2"])
def test_cap_rollback_then_extension_equals_fresh_build(name, request):
    group = request.getfixturevalue(name)
    ball = build_ball(group, 1, mem_cap=150)
    with pytest.raises(BallCapError) as err:
        extend_ball(ball, 5)
    reached = err.value.radius_reached
    assert len(ball.codes) == ball.sphere(ball.radius).stop
    assert _ball_state(ball) == _ball_state(build_ball(group, reached))
    ball.mem_cap = 10**6
    extend_ball(ball, 4)
    assert _ball_state(ball) == _ball_state(build_ball(group, 4))


def test_radius_above_255(z2_ab):
    ball = build_ball(z2_ab, 256)
    assert ball.sphere_sizes == [1] + [4 * n for n in range(1, 257)]
    assert ball.distance_of(len(ball) - 1) == 256
    far = ball.id_of(z2_ab.evaluate(parse_word(z2_ab.alphabet, "a" * 256)))
    assert ball.distance_of(far) == 256 and ball.label(far) == "a" * 256
    assert ball.geodesic_count(far) == 1


@pytest.mark.parametrize("name", ["g2", "z2_abcd"])
def test_lookups_across_the_ball_lifecycle(name, request):
    group = request.getfixturevalue(name)
    ref = build_ball(group, 7)
    outer = [ref.key(eid) for eid in ref.sphere(7)[::7]]

    def check(ball):
        assert ball.radius == 6
        assert all(ball.id_of(ball.key(eid)) == eid for eid in range(len(ball)))
        assert not any(key in ball for key in outer)

    check(build_ball(group, 6))

    queried = build_ball(group, 3)
    assert queried.id_of(group.identity_key()) == 0
    extend_ball(queried, 6)
    check(queried)

    fresh = build_ball(group, 3)
    extend_ball(fresh, 6)
    assert fresh._index is None  # never queried by key, so no index yet
    check(fresh)

    capped = build_ball(group, 2, mem_cap=ref.sphere(3).start + 1)
    assert capped.id_of(group.identity_key()) == 0
    with pytest.raises(BallCapError):
        extend_ball(capped, 6)
    partial = ref.key(ref.sphere(3).start)
    assert partial not in capped
    capped.mem_cap = 10**6
    extend_ball(capped, 6)
    check(capped)
    assert capped.id_of(partial) == ref.sphere(3).start

    # an extension to the key's own sphere finds it
    extend_ball(capped, 7)
    assert capped.id_of(outer[-1]) == ref.id_of(outer[-1])
    assert capped.radius == 7


@pytest.mark.parametrize("name,radius,elements,bound", [
    pytest.param("wise", 6, 222_087, 45, id="wise-r6"),
    pytest.param("g2", 7, 91_133, 65, id="g2-r7"),
])
def test_ball_keeps_at_most_85_bytes_per_element(name, radius, elements, bound):
    group = preset(name)  # fresh, so the fold's memo tables are counted too
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ball = build_ball(group, radius)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ball) == elements
    # flat codes and rows, with key prefixes interned for expanded elements
    # only, keep about 36 B (wise) and 58 B (g2); with a prefix for every
    # element they kept 61 B and 76 B, and code ints, row tuples and a dist
    # array 150 B and 159 B.  The bounds only get tighter, so the name keeps
    # the first one.
    assert kept / len(ball) <= bound


def test_ball_build_peaks_at_most_165_bytes_per_element():
    for name, radius, bound in [("g2", 7, 133), ("wise", 6, 145)]:
        group = preset(name)  # fresh, as above
        tracemalloc.start()
        try:
            ball = build_ball(group, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the peak comes while S(radius)'s dedup dict is alive: about 126 B
        # (g2) and 138 B (wise) per element with one id object per expanded
        # element, against 139 B and 152 B with one per element found, 157 B
        # (g2) with a key prefix for every element and 168 B with code ints
        # and row tuples.  The name keeps the first bound.
        assert peak / len(ball) <= bound, name


BS12 = """base {
  kind = abelian
  generators = a
}
stable t {
  u = [a]
  v = [aa]
}
"""


def test_baumslag_solitar_1_2_spheres_and_ac_constants():
    """BS(1,2) = <a, t | t^-1 a t = a^2>: an extension that is not isometric."""
    bs12 = load_spec_text(BS12, name="bs12")
    ball = build_ball(bs12, 13)
    assert ball.sphere_sizes == [1, 4, 12, 26, 50, 98, 184, 336, 606, 1086, 1914, 3350,
                                 5846, 10134]
    assert [ball.distance_of(sphere.start) for sphere in map(ball.sphere, range(14))] == \
        list(range(14))
    assert [r.c for r in ac_profile(ball, 12).records] == [2, 2, 3, 3, 3, 6, 7, 7, 11, 11,
                                                           16, 16]
