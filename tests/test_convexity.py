import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from conftest import naive_z2_abcd_ball
from hnnkit.cayley import OutOfBallError, build_ball
import hnnkit.convexity as cx
from hnnkit.convexity import (
    _FftpContext,
    ac_bound,
    ac_profile,
    fellow_distance,
    fftp_search,
    verify_parallel_signatures,
)
from hnnkit.hnn import MAX_WITNESSES
from hnnkit.words import Word, enumerate_words, format_word, parse_word


def test_fellow_distance_examples(z2_ab, z2_ab_ball9, z2_abcd, z2_abcd_ball9):
    p = lambda s: parse_word(z2_ab.alphabet, s)
    assert fellow_distance(z2_ab_ball9, p("abab"), p("abab")) == 0
    assert fellow_distance(z2_ab_ball9, p("ab"), p("ba")) == 2
    # with c and d available, d(a, b) = 2 still: a^-1 b = (-1, 1) needs two letters
    naive = naive_z2_abcd_ball(4)
    assert naive[(-1, 1)] == 2
    q = lambda s: parse_word(z2_abcd.alphabet, s)
    assert fellow_distance(z2_abcd_ball9, q("ab"), q("ba")) == 2


def test_fellow_distance_symmetry_and_pointwise(z2_abcd, z2_abcd_ball9):
    rng = random.Random(14)
    q = lambda ids: Word(z2_abcd.alphabet, ids)
    for _ in range(100):
        w1 = q(tuple(rng.randrange(8) for _ in range(rng.randint(0, 4))))
        w2 = q(tuple(rng.randrange(8) for _ in range(rng.randint(0, 4))))
        fd = fellow_distance(z2_abcd_ball9, w1, w2)
        assert fd == fellow_distance(z2_abcd_ball9, w2, w1)
        for t in range(max(len(w1), len(w2)) + 1):
            a = z2_abcd.evaluate(w1[:min(t, len(w1))])
            b = z2_abcd.evaluate(w2[:min(t, len(w2))])
            d = z2_abcd_ball9.distance_of_key(
                z2_abcd.mult_key(z2_abcd.inv_key(a), b)
            )
            assert fd >= d


def test_fellow_distance_out_of_ball(z2_ab):
    small = build_ball(z2_ab, 2)
    p = lambda s: parse_word(z2_ab.alphabet, s)
    with pytest.raises(OutOfBallError):
        fellow_distance(small, p("aaaa"), p("bbbb"))


def test_ac_profile_abelian(z2_ab_ball9, z2_abcd_ball9):
    for ball in (z2_ab_ball9, z2_abcd_ball9):
        report = ac_profile(ball, 8)
        assert [r.radius for r in report.records] == list(range(1, 9))
        for r in report.records:
            assert 0 < r.c <= 2 * r.radius
        assert report.max_c == 2


def test_ac_profile_radius_one_bound(z2_ab_ball9, g2_ball7):
    for ball in (z2_ab_ball9, g2_ball7):
        report = ac_profile(ball, 1)
        assert report.records[0].c <= 2


def test_ac_profile_needs_radius(z2_ab):
    ball = build_ball(z2_ab, 3)
    with pytest.raises(OutOfBallError):
        ac_profile(ball, 3)


def test_ac_witness_path_connects_inside(z2_abcd, z2_abcd_ball9):
    report = ac_profile(z2_abcd_ball9, 6)
    for rec in report.records:
        if not rec.witness_g:
            continue
        g = z2_abcd.evaluate(parse_word(z2_abcd.alphabet, rec.witness_g))
        h = z2_abcd.evaluate(parse_word(z2_abcd.alphabet, rec.witness_h))
        path = parse_word(z2_abcd.alphabet, rec.witness_path)
        assert len(path) == rec.c
        cur = g
        for lid in path.ids:
            cur = z2_abcd.apply_letter(cur, lid)
            assert z2_abcd_ball9.distance_of_key(cur) <= rec.radius
        assert cur == h


def test_fftp_free_group_reduced_words_are_geodesic(f2_ball7):
    report = fftp_search(f2_ball7, max_len=6, k_cap=6)
    assert report.k_min == 0
    assert report.non_geodesic_words == 0
    assert report.verified


def test_fftp_free_group_with_unreduced_words(f2_ball7):
    report = fftp_search(f2_ball7, max_len=6, k_cap=6, include_unreduced=True)
    assert report.k_min == 2
    assert report.verified
    # the shortest witness: a a' must be fellow-traveled by the empty word
    assert report.witnesses[0]["word"] == "aa'"
    assert report.witnesses[0]["companion"] == ""
    assert report.witnesses[0]["fellow_distance"] == 1


def test_fftp_geodesic_only_input_is_vacuous(z2_ab_ball9):
    report = fftp_search(z2_ab_ball9, max_len=1, k_cap=6)
    assert report.k_min == 0
    assert report.non_geodesic_words == 0


def _all_words(n_letters, max_len, reduced):
    """Every word of length <= max_len as a tuple of letter ids, by length."""
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [ids + (lid,) for ids in frontier for lid in range(n_letters)
                    if not (reduced and ids and lid == ids[-1] ^ 1)]
        out.extend(frontier)
    return out


def test_fftp_against_naive_search(z2_abcd, wise, g2):
    # independent oracle: for every non-geodesic word, minimize the fellow
    # distance over all shorter words by direct enumeration
    for group, max_len, k_cap, unreduced in (
        (z2_abcd, 4, 6, False), (wise, 3, 3, False), (g2, 3, 4, True),
    ):
        alphabet = group.alphabet
        word = lambda ids: Word(alphabet, ids)
        # fellow distances of words of length <= max_len stay below 2 * max_len
        ball = build_ball(group, max(cx.fftp_radius(max_len, k_cap), 2 * max_len - 1))
        shorter: dict = {}
        for v_ids in _all_words(alphabet.n_letters, max_len - 1, False):
            shorter.setdefault(group.evaluate(word(v_ids)), []).append(word(v_ids))

        report = fftp_search(ball, max_len=max_len, k_cap=k_cap,
                             include_unreduced=unreduced)
        ctx = _FftpContext(ball, max_len, k_cap, not unreduced)
        expected_hist = {}
        for ids in _all_words(alphabet.n_letters, max_len, not unreduced)[1:]:
            w = word(ids)
            target = group.evaluate(w)
            if ball.distance_of_key(target) == len(ids):
                continue
            m = min(fellow_distance(ball, w, v)
                    for v in shorter[target] if len(v) < len(w))
            expected_hist[m] = expected_hist.get(m, 0) + 1
            # every companion the DP reads back, not only the recorded witnesses
            got, v_ids = ctx.companion(ids, k_cap)
            v = word(v_ids)
            assert got == m
            assert len(v) < len(w)
            assert group.evaluate(v) == target
            assert fellow_distance(ball, w, v) == m
        assert report.histogram == expected_hist
        assert report.k_min == max(expected_hist)


def _full_chain_best_end(ctx, dps, ids):
    """Reference minimum: the whole chain w(j)^-1 * w(n), every level scanned."""
    chain = [0]
    for lid in ids:
        chain = [ctx.rel_trans[r][lid] for r in chain]
        chain.append(0)
    best, best_at, tail = cx.INF, -1, 0
    for level in range(len(dps) - 1, -1, -1):
        d = ctx.rel_dist[chain[level]]
        if d > tail:
            tail = d
        c = dps[level].get(chain[level])
        if c is not None:
            cost = c if c >= tail else tail
            if cost <= best:
                best, best_at = cost, level
    return best, best_at, chain


@pytest.mark.parametrize("name,k_cap,unreduced", [
    ("z2_abcd", 6, False), ("wise", 4, False), ("g2", 4, True),
])
def test_fftp_layer_memo_matches_full_chain(name, k_cap, unreduced, request):
    group = request.getfixturevalue(name)
    ctx = _FftpContext(build_ball(group, 0), 4, k_cap, not unreduced)
    for cap in (1, 3, k_cap):
        raw = {(): [{0: 0}]}  # word minus its last letter -> extend_dp chain from {0: 0}
        for ids in _all_words(group.alphabet.n_letters, 4, not unreduced)[1:]:
            if ids[:-1] not in raw:
                prev = raw[ids[:-2]]
                raw[ids[:-1]] = prev + [ctx.extend_dp(prev[-1].items(), ids[-2], cap, True)]
            dps = raw[ids[:-1]]
            states = ctx.states(ids, cap)
            # the moving layers are the raw chain, item for item
            assert [list(ctx.layer_dp[m].items()) for m, _ in states] == [
                list(dp.items()) for dp in dps]
            # R_n(0) is the full-chain minimum, dropped above the cap, and the
            # companion ends at the first level that attains it
            want, want_at, _ = _full_chain_best_end(ctx, dps, ids)
            assert ctx.word_min(states[-1], ids[-1]) == (want if want <= cap else cx.INF)
            if want <= cap:
                assert len(ctx.companion(ids, cap)[1]) == want_at


@pytest.mark.parametrize("name,max_len,k_cap,unreduced", [
    ("z2_abcd", 6, 6, False), ("z2_ab", 6, 6, False), ("f2", 6, 6, True),
    ("z2_abcd", 3, 0, False),
])
def test_fftp_report_independent_of_caller_radius(name, max_len, k_cap, unreduced, request):
    # a caller ball below max(max_len, k_cap+2) is replaced by one of that
    # radius; at or above it, the caller's ball serves both lookups
    group = request.getfixturevalue(name)
    reports = {
        json.dumps(fftp_search(build_ball(group, r), max_len=max_len, k_cap=k_cap,
                               include_unreduced=unreduced).to_dict(), sort_keys=True)
        for r in (0, max_len, k_cap + 2, max(max_len, k_cap + 2) + 1)
    }
    assert len(reports) == 1


WISE_FFTP_4_4 = {
    "k_min": 3, "max_len": 4, "k_cap": 4, "mode": "exhaustive", "seed": None,
    "include_unreduced": False, "total_words": 17568, "geodesic_words": 9536,
    "non_geodesic_words": 8032, "histogram": {"1": 7228, "2": 796, "3": 8},
    "witnesses": [
        {"word": "ab", "companion": "c", "fellow_distance": 1},
        {"word": "ad'a'", "companion": "d'", "fellow_distance": 2},
        {"word": "dds'd'", "companion": "s'b'b'", "fellow_distance": 3},
    ],
    "falsifiers": {"1": "ad'a'", "2": "dds'd'"}, "unresolved": [],
}
G2_FFTP_4_4_UNREDUCED = {
    "k_min": 2, "max_len": 4, "k_cap": 4, "mode": "exhaustive", "seed": None,
    "include_unreduced": True, "total_words": 1554, "geodesic_words": 924,
    "non_geodesic_words": 630, "histogram": {"1": 258, "2": 372},
    "witnesses": [
        {"word": "aa'", "companion": "", "fellow_distance": 1},
        {"word": "aa'a'", "companion": "a'", "fellow_distance": 2},
    ],
    "falsifiers": {"1": "aa'a'"}, "unresolved": [],
}


@pytest.mark.parametrize("name,unreduced,expected", [
    ("wise", False, WISE_FFTP_4_4), ("g2", True, G2_FFTP_4_4_UNREDUCED),
])
def test_fftp_on_hnn_extensions(name, unreduced, expected, request):
    # whole reports pinned from earlier versions; the run's settings are read
    # from the pinned report itself
    group = request.getfixturevalue(name)
    report = fftp_search(build_ball(group, 0), max_len=expected["max_len"],
                         k_cap=expected["k_cap"], include_unreduced=unreduced)
    assert report.to_dict() == expected


@pytest.mark.parametrize("low_cap", [0, 1])
@pytest.mark.parametrize("name,max_len,unreduced", [("z2_abcd", 5, False), ("f2", 6, True)])
def test_fftp_k_cap_fallback(name, max_len, unreduced, low_cap, request):
    # per first letter, the first cap that resolves every word gives the
    # tallies of a run at k_cap, and the cap below it resolves too few; a low
    # cap leaves words unresolved exactly when it is below the largest minimum,
    # and otherwise already gives those tallies
    ctx = _FftpContext(build_ball(request.getfixturevalue(name), 0), max_len, 6, not unreduced)
    letters = range(ctx.n_letters)
    ladder = [cx._first_letter_tallies(ctx, first) for first in letters]
    for first, partial in zip(letters, ladder):
        geodesic = cx._geodesic_counts(ctx.rel, first, max_len)
        assert cx._count_subtree(ctx, first, 6, geodesic) == (partial, 0)
        m = max(partial["hist"])
        assert cx._count_subtree(ctx, first, m - 1, geodesic)[1] > 0
        low, missing = cx._count_subtree(ctx, first, low_cap, geodesic)
        assert (missing > 0) == (low_cap < m)
        if not missing:
            assert low == partial


def test_fftp_bucket_words_are_least(z2_abcd, monkeypatch):
    # a bucket's word, from which witnesses are taken, is the least word of
    # its length that reaches the bucket's (state, last letter)
    ctx = _FftpContext(build_ball(z2_abcd, 0), 5, 2, True)
    least = {}
    for w in enumerate_words(z2_abcd.alphabet, 5):  # shortlex: the first word is the least
        if w.ids[:1] == (0,):
            least.setdefault((len(w.ids), ctx.states(w.ids, 2)[-1], w.ids[-1]), w.ids)
    tallied = []
    monkeypatch.setattr(cx, "_tally", lambda partial, m, count, ids: tallied.append((count, ids)))
    cx._count_subtree(ctx, 0, 2, cx._geodesic_counts(ctx.rel, 0, 5))
    assert any(count > 1 for count, _ in tallied)
    for _, ids in tallied:
        assert ids == least[len(ids), ctx.states(ids, 2)[-1], ids[-1]]


Z2_ABCD_FFTP_20 = {
    "k_min": 2, "max_len": 20, "k_cap": 6, "mode": "exhaustive", "seed": None,
    "include_unreduced": False, "total_words": 106389688396816000,
    "geodesic_words": 171965080, "non_geodesic_words": 106389688224850920,
    "histogram": {"1": 106389688157741196, "2": 67109724},
    "witnesses": [
        {"word": "ab", "companion": "c", "fellow_distance": 1},
        {"word": "ad'a'", "companion": "d'", "fellow_distance": 2},
    ],
    "falsifiers": {"1": "ad'a'"}, "unresolved": [],
}
Z2_AB_FFTP_20 = {
    "k_min": 2, "max_len": 20, "k_cap": 6, "mode": "exhaustive", "seed": None,
    "include_unreduced": False, "total_words": 6973568800, "geodesic_words": 8388520,
    "non_geodesic_words": 6965180280, "histogram": {"2": 6965180280},
    "witnesses": [{"word": "aba'", "companion": "b", "fellow_distance": 2}],
    "falsifiers": {"1": "aba'"}, "unresolved": [],
}


@pytest.mark.parametrize("name,expected", [("z2_abcd", Z2_ABCD_FFTP_20), ("z2_ab", Z2_AB_FFTP_20)])
def test_fftp_length_20(name, expected, request):
    # about 1e17 words on z2_abcd, counted over the automaton, not visited
    start = time.perf_counter()
    report = fftp_search(build_ball(request.getfixturevalue(name), 0), max_len=20, k_cap=6)
    assert time.perf_counter() - start < 5
    assert report.to_dict() == expected


def _score_words(ctx: _FftpContext, words) -> dict:
    """The tallies of the given words, each scored on its own at the least cap that resolves it."""
    partial = cx._new_partial()
    for ids in words:
        end = 0
        for x in ids:
            end = ctx.rel_trans[end][x]
        state = ctx.start
        if ctx.rel_dist[end] < len(ids):  # geodesic words resolve at no cap
            for cap in range(ctx.k_cap + 1):
                state = ctx.states(ids, cap)[-1]
                if ctx.word_min(state, ids[-1]) <= cap:
                    break
        cx._score_word(ctx, partial, ids, state, end)
    return partial


@pytest.mark.parametrize("name,max_len,k_cap,reduced", [
    pytest.param("z2_ab", 8, 6, True, id="z2_ab-8"),
    pytest.param("z2_abcd", 6, 6, True, id="z2_abcd-6"),
    # k_cap leaves words unresolved, so their subtrees are walked and listed
    pytest.param("z2_abcd", 3, 1, True, id="z2_abcd-3-cap1"),
    pytest.param("wise", 4, 2, True, id="wise-4-cap2"),
    pytest.param("f2", 5, 1, False, id="f2-5-cap1-unreduced"),
])
def test_fftp_count_matches_per_word_scores(name, max_len, k_cap, reduced, request):
    # the automaton's counts against the per-word scorer over every word
    group = request.getfixturevalue(name)
    ctx = _FftpContext(build_ball(group, 0), max_len, k_cap, reduced)
    letters = range(ctx.n_letters)
    counted = cx._merge_partials([cx._first_letter_tallies(ctx, first) for first in letters])
    words = [w.ids for w in enumerate_words(group.alphabet, max_len, reduced)][1:]
    scored = cx._merge_partials([_score_words(ctx, words)])
    assert counted == scored
    assert scored["total"] == len(words) and scored["hist"]
    assert bool(scored["unresolved"]) == (k_cap < 6)
    # shortlex order: the witness of a minimum is the first word scored with it
    for m, w in scored["witness"].items():
        assert w == next(ids for ids in words if _score_words(ctx, [ids])["hist"] == {m: 1})


def test_fftp_k_cap_unresolved_reporting(z2_abcd, z2_abcd_ball9):
    # with k_cap = 0 every non-geodesic word is unverifiable and must be listed
    report = fftp_search(z2_abcd_ball9, max_len=2, k_cap=0)
    assert not report.verified
    assert report.unresolved
    assert report.k_min == 0


def _naive_ac_constants(oracle, n_max):
    """Independent C(N) and same-sphere pair counts at distance 1 and 2:
    dict BFS, all-pairs scan, plain BFS paths.  Maps N -> (C, pairs_d1, pairs_d2)."""
    from collections import deque

    dist = {oracle.identity_key(): 0}
    frontier = [oracle.identity_key()]
    for d in range(n_max + 1):
        nxt = []
        for key in frontier:
            for lid in range(oracle.alphabet.n_letters):
                k2 = oracle.apply_letter(key, lid)
                if k2 not in dist:
                    dist[k2] = d + 1
                    nxt.append(k2)
        frontier = nxt

    def pair_distance(x, y):
        return dist.get(oracle.mult_key(oracle.inv_key(x), y))

    out = {}
    for n in range(1, n_max + 1):
        sphere = [k for k, d in dist.items() if d == n]
        c_n = 0
        counts = {1: 0, 2: 0}
        for i, g in enumerate(sphere):
            for h in sphere[i + 1 :]:
                d_gh = pair_distance(g, h)
                if d_gh is None or d_gh > 2:
                    continue
                counts[d_gh] += 1
                # unidirectional BFS inside B(n)
                seen = {g: 0}
                queue = deque([g])
                found = None
                while queue:
                    v = queue.popleft()
                    if v == h:
                        found = seen[v]
                        break
                    for lid in range(oracle.alphabet.n_letters):
                        w = oracle.apply_letter(v, lid)
                        if w in seen or dist.get(w, n + 1) > n:
                            continue
                        seen[w] = seen[v] + 1
                        queue.append(w)
                assert found is not None
                c_n = max(c_n, found)
        out[n] = (c_n, counts[1], counts[2])
    return out


def test_ac_profile_against_naive_all_pairs(z2_abcd, z2_abcd_ball9, wise, g2):
    # g2 is the one with far pairs (every midpoint on S(N+1)) at these radii
    for oracle, ball, n_max in ((z2_abcd, z2_abcd_ball9, 5), (wise, build_ball(wise, 4), 3),
                                (g2, build_ball(g2, 4), 3)):
        report = ac_profile(ball, n_max)
        assert {r.radius: (r.c, r.pairs_d1, r.pairs_d2) for r in report.records} == \
            _naive_ac_constants(oracle, n_max)


# whole ac_profile reports pinned from an earlier version, one row per record:
# group -> (ball radius, n_max, max_c, records)
AC_KEYS = ("N", "C", "pairs_d1", "pairs_d2", "witness_g", "witness_h", "witness_gamma",
           "witness_path")
AC_REPORTS = {
    "z2_abcd": (9, 8, 2, [
        (1, 2, 9, 19, "a", "a'", "a'a'", "a'a'"),
        (2, 2, 20, 42, "aa", "ad", "a'd", "a'd"),
        (3, 2, 32, 52, "aaa", "aad", "a'd", "a'd"),
        (4, 2, 44, 66, "aaaa", "aaad", "a'd", "a'd"),
        (5, 2, 56, 82, "aaaaa", "aaaad", "a'd", "a'd"),
        (6, 2, 68, 98, "aaaaaa", "aaaaad", "a'd", "a'd"),
        (7, 2, 80, 114, "aaaaaaa", "aaaaaad", "a'd", "a'd"),
        (8, 2, 92, 130, "aaaaaaaa", "aaaaaaad", "a'd", "a'd"),
    ]),
    "f2": (7, 6, 2, [
        (1, 2, 0, 6, "a", "a'", "a'a'", "a'a'"),
        (2, 2, 0, 12, "aa", "ab", "a'b", "a'b"),
        (3, 2, 0, 36, "aaa", "aab", "a'b", "a'b"),
        (4, 2, 0, 108, "aaaa", "aaab", "a'b", "a'b"),
        (5, 2, 0, 324, "aaaaa", "aaaab", "a'b", "a'b"),
        (6, 2, 0, 972, "aaaaaa", "aaaaab", "a'b", "a'b"),
    ]),
    "g2": (7, 6, 6, [
        (1, 2, 0, 15, "a", "a'", "a'a'", "a'a'"),
        (2, 4, 0, 66, "aa", "sb", "sb'", "a'a'sb"),
        (3, 6, 0, 332, "aba", "s'bb", "s'b'", "a'b'a's'bb"),
        (4, 6, 0, 1572, "aaba", "as'bb", "s'b'", "a'b'a's'bb"),
        (5, 6, 0, 7432, "aaaas", "sbsab", "sa'", "b'b'b'sab"),
        (6, 6, 0, 35092, "aaaaas", "asbsab", "sa'", "b'b'b'sab"),
    ]),
    "wise": (6, 5, 4, [
        (1, 2, 9, 57, "a", "a'", "a'a'", "a'a'"),
        (2, 2, 62, 426, "aa", "ad", "a'd", "a'd"),
        (3, 2, 492, 2924, "aaa", "aad", "a'd", "a'd"),
        (4, 3, 3348, 19686, "aats'", "dts'd'", "b'b'", "aad'"),
        (5, 4, 23304, 134402, "aats't", "dts'd't", "d'd'", "t'b'b't"),
    ]),
}


@pytest.mark.parametrize("name", sorted(AC_REPORTS))
def test_ac_profile_whole_reports(name, request):
    radius, n_max, max_c, rows = AC_REPORTS[name]
    report = ac_profile(build_ball(request.getfixturevalue(name), radius), n_max)
    assert report.to_dict() == {
        "n_max": n_max, "max_c": max_c, "records": [dict(zip(AC_KEYS, row)) for row in rows],
    }


def reference_inside_bfs(ball, n, start, goal):
    """Reference far-pair search: one pair of maps and frontiers, swapped so
    that the smaller frontier expands, and swapped back after each level."""
    if start == goal:
        return []
    hi = ball.sphere(n).stop
    pg = {start: (-1, -1)}
    ph = {goal: (-1, -1)}
    fg, fh = [start], [goal]
    meet = -1
    while fg and fh:
        if len(fg) > len(fh):
            fg, fh, pg, ph, swapped = fh, fg, ph, pg, True
        else:
            swapped = False
        nxt = []
        for v in fg:
            for lid, t in enumerate(ball.row(v)):
                if t >= hi or t in pg:
                    continue
                pg[t] = (v, lid)
                if t in ph:
                    meet = t
                    break
                nxt.append(t)
            if meet >= 0:
                break
        if swapped:
            fg, fh, pg, ph = fh, fg, ph, pg
            if meet >= 0:
                break
            fh = nxt
        else:
            if meet >= 0:
                break
            fg = nxt
    if meet < 0:
        raise AssertionError("same-sphere pair not connected inside the ball")
    left = []
    v = meet
    while pg[v][0] >= 0:
        v, lid = pg[v]
        left.append(lid)
    left.reverse()
    right = []
    v = meet
    while ph[v][0] >= 0:
        v, lid = ph[v]
        right.append(lid ^ 1)
    return left + right


def test_inside_bfs_matches_the_reference_on_every_far_pair(monkeypatch, wise, g2_ball7):
    real = cx._inside_bfs
    calls = []

    def checked(ball, n, g, h):
        path = real(ball, n, g, h)
        assert path == reference_inside_bfs(ball, n, g, h), (n, g, h)
        calls.append((n, g, h))
        return path

    monkeypatch.setattr(cx, "_inside_bfs", checked)
    counts = []
    for ball, n_max in ((g2_ball7, 6), (build_ball(wise, 6), 5)):
        calls.clear()
        ac_profile(ball, n_max)
        counts.append(len(calls))
    assert counts == [4430, 76]


def test_ac_profile_rejects_negative_radius(z2_ab):
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        ac_profile(build_ball(z2_ab, 1), -1)


def test_cross_engine_abelian_bound(z2_ab_ball9, z2_abcd_ball9):
    # abelian groups satisfy the fellow-traveler property; the almost-convexity
    # constant is then at most 3k
    for ball in (z2_ab_ball9, z2_abcd_ball9):
        fftp = fftp_search(ball, max_len=5, k_cap=6)
        ac = ac_profile(ball, 6)
        assert fftp.k_min > 0
        assert ac.max_c <= ac_bound(ball.oracle, fftp.k_min)[1]


def test_ac_bound_of_base_groups_and_extensions(wise, g2, z2_ab):
    assert ac_bound(wise, 2) == ("max(6k+2, 4*max|u|) with k=2, max|u|=1", 14)
    assert ac_bound(g2, 0) == ("max(6k+2, 4*max|u|) with k=0, max|u|=3", 12)
    assert ac_bound(z2_ab, 2) == ("3k (fellow-traveler bound for the base metric)", 6)


def test_ac_bound_rejects_a_negative_k(wise, z2_ab):
    for group in (wise, z2_ab):
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            ac_bound(group, -1)


def test_parallel_signatures(wise, g2, g2_ball7):
    wball = build_ball(wise, 5)
    report = verify_parallel_signatures(wball, wise)
    assert report.passed
    assert report.elements == len(wball)
    report2 = verify_parallel_signatures(g2_ball7, g2)
    assert report2.passed


@pytest.mark.parametrize("other", ["base", "g2"])
def test_signatures_reject_a_ball_over_another_alphabet(wise, g2, other):
    """The spec's base letters are read against the ball's letters, so a ball
    of the base group, or of another extension, is refused."""
    group = wise.base if other == "base" else g2
    with pytest.raises(ValueError, match="alphabet"):
        verify_parallel_signatures(build_ball(group, 3), wise)


class FakeSpec:
    """A stand-in spec over the group's alphabet whose letters with ids >=
    n_base_letters count as stable."""

    def __init__(self, group, n_base_letters=0):
        self.alphabet = group.alphabet
        self.n_base_letters = n_base_letters


def test_signature_violation_detected(z2_abcd):
    # sanity for the reporting path: a fake "spec" that treats every letter as
    # stable makes same-element geodesics disagree immediately
    ball = build_ball(z2_abcd, 3)
    report = verify_parallel_signatures(ball, FakeSpec(z2_abcd))
    assert not report.passed
    assert report.violations[0]["word1"] != report.violations[0]["word2"]


def test_signature_report_is_bounded(wise):
    report = verify_parallel_signatures(build_ball(wise, 5), FakeSpec(wise))
    assert (report.violation_count, len(report.violations)) == (7972, MAX_WITNESSES)
    assert report.to_dict()["violation_count"] == 7972
    lines = report.table_lines()
    assert lines[1] == "parallel stable-letter structure: FAIL (7972 violations)"
    assert lines[2:] == [f"  {v['element']}: {v['word1']!r} vs {v['word2']!r}"
                         for v in report.violations] + ["  ... and 7964 more violations"]


def reference_signatures(ball, spec):
    """The tuple-signature DP: (violation count, the first MAX_WITNESSES violations)."""
    nb = spec.n_base_letters
    start, src, letter = ball.link_start, ball.link_src, ball.link_letter
    word = lambda p, lid: format_word(Word(ball.oracle.alphabet,
                                           ball.shortlex_geodesic(p).ids + (lid,)))
    sigs = [()] * len(ball)
    count, kept = 0, []
    for eid in range(1, len(ball)):
        first = start[eid]
        p0, l0 = src[first], letter[first]
        sigs[eid] = sig0 = sigs[p0] + ((l0,) if l0 >= nb else ())
        for k in range(first + 1, start[eid + 1]):
            pid, lid = src[k], letter[k]
            if sigs[pid] + ((lid,) if lid >= nb else ()) != sig0:
                count += 1
                if len(kept) < MAX_WITNESSES:
                    kept.append({"element": ball.oracle.key_str(ball.key(eid)),
                                 "word1": word(p0, l0), "word2": word(pid, lid)})
                break
    return count, kept


@pytest.mark.parametrize("name,radius,n_base_letters,violations", [
    ("wise", 5, None, 0), ("g2", 6, None, 0), ("z2_abcd", 3, 0, 34),
    ("z2_abcd", 4, 4, 30),  # c and d stable, a and b not
    ("wise", 5, 6, 5628),  # d, s and t stable
    # every violation on the outer sphere, at an element with several links
    ("z2_abcd", 2, 0, 12), ("z2_abcd", 2, 4, 6), ("wise", 2, 0, 20), ("g2", 3, 0, 6),
])
def test_interned_signatures_match_the_tuple_dp(name, radius, n_base_letters, violations,
                                                request):
    group = request.getfixturevalue(name)
    spec = group if n_base_letters is None else FakeSpec(group, n_base_letters)
    ball = build_ball(group, radius)
    report = verify_parallel_signatures(ball, spec)
    assert (report.violation_count, report.violations) == reference_signatures(ball, spec)
    assert report.violation_count == violations


def test_signatures_of_a_ball_with_an_empty_outer_sphere():
    from hnnkit.base_groups import abelian_from_presentation

    z2_cubed = abelian_from_presentation(["a", "b", "c"], ["aa", "bb", "cc"])
    ball = build_ball(z2_cubed, 4)
    assert ball.sphere_sizes == [1, 3, 3, 1, 0]
    spec = FakeSpec(z2_cubed)
    report = verify_parallel_signatures(ball, spec)
    assert (report.violation_count, report.violations) == reference_signatures(ball, spec)
    assert report.violation_count == 7


def test_analysis_passes_allocate_nothing_per_element(wise):
    # beyond the ball, the signature check keeps one int per element of
    # B(r - 1) and ac_profile nothing per element (tracemalloc peaks, in
    # bytes per element of B(r); one int per element of B(r) would be 8)
    ball = build_ball(wise, 5)
    per_element = {}
    for name, run, bound in (("signatures", lambda: verify_parallel_signatures(ball, wise), 3),
                             ("ac_profile", lambda: ac_profile(ball, 4), 2)):
        tracemalloc.start()
        try:
            run()
            per_element[name] = tracemalloc.get_traced_memory()[1] / len(ball)
        finally:
            tracemalloc.stop()
        assert per_element[name] <= bound, per_element


SELF_CHECK_SCRIPT = """
import sys
if __debug__:
    sys.exit("assertions are on")
import hnnkit.convexity as cx
from hnnkit import build_ball, preset

if sys.argv[1] == "fftp":
    real = cx._FftpContext.companion

    def corrupt(self, ids, cap):
        got, v = real(self, ids, cap)
        return got, v[:-1] + (v[-1] ^ 1,)  # last companion letter inverted

    cx._FftpContext.companion = corrupt
    cx.fftp_search(build_ball(preset("z2_ab"), 4), max_len=4, k_cap=6)
elif sys.argv[1] == "table":
    import hnnkit.subgroups as sg
    # every element its own representative: a valid split, but not constant on cosets
    sg.SubgroupOracle.coset_rep_left = lambda self, key: key
    build_ball(preset("wise"), 2)
elif sys.argv[1] == "hnn":
    import hnnkit.hnn as hnn
    real = hnn.Alphabet.make
    # the full alphabet lists the base generators in reverse, so their ids move
    hnn.Alphabet.make = lambda base, stable=(): real(base[::-1] if stable else base, stable)
    preset("g2")
elif sys.argv[1] == "reps":
    from hnnkit import AssociatedPair, HnnSpec
    from hnnkit.base_groups import abelian_from_presentation
    from hnnkit.subgroups import cyclic_subgroup
    from hnnkit.words import parse_word
    z2 = abelian_from_presentation(["a", "b"], [])
    sub = cyclic_subgroup(z2, parse_word(z2.alphabet, "a"))
    # (1, y) represents the coset of (x, y): one per coset, but <a> is not represented by 0
    sub.coset_rep = lambda key: z2._norm([1, key[1]])
    HnnSpec(z2, ["s"], [AssociatedPair(sub, sub)])
elif sys.argv[1] == "snf":
    import hnnkit.base_groups as bg
    real = bg._smith_decomp

    def corrupt(m):
        diag, s, t = real(m)
        return [x + 1 for x in diag], s, t  # invariants that S*M*T does not give

    bg._smith_decomp = corrupt
    preset("wise")
elif sys.argv[1] == "ac-upper":
    def through_upper(ball, n, g, h):
        # a far pair's two letters through a common midpoint on S(n+1)
        for l1, m in enumerate(ball.row(g)):
            if ball.distance_of(m) > n:
                for k in range(ball.link_start[m], ball.link_start[m + 1]):
                    if ball.link_src[k] == h:
                        return [l1, ball.link_letter[k] ^ 1]

    cx._inside_bfs = through_upper
    cx.ac_profile(build_ball(preset("g2"), 3), 2)
else:
    real = cx._inside_bfs
    cx._inside_bfs = lambda *args: real(*args)[:-1]  # path misses its endpoint
    cx.ac_profile(build_ball(preset("g2"), 3), 2)
"""


@pytest.mark.parametrize("engine,message", [
    ("fftp", "fails re-verification"), ("ac", "misses its endpoint"),
    ("ac-upper", "witness path leaves the ball"),
    ("hnn", "changes its letter ids"), ("table", "coset representative is not canonical"),
    ("reps", "the coset representative of the subgroup itself is not the identity"),
    ("snf", "S*M*T != D"),
])
def test_self_checks_survive_optimize_flag(engine, message):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", SELF_CHECK_SCRIPT, engine],
                          capture_output=True, text=True, env=env, timeout=120)
    # reps and snf are load-time checks
    error = {"reps": "ValueError", "snf": "RuntimeError"}.get(engine, "AssertionError")
    assert proc.returncode == 1, proc.stderr
    assert error in proc.stderr and message in proc.stderr, proc.stderr
