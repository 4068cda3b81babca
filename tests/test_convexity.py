import json
import os
import random
import subprocess
import sys

import pytest

from conftest import naive_z2_abcd_ball
from hnnkit.cayley import OutOfBallError, build_ball
import hnnkit.convexity as cx
from hnnkit.convexity import (
    _FftpContext,
    ac_profile,
    fellow_distance,
    fftp_search,
    verify_parallel_signatures,
)
from hnnkit.words import Word, parse_word


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


def test_fftp_against_naive_search(z2_abcd, z2_abcd_ball9):
    # independent oracle: for every non-geodesic word of length <= 4, minimize
    # the fellow distance over all shorter words by direct enumeration
    ball = z2_abcd_ball9
    n_letters = z2_abcd.alphabet.n_letters

    def all_words(max_len):
        frontier = [()]
        out = [()]
        for _ in range(max_len):
            nxt = []
            for ids in frontier:
                for lid in range(n_letters):
                    nxt.append(ids + (lid,))
            out.extend(nxt)
            frontier = nxt
        return out

    def naive_min(w_ids):
        target = z2_abcd.evaluate(Word(z2_abcd.alphabet, w_ids))
        best = None
        for v_ids in all_words(len(w_ids) - 1):
            if z2_abcd.evaluate(Word(z2_abcd.alphabet, v_ids)) != target:
                continue
            fd = fellow_distance(
                ball, Word(z2_abcd.alphabet, w_ids), Word(z2_abcd.alphabet, v_ids)
            )
            if best is None or fd < best:
                best = fd
        return best

    report = fftp_search(ball, max_len=4, k_cap=6)
    ctx = _FftpContext(ball, 4, 6, True)
    expected_hist = {}
    reduced = [
        ids
        for ids in all_words(4)
        if ids and all(ids[i] != ids[i + 1] ^ 1 for i in range(len(ids) - 1))
    ]
    for ids in reduced:
        w = Word(z2_abcd.alphabet, ids)
        if ball.distance_of_key(z2_abcd.evaluate(w)) == len(ids):
            continue
        m = naive_min(ids)
        expected_hist[m] = expected_hist.get(m, 0) + 1
        # every companion the DP reads back, not only the recorded witnesses
        got, v_ids = ctx.companion(ids, 6)
        v = Word(z2_abcd.alphabet, v_ids)
        assert got == m
        assert len(v) < len(w)
        assert z2_abcd.evaluate(v) == z2_abcd.evaluate(w)
        assert fellow_distance(ball, w, v) == m
    assert report.histogram == expected_hist
    assert report.k_min == max(expected_hist)


def test_fftp_jobs_and_sampled_determinism(z2_abcd, z2_abcd_ball9):
    r1 = fftp_search(z2_abcd_ball9, max_len=5, k_cap=6, jobs=1)
    r2 = fftp_search(z2_abcd_ball9, max_len=5, k_cap=6, jobs=4)
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)
    s1 = fftp_search(z2_abcd_ball9, max_len=5, k_cap=6, mode="sampled",
                     sample_count=200, seed=99)
    s2 = fftp_search(z2_abcd_ball9, max_len=5, k_cap=6, mode="sampled",
                     sample_count=200, seed=99)
    assert s1.to_dict() == s2.to_dict()
    assert s1.seed == 99


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
    group = request.getfixturevalue(name)
    report = fftp_search(build_ball(group, 0), max_len=4, k_cap=4,
                         include_unreduced=unreduced)
    assert report.to_dict() == expected


@pytest.mark.parametrize("initial_cap", [0, 1])
@pytest.mark.parametrize("name,max_len,unreduced", [("z2_abcd", 5, False), ("f2", 6, True)])
def test_fftp_k_cap_fallback(name, max_len, unreduced, initial_cap, request, monkeypatch):
    # every preset's per-word minima are <= 3, so only a lower initial cap
    # sends words to the rebuild at k_cap
    ball = build_ball(request.getfixturevalue(name), 0)

    def report():
        got = fftp_search(ball, max_len=max_len, k_cap=6, include_unreduced=unreduced)
        return json.dumps(got.to_dict(), sort_keys=True)

    default = report()
    monkeypatch.setattr(cx, "_INITIAL_CAP", initial_cap)
    assert report() == default


def test_fftp_k_cap_unresolved_reporting(z2_abcd, z2_abcd_ball9):
    # with k_cap = 0 every non-geodesic word is unverifiable and must be listed
    report = fftp_search(z2_abcd_ball9, max_len=2, k_cap=0)
    assert not report.verified
    assert report.unresolved
    assert report.k_min == 0


def _naive_ac_constants(oracle, n_max):
    """Independent C(N) computation: dict BFS, all-pairs scan, plain BFS paths."""
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
        for i, g in enumerate(sphere):
            for h in sphere[i + 1 :]:
                d_gh = pair_distance(g, h)
                if d_gh is None or d_gh > 2:
                    continue
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
        out[n] = c_n
    return out


def test_ac_profile_against_naive_all_pairs(z2_abcd, z2_abcd_ball9, wise):
    naive = _naive_ac_constants(z2_abcd, 5)
    report = ac_profile(z2_abcd_ball9, 5)
    assert {r.radius: r.c for r in report.records} == naive
    naive_w = _naive_ac_constants(wise, 3)
    wball = build_ball(wise, 4)
    report_w = ac_profile(wball, 3)
    assert {r.radius: r.c for r in report_w.records} == naive_w


def test_cross_engine_abelian_bound(z2_ab_ball9, z2_abcd_ball9):
    # abelian groups satisfy the fellow-traveler property; the almost-convexity
    # constant is then at most 3k
    for ball in (z2_ab_ball9, z2_abcd_ball9):
        fftp = fftp_search(ball, max_len=5, k_cap=6)
        ac = ac_profile(ball, 6)
        assert fftp.k_min > 0
        assert ac.max_c <= 3 * fftp.k_min


def test_parallel_signatures(wise, g2, g2_ball7):
    wball = build_ball(wise, 5)
    report = verify_parallel_signatures(wball, wise)
    assert report.passed
    assert report.elements == len(wball)
    report2 = verify_parallel_signatures(g2_ball7, g2)
    assert report2.passed


def test_signature_violation_detected(z2_abcd):
    # sanity for the reporting path: a fake "spec" that treats every letter as
    # stable makes same-element geodesics disagree immediately
    class FakeSpec:
        n_base_letters = 0

    ball = build_ball(z2_abcd, 3)
    report = verify_parallel_signatures(ball, FakeSpec())
    assert not report.passed
    assert report.violations[0]["word1"] != report.violations[0]["word2"]


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
else:
    real = cx._inside_bfs
    cx._inside_bfs = lambda *args: real(*args)[:-1]  # path misses its endpoint
    cx.ac_profile(build_ball(preset("g2"), 3), 2)
"""


@pytest.mark.parametrize("engine,message", [
    ("fftp", "fails re-verification"), ("ac", "misses its endpoint"),
])
def test_self_checks_survive_optimize_flag(engine, message):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", SELF_CHECK_SCRIPT, engine],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "AssertionError" in proc.stderr and message in proc.stderr, proc.stderr
