"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``."""

import json
import sys
from pathlib import Path
from time import perf_counter, sleep
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_self_times_of_nested_frames_sum_to_the_root():
    t = Tracer()
    leaf = t.fine("leaf", lambda: sleep(0.002))
    same_layer = t.fine("mid", lambda: leaf())

    def mid():
        sleep(0.003)
        leaf()
        same_layer()  # nested call into its own layer: no new frame
        return t.span("inner", "mid", lambda: (sleep(0.001), leaf()))

    def root():
        sleep(0.002)
        t.span("mid", "mid", mid)
        leaf()

    t.span("root", "top", root)
    spans = {s[1]: s for s in t.spans}
    root_s = spans["root"][5] - spans["root"][4]
    assert abs(sum(t.self_s.values()) - root_s) < 1e-9
    assert all(v >= 0 for v in t.self_s.values())
    assert t.calls == {"top": 1, "mid": 2, "leaf": 4}
    assert spans["inner"][3] == spans["mid"][0]
    assert spans["mid"][3] == spans["root"][0]
    assert spans["root"][3] == -1
    assert t.self_s["leaf"] >= 4 * 0.002


def test_wrong_pinned_value_is_a_failed_op():
    report = SimpleNamespace(k_min=3, total_words=workloads.FFTP_TOTAL_WORDS,
                             non_geodesic_words=workloads.FFTP_NON_GEODESIC,
                             unresolved=[])
    api = SimpleNamespace(build_ball=lambda oracle, radius: None,
                          fftp_search=lambda ball, **kw: report)
    checker = workloads.Checker()
    workloads.z2abcd_fftp(api, {"z2_abcd": None}, checker, 0)
    assert (checker.attempted, checker.failed) == (4, 1)
    assert "fftp kMin" in checker.failures[0]


def test_failed_word_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "WORDS_PER_GROUP", 3)
    monkeypatch.setattr(workloads, "WORD_LEN", 20)
    monkeypatch.setattr(workloads.Api, "multiply", staticmethod(lambda spec, x, y: x))
    rc = run.main(["--workload", "words_nf", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False
    # x * x^-1 fails for every word that is not the identity
    assert (result["attempted"], result["failed"]) == (18, 6)
    assert set(result["metrics"]) == {"setup_s", "solve_s", "peak_rss_mb"}


def test_words_are_a_function_of_the_seed():
    from hnnkit import preset

    wise = preset("wise")
    digest = lambda seed: workloads.words_digest(
        workloads.make_words(wise, workloads.random.Random(seed), 5, 30))
    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


def test_count_drift_is_a_failed_op(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    record = {"workload": "g2_ac", "source_digest": "abc", "seed": 1}
    metrics = {name: (10, "count") for name in workloads.EXACT_COUNTS}
    first, second = workloads.Checker(), workloads.Checker()
    run.drift_check(record, metrics, first)
    metrics["hnn.splits"] = (11, "count")
    run.drift_check(record, metrics, second)
    assert (first.attempted, first.failed) == (0, 0)
    assert second.failed == 1 and "hnn.splits" in second.failures[0]


def test_every_stable_letter_folded_is_a_pinch_or_a_split():
    api = workloads.TracedApi(Tracer())
    wise = api.preset("wise")
    pairs = workloads.make_words(wise, workloads.random.Random(3), 4, 40)
    stable = 0
    for w, w2 in pairs:
        api.normal_form(wise, w2)
        stable += sum(1 for lid in w2.ids if lid >= wise.n_base_letters)
    c = api.counts
    assert c["hnn.pinches"] > 0 and c["hnn.splits"] > 0
    assert c["hnn.pinches"] + c["hnn.splits"] == stable


def test_letter_applications_are_counted_per_build():
    with workloads.TracedApi(Tracer()) as api:
        ball = api.build_ball(api.preset("z2_abcd"), 3)
    n_letters = ball.oracle.alphabet.n_letters
    assert api.counts["cayley.letter_applications"] == sum(ball.sphere_sizes[:3]) * n_letters
    # the per-build counter is gone again; the layer wrapper stays
    assert hasattr(ball.oracle.apply_letter, "__wrapped__")


def test_setup_probes_mid_run_are_left_out_of_the_clock(monkeypatch):
    monkeypatch.setattr(run, "PROBE_GAP", 0.3)
    monkeypatch.setattr(workloads, "PAUSED_S", [0.0])
    with run.SetupProbes(("g2",), workloads.PAUSED_S) as probes:
        wall0, clock0 = perf_counter(), workloads.clock()
        while perf_counter() - wall0 < 1.0:
            pass
        wall, busy = perf_counter() - wall0, workloads.clock() - clock0
    assert len(probes.times) >= 3
    # the first probe ran on entry, before the busy loop
    assert wall - busy >= sum(probes.times[1:])
