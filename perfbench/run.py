"""hnnkit benchmark: one workload in this process, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``hnnkit`` from ``src/`` of
the same checkout and nowhere else.

With ``--trace 0`` the workload repeats, each time on freshly loaded groups,
until ``--seconds`` of it have passed (at least once), and the end-to-end
metrics are reported:

* ``setup_s``: mean over fresh processes, started on entry and then
  throughout the run (see ``SetupProbes``), of the time from process start
  until every group of the workload is loaded (imports and the sympy Smith
  normal form included);
* ``solve_s``: median over repetitions of the wall time of the workload's
  hnnkit calls, excluding input generation and answer checks;
* ``peak_rss_mb``: ``ru_maxrss`` of this process.

With ``--trace 1`` one traced repetition runs first (so that its memory
growth figures start from a fresh process), then one untraced repetition for
the tracing overhead, and the per-layer metrics of the traced one are
reported.  Count metrics are also compared with earlier traced runs of the
same code and inputs kept under ``perfbench/out``; a difference is a failed
op, because it means the workload changed rather than its speed.

Every pinned answer and every word-level check is one op; a mismatch is a
failed op, makes ``correct`` false and the exit code 1.  The line before the
result is the run record (machine, versions, load, commit, per-stage times).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PROBE_GAP = 3.0  # seconds of workload between probes, per second of probe

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from hnnkit import preset
for name in sys.argv[2:]:
    preset(name)
print("ready", flush=True)
"""


def setup_time(groups) -> float:
    """Seconds from starting a fresh interpreter until the groups are loaded."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", PROBE, str(SRC), *groups],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {rc}")
    return elapsed


class SetupProbes:
    """Setup probes spread over the whole run.

    The machine's speed drifts over tens of seconds, so probes taken back to
    back share one speed window and swing from run to run with it.  Here one
    probe runs on entry, and each next one after ``PROBE_GAP`` times as many
    seconds of the workload as the last probe took, from a SIGALRM handler;
    probes thus take a quarter of the run whether the groups load in 0.1 s
    or 0.5 s.  The workload pauses while a probe runs, and
    ``workloads.clock`` leaves the pauses out of ``solve_s`` and the
    latencies.

    The probes' mean, not their median, is reported.  On a machine whose
    cores run at different speeds the probe times fall into two clusters,
    and a median jumps between them from run to run.
    """

    def __init__(self, groups, paused):
        self.groups = groups
        self.paused = paused
        self.times: list[float] = []

    def _probe(self, *_):
        t0 = perf_counter()
        self.times.append(setup_time(self.groups))
        paused = perf_counter() - t0
        self.paused[0] += paused
        signal.setitimer(signal.ITIMER_REAL, PROBE_GAP * paused)

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)


def source_digest() -> str:
    """Digest of the package and of the benchmark's own code."""
    h = hashlib.sha256()
    files = [*(SRC / "hnnkit").rglob("*"), *BENCH_DIR.glob("*.py")]
    for path in sorted(files):
        if path.is_file() and path.suffix in (".py", ".hnn"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout; '' outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def repetition(api, name, seed, checker):
    import workloads

    groups = {g: api.preset(g) for g in workloads.GROUPS[name]}
    solve_s, extra = workloads.WORKLOADS[name](api, groups, checker, seed)
    del groups
    # traced balls hold wrappers of their own methods, a cycle: free it now,
    # before the next repetition allocates another ball
    gc.collect()
    return solve_s, extra


def drift_check(record, metrics, checker):
    """Compare exact counts with earlier traced runs of the same code and inputs."""
    import workloads

    key = "|".join([record["workload"], record["source_digest"],
                    str(record["seed"]) if record["workload"] == "words_nf" else "-"])
    counts = {name: metrics[name][0] for name in workloads.EXACT_COUNTS}
    path = OUT_DIR / "counts.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    if key in seen:
        for name, value in counts.items():
            checker.expect(f"count drift in {name}", value, seen[key][name])
    else:
        seen[key] = counts
        path.write_text(json.dumps(seen, indent=1, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hnnkit" / "__init__.py").is_file():
        print(f"error: no hnnkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    record = run_record(args)
    OUT_DIR.mkdir(exist_ok=True)
    checker = workloads.Checker()

    if args.trace:
        tracer = Tracer()
        with workloads.TracedApi(tracer) as api:
            traced_s, extra = repetition(api, args.workload, args.seed, checker)
        untraced_s, _ = repetition(workloads.Api, args.workload, args.seed, checker)
        metrics = workloads.layer_metrics(api, traced_s, untraced_s)
        drift_check(record, metrics, checker)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
        record.update(traced_solve_s=traced_s, untraced_solve_s=untraced_s, stages=[extra])
    else:
        solves = []
        extras = []
        clock = workloads.clock
        with SetupProbes(workloads.GROUPS[args.workload], workloads.PAUSED_S) as probes:
            start = clock()
            while not solves or clock() - start < args.seconds:
                solve_s, extra = repetition(workloads.Api, args.workload, args.seed, checker)
                solves.append(solve_s)
                extras.append(extra)
        peak = workloads.maxrss_bytes() / 2**20
        metrics = {
            "setup_s": (statistics.fmean(probes.times), "s"),
            "solve_s": (statistics.median(solves), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
        record.update(solves_s=solves, stages=extras, setup_probes_s=probes.times)
    record.update(failures=checker.failures)

    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
