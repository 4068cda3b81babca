"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

Runs the command of BENCHMARK.json once per (workload, seed), one at a time,
from the root of the checkout.  For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median; with ``--trace 0`` each spread is compared with a third
of the metric's bound.  ``--out`` keeps every run's record and result,
merged into the file under ``trace0`` or ``trace1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed, trace):
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{proc.stderr}")
    record = next((json.loads(line[7:]) for line in lines if line.startswith("record ")), {})
    return {"workload": workload, "seed": seed, "returncode": proc.returncode,
            "wall_s": wall_s, "record": record, "result": json.loads(lines[-1])}


def summarise(runs, bounds):
    summary = {}
    names = list(runs[0]["result"]["metrics"])
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name), "values": values}
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    report = {}
    ok = True
    for workload in names:
        runs = [run_once(bench, workload, seed, args.trace) for seed in parse_seeds(args.seeds)]
        failed = [r for r in runs if r["returncode"] != 0 or not r["result"]["correct"]]
        summary = summarise(runs, bounds)
        report[workload] = {"runs": runs, "summary": summary}
        wall = sum(r["wall_s"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {len(failed)} failed, {wall:.0f} s in all")
        ok &= not failed
        for name, s in summary.items():
            flag = ""
            if s["bound"] is not None:
                steady = s["spread"] < s["bound"] / 3
                ok &= steady
                flag = "ok" if steady else "SPREAD ABOVE BOUND/3"
            print(f"  {name:30s} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {flag}")
        sys.stdout.flush()
    if args.out:
        out = Path(args.out)
        kept = json.loads(out.read_text()) if out.is_file() else {}
        kept.setdefault(f"trace{args.trace}", {}).update(report)
        out.write_text(json.dumps(kept, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
