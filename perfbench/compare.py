#!/usr/bin/env python3
"""Runs two independent sets of benchmark runs and checks they agree.

For every workload in BENCHMARK.json, each of the two sets makes ten runs
with seeds 1 to 10, using BENCHMARK.json's command, `run_seconds` and
bounds. For each end-to-end metric it prints each set's median and spread
(interquartile range as a share of the median), and whether

- each set's spread is within the metric's bound, and
- the two sets' medians differ by no more than the bound, in either
  direction.

Run from the repository root:

    python3 perfbench/compare.py

Exits 1 if a run fails its output checks or a metric disagrees.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
SEEDS = range(1, 11)


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    ok = True
    # values[workload][metric][set] -> list of values
    values = {w: {m["name"]: [[] for _ in range(SETS)] for m in metrics} for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for seed in SEEDS:
                res = run_once(bench["command"], w, seed, bench["run_seconds"])
                if not res["correct"] or res["failed"]:
                    print(f"{w} seed {seed}: correct={res['correct']} "
                          f"failed={res['failed']}/{res['attempted']}")
                    ok = False
                for m in metrics:
                    values[w][m["name"]][s].append(res["metrics"][m["name"]]["value"])
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.6g}" for m in metrics),
                    flush=True)

    header = f"{'workload':<14} {'metric':<19} {'unit':<8}"
    for s in range(SETS):
        header += f" {'median' + str(s + 1):>14} {'iqr' + str(s + 1):>7}"
    print("\n" + header + "  median-diff  bound  verdict")
    for w in workloads:
        for m in metrics:
            sets = values[w][m["name"]]
            row = f"{w:<14} {m['name']:<19} {m['unit']:<8}"
            verdict = []
            for vals in sets:
                sp = spread(vals)
                row += f" {statistics.median(vals):>14.6g} {sp:>6.1%}"
                if sp > m["bound"]:
                    verdict.append("spread")
            first, second = (statistics.median(v) for v in sets)
            diff = abs(second - first) / first
            if diff > m["bound"]:
                verdict.append("medians differ")
            ok &= not verdict
            print(f"{row}  {diff:>11.1%}  {m['bound']:>5.2f}  {'; '.join(verdict) or 'ok'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
