#!/usr/bin/env python3
"""Steadiness report: runs every workload in two sets on the same commit.

Usage, from the root of the repository:

    python3 perfbench/steadiness.py

Every workload of BENCHMARK.json runs SETS sets of RUNS runs of run_seconds
each; each run uses its own seed, counting up from FIRST_SEED. For every
end-to-end metric and set the report prints the median and the quartile
spread (Q3 - Q1 over the median, from statistics.quantiles(n=4)), and then
judges the bounds of BENCHMARK.json the way they are applied to a change:
  * spread within the bound: "ok" below a third of it,
    "near" up to the bound, "WIDE" above;
  * a later set's median no worse than the first set's by more than the
    bound: "ok" or "SHIFT".
Finally the first seed of each workload runs again to confirm that
sim_step_us repeats exactly. Exits non-zero when any check fails.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(first, later, better):
    if first == 0:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = FIRST_SEED + s * RUNS + i
                runs.append(run_once(workload, seed, seconds))
            sets.append(runs)
        print(f"\n== {workload}: {SETS} sets x {RUNS} runs, {seconds} s each")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians, cells = [], []
            for runs in sets:
                values = [r[name] for r in runs]
                med = statistics.median(values)
                sp = spread(values)
                if sp <= bound / 3:
                    verdict = "ok"
                elif sp <= bound:
                    verdict = "near"
                else:
                    verdict = "WIDE"
                    failures += 1
                medians.append(med)
                cells.append(f"median {med:.6g} spread {sp:6.2%} {verdict:4}")
            shift = max((worse_by(medians[0], later, m["better"])
                         for later in medians[1:]), default=0.0)
            shift_ok = shift <= bound
            failures += 0 if shift_ok else 1
            print(f"  {name:18} bound {bound:5.0%} | " + " | ".join(cells) +
                  f" | worse by {shift:6.2%} {'ok' if shift_ok else 'SHIFT'}")
            for runs in sets:
                print("    runs: " + " ".join(f"{r[name]:.5g}" for r in runs))
        again = run_once(workload, FIRST_SEED, seconds)
        same = again["sim_step_us"] == sets[0][0]["sim_step_us"]
        failures += 0 if same else 1
        print(f"  sim_step_us repeats exactly for seed {FIRST_SEED}: "
              f"{'yes' if same else 'NO'}")
    print("\nsteadiness: " + ("PASS" if failures == 0 else
                              f"{failures} check(s) failed"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
