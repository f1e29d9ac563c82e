#!/usr/bin/env python3
"""Bench regression gate: compares the BENCH_*.json files the bench
binaries emit into bench_results/ (the canonical results path) against
the committed baselines in bench/baselines/.

The simulator is deterministic, so byte and operation counters must match
the baseline *exactly* — any drift is a transfer-protocol change and fails
the gate. Virtual-time fields (``*_ns``) may move with deliberate
cost-model tuning, so they only fail beyond a relative tolerance
(``--tol``, default 5%), and only in the slow direction unless
``--both-directions`` is given (an unexplained speedup usually means work
was dropped, but the default keeps the gate actionable: regressions fail,
improvements warn and remind you to refresh the baseline).

Structural invariants that must hold regardless of the baseline (the
paper's delta-transfer claims) are asserted too: delta transfers move at
most a third of the full-drain halo traffic and never more bytes than the
full protocol in any ablation row.

Usage:
  scripts/check_bench_regression.py [--baseline-dir bench/baselines]
      [--tol 0.05] [--results-dir bench_results] [BENCH_x.json ...]

With no file arguments, every baseline present in --baseline-dir is
checked against the same-named file in --results-dir.
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def fmt_value(v):
    """Integral values print as integers, anything else at full precision
    (a ratio move such as 0.9375 -> 0.9286 must not read as 1 -> 1)."""
    if isinstance(v, (int, float)) and float(v).is_integer():
        return f"{v:.0f}"
    return repr(v)


def check_file(name, current, baseline, tol, both_directions):
    """Returns a list of failure strings for one bench JSON."""
    failures = []
    for key, base in sorted(baseline.items()):
        if key not in current:
            failures.append(f"{name}: field '{key}' missing from results")
            continue
        cur = current[key]
        if key.endswith("_ns"):
            if base == 0:
                if cur != 0:
                    failures.append(
                        f"{name}: {key} was 0, now {fmt_value(cur)}")
                continue
            rel = (cur - base) / base
            if rel > tol or (both_directions and rel < -tol):
                failures.append(
                    f"{name}: {key} moved {rel * 100:+.2f}% "
                    f"({base:.0f} -> {cur:.0f} ns, tol {tol * 100:.0f}%)")
            elif rel < -tol:
                print(f"note: {name}: {key} improved {rel * 100:+.2f}% — "
                      f"refresh bench/baselines/ to lock it in")
        elif cur != base:
            failures.append(
                f"{name}: {key} drifted ({fmt_value(base)} -> "
                f"{fmt_value(cur)}); "
                "byte/op counters are deterministic — this is a protocol "
                "change, update bench/baselines/ only if it is intended")
    for key in sorted(current.keys() - baseline.keys()):
        print(f"note: {name}: new field '{key}' not in baseline")
    return failures


def structural_invariants(results):
    """The delta-transfer claims the old inline CI check asserted."""
    failures = []
    fig8 = results.get("BENCH_fig8_limited_memory.json")
    if fig8 is not None:
        full = fig8["halo_full_h2d_bytes"] + fig8["halo_full_d2h_bytes"]
        delta = fig8["halo_delta_h2d_bytes"] + fig8["halo_delta_d2h_bytes"]
        if delta * 3 > full:
            failures.append(
                f"fig8 halo: delta traffic {delta:.0f} B not <= 1/3 of "
                f"full-drain {full:.0f} B")
        else:
            print(f"fig8 halo traffic: full {full:.0f} B, delta {delta:.0f} "
                  f"B ({full / delta:.2f}x reduction)")
        if fig8["halo_delta_time_ns"] >= fig8["halo_full_time_ns"]:
            failures.append("fig8 halo: delta protocol not faster than "
                            "full drain")
    abl = results.get("BENCH_abl_delta_transfers.json")
    if abl is not None:
        for key in [k[: -len("_full_bytes")] for k in abl
                    if k.endswith("_full_bytes")]:
            if abl[key + "_delta_bytes"] > abl[key + "_full_bytes"]:
                failures.append(
                    f"abl_delta_transfers: {key} moves more bytes with "
                    "deltas than with the full protocol")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--results-dir", default="bench_results")
    ap.add_argument("--tol", type=float, default=0.05,
                    help="relative tolerance for *_ns virtual-time fields")
    ap.add_argument("--both-directions", action="store_true",
                    help="also fail on *_ns improvements beyond --tol")
    ap.add_argument("files", nargs="*",
                    help="specific BENCH_*.json result files to check")
    args = ap.parse_args()

    if args.files:
        names = [os.path.basename(f) for f in args.files]
        result_paths = {os.path.basename(f): f for f in args.files}
    else:
        names = sorted(f for f in os.listdir(args.baseline_dir)
                       if f.startswith("BENCH_") and f.endswith(".json"))
        result_paths = {n: os.path.join(args.results_dir, n) for n in names}
    if not names:
        print("check_bench_regression: no baselines found", file=sys.stderr)
        return 2

    failures = []
    results = {}
    for name in names:
        baseline_path = os.path.join(args.baseline_dir, name)
        if not os.path.exists(baseline_path):
            failures.append(f"{name}: no baseline at {baseline_path} — run "
                            "the bench and commit its JSON there")
            continue
        if not os.path.exists(result_paths[name]):
            failures.append(f"{name}: bench output missing at "
                            f"{result_paths[name]} (did the bench run?)")
            continue
        current = load(result_paths[name])
        results[name] = current
        failures += check_file(name, current, load(baseline_path),
                               args.tol, args.both_directions)

    failures += structural_invariants(results)

    if failures:
        print(f"\ncheck_bench_regression: {len(failures)} failure(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  FAIL: {f}", file=sys.stderr)
        return 1
    print(f"check_bench_regression: {len(results)} bench file(s) match "
          "the baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
