#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one benchmark workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
                             --trace <0|1>
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench (CMake, Release). The driver's
output passes through unchanged; its last line is the JSON result. Traced
runs also write their spans to .bench_build/spans/<workload>-seed<n>.tsv.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
EXE = BUILD_DIR / "perfbench"

# A run measures for --seconds plus a few seconds of set-up and checks;
# one that hangs is stopped inside the 180 s a run may take.
RUN_TIMEOUT_S = 175


def run_logged(cmd, log, env):
    log.write(("$ " + " ".join(str(c) for c in cmd) + "\n").encode())
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                          env=env, cwd=ROOT).returncode


def build():
    """Configures once and builds incrementally; returns True on success."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = BUILD_ROOT / "build.log"
    with open(log_path, "wb") as log:
        ok = True
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            ok = run_logged(cmd, log, env) == 0
            if not ok:
                # A half-written cache would skip configuring next time.
                (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
        if ok:
            jobs = str(min(4, os.cpu_count() or 1))
            ok = run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                            log, env) == 0
    if not ok:
        tail = log_path.read_text(errors="replace").splitlines()[-30:]
        sys.stderr.write("perfbench build failed:\n" + "\n".join(tail) + "\n")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    if args.selftest:
        cmd = [str(EXE), "--selftest"]
    else:
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are "
                         "required")
        cmd = [str(EXE), "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace]
        if args.trace == "1":
            spans = BUILD_ROOT / "spans"
            spans.mkdir(exist_ok=True)
            name = "".join(c for c in f"{args.workload}-seed{args.seed}"
                           if c.isalnum() or c in "_-")
            cmd += ["--spans-out", str(spans / f"{name}.tsv")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
