#!/usr/bin/env python3
"""streamsim end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds the simulator and the harness
from source into .bench_build/perfbench (CMake, RelWithDebInfo), runs
one workload in the harness and relays its output; the last stdout
line is the JSON result. --self-test runs every workload briefly, both
untraced and traced, and checks that each metric BENCHMARK.json names
is present with its unit and that nothing failed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = BUILD / "results"
# Whatever the simulator reads that decides its results or speed.
SOURCE_PATHS = ["src", "tools/sbsim_serve_main.cc", "perfbench"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_revision():
    """Digest of every source file the benchmark builds from; the
    checkout the benchmark runs in need not be a git repository."""
    h = hashlib.sha256()
    for rel in SOURCE_PATHS:
        path = ROOT / rel
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode() + b"\0")
            h.update(f.read_bytes() + b"\0")
    return "tree:" + h.hexdigest()[:16]


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            log("build failed")
            sys.exit(3)


def harness_env():
    # The simulator's SBSIM_* knobs would change what is measured.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("SBSIM_")}


def run_harness(args, revision, extra=()):
    RESULTS.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--serve-bin", str(BUILD / "sbsim-serve"),
           # Relative: a Unix socket path must stay short.
           "--out-dir", os.path.relpath(RESULTS, ROOT),
           "--revision", revision, *extra]
    # Own process group, so a timeout stops the daemon and probe
    # children along with the harness.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=harness_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{args.workload}: harness timed out")
        return None, ""
    if proc.returncode != 0:
        log(f"{args.workload}: harness exited {proc.returncode}")
        return None, stdout
    return json.loads(stdout.strip().splitlines()[-1]), stdout


def self_test(revision):
    """Every workload briefly, untraced and traced; every named metric
    present with its unit; no failed operation."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w["name"], seed=1,
                                      seconds=1, trace=trace)
            # The exact sweep is small enough to check every job.
            extra = (["--full-oracle"]
                     if w["name"] == "sweep-exact" and trace == 0 else [])
            result, _ = run_harness(args, revision, extra)
            tag = f"{w['name']} trace={trace}"
            if result is None:
                problems.append(f"{tag}: no result")
                continue
            got = result["metrics"]
            for name, unit in expected[trace].items():
                if name not in got:
                    problems.append(f"{tag}: missing {name}")
                elif got[name]["unit"] != unit:
                    problems.append(f"{tag}: {name} unit "
                                    f"{got[name]['unit']} != {unit}")
            extra_names = set(got) - set(expected[trace])
            if extra_names:
                problems.append(f"{tag}: unlisted {sorted(extra_names)}")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{tag}: failed_frac "
                                f"{result['failed']}/{result['attempted']}")
            log(f"{tag}: {result['failed']}/{result['attempted']} failed")
    for p in problems:
        log("self-test: " + p)
    log("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build()
    revision = source_revision()
    if args.self_test:
        return self_test(revision)
    result, stdout = run_harness(args, revision)
    if result is None:
        return 4
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
