#!/usr/bin/env python3
"""Build servebench from source and run one workload, or its self-test.

  python3 servebench/run.py --workload join --seed 1 --trace 0
  python3 servebench/run.py --selftest

--seconds defaults to BENCHMARK.json's run_seconds, the one place the
window length is set.

A run prints the benchmark's report and, as the last line of stdout, one
JSON object {"correct", "attempted", "failed", "metrics"}. The build goes to
$CARGO_TARGET_DIR/servebench (default .bench_build/servebench) under the
repository root; compiler output goes to stderr so stdout stays parseable.

--selftest is the exact-repeat check: two runs of `join` and `spill` with one
seed must agree exactly on every metric that comes from the virtual clock or
from routing, SteM and spill counts. A difference means query generation or
execution has become nondeterministic, and the self-test exits 1.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve", "join", "spill", "threaded")
RUN_TIMEOUT_S = 170
# Metrics that must repeat exactly for one seed, by trace mode.
EXACT = {
    0: ("virtual_completion_ms", "virtual_first_row_ms"),
    1: ("eddy.routed_per_result", "stem.builds_per_query",
        "stem.probes_per_result", "stem.matches_per_probe",
        "stem.builds_avoided_share", "spill.ios_per_query"),
}


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def run_seconds():
    """The measured window length from BENCHMARK.json."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    except (OSError, ValueError, KeyError):
        fail("BENCHMARK.json with run_seconds not found; pass --seconds")


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "servebench"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "engine" / "engine.h").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "servebench"


def run(binary, workload, seed, seconds, trace):
    """Runs the binary once; returns (stdout text, parsed last line)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{workload}-{seed}")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(proc.stdout)
        fail(f"{workload} printed no result line")
    return proc.stdout, result


def selftest(binary):
    ok = True
    for workload in ("join", "spill"):
        for trace, names in EXACT.items():
            runs = [run(binary, workload, 7, 1, trace)[1] for _ in range(2)]
            for r in runs:
                if not r["correct"] or r["failed"] != 0:
                    print(f"FAIL {workload} trace={trace}: run not correct")
                    ok = False
            for name in names:
                a, b = (r["metrics"][name]["value"] for r in runs)
                status = "ok  " if a == b else "FAIL"
                ok = ok and a == b
                print(f"{status} {workload:6s} {name:28s} {a!r} {b!r}")
    print("exact-repeat check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    seconds = args.seconds if args.seconds is not None else run_seconds()
    binary = build()
    if args.selftest:
        return selftest(binary)
    stdout, _ = run(binary, args.workload, args.seed, seconds, args.trace)
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
