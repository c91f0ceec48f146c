#!/usr/bin/env python3
"""Repeated-run steadiness report for servebench, and the checked-in baseline.

  python3 servebench/steadiness.py --runs 10 --out servebench/baseline.json

For every workload, runs the untraced benchmark --runs times with seeds
1, 2, ... and reports per end-to-end metric the
median, quartiles (statistics.quantiles(n=4)), min, max and the spread
(q3 - q1) / median next to the bound BENCHMARK.json gives it. Then runs
--trace-runs traced runs and reports the median of each per-layer metric.
For the host-speed-corrected metrics it also gives the spread of the raw
values and each run's yardstick time, read from the report lines.
The output is tagged with the machine (nproc, CPU model) it was measured on.
"""
import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run as servebench  # noqa: E402

BENCHMARK_JSON = servebench.ROOT / "BENCHMARK.json"


def cpu_model():
    try:
        for line in open("/proc/cpuinfo", encoding="utf-8"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


RAW_LINE = re.compile(r"^\s+(\S+)\s+\S+\s+\S+\s+\(n=\d+\) raw (\S+)$")
YARDSTICK_LINE = re.compile(r"^\s+yardstick (\S+) ms")


def report_lines(stdout):
    """Raw values of corrected metrics and the yardstick time of one run."""
    raw, yardstick_ms = {}, None
    for line in stdout.splitlines():
        if m := RAW_LINE.match(line):
            raw[m.group(1)] = float(m.group(2))
        elif m := YARDSTICK_LINE.match(line):
            yardstick_ms = float(m.group(1))
    return raw, yardstick_ms


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "min": min(values), "max": max(values),
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(servebench.WORKLOADS))
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads(BENCHMARK_JSON.read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    binary = servebench.build()
    report = {
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                    "kernel": platform.release()},
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": seconds,
        "seeds": list(range(1, args.runs + 1)),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs, raws, yardstick_ms = [], [], []
        for seed in report["seeds"]:
            stdout, result = servebench.run(binary, workload, seed, seconds, 0)
            runs.append(result)
            raw, ms = report_lines(stdout)
            raws.append(raw)
            yardstick_ms.append(ms)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "yardstick_ms": yardstick_ms,
            "end_to_end": {},
            "per_layer": {},
        }
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            stats["bound"] = bounds.get(name)
            if all(name in r for r in raws):
                stats["raw_spread"] = summarize([r[name] for r in raws])["spread"]
            entry["end_to_end"][name] = stats
            print(f"{workload:8s} {name:24s} median {stats['median']:12.4f} "
                  f"spread {stats['spread']:.4f} bound {stats['bound']}",
                  flush=True)
        traced = [servebench.run(binary, workload, seed, seconds, 1)[1]
                  for seed in report["seeds"][:args.trace_runs]]
        for name in (traced[0]["metrics"] if traced else {}):
            values = [r["metrics"][name]["value"] for r in traced]
            entry["per_layer"][name] = {
                "median": statistics.median(values),
                "unit": traced[0]["metrics"][name]["unit"],
                "values": values,
            }
        report["workloads"][workload] = entry

    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
