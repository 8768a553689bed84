#!/usr/bin/env python3
"""Checkpoint-restart benchmark: one workload, one process, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/ (and the zapc libraries
from src/) into $CARGO_TARGET_DIR or .bench_build/ on first use, runs the
workload's benchmark binary, prints a table of every metric (median, sample count,
high percentile where there are enough samples) and, as the last line of
stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  Traced spans and any postmortems land in
.bench_out/.  Exit code 0 only when every check passed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every run must end within 180 s; the first run of a checkout may take
# 900 s because it builds.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(deadline):
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        left = deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError("no time left to build")
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=left, check=False)
        if r.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def high_percentile(values):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return None
    v = sorted(values)
    return 100.0 * (n - 10) / n, v[n - 11]


def summarize(raw, wanted):
    """Medians of the binary's per-op samples for the wanted metrics.

    Returns (metrics, problems): a metric missing, carrying another unit
    than BENCHMARK.json gives, or not finite is a problem."""
    metrics, problems = {}, []
    print(f"{'metric':34} {'unit':7} {'median':>14} {'n':>5}  high percentile")
    for m in wanted:
        name, unit = m["name"], m["unit"]
        series = raw.get(name)
        if not series or not series["values"]:
            problems.append(f"{name}: no samples")
            continue
        if series["unit"] != unit:
            problems.append(f"{name}: unit {series['unit']} != {unit}")
            continue
        values = series["values"]
        med = statistics.median(values)
        if not all(math.isfinite(x) for x in values):
            problems.append(f"{name}: non-finite sample")
            continue
        hp = high_percentile(values)
        hp_text = f"p{hp[0]:.0f} = {hp[1]:.6g}" if hp else "-"
        print(f"{name:34} {unit:7} {med:14.6g} {len(values):5d}  {hp_text}")
        metrics[name] = {"value": med, "unit": unit}
    return metrics, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (seconds, not a measurement)")
    args = ap.parse_args()

    start = time.monotonic()
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"zapc sources not found under {ROOT}; nothing to measure")
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; expected one of {names}")
        return 2

    try:
        binary = build(start + BUILD_LIMIT_S)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        log(f"build failed: {e}")
        return 2

    out_dir = ROOT / ".bench_out"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    if args.tiny:
        cmd += ["--tiny", "--min-episodes", "1"]
    # Pin glibc's malloc thresholds at the values its adaptive mode
    # settles on (32 MiB mmap, 64 MiB trim).  Left adaptive, the order of
    # the first frees decides whether the multi-MB image buffers live on
    # the heap or in fresh mappings, which moves peak RSS and host times
    # by ~10% from one seed to the next.
    env = dict(os.environ)
    env.setdefault("MALLOC_MMAP_THRESHOLD_", str(32 << 20))
    env.setdefault("MALLOC_TRIM_THRESHOLD_", str(64 << 20))
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_LIMIT_S, env=env,
                           check=False)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary exceeded {RUN_LIMIT_S} s")
        return 1
    lines = r.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"benchmark binary printed no result (exit {r.returncode})")
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    series = raw["layer"] if args.trace else raw["e2e"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"episodes {raw['episodes']}  ops {raw['attempted']}")
    metrics, problems = summarize(series, wanted)
    if not args.trace:
        # End-to-end host times are scaled to the reference machine speed
        # (cpp/harness.h); these are the same samples as measured.
        for name, s in sorted(raw["host_raw"].items()):
            print(f"  as measured: {name:23} {s['unit']:7} "
                  f"{statistics.median(s['values']):14.6g} "
                  f"{len(s['values']):5d}")
    for p in problems:
        log(p)
    for e in raw["errors"]:
        log(e)
    correct = bool(raw["correct"]) and not problems and r.returncode == 0
    failed = int(raw["failed"]) + (0 if correct or raw["failed"] else 1)
    result = {"correct": correct, "attempted": max(1, int(raw["attempted"])),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
