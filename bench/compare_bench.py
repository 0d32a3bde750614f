#!/usr/bin/env python3
"""Merge bench metric JSONs and compare them against a baseline.

The perf-smoke CI job runs bench_kernels, bench_serving and
bench_dataset_io with --json-out, then calls this script to merge the
per-bench metric files into one BENCH_ci.json artifact and compare every
metric against the checked-in bench/baseline_ci.json.

The comparison is ADVISORY by default: shared CI runners are noisy and
heterogeneous, so drift outside the threshold band prints a prominent
warning but exits 0. --strict turns warnings into a nonzero exit for
local use on a quiet machine.

Only the Python standard library is used.

Usage:
  compare_bench.py --out BENCH_ci.json \
      [--baseline bench/baseline_ci.json] [--threshold 3.0] [--strict] \
      metrics1.json [metrics2.json ...]
"""

import argparse
import json
import math
import sys


def is_host_metric(name):
    """host.* metrics describe the run machine, not the build under test."""
    return name.startswith("host.")


def is_parallel_scaling_metric(name):
    """True for metrics that measure parallel speedup or scaling: they are
    meaningless on a single-core runner (everything collapses to ~1x), so
    the advisory comparison is skipped there."""
    return (name.startswith("parallel.")
            or "parallel_speedup" in name
            or name.startswith("serving.shard"))


def load_metrics(path):
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise SystemExit(f"{path}: expected a flat JSON object")
    for name, value in data.items():
        if not isinstance(value, (int, float)):
            raise SystemExit(f"{path}: metric {name!r} is not a number")
    return data


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("inputs", nargs="+", help="per-bench metric JSONs")
    parser.add_argument("--out", required=True,
                        help="merged metrics output path")
    parser.add_argument("--baseline", default=None,
                        help="baseline metrics JSON to compare against")
    parser.add_argument("--threshold", type=float, default=3.0,
                        help="advisory band: warn when measured/baseline "
                             "leaves [1/T, T] (default 3.0)")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when any warning fired")
    args = parser.parse_args()
    if args.threshold <= 1.0:
        raise SystemExit("--threshold must be > 1.0")

    merged = {}
    for path in args.inputs:
        for name, value in load_metrics(path).items():
            if name in merged and merged[name] != value:
                print(f"WARNING: metric {name!r} appears in several inputs; "
                      f"keeping the last value", file=sys.stderr)
            merged[name] = value

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out} ({len(merged)} metrics)")

    warnings = 0
    if args.baseline:
        baseline = load_metrics(args.baseline)
        # Benches record the run host's core count; on a single-core
        # runner, parallel-scaling metrics are ~1x by construction and
        # comparing them against a multi-core baseline is pure noise.
        single_core = merged.get("host.hardware_concurrency", 0) == 1
        if single_core:
            print("single-core runner: parallel-scaling advisories skipped")
        width = max((len(name) for name in baseline), default=0)
        for name in sorted(baseline):
            base = baseline[name]
            if name not in merged:
                if is_host_metric(name):
                    continue
                warnings += 1
                print(f"WARNING: {name}: in baseline but not measured")
                continue
            value = merged[name]
            if is_host_metric(name):
                status = "ok (host property, not compared)"
            elif single_core and is_parallel_scaling_metric(name):
                status = "skipped (single-core runner)"
            elif base == 0:
                status = "ok (zero baseline)"
            else:
                ratio = value / base
                if ratio <= 0 or not math.isfinite(ratio):
                    status = "WARNING: non-positive ratio"
                    warnings += 1
                elif ratio > args.threshold or ratio < 1.0 / args.threshold:
                    status = (f"WARNING: {ratio:.2f}x baseline "
                              f"(band [1/{args.threshold:g}, "
                              f"{args.threshold:g}])")
                    warnings += 1
                else:
                    status = f"ok ({ratio:.2f}x baseline)"
            print(f"  {name:<{width}}  {value:>14.4g}  vs "
                  f"{base:>14.4g}  {status}")
        new_metrics = sorted(set(merged) - set(baseline))
        for name in new_metrics:
            print(f"  {name}: new metric (not in baseline)")
        if warnings:
            print(f"{warnings} advisory warning(s); perf drift is not a "
                  f"CI failure on shared runners"
                  + (" (--strict: failing)" if args.strict else ""))

    return 1 if (args.strict and warnings) else 0


if __name__ == "__main__":
    sys.exit(main())
