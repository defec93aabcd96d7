#!/usr/bin/env python3
"""CI bench-regression gate.

Parses the ``[snapshot-load]``, ``[serve-throughput]``,
``[text-throughput]``, ``[kv-serve-throughput]``, ``[adapt-throughput]``,
``[cluster-scaling]``, ``[serve-latency]`` and ``[kernel-*]`` reports out
of a ``bench_ops`` text log, compares each
metric against the committed baselines in
``bench/baselines/BENCH_baseline.json``, writes a machine-readable
``bench_report.json`` (uploaded as a CI artifact so the bench trajectory is
preserved per-commit), and exits nonzero when any metric crosses its gate.
Throughput-style metrics (the default, ``direction: "higher"``) gate on a
floor ``baseline * (1 - tolerance)``; latency-style metrics
(``direction: "lower"``) gate on a ceiling ``baseline * (1 + tolerance)``.

Usage:
    python3 bench/compare_baseline.py BENCH_OPS_LOG [--baseline FILE]
                                      [--report FILE]
"""

import argparse
import json
import re
import sys

METRIC_PATTERNS = {
    "snapshot_load_mmap_speedup":
        re.compile(r"\[snapshot-load\] mmap speedup:\s*([0-9.]+)"),
    "serve_throughput_rows_per_second":
        re.compile(r"\[serve-throughput\] rows_per_second:\s*([0-9.]+)"),
    "serve_throughput_band_ratio":
        re.compile(r"\[serve-throughput\] band_ratio:\s*([0-9.]+)"),
    "kernel_hamming_best_gbps":
        re.compile(r"\[kernel-hamming\] best_gbps:\s*([0-9.]+)"),
    "kernel_nearest_best_rows_per_second":
        re.compile(r"\[kernel-nearest\] best_rows_per_second:\s*([0-9.]+)"),
    "kernel_bundle_best_adds_per_second":
        re.compile(r"\[kernel-bundle\] best_adds_per_second:\s*([0-9.]+)"),
    "kernel_bundle_best_thresholds_per_second":
        re.compile(
            r"\[kernel-bundle\] best_thresholds_per_second:\s*([0-9.]+)"),
    "kernel_bundle_best_majorities_per_second":
        re.compile(
            r"\[kernel-bundle\] best_majorities_per_second:\s*([0-9.]+)"),
    "kernel_selfcheck_pass":
        re.compile(r"\[kernel-selfcheck\] pass:\s*([0-9.]+)"),
    "cluster_scaling_replicas1_rows_per_second":
        re.compile(r"\[cluster-scaling\] replicas1_rows_per_second:\s*([0-9.]+)"),
    "cluster_scaling_replicas2_rows_per_second":
        re.compile(r"\[cluster-scaling\] replicas2_rows_per_second:\s*([0-9.]+)"),
    "cluster_scaling_replicas4_rows_per_second":
        re.compile(r"\[cluster-scaling\] replicas4_rows_per_second:\s*([0-9.]+)"),
    "text_throughput_rows_per_second":
        re.compile(r"\[text-throughput\] rows_per_second:\s*([0-9.]+)"),
    "kv_serve_throughput_rows_per_second":
        re.compile(r"\[kv-serve-throughput\] rows_per_second:\s*([0-9.]+)"),
    "adapt_throughput_feedback_rows_per_second":
        re.compile(
            r"\[adapt-throughput\] feedback_rows_per_second:\s*([0-9.]+)"),
    "serve_latency_rows_per_second":
        re.compile(r"\[serve-latency\] rows_per_second:\s*([0-9.]+)"),
    "serve_latency_p50_us":
        re.compile(r"\[serve-latency\] p50_us:\s*([0-9.]+)"),
    "serve_latency_p99_us":
        re.compile(r"\[serve-latency\] p99_us:\s*([0-9.]+)"),
    "serve_latency_p999_us":
        re.compile(r"\[serve-latency\] p999_us:\s*([0-9.]+)"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("log", help="bench_ops stdout capture")
    parser.add_argument("--baseline",
                        default="bench/baselines/BENCH_baseline.json")
    parser.add_argument("--report", default="bench_report.json")
    args = parser.parse_args()

    with open(args.log, encoding="utf-8") as handle:
        log = handle.read()
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)

    tolerance = float(baseline.get("tolerance", 0.25))
    report = {"tolerance": tolerance, "metrics": {}, "pass": True}
    for name, spec in baseline["metrics"].items():
        pattern = METRIC_PATTERNS.get(name)
        entry = {"baseline": spec["baseline"]}
        if pattern is None:
            entry["error"] = "no parser for this metric"
            report["pass"] = False
        else:
            match = pattern.search(log)
            if match is None:
                entry["error"] = f"'{spec['source']}' not found in {args.log}"
                report["pass"] = False
            else:
                value = float(match.group(1))
                # direction "higher" (default): throughput-style, gate is a
                # floor below the baseline.  direction "lower": latency-style,
                # gate is a ceiling above it.
                direction = spec.get("direction", "higher")
                if direction == "lower":
                    ceiling = spec["baseline"] * (1.0 + tolerance)
                    entry.update(value=value, ceiling=ceiling,
                                 ok=value <= ceiling)
                else:
                    floor = spec["baseline"] * (1.0 - tolerance)
                    entry.update(value=value, floor=floor, ok=value >= floor)
                if not entry["ok"]:
                    report["pass"] = False
        report["metrics"][name] = entry

    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    for name, entry in report["metrics"].items():
        if "error" in entry:
            print(f"FAIL {name}: {entry['error']}")
        elif "ceiling" in entry:
            if entry["ok"]:
                print(f"ok   {name}: {entry['value']:g} (baseline "
                      f"{entry['baseline']:g}, ceiling {entry['ceiling']:g})")
            else:
                print(f"FAIL {name}: {entry['value']:g} rose above ceiling "
                      f"{entry['ceiling']:g} (baseline {entry['baseline']:g})")
        elif entry["ok"]:
            print(f"ok   {name}: {entry['value']:g} "
                  f"(baseline {entry['baseline']:g}, floor {entry['floor']:g})")
        else:
            print(f"FAIL {name}: {entry['value']:g} fell below floor "
                  f"{entry['floor']:g} (baseline {entry['baseline']:g})")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
