#!/usr/bin/env python3
"""Compare saved benchmark results of two builds.

    python3 perfbench/compare.py BASE.json... -- CHANGE.json...

Each file is a result record run.py saved under .bench_build/results/.
Records pair up by (workload, trace, seed).  The comparison is refused when
a pair's run lengths differ, or when its run stamps differ in CPU, core
count, kernel variant, compiler or build type: those numbers are not
comparable.  A pair in which either record has a flagged phase (host busy,
or a paced generator that fell behind) is left out, and the count of such
pairs is printed.

For every workload and metric the script prints both medians, each side's
quartile spread as a share of its median, and a verdict: "worse" when the
change's median is worse than the base's by more than the metric's bound,
"unresolved" when either side's spread exceeds the bound, "better" when the
change wins at least nine tenths of the pairs and the medians differ by more
than the base's spread.  Metrics without a bound (the per-layer ones) are
never "worse" or "unresolved".  The exit code is 1 when any metric is
"worse" or "unresolved".

Two sets of runs of the same code on the same seeds, compared this way,
check that the benchmark is steady: every metric must come out "same".
"""

import json
import os
import statistics
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAMP_KEYS = ("cpu", "nproc", "kernels", "compiler", "build_type")


def load(paths):
    records = {}
    for path in paths:
        with open(path) as handle:
            record = json.load(handle)
        key = (record["workload"], record["trace"], record["stamp"]["seed"])
        records[key] = record
    return records


def flagged(record):
    return any(record["flags"].values())


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    base, change = load(argv[:cut]), load(argv[cut + 1:])
    if set(base) != set(change):
        sys.exit("refused: base and change cover different "
                 "(workload, trace, seed) sets")
    for key in sorted(base):
        b, c = base[key], change[key]
        if b["seconds"] != c["seconds"]:
            sys.exit("refused: %s seed %d: runs of %s s and %s s"
                     % (key[0], key[2], b["seconds"], c["seconds"]))
        differ = [k for k in STAMP_KEYS if b["stamp"][k] != c["stamp"][k]]
        if differ:
            sys.exit("refused: %s seed %d: stamps differ in %s"
                     % (key[0], key[2], ", ".join(differ)))

    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    unsettled = False
    for workload, trace in sorted({(k[0], k[1]) for k in base}):
        keys = sorted(k for k in base if k[:2] == (workload, trace))
        clean = [k for k in keys
                 if not flagged(base[k]) and not flagged(change[k])]
        print("%s (trace %d, %d pairs, %d with a flagged phase left out)"
              % (workload, trace, len(clean), len(keys) - len(clean)))
        if not clean:
            continue
        for name, spec in specs.items():
            if name not in base[clean[0]]["metrics"]:
                continue
            pairs = [(base[k]["metrics"][name]["value"],
                      change[k]["metrics"][name]["value"]) for k in clean]
            old = statistics.median(p[0] for p in pairs)
            new = statistics.median(p[1] for p in pairs)
            old_spread = spread([p[0] for p in pairs])
            new_spread = spread([p[1] for p in pairs])
            sign = 1.0 if spec["better"] == "higher" else -1.0
            wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
            verdict = ""
            if "bound" in spec and old:
                if sign * (new - old) / abs(old) < -spec["bound"]:
                    verdict = "worse"
                elif max(old_spread, new_spread) > spec["bound"]:
                    verdict = "unresolved"
            unsettled |= bool(verdict)
            if not verdict and wins >= 0.9 * len(pairs) and \
                    abs(new - old) > old_spread * abs(old):
                verdict = "better"
            print("  %-30s %14.6g -> %-14.6g %-7s spread %.3f -> %.3f  %s"
                  % (name, old, new, spec["unit"], old_spread, new_spread,
                     verdict or "same"))
    sys.exit(1 if unsettled else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
