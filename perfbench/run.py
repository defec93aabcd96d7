#!/usr/bin/env python3
"""Serving benchmark of record for hdcpp.

Builds the library, the `hdcgen` server and the benchmark binary from the
source tree (Release, into .bench_build/), then runs one workload:

    python3 perfbench/run.py --workload beijing_band --seed 1 --seconds 28 --trace 0

Run it from the repository root.  `--workload all` runs every workload in
turn.  Report lines go to stdout; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones
(the traced run also writes its spans).  Every result is saved with its run
stamp under .bench_build/results/; perfbench/compare.py compares saved
results and refuses pairs whose stamps differ.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(REPO, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
DEADLINE_S = 170.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds the server and hdc_perfbench; a no-op when
    nothing changed."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "hdc_perfbench",
                  "hdcgen", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def cmake_cache(key):
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds, so results from a
    checkout without git history still identify their code."""
    digest = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", "tools", "perfbench"]
    for root in roots:
        path = os.path.join(REPO, root)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for name in files:
            digest.update(os.path.relpath(name, REPO).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def run_stamp(hdcgen, seed):
    cpu = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    kernels = subprocess.run([hdcgen, "kernels"], capture_output=True,
                             text=True, check=False).stdout
    active = next((line.split(":", 1)[1].strip()
                   for line in kernels.splitlines()
                   if line.startswith("active:")), "unknown")
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, check=False).stdout.splitlines()
    commit = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "kernels": active,
        "compiler": version[0] if version else compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "seed": seed,
        "commit": commit.stdout.strip() if commit.returncode == 0
        else "unknown (not a git checkout)",
        "source_sha256": source_digest(),
    }


def run_workload(name, shape, bench, args, started):
    """Runs one workload; hdc_perfbench is killed DEADLINE_S after `started`."""
    # Relative to the repository root (the working directory), which keeps the
    # Unix socket path inside it short enough for sun_path.
    work_dir = os.path.join(".bench_build", "work", name)
    hdcgen = os.path.join(BUILD_DIR, "hdcpp", "tools", "hdcgen")
    command = [os.path.join(BUILD_DIR, "hdc_perfbench"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--hdcgen", hdcgen, "--work-dir", work_dir]
    for key, value in shape.items():
        command += ["--" + key.replace("_", "-"), str(value)]
    env = dict(os.environ)
    env.pop("HDC_KERNELS", None)  # the server picks its kernels itself
    why = next(w["why"] for w in bench["workloads"] if w["name"] == name)
    print("workload %s (seed %d, %d s, trace %d): %s"
          % (name, args.seed, args.seconds, args.trace, why), flush=True)
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            text=True, start_new_session=True, cwd=REPO)
    try:
        out, _ = proc.communicate(
            timeout=max(10.0, DEADLINE_S - (time.time() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out" % name)
    lines = out.rstrip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail("%s: hdc_perfbench exited %d without a result" % (name,
                                                           proc.returncode))
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = raw["metrics"].get(metric["name"])
        if value is None:
            fail("%s: metric %s was not measured" % (name, metric["name"]))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print("  %-30s %14.6g %s" % (metric["name"], value, metric["unit"]))
    result = {"correct": bool(raw["correct"]) and proc.returncode == 0,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    # A flagged phase measured the host or the generator, not the server;
    # compare.py leaves such records out.
    flagged = sorted(flag for flag, set_ in raw["flags"].items() if set_)
    print("  flags: %s" % (", ".join(flagged) or "none"))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d"
                        % (name, args.seed, args.trace))
    record = dict(result, workload=name, trace=args.trace,
                  seconds=args.seconds, stamp=run_stamp(hdcgen, args.seed),
                  flags=raw["flags"], report=lines[:-1],
                  all_metrics=raw["metrics"])
    if args.trace:
        spans = os.path.join(REPO, work_dir, "spans.json")
        shutil.copyfile(spans, stem + ".spans.json")
        record["spans"] = stem + ".spans.json"
        print("  spans: %s" % record["spans"])
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        help="run length (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src"))):
        fail("no hdcpp source tree next to perfbench/; run from a checkout")
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    with open(os.path.join(BENCH_DIR, "workloads.json")) as handle:
        shapes = json.load(handle)["workloads"]
    names = list(shapes) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in shapes:
            fail("unknown workload '%s' (expected one of: %s, all)"
                 % (name, ", ".join(shapes)))
    build()

    results = [run_workload(name, shapes[name], bench, args, time.time())
               for name in names]
    if len(results) == 1:
        summary = results[0]
    else:
        summary = {"correct": all(r["correct"] for r in results),
                   "attempted": sum(r["attempted"] for r in results),
                   "failed": sum(r["failed"] for r in results),
                   "metrics": {"%s.%s" % (name, key): value
                               for name, r in zip(names, results)
                               for key, value in r["metrics"].items()}}
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
