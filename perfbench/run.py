#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds perfbench/
(which compiles ../src itself) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs the binary.

Standard output ends with two lines: the full report (environment
fingerprint, every metric with unit and sample count, error_ratio and any
reference mismatch), then the result line
{"correct", "attempted", "failed", "metrics"} holding the end-to-end
metrics named in BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). Build output goes to standard error. Any failure exits non-zero
without a result line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("views_local", "wire_mixed", "shards_durable")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def source_fingerprint():
    """Git commit when the checkout is a repository, and a hash of the
    sources the binary is built from either way."""
    commit = "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="defaults to config.json's default_seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seed = config["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.abspath(os.path.join(ROOT, build_root))
    binary = build(os.path.join(build_root, "perfbench"))

    wire = config["wire_mixed"]
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(build_root, "perfbench-run",
                                     "%s-%d" % (args.workload, os.getpid())),
           "--wire-append-rows-per-s", str(wire["append_rows_per_s"]),
           "--wire-sql-per-s", str(wire["sql_per_s"])]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if run.returncode != 0:
        fail("benchmark exited with code %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no report")
    report = json.loads(lines[-1])

    commit, source_hash = source_fingerprint()
    report["env"]["git_commit"] = commit
    report["env"]["source_sha256"] = source_hash

    section = "end_to_end" if args.trace == 0 else "per_layer"
    metrics = {}
    for declared in bench[section]:
        name = declared["name"]
        measured = report[section].get(name)
        if measured is None:
            fail("workload %s did not report %s" % (args.workload, name))
        if measured["unit"] != declared["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s"
                 % (name, measured["unit"], declared["unit"]))
        metrics[name] = {"value": measured["value"], "unit": measured["unit"]}

    print(json.dumps(report, sort_keys=False))
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
