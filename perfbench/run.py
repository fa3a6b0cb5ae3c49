#!/usr/bin/env python3
"""Build and run the PredictDDL serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sched_hot --seed 1 --seconds 15 --trace 0

The first run configures and builds perfbench/ (the repository's libraries
plus serve_bench) under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; later runs only check the build is current.
Build output goes to stderr.  serve_bench's own output goes to stdout, and its
last line is the JSON result.  The exit code is serve_bench's, or 1 when the
build fails or a step runs out of time.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sched_hot", "sched_observe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(src_dir, build_dir):
    generated = [os.path.join(build_dir, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", src_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "--target", "serve_bench",
                    "-j", jobs], stdout=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "serve_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        binary = build(src_dir, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")
    if os.path.exists(spans):
        os.remove(spans)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", spans]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: serve_bench ran out of time", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
