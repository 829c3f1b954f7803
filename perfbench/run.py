#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call configures
and builds the benchmark (a Release CMake build of perfbench/, which
pulls in the repository's libraries) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild incrementally.
Build output goes to stderr. A traced run writes its spans to
.bench_out/<workload>.spans.tsv. The binary's last stdout line is
the result JSON; this script passes its output and exit code
through.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure (once) and build; returns the binaries' directory."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("perfbench: no StreamTensor sources next to "
                         "perfbench/; run from a source checkout\n")
        sys.exit(2)
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                      "perfbench", "perfbench_selftest"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.stderr.write("perfbench: build failed: %s\n"
                                 % " ".join(cmd))
                sys.exit(done.returncode or 1)
    return out


def main(argv):
    out = build(build_dir())
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]
                              ).returncode
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="unknown")
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args(argv)
    args = list(argv)
    if known.trace == "1":
        spans_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(spans_dir, exist_ok=True)
        args += ["--spans", os.path.join(spans_dir,
                                         known.workload + ".spans.tsv")]
    sys.stdout.flush()
    return subprocess.run([os.path.join(out, "perfbench")] + args
                          ).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
