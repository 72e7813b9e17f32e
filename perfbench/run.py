#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload split --seed 1 --seconds 25 --trace 0

Builds two binaries from source (cargo, offline): the untraced one, which
prints the end-to-end metrics (--trace 0), and the traced one (feature
`traced`), which prints the per-layer metrics (--trace 1). A traced run
also runs the untraced binary on the same workload and seed, and reports
`trace_overhead` from the two. The last line of standard output is the
JSON result; everything else goes before it or to standard error.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

WORKLOADS = ("split", "sssp")
HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# Seconds a benchmark binary may take before it is stopped.
RUN_TIMEOUT = 170


def build(target_dir, features):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target_dir] + features
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("error: building the benchmark failed (run it from the root of a full checkout)")
    return os.path.join(target_dir, "release", "perfbench")


def run(binary, args, extra, timeout):
    """Run one binary; echo its detail lines; return its parsed result."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 and not (lines and lines[-1].startswith("{")):
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    return result, proc.returncode, lines[:-1]


def mops(detail_lines):
    """Per-queue median mops from the `# <q> mops per round:` lines."""
    out = {}
    for line in detail_lines:
        if " mops per round: " in line:
            name, values = line[2:].split(" mops per round: ")
            out[name] = statistics.median([float(x) for x in values.split()])
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be between 1 and 60")

    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # Both builds happen on every call (a no-op once fresh), so only the
    # first run in a checkout pays for compiling, whichever mode it has.
    plain = build(os.path.join(base, "perfbench-plain"), [])
    traced = build(os.path.join(base, "perfbench-traced"), ["--features", "traced"])

    if args.trace == 0:
        result, code, _ = run(plain, args, [], RUN_TIMEOUT)
    else:
        out_dir = os.path.join(".perfbench_out")
        result, code, detail = run(traced, args, ["--out", out_dir], RUN_TIMEOUT // 2)
        if code == 0:
            base_result, base_code, base_detail = run(plain, args, [], RUN_TIMEOUT // 2)
            code = base_code
            result["correct"] = result["correct"] and base_result["correct"]
            result["attempted"] += base_result["attempted"]
            result["failed"] += base_result["failed"]
            with_trace, without = mops(detail), mops(base_detail)
            ratios = [without[q] / with_trace[q] for q in without if with_trace.get(q, 0) > 0]
            overhead = math.exp(sum(map(math.log, ratios)) / len(ratios)) - 1
            result["metrics"]["trace_overhead"] = {"value": overhead, "unit": "ratio"}
            print(f"# trace_overhead: untraced/traced mops, geometric mean over "
                  f"{len(ratios)} queues, minus 1")
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
