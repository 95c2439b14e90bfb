#!/usr/bin/env python3
"""Build and run the stack3d repository benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload memory --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke   # every workload at the smallest sizes
  python3 perfbench/run.py --pin     # rewrite perfbench/pinned.json

The first call configures and builds perfbench/ (which compiles the
libraries from src/) into .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. The exit code is the
benchmark's: 0 only when every correctness gate passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
PINNED = os.path.join(HERE, "pinned.json")
WORKLOADS = ["memory", "thermal", "logic", "session"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; return the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no stack3d source tree under src/ to build")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    os.makedirs(OUT, exist_ok=True)
    return os.path.join(BUILD, "perfbench")


def bench(binary, args, capture):
    """Run the benchmark binary; returns (exit code, stdout or None)."""
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def lines_with(text, prefix):
    return [l[len(prefix):] for l in text.splitlines() if l.startswith(prefix)]


def smoke(binary):
    """Every workload runs at the smallest sizes, every named metric is
    present with its unit, the gates pass, and result_digest and the
    work ledger match across client and study-thread counts."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
             "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in WORKLOADS:
        # The traced ledger has more keys; compare like with like.
        digests, ledgers = set(), {"0": set(), "1": set()}
        for trace, clients, threads in [("1", "1", "1"), ("1", "2", "2"),
                                        ("0", "1", "1"), ("0", "2", "2")]:
            args = ["--workload", w, "--seed", str(DEFAULT_SEED),
                    "--seconds", "1", "--trace", trace, "--size", "smoke",
                    "--clients", clients, "--study-threads", threads,
                    "--out", OUT]
            code, out = bench(binary, args, capture=True)
            where = "%s trace=%s clients=%s threads=%s" % (
                w, trace, clients, threads)
            if code != 0:
                problems.append("%s: exit %d" % (where, code))
                continue
            result = json.loads(out.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units[trace]:
                problems.append("%s: metrics/units differ from "
                                "BENCHMARK.json" % where)
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: gates failed" % where)
            digests.update(lines_with(out, "result_digest "))
            ledgers[trace].update(lines_with(out, "ledger "))
        if len(digests) != 1:
            problems.append("%s: result_digest differs: %s" % (w, digests))
        if any(len(v) != 1 for v in ledgers.values()):
            problems.append("%s: work ledger differs across runs" % w)
        print("smoke %s result_digest %s" % (w, " ".join(sorted(digests))))
    for p in problems:
        print("smoke FAIL " + p)
    print("smoke " + ("ok" if not problems else "failed"))
    return 0 if not problems else 1


def pin(binary):
    """Rewrite pinned.json from traced runs at the default seed."""
    pinned = {"seed": DEFAULT_SEED,
              "refresh": "python3 perfbench/run.py --pin",
              "workloads": {}}
    for w in WORKLOADS:
        args = ["--workload", w, "--seed", str(DEFAULT_SEED),
                "--seconds", "2", "--trace", "1"]
        code, out = bench(binary, args, capture=True)
        if code != 0:
            fail("%s failed its gates; nothing pinned" % w)
        pinned["workloads"][w] = json.loads(lines_with(out, "ledger ")[-1])
    with open(PINNED, "w") as f:
        json.dump(pinned, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote " + os.path.relpath(PINNED, ROOT))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if not (args.smoke or args.pin or args.workload):
        parser.error("--workload, --smoke or --pin is required")
    binary = build()
    if args.smoke:
        return smoke(binary)
    if args.pin:
        return pin(binary)
    code, _ = bench(binary, ["--workload", args.workload,
                             "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", args.trace,
                             "--pinned", PINNED, "--out", OUT],
                    capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
