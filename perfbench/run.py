#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sim-adaptive --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py selfcheck

The first form builds the library sources under src/ together with the
benchmark program in perfbench/src (CMake, Release) into $CARGO_TARGET_DIR or
.bench_build/, then runs one workload. The last line of stdout is the JSON
result; build output goes to stderr. `selfcheck` runs every workload twice
under a fixed seed and checks that the model costs repeat (see README.md).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["sim-adaptive", "sim-query", "threaded-partitioned",
             "socket-partitioned"]
# The model costs selfcheck compares come from the fixed warm-up window, so
# the length of the measured phase does not change what it checks.
SELFCHECK_SECONDS = 3


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_once(workload, seed, seconds, trace, echo=True):
    """Run the binary; returns (exit code, parsed result or None)."""
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    if echo:
        sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None


def selfcheck():
    """Model costs repeat: bit-identical between two runs of each sim
    workload, and equal between the threaded and socket transports, which
    run the same op trace."""
    ok = True
    metrics = {}
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            code, result = run_once(workload, 1, SELFCHECK_SECONDS, 0,
                                    echo=False)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload}: run failed (exit {code})")
                return 1
            runs.append(result["metrics"])
        metrics[workload] = runs[0]
        for name in ("msg_cost_per_op", "work_per_op"):
            a, b = runs[0][name]["value"], runs[1][name]["value"]
            same = a == b
            print(f"{workload:22s} {name:16s} {a!r:>22} {b!r:>22} "
                  f"{'same' if same else 'DIFFERENT'}")
            ok &= same or not workload.startswith("sim-")
    a = metrics["threaded-partitioned"]["msg_cost_per_op"]["value"]
    b = metrics["socket-partitioned"]["msg_cost_per_op"]["value"]
    print(f"threaded vs socket msg_cost_per_op {a!r} {b!r} "
          f"{'same' if a == b else 'DIFFERENT'}")
    ok &= a == b
    print("selfcheck:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv):
    if argv == ["selfcheck"]:
        build()
        return selfcheck()
    args = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or set(args) - {"--workload", "--seed", "--seconds",
                                     "--trace"}:
        sys.exit(__doc__)
    if args.get("--workload") not in WORKLOADS:
        sys.exit(f"perfbench: --workload must be one of {', '.join(WORKLOADS)}")
    build()
    code, result = run_once(args["--workload"], args.get("--seed", "1"),
                            args.get("--seconds", "10"),
                            args.get("--trace", "0"))
    if result is None:
        print("perfbench: no result line", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
