#!/usr/bin/env python3
"""Builds the simulator benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload async-fine --seed 1 --seconds 30 --trace 0

The benchmark (perfbench/, a CMake project of its own) compiles the library
from ../src as the tree stands, so the first run in a checkout builds it.
The last line of standard output is the result: one JSON object with
"correct", "attempted", "failed" and "metrics". The line before it names the
workload, seed, rounds, host cores and build type; the metric table goes to
standard error.

--workload all runs the workloads BENCHMARK.json lists, each in its own
process.
--seeds 1-10 repeats the run for each seed. --out-dir DIR also stores each
run's output as DIR/<workload>-seed<N>-trace<T>.txt, the result files that
perfbench/compare.py reads.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# The workloads BENCHMARK.json lists.
WORKLOADS = ["async-fine", "wave-partial-sync", "async-faults"]
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    """The build tree of these sources. It is keyed by the checkout's path and
    the content of every source the build compiles, so a CARGO_TARGET_DIR
    shared by several checkouts, or reused by a new checkout at the same path
    whose files carry older timestamps, never yields a binary of other
    sources."""
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    key = hashlib.sha256(str(ROOT).encode())
    for tree in (ROOT / "src", HERE):
        for path in sorted(tree.rglob("*")):
            if path.suffix in (".cpp", ".hpp", ".h") or path.name == "CMakeLists.txt":
                key.update(str(path.relative_to(ROOT)).encode())
                key.update(path.read_bytes())
    return base / "perfbench" / key.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "async" / "async_engine.hpp").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out / "perfbench"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(exe, workload, seed, args):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--host-trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} ran past {RUN_TIMEOUT_S} s")
    if args.out_dir:
        out = pathlib.Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        name = f"{workload}-seed{seed}-trace{args.trace}.txt"
        (out / name).write_text(done.stdout)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    # perfbench exits 1 after its result line when a solve failed or a round
    # did not repeat; the result is kept above for the record.
    if done.returncode != 0:
        fail(f"{workload} seed {seed} exited with {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", help="seed list such as 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out-dir")
    args = parser.parse_args()

    exe = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    seeds = parse_seeds(args.seeds) if args.seeds else [args.seed]
    for workload in workloads:
        for seed in seeds:
            run_one(exe, workload, seed, args)


if __name__ == "__main__":
    main()
