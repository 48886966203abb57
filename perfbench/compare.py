#!/usr/bin/env python3
"""Compares two sets of perfbench result files.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by `run.py --out-dir` (the captured
stdout of one run each). For every workload and end-to-end metric the report
gives each set's median and quartiles over its runs, the change of the new
median against the base as a share of the base, and the metric's bound from
BENCHMARK.json:

  ok          the new median is not worse than the base by more than the bound
  WORSE       it is
  unresolved  a set's own quartile spread is wider than the bound, and not
              every new run beats every base run

The simulator is bit-reproducible per seed, so for every seed run in both
sets the simulated counts must match exactly: virtual_s from untraced runs,
sim.events, async.worker_iterations and net.flows from traced runs. Every run
in either set must report "correct": true and 0 failed solves. Exits 1 on any
WORSE, mismatch or failed run.
"""
import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXACT_UNTRACED = ["virtual_s"]
EXACT_TRACED = ["sim.events", "async.worker_iterations", "net.flows"]


def load(directory):
    """{(workload, trace): {seed: result}} from one directory of result files."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.txt")):
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        info = next(json.loads(l)["perfbench"] for l in lines
                    if l.startswith('{"perfbench"'))
        result = json.loads(lines[-1])
        key = (info["workload"], info["trace"])
        runs.setdefault(key, {})[info["seed"]] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(pathlib.Path(args.benchmark).read_text())
    metrics = spec["end_to_end"]
    base, new = load(args.base), load(args.new)
    problems = 0
    for label, runs in (("base", base), ("new", new)):
        for (workload, trace), by_seed in sorted(runs.items()):
            for seed, r in sorted(by_seed.items()):
                if not r["correct"] or r["failed"]:
                    print(f"FAILED {label} {workload} seed {seed} trace {trace}: "
                          f"correct={r['correct']} failed={r['failed']}/{r['attempted']}")
                    problems += 1

    print(f"{'workload':18} {'metric':12} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    for workload in sorted({w for w, t in base if t == 0}):
        b_runs = base.get((workload, 0), {})
        n_runs = new.get((workload, 0), {})
        if not n_runs:
            print(f"{workload:18} no untraced runs in {args.new}")
            problems += 1
            continue
        for m in metrics:
            name, bound = m["name"], m["bound"]
            bv = [r["metrics"][name]["value"] for r in b_runs.values()]
            nv = [r["metrics"][name]["value"] for r in n_runs.values()]
            bq, nq = quartiles(bv), quartiles(nv)
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            all_better = (max(nv) < min(bv)) if sign > 0 else (min(nv) > max(bv))
            if change > bound:
                verdict = "WORSE"
                problems += 1
            elif max(spread(bv), spread(nv)) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            print(f"{workload:18} {name:12} {fmt(bq):>34} {fmt(nq):>34} "
                  f"{change:+8.2%} {bound:6.2f}  {verdict}")

    for (workload, trace), b_runs in sorted(base.items()):
        n_runs = new.get((workload, trace), {})
        names = EXACT_TRACED if trace else EXACT_UNTRACED
        for seed in sorted(set(b_runs) & set(n_runs)):
            b, n = b_runs[seed], n_runs[seed]
            for name in names:
                bv, nv = b["metrics"][name]["value"], n["metrics"][name]["value"]
                if bv != nv:
                    print(f"MISMATCH {workload} seed {seed} {name}: {bv!r} vs {nv!r}")
                    problems += 1
    print(f"{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
