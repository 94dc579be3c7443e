"""Two interleaved sets of runs of one workload, and their spread.

    python3 benchmark/steadiness.py --workload NAME

For seed 1..10, runs ``run.py`` for BENCHMARK.json's ``run_seconds`` once
for set A and once for set B, one after the other, so that slow drift of the machine lands on both sets alike.  For
each end-to-end metric it prints each set's median and quartiles, the
spread (quartile distance over median) and the shift of B's median against
A's, next to the metric's bound from BENCHMARK.json, then the share of
failed operations in each set.  The raw results go to
``.bench_build/steadiness-NAME.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]

    sets = {"A": [], "B": []}
    for seed in SEEDS:
        for name in sets:
            sets[name].append(one_run(args.workload, seed, seconds))
            print(f"seed {seed} set {name}: "
                  + ", ".join(f"{k} {v['value']:.4f}"
                              for k, v in sets[name][-1]["metrics"].items()),
                  file=sys.stderr)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build",
                           f"steadiness-{args.workload}.json"), "w") as f:
        json.dump(sets, f)

    print(f"{args.workload}: seeds {SEEDS.start}-{SEEDS.stop - 1}, {seconds} s per run")
    print("metric | set | median | q1 | q3 | spread | shift B/A | bound")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        medians = {}
        for label, runs in sets.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            medians[label] = statistics.median(values)
            shift = (f"{medians['B'] / medians['A'] - 1:+.3f}"
                     if label == "B" else "")
            print(f"{name} | {label} | {medians[label]:.4f} | {q1:.4f} | "
                  f"{q3:.4f} | {(q3 - q1) / medians[label]:.3f} | {shift} | "
                  f"{metric['bound']}")
    for label, runs in sets.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"set {label}: {failed}/{attempted} operations failed, "
              f"correct in every run: {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
