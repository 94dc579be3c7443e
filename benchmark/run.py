"""klrchar benchmark: fresh-process rounds of one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: pbw-orders, pbw-e8,
canonical-b3, gram-resolve (see README.md).

The runner first compiles klrchar's bytecode, then starts one worker
process per round, one at a time, until ``--seconds`` have passed; every
round is a whole workload on the same seeded inputs.  It prints progress to
standard error and, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the medians over rounds of wall_s,
setup_s and peak_rss_mb; with ``--trace 1`` every round is traced and the
metrics are the per-layer medians.  ``correct`` is false when a check finds
a wrong output or when a round's work counts differ from the first
round's.  Result files, with every round's record, go to
``.bench_build/results/`` in the checkout.

Exits nonzero, printing no result, when klrchar's sources are missing or a
round does not finish.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "klrchar")
OUT = os.path.join(ROOT, ".bench_build")

# a run, set-up and checks included, must end within 180 s
DEADLINE_S = 170.0


def metric_units(kind: str) -> dict:
    """Metric name -> unit, for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def run_round(args, index: int, deadline: float) -> dict:
    tmp = os.path.join(OUT, "tmp", f"{args.workload}-{os.getpid()}-{index}")
    os.makedirs(tmp)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--tmp", tmp]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"round {index} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(args, rounds: list[dict]) -> dict:
    first = rounds[0]["counts"]
    drift = [k for k, r in enumerate(rounds) if r["counts"] != first]
    problems = [p for r in rounds for p in r["problems"]]
    for k in drift:
        print(f"round {k}: work counts {rounds[k]['counts']} differ from "
              f"round 0: {first}", file=sys.stderr)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        # median_low: a count stays a whole number that some round measured
        metrics = {name: {"value": statistics.median_low(r["layers"][name] for r in rounds),
                          "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in rounds),
                          "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    return {
        "correct": not problems and not drift,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"klrchar sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    # compile before any timed span, so that no round pays for it
    if not (compileall.compile_dir(PACKAGE, quiet=1)
            and compileall.compile_dir(HERE, quiet=1, maxlevels=0)):
        print("bytecode compilation failed", file=sys.stderr)
        return 2

    rounds = []
    try:
        while True:
            rec = run_round(args, len(rounds), deadline)
            rounds.append(rec)
            print(f"round {len(rounds) - 1}: wall {rec['wall_s']:.3f} s, setup "
                  f"{rec['setup_s']:.3f} s, rss {rec['peak_rss_mb']:.1f} MB, "
                  f"{rec['attempted']} ops, {rec['failed']} failed", file=sys.stderr)
            for e in rec["errors"][:3]:
                print(f"  failed op: {e}", file=sys.stderr)
            if time.monotonic() - start >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 1

    result = summarize(args, rounds)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"args": vars(args), "result": result, "rounds": rounds}, f)
    print(f"{len(rounds)} rounds; counts {json.dumps(rounds[0]['counts'])}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
