"""One round of one workload, in this fresh process.

    python3 benchmark/worker.py --workload NAME --seed N --trace 0|1 --tmp DIR

Prints one JSON record as its last line of standard output: the round's
set-up and wall time, peak RSS, operations attempted and failed, check
problems, work counts and, when traced, the per-layer metrics and the
aggregated counters behind them.  ``run.py``
starts one worker per round and aggregates the records.

Spans, in order:
  setup_s  from just before ``import klrchar`` until the inputs are built.
           Interpreter start-up is over before the clock starts, and
           ``run.py`` has compiled the bytecode before any round runs.
  wall_s   from the built inputs until the last result returns.
  peak RSS is read when the wall span ends, before the checks run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import checks
    import tracer
    import workloads

    build, run, _ = workloads.WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import klrchar
    inputs = build(args.seed, args.small, args.tmp)
    t1 = time.perf_counter()

    if not os.path.abspath(klrchar.__file__).startswith(SRC + os.sep):
        print(f"klrchar was imported from {klrchar.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    # correction rounds are one of the work counts the determinism guard
    # compares, so they are counted in untraced rounds too (one integer
    # increment per round of the correction loop)
    rounds = tracer.CallCounter("klrchar.canonical", "correction")
    tr = tracer.Tracer().install() if args.trace else None
    t2 = time.perf_counter()
    outcome = run(inputs)
    t3 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tr is not None:
        tr.uninstall()
    rounds.restore()

    problems = checks.check(args.workload, inputs, outcome)
    counts = {"correction_rounds": rounds.calls}
    if tr is not None:
        layers = tr.metrics()
        counts.update((k, v) for k, v in layers.items() if not k.endswith("_s"))
    record = {
        "setup_s": t1 - t0,
        "wall_s": t3 - t2,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "problems": problems,
        "counts": workloads.work_counts(args.workload, outcome, counts),
    }
    if tr is not None:
        record["layers"] = layers
        record["raw"] = tr.raw()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
