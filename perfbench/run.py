#!/usr/bin/env python3
"""Seeded benchmark of ``sublm`` at the paper's shapes.

Run from the repository root:

    python3 perfbench/run.py --workload train-concat-f32 --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (which also writes
its spans to ``perfbench/out/trace-<workload>-seed<seed>.json``).  ``--smoke`` runs
every workload briefly, traced and untraced, and exits non-zero if any
output is malformed or any check fails.  See README.md.
"""

import argparse
import dataclasses
import json
import os
import sys

# BLAS threads are fixed before numpy is first imported; the package reads
# SUBLM_THREADS at import time.
THREADS = 1
os.environ["SUBLM_THREADS"] = str(THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
OUT_DIR = os.path.join(HERE, "out")


def import_bench():
    try:
        import sublm  # noqa: F401  (applies SUBLM_THREADS before numpy loads)
    except ImportError as err:
        print(f"perfbench: cannot import the sublm package from {ROOT}/src: {err}",
              file=sys.stderr)
        sys.exit(2)
    import bench
    return bench


def _print_result(result) -> None:
    for note in result.notes:
        print(f"# {note}", file=sys.stderr)
    print(json.dumps(result.as_json()), flush=True)


def smoke(bench) -> int:
    """Every workload for a couple of windows, untraced and traced."""
    status = 0
    for workload in bench.WORKLOADS.values():
        short = dataclasses.replace(workload, windows=2,
                                    heldout_tokens=min(workload.heldout_tokens, 800))
        for trace in (False, True):
            result = bench.run(short, seed=0, seconds=0.0, trace=trace,
                               scratch_dir=OUT_DIR, setup_reps=1, min_rounds=1)
            expected = bench.LAYER_UNITS if trace else bench.UNITS
            values = result.metrics
            ok = (result.correct and result.attempted >= 1 and result.failed == 0
                  and set(values) == set(expected)
                  and all(isinstance(v["value"], (int, float)) for v in values.values()))
            print(f"smoke {workload.name} trace={int(trace)}: {'ok' if ok else 'FAILED'}",
                  file=sys.stderr)
            _print_result(result)
            status |= 0 if ok else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    # internal: the eval workload trains its checkpoint in a child process
    parser.add_argument("--make-checkpoint", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bench = import_bench()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.smoke:
        return smoke(bench)
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
    if args.make_checkpoint:
        bench.train_checkpoint(bench.WORKLOADS[args.workload], args.seed,
                               args.make_checkpoint)
        return 0
    result = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), scratch_dir=OUT_DIR)
    _print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
