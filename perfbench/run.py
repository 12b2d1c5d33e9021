"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-fig5-quick --seed 3 --seconds 20 --trace 0

Workloads: ``paper-fig5-quick``, ``mem-manycore``, ``serve-mixed`` (see
NOTES.md).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
the traced slice instead and prints the per-layer metrics, writing its
spans under ``perfbench/.out/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; a
readable table goes to standard error.  Run it from the checkout root.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import OUT, SRC, prepare  # noqa: E402

WORKLOADS = ("paper-fig5-quick", "mem-manycore", "serve-mixed")


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: a few jobs per workload, for the benchmark's self-tests",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    prepare()
    from perfbench import plans
    from perfbench.report import END_TO_END, PER_LAYER, Tally, emit

    goldens = plans.load_goldens()
    tally = Tally()
    trace_path = OUT / f"spans-{args.workload}.json"
    if args.workload == "serve-mixed":
        from perfbench import serve_mixed

        load = serve_mixed.Load.tiny(args.seed) if args.size == "tiny" else serve_mixed.Load(args.seed)
        if args.trace:
            metrics = serve_mixed.run_traced(load, goldens, tally, trace_path)
        else:
            metrics = serve_mixed.run_untraced(load, args.seconds, goldens, tally)
    else:
        from perfbench import inprocess

        jobs = None
        if args.size == "tiny":
            jobs = inprocess.WORKLOADS[args.workload](args.seed).trace_jobs()[:1]
        if args.trace:
            metrics = inprocess.run_traced(args.workload, args.seed, goldens, tally,
                                           trace_path, jobs)
        else:
            metrics = inprocess.run_untraced(args.workload, args.seed, args.seconds,
                                             goldens, tally, jobs)
    emit(tally, metrics, PER_LAYER if args.trace else END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
