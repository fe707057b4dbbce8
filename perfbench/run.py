"""Benchmark of cavityrb: offline, sweep and online cost of three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload stokes-p2p2 --seed 1 \
        --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones, from a run whose layer
calls are traced (spans go to ``perfbench/out/trace-<workload>.json``).
The package is imported from ``src/`` of the current directory; without
it the run exits with code 2.  BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="stokes-p2p2, ns-p2p2 or online-p1p1")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget: whole pipeline rounds are run until "
                         "the next one would end past it (at least 2)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def use_checkout_source() -> str | None:
    """Put ./src first on the path; None when this is no source checkout."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "cavityrb", "__init__.py")):
        return None
    sys.path[:0] = [src, HERE]
    return src


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    src = use_checkout_source()
    if src is None:
        print(f"error: no src/cavityrb under {os.getcwd()}; run from the "
              "root of a cavityrb source checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    import pipeline
    import tracing
    import cavityrb

    if not os.path.abspath(cavityrb.__file__).startswith(src + os.sep):
        print(f"error: cavityrb was imported from {cavityrb.__file__}, "
              "not from the checkout", file=sys.stderr)
        return 2
    if args.workload not in pipeline.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        state = pipeline.run(args.workload, args.seed, args.seconds,
                             workdir, tracer)
    details = {"workload": args.workload, "seed": args.seed,
               **state.details(), "wall_s": time.perf_counter() - t0}
    violations = state.violations
    for v in violations:
        print(f"check failed: {v}", file=sys.stderr)

    e2e = {k: {"value": v, "unit": u} for k, (v, u) in state.metrics().items()}
    if tracer is not None:
        reported = tracer.metrics(state.rounds)
        # against an untraced run's figures, these give the tracing overhead
        details["traced_end_to_end"] = e2e
        tracer.dump(os.path.join(out_dir, f"trace-{args.workload}.json"),
                    {"workload": args.workload, "seed": args.seed,
                     "rounds": state.rounds})
    else:
        reported = e2e
    result = {"correct": not violations, "attempted": state.attempted,
              "failed": state.failed, "metrics": reported}
    with open(os.path.join(
            out_dir, f"result-{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "violations": violations, "details": details},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
