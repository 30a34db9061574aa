"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-netflix --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
other repetition with the layer probes installed and prints the
per-layer metrics, writing a Chrome trace and a layer report under
``perfbench/_out/``.  The last line of standard output is the result
object; the line before it is the full report (named metrics with units
and sample counts, operation accounting, checks and the machine
fingerprint).  The exit code is 0 only when the run completed; a failed
correctness check still exits 0 and reads ``"correct": false``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: on a small shared machine a multi-threaded BLAS makes
# timings depend on whatever else runs, and the fingerprint records it.
# Set before NumPy is first imported, which is when the library reads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def workloads() -> dict:
    from perfbench import ingest_mixed, serve_catalog, train_netflix

    return {
        "train-netflix": train_netflix.TrainNetflix(),
        "serve-catalog": serve_catalog.ServeCatalog(),
        "ingest-mixed": ingest_mixed.IngestMixed(),
    }


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json
    import shutil
    import tempfile

    from perfbench import harness, spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        ctx = harness.Context(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace), workdir=workdir
        )
        result, report = harness.run(workloads()[args.workload], ctx, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
