"""End-to-end and per-layer benchmark of the promil package.

    python3 e2ebench/run.py --workload readme-train --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Workloads: readme-train, bigbag-train, mnist-wide and
heads-loop (see README.md in this directory).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it give the machine block,
the model digests and any failure.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".e2ebench_work")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "promil", "__init__.py")):
        print(f"e2ebench: no package source at {SRC}/promil; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import promil.cli  # noqa: F401 - timed: the package import is part of set-up
    import_s = time.perf_counter() - t0
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    result, extra = bench.run_workload(bench.WORKLOADS[args.workload], args.seed,
                                       args.seconds, bool(args.trace), workdir, import_s)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"rounds {extra['rounds']}")
    print("machine " + json.dumps(extra["machine"], sort_keys=True))
    print("digests " + json.dumps(extra["digests"]))
    print("calibration " + json.dumps(extra["calibration"], sort_keys=True))
    if extra["wall"] is not None:
        print("wall " + json.dumps(extra["wall"], sort_keys=True))
    if extra["absent_layers"]:
        print("absent layers " + json.dumps(extra["absent_layers"]))
    for note in extra["notes"]:
        print("FAILED " + note)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
