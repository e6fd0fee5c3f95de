"""Decode benchmark for medal: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ngram_long --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; medal is imported from ``src/`` there,
and the run fails without printing a result when the sources are missing.
``--trace 0`` times ops untraced and prints the end-to-end metrics;
``--trace 1`` times the same ops under the layer tracer, replays them
untraced to measure the tracing overhead, and prints the per-layer metrics.
Every op's output is checked. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. README.md in
this directory defines the workloads and metrics.
"""

import time

_T0 = time.perf_counter()  # set-up time starts here and includes the imports

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once and print the set-up seconds (used to time set-up "
                         "in fresh processes)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "medal", "__init__.py")):
        print(f"medal sources not found at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench

    return bench.main(args, import_s=time.perf_counter() - _T0)


if __name__ == "__main__":
    sys.exit(main())
