"""Run one benchmark workload through the ogaprox CLI and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from the
checkout's ``src`` directory, never from an installed copy; without it the
script exits with code 2 and prints no result.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("toy-cone", "mksvm-ionosphere", "fairness-heart")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> str | None:
    """Pin BLAS to one thread and import ogaprox from the checkout's sources;
    returns what went wrong, or ``None``."""
    if not (SRC / "ogaprox" / "__init__.py").is_file():
        return f"no ogaprox sources under {SRC}"
    # before numpy is first imported
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    import ogaprox

    if not Path(ogaprox.__file__).resolve().is_relative_to(SRC):
        return f"ogaprox imported from {ogaprox.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = bootstrap()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from perfbench import measure

    result, lines = measure.run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace), ROOT)
    measure.emit(result, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
