#!/usr/bin/env python3
"""Run one fleetfl benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload fleet64-feedback --seed 1 --seconds 25 --trace 0

It imports fleetfl from the checkout's own ``src/`` and exits with code 2,
printing no result, when that tree is missing. See perfbench/README.md.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    # one thread: pin the BLAS pools before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "fleetfl", "__init__.py")):
        print(f"no fleetfl source tree under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import fleetfl

    if os.path.dirname(os.path.abspath(fleetfl.__file__)) != os.path.join(SRC, "fleetfl"):
        print(f"imported fleetfl from {fleetfl.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    import bench

    sys.exit(bench.main(ROOT))
