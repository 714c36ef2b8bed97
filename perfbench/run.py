"""Benchmark entry point: pins the environment, then runs bench_harness.

    python3 perfbench/run.py --workload w8a-train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  Exits with code 2 and prints no
result when ./src/proxsplit is missing.
"""

import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy is first imported; PROXSPLIT_THREADS
# stays unset so `train` and `bench` keep their single-worker default
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PROXSPLIT_THREADS", None)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_checkout_package():
    if not (SRC / "proxsplit" / "__init__.py").is_file():
        sys.stderr.write("error: %s/proxsplit not found; run from a source checkout\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import proxsplit

    if Path(proxsplit.__file__).resolve().parent != (SRC / "proxsplit").resolve():
        sys.stderr.write("error: proxsplit imported from %s, not ./src\n" % proxsplit.__file__)
        sys.exit(2)


if __name__ == "__main__":
    _import_checkout_package()
    import bench_harness

    sys.exit(bench_harness.main())
