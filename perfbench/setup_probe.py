"""Time one set-up in a fresh interpreter: import the package from the
checkout's src/ and build a workload's inputs.  Prints the seconds,
scaled by a calibration run afterwards (see workloads.CAL_REF_S).

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

here = Path(__file__).resolve().parent
sys.path[:0] = [str(here.parent / "src"), str(here)]

import workloads  # noqa: E402  (imports the package)

workloads.build(sys.argv[1], int(sys.argv[2]))
elapsed = time.perf_counter() - t0
print(elapsed * workloads.CAL_REF_S / workloads.calibration_s())
