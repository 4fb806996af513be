"""One set-up measurement, in a fresh interpreter.

Prints the seconds from before `import rscatter` to a built workload input,
which is what a user pays before the first simulated frame.  Run by run.py:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

t0 = perf_counter()
import rscatter  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(perf_counter() - t0)
