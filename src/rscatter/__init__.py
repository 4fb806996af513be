"""RS-coded backscatter link simulator over intermittent WiFi excitation.

Submodules:
  gf2m        GF(2^m) log/exp tables, one pair per field, m in 3..7
  rscodec     systematic RS encoder / errors-and-erasures decoder
  traffic     Pareto on/off duration modeling, MLE fitting, trace I/O
  channel     per-symbol loss rate of the on/off gate, erasure masks
  codesearch  rate-maximal code selection under a reliability threshold
  phy         framing, OOK modulation, blind demodulation
  harness     Monte Carlo link experiments and sweeps

Importing the package pins BLAS to one thread unless the environment already
sets a count.  The encoder's matrix products are small, and on a shared
2-core Xeon two OpenBLAS threads now and then stalled them: one loop of 200
encodes of a 64-row RS(127,95) block averaged 4.6 ms against a 0.19 ms
median.  The pin acts only if numpy is not imported yet.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
