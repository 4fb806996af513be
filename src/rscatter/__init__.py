"""RS-coded backscatter link simulator over intermittent WiFi excitation.

Submodules:
  gf2m        GF(2^m) log/exp tables, one pair per field, m in 3..7
  rscodec     systematic RS encoder / errors-and-erasures decoder
  traffic     Pareto on/off duration modeling, MLE fitting, trace I/O
  channel     two-state Markov burst channel and erasure masks
  codesearch  rate-maximal code selection under a reliability threshold
  phy         framing, OOK modulation, blind demodulation
  harness     Monte Carlo link experiments and sweeps
"""

__version__ = "0.1.0"
