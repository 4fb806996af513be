"""Heuristic selection of the rate-maximal RS code meeting a reliability
threshold.

For each admissible codeword length n = 2^m - 1 (`rscodec.ADMISSIBLE_N`,
one per field of `gf2m.PRIMITIVE_POLYS`), k is scanned down the odd
values n-2, n-4, ... and the scan stops at the first k whose predicted
post-decode error rate (`channel.post_decode_error_rate`) stays at or
below the threshold.  That k is the largest feasible one, since the
binomial tail is monotone in the correction capability t = (n - k) / 2.
The per-length winners then compete on rate k/n, ties broken toward larger
n (better burst spanning).  The tests check the scan against an oracle
that scores all 119 pairs (every odd k <= n-2 of each n).
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .channel import post_decode_error_rate
from .errors import InfeasibleError, ParameterError
from .rscodec import ADMISSIBLE_N, RsCode

DEFAULT_PE_THRESHOLD = 1e-3


@dataclass
class SearchOutcome:
    """Selected code with its predicted reliability and the per-n shortlist."""

    code: RsCode
    predicted_pe: float
    rate: float
    feasible_alternatives: list = field(default_factory=list)


def check_threshold(pe_threshold):
    """Reject a block error threshold outside (0, 1)."""
    if not (0.0 < pe_threshold < 1.0):
        raise ParameterError(f"pe_threshold must be in (0, 1), got {pe_threshold}")


def optimize_for_ps(p_s, pe_threshold=DEFAULT_PE_THRESHOLD):
    """Select the rate-maximal code at the per-symbol loss rate p_s, which
    channel.symbol_error_rate gives for traffic statistics."""
    check_threshold(pe_threshold)
    if not (0.0 <= p_s <= 1.0):
        raise ParameterError(f"p_s must be in [0, 1], got {p_s}")
    winners = []
    least_pe = 1.0
    for n in ADMISSIBLE_N:
        for k in range(n - 2, 0, -2):
            code = RsCode(n, k)
            pe = post_decode_error_rate(code, p_s)
            least_pe = min(least_pe, pe)
            if pe <= pe_threshold:
                winners.append((code, pe))
                break
    if not winners:
        raise InfeasibleError(
            f"no admissible (n, k) meets pe_threshold={pe_threshold:g} "
            f"at p_s={p_s:g}; best achievable p_e was {least_pe:g}"
        )
    code, pe = max(winners, key=lambda w: (Fraction(w[0].k, w[0].n), w[0].n))
    return SearchOutcome(
        code=code,
        predicted_pe=pe,
        rate=code.k / code.n,
        feasible_alternatives=[(c.n, c.k, c_pe) for c, c_pe in winners],
    )
