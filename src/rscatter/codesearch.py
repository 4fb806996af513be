"""Heuristic selection of the rate-maximal RS code meeting a reliability
threshold.

For each admissible codeword length n = 2^m - 1 (m in 3..7), the largest
odd k <= n-2 whose predicted post-decode error rate stays at or below the
threshold is found by scanning k downward in steps of 2; the per-length
winners then compete on rate k/n, ties broken toward larger n (better
burst spanning).  A brute-force scan over the whole candidate set is also
provided for cross-checking; the search space has 119 pairs (every odd
k <= n-2 of each n).
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .channel import binomial_tail, markov_from_stats, symbol_error_rate
from .errors import InfeasibleError, ParameterError
from .rscodec import RsCode

CANDIDATE_M = (3, 4, 5, 6, 7)
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
    """Run the heuristic search for a given raw symbol error rate."""
    check_threshold(pe_threshold)
    if not (0.0 <= p_s <= 1.0):
        raise ParameterError(f"p_s must be in [0, 1], got {p_s}")
    winners = []
    best_pe_seen = None
    for m in CANDIDATE_M:
        n = (1 << m) - 1
        for k in range(n - 2, 0, -2):
            t = (n - k) // 2
            pe = binomial_tail(n, t, p_s)
            if best_pe_seen is None or pe < best_pe_seen:
                best_pe_seen = pe
            if pe <= pe_threshold:
                winners.append((n, k, pe))
                break
        # no feasible k for this n: skip it rather than reuse a stale candidate
    if not winners:
        raise InfeasibleError(
            f"no admissible (n, k) meets pe_threshold={pe_threshold:g} "
            f"at p_s={p_s:g}; best achievable p_e was {best_pe_seen:g}"
        )
    best = None
    for n, k, pe in winners:
        rate = Fraction(k, n)
        # ties go to larger n; winners come in ascending n, so >= keeps the later one
        if best is None or rate > best[3] or (rate == best[3] and n > best[0]):
            best = (n, k, pe, rate)
    n, k, pe, rate = best
    return SearchOutcome(
        code=RsCode(n, k),
        predicted_pe=pe,
        rate=float(rate),
        feasible_alternatives=[(n_, k_, pe_) for n_, k_, pe_ in winners],
    )


def optimize_code(stats, rate_R, pe_threshold=DEFAULT_PE_THRESHOLD):
    """Select the rate-maximal code for measured traffic statistics."""
    ch = markov_from_stats(stats, rate_R)
    return optimize_for_ps(symbol_error_rate(ch), pe_threshold)


def brute_force_search(p_s, pe_threshold=DEFAULT_PE_THRESHOLD):
    """Evaluate every admissible (n, k) pair and pick max k/n.

    Reference implementation for cross-checking the heuristic search; the
    tie-break (larger n on equal rate) is identical.
    """
    check_threshold(pe_threshold)
    best = None
    best_pe_seen = None
    feasible = []
    for m in CANDIDATE_M:
        n = (1 << m) - 1
        for k in range(1, n - 1, 2):
            pe = binomial_tail(n, (n - k) // 2, p_s)
            if best_pe_seen is None or pe < best_pe_seen:
                best_pe_seen = pe
            if pe > pe_threshold:
                continue
            feasible.append((n, k, pe))
            rate = Fraction(k, n)
            if (
                best is None
                or rate > best[3]
                or (rate == best[3] and n > best[0])
            ):
                best = (n, k, pe, rate)
    if best is None:
        raise InfeasibleError(
            f"no admissible (n, k) meets pe_threshold={pe_threshold:g} "
            f"at p_s={p_s:g}; best achievable p_e was {best_pe_seen:g}"
        )
    n, k, pe, rate = best
    return SearchOutcome(
        code=RsCode(n, k),
        predicted_pe=pe,
        rate=float(rate),
        feasible_alternatives=feasible,
    )
