"""Two-state Markov burst channel and erasure-mask generation.

The on/off excitation process is reduced to per-symbol transition
probabilities alpha (on->off) and beta (off->on); the stationary off
fraction alpha/(alpha+beta) is the average symbol error rate of the
uncoded link.  Erasure masks for Monte Carlo are drawn from Pareto on/off
gates.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain

import numpy as np

from .errors import InfeasibleError, InfiniteMeanError, ParameterError
from .traffic import pareto_mean, pareto_sample

# Most on/off runs one gate may hold: the draw loop reaches it in about 1.5 s
# on a 2-core Xeon, and a 100 us gate at 1e-4 us scales needs about half.
MAX_GATE_RUNS = 1_000_000


@dataclass(frozen=True)
class MarkovChannel:
    """Per-symbol transition probabilities of the two-state chain.

    The transition matrix is Q = [[1-alpha, alpha], [beta, 1-beta]] over
    the (on, off) states.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ParameterError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (0.0 <= self.beta <= 1.0):
            raise ParameterError(f"beta must be in [0, 1], got {self.beta}")


def markov_from_stats(stats, rate):
    """Per-symbol transition probabilities from mean on/off durations.

    alpha = R/mean_on and beta = R/mean_off with R expressed in symbols
    per microsecond, so both are dimensionless per-symbol probabilities.
    Quotients above 1 are clamped with a diagnostic.
    """
    if not (math.isfinite(rate) and rate > 0):
        raise ParameterError(f"rate must be finite and > 0, got {rate}")
    try:
        mean_on = pareto_mean(stats.on)
        mean_off = pareto_mean(stats.off)
    except InfiniteMeanError as exc:
        raise InfeasibleError(f"channel infeasible: {exc}") from exc
    r_us = rate / 1e6
    alpha = r_us / mean_on
    beta = r_us / mean_off
    if alpha > 1.0 or beta > 1.0:
        warnings.warn(
            f"transition quotient exceeds 1 (alpha={alpha:.3g}, beta={beta:.3g}); "
            "clamping to 1 (more than one transition per symbol)",
            stacklevel=2,
        )
        alpha = min(alpha, 1.0)
        beta = min(beta, 1.0)
    return MarkovChannel(alpha=alpha, beta=beta)


def symbol_error_rate(ch):
    """Stationary off fraction alpha/(alpha+beta) of the two-state chain."""
    if ch.alpha + ch.beta == 0:
        raise ParameterError("alpha and beta are both zero; error rate undefined")
    return ch.alpha / (ch.alpha + ch.beta)


@lru_cache(maxsize=32)
def _log_factorials(n):
    """log j! = lgamma(j + 1) for j = 0..n, as a tuple."""
    return tuple(math.lgamma(j + 1) for j in range(n + 1))


def _log_binom_tail(n, t, p):
    """log-space sum_{i=t+1}^{n} C(n,i) p^i (1-p)^(n-i)."""
    if t >= n:
        return 0.0
    lp = math.log(p)
    lq = math.log1p(-p)
    lf = _log_factorials(n)
    terms = [lf[n] - lf[i] - lf[n - i] + i * lp + (n - i) * lq for i in range(t + 1, n + 1)]
    hi = max(terms)
    return math.exp(hi) * math.fsum(math.exp(v - hi) for v in terms)


def binomial_tail(n, t, p_s):
    """Probability that more than t of n i.i.d. symbols err at rate p_s."""
    if not (0.0 <= p_s <= 1.0):
        raise ParameterError(f"p_s must be in [0, 1], got {p_s}")
    if p_s == 0.0:
        return 0.0
    if p_s == 1.0:
        return 1.0 if t < n else 0.0
    return min(1.0, _log_binom_tail(n, t, p_s))


def post_decode_error_rate(code, p_s):
    """Codeword failure probability of an (n, k) RS code at raw rate p_s:
    P(more than t of n symbols erased), reported as predicted_pe.

    The symbols are taken as i.i.d. erasures at the Markov chain's
    stationary rate.
    """
    return binomial_tail(code.n, code.t, p_s)


def gate_durations(rng, stats, total_us):
    """Alternating on/off durations covering total_us, starting in on.

    Each duration is drawn i.i.d. from its Pareto law; only the last run
    overshoots the requested horizon.  A gate that needs more than
    MAX_GATE_RUNS runs raises ParameterError.
    """
    if total_us <= 0:
        return np.empty(0)
    out = []
    covered = 0.0
    state_on = True
    while covered < total_us:
        if len(out) == MAX_GATE_RUNS:
            raise ParameterError(
                f"a {total_us:g} us gate needs more than {MAX_GATE_RUNS} on/off "
                "runs at these run scales"
            )
        p = stats.on if state_on else stats.off
        d = float(pareto_sample(rng, p))
        out.append(d)
        covered += d
        state_on = not state_on
    return np.array(out)


def _gate_bounds(durations):
    """A gate's run bounds, as _run_bounds lays them out."""
    d = durations.tolist()
    if len(d) % 2:
        d.append(0.0)
    return chain(accumulate(d, initial=0.0), (math.inf,))


def _gate_off(durations):
    """A gate's off time before each pair of bounds, from 0."""
    d = durations[1::2].tolist()
    if len(durations) % 2:
        d.append(0.0)
    return accumulate(d, initial=0.0)


def _run_bounds(gates):
    """Flat run bounds and off time of a block of gates, summed in
    np.cumsum's sequential order, and the flat index of each gate's last
    bound.

    A gate of R runs takes R' + 2 entries, R' being R rounded up to even by
    an empty off run: its bounds 0, d0, d0 + d1, ..., then inf.  An even
    entry count puts each gate's run j at a flat index of j's parity, and
    its region past the last bound at an even (on) one.  Entry i of the off
    time is the off time before bounds 2i and 2i + 1, so the off time
    before run j is entry j // 2.
    """
    gates = [np.asarray(g, dtype=float) for g in gates]
    ends = list(accumulate(len(g) + len(g) % 2 + 2 for g in gates))
    size = ends[-1] if ends else 0
    bounds = np.fromiter(chain.from_iterable(map(_gate_bounds, gates)), float, size)
    off = np.fromiter(chain.from_iterable(map(_gate_off, gates)), float, size // 2)
    return bounds, off, [end - 2 for end in ends]


def erasure_mask_from_gate(gates, rate, n_symbols):
    """Lost-symbol masks of a block of gates, one row per gate: a symbol is
    erased iff its transmit interval overlaps an off run of the gate (a
    partially-lost symbol counts as lost).

    gates is a sequence of on-first duration arrays; the result is a
    (len(gates), n_symbols) bool array.  A symbol is erased iff the off
    time before its right edge exceeds that before its left edge by more
    than period * 1e-9.  The work is O(runs) plus one pass over the
    block's symbols.  A symbol whose edges lie in one run is erased iff
    that run is off.  Only at the edges of a symbol whose interval holds a
    run bound is the off time read: the off time before the edge's run j,
    plus the edge's time into the run when j is odd (an off run).
    """
    if not (math.isfinite(rate) and rate > 0):
        raise ParameterError(f"rate must be finite and > 0, got {rate}")
    period_us = 1e6 / rate
    bounds, off, last = _run_bounds(gates)
    totals = bounds[last]
    if totals.size and n_symbols * period_us > totals.min() + 1e-9:
        raise ParameterError(
            f"gate ({totals.min():.1f} us) shorter than transmission "
            f"({n_symbols * period_us:.1f} us)"
        )
    edges = np.arange(n_symbols + 1) * period_us
    # edge pos[j] is the first at or after bound j: bits pos[j] ..
    # pos[j + 1] - 2 have both edges in run j, and bit pos[j + 1] - 1
    # straddles bound j + 1 when pos[j] < pos[j + 1] <= n_symbols (each
    # gate's pos rise from 0 at its first bound to n_symbols + 1 at inf)
    pos = edges.searchsorted(bounds)
    now, nxt = pos[:-1], pos[1:]
    # only the last bound of each group of equal pos has bits of its own
    group_end = (nxt > now).nonzero()[0]
    start, stop = now[group_end], nxt[group_end]
    inner = stop <= n_symbols
    # a straddled bit's right edge lies in the run of the next group's end
    left, right = group_end[:-1][inner[:-1]], group_end[1:][inner[:-1]]
    bit = stop[inner] - 1
    # the off time before each such edge: the off time before its run,
    # plus its time into the run if that run is odd (off)
    run = np.concatenate([left, right])
    x = edges[np.concatenate([bit, bit + 1])]
    at = off[run >> 1] + (x - bounds[run]) * (run & 1)

    # per group: the bits of its last bound's run, erased iff that run is
    # odd (off), then the bit straddling the next bound, if any
    values = np.zeros(2 * group_end.size, dtype=bool)
    values[0::2] = group_end % 2
    values[1::2][inner] = at[bit.size :] - at[: bit.size] > period_us * 1e-9
    lengths = np.empty(2 * group_end.size, dtype=np.intp)
    lengths[0::2] = stop - start - 1
    lengths[1::2] = inner
    return values.repeat(lengths).reshape(len(last), n_symbols)
