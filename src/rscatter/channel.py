"""Two-state Markov burst channel and erasure-mask generation.

The on/off excitation process is reduced to per-symbol transition
probabilities alpha (on->off) and beta (off->on); the stationary off
fraction alpha/(alpha+beta) is the average symbol error rate of the
uncoded link.  Masks can be drawn either from the Markov chain itself or
directly from Pareto on/off gates.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ParameterError
from .traffic import pareto_mean, pareto_sample

# Most on/off runs one gate may hold: the draw loop reaches it in about 1.5 s
# on a 2-core Xeon, and a 100 us gate at 1e-4 us scales needs about half.
MAX_GATE_RUNS = 1_000_000


@dataclass(frozen=True)
class MarkovChannel:
    """Per-symbol transition probabilities and the backscatter symbol rate.

    The transition matrix is Q = [[1-alpha, alpha], [beta, 1-beta]] over
    the (on, off) states; rate is in symbols/second.
    """

    alpha: float
    beta: float
    rate: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ParameterError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (0.0 <= self.beta <= 1.0):
            raise ParameterError(f"beta must be in [0, 1], got {self.beta}")
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ParameterError(f"rate must be finite and > 0, got {self.rate}")

    @property
    def transition_matrix(self):
        return np.array([[1 - self.alpha, self.alpha], [self.beta, 1 - self.beta]])


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
    except Exception as exc:
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
    return MarkovChannel(alpha=alpha, beta=beta, rate=rate)


def symbol_error_rate(ch):
    """Stationary off fraction alpha/(alpha+beta) of the two-state chain."""
    if ch.alpha + ch.beta == 0:
        raise ParameterError("alpha and beta are both zero; error rate undefined")
    return ch.alpha / (ch.alpha + ch.beta)


def _log_binom_tail(n, t, p):
    """log-space sum_{i=t+1}^{n} C(n,i) p^i (1-p)^(n-i)."""
    if t >= n:
        return 0.0
    lp = math.log(p)
    lq = math.log1p(-p)
    terms = [
        math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * lp + (n - i) * lq
        for i in range(t + 1, n + 1)
    ]
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
    """Residual symbol error rate of an (n, k) RS code at raw rate p_s.

    Binomial tail over more than t of n symbols erring; the i.i.d.
    assumption follows the Markov-channel stationary rate.
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


def _off_time_before(durations, x):
    """Cumulative off-state time in [0, x) for an on-first alternating gate."""
    durations = np.asarray(durations, dtype=float)
    bounds = np.concatenate([[0.0], np.cumsum(durations)])
    is_off = np.arange(durations.size) % 2 == 1
    off_cum = np.concatenate([[0.0], np.cumsum(np.where(is_off, durations, 0.0))])
    return np.interp(x, bounds, off_cum)


def erasure_mask_from_gate(durations, rate, n_symbols):
    """Deterministic mask, one bool per symbol: a symbol is erased iff its
    transmit interval overlaps an off run (a partially-lost symbol counts
    as lost)."""
    if rate <= 0:
        raise ParameterError(f"rate must be positive, got {rate}")
    durations = np.asarray(durations, dtype=float)
    period_us = 1e6 / rate
    total = float(durations.sum()) if durations.size else 0.0
    if n_symbols * period_us > total + 1e-9:
        raise ParameterError(
            f"gate ({total:.1f} us) shorter than transmission "
            f"({n_symbols * period_us:.1f} us)"
        )
    edges = np.arange(n_symbols + 1) * period_us
    off_cum = _off_time_before(durations, edges)
    return np.diff(off_cum) > period_us * 1e-9


def erasure_mask_markov(rng, ch, n_symbols):
    """Simulate the per-symbol chain from its stationary distribution; True
    marks a symbol sent in the off state.

    Sojourn times in each state are geometric, so the chain is generated
    run-by-run; the first run is a fresh geometric draw by memorylessness.
    """
    if n_symbols <= 0:
        return np.empty(0, dtype=bool)
    p_off = symbol_error_rate(ch) if (ch.alpha + ch.beta) > 0 else 0.0
    state_off = bool(rng.random() < p_off)
    flags = []
    covered = 0
    while covered < n_symbols:
        p_leave = ch.beta if state_off else ch.alpha
        if p_leave <= 0.0:
            run = n_symbols - covered
        else:
            run = int(rng.geometric(p_leave))
        run = min(run, n_symbols - covered)
        flags.append(np.full(run, state_off))
        covered += run
        state_off = not state_off
    return np.concatenate(flags)
