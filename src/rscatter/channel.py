"""Per-symbol loss rate of the on/off gate, and erasure-mask generation.

symbol_error_rate reduces fitted Pareto on/off statistics to one number,
p_s: the stationary off fraction of the gate at symbol granularity,
alpha/(alpha+beta) from the per-symbol run-leaving probabilities alpha
(on) and beta (off), each clamped to 1.  The code search and the link
reports take it as the i.i.d. symbol loss rate.  Erasure masks for Monte
Carlo are drawn from Pareto on/off gates.
"""

import math
import warnings
from array import array
from functools import lru_cache

import numpy as np

from .errors import InfeasibleError, InfiniteMeanError, ParameterError
from .traffic import pareto_mean

# Most on/off runs one gate may hold: the draw loop reaches it in about 1.5 s
# on a 2-core Xeon, and a 100 us gate at 1e-4 us scales needs about half.
MAX_GATE_RUNS = 1_000_000
# Least Pareto shape a gate draws from.  A uniform's 1 - u is at least 2**-53,
# so (1 - u) ** (-1 / shape) is at most 2 ** (53 / shape), which Python's float
# ** raises OverflowError for past the largest double unless shape >= 53/1024.
MIN_GATE_SHAPE = 53 / 1024


def symbol_error_rate(stats, rate):
    """Per-symbol loss rate p_s of the on/off gate at rate symbols/second.

    With R the rate in symbols per microsecond, alpha = R/mean_on and
    beta = R/mean_off are the per-symbol probabilities of leaving an on
    and an off run; p_s = alpha/(alpha+beta) is the off fraction of the
    gate seen at symbol granularity.  A quotient above 1 (a run shorter
    than a symbol) is clamped to 1 with a diagnostic.
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
    if alpha + beta == 0:
        raise ParameterError("alpha and beta are both zero; error rate undefined")
    return alpha / (alpha + beta)


@lru_cache(maxsize=32)
def _log_factorials(n):
    """log j! = lgamma(j + 1) for j = 0..n, as a tuple."""
    return tuple(math.lgamma(j + 1) for j in range(n + 1))


@lru_cache(maxsize=32)
def _log_binom_terms(n, p):
    """log(C(n,i) p^i (1-p)^(n-i)) for i = 0..n, as a tuple: one list per
    code length serves the tail at every t."""
    lp = math.log(p)
    lq = math.log1p(-p)
    lf = _log_factorials(n)
    return tuple(lf[n] - lf[i] - lf[n - i] + i * lp + (n - i) * lq for i in range(n + 1))


def _log_binom_tail(n, t, p):
    """log-space sum_{i=t+1}^{n} C(n,i) p^i (1-p)^(n-i)."""
    if t >= n:
        return 0.0
    terms = _log_binom_terms(n, p)[t + 1 :]
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

    The symbols are taken as i.i.d. erasures at the gate's off fraction
    p_s (symbol_error_rate).
    """
    return binomial_tail(code.n, code.t, p_s)


def _too_many_runs(total_us):
    return ParameterError(f"a {total_us:g} us gate needs more than {MAX_GATE_RUNS} on/off "
                          "runs at these run scales")


def draw_gates(rng, stats, total_us, count, bounds, off, durations=None):
    """Draw count on/off gates back to back, each covering total_us and
    starting in on; only a gate's last run overshoots the horizon.

    Each duration takes one uniform u and is scale * (1 - u) ** (-1 / shape),
    the inverse CDF of its state's Pareto law at 1 - u, uniform on (0, 1].
    The uniforms are the doubles of rng.random(), read in chunks of
    rng.random(c), c the gates not yet finished: every such gate takes at
    least one more uniform, so the chunks hold the doubles, in order, that
    one rng.random() call per run would give, and leave rng in the same
    state.  Each gate's run bounds are appended to bounds and its off times
    to off, in the layout erasure_mask_from_gate reads: bounds 0, d0,
    d0 + d1, ... summed in run order, an empty off run when the run count R
    is odd, then inf, so R' + 2 bounds with R' the even run count; off takes
    the off time before each pair of bounds, (R' + 2) / 2 entries from 0.
    The durations are appended to durations when it is given.  A gate that
    needs more than MAX_GATE_RUNS runs raises ParameterError; rng may then
    have given up to count - 1 uniforms more than the runs drawn.  A shape
    below MIN_GATE_SHAPE in either state raises ParameterError before any
    draw.  A gate with total_us <= 0 has no run and takes no uniform.
    """
    for state, law in (("on", stats.on), ("off", stats.off)):
        if law.shape < MIN_GATE_SHAPE:
            raise ParameterError(f"{state} shape must be >= 53/1024 = {MIN_GATE_SHAPE} to draw "
                                 f"gates, got {law.shape}: a run would overflow a double")
    random, cap = rng.random, MAX_GATE_RUNS
    on_scale, on_exp = stats.on.scale_min, -1.0 / stats.on.shape
    off_scale, off_exp = stats.off.scale_min, -1.0 / stats.off.shape
    add, add_off = bounds.append, off.append
    keep = None if durations is None else durations.append
    if not total_us > 0:
        for _ in range(count):
            bounds.extend((0.0, math.inf))
            add_off(0.0)
        return
    left = count
    if left:
        add(0.0)
        add_off(0.0)
    covered = dark = 0.0
    runs, on = 0, True
    while left:
        # one scalar draw where a chunk would hold one double: it is faster
        for u in random(left).tolist() if left > 1 else (random(),):
            if on:
                d = on_scale * (1.0 - u) ** on_exp
                covered += d
                add(covered)
                if keep is not None:
                    keep(d)
                if covered < total_us:
                    on, runs = False, runs + 1
                    if runs == cap:
                        raise _too_many_runs(total_us)
                    continue
                # an empty off run evens the run count
                add(covered)
                add_off(dark)
            else:
                d = off_scale * (1.0 - u) ** off_exp
                covered += d
                dark += d
                add(covered)
                add_off(dark)
                if keep is not None:
                    keep(d)
                if covered < total_us:
                    on, runs = True, runs + 1
                    if runs == cap:
                        raise _too_many_runs(total_us)
                    continue
            # the gate is covered: close it and open the next
            add(math.inf)
            left -= 1
            if left:
                add(0.0)
                add_off(0.0)
                covered = dark = 0.0
                runs, on = 0, True


def gate_durations(rng, stats, total_us):
    """Alternating on/off durations covering total_us, starting in on, as
    draw_gates draws one gate; an empty array when total_us <= 0."""
    durations = []
    draw_gates(rng, stats, total_us, 1, array("d"), array("d"), durations)
    return np.array(durations)


def erasure_mask_from_gate(bounds, off, rate, n_symbols):
    """Lost-symbol masks of a block of gates, one row per gate: a symbol is
    erased iff its transmit interval overlaps an off run of the gate (a
    partially-lost symbol counts as lost).

    bounds and off are the gates' run bounds and off times, one gate after
    another in the layout draw_gates appends them in; the result is a
    (gates, n_symbols) bool array.  An even bound count per gate puts each
    gate's run j at a flat index of j's parity, and its region past the
    last bound at an even (on) one; off entry i is the off time before
    bounds 2i and 2i + 1, so the off time before run j is entry j // 2.  A
    symbol is erased iff the off time before its right edge exceeds that
    before its left edge by more than period * 1e-9.  The work is O(runs)
    plus one pass over the block's symbols.  A symbol whose edges lie in
    one run is erased iff that run is off.  Only at the edges of a symbol
    whose interval holds a run bound is the off time read: the off time
    before the edge's run j, plus the edge's time into the run when j is
    odd (an off run).
    """
    if not (math.isfinite(rate) and rate > 0):
        raise ParameterError(f"rate must be finite and > 0, got {rate}")
    period_us = 1e6 / rate
    bounds = np.asarray(bounds, dtype=float)
    off = np.asarray(off, dtype=float)
    # a gate's bounds are 0 first and positive after it, so its last bound
    # is the one before the inf ahead of the next gate's 0
    last = np.append((bounds == 0.0).nonzero()[0][1:], bounds.size) - 2
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
