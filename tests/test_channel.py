"""Per-symbol loss rate of the gate, reliability arithmetic, erasure masks."""

import math
import warnings
from array import array
from fractions import Fraction
from math import comb, inf, nan

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from draw_oracle import run_bounds
from traffic_oracle import pareto_cdf
from rscatter.channel import (
    binomial_tail,
    erasure_mask_from_gate,
    gate_durations,
    post_decode_error_rate,
    symbol_error_rate,
)
from rscatter.errors import InfeasibleError, ParameterError
from rscatter.rscodec import ADMISSIBLE_N, RsCode
from rscatter.traffic import ParetoParams, TrafficStats, pareto_mean


def _stats(off_shape, off_scale, on_shape, on_scale):
    return TrafficStats(
        off=ParetoParams(off_shape, off_scale),
        on=ParetoParams(on_shape, on_scale),
    )


def _exact_tail(n, t, p):
    p = Fraction(p).limit_denominator(10**9)
    q = 1 - p
    return float(sum(comb(n, i) * p**i * q ** (n - i) for i in range(t + 1, n + 1)))


def test_symbol_error_rate_rejects_bad_rate():
    for rate in (0.0, -1.0, inf, nan):
        with pytest.raises(ParameterError, match="rate"):
            symbol_error_rate(_stats(3.0, 10.0, 2.0, 100.0), rate=rate)


def test_symbol_error_rate_from_transition_quotients():
    # mean_on = 2*100/(2-1) = 200 us, mean_off = 3*10/(3-1) = 15 us;
    # at 1 symbol/us: alpha = 1/200, beta = 1/15, so p_s = 15/215
    stats = _stats(3.0, 10.0, 2.0, 100.0)
    assert symbol_error_rate(stats, rate=1e6) == pytest.approx(15 / 215, rel=1e-12)


def test_symbol_error_rate_clamps_with_warning():
    # mean_off = 1.5 * 0.2 / 0.5 = 0.6 us < one symbol period: beta is 1
    stats = _stats(1.5, 0.2, 2.0, 100.0)
    with pytest.warns(UserWarning, match="transition quotient exceeds 1"):
        p_s = symbol_error_rate(stats, rate=1e6)
    alpha = 1 / 200
    assert p_s == alpha / (alpha + 1.0)


def test_symbol_error_rate_infinite_mean_is_infeasible():
    stats = _stats(0.9, 10.0, 2.0, 100.0)
    with pytest.raises(InfeasibleError):
        symbol_error_rate(stats, rate=1e6)


def test_symbol_error_rate_malformed_stats_is_not_infeasible():
    # a programming error must not read as an infeasible channel
    with pytest.raises(AttributeError):
        symbol_error_rate(None, rate=1e6)


def test_stationary_error_rate():
    # mean_on = 10 us, mean_off = 2.5 us at 1 symbol/us: alpha = 0.1, beta = 0.4
    alpha, beta = 0.1, 0.4
    assert symbol_error_rate(_stats(2.0, 1.25, 2.0, 5.0), rate=1e6) == pytest.approx(
        0.2, rel=1e-12)
    # stationary vector of the transition matrix over (on, off) agrees
    q = np.array([[1 - alpha, alpha], [beta, 1 - beta]])
    pi = np.array([beta, alpha]) / (alpha + beta)
    assert np.allclose(pi @ q, pi)
    # both quotients underflow to 0: means of 2e300 us at 1e-306 symbols/us
    with pytest.raises(ParameterError, match="both zero"):
        symbol_error_rate(_stats(2.0, 1e300, 2.0, 1e300), rate=1e-300)


def _two_step_p_s(stats, rate):
    """p_s in two steps, and whether a quotient was clamped: the clamped
    transition quotients, then the stationary off fraction of their chain."""
    r_us = rate / 1e6
    alpha = r_us / pareto_mean(stats.on)
    beta = r_us / pareto_mean(stats.off)
    clamped = alpha > 1.0 or beta > 1.0
    alpha, beta = min(alpha, 1.0), min(beta, 1.0)
    return alpha / (alpha + beta), clamped


_SHAPES = st.floats(1.0, 10.0, exclude_min=True)
_SCALES = st.floats(-3.0, 4.0).map(lambda e: 10.0**e)


@given(_SHAPES, _SCALES, _SHAPES, _SCALES, st.floats(3.0, 9.0).map(lambda e: 10.0**e))
@settings(max_examples=200, deadline=None)
def test_symbol_error_rate_equals_two_step_formula(off_shape, off_scale, on_shape, on_scale,
                                                   rate):
    # at these rates many runs are shorter than a symbol, so the clamp is hit
    stats = _stats(off_shape, off_scale, on_shape, on_scale)
    expected, clamped = _two_step_p_s(stats, rate)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        p_s = symbol_error_rate(stats, rate)
    assert p_s == expected
    messages = [str(w.message) for w in caught]
    assert len(messages) == clamped
    assert all(m.startswith("transition quotient exceeds 1") for m in messages)


def test_binomial_tail_against_exact_rationals():
    for n, t, p in [(7, 2, 0.1), (7, 2, 0.05), (15, 4, 0.2), (63, 9, 0.07), (127, 16, 0.0554)]:
        assert binomial_tail(n, t, p) == pytest.approx(_exact_tail(n, t, p), rel=1e-12)


def _lgamma_tail(n, t, p):
    """binomial_tail for 0 < p < 1, each log-factorial a math.lgamma call."""
    if t >= n:
        return 0.0
    lp, lq = math.log(p), math.log1p(-p)
    terms = [
        math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * lp + (n - i) * lq
        for i in range(t + 1, n + 1)
    ]
    hi = max(terms)
    return min(1.0, math.exp(hi) * math.fsum(math.exp(v - hi) for v in terms))


def test_binomial_tail_equals_lgamma_oracle():
    # the tabled log-factorials give the oracle's floats bit for bit, at
    # every admissible n (and a few others) and every t
    grid = np.concatenate([np.geomspace(1e-12, 0.5, 25), 1.0 - np.geomspace(1e-9, 0.45, 10),
                           [0.0554, 0.1, 1 / 3]])
    for n in ADMISSIBLE_N + (1, 2, 10, 200):
        for t in range(n + 1):
            for p in grid.tolist():
                assert binomial_tail(n, t, p) == _lgamma_tail(n, t, p), (n, t, p)


def test_binomial_tail_against_scipy():
    from scipy.stats import binom

    for n, t, p in [(31, 7, 0.03), (127, 25, 0.11), (127, 60, 0.4)]:
        assert binomial_tail(n, t, p) == pytest.approx(binom.sf(t, n, p), rel=1e-10)


def test_binomial_tail_edge_cases():
    assert binomial_tail(7, 2, 0.0) == 0.0
    assert binomial_tail(7, 2, 1.0) == 1.0
    assert binomial_tail(7, 7, 1.0) == 0.0
    assert binomial_tail(7, 7, 0.3) == 0.0
    with pytest.raises(ParameterError):
        binomial_tail(7, 2, 1.5)


def test_binomial_tail_stable_for_tiny_probabilities():
    # far tail that would underflow term-by-term in naive arithmetic
    v = binomial_tail(127, 40, 1e-6)
    assert 0.0 < v < 1e-200 or v == pytest.approx(_exact_tail(127, 40, 1e-6), rel=1e-6)


def test_post_decode_error_rate_known_value():
    # RS(7,3): t=2, p_s=0.1; exact tail is 256915/10^7
    expected = float(Fraction(256915, 10**7))
    assert post_decode_error_rate(RsCode(7, 3), 0.1) == pytest.approx(expected, abs=1e-9)


@given(st.floats(min_value=0.001, max_value=0.999))
@settings(max_examples=40)
def test_post_decode_error_rate_monotone_in_parity(p_s):
    rates = [post_decode_error_rate(RsCode(15, k), p_s) for k in (13, 11, 9, 7, 5, 3, 1)]
    assert all(b <= a + 1e-15 for a, b in zip(rates, rates[1:]))


def test_gate_durations_cover_horizon():
    rng = np.random.default_rng(0)
    stats = _stats(1.5, 2.0, 1.5, 20.0)
    for total in (10.0, 500.0):
        g = gate_durations(rng, stats, total)
        assert g.sum() >= total
        assert g[:-1].sum() < total  # only the last run overshoots
    assert gate_durations(rng, stats, 0.0).size == 0


def test_gate_runs_follow_their_pareto_laws():
    # on runs are even-indexed and off runs odd; all but the last are whole draws
    stats = _stats(2.5, 1.0, 1.8, 4.0)
    durations = gate_durations(np.random.default_rng(0), stats, 1e6)[:-1]
    for runs, law in ((durations[0::2], stats.on), (durations[1::2], stats.off)):
        assert runs.size > 80_000 and float(runs.min()) >= law.scale_min
        for q in (1.25, 2.0, 5.0, 8.0, 20.0):
            assert float(np.mean(runs <= q)) == pytest.approx(pareto_cdf(q, law), abs=0.005)


def test_gate_durations_caps_run_count(monkeypatch):
    from rscatter import channel

    stats = _stats(1.5, 2.0, 1.5, 20.0)
    full = gate_durations(np.random.default_rng(1), stats, 500.0)
    # a gate of exactly the cap is drawn unchanged; one run more raises
    monkeypatch.setattr(channel, "MAX_GATE_RUNS", full.size)
    assert np.array_equal(gate_durations(np.random.default_rng(1), stats, 500.0), full)
    monkeypatch.setattr(channel, "MAX_GATE_RUNS", full.size - 1)
    with pytest.raises(ParameterError):
        gate_durations(np.random.default_rng(1), stats, 500.0)


class _LastUniform:
    """A generator whose every uniform is the largest, 1 - 2**-53."""

    def random(self, size=None):
        u = 1.0 - 2.0**-53
        return u if size is None else np.full(size, u)


@pytest.mark.parametrize("state", ["on", "off"])
def test_draw_gates_shape_bound(state):
    # at the least admissible shape the longest run of either state is the
    # largest finite double; one double below it, the shape is rejected
    # before any draw, whatever the uniforms
    from rscatter import channel

    def stats(shape):
        return _stats(shape, 1.0, 2.0, 1.0) if state == "off" else _stats(2.0, 1.0, shape, 1.0)

    # the on run of shape 2 is 2**26.5 us, so a 1e9 us gate reaches the off state
    durations = array("d")
    channel.draw_gates(_LastUniform(), stats(channel.MIN_GATE_SHAPE), 1e9, 1, array("d"),
                       array("d"), durations)
    assert max(durations) == pytest.approx(1.7976931348623e308, rel=1e-12)
    assert durations[0 if state == "on" else 1] == max(durations)
    with pytest.raises(ParameterError, match=f"{state} shape must be >= 53/1024"):
        channel.draw_gates(_LastUniform(), stats(math.nextafter(channel.MIN_GATE_SHAPE, 0)),
                           1e9, 1, array("d"), array("d"))


def _reference_erasure_mask(durations, rate, n_symbols):
    """One gate's mask in the per-gate np.interp form: the off time before
    each symbol edge, interpolated over the run bounds, rises by more than
    period * 1e-9 over an erased symbol."""
    durations = np.asarray(durations, dtype=float)
    period_us = 1e6 / rate
    total = float(durations.sum()) if durations.size else 0.0
    if n_symbols * period_us > total + 1e-9:
        raise ParameterError("gate shorter than transmission")
    edges = np.arange(n_symbols + 1) * period_us
    bounds = np.concatenate([[0.0], np.cumsum(durations)])
    is_off = np.arange(durations.size) % 2 == 1
    off_cum = np.concatenate([[0.0], np.cumsum(np.where(is_off, durations, 0.0))])
    return np.diff(np.interp(edges, bounds, off_cum)) > period_us * 1e-9


def _markov_mask(rng, alpha, beta, n_symbols):
    """Simulate the per-symbol two-state chain that leaves on with
    probability alpha and off with beta, from its stationary distribution;
    True marks a symbol sent in the off state.

    Sojourn times in each state are geometric, so the chain is generated
    run-by-run; the first run is a fresh geometric draw by memorylessness.
    """
    if n_symbols <= 0:
        return np.empty(0, dtype=bool)
    p_off = alpha / (alpha + beta) if (alpha + beta) > 0 else 0.0
    state_off = bool(rng.random() < p_off)
    flags = []
    covered = 0
    while covered < n_symbols:
        p_leave = beta if state_off else alpha
        if p_leave <= 0.0:
            run = n_symbols - covered
        else:
            run = int(rng.geometric(p_leave))
        run = min(run, n_symbols - covered)
        flags.append(np.full(run, state_off))
        covered += run
        state_off = not state_off
    return np.concatenate(flags)


def _mask(gates, rate, n_symbols):
    return erasure_mask_from_gate(*run_bounds(gates), rate, n_symbols)


def test_erasure_mask_from_gate_oracle():
    # on 3 us, off 2 us, on 5 us at 1 symbol/us: symbols 0-2 clean,
    # 3-4 erased, 5-9 clean (symbol 4 ends exactly at the off/on edge)
    mask = _mask([np.array([3.0, 2.0, 5.0])], 1e6, 10)
    assert mask.tolist() == [[False, False, False, True, True, False, False, False, False, False]]


def test_erasure_mask_partial_overlap_counts_as_lost():
    # off run of 0.5 us inside symbol 1: the symbol is partially dark -> lost
    mask = _mask([np.array([1.25, 0.5, 10.0])], 1e6, 5)
    assert mask.tolist() == [[False, True, False, False, False]]


def test_erasure_mask_requires_cover():
    with pytest.raises(ParameterError):
        _mask([np.array([3.0])], 1e6, 10)
    for rate in (0.0, -1.0, inf, nan):
        with pytest.raises(ParameterError, match="rate"):
            _mask([np.array([10.0, 5.0, 10.0])], rate, 8)


# run lengths in bit-times: much shorter than a bit, about a bit, and
# spanning hundreds of bits
_RUN_BITS = {"short": (0.003, 0.3), "mid": (0.3, 30.0), "long": (100.0, 400.0)}


def _oracle_gate(rng, kind, period, end):
    """On-first durations covering end: log-uniform runs of one _RUN_BITS
    kind, or (kind "exact") whole and half multiples of the period."""
    durations = np.empty(0)
    while durations.sum() < end:
        if kind == "exact":
            more = rng.integers(1, 40, 64) * (period / 2)
        else:
            lo, hi = _RUN_BITS[kind]
            more = period * lo * (hi / lo) ** rng.random(256)
        durations = np.concatenate([durations, more])
    return durations[: np.searchsorted(np.cumsum(durations), end) + 1]


@given(
    st.one_of(st.floats(4.0, 8.0).map(lambda e: 10.0**e),
              st.integers(-6, 6).map(lambda k: 1e6 / 2.0**k)),
    st.integers(1, 400),
    st.lists(st.tuples(st.sampled_from(["short", "mid", "long", "exact"]), st.booleans()),
             min_size=1, max_size=40),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_erasure_mask_block_matches_per_gate_interp(rate, n_symbols, kinds, seed):
    # rates with a power-of-two period put whole-multiple bounds exactly on
    # symbol edges; a tight gate ends up to 5e-10 us before the last edge
    rng = np.random.default_rng(seed)
    period = 1e6 / rate
    end = n_symbols * period
    gates = []
    for kind, tight in kinds:
        durations = _oracle_gate(rng, kind, period, end)
        before = durations[:-1].sum()
        if tight and before < end - 5e-10:
            durations[-1] = end - rng.uniform(0.0, 5e-10) - before
        gates.append(durations)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        block = _mask(gates, rate, n_symbols)
    assert block.shape == (len(gates), n_symbols)
    for row, durations in zip(block, gates):
        assert np.array_equal(row, _reference_erasure_mask(durations, rate, n_symbols))


def test_markov_mask_statistics():
    alpha, beta = 0.02, 0.2
    rng = np.random.default_rng(1)
    erased = np.concatenate([_markov_mask(rng, alpha, beta, 5000) for _ in range(40)])
    target = alpha / (alpha + beta)
    sd = np.sqrt(target * (1 - target) / erased.size)
    # correlated samples: allow a wide multiple of the i.i.d. deviation
    assert abs(float(erased.mean()) - target) < 12 * sd


def test_markov_mask_degenerate_chains():
    rng = np.random.default_rng(2)
    # alpha = 0: the chain never leaves on
    assert not _markov_mask(rng, 0.0, 1.0, 500).any()
    assert len(_markov_mask(rng, 0.0, 1.0, 0)) == 0


def test_predicted_error_rate_matches_markov_mask_overflow():
    # fraction of codeword masks with more than t erased symbols vs the
    # binomial tail at the stationary rate
    code = RsCode(63, 45)
    # alpha + beta = 1 makes successive symbols independent, so the
    # binomial tail is exact; burstier chains overshoot it (checked below)
    alpha, beta = 0.08, 0.92
    predicted = post_decode_error_rate(code, alpha / (alpha + beta))
    rng = np.random.default_rng(3)
    trials = 20_000
    hits = sum(
        int(_markov_mask(rng, alpha, beta, code.n).sum() > code.t)
        for _ in range(trials)
    )
    measured = hits / trials
    sd = np.sqrt(predicted * (1 - predicted) / trials)
    assert abs(measured - predicted) < 3 * sd

    # a burstier chain at the same p_s = 0.1
    alpha, beta = 0.05, 0.45
    hits = sum(
        int(_markov_mask(rng, alpha, beta, code.n).sum() > code.t)
        for _ in range(trials)
    )
    same_ps_tail = post_decode_error_rate(code, alpha / (alpha + beta))
    assert hits / trials > same_ps_tail  # bursts concentrate failures
