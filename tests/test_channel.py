"""Markov burst channel, reliability arithmetic, erasure masks."""

import warnings
from fractions import Fraction
from math import comb, inf, nan

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rscatter.channel import (
    MarkovChannel,
    binomial_tail,
    erasure_mask_from_gate,
    erasure_mask_markov,
    gate_durations,
    markov_from_stats,
    post_decode_error_rate,
    symbol_error_rate,
)
from rscatter.errors import InfeasibleError, ParameterError
from rscatter.rscodec import RsCode
from rscatter.traffic import ParetoParams, TrafficStats


def _stats(off_shape, off_scale, on_shape, on_scale):
    return TrafficStats(
        off=ParetoParams(off_shape, off_scale),
        on=ParetoParams(on_shape, on_scale),
    )


def _exact_tail(n, t, p):
    p = Fraction(p).limit_denominator(10**9)
    q = 1 - p
    return float(sum(comb(n, i) * p**i * q ** (n - i) for i in range(t + 1, n + 1)))


def test_markov_channel_validation_and_matrix():
    ch = MarkovChannel(alpha=0.2, beta=0.5, rate=1e6)
    q = ch.transition_matrix
    assert np.allclose(q, [[0.8, 0.2], [0.5, 0.5]])
    assert np.allclose(q.sum(axis=1), 1.0)
    with pytest.raises(ParameterError):
        MarkovChannel(alpha=1.2, beta=0.5, rate=1e6)
    for rate in (0.0, -1.0, inf, nan):
        with pytest.raises(ParameterError, match="rate"):
            MarkovChannel(alpha=0.2, beta=0.5, rate=rate)
        with pytest.raises(ParameterError, match="rate"):
            markov_from_stats(_stats(3.0, 10.0, 2.0, 100.0), rate=rate)


def test_markov_from_stats_transition_quotients():
    # mean_on = 2*100/(2-1) = 200 us, mean_off = 3*10/(3-1) = 15 us;
    # at 1 symbol/us: alpha = 1/200, beta = 1/15
    stats = _stats(3.0, 10.0, 2.0, 100.0)
    ch = markov_from_stats(stats, rate=1e6)
    assert ch.alpha == pytest.approx(1 / 200, rel=1e-12)
    assert ch.beta == pytest.approx(1 / 15, rel=1e-12)


def test_markov_from_stats_clamps_with_warning():
    # mean_off = 1.5 * 0.2 / 0.5 = 0.6 us < one symbol period
    stats = _stats(1.5, 0.2, 2.0, 100.0)
    with pytest.warns(UserWarning):
        ch = markov_from_stats(stats, rate=1e6)
    assert ch.beta == 1.0


def test_markov_from_stats_infinite_mean_is_infeasible():
    stats = _stats(0.9, 10.0, 2.0, 100.0)
    with pytest.raises(InfeasibleError):
        markov_from_stats(stats, rate=1e6)


def test_stationary_error_rate():
    ch = MarkovChannel(alpha=0.1, beta=0.4, rate=1e6)
    assert symbol_error_rate(ch) == pytest.approx(0.2, rel=1e-12)
    # stationary vector of the transition matrix agrees
    pi = np.array([ch.beta, ch.alpha]) / (ch.alpha + ch.beta)
    assert np.allclose(pi @ ch.transition_matrix, pi)
    with pytest.raises(ParameterError):
        symbol_error_rate(MarkovChannel(alpha=0.0, beta=0.0, rate=1e6))


def test_binomial_tail_against_exact_rationals():
    for n, t, p in [(7, 2, 0.1), (7, 2, 0.05), (15, 4, 0.2), (63, 9, 0.07), (127, 16, 0.0554)]:
        assert binomial_tail(n, t, p) == pytest.approx(_exact_tail(n, t, p), rel=1e-12)


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


def test_erasure_mask_from_gate_oracle():
    # on 3 us, off 2 us, on 5 us at 1 symbol/us: symbols 0-2 clean,
    # 3-4 erased, 5-9 clean (symbol 4 ends exactly at the off/on edge)
    mask = erasure_mask_from_gate(np.array([3.0, 2.0, 5.0]), 1e6, 10)
    assert mask.tolist() == [False, False, False, True, True, False, False, False, False, False]


def test_erasure_mask_partial_overlap_counts_as_lost():
    # off run of 0.5 us inside symbol 1: the symbol is partially dark -> lost
    mask = erasure_mask_from_gate(np.array([1.25, 0.5, 10.0]), 1e6, 5)
    assert mask.tolist() == [False, True, False, False, False]


def test_erasure_mask_requires_cover():
    with pytest.raises(ParameterError):
        erasure_mask_from_gate(np.array([3.0]), 1e6, 10)
    with pytest.raises(ParameterError):
        erasure_mask_from_gate(np.array([3.0, 2.0]), 0.0, 1)


def test_markov_mask_statistics():
    ch = MarkovChannel(alpha=0.02, beta=0.2, rate=1e6)
    rng = np.random.default_rng(1)
    erased = np.concatenate([erasure_mask_markov(rng, ch, 5000) for _ in range(40)])
    target = symbol_error_rate(ch)
    sd = np.sqrt(target * (1 - target) / erased.size)
    # correlated samples: allow a wide multiple of the i.i.d. deviation
    assert abs(float(erased.mean()) - target) < 12 * sd


def test_markov_mask_degenerate_chains():
    rng = np.random.default_rng(2)
    always_on = MarkovChannel(alpha=0.0, beta=1.0, rate=1e6)
    assert not erasure_mask_markov(rng, always_on, 500).any()
    assert len(erasure_mask_markov(rng, always_on, 0)) == 0


def test_predicted_error_rate_matches_markov_mask_overflow():
    # fraction of codeword masks with more than t erased symbols vs the
    # binomial tail at the stationary rate
    code = RsCode(63, 45)
    # alpha + beta = 1 makes successive symbols independent, so the
    # binomial tail is exact; burstier chains overshoot it (checked below)
    ch = MarkovChannel(alpha=0.08, beta=0.92, rate=1e6)
    p_s = symbol_error_rate(ch)
    predicted = post_decode_error_rate(code, p_s)
    rng = np.random.default_rng(3)
    trials = 20_000
    hits = sum(
        int(erasure_mask_markov(rng, ch, code.n).sum() > code.t)
        for _ in range(trials)
    )
    measured = hits / trials
    sd = np.sqrt(predicted * (1 - predicted) / trials)
    assert abs(measured - predicted) < 3 * sd

    bursty = MarkovChannel(alpha=0.05, beta=0.45, rate=1e6)
    hits = sum(
        int(erasure_mask_markov(rng, bursty, code.n).sum() > code.t)
        for _ in range(trials)
    )
    same_ps_tail = post_decode_error_rate(code, symbol_error_rate(bursty))
    assert hits / trials > same_ps_tail  # bursts concentrate failures
