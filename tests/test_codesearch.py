"""Rate-maximal code selection: heuristic vs brute force, edge cases."""

import numpy as np
import pytest
from gf_oracle import brute_force_search

from rscatter import codesearch
from rscatter.channel import binomial_tail, symbol_error_rate
from rscatter.codesearch import DEFAULT_PE_THRESHOLD, optimize_for_ps
from rscatter.errors import InfeasibleError, ParameterError
from rscatter.traffic import ParetoParams, TrafficStats

# (p_s, threshold) pairs from a clean channel (p_s = 0, every code feasible)
# to a dead one (p_s = 1, none feasible), each at a strict, the default and a
# loose threshold
SEARCH_GRID = [(p_s, threshold) for p_s in (0.0, 1e-9, 1e-3, 0.0554, 0.2, 1.0)
               for threshold in (1e-6, 1e-3, 0.5)]


def test_default_threshold():
    assert DEFAULT_PE_THRESHOLD == 1e-3


def test_vanishing_error_rate_selects_highest_rate_code():
    out = optimize_for_ps(0.0)
    assert (out.code.n, out.code.k) == (127, 125)
    out = optimize_for_ps(1e-9)
    assert (out.code.n, out.code.k) == (127, 125)


def test_selected_code_meets_threshold_and_is_rate_maximal():
    out = optimize_for_ps(0.0554)
    assert out.predicted_pe <= 1e-3
    assert out.rate == out.code.k / out.code.n
    for n, k, pe in out.feasible_alternatives:
        assert pe <= 1e-3
        assert k / n <= out.rate + 1e-12
    # a code whose p_e equals the threshold meets it
    again = optimize_for_ps(0.0554, out.predicted_pe)
    assert (again.code.n, again.code.k) == (out.code.n, out.code.k)


def test_equal_rates_go_to_the_longer_code(monkeypatch):
    # only RS(7,5) and RS(63,45) are feasible, both of rate 5/7
    feasible = {(7, 5), (63, 45)}
    monkeypatch.setattr(codesearch, "post_decode_error_rate",
                        lambda code, p_s: 0.0 if (code.n, code.k) in feasible else 1.0)
    out = optimize_for_ps(0.1)
    assert (out.code.n, out.code.k, out.rate) == (63, 45, 5 / 7)
    assert out.feasible_alternatives == [(7, 5, 0.0), (63, 45, 0.0)]


def test_heuristic_equals_brute_force_over_random_channels():
    rng = np.random.default_rng(1234)
    cases = list(SEARCH_GRID)
    for _ in range(20):
        alpha = float(rng.uniform(0.001, 0.5))
        beta = float(rng.uniform(0.05, 1.0))
        threshold = float(10 ** rng.uniform(-5, -1))
        # p_s is the stationary off fraction of a chain leaving on at alpha
        # and off at beta per symbol
        cases.append((alpha / (alpha + beta), threshold))
    for p_s, threshold in cases:
        best, feasible, least_pe = brute_force_search(p_s, threshold)
        if best is None:
            with pytest.raises(InfeasibleError) as err:
                optimize_for_ps(p_s, threshold)
            assert str(err.value).endswith(f"best achievable p_e was {least_pe:g}")
            continue
        out = optimize_for_ps(p_s, threshold)
        assert (out.code.n, out.code.k, out.predicted_pe) == best
        assert out.rate == best[1] / best[0]
        # the shortlist is each length's largest feasible k, n ascending
        shortlist = [max((s for s in feasible if s[0] == n), key=lambda s: s[1])
                     for n in sorted({s[0] for s in feasible})]
        assert out.feasible_alternatives == shortlist


def test_per_length_winner_is_largest_feasible_k():
    out = optimize_for_ps(0.08)
    for n, k, _ in out.feasible_alternatives:
        if k + 2 <= n - 2:
            assert binomial_tail(n, (n - k - 2) // 2, 0.08) > 1e-3


def test_infeasible_reports_best_achievable():
    with pytest.raises(InfeasibleError) as err:
        optimize_for_ps(0.9, 1e-6)
    assert "best achievable" in str(err.value)


def test_threshold_validation():
    with pytest.raises(ParameterError):
        optimize_for_ps(0.1, 0.0)
    with pytest.raises(ParameterError):
        optimize_for_ps(0.1, 1.5)
    with pytest.raises(ParameterError):
        optimize_for_ps(-0.1)


def test_optimize_code_from_traffic_stats():
    # the two calls from traffic statistics to a code, as the CLI, the
    # harness and the choose_code demo make them: mean_off 20 us, mean_on
    # 341.33 us at 1 symbol/us -> p_s ~ 0.0554
    stats = TrafficStats(
        off=ParetoParams(3.0, 20.0 * 2 / 3),
        on=ParetoParams(2.0, 341.33 / 2),
    )
    p_s = symbol_error_rate(stats, 1e6)
    assert p_s == pytest.approx(20.0 / 361.33, rel=1e-12)
    out = optimize_for_ps(p_s)
    direct = optimize_for_ps(20.0 / 361.33)
    assert (out.code.n, out.code.k) == (direct.code.n, direct.code.k) == (127, 95)


def test_selection_is_deterministic():
    a = optimize_for_ps(0.1049)
    b = optimize_for_ps(0.1049)
    assert (a.code.n, a.code.k, a.predicted_pe) == (b.code.n, b.code.k, b.predicted_pe)
