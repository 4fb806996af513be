"""Pareto on/off traffic modeling: the mean, MLE, trace I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from traffic_oracle import log_likelihood, pareto_cdf, pareto_sample
from rscatter.errors import (
    DegenerateTraceError,
    InfiniteMeanError,
    ParameterError,
    TraceParseError,
)
from rscatter.traffic import (
    DurationTrace,
    ParetoParams,
    TrafficStats,
    fit_stats,
    load_trace,
    mle_fit,
    pareto_mean,
    save_trace,
)


def test_params_validation():
    with pytest.raises(ParameterError):
        ParetoParams(0.0, 1.0)
    with pytest.raises(ParameterError):
        ParetoParams(1.5, -2.0)
    # an infinite off-run scale gave NaN gate edges that flagged no lost bit
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            ParetoParams(bad, 1.0)
        with pytest.raises(ParameterError):
            ParetoParams(1.5, bad)


def test_cdf_oracle_rises_from_zero_to_one():
    p = ParetoParams(shape=2.2, scale_min=1.5)
    xs = np.linspace(1.5, 40.0, 200)
    cdf = pareto_cdf(xs, p)
    assert cdf[0] == 0.0
    assert np.all(np.diff(cdf) > 0)
    assert pareto_cdf(1e9, p) == pytest.approx(1.0, abs=1e-12)


def test_mean_formula_and_divergence():
    assert pareto_mean(ParetoParams(3.0, 2.0)) == pytest.approx(3.0, abs=1e-15)
    assert pareto_mean(ParetoParams(2.0, 5.0)) == pytest.approx(10.0, abs=1e-15)
    with pytest.raises(InfiniteMeanError):
        pareto_mean(ParetoParams(1.0, 5.0))
    with pytest.raises(InfiniteMeanError):
        pareto_mean(ParetoParams(0.4, 5.0))


def test_mle_recovers_parameters():
    p = ParetoParams(shape=2.5, scale_min=20.0)
    rng = np.random.default_rng(1)
    x = pareto_sample(rng, p, size=100_000)
    fit = mle_fit(x)
    assert fit.scale_min == float(x.min())
    assert fit.shape == pytest.approx(2.5, rel=0.02)


def test_mle_closed_form_on_tiny_sample():
    x = [2.0, 4.0, 8.0]
    fit = mle_fit(x)
    assert fit.scale_min == 2.0
    expected = 3.0 / (math.log(2.0) + math.log(4.0) - 2.0 * math.log(2.0) + math.log(8.0) - math.log(2.0))
    assert fit.shape == pytest.approx(expected, rel=1e-12)


def test_mle_rejects_bad_samples():
    with pytest.raises(ParameterError):
        mle_fit([3.0])
    with pytest.raises(ParameterError):
        mle_fit([1.0, -2.0])
    with pytest.raises(DegenerateTraceError):
        mle_fit([5.0, 5.0, 5.0])


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_mle_maximizes_likelihood(seed):
    rng = np.random.default_rng(seed)
    p = ParetoParams(shape=float(rng.uniform(0.5, 4.0)), scale_min=float(rng.uniform(0.5, 50.0)))
    x = pareto_sample(rng, p, size=300)
    fit = mle_fit(x)
    best = log_likelihood(x, fit)
    for factor in (0.9, 1.1):
        worse = log_likelihood(x, ParetoParams(fit.shape * factor, fit.scale_min))
        assert best >= worse


def test_trace_roundtrip(tmp_path):
    trace = DurationTrace(off_durations=[1.5, 2.25], on_durations=[10.0, 11.5, 12.125])
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    back = load_trace(path)
    assert back.off_durations.tolist() == [1.5, 2.25]
    assert back.on_durations.tolist() == [10.0, 11.5, 12.125]


def test_duration_trace_requires_finite_positive_durations():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="finite and positive"):
            DurationTrace(off_durations=[1.5, bad], on_durations=[10.0])
        with pytest.raises(ParameterError, match="finite and positive"):
            DurationTrace(off_durations=[1.5], on_durations=[bad])


def test_load_trace_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# header\non,3.5\nbogus line\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(path)
    assert err.value.line_number == 3

    path.write_text("on,3.5\noff,-1.0\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(path)
    assert err.value.line_number == 2

    path.write_text("on,notanumber\n")
    with pytest.raises(TraceParseError) as err:
        load_trace(path)
    assert err.value.line_number == 1

    # a non-finite duration is named by its line, not by a later fit
    for text, line in [("on,3.5\noff,inf\n", 2), ("# header\non,3.5\noff,2.0\non,nan\n", 4)]:
        path.write_text(text)
        with pytest.raises(TraceParseError) as err:
            load_trace(path)
        assert err.value.line_number == line

    path.write_text("maybe,3.0\n")
    with pytest.raises(TraceParseError):
        load_trace(path)


def test_fit_stats_fits_both_states():
    rng = np.random.default_rng(3)
    trace = DurationTrace(
        off_durations=pareto_sample(rng, ParetoParams(1.4, 2.0), 20_000),
        on_durations=pareto_sample(rng, ParetoParams(2.1, 30.0), 20_000),
    )
    stats = fit_stats(trace)
    assert isinstance(stats, TrafficStats)
    assert stats.off.shape == pytest.approx(1.4, rel=0.05)
    assert stats.on.shape == pytest.approx(2.1, rel=0.05)
