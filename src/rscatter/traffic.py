"""Pareto modeling of WiFi on/off durations.

Durations are in microseconds throughout.  The same MLE routine fits both
states: scale_min is the sample minimum (the likelihood is monotonically
increasing in it) and shape = N / (sum log x_i - N log scale_min).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTraceError,
    InfiniteMeanError,
    ParameterError,
    TraceParseError,
)


@dataclass(frozen=True)
class ParetoParams:
    """Shape and scale of one Pareto law (off: lambda/tau_m, on: mu/delta_m)."""

    shape: float
    scale_min: float

    def __post_init__(self):
        if not (math.isfinite(self.shape) and self.shape > 0):
            raise ParameterError(f"shape must be finite and positive, got {self.shape}")
        if not (math.isfinite(self.scale_min) and self.scale_min > 0):
            raise ParameterError(f"scale_min must be finite and positive, got {self.scale_min}")


@dataclass(frozen=True)
class TrafficStats:
    """Fitted Pareto parameters for the off and on states."""

    off: ParetoParams
    on: ParetoParams


@dataclass
class DurationTrace:
    """Measured alternating on/off durations in microseconds."""

    off_durations: np.ndarray
    on_durations: np.ndarray

    def __post_init__(self):
        self.off_durations = np.asarray(self.off_durations, dtype=float)
        self.on_durations = np.asarray(self.on_durations, dtype=float)
        durations = np.concatenate([self.off_durations, self.on_durations])
        if not np.all(np.isfinite(durations) & (durations > 0)):
            raise ParameterError("all durations must be finite and positive")


def pareto_mean(p):
    """Mean shape*scale/(shape-1); diverges for shape <= 1."""
    if p.shape <= 1.0:
        raise InfiniteMeanError(
            f"Pareto mean is infinite for shape={p.shape} (need shape > 1)"
        )
    return p.shape * p.scale_min / (p.shape - 1.0)


def mle_fit(samples):
    """Maximum-likelihood Pareto fit of one duration sequence."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ParameterError(f"need at least 2 samples to fit, got {x.size}")
    if np.any(x <= 0):
        raise ParameterError("all samples must be positive")
    scale = float(x.min())
    denom = float(np.sum(np.log(x))) - x.size * math.log(scale)
    if denom <= 0:
        raise DegenerateTraceError("all samples equal; shape estimate is undefined")
    return ParetoParams(shape=x.size / denom, scale_min=scale)


def fit_stats(trace):
    """Fit both states of a trace; Eqs. for on and off are identical in form."""
    return TrafficStats(off=mle_fit(trace.off_durations), on=mle_fit(trace.on_durations))


def save_trace(trace, path):
    """Write the trace CSV: one `state,duration_us` record per run.

    Runs are interleaved in temporal order starting with the on state;
    leftover entries of the longer sequence follow at the end.
    """
    on = list(trace.on_durations)
    off = list(trace.off_durations)
    with open(path, "w") as fh:
        fh.write("# state,duration_us\n")
        for i in range(max(len(on), len(off))):
            if i < len(on):
                fh.write(f"on,{float(on[i])!r}\n")
            if i < len(off):
                fh.write(f"off,{float(off[i])!r}\n")


def load_trace(path):
    """Parse a trace CSV; rejects nonpositive or non-finite durations and
    malformed lines, naming the file and line."""
    on = []
    off = []
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceParseError(path, lineno, f"expected 'state,duration_us', got {line!r}")
        state, dur_s = parts[0].strip().lower(), parts[1].strip()
        if state not in ("on", "off"):
            raise TraceParseError(path, lineno, f"state must be 'on' or 'off', got {state!r}")
        try:
            dur = float(dur_s)
        except ValueError:
            raise TraceParseError(path, lineno, f"bad duration {dur_s!r}") from None
        if not (math.isfinite(dur) and dur > 0):
            raise TraceParseError(path, lineno, f"duration must be finite and positive, got {dur}")
        (on if state == "on" else off).append(dur)
    return DurationTrace(off_durations=np.array(off), on_durations=np.array(on))


def text_lines(path):
    """The lines of a text file, numbered from 1; a file that does not
    decode as text raises ParameterError naming it."""
    with open(path) as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path}: not a text file: {exc}") from None
