"""The three benchmark workloads: inputs from a seed, one call, output checks.

Each workload is a closed loop over one public entry point of
`rscatter.harness`: the benchmark makes the next call only after the
previous one returned.  A call always runs the same config, so its report
must be byte-identical every time; `Workload.report_bytes` gives the
canonical form that is hashed and compared.
"""

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable

from rscatter import harness

# Frame and trial counts per call, sized so that one call takes about half a
# second on a 2-core Xeon and a run holds dozens of calls.
SYMBOL_FRAMES = 500
SAMPLE_FRAMES = 100
PARITY_TRIALS = 50
PARITY_N = 127

# 256-byte excitation packets at 6 Mb/s: mean on run 341.33 us.
ON_SHAPE = 1.15
ON_MEAN_US = 341.33


def _scale_for_mean(shape, mean_us):
    """Pareto scale whose mean is mean_us at the given shape."""
    return mean_us * (shape - 1.0) / shape


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one unit of work is: a simulated frame or a codeword trial
    build: Callable  # seed -> ExperimentConfig
    # config -> result (the timed call); looks the entry point up in
    # `harness` at call time, so the tracer's wrapper is the one called
    call: Callable
    work: Callable  # config -> units of work done by one call
    check: Callable  # (config, result) -> list of problems, run once untimed

    @staticmethod
    def report_bytes(result):
        """Canonical bytes of a call's output (a LinkReport or sweep rows)."""
        if isinstance(result, harness.LinkReport):
            result = result.to_dict()
        return json.dumps(result, sort_keys=True).encode()


def _check_link(cfg, rep):
    problems = []
    log = rep.frame_log
    if rep.frames != cfg.frames or [f["frame"] for f in log] != list(range(cfg.frames)):
        problems.append(f"frame log does not cover frames 0..{cfg.frames - 1}")
        return problems
    coded = sum(f["coded_error"] for f in log) / cfg.frames
    base = sum(f["baseline_error"] for f in log) / cfg.frames
    if rep.fer != coded or rep.fer_baseline != base:
        problems.append("reported FER differs from the frame log")
    for key in ("ber", "fer", "ber_baseline", "fer_baseline"):
        if not 0.0 <= getattr(rep, key) <= 1.0:
            problems.append(f"{key}={getattr(rep, key)} outside [0, 1]")
    if not rep.fer < rep.fer_baseline:
        problems.append(f"coded FER {rep.fer} not below baseline FER {rep.fer_baseline}")
    return problems


def _check_sample(cfg, rep):
    problems = _check_link(cfg, rep)
    # at zero noise, and with every off run in this regime longer than the
    # erasure margin, the symbol-level model must reproduce every frame
    sym = harness.run(dataclasses.replace(cfg, mode="symbol"))
    if sym.frame_log != rep.frame_log:
        differ = sum(a != b for a, b in zip(sym.frame_log, rep.frame_log))
        problems.append(f"symbol-mode frame log differs from sample mode in {differ} frames")
    return problems


def _parity_ks():
    return list(range(PARITY_N - 2, 0, -2))


def _check_parity(cfg, rows):
    problems = []
    if [r["parameter"] for r in rows] != _parity_ks():
        return [f"sweep rows are not k = {PARITY_N - 2}, {PARITY_N - 4}, ..., 1"]
    for r in rows:
        for key in ("ber_baseline", "ber_coded", "fer_baseline", "fer_coded"):
            if not 0.0 <= r[key] <= 1.0:
                problems.append(f"k={r['parameter']}: {key}={r[key]} outside [0, 1]")
    if not rows[0]["fer_coded"] > rows[-1]["fer_coded"]:
        problems.append("coded FER does not fall from t=1 to t=63")
    return problems


def _symbol(seed):
    off_shape = 1.001
    return harness.ExperimentConfig(
        off_shape=off_shape, off_scale_min=_scale_for_mean(off_shape, 20.0),
        on_shape=ON_SHAPE, on_scale_min=_scale_for_mean(ON_SHAPE, ON_MEAN_US),
        rate=1e6, payload_bytes=108, code=None,
        frames=SYMBOL_FRAMES, seed=seed, mode="symbol",
    )


def _sample(seed):
    off_shape = 1.05
    return harness.ExperimentConfig(
        off_shape=off_shape, off_scale_min=_scale_for_mean(off_shape, 40.0),
        on_shape=ON_SHAPE, on_scale_min=_scale_for_mean(ON_SHAPE, ON_MEAN_US),
        code=(63, 29), payload_bytes=64, erasure_margin_bits=8, noise_sigma=0.0,
        frames=SAMPLE_FRAMES, seed=seed, mode="sample",
    )


def _parity(seed):
    return harness.ExperimentConfig(
        off_shape=3.0, off_scale_min=4.0 / 3.0, on_shape=1.0, on_scale_min=30.0,
        frames=PARITY_TRIALS, seed=seed,
    )


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline coded-vs-uncoded regime: scalar RS encode, CRC
        # and erasure perception; no decoder, no waveforms.
        Workload(
            name="symbol",
            unit="frame",
            build=_symbol,
            call=lambda cfg: harness.run(cfg),
            work=lambda cfg: cfg.frames,
            check=_check_link,
        ),
        # The only workload on the waveform chain (modulate, gate,
        # demodulate) and the errors-and-erasures decoder.
        Workload(
            name="sample",
            unit="frame",
            build=_sample,
            call=lambda cfg: harness.run(cfg),
            work=lambda cfg: cfg.frames,
            check=_check_sample,
        ),
        # The batch encoder and one erasure flagging per trial row, by another
        # path than `symbol`; no decoder, no CRC.
        Workload(
            name="parity",
            unit="trial",
            build=_parity,
            call=lambda cfg: harness.sweep_parity(cfg, n=PARITY_N),
            work=lambda cfg: cfg.frames * len(_parity_ks()),
            check=_check_parity,
        ),
    )
}
