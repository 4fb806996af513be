"""Oracles for the harness's block draw: the per-gate draw loop, one
scalar rng.random() call per run, that channel.draw_gates replaced; the
per-frame draw loop the block draw equals; and the run bounds of duration
arrays built by running sums."""

import math
from itertools import accumulate, chain

import numpy as np

from rscatter import channel
from rscatter.errors import ParameterError


def draw_gate_loop(rng, stats, total_us):
    """One on-first gate covering total_us drawn run by run, each run one
    rng.random() call u and scale * (1 - u) ** (-1 / shape); returns its
    durations.  A gate that needs more than channel.MAX_GATE_RUNS runs
    raises ParameterError before it draws the run past the cap."""
    on_scale, on_exp = stats.on.scale_min, -1.0 / stats.on.shape
    off_scale, off_exp = stats.off.scale_min, -1.0 / stats.off.shape
    random = rng.random
    durations = []
    covered = 0.0
    while covered < total_us:
        if len(durations) == channel.MAX_GATE_RUNS:
            raise ParameterError(f"gate needs more than {channel.MAX_GATE_RUNS} runs")
        d = on_scale * (1.0 - random()) ** on_exp
        durations.append(d)
        covered += d
        if not covered < total_us:
            break
        if len(durations) == channel.MAX_GATE_RUNS:
            raise ParameterError(f"gate needs more than {channel.MAX_GATE_RUNS} runs")
        d = off_scale * (1.0 - random()) ** off_exp
        durations.append(d)
        covered += d
    return np.array(durations)


def draw_frames_loop(gate_rng, payload_rng, stats, total_us, count, payload_bytes):
    """count frames' payloads and gates drawn frame by frame: a payload of
    the first payload_bytes bytes, low byte first, of ceil(payload_bytes /
    8) raw words of payload_rng, and a gate by draw_gate_loop from
    gate_rng.  Returns a (count, payload_bytes) uint8 array and the
    duration arrays."""
    words_n = -(-payload_bytes // 8)
    payloads = np.empty((count, payload_bytes), dtype=np.uint8)
    gates = []
    for i in range(count):
        words = payload_rng.bit_generator.random_raw(words_n)
        data = b"".join(int(w).to_bytes(8, "little") for w in words)
        payloads[i] = np.frombuffer(data[:payload_bytes], dtype=np.uint8)
        gates.append(draw_gate_loop(gate_rng, stats, total_us))
    return payloads, gates


def _gate_bounds(durations):
    d = durations.tolist()
    if len(d) % 2:
        d.append(0.0)
    return chain(accumulate(d, initial=0.0), (math.inf,))


def _gate_off(durations):
    d = durations[1::2].tolist()
    if len(durations) % 2:
        d.append(0.0)
    return accumulate(d, initial=0.0)


def run_bounds(gates):
    """Flat run bounds and off time of a block of on-first duration arrays,
    in the layout channel.erasure_mask_from_gate reads.

    A gate of R runs takes R' + 2 bounds, R' being R rounded up to even by
    an empty off run: 0, d0, d0 + d1, ..., then inf, summed in run order.
    Its off times are the off time before each pair of bounds, from 0.
    """
    gates = [np.asarray(g, dtype=float) for g in gates]
    bounds = np.fromiter(chain.from_iterable(map(_gate_bounds, gates)), float)
    off = np.fromiter(chain.from_iterable(map(_gate_off, gates)), float)
    return bounds, off
