"""Oracles for the harness's block draw: the per-frame draw loop it
replays, and the run bounds of duration arrays built by running sums."""

import math
from itertools import accumulate, chain

import numpy as np

from rscatter import channel


def draw_frames_loop(rng, stats, total_us, count, payload_bytes):
    """count frames' payloads and gates drawn frame by frame, a frame's
    payload first: rng.integers bytes, then channel.gate_durations.
    Returns a (count, payload_bytes) uint8 array and the duration arrays."""
    payloads = np.empty((count, payload_bytes), dtype=np.uint8)
    gates = []
    for i in range(count):
        if payload_bytes:
            payloads[i] = rng.integers(0, 256, size=payload_bytes, dtype=np.uint8)
        gates.append(channel.gate_durations(rng, stats, total_us))
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
