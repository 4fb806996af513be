"""Oracles for the harness's block draw: the per-frame draw loop it
equals, and the run bounds of duration arrays built by running sums."""

import math
from itertools import accumulate, chain

import numpy as np

from rscatter import channel


def draw_frames_loop(gate_rng, payload_rng, stats, total_us, count, payload_bytes):
    """count frames' payloads and gates drawn frame by frame: a payload of
    the first payload_bytes bytes, low byte first, of ceil(payload_bytes /
    8) raw words of payload_rng, and a gate by channel.gate_durations from
    gate_rng.  Returns a (count, payload_bytes) uint8 array and the
    duration arrays."""
    words_n = -(-payload_bytes // 8)
    payloads = np.empty((count, payload_bytes), dtype=np.uint8)
    gates = []
    for i in range(count):
        words = payload_rng.bit_generator.random_raw(words_n)
        data = b"".join(int(w).to_bytes(8, "little") for w in words)
        payloads[i] = np.frombuffer(data[:payload_bytes], dtype=np.uint8)
        gates.append(channel.gate_durations(gate_rng, stats, total_us))
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
