"""Oracle for the receiver chain: the per-sample waveform it reads through
bit means.  Every bit is repeated over its samples, gated sample by
sample, and detected as hypot(gated + I noise, Q noise) per sample;
phy.apply_channel must give the mean of these powers over each bit."""

import numpy as np

from rscatter import phy


def waveform(bits, spb):
    """The OOK envelope of preamble || scrambled bits, one row of bits per
    transmission: (..., bits) -> float (..., PREAMBLE_LEN + bits, spb)."""
    bits = np.asarray(bits, dtype=np.uint8)
    preamble = np.broadcast_to(phy.PREAMBLE_BITS, bits.shape[:-1] + (phy.PREAMBLE_LEN,))
    line = np.concatenate([preamble, phy.scramble(bits)], axis=-1).astype(float)
    return np.repeat(line[..., None], spb, axis=-1)


def received_power(samples, lost, noise=None):
    """Per-sample power of (..., rows, spb) samples: every sample of a lost
    bit zeroed (lost is (..., >= rows)), then, with (..., 2, rows, spb) I and
    Q noise, hypot(gated + I noise, Q noise)."""
    power = samples * ~np.asarray(lost, dtype=bool)[..., : samples.shape[-2], None]
    if noise is not None:
        power += noise[..., 0, :, :]
        np.hypot(power, noise[..., 1, :, :], out=power)
    return power


def bit_means(bits, lost, spb, noise=None):
    """Each bit's mean received power over its spb samples: (..., rows)."""
    return received_power(waveform(bits, spb), lost, noise).mean(axis=-1)
