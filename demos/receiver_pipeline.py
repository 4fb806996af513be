"""Walk one frame through the sample-level receiver chain.

Builds a frame, modulates it as scrambled OOK line levels behind the
36-bit preamble, punches an excitation outage into them, adds I/Q receiver
noise at the default samples per bit (the chain's only samples) and
averages each bit's power over them.  The blind demodulator then finds the
preamble by the correlation of its bit means at sample 0, the only offset
it tests, and recovers bits and erasure flags before the RS decoder
repairs the hole.
"""

import numpy as np

from rscatter import phy, rscodec

BIT_RATE = 6e6  # bits/second


def main():
    rng = np.random.default_rng(7)
    payload = bytes(rng.integers(0, 256, size=24, dtype=np.uint8))
    frame_bits = phy.bytes_to_bits(phy.frame_build(payload))

    code = rscodec.RsCode(63, 45)
    # zero-filled to whole k-symbol info blocks, all encoded in one call
    width = code.k * code.m
    pad = (-frame_bits.size) % width
    info_bits = np.concatenate([frame_bits, np.zeros(pad, dtype=np.uint8)])
    cw_bits = rscodec.encode_bits(code, info_bits.reshape(-1, width))
    tx_bits = cw_bits.ravel()
    print(f"frame: {len(payload)} payload bytes -> {frame_bits.size} bits -> "
          f"{len(cw_bits)} codeword(s) of RS({code.n},{code.k})")

    levels = phy.modulate(tx_bits)
    spb = phy.DEFAULT_SAMPLES_PER_BIT
    print(f"waveform: {levels.size * spb} samples at {BIT_RATE * spb / 1e6:.0f} MS/s")

    # excitation dies for 5 us, 25 us into the frame: at 6 Mb/s that is
    # bits 150..179, preamble included
    lost = np.zeros(phy.PREAMBLE_LEN + tx_bits.size, dtype=bool)
    lost[150:180] = True
    noise = rng.normal(0.0, 0.03, (2,) + levels.shape + (spb,))  # I, then Q
    power = phy.apply_channel(levels, lost, noise)

    # a block of one frame, sent from sample 0
    rx_bits, flags, found = phy.demodulate(power[None])
    assert found[0], "preamble not found"
    print(f"demodulator: preamble found at sample 0, data from sample "
          f"{phy.PREAMBLE_LEN * spb}")
    flagged = int(flags[0].sum())
    print(f"erasure flags: {flagged} bit(s) flagged around the outage")

    # every codeword with its erased symbols, decoded in one call
    words = rx_bits[0].reshape(-1, code.n * code.m)
    erased = flags[0].reshape(-1, code.n, code.m).any(axis=2)
    decoded, ok = rscodec.decode_block(code, words, erased)
    assert ok.all(), "decode failed"
    for i, count in enumerate(erased.sum(axis=1)):
        print(f"codeword {i}: {count} erased symbol(s), corrected")

    bits = decoded.ravel()[: frame_bits.size]
    recovered = phy.frame_parse(phy.bits_to_bytes(bits))
    print(f"payload recovered intact: {recovered == payload}")


if __name__ == "__main__":
    main()
