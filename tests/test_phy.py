"""Framing, scrambling, OOK modulation, and blind demodulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import waveform_oracle
from rscatter.errors import FrameCrcError, ParameterError
from rscatter import phy


def test_preamble_shape():
    assert phy.PREAMBLE_LEN == 36
    assert set(np.unique(phy.PREAMBLE_BITS)) <= {0, 1}
    # alternating prefix for coarse detection, structured tail for timing
    assert phy.PREAMBLE_BITS[:24].tolist() == [1, 0] * 12


def test_crc16_known_vectors():
    # CRC-16/CCITT-FALSE check value for the ASCII digits 1..9
    assert phy.crc16(b"123456789") == 0x29B1
    assert phy.crc16(b"") == 0xFFFF


def _reference_crc16(data):
    """Bit-at-a-time CRC-16/CCITT-FALSE."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def test_crc16_matches_bitwise_reference():
    rng = np.random.default_rng(12)
    for size in range(301):
        data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        assert phy.crc16(data) == _reference_crc16(data)


def test_frame_roundtrip():
    payload = bytes(range(64))
    frame = phy.frame_build(payload)
    assert len(frame) == 1 + 64 + 2
    assert frame[0] == 64
    assert phy.frame_parse(frame) == payload
    # trailing padding bytes are ignored via the length field
    assert phy.frame_parse(frame + b"\x00\x00\x55") == payload


def test_frame_rejects_corruption():
    frame = bytearray(phy.frame_build(b"hello, world"))
    frame[5] ^= 0x40
    with pytest.raises(FrameCrcError):
        phy.frame_parse(bytes(frame))
    with pytest.raises(FrameCrcError):
        phy.frame_parse(phy.frame_build(b"abc")[:-1])
    with pytest.raises(ParameterError):
        phy.frame_parse(b"")


def test_frame_payload_bounds():
    with pytest.raises(ParameterError):
        phy.frame_build(b"ab")
    with pytest.raises(ParameterError):
        phy.frame_build(bytes(109))
    assert phy.frame_parse(phy.frame_build(bytes(3))) == bytes(3)
    assert phy.frame_parse(phy.frame_build(bytes(108))) == bytes(108)


def test_frame_block_rows_are_frames():
    # each row is length || payload || big-endian CRC over length and payload
    rng = np.random.default_rng(13)
    for size in (phy.MIN_PAYLOAD, 64, phy.MAX_PAYLOAD):
        payloads = rng.integers(0, 256, size=(5, size), dtype=np.uint8)
        frames = phy.frame_block(payloads)
        assert frames.shape == (5, size + 3) and frames.dtype == np.uint8
        for row, payload in zip(frames, payloads):
            body = bytes([size]) + payload.tobytes()
            crc = _reference_crc16(body)
            assert row.tobytes() == body + bytes([crc >> 8, crc & 0xFF])
            assert row.tobytes() == phy.frame_build(payload)
    assert phy.frame_block(np.empty((0, 8), np.uint8)).shape == (0, 11)
    for size in (phy.MIN_PAYLOAD - 1, phy.MAX_PAYLOAD + 1):
        with pytest.raises(ParameterError):
            phy.frame_block(np.zeros((2, size), np.uint8))


@given(st.binary(min_size=3, max_size=108))
@settings(max_examples=60)
def test_frame_roundtrip_property(payload):
    assert phy.frame_parse(phy.frame_build(payload)) == payload


@settings(max_examples=300, deadline=None)
@given(payload=st.binary(min_size=phy.MIN_PAYLOAD, max_size=phy.MAX_PAYLOAD), data=st.data())
def test_frame_parse_delivers_iff_bits_equal(payload, data):
    # a received frame is exactly as long as the sent one; flips land in the
    # length byte, the payload or the CRC, or nowhere
    sent = phy.bytes_to_bits(phy.frame_build(payload))
    anywhere = st.one_of(st.integers(0, 7), st.integers(8, sent.size - 17),
                         st.integers(sent.size - 16, sent.size - 1))
    rx = sent.copy()
    for at in data.draw(st.lists(anywhere, max_size=12)):
        rx[at] ^= 1
    try:
        delivered = phy.frame_parse(phy.bits_to_bytes(rx)) == payload
    except FrameCrcError:
        delivered = False
    assert delivered == np.array_equal(rx, sent)


def test_bit_packing_roundtrip():
    data = bytes([0x00, 0xFF, 0xA5, 0x01])
    bits = phy.bytes_to_bits(data)
    assert bits[:8].tolist() == [0] * 8
    assert bits[8:16].tolist() == [1] * 8
    assert phy.bits_to_bytes(bits) == data
    with pytest.raises(ParameterError):
        phy.bits_to_bytes([1, 0, 1])


def test_scrambler_properties():
    pn = phy.scramble(np.zeros(127 * 3, dtype=np.uint8))
    # maximal-length sequence balance over one period: 64 ones, 63 zeros
    assert int(pn[:127].sum()) == 64
    assert (pn[:127] == pn[127:254]).all()
    # no zero run longer than 6 anywhere, including tiling boundaries
    runs, c = [], 0
    for b in pn:
        c = c + 1 if b == 0 else 0
        runs.append(c)
    assert max(runs) == 6
    bits = np.array([0, 1] * 40, dtype=np.uint8)
    assert (phy.scramble(phy.scramble(bits)) == bits).all()


def test_scramble_matches_tiled_pn_at_every_length():
    # up to the longest transmission an experiment builds, RS(7,1) with
    # 108-byte payloads: 36 + 6216 bits
    pn = phy._SCRAMBLER
    rng = np.random.default_rng(3)
    for n in range(6400):
        bits = rng.integers(0, 2, size=(2, n), dtype=np.uint8)
        got = phy.scramble(bits)
        assert got.dtype == np.uint8 and got.flags.writeable
        assert np.array_equal(got, bits ^ np.tile(pn, n // 127 + 1)[:n])
    # the cached sequence is not the caller's to change
    got = phy.scramble(np.zeros(300, dtype=np.uint8))
    got[:] = 0
    assert np.array_equal(phy.scramble(np.zeros(300, dtype=np.uint8))[:127], pn)


def test_modulate_levels_and_timing():
    # one line level per bit-time: the preamble, then the scrambled bits
    bits = np.array([1, 0, 1], dtype=np.uint8)
    levels = phy.modulate(bits)
    assert levels.shape == (phy.PREAMBLE_LEN + 3,)
    assert levels.dtype == float  # a real envelope: no Q component
    assert set(np.unique(levels)) <= {0.0, 1.0}
    assert np.array_equal(levels[: phy.PREAMBLE_LEN], phy.PREAMBLE_BITS)
    line = levels[phy.PREAMBLE_LEN :].astype(np.uint8)
    assert (line == phy.scramble(bits)).all()
    # one transmission per row of bits; samples per bit are the noise's
    block = phy.modulate(np.stack([bits, 1 - bits]))
    assert block.shape == (2, phy.PREAMBLE_LEN + 3) and np.array_equal(block[0], levels)
    with pytest.raises(TypeError):
        phy.modulate(bits, samples_per_bit=8)


def test_samples_per_bit_floor():
    # the samples are the noise's: fewer than the floor per bit are refused
    levels = phy.modulate(np.ones(10, dtype=np.uint8))
    lost = _no_loss(levels)
    for spb in (1, phy.MIN_SAMPLES_PER_BIT - 1):
        with pytest.raises(ParameterError):
            phy.apply_channel(levels, lost, np.zeros((2, levels.size, spb)))
    power = phy.apply_channel(levels, lost, np.zeros((2, levels.size, phy.MIN_SAMPLES_PER_BIT)))
    assert power.tobytes() == levels.tobytes()
    assert _receive(power)[2]
    # the receiver reads a 2-D block of frames' bit means
    for bad in (levels, levels[None, :, None], np.repeat(levels[None, :, None], 8, axis=-1)):
        with pytest.raises(ParameterError):
            phy.demodulate(bad)


def _no_loss(levels):
    return np.zeros(levels.shape[-1], dtype=bool)


def _receive(power):
    """phy.demodulate on a block of one frame: its bits, flags and found."""
    return [out[0] for out in phy.demodulate(power[None])]


def test_apply_channel_gates_samples():
    levels = phy.modulate(np.ones(10, dtype=np.uint8))
    # lost bits 2..3 of the data section (after the preamble)
    lost = _no_loss(levels)
    lost[phy.PREAMBLE_LEN + 2 : phy.PREAMBLE_LEN + 4] = True
    gated = phy.apply_channel(levels, lost)
    assert gated.shape == levels.shape and gated.dtype == float
    data = gated[phy.PREAMBLE_LEN :]
    assert not data[2] and not data[3]
    line = phy.scramble(np.ones(10, dtype=np.uint8))
    for i in (0, 1, 4, 9):
        assert data[i] == float(line[i])
    # zero noise on every sample leaves each bit's mean at its gated level
    noiseless = phy.apply_channel(levels, lost, np.zeros((2, levels.size, 8)))
    assert noiseless.tobytes() == gated.tobytes()


def test_apply_channel_requires_cover():
    levels = phy.modulate(np.ones(10, dtype=np.uint8))
    lost = _no_loss(levels)
    # one flag per level, and at least one level
    for bad_levels, bad_lost in ((levels, lost[:-1]), (levels, lost[0]), (levels[0], lost)):
        with pytest.raises(ParameterError):
            phy.apply_channel(bad_levels, bad_lost)
    # a longer mask is cut to the levels
    gated = phy.apply_channel(levels, np.append(lost, True))
    assert gated.tobytes() == levels.tobytes()
    # the noise is one I and one Q draw of the levels' rows, 4 or more
    # samples per bit
    rows = levels.size
    for shape in ((2, rows - 1, 8), (2, rows + 1, 8), (rows, 8), (3, rows, 8), (1, 2, rows, 8),
                  (2, rows), (2, 8, rows), (8,), ()):
        with pytest.raises(ParameterError):
            phy.apply_channel(levels, lost, np.zeros(shape))
    # a block's noise has the block's frame axis
    block = np.stack([levels, levels])
    for frames in (1, 3):
        with pytest.raises(ParameterError):
            phy.apply_channel(block, np.stack([lost, lost]), np.zeros((frames, 2, rows, 8)))


@given(st.integers(phy.MIN_SAMPLES_PER_BIT, 16), st.integers(1, 60), st.data())
@settings(max_examples=150, deadline=None)
def test_apply_channel_gates_by_lost_bit_mask(spb, n_data, data):
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n_data, max_size=n_data)),
                    dtype=np.uint8)
    n_bits = phy.PREAMBLE_LEN + n_data
    # masks may run past the levels
    lost = np.array(data.draw(st.lists(st.booleans(), min_size=n_bits, max_size=n_bits + 8)))
    levels = phy.modulate(bits)
    expected = levels * ~lost[:n_bits]
    gated = phy.apply_channel(levels, lost)
    assert gated.shape == (n_bits,)
    assert gated.tobytes() == expected.tobytes()
    # each bit's mean over its samples of the power sqrt(I^2 + Q^2) of its
    # gated level plus I and Q noise, I noise first; a block of frames gets
    # the same per frame
    rng = np.random.default_rng(n_data)
    i_noise = rng.normal(0.0, 0.1, (n_bits, spb))
    q_noise = rng.normal(0.0, 0.1, (n_bits, spb))
    noisy = phy.apply_channel(levels, lost, np.stack([i_noise, q_noise]))
    assert noisy.tobytes() == np.hypot(expected[:, None] + i_noise, q_noise).mean(axis=1).tobytes()
    block = phy.apply_channel(np.stack([levels, levels]), np.stack([lost, ~lost]),
                              np.stack([[i_noise, q_noise], [q_noise, i_noise]]))
    assert block[0].tobytes() == noisy.tobytes()
    flipped = levels * lost[:n_bits]
    assert block[1].tobytes() == np.hypot(flipped[:, None] + q_noise, i_noise).mean(axis=1).tobytes()


@pytest.mark.parametrize("sigma", [0.0, 0.3, 0.55])
@pytest.mark.parametrize("spb", [4, 8, 13, 64])
def test_apply_channel_matches_per_sample_reference(spb, sigma):
    # the bit-level chain equals the per-sample one (repeat each level over
    # its samples, gate every sample, add I, hypot with Q, average per bit)
    # to the last bit, for losses in the preamble, in the data and across
    # both
    rng = np.random.default_rng(spb)
    frames, n_data = 6, 150
    rows = phy.PREAMBLE_LEN + n_data
    bits = rng.integers(0, 2, (frames, n_data), dtype=np.uint8)
    lost = np.zeros((frames, rows + 5), dtype=bool)  # masks may run past the levels
    lost[1, 3:20] = True  # preamble '1' and '0' bits
    lost[2, phy.PREAMBLE_LEN + 10 : phy.PREAMBLE_LEN + 70] = True  # data
    lost[3, 20 : phy.PREAMBLE_LEN + 30] = True  # across the boundary
    lost[4] = rng.random(rows + 5) < 0.2  # scattered
    lost[5] = True
    noise = rng.normal(0.0, sigma, (frames, 2, rows, spb)) if sigma else None
    got = phy.apply_channel(phy.modulate(bits), lost, noise)
    assert np.array_equal(got, waveform_oracle.bit_means(bits, lost, spb, noise))
    # one frame alone is read as in its block
    one = phy.apply_channel(phy.modulate(bits[3]), lost[3], None if noise is None else noise[3])
    assert np.array_equal(one, got[3])


def test_demodulate_clean_roundtrip():
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, 400, dtype=np.uint8)
    levels = phy.modulate(bits)
    rx = phy.apply_channel(levels, _no_loss(levels))
    got, flags, found = _receive(rx)
    assert found
    assert (got == bits).all()
    assert not flags.any()


def test_demodulate_is_amplitude_invariant():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, 200, dtype=np.uint8)
    levels = phy.modulate(bits)
    for amp in (1e-3, 1.0, 750.0):
        got, _, found = _receive(levels * amp)
        assert found
        assert (got == bits).all()


def test_demodulate_with_noise():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 300, dtype=np.uint8)
    levels = phy.modulate(bits)
    noise = rng.normal(0, 0.08, (2, levels.size, phy.DEFAULT_SAMPLES_PER_BIT))
    got, _, found = _receive(phy.apply_channel(levels, _no_loss(levels), noise))
    assert found
    assert (got == bits).all()


def test_demodulate_flags_long_outage():
    bits = np.ones(200, dtype=np.uint8)
    levels = phy.modulate(bits)
    # 40-bit outage starting 50 bits into the data section
    levels_lost = _no_loss(levels)
    levels_lost[phy.PREAMBLE_LEN + 50 : phy.PREAMBLE_LEN + 90] = True
    rx = phy.apply_channel(levels, levels_lost)
    _, flags, found = _receive(rx)
    assert found
    assert flags[50:90].all()
    # flags may extend over adjacent line-level zero bits but nowhere else
    lost = np.zeros(bits.size, dtype=bool)
    lost[50:90] = True
    assert (flags == phy.perceived_erasures(bits, lost)).all()


def test_demodulate_misses_noise_without_preamble():
    rng = np.random.default_rng(5)
    noise = np.hypot(rng.normal(0, 1, (500, 8)), rng.normal(0, 1, (500, 8)))
    assert not _receive(noise.mean(axis=1))[2]
    # with every bit lost the power is noise alone, whose scale no decision
    # reads: fewer than 1% of such frames pass the test on bit means
    for spb, frames in ((4, 2000), (8, 2000), (phy.MAX_SAMPLES_PER_BIT, 1000)):
        levels = phy.modulate(rng.integers(0, 2, (frames, 1)))
        noise = rng.standard_normal((frames, 2, levels.shape[1], spb))
        power = phy.apply_channel(levels, np.ones(levels.shape, dtype=bool), noise)
        assert phy.demodulate(power)[2].mean() < 0.01


@given(
    st.integers(phy.MIN_SAMPLES_PER_BIT, 16),
    st.integers(1, 60),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    st.sampled_from(["none", "scattered", "preamble", "late"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_demodulate_matches_offset_zero_reference(spb, n_data, frames, sigma, loss, seed):
    # a block of frames, some with lost preamble bits or with the waveform
    # delayed past sample 0, is demodulated from its bit means frame for
    # frame as the plain reference reads its samples from sample 0
    rng = np.random.default_rng(seed)
    rows = phy.PREAMBLE_LEN + n_data
    samples = waveform_oracle.waveform(rng.integers(0, 2, (frames, n_data)), spb)
    lost = np.zeros((frames, rows), dtype=bool)
    if loss == "scattered":
        lost = rng.random((frames, rows)) < 0.2
    elif loss == "preamble":
        start = rng.integers(0, phy.PREAMBLE_LEN, frames)
        for f in range(frames):
            lost[f, start[f] : start[f] + rng.integers(1, 20)] = True
    elif loss == "late":
        # silence in front of each waveform, its tail cut to keep the length
        for f in range(frames):
            delay = rng.integers(0, 3 * spb)
            samples[f] = np.roll(samples[f].ravel(), delay).reshape(rows, spb)
            samples[f].ravel()[:delay] = 0.0
    noise = rng.normal(0.0, sigma, (frames, 2, rows, spb)) if sigma else None
    power = waveform_oracle.received_power(samples, lost, noise)
    bits, erasures, found = phy.demodulate(power.mean(axis=-1), 8)
    assert bits.shape == erasures.shape == (frames, n_data) and found.shape == (frames,)
    for f in range(frames):
        ref_bits, ref_flags, ref_found, ref_corr = _reference_demodulate(power[f], 8)
        # a coefficient this close to the threshold may round either way
        if abs(ref_corr - phy.CORR_THRESHOLD) > 1e-9:
            assert found[f] == ref_found
        if ref_found and found[f]:
            assert np.array_equal(bits[f], ref_bits)
            assert np.array_equal(erasures[f], ref_flags)


def test_demodulate_erasure_rule():
    # a clean preamble puts the threshold at exactly 0.5; data runs of 10
    # bit means just under, exactly at and just over it.  A mean at the
    # threshold slices to 1, so only the run just under it reads as 0, and
    # only that run, longer than the margin of 8, is flagged
    high = [1.0] * 2
    means = high + [0.98 * 0.5] * 10 + high + [0.5] * 10 + high + [1.02 * 0.5] * 10 + high
    bits, flags, found = phy.demodulate(np.concatenate([phy.PREAMBLE_BITS, means])[None], 8)
    assert found[0]
    expected = np.zeros(len(means), dtype=bool)
    expected[2:12] = True
    assert np.array_equal(flags[0], expected)
    assert np.array_equal(phy.scramble(bits[0]), ~expected)


@pytest.mark.parametrize("fraction", [0.3, 0.5, 0.7])
def test_demodulate_floor_rule(fraction):
    # no floor under the threshold: a clean preamble puts it at 0.5, and a
    # run of bit means at fraction * 0.5 is flagged however deep it is, if
    # it is longer than the margin of 8; a run of exactly 8 slices to 0 too
    # but is left unflagged
    depth = fraction * 0.5
    high = [1.0] * 2
    means = high + [depth] * 10 + high + [depth] * 8 + high
    bits, flags, found = phy.demodulate(np.concatenate([phy.PREAMBLE_BITS, means])[None], 8)
    assert found[0]
    zeros = np.zeros(len(means), dtype=bool)
    zeros[2:12] = zeros[14:22] = True
    assert np.array_equal(phy.scramble(bits[0]), ~zeros)
    expected = np.zeros(len(means), dtype=bool)
    expected[2:12] = True
    assert np.array_equal(flags[0], expected)


def test_demodulate_finds_delayed_frames_by_offset_zero_coefficient():
    # a waveform delayed past sample 0, zero-filled in front, is found iff
    # its bit means at sample 0 pass; no other offset is searched
    rng = np.random.default_rng(11)
    spb = 8
    samples = waveform_oracle.waveform(rng.integers(0, 2, 200, dtype=np.uint8), spb).ravel()
    found = {}
    for delay in (1, 2, 4, spb, 2 * spb, 3 * spb):
        late = np.concatenate([np.zeros(delay), samples[:-delay]]).reshape(-1, spb)
        found[delay] = _receive(late.mean(axis=1))[2]
        assert found[delay] == _reference_demodulate(late, 8)[2]
    assert found[1] and found[2] and found[2 * spb]
    # one bit late, the exact template starts at the second bit and a search
    # over offsets would find it; at sample 0 the alternating prefix reads in
    # antiphase, and the frame is not found
    late = np.concatenate([np.zeros(spb), samples[:-spb]]).reshape(-1, spb)
    assert np.array_equal(late[1 : phy.PREAMBLE_LEN + 1].mean(axis=1), phy.PREAMBLE_BITS)
    assert not found[spb] and _reference_demodulate(late, 8)[3] < 0


def test_demodulate_needs_a_data_bit():
    with pytest.raises(ParameterError):
        phy.demodulate(np.ones((2, phy.PREAMBLE_LEN)))
    assert phy.demodulate(np.ones((2, phy.PREAMBLE_LEN + 1)))[0].shape == (2, 1)


def test_demodulate_preamble_test_reads_preamble_bit_means():
    rng = np.random.default_rng(4)
    rows = phy.PREAMBLE_LEN + 9
    # a constant preamble window is not found, whatever its level
    levels = np.array([0.0, 1e-300, 0.1, 0.25, 1.0, 750.0])
    assert not phy.demodulate(np.broadcast_to(levels[:, None], (levels.size, rows)))[2].any()
    # the exact template is found, whatever data rows follow it
    block = np.concatenate([np.broadcast_to(phy.PREAMBLE_BITS.astype(float), (3, phy.PREAMBLE_LEN)),
                            rng.normal(0.0, 3.0, (3, rows - phy.PREAMBLE_LEN))], axis=1)
    assert phy.demodulate(block)[2].all()
    for spb in (phy.MIN_SAMPLES_PER_BIT, 8, 16):
        # only the preamble's rows are read: noisy frames, some found and
        # some not, are found alike behind other data rows; the noise grows
        # as sqrt(spb) to keep the bit means' spread alike at every spb
        levels = phy.modulate(rng.integers(0, 2, (40, rows - phy.PREAMBLE_LEN)))
        power = phy.apply_channel(levels, np.zeros((40, rows), dtype=bool),
                                  rng.normal(0.0, 0.4 * np.sqrt(spb), (40, 2, rows, spb)))
        found = phy.demodulate(power)[2]
        assert found.any() and not found.all()
        power[:, phy.PREAMBLE_LEN :] = rng.random((40, rows - phy.PREAMBLE_LEN))
        assert np.array_equal(phy.demodulate(power)[2], found)


@pytest.mark.parametrize("spb", [8, phy.MAX_SAMPLES_PER_BIT])
def test_preamble_test_finds_what_the_slicer_reads(spb):
    # 200 unlost frames of 300 random bits: the test reads bit means, as the
    # slicer does, so it finds every frame up to sigma = 0.6, where the
    # slicer still reads the frames at 64 samples per bit
    rng = np.random.default_rng(3)
    levels = phy.modulate(rng.integers(0, 2, (200, 300)))
    unlost = np.zeros(levels.shape, dtype=bool)
    for part in np.split(np.arange(200), 4):  # 50 frames a part bound the memory
        normals = rng.standard_normal((part.size, 2, levels.shape[1], spb))
        for sigma in (0.5, 0.55, 0.6):
            power = phy.apply_channel(levels[part], unlost[part], sigma * normals)
            assert phy.demodulate(power, 8)[2].all()


def test_erasure_run_flagging_margin():
    zeros = np.zeros(100, dtype=bool)
    zeros[10:27] = True  # 17-bit run: flagged at the default margin of 16
    zeros[40:56] = True  # 16-bit run: exactly at margin, not flagged
    flags = phy.flag_erasure_runs(zeros)
    assert flags[10:27].all()
    assert not flags[27:].any()
    assert phy.flag_erasure_runs(np.zeros(0, dtype=bool)).size == 0
    # at margin 0 every bit read as 0 is a run longer than the margin
    assert np.array_equal(phy.flag_erasure_runs(zeros, 0), zeros)
    # a run of the whole row is flagged iff the margin is under the row width
    assert phy.flag_erasure_runs(np.ones(100, dtype=bool), 99).all()
    assert not phy.flag_erasure_runs(np.ones(100, dtype=bool), 100).any()


def test_erasure_run_flagging_rejects_bad_margins():
    # a negative margin would flag every zero bit or fail to broadcast, and
    # a fractional one would be cut to an integer
    zeros = np.zeros((1, 12), dtype=bool)
    zeros[0, 2:6] = True
    for margin in (-1, -3, 2.7, 3.0, "3", None, True, np.float64(2)):
        with pytest.raises(ParameterError):
            phy.flag_erasure_runs(zeros, margin)
    for margin in (3, np.int64(3), np.uint8(3)):
        assert np.array_equal(phy.flag_erasure_runs(zeros, margin), zeros)
    assert not phy.flag_erasure_runs(zeros, 4).any()
    with pytest.raises(ParameterError):
        phy.perceived_erasures(np.ones(12, dtype=np.uint8), np.ones(12, dtype=bool), -1)
    with pytest.raises(ParameterError):
        phy.demodulate(np.ones((1, phy.PREAMBLE_LEN + 12)), 2.7)


def _reference_flags(row, margin):
    """Run-by-run flagging of one row."""
    flags = np.zeros(row.size, dtype=bool)
    start = None
    for i, is_zero in enumerate(list(row) + [False]):
        if is_zero and start is None:
            start = i
        elif not is_zero and start is not None:
            if i - start > margin:
                flags[start:i] = True
            start = None
    return flags


def _reference_demodulate(power, margin):
    """One (rows, spb) power waveform read from sample 0, step by step:
    (bits, flags, found, corr).  The flags are the runs of line bits sliced
    0 longer than margin.  corr is the Pearson coefficient of the preamble's
    bit means with PREAMBLE_BITS, 0 where the means are constant.  Found iff
    corr is at or above CORR_THRESHOLD and the threshold halfway between the
    weakest preamble '1' and the strongest preamble '0' bit mean is
    positive."""
    means = power.mean(axis=1)
    preamble = means[: phy.PREAMBLE_LEN]
    corr = np.corrcoef(preamble, phy.PREAMBLE_BITS)[0, 1] if np.ptp(preamble) > 0 else 0.0
    threshold = (preamble[phy.PREAMBLE_BITS == 1].min()
                 + preamble[phy.PREAMBLE_BITS == 0].max()) / 2.0
    found = corr >= phy.CORR_THRESHOLD and threshold > 0
    line = (means[phy.PREAMBLE_LEN :] >= threshold).astype(np.uint8)
    return phy.scramble(line), _reference_flags(line == 0, margin), found, corr


@st.composite
def _zero_rows(draw):
    rows = draw(st.integers(0, 6))
    width = draw(st.integers(0, 40))
    out = np.zeros((rows, width), dtype=bool)
    for r in range(rows):
        kind = draw(st.sampled_from(["random", "all", "none", "edges"]))
        if kind == "all":
            out[r] = True
        elif kind == "edges":  # runs touching both ends of the row
            out[r, : draw(st.integers(0, width))] = True
            out[r, width - draw(st.integers(0, width)) :] = True
        elif kind == "random":
            out[r] = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    return out


# margins up to 60 reach under, at and past the row width of 0..40
@given(_zero_rows(), st.integers(0, 60))
@settings(max_examples=200)
def test_erasure_run_flagging_row_wise(zeros, margin):
    flags = phy.flag_erasure_runs(zeros, margin)
    assert flags.shape == zeros.shape and flags.dtype == bool
    for row, got in zip(zeros, flags):
        assert (got == phy.flag_erasure_runs(row, margin)).all()
        assert (got == _reference_flags(row, margin)).all()
    # a 3-D block is flagged row by row too
    stacked = phy.flag_erasure_runs(np.stack([zeros, zeros[::-1]]), margin)
    assert np.array_equal(stacked, np.stack([flags, flags[::-1]]))


def test_perceived_erasures_match_demodulator():
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, 500, dtype=np.uint8)
    # outage covering data bits 100..139
    levels = phy.modulate(bits)
    levels_lost = _no_loss(levels)
    levels_lost[phy.PREAMBLE_LEN + 100 : phy.PREAMBLE_LEN + 140] = True
    rx = phy.apply_channel(levels, levels_lost)
    _, flags, found = _receive(rx)
    assert found
    lost = np.zeros(bits.size, dtype=bool)
    lost[100:140] = True
    predicted = phy.perceived_erasures(bits, lost)
    assert (flags == predicted).all()


def test_noise_free_chain_is_a_closed_form():
    # at zero noise demodulate(apply_channel(modulate(bits), lost), margin)
    # is a closed form of the bits and the lost mask, which is why the
    # harness applies it in both modes and symbol mode may stand in for the
    # receiver: a frame is found iff no preamble '1' bit is lost, a lost bit
    # reads as the PN bit after descrambling, and the flags are
    # perceived_erasures.  Losses are scattered at several rates and come in
    # bursts in the preamble, in the data and across both
    rng = np.random.default_rng(26)
    frames, n_data = 400, 300
    rows = phy.PREAMBLE_LEN + n_data
    bits = rng.integers(0, 2, (frames, n_data), dtype=np.uint8)
    lost = rng.random((frames, rows)) < rng.choice([0.0, 0.002, 0.02, 0.1, 0.4], (frames, 1))
    for row in range(0, frames, 2):  # a burst in every other frame
        start = rng.integers(0, rows)
        lost[row, start : start + rng.integers(1, 80)] = True
    lost[-1] = True
    stats = phy.apply_channel(phy.modulate(bits), lost)
    found = ~(lost[:, : phy.PREAMBLE_LEN] & (phy.PREAMBLE_BITS == 1)).any(axis=1)
    data_lost = lost[:, phy.PREAMBLE_LEN :]
    received = bits ^ (data_lost & (phy.scramble(bits) == 1))
    flagged = 0
    for margin in range(17):
        got_bits, got_flags, got_found = phy.demodulate(stats, margin)
        assert np.array_equal(got_found, found)
        assert np.array_equal(got_bits[found], received[found])
        flags = phy.perceived_erasures(bits, data_lost, margin)
        assert np.array_equal(got_flags[found], flags[found])
        flagged += flags[found].sum()
    # frames are found and missed, found ones with lost preamble '0' bits
    # and with bits received wrong, and some bits are flagged
    assert found.any() and not found.all() and flagged > 0
    assert (found & lost[:, : phy.PREAMBLE_LEN].any(axis=1)).any()
    assert (received != bits)[found].any()


def test_perceived_erasures_validates_lengths():
    with pytest.raises(ParameterError):
        phy.perceived_erasures(np.ones(4, dtype=np.uint8), np.zeros(5, dtype=bool))
    with pytest.raises(ParameterError):
        phy.perceived_erasures(np.ones((2, 4), dtype=np.uint8), np.zeros(8, dtype=bool))


def test_perceived_erasures_row_wise():
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, (5, 300), dtype=np.uint8)
    lost = rng.random((5, 300)) < 0.2
    lost[:, 250:] = True  # runs reaching the row end must not continue into the next row
    flags = phy.perceived_erasures(bits, lost, 8)
    for r in range(5):
        assert (flags[r] == phy.perceived_erasures(bits[r], lost[r], 8)).all()
