"""Framing, scrambling, OOK modulation, and blind demodulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    bits = np.array([1, 0, 1], dtype=np.uint8)
    spb = 8
    levels = phy.modulate(bits, spb)
    assert levels.shape == (phy.PREAMBLE_LEN + 3, spb)
    assert levels.dtype == float  # a real envelope: no Q component
    assert np.all(levels == levels[:, :1])  # constant within each bit
    assert set(np.unique(levels)) <= {0.0, 1.0}
    # the data section carries the scrambled line bits
    line = levels[phy.PREAMBLE_LEN :, 0].astype(np.uint8)
    assert (line == phy.scramble(bits)).all()


def test_samples_per_bit_floor():
    with pytest.raises(ParameterError):
        phy.modulate([1, 0], samples_per_bit=3)
    good = phy.modulate(np.ones(10, dtype=np.uint8), 8)
    lost = _no_loss(good)
    # a flat waveform, and rows shorter than the samples-per-bit floor
    for bad in (good.ravel(), good[:, : phy.MIN_SAMPLES_PER_BIT - 1]):
        with pytest.raises(ParameterError):
            phy.apply_channel(bad, lost)
        with pytest.raises(ParameterError):
            phy.demodulate(bad[None])
    assert _receive(good[:, : phy.MIN_SAMPLES_PER_BIT])[2]
    # the receiver reads a 3-D block of frames
    with pytest.raises(ParameterError):
        phy.demodulate(good)


def _no_loss(samples):
    return np.zeros(samples.shape[0], dtype=bool)


def _receive(power):
    """phy.demodulate on a block of one frame: its bits, flags and found."""
    return [out[0] for out in phy.demodulate(power[None])]


def test_apply_channel_gates_samples():
    samples = phy.modulate(np.ones(10, dtype=np.uint8), 8)
    rng = np.random.default_rng(0)
    # lost bits 2..3 of the data section (after the preamble)
    lost = _no_loss(samples)
    lost[phy.PREAMBLE_LEN + 2 : phy.PREAMBLE_LEN + 4] = True
    gated = phy.apply_channel(samples, lost)
    assert gated.shape == samples.shape and gated.dtype == float
    data = gated[phy.PREAMBLE_LEN :]
    assert not data[2].any() and not data[3].any()
    line = phy.scramble(np.ones(10, dtype=np.uint8))
    for i in (0, 1, 4, 9):
        assert (data[i] == float(line[i])).all()


def test_apply_channel_requires_cover():
    samples = phy.modulate(np.ones(10, dtype=np.uint8), 8)
    lost = _no_loss(samples)
    with pytest.raises(ParameterError):
        phy.apply_channel(samples, lost[:-1])
    # a longer mask is cut to the waveform
    gated = phy.apply_channel(samples, np.append(lost, True))
    assert gated.tobytes() == samples.tobytes()
    # the noise is one I and one Q draw of the waveform's shape
    for shape in ((2,) + samples.shape[:-1] + (7,), samples.shape, (1, 2) + samples.shape):
        with pytest.raises(ParameterError):
            phy.apply_channel(samples, lost, np.zeros(shape))


@given(st.integers(phy.MIN_SAMPLES_PER_BIT, 16), st.integers(1, 60), st.data())
@settings(max_examples=150, deadline=None)
def test_apply_channel_gates_by_lost_bit_mask(spb, n_data, data):
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n_data, max_size=n_data)),
                    dtype=np.uint8)
    n_bits = phy.PREAMBLE_LEN + n_data
    # masks may run past the waveform
    lost = np.array(data.draw(st.lists(st.booleans(), min_size=n_bits, max_size=n_bits + 8)))
    samples = phy.modulate(bits, spb)
    expected = samples * np.repeat(~lost[:n_bits], spb).reshape(n_bits, spb)
    gated = phy.apply_channel(samples, lost)
    assert gated.shape == (n_bits, spb)
    assert gated.tobytes() == expected.tobytes()
    # the power sqrt(I^2 + Q^2) of the gated samples plus I and Q noise, I
    # noise first; a block of frames gets the same per frame
    rng = np.random.default_rng(n_data)
    i_noise = rng.normal(0.0, 0.1, samples.shape)
    q_noise = rng.normal(0.0, 0.1, samples.shape)
    noisy = phy.apply_channel(samples, lost, np.stack([i_noise, q_noise]))
    assert noisy.tobytes() == np.hypot(expected + i_noise, q_noise).tobytes()
    block = phy.apply_channel(np.stack([samples, samples]), np.stack([lost, ~lost]),
                              np.stack([[i_noise, q_noise], [q_noise, i_noise]]))
    assert block[0].tobytes() == noisy.tobytes()
    flipped = samples * np.repeat(lost[:n_bits], spb).reshape(n_bits, spb)
    assert block[1].tobytes() == np.hypot(flipped + q_noise, i_noise).tobytes()


def test_demodulate_clean_roundtrip():
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, 400, dtype=np.uint8)
    samples = phy.modulate(bits)
    rx = phy.apply_channel(samples, _no_loss(samples))
    got, flags, found = _receive(rx)
    assert found
    assert (got == bits).all()
    assert not flags.any()


def test_demodulate_is_amplitude_invariant():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, 200, dtype=np.uint8)
    samples = phy.modulate(bits)
    for amp in (1e-3, 1.0, 750.0):
        got, _, found = _receive(samples * amp)
        assert found
        assert (got == bits).all()


def test_demodulate_with_noise():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 300, dtype=np.uint8)
    samples = phy.modulate(bits)
    rx = phy.apply_channel(samples, _no_loss(samples), rng.normal(0, 0.08, (2,) + samples.shape))
    got, _, found = _receive(rx)
    assert found
    assert (got == bits).all()


def test_demodulate_flags_long_outage():
    bits = np.ones(200, dtype=np.uint8)
    samples = phy.modulate(bits)
    # 40-bit outage starting 50 bits into the data section
    samples_lost = _no_loss(samples)
    samples_lost[phy.PREAMBLE_LEN + 50 : phy.PREAMBLE_LEN + 90] = True
    rx = phy.apply_channel(samples, samples_lost)
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
    assert not _receive(noise)[2]
    # with every bit lost the power is noise alone, whose scale no decision
    # reads: fewer than 1% of such frames pass the test on bit means
    for spb, frames in ((4, 2000), (8, 2000), (phy.MAX_SAMPLES_PER_BIT, 1000)):
        samples = phy.modulate(rng.integers(0, 2, (frames, 1)), spb)
        noise = rng.standard_normal((frames, 2) + samples.shape[1:])
        power = phy.apply_channel(samples, np.ones(samples.shape[:2], dtype=bool), noise)
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
    # delayed past sample 0, is demodulated frame for frame as the plain
    # reference reads it from sample 0
    rng = np.random.default_rng(seed)
    rows = phy.PREAMBLE_LEN + n_data
    samples = phy.modulate(rng.integers(0, 2, (frames, n_data)), spb)
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
    power = phy.apply_channel(samples, lost, noise)
    bits, erasures, found = phy.demodulate(power, 8)
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
    power = np.repeat(np.concatenate([phy.PREAMBLE_BITS, means])[None, :, None], 8, axis=-1)
    bits, flags, found = phy.demodulate(power, 8)
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
    power = np.repeat(np.concatenate([phy.PREAMBLE_BITS, means])[None, :, None], 8, axis=-1)
    bits, flags, found = phy.demodulate(power, 8)
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
    samples = phy.modulate(rng.integers(0, 2, 200, dtype=np.uint8), spb).ravel()
    found = {}
    for delay in (1, 2, 4, spb, 2 * spb, 3 * spb):
        late = np.concatenate([np.zeros(delay), samples[:-delay]]).reshape(-1, spb)
        found[delay] = _receive(late)[2]
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
        phy.demodulate(np.ones((2, phy.PREAMBLE_LEN, 8)))


def test_demodulate_preamble_test_reads_preamble_bit_means():
    rng = np.random.default_rng(4)
    for spb in (phy.MIN_SAMPLES_PER_BIT, 8, 16):
        rows = phy.PREAMBLE_LEN + 9
        # a constant preamble window is not found, whatever its level
        levels = np.array([0.0, 1e-300, 0.1, 0.25, 1.0, 750.0])
        block = np.broadcast_to(levels[:, None, None], (levels.size, rows, spb))
        assert not phy.demodulate(block)[2].any()
        # the exact template is found, whatever data rows follow it
        template = np.repeat(phy.PREAMBLE_BITS.astype(float), spb).reshape(-1, spb)
        block = np.concatenate([np.broadcast_to(template, (3,) + template.shape),
                                rng.normal(0.0, 3.0, (3, rows - phy.PREAMBLE_LEN, spb))], axis=1)
        assert phy.demodulate(block)[2].all()
        # only the preamble's rows are read: noisy frames, some found and
        # some not, are found alike behind other data rows; the noise grows
        # as sqrt(spb) to keep the bit means' spread alike at every spb
        block = phy.modulate(rng.integers(0, 2, (40, rows - phy.PREAMBLE_LEN)), spb)
        power = phy.apply_channel(block, np.zeros((40, rows), dtype=bool),
                                  rng.normal(0.0, 0.4 * np.sqrt(spb), (40, 2, rows, spb)))
        found = phy.demodulate(power)[2]
        assert found.any() and not found.all()
        power[:, phy.PREAMBLE_LEN :] = rng.random((40, rows - phy.PREAMBLE_LEN, spb))
        assert np.array_equal(phy.demodulate(power)[2], found)


@pytest.mark.parametrize("spb", [8, phy.MAX_SAMPLES_PER_BIT])
def test_preamble_test_finds_what_the_slicer_reads(spb):
    # 200 unlost frames of 300 random bits: the test reads bit means, as the
    # slicer does, so it finds every frame up to sigma = 0.6, where the
    # slicer still reads the frames at 64 samples per bit
    rng = np.random.default_rng(3)
    samples = phy.modulate(rng.integers(0, 2, (200, 300)), spb)
    unlost = np.zeros(samples.shape[:2], dtype=bool)
    for part in np.split(np.arange(200), 4):  # 50 frames a part bound the memory
        normals = rng.standard_normal((part.size, 2) + samples.shape[1:])
        for sigma in (0.5, 0.55, 0.6):
            power = phy.apply_channel(samples[part], unlost[part], sigma * normals)
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
    samples = phy.modulate(bits)
    samples_lost = _no_loss(samples)
    samples_lost[phy.PREAMBLE_LEN + 100 : phy.PREAMBLE_LEN + 140] = True
    rx = phy.apply_channel(samples, samples_lost)
    _, flags, found = _receive(rx)
    assert found
    lost = np.zeros(bits.size, dtype=bool)
    lost[100:140] = True
    predicted = phy.perceived_erasures(bits, lost)
    assert (flags == predicted).all()


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
