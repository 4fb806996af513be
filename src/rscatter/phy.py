"""Tag-side frame construction and receiver-side detection.

Framing (length byte, 3..108 byte payload, CRC-16), scrambling,
unipolar NRZ/OOK sample generation behind a fixed 36-bit preamble, sample
gating by a lost-bit mask plus additive noise, and blind demodulation:
matched filter, preamble cross-correlation timing, adaptive power
threshold, and erasure flagging of long zero-power runs.

A waveform is one (bits, samples_per_bit) array: `modulate` returns the real
envelope, `apply_channel` the complex I + jQ samples `demodulate` reads.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FrameCrcError, ParameterError

PREAMBLE_BITS = np.array(
    [int(c) for c in "101010101010101010101010110100100011"], dtype=np.uint8
)
PREAMBLE_LEN = PREAMBLE_BITS.size  # 36

MIN_PAYLOAD = 3
MAX_PAYLOAD = 108
DEFAULT_SAMPLES_PER_BIT = 8
# fewest samples per bit a waveform may carry
MIN_SAMPLES_PER_BIT = 4
# most samples per bit an experiment may ask for: the longest frame (108
# bytes under RS(7,1), 6252 bits) then holds about 4*10^5 samples, 3.2 MB
# as a float envelope and 6.4 MB as complex I + jQ
MAX_SAMPLES_PER_BIT = 64
# largest receiver noise an experiment may ask for: a thousand times the
# unit carrier amplitude (SNR -60 dB) already buries every frame, while
# from about 1e151 the demodulator's squared-power sums overflow float64
MAX_NOISE_SIGMA = 1e3
# OOK cannot tell a transmitted 0 from the off state; a below-floor run is
# flagged erased only when longer than this many bit-times.
DEFAULT_ERASE_MARGIN_BITS = 16
# a bit statistic under this fraction of the decision threshold is below floor
FLOOR_FRACTION = 0.5
# minimum preamble correlation coefficient for a frame to be detected
CORR_THRESHOLD = 0.5


def _crc16_shift8(crc):
    for _ in range(8):
        crc = ((crc << 1) ^ 0x1021 if crc & 0x8000 else crc << 1) & 0xFFFF
    return crc


# register update for each value of the register's top byte xor a data byte
_CRC16_TABLE = [_crc16_shift8(top << 8) for top in range(256)]


def crc16(data):
    """CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection/xor."""
    crc = 0xFFFF
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC16_TABLE[(crc >> 8) ^ byte]
    return crc


def frame_build(payload):
    """length || payload || crc16, with the CRC over length and payload."""
    payload = bytes(payload)
    if not (MIN_PAYLOAD <= len(payload) <= MAX_PAYLOAD):
        raise ParameterError(
            f"payload must be {MIN_PAYLOAD}..{MAX_PAYLOAD} bytes, got {len(payload)}"
        )
    body = bytes([len(payload)]) + payload
    return body + struct.pack(">H", crc16(body))


def frame_parse(buf):
    """Validate length and CRC of a frame buffer; returns the payload.

    Trailing bytes past the framed region (symbol padding) are ignored.
    """
    buf = bytes(buf)
    if len(buf) < 1:
        raise ParameterError("empty frame buffer")
    length = buf[0]
    if not (MIN_PAYLOAD <= length <= MAX_PAYLOAD) or len(buf) < length + 3:
        raise FrameCrcError("frame length field invalid or buffer truncated")
    body = buf[: length + 1]
    (crc,) = struct.unpack(">H", buf[length + 1 : length + 3])
    if crc16(body) != crc:
        raise FrameCrcError("CRC mismatch")
    return body[1:]


def bytes_to_bits(data):
    """MSB-first bit unpacking."""
    return np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))


def bits_to_bytes(bits):
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 8:
        raise ParameterError("bit count must be a multiple of 8")
    return np.packbits(bits).tobytes()


def _scrambler_base():
    """One period of the x^7 + x^6 + 1 m-sequence, rotated to start and end
    with a 1 so zero runs never span the tiling boundary."""
    state = 0x7F
    seq = []
    for _ in range(127):
        seq.append(state & 1)
        feedback = (state ^ (state >> 1)) & 1
        state = (state >> 1) | (feedback << 6)
    base = np.array(seq, dtype=np.uint8)
    ones = np.flatnonzero((base == 1) & (np.roll(base, 1) == 1))
    return np.roll(base, -int(ones[0]))


_SCRAMBLER = _scrambler_base()


def scramble(bits):
    """XOR with the fixed PN sequence (self-inverse), along the last axis.

    Whitening keeps every transmitted bit stream free of long zero runs --
    an unscrambled low-weight word would be indistinguishable from a
    carrier outage -- and bounds legal zero runs so erasure flagging has a
    sound margin.  The PN sequence itself is scramble(zeros).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.shape[-1]
    return bits ^ np.tile(_SCRAMBLER, -(-n // _SCRAMBLER.size))[:n]


def _waveform(samples):
    """samples as a (bits, samples_per_bit) array; ParameterError unless it
    is 2-D with at least MIN_SAMPLES_PER_BIT samples per bit."""
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[1] < MIN_SAMPLES_PER_BIT:
        shape = f"(bits, >= {MIN_SAMPLES_PER_BIT} samples per bit)"
        raise ParameterError(f"waveform shape must be {shape}, got {samples.shape}")
    return samples


def modulate(bits, samples_per_bit=DEFAULT_SAMPLES_PER_BIT):
    """OOK/NRZ envelope of preamble || scrambled bits, a float (PREAMBLE_LEN +
    bits, samples_per_bit) array: 1 -> unit amplitude, 0 -> zero.

    Carrier and frequency shifting are abstracted away; the envelope is the
    ideal clean-band baseband signal.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    levels = np.concatenate([PREAMBLE_BITS, scramble(bits)]).astype(float)
    return _waveform(np.repeat(levels[:, None], samples_per_bit, axis=1))


def apply_channel(samples, lost_bits, noise_sigma, rng):
    """Gate a waveform by a lost-bit mask and add Gaussian I/Q noise.

    lost_bits holds one flag per waveform row, preamble included (entries
    past the waveform are ignored); every sample of a lost bit is scaled to
    zero.  Returns the complex I + jQ waveform, the I noise drawn before
    the Q noise.
    """
    samples = _waveform(samples)
    rows = samples.shape[0]
    lost_bits = np.asarray(lost_bits, dtype=bool)
    if lost_bits.size < rows:
        raise ParameterError(f"lost-bit mask ({lost_bits.size}) shorter than waveform ({rows})")
    rx = (samples * ~lost_bits[:rows, None]).astype(complex)
    if noise_sigma > 0:
        rx.real += rng.normal(0.0, noise_sigma, samples.shape)
        rx.imag += rng.normal(0.0, noise_sigma, samples.shape)
    return rx


def _bit_statistics(power, start, count, spb):
    """Mean power over each bit window (rectangular matched filter output
    sampled once per bit)."""
    seg = power[start : start + count * spb]
    return seg.reshape(count, spb).mean(axis=1)


def _preamble_corr(signal, spb):
    """Correlation coefficient of the signal with the preamble template
    (PREAMBLE_BITS held spb samples per bit) at every offset; 0 where the
    signal window is constant, empty when the signal is shorter.

    The template is constant over each bit, so its correlation with a
    window is the sum of the one-bit window sums at the template's '1' bits
    minus the template mean times the whole window's sum: box sums from one
    cumulative sum instead of a correlation with the full template.
    """
    n = PREAMBLE_LEN * spb
    if signal.size < n:
        return np.empty(0)
    mean = PREAMBLE_BITS.mean()
    tpl_norm = np.sqrt(spb * np.sum((PREAMBLE_BITS - mean) ** 2))
    count = signal.size - n + 1
    # in-place arithmetic: fresh stream-sized temporaries cost more than
    # the arithmetic on them
    csum = np.zeros(signal.size + 1)
    np.cumsum(signal, out=csum[1:])
    bit_sum = csum[spb:] - csum[:-spb]
    ones = np.flatnonzero(PREAMBLE_BITS) * spb
    num = bit_sum[ones[0] : ones[0] + count].copy()
    for o in ones[1:]:
        num += bit_sum[o : o + count]
    win_sum = csum[n:] - csum[:-n]
    num -= mean * win_sum
    # n times each window's variance (sum of squares minus squared sum / n),
    # then the denominator
    np.cumsum(np.square(signal), out=csum[1:])
    denom = csum[n:] - csum[:-n]
    win_sum *= win_sum
    win_sum /= n
    denom -= win_sum
    np.maximum(denom, 0.0, out=denom)
    np.sqrt(denom, out=denom)
    denom *= tpl_norm
    return np.divide(num, denom, out=np.zeros(count), where=denom > 0)


def flag_erasure_runs(below_floor, margin_bits=DEFAULT_ERASE_MARGIN_BITS):
    """Flag maximal runs of below-floor bits longer than margin_bits.

    This is the receiver's only way to separate off-state losses from legal
    zero runs under OOK; runs at or under the margin are left unflagged.
    A 2-D (rows, bits) array is flagged row by row: runs never continue
    from one row into the next.
    """
    below = np.asarray(below_floor, dtype=bool)
    if below.size == 0:
        return np.zeros(below.shape, dtype=bool)
    # a False pad column ends every run within its own row
    padded = np.zeros(below.shape[:-1] + (below.shape[-1] + 1,), dtype=np.int8)
    padded[..., :-1] = below
    d = np.diff(padded.ravel(), prepend=np.int8(0))
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    # with the short runs' edges removed, the running sum of d is 1
    # exactly inside the long runs
    short = ends - starts <= margin_bits
    d[starts[short]] = 0
    d[ends[short]] = 0
    flags = np.cumsum(d, dtype=np.int8).astype(bool)
    return flags.reshape(padded.shape)[..., :-1]


def perceived_erasures(bits, lost, margin_bits=DEFAULT_ERASE_MARGIN_BITS):
    """Erasure flags a blind noise-free receiver would produce for known
    transmitted bits and known lost-bit positions.

    A bit reads as zero power iff it was lost or its scrambled line bit is
    0, so the perceived erasures are exactly the over-margin runs of that
    predicate.  Used by the symbol-level simulator to stay bit-exact with
    the sample-level demodulator at zero noise.  2-D inputs are one
    transmission per row.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    lost = np.asarray(lost, dtype=bool)
    if bits.shape != lost.shape:
        raise ParameterError("bits and lost masks differ in shape")
    return flag_erasure_runs(lost | (scramble(bits) == 0), margin_bits)


@dataclass
class DemodResult:
    bits: np.ndarray
    erasures: np.ndarray
    preamble_end: int
    power_threshold: float


def demodulate(samples, erase_margin_bits=DEFAULT_ERASE_MARGIN_BITS):
    """Blind demodulation of one frame; returns None when no preamble is found.

    Per-sample power sqrt(I^2+Q^2) is matched-filtered by a one-bit moving
    average; the preamble end is located by the normalized cross-correlation
    peak; the decision threshold is the average of the minimum '1' and
    maximum '0' statistics over the preamble; bits are sliced at one
    statistic per bit from the preamble-derived timing and descrambled.
    Below-floor runs longer than erase_margin_bits bit-times are flagged
    erased.

    All thresholds are relative, so scaling the waveform amplitude by any
    positive constant leaves every decision unchanged.
    """
    samples = _waveform(samples)
    spb = samples.shape[1]
    power = np.hypot(samples.real, samples.imag).ravel()
    if power.size < (PREAMBLE_LEN + 1) * spb:
        return None
    corr = _preamble_corr(power, spb)
    start = int(np.argmax(corr))
    if corr[start] < CORR_THRESHOLD:
        return None
    pre_stats = _bit_statistics(power, start, PREAMBLE_LEN, spb)
    ones = pre_stats[PREAMBLE_BITS == 1]
    zeros = pre_stats[PREAMBLE_BITS == 0]
    threshold = (ones.min() + zeros.max()) / 2.0
    if threshold <= 0:
        return None
    end = start + PREAMBLE_LEN * spb
    n_bits = (power.size - end) // spb
    stats = _bit_statistics(power, end, n_bits, spb)
    bits = scramble((stats >= threshold).astype(np.uint8))
    below_floor = stats < FLOOR_FRACTION * threshold
    erasures = flag_erasure_runs(below_floor, erase_margin_bits)
    return DemodResult(
        bits=bits, erasures=erasures, preamble_end=end, power_threshold=threshold
    )
