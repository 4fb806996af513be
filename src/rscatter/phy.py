"""Tag-side frame construction and receiver-side detection.

Framing (length byte, 3..108 byte payload, CRC-16), scrambling,
unipolar NRZ/OOK line levels behind a fixed 36-bit preamble, gating by a
lost-bit mask plus additive noise, and blind demodulation of frames
synchronised to sample 0: matched filter (each bit's mean power), a
correlation test of the preamble's bit means with the preamble bits at
sample 0 alone, adaptive power threshold, and erasure flagging of long
runs of bits sliced 0.  The receiver reads the samples only through their
bit means, so its preamble test, like its slicer, gains from oversampling;
its one cost is that a few noise-only preambles in a thousand pass it.

The receiver chain carries one value per bit and takes a leading frame
axis: `modulate` returns the line levels, `apply_channel` each bit's mean
received power, and `demodulate` reads a (frames, bits) block of these bit
means of frames sent from sample 0.  Samples exist only as noise: with
(..., 2, bits, samples_per_bit) I and Q noise a bit's power is the mean of
hypot(gated level + I noise, Q noise) over its samples; without noise every
sample of a bit would hold its gated level, which is then its mean.  No
complex array is built.
"""

import binascii
import numbers
import struct
from functools import lru_cache

import numpy as np

from .errors import FrameCrcError, ParameterError

PREAMBLE_BITS = np.array(
    [int(c) for c in "101010101010101010101010110100100011"], dtype=np.uint8
)
PREAMBLE_LEN = PREAMBLE_BITS.size  # 36

MIN_PAYLOAD = 3
MAX_PAYLOAD = 108
DEFAULT_SAMPLES_PER_BIT = 8
# fewest samples per bit that receiver noise may carry
MIN_SAMPLES_PER_BIT = 4
# most samples per bit an experiment may ask for: the longest frame (108
# bytes under RS(7,1), 6252 bits) then draws about 4*10^5 I noise samples
# and as many Q, 3.2 MB each as floats
MAX_SAMPLES_PER_BIT = 64
# largest receiver noise an experiment may ask for: a thousand times the
# unit carrier amplitude (SNR -60 dB) already buries every frame, while
# from about 1e151 the demodulator's squared-power sums overflow float64
MAX_NOISE_SIGMA = 1e3
# OOK cannot tell a transmitted 0 from the off state; a run of bits read as
# 0 is flagged erased only when longer than this many bit-times.
DEFAULT_ERASE_MARGIN_BITS = 16
# minimum correlation coefficient of a frame's preamble bit means with
# PREAMBLE_BITS for the frame to be found
CORR_THRESHOLD = 0.5


def crc16(data):
    """CRC-16/CCITT-FALSE of a bytes-like object: poly 0x1021, init 0xFFFF,
    no reflection or final xor (the standard library's binascii.crc_hqx)."""
    return binascii.crc_hqx(data, 0xFFFF)


def frame_block(payloads):
    """Frames of a (frames, payload_bytes) uint8 block of payloads, one per
    row: length || payload || crc16, the CRC big-endian over length and
    payload.  Returns a (frames, 3 + payload_bytes) uint8 array."""
    payloads = np.asarray(payloads, dtype=np.uint8)
    count, size = payloads.shape
    if not (MIN_PAYLOAD <= size <= MAX_PAYLOAD):
        raise ParameterError(f"payload must be {MIN_PAYLOAD}..{MAX_PAYLOAD} bytes, got {size}")
    frames = np.empty((count, size + 3), dtype=np.uint8)
    frames[:, 0] = size
    frames[:, 1:-2] = payloads
    crcs = [crc16(body) for body in frames[:, :-2]]
    frames[:, -2:] = np.array(crcs, dtype=">u2").view(np.uint8).reshape(count, 2)
    return frames


def frame_build(payload):
    """The frame of one payload, as bytes (see frame_block)."""
    return frame_block(np.frombuffer(bytes(payload), dtype=np.uint8)[None]).tobytes()


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

    Whitening keeps low-weight words such as an all-zero frame from going on
    air as long zero runs, which a receiver could not tell from a carrier
    outage.  It bounds the zero runs of the PN sequence alone (at most 6;
    the PN sequence is scramble(zeros)), not those of scrambled data: random
    data puts about 1% of its bits in zero runs longer than 8, up to about
    20 in 2M bits, and data equal to the PN sequence goes on air as all
    zeros.  Erasure flagging can therefore flag legal zeros.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    return bits ^ _pn_sequence(bits.shape[-1])


# room for every length of a parity sweep at n = 127 (k*m for 63 values of
# k, and n*m) besides the frame and codeword lengths of a link
@lru_cache(maxsize=128)
def _pn_sequence(n):
    """The first n bits of the tiled PN sequence, a read-only array."""
    pn = np.tile(_SCRAMBLER, -(-n // _SCRAMBLER.size))[:n]
    pn.flags.writeable = False
    return pn


def modulate(bits):
    """OOK/NRZ line levels of preamble || scrambled bits, one transmission
    per row of bits: (..., bits) -> float (..., PREAMBLE_LEN + bits), 1 ->
    unit amplitude, 0 -> zero.

    Carrier and frequency shifting are abstracted away; each level is the
    ideal clean-band baseband envelope over its bit.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    levels = np.empty(bits.shape[:-1] + (PREAMBLE_LEN + bits.shape[-1],))
    levels[..., :PREAMBLE_LEN] = PREAMBLE_BITS
    levels[..., PREAMBLE_LEN:] = scramble(bits)
    return levels


def apply_channel(levels, lost_bits, noise=None):
    """Gate line levels by lost-bit masks, add I/Q noise and detect each
    bit's mean power.

    levels is (..., rows); lost_bits (..., >= rows) holds one flag per row,
    preamble included (entries past the levels are ignored), and the level
    of a lost bit is scaled to zero.  noise, when given, is (..., 2, rows,
    samples_per_bit), at least MIN_SAMPLES_PER_BIT samples per bit: each
    transmission's I noise, then its Q noise, the only samples the chain
    holds.  Returns each bit's received power sqrt(I^2 + Q^2) averaged over
    its samples, the mean of hypot(gated + I noise, Q noise); without noise,
    the gated levels.
    """
    levels, lost_bits = np.asarray(levels), np.asarray(lost_bits, dtype=bool)
    if min(levels.ndim, lost_bits.ndim) == 0 or lost_bits.shape[-1] < levels.shape[-1]:
        raise ParameterError(f"lost-bit mask of shape {lost_bits.shape} does not cover the "
                             f"levels, of shape {levels.shape}")
    rows = levels.shape[-1]
    power = levels * ~lost_bits[..., :rows]
    if noise is None:
        return power
    noise = np.asarray(noise)
    if noise.shape[:-1] != levels.shape[:-1] + (2, rows) or noise.shape[-1] < MIN_SAMPLES_PER_BIT:
        raise ParameterError(f"noise shape must be {levels.shape[:-1] + (2, rows)} (I, then Q) "
                             f"plus >= {MIN_SAMPLES_PER_BIT} samples per bit, got {noise.shape}")
    power = power[..., None] + noise[..., 0, :, :]
    np.hypot(power, noise[..., 1, :, :], out=power)
    return power.mean(axis=-1)


def flag_erasure_runs(zeros, margin_bits=DEFAULT_ERASE_MARGIN_BITS):
    """Flag the bits read as 0 (zeros) that lie in a run longer than margin_bits.

    This is the receiver's only way to separate off-state losses from legal
    zero runs under OOK; runs at or under the margin are left unflagged.
    The input is flagged row by row along its last axis: runs never
    continue from one row into the next.

    A bit is flagged iff some window of w = margin_bits + 1 consecutive
    bits around it is all read as 0: a binary opening.  Each row is
    padded with w False bits so that no window spans two rows; then every
    bit is ANDed with the w - 1 bits after it (erosion: a window starts
    here) and ORed with the w - 1 bits before it (dilation: a window
    covers here).  Both run in place on the flat array, by doubling, in
    O(log w) whole-array calls.  A margin at or past the row width flags
    nothing; a margin that is not an integer >= 0 is a ParameterError.
    """
    if isinstance(margin_bits, bool) or not isinstance(margin_bits, numbers.Integral) or margin_bits < 0:
        raise ParameterError(f"erasure margin must be an integer >= 0, got {margin_bits!r}")
    zeros = np.asarray(zeros, dtype=bool)
    width = zeros.shape[-1]
    w = int(margin_bits) + 1
    if zeros.size == 0 or w > width:
        return np.zeros(zeros.shape, dtype=bool)
    padded = np.zeros(zeros.shape[:-1] + (width + w,), dtype=bool)
    padded[..., :width] = zeros
    flat = padded.reshape(-1)
    # after a step of s, each bit holds the AND (then the OR) of span + s
    # bits; numpy buffers an overlapping in-place call, so a step reads
    # only the bits of the step before
    steps = []
    span = 1
    while span < w:
        steps.append(min(span, w - span))
        span += steps[-1]
    for s in steps:
        np.logical_and(flat[:-s], flat[s:], out=flat[:-s])
    for s in steps:
        np.logical_or(flat[s:], flat[:-s], out=flat[s:])
    return padded[..., :width]


def perceived_erasures(bits, lost, margin_bits=DEFAULT_ERASE_MARGIN_BITS):
    """Erasure flags a blind noise-free receiver would produce for known
    transmitted bits and known lost-bit positions.

    A bit reads as 0 iff it was lost or its scrambled line bit is 0, so the
    perceived erasures are exactly the over-margin runs of that predicate:
    the rule demodulate applies to the bits it slices.  Used by the
    symbol-level simulator to stay bit-exact with the sample-level
    demodulator at zero noise.  2-D inputs are one transmission per row.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    lost = np.asarray(lost, dtype=bool)
    if bits.shape != lost.shape:
        raise ParameterError("bits and lost masks differ in shape")
    return flag_erasure_runs(lost | (scramble(bits) == 0), margin_bits)


def demodulate(stats, erase_margin_bits=DEFAULT_ERASE_MARGIN_BITS):
    """Blind demodulation of a block of frames sent from sample 0.

    stats is (frames, rows), one frame's preamble and rows - PREAMBLE_LEN
    bits per row.  Returns the (frames, rows - PREAMBLE_LEN) bits and
    erasure flags and a (frames,) mask of the frames found.  The rows of
    frames not found hold no meaning.

    Each bit's statistic is its mean power over its samples (a rectangular
    matched filter sampled once per bit), as apply_channel returns it, and
    every decision reads these statistics only.  A frame is found iff the Pearson correlation coefficient of its first
    PREAMBLE_LEN statistics with PREAMBLE_BITS is at or above
    CORR_THRESHOLD and its threshold is positive; the coefficient of
    constant statistics is taken as 0.  Only sample 0 is tested; no other
    offset is searched.  A bit mean's noise falls as 1/sqrt(samples per
    bit), so oversampling steadies the test as it steadies the slicer.  At
    zero noise a frame is found iff no preamble '1' bit was lost.  Under
    noise alone, with every preamble bit lost, a few frames in a thousand
    pass the test by chance.

    The threshold is the average of the minimum '1' and the maximum '0'
    statistic over the preamble.  Data bits are sliced once, 1 at or above
    it, and descrambled; runs of line bits sliced 0 longer than
    erase_margin_bits bit-times are flagged erased, as in
    perceived_erasures, so the erasures are flag_erasure_runs(scramble(bits)
    == 0, margin).  The threshold is relative, so scaling the statistics by
    any positive constant leaves every decision unchanged.
    """
    stats = np.asarray(stats)
    if stats.ndim != 2 or stats.shape[1] <= PREAMBLE_LEN:
        raise ParameterError(f"the receiver reads (frames, rows) bit means with more than "
                             f"{PREAMBLE_LEN} rows, got shape {stats.shape}")
    pre = stats[:, :PREAMBLE_LEN]
    threshold = (pre[:, PREAMBLE_BITS == 1].min(axis=-1)
                 + pre[:, PREAMBLE_BITS == 0].max(axis=-1)) / 2.0
    dev = pre - pre.mean(axis=-1, keepdims=True)
    template = PREAMBLE_BITS - PREAMBLE_BITS.mean()
    num = dev @ template
    denom = np.sqrt(np.square(dev).sum(axis=-1) * (template @ template))
    corr = np.divide(num, denom, out=np.zeros(len(num)), where=denom > 0)
    line = stats[:, PREAMBLE_LEN:] >= threshold[:, None]
    erasures = flag_erasure_runs(~line, erase_margin_bits)
    return scramble(line), erasures, (corr >= CORR_THRESHOLD) & (threshold > 0)
