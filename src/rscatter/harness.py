"""Monte Carlo link experiments: baseline vs RS-coded backscatter.

Two modes share one timeline model and one run loop: a frame is the 36-bit
preamble followed by the payload bits (baseline) or the RS codeword bits
(coded), transmitted at m bits per channel symbol and R symbols/second over
a Pareto on/off gate that starts in the on state at the first preamble bit.
Every experiment runs one block loop (_blocks), which draws the gates of
blocks of as many frames as fit BLOCK_BITS lost-mask bits from its
generator, a block's gates in one call and in frame order, their run bounds
going straight into the buffers of the block's lost-bit mask.  Each frame's
last codeword is encoded from its data symbols alone, with the pad's
parity, the same for every frame, XORed in (_encode_frames).  A link run
reads each block's payloads as raw words of a generator of their own
(_payloads).  One frame kernel (_frames) scores every block of both modes
and of the parity sweep: it receives each transmission through one
function (_receive), and the modes differ only in delivery, the > t rule
against a decoder that gets, in bits and all at once, the codewords of a
block it could change: those of found frames, within the rule, with a bit
received wrong.

The gate is applied at bit resolution: a bit whose window overlaps an off
run counts as lost (a partially-lost symbol is a lost symbol).  Both modes
read the same lost-bit mask, preamble included.  At zero noise the receiver
is a closed form of the sent bits and the lost mask, applied without a
sample: a frame is found iff no preamble '1' bit is lost (a lost preamble
'0' bit reads as the 0 that was sent), and a run of line bits read as 0,
lost or sent as 0, longer than erasure_margin_bits is flagged erased
(phy.perceived_erasures).  Only at noise_sigma > 0 does sample mode run the
receiver chain, one value per bit, on as many frames at once as fit
WAVEFORM_BYTES of receiver noise drawn from generators of its own: it
zeroes the level of a lost bit before noise and flags the runs of bits it
slices 0 (phy.demodulate).  A codeword is delivered only when its erased
symbols stay within the correction capability t that the code selection
assumes.  Both modes score a frame by one rule: it is delivered iff its
preamble is found, no codeword is lost or fails to decode, and its
received frame bits equal the sent bits, which is exactly when
phy.frame_parse of those bits returns the sent payload.  A frame not found
has every bit wrong.  At zero noise the modes agree frame for frame when
every off run is longer than erasure_margin_bits bit-times.  A shorter off
run is not flagged, and a lost bit in it whose line bit was 1 is a symbol
error that only the sample-level decoder sees.

The parity sweep runs the same frame kernel, in symbol mode, on the same
blocks: each trial is a frame without preamble or CRC whose k*m
information bits form a single codeword, and each k sums its outcomes.
"""

import math
import numbers
from array import array
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import channel, codesearch, phy, rscodec, traffic
from .errors import InfeasibleError, ParameterError

# Lost-mask bits per block of _blocks, the block loop of every experiment: a
# block holds max(1, BLOCK_BITS // mask_bits_n) frames, so small frames go in
# large blocks, which amortise the per-call cost of the array operations and
# of the decoder, and large frames in small ones, which bound the memory of
# link runs and parity sweeps for any frame size and count.  That is 144
# frames at RS(127,95) with 108-byte payloads, 169 at RS(63,29) with 64-byte
# payloads, 294 parity trials at n = 127 and 41 frames for the largest frame,
# RS(7,1) with 108-byte payloads.  There 256 noise-free sample-mode frames at
# 64 samples per bit peaked at 47.4 MB RSS, against 45.2 MB in 32-frame blocks
# and 60.5 MB in 128-frame ones (Python 3.11, numpy 2.4, x86-64 Linux).  With
# short runs a block's run bounds outweigh its masks: at off and on shape 1.5
# and scale 0.005 us a gate holds about 17,500 runs, so a block of 144
# RS(127,95) frames with 108-byte payloads draws 2.5 million bounds and 1.3
# million off times, 8 bytes each in array('d') buffers.  300 such frames
# (seed 1, margin 4) peaked at 119.3 MB RSS in 1.6 s on a shared 2-core Xeon,
# with one draw call per block (4.2 s with one per gate); the same buffers as
# Python float lists peaked at 263 MB.
BLOCK_BITS = 2**18
# Most frames (or parity trials) per experiment.  At this cap a link run's
# frame log dominates memory: symbol-mode `rscatter simulate` peaked at 451 MB
# RSS, 1148 MB with the log in its JSON (Python 3.11, numpy 2.4, x86-64 Linux).
MAX_FRAMES = 10**6
# Bytes of a part's I (or Q) noise in sample mode.  The receiver chain runs
# only at noise_sigma > 0, in parts of as many frames of a block as this
# holds per transmission: 3 coded frames at RS(63,29), 64-byte payloads and 8
# samples per bit (with a sampled chain, 1 frame ran slower and 10 no faster
# with 1.4 MB more peak memory), and 1 when one frame's noise is larger (3.2
# MB at RS(7,1), 108 B, 64 spb).
WAVEFORM_BYTES = 384 * 1024
# The Pareto fields of an explicit scenario, which a trace replaces.
_SCENARIO_FIELDS = ("off_shape", "off_scale_min", "on_shape", "on_scale_min")


@dataclass
class ExperimentConfig:
    """One Monte Carlo experiment.

    The scenario is either explicit Pareto parameters for both states or a
    trace file to fit; `code` is an (n, k) pair or None for the optimizer.
    """

    off_shape: float = None
    off_scale_min: float = None
    on_shape: float = None
    on_scale_min: float = None
    trace: str = None
    rate: float = 1e6  # backscatter symbols/second
    code: tuple = None  # None -> optimize
    pe_threshold: float = codesearch.DEFAULT_PE_THRESHOLD
    frames: int = 1000
    payload_bytes: int = 64
    mode: str = "symbol"  # "symbol" or "sample"
    noise_sigma: float = 0.0
    seed: int = 0
    samples_per_bit: int = phy.DEFAULT_SAMPLES_PER_BIT
    erasure_margin_bits: int = phy.DEFAULT_ERASE_MARGIN_BITS

    def __post_init__(self):
        if self.mode not in ("symbol", "sample"):
            raise ParameterError(f"mode must be 'symbol' or 'sample', got {self.mode!r}")
        for name in ("rate", "pe_threshold", "noise_sigma"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ParameterError(f"{name} must be a real number, got {value!r}")
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ParameterError(f"rate must be finite and > 0, got {self.rate}")
        codesearch.check_threshold(self.pe_threshold)
        if self.code is not None:
            try:
                rscodec.RsCode(*self.code)
            except (TypeError, ParameterError) as exc:
                raise ParameterError(f"code must be None or an (n, k) pair of an admissible "
                                     f"RS code, got {self.code!r}: {exc}") from None
        # the sample-rate bounds hold in both modes, though symbol mode never
        # builds a waveform
        for name, low, high in (
            ("frames", 1, MAX_FRAMES),
            ("payload_bytes", phy.MIN_PAYLOAD, phy.MAX_PAYLOAD),
            ("noise_sigma", 0, phy.MAX_NOISE_SIGMA),
            ("seed", 0, math.inf),
            ("samples_per_bit", phy.MIN_SAMPLES_PER_BIT, phy.MAX_SAMPLES_PER_BIT),
            ("erasure_margin_bits", 0, math.inf),
        ):
            value = getattr(self, name)
            # every bounded field but the noise level is an integer
            if name != "noise_sigma" and (isinstance(value, bool)
                                          or not isinstance(value, numbers.Integral)):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
            if not (low <= value <= high):
                raise ParameterError(f"{name} must be in {low}..{high}, got {value}")
        # symbol mode models no receiver noise: it would run a noisy config
        # noise-free
        if self.mode == "symbol" and self.noise_sigma > 0:
            raise ParameterError(f"noise_sigma applies to sample mode only, got {self.noise_sigma} "
                                 "in symbol mode")
        # stats() would fit the trace and drop the Pareto fields unread
        given = [name for name in _SCENARIO_FIELDS if getattr(self, name) is not None]
        if self.trace is not None and given:
            raise ParameterError(f"give a trace or the Pareto fields, not both: trace "
                                 f"{self.trace!r} is set with {', '.join(given)}")

    def stats(self):
        if self.trace is not None:
            return traffic.fit_stats(traffic.load_trace(self.trace))
        for name in _SCENARIO_FIELDS:
            if getattr(self, name) is None:
                raise ParameterError(f"scenario field {name} missing (and no trace given)")
        return traffic.TrafficStats(
            off=traffic.ParetoParams(self.off_shape, self.off_scale_min),
            on=traffic.ParetoParams(self.on_shape, self.on_scale_min),
        )


@dataclass
class LinkReport:
    """BER/FER/throughput of one experiment, baseline and coded."""

    code_n: int
    code_k: int
    p_s: float
    predicted_pe: float
    frames: int
    ber: float
    fer: float
    throughput: float  # delivered payload bits/s, coded system
    ber_baseline: float
    fer_baseline: float
    throughput_baseline: float
    frame_log: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


@lru_cache(maxsize=4)
def _link_code(n, k):
    """The RsCode (n, k) of link runs, kept across runs so that its parity
    matrix and check image are built once, not per run or per point of a
    silent-duration sweep.  Four codes hold at most 13 MB."""
    return rscodec.RsCode(n, k)


def _link_setup(config, stats):
    """The link's code, its frame plan, p_s and predicted error rate."""
    p_s = channel.symbol_error_rate(stats, config.rate)
    if config.code is None:
        outcome = codesearch.optimize_for_ps(p_s, config.pe_threshold)
        code, predicted_pe = _link_code(outcome.code.n, outcome.code.k), outcome.predicted_pe
    else:
        code = _link_code(*config.code)
        predicted_pe = channel.post_decode_error_rate(code, p_s)
    # a frame is the length byte, the payload and the CRC-16
    plan = _frame_plan(code, config.rate, (1 + config.payload_bytes + 2) * 8)
    return code, plan, p_s, predicted_pe


def _frame_plan(code, rate, frame_bits_n, preamble_bits=phy.PREAMBLE_LEN):
    """Static geometry of a frame of frame_bits_n bits that follows
    preamble_bits preamble bits, sent bare (baseline) or as whole codewords
    of code (coded) at rate symbols/second."""
    m = code.m
    info_syms = math.ceil(frame_bits_n / m)
    n_codewords = math.ceil(info_syms / code.k)
    coded_bits_n = n_codewords * code.n * m
    bit_rate = rate * m  # bits/second
    bit_us = 1e6 / bit_rate
    coded_air_us = (preamble_bits + coded_bits_n) * bit_us
    baseline_air_us = (preamble_bits + frame_bits_n) * bit_us
    return {
        "preamble_bits": preamble_bits,
        "frame_bits_n": frame_bits_n,
        "info_syms": info_syms,
        "n_codewords": n_codewords,
        "coded_bits_n": coded_bits_n,
        "bit_rate": bit_rate,
        "coded_air_us": coded_air_us,
        "baseline_air_us": baseline_air_us,
        # each frame's gate covers both transmissions; the lost-bit mask
        # covers the preamble and the longer of the two
        "horizon_us": max(coded_air_us, baseline_air_us) + 2 * bit_us,
        "mask_bits_n": preamble_bits + max(coded_bits_n, frame_bits_n),
    }


def _block_frames(plan):
    """Frames (or parity trials) per block: as many as fit BLOCK_BITS
    lost-mask bits, and at least one."""
    return max(1, BLOCK_BITS // plan["mask_bits_n"])


def _pad_symbol(m):
    """Alternating-bit pad value (101010...).  The pad is scrambled with the
    rest of the frame, so the alternation never reaches the air: over every
    scrambler phase the scrambled pad holds zero runs of up to 8 bits (11
    at m = 5), which erasure flagging treats as any other zero run."""
    return sum(1 << i for i in range(m - 1, -1, -2))


def _encode_frames(code, plan, frame_bits):
    """Frame bits (..., frame_bits_n) -> transmitted codeword bits
    (..., coded_bits_n): the frame is zero-filled to whole symbols, padded
    with pad symbols to whole codewords and encoded codeword by codeword.

    Only the last codeword holds pad, in its last k - j info symbols after
    its j data symbols.  Parity is linear, so that codeword is the shortened
    encode of its data symbols, its parity XORed with that of the pad alone,
    which every frame shares and which is encoded once, from one row."""
    m, km = code.m, code.k * code.m
    lead = frame_bits.shape[:-1]
    frames = frame_bits.reshape(-1, plan["frame_bits_n"])
    full = (plan["n_codewords"] - 1) * km  # the bits of the codewords without pad
    parts = []
    if full:
        cw = rscodec.encode_bits(code, frames[:, :full].reshape(-1, km))
        parts.append(cw.reshape(len(frames), -1))
    # the last codeword's data bits, zero-filled to whole symbols
    data = np.zeros((len(frames), plan["info_syms"] * m - full), dtype=np.uint8)
    data[:, : frames.shape[1] - full] = frames[:, full:]
    last = rscodec.encode_bits(code, data)
    pad_syms = plan["n_codewords"] * code.k - plan["info_syms"]
    if pad_syms:
        pad = rscodec.symbols_to_bits(np.full(pad_syms, _pad_symbol(m)), m)
        pad_word = np.append(np.zeros(km - pad.size, dtype=np.uint8), pad)[None]
        pad_parity = rscodec.encode_bits(code, pad_word)[:, km:]
        width = data.shape[1]
        parts += [last[:, :width], np.broadcast_to(pad, (len(frames), pad.size)),
                  last[:, width:] ^ pad_parity]
    else:
        parts.append(last)
    return np.concatenate(parts, axis=1).reshape(lead + (plan["coded_bits_n"],))


def _codeword_erasures(flags, code):
    """Flagged symbols and lost codewords from per-bit erasure flags.

    flags is (..., n_codewords * n * m); returns the per-symbol flags
    (..., n_codewords, n) and the codewords lost under the delivery rule:
    more than t flagged symbols is a loss, the same accounting the code
    selection assumes.
    """
    bits = flags.reshape(flags.shape[:-1] + (-1, code.n, code.m))
    # OR the m bit slices in turn: faster than .any over a short last axis
    sym = bits[..., 0].copy()
    for b in range(1, code.m):
        sym |= bits[..., b]
    return sym, sym.sum(axis=-1) > code.t


def _blocks(rng, stats, plan, frames):
    """The block loop of every experiment: yields the lost-bit masks of
    frames frames, _block_frames(plan) at a time.  Each frame's gate covers
    plan["horizon_us"] and is drawn from rng in frame order by
    channel.draw_gates, one call per block, straight into the block's
    run-bound buffers."""
    size = _block_frames(plan)
    for first in range(0, frames, size):
        bounds, off = array("d"), array("d")
        channel.draw_gates(rng, stats, plan["horizon_us"], min(size, frames - first), bounds, off)
        yield channel.erasure_mask_from_gate(bounds, off, plan["bit_rate"], plan["mask_bits_n"])


def _payloads(rng, count, payload_bytes):
    """count payloads as a (count, payload_bytes) uint8 array: payload i is
    the first payload_bytes bytes, low byte first, of raw words i*w to
    (i+1)*w - 1 of rng's bit generator, w = ceil(payload_bytes / 8)."""
    w = -(-payload_bytes // 8)
    words = rng.bit_generator.random_raw(count * w)
    return words.astype("<u8", copy=False).view(np.uint8).reshape(count, 8 * w)[:, :payload_bytes]


def _receive(config, plan, lost, sent, noise):
    """The receiver's reading of a block of frames' baseline and coded
    transmissions, sent = (frame bits, codeword bits) one frame per row
    after the plan's preamble over the lost-bit masks lost: for each, the
    bits received wrong (received XOR sent), the erasure flags and the
    frames found; rows not found hold no meaning.  At zero noise that is
    the chain's closed form (tests/test_phy.py): a lost bit reads as the PN
    bit after descrambling, the flags are phy.perceived_erasures, and the
    baseline, which no delivery reads, has none.  At noise_sigma > 0 each
    transmission runs the chain in parts of WAVEFORM_BYTES, each part's I
    and Q noise one draw from that transmission's generator in noise."""
    pre, margin = plan["preamble_bits"], config.erasure_margin_bits
    if config.noise_sigma == 0:
        found = ~(lost[:, :pre] & (phy.PREAMBLE_BITS[:pre] == 1)).any(axis=1)
        masks = [lost[:, pre : pre + bits.shape[1]] for bits in sent]
        wrong = [mask & (phy.scramble(bits) == 1) for bits, mask in zip(sent, masks)]
        flags = phy.perceived_erasures(sent[1], masks[1], margin)
        return (wrong[0], None, found), (wrong[1], flags, found)
    received = []
    for bits, gen in zip(sent, noise):
        shape = (pre + bits.shape[1], config.samples_per_bit)
        step = max(1, WAVEFORM_BYTES // (math.prod(shape) * 8))
        parts = []
        for lo in range(0, len(bits), step):
            part, mask = bits[lo : lo + step], lost[lo : lo + step]
            draws = gen.normal(0.0, config.noise_sigma, (len(part), 2) + shape)
            parts.append(phy.demodulate(phy.apply_channel(phy.modulate(part), mask, draws), margin))
            del draws  # free a part's noise before the next part's
        rx, flags, found = [np.concatenate(arrays) for arrays in zip(*parts)]
        received.append((rx != bits, flags, found))
    return received


def _frames(config, code, plan, frame_bits, lost, noise=(None, None)):
    """The baseline and the coded transmission of a block of frames, one per
    row, received with the generators in noise, as the (found, wrong,
    failed) that _outcomes scores.  In symbol mode a codeword is delivered
    iff it has at most t flagged symbols.  Sample mode decodes at once, in
    bits, the codewords of found frames that this rule leaves to the
    decoder and that have a wrong bit; a codeword received as sent has zero
    syndromes and at most t erasures, so the decoder would return it
    unchanged.  Under noise alone a few frames in a thousand are found, and
    fail with their real bit errors."""
    tx_bits = _encode_frames(code, plan, frame_bits)
    (base, _, base_found), (wrong, flags, found) = _receive(
        config, plan, lost, (frame_bits, tx_bits), noise)
    erased, failed = _codeword_erasures(flags, code)
    shape, width = failed.shape + (code.n * code.m,), code.k * code.m
    wrong = wrong.reshape(shape)
    if config.mode == "symbol":  # a lost codeword's flagged info bits are wrong
        wrong = wrong[..., :width] & flags.reshape(shape)[..., :width]
        wrong &= failed[..., None]
    else:
        tx_bits = tx_bits.reshape(shape)
        failed[~found] = True  # frames not found are not decoded
        todo = ~failed & wrong.any(axis=2)
        info, decoded = rscodec.decode_block(code, tx_bits[todo] ^ wrong[todo], erased[todo])
        failed[todo] = ~decoded
        wrong = wrong[..., :width].copy()  # a codeword not decoded keeps its received bits
        wrong[todo] = info != tx_bits[todo][:, :width]
    wrong = wrong.reshape(len(wrong), -1)[:, : plan["frame_bits_n"]]
    return (base_found, base, False), (found, wrong, failed.any(axis=1))


def _outcomes(transmissions):
    """(4, frames) outcomes: each frame's baseline error, baseline bit
    errors, coded error and coded bit errors.

    transmissions are the baseline's, then the coded, (found, wrong,
    failed): preamble found per frame, a (frames, frame_bits_n) mask of
    wrong frame bits, and some codeword lost or not decoded per frame.
    """
    rows = []
    for found, wrong, failed in transmissions:
        rows += [~found | failed | wrong.any(axis=1),
                 np.where(found, wrong.sum(axis=1), wrong.shape[1])]
    return np.array(rows)


def _rates(sums, frames, frame_bits_n):
    """Baseline and coded BER and FER of frames frames from the sums over
    them of their _outcomes rows, keyed as in the sweep rows."""
    fe_base, bit_err_base, fe_coded, bit_err_coded = (int(v) for v in sums)
    bits = frames * frame_bits_n
    return {"ber_baseline": bit_err_base / bits, "ber_coded": bit_err_coded / bits,
            "fer_baseline": fe_base / frames, "fer_coded": fe_coded / frames}


def run(config):
    """One Monte Carlo link experiment, in symbol or sample mode.

    Frames are drawn and scored a block of _block_frames(plan) at a time
    by one frame kernel, _frames.  Both modes draw a block's gates from the
    generator seed and its payloads from [seed, 3], so a seed gives the
    same frames in both modes and at every noise level; sample mode draws
    the baseline's noise from the generator [seed, 2, 0] and the coded
    one's from [seed, 2, 1].  Each generator is read in frame order and
    each frame is scored on its own, so the outcomes do not depend on the
    block size.
    """
    stats = config.stats()
    code, plan, p_s, predicted_pe = _link_setup(config, stats)
    rng, payload_rng = np.random.default_rng(config.seed), np.random.default_rng([config.seed, 3])
    noise = (None, None)
    if config.mode == "sample":
        noise = [np.random.default_rng([config.seed, 2, i]) for i in range(2)]

    sums = np.zeros(4, dtype=np.int64)
    errors = []  # per block, the frames' baseline and coded errors
    for lost in _blocks(rng, stats, plan, config.frames):
        payloads = _payloads(payload_rng, len(lost), config.payload_bytes)
        frame_bits = np.unpackbits(phy.frame_block(payloads), axis=1)
        block = _frames(config, code, plan, frame_bits, lost, noise)
        outcomes = _outcomes(block)
        sums += outcomes.sum(axis=1)
        errors.append(outcomes[[0, 2]])

    rates = _rates(sums, config.frames, plan["frame_bits_n"])
    fer, fer_base = rates["fer_coded"], rates["fer_baseline"]
    payload_bits = config.payload_bytes * 8
    return LinkReport(
        code_n=code.n, code_k=code.k, p_s=p_s, predicted_pe=predicted_pe, frames=config.frames,
        ber=rates["ber_coded"], fer=fer,
        throughput=payload_bits * (1.0 - fer) / (plan["coded_air_us"] / 1e6),
        ber_baseline=rates["ber_baseline"], fer_baseline=fer_base,
        throughput_baseline=payload_bits * (1.0 - fer_base) / (plan["baseline_air_us"] / 1e6),
        frame_log=[
            {"frame": fi, "baseline_error": bool(b), "coded_error": bool(c)}
            for fi, (b, c) in enumerate(zip(*np.concatenate(errors, axis=1)))
        ],
    )


def sweep_parity(config, n=127):
    """Block error rate per odd k (n-2 down to 1) at fixed codeword length.

    Each trial is a symbol-level frame without preamble or CRC whose k
    random information symbols form a single codeword over its own gate,
    so the airtime exposure (n*m bit-times) is identical for every k and
    the measured trend isolates the correction capability.  The uncoded
    baseline sends the k information symbols bare.  Sample mode is
    rejected: the sweep has no waveform receiver.  Trials are scored in the
    blocks of _blocks; each k sums its outcomes over them and draws its info
    symbols from the generator [seed, 1, k], which carries on across blocks.
    """
    if config.mode == "sample":
        raise ParameterError("the parity sweep runs in symbol mode only, got mode 'sample'")
    stats = config.stats()
    # common random gates across all parity points, masked by the plan that
    # every k shares (one horizon, n*m mask bits): each trial's erasure burden
    # is then fixed while t grows, so the trend is not blurred by independent
    # sampling noise per point
    code = rscodec.RsCode(n, n - 2)
    m, ks = code.m, range(n - 2, 0, -2)
    plan = _frame_plan(code, config.rate, code.k * m, preamble_bits=0)
    info_rngs = [np.random.default_rng([config.seed, 1, k]) for k in ks]
    sums = np.zeros((len(ks), 4), dtype=np.int64)
    for lost in _blocks(np.random.default_rng([config.seed, 0]), stats, plan, config.frames):
        for row, k, info_rng in zip(sums, ks, info_rngs):
            # a fresh code per block gathers G2 afresh from its cached logs:
            # keeping all 63 images at n = 127 would hold 32 MB
            code = rscodec.RsCode(n, k)
            info = rscodec.symbols_to_bits(info_rng.integers(0, 1 << m, (len(lost), k)), m)
            plan_k = _frame_plan(code, config.rate, k * m, preamble_bits=0)
            transmissions = _frames(config, code, plan_k, info.reshape(len(lost), -1), lost)
            row += _outcomes(transmissions).sum(axis=1)
    rows = []
    for k, row in zip(ks, sums):
        rates = _rates(row, config.frames, k * m)
        throughput = k * m * (1.0 - rates["fer_coded"]) * plan["bit_rate"] / plan["coded_bits_n"]
        rows.append({"parameter": k, **rates, "throughput": throughput})
    return rows


def sweep_silent(config, mean_silent_us_values):
    """One experiment per mean off duration; the off shape is kept and the
    scale is set to match the requested mean."""
    stats = config.stats()
    shape = stats.off.shape
    if shape <= 1.0:
        raise InfeasibleError("off shape <= 1; mean silent duration undefined")
    rows = []
    for mean in mean_silent_us_values:
        rep = run(replace(
            config, off_shape=shape, off_scale_min=mean * (shape - 1.0) / shape,
            on_shape=stats.on.shape, on_scale_min=stats.on.scale_min, trace=None,
        ))
        rows.append({
            "parameter": mean,
            "ber_baseline": rep.ber_baseline,
            "ber_coded": rep.ber,
            "fer_baseline": rep.fer_baseline,
            "fer_coded": rep.fer,
            "throughput": rep.throughput,
        })
    return rows
