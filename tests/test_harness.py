"""Monte Carlo link experiments: configuration, both simulation modes,
cross-mode agreement, and the sweep helpers."""

import dataclasses
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from draw_oracle import draw_frames_loop, draw_gate_loop, run_bounds
from traffic_oracle import pareto_sample
from rscatter.errors import InfeasibleError, ParameterError
from rscatter import channel, harness, phy, rscodec, traffic


def _config(**kw):
    base = dict(
        off_shape=1.2,
        off_scale_min=2.0,
        on_shape=1.3,
        on_scale_min=50.0,
        frames=40,
        payload_bytes=16,
        code=(15, 9),
        seed=99,
    )
    base.update(kw)
    return harness.ExperimentConfig(**base)


def test_config_validation():
    for bad in (0, harness.MAX_FRAMES + 1, 10**11):
        with pytest.raises(ParameterError):
            _config(frames=bad)
    _config(frames=harness.MAX_FRAMES)
    with pytest.raises(ParameterError):
        _config(payload_bytes=2)
    with pytest.raises(ParameterError):
        _config(payload_bytes=109)
    with pytest.raises(ParameterError):
        _config(mode="fast")
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            _config(noise_sigma=bad)
    # symbol mode models no receiver noise, so it takes none
    for sigma in (0.3, phy.MAX_NOISE_SIGMA):
        with pytest.raises(ParameterError, match="sample mode only"):
            _config(mode="symbol", noise_sigma=sigma)
        _config(mode="sample", noise_sigma=sigma)
    for bad in (0.0, -1e6, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            _config(rate=bad)
    # the threshold is checked whether the code is given or searched for
    for code in ((15, 9), None):
        for bad in (0.0, 1.0, 2.0, float("nan")):
            with pytest.raises(ParameterError):
                _config(code=code, pe_threshold=bad)
    with pytest.raises(ParameterError):
        _config(seed=-1)
    with pytest.raises(ParameterError):
        _config(erasure_margin_bits=-1)
    # the sample-rate floor and cap hold in both modes, though symbol mode
    # never builds a waveform
    for mode in ("symbol", "sample"):
        for bad in (phy.MIN_SAMPLES_PER_BIT - 1, phy.MAX_SAMPLES_PER_BIT + 1, 100000):
            with pytest.raises(ParameterError):
                _config(mode=mode, samples_per_bit=bad)
        _config(mode=mode, samples_per_bit=phy.MIN_SAMPLES_PER_BIT)
        _config(mode=mode, samples_per_bit=phy.MAX_SAMPLES_PER_BIT)
    _config(noise_sigma=0.0, seed=0, erasure_margin_bits=0)
    # the counts, the seed and the sample rate are integers, not bools
    for name in ("frames", "payload_bytes", "seed", "samples_per_bit", "erasure_margin_bits"):
        for bad in (4.5, 16.0, True, "16", None):
            with pytest.raises(ParameterError, match=f"{name} must be an integer"):
                _config(**{name: bad})
        _config(**{name: np.int64(16)})
    with pytest.raises(ParameterError, match="erasure_margin_bits must be an integer"):
        _config(erasure_margin_bits=float("inf"))
    # the rate, the threshold and the noise level are real numbers, not bools
    for name in ("rate", "pe_threshold", "noise_sigma"):
        for bad in ("1e-3", None, True):
            with pytest.raises(ParameterError, match=f"{name} must be a real number"):
                _config(**{name: bad})
    _config(rate=np.float64(1e6), pe_threshold=np.float64(1e-3), noise_sigma=np.float64(0.0))
    # the code is None or an (n, k) pair of integers that names an RS code
    for bad in ((15, 9.0), (15.0, 9), (15, True), (15,), (15, 9, 3), "15,9", 15, (15, 8)):
        with pytest.raises(ParameterError, match="code must be None or an"):
            _config(code=bad)
    _config(code=(np.int64(15), np.int64(9)))
    _config(code=None)


@st.composite
def _flag_blocks(draw):
    """Per-bit erasure flags of a block of codewords and their code: leading
    shape of 1 or 2 axes, rows random, all False or all True."""
    m = draw(st.integers(3, 7))
    n = (1 << m) - 1
    code = rscodec.RsCode(n, 2 * draw(st.integers(0, (n - 3) // 2)) + 1)
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    words = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flags = rng.random(lead + (words * code.n * code.m,)) < draw(st.sampled_from([0.02, 0.2, 0.9]))
    rows = flags.reshape(-1, flags.shape[-1])
    for row in rows:
        kind = draw(st.sampled_from(["random", "none", "all"]))
        if kind != "random":
            row[:] = kind == "all"
    return code, flags


@given(_flag_blocks())
@settings(max_examples=100, deadline=None)
def test_codeword_erasures_match_any_over_symbol_bits(case):
    code, flags = case
    sym, lost = harness._codeword_erasures(flags, code)
    expected = flags.reshape(flags.shape[:-1] + (-1, code.n, code.m)).any(axis=-1)
    assert sym.dtype == bool and np.array_equal(sym, expected)
    assert np.array_equal(lost, expected.sum(axis=-1) > code.t)


def test_config_requires_scenario():
    cfg = harness.ExperimentConfig(off_shape=1.2, off_scale_min=2.0, frames=1)
    with pytest.raises(ParameterError):
        cfg.stats()


def test_frame_plan_geometry():
    from rscatter.rscodec import RsCode

    plan = harness._frame_plan(RsCode(63, 45), 1e6, (1 + 64 + 2) * 8)
    assert plan["preamble_bits"] == phy.PREAMBLE_LEN
    assert plan["frame_bits_n"] == (1 + 64 + 2) * 8  # 536
    assert plan["info_syms"] == 90  # ceil(536 / 6)
    assert plan["n_codewords"] == 2  # ceil(90 / 45)
    assert plan["coded_bits_n"] == 2 * 63 * 6
    assert plan["bit_rate"] == 6e6
    assert plan["baseline_air_us"] == pytest.approx((36 + 536) / 6, rel=1e-12)
    assert plan["coded_air_us"] == pytest.approx((36 + 756) / 6, rel=1e-12)
    assert plan["mask_bits_n"] == 36 + 756
    # a parity-sweep trial: k info symbols, no preamble, one codeword, no pad
    plan = harness._frame_plan(RsCode(63, 45), 1e6, 45 * 6, preamble_bits=0)
    assert (plan["info_syms"], plan["n_codewords"]) == (45, 1)
    assert plan["coded_bits_n"] == plan["mask_bits_n"] == 63 * 6
    assert plan["horizon_us"] == pytest.approx((63 * 6 + 2) / 6, rel=1e-12)


def test_pad_symbols_alternate():
    # padding must never modulate as a long zero run
    assert harness._pad_symbol(6) == 0b101010
    assert harness._pad_symbol(7) == 0b1010101
    assert harness._pad_symbol(3) == 0b101


@pytest.mark.parametrize("code, payload_bytes", [
    ((127, 95), 108),  # the symbol workload: the second codeword holds 63 pad symbols
    ((63, 29), 64),  # the sample workload: the fourth holds 26
    ((15, 9), 16),  # five codewords, the last holding 2 data and 7 pad symbols
    ((127, 125), 16),  # one codeword, which carries the pad
    ((15, 9), None),  # a parity-sweep trial: one codeword, no pad
])
def test_encoded_frames_equal_the_padded_encode(code, payload_bytes):
    # each frame's last codeword is encoded from its data symbols with the
    # pad's parity XORed in; that equals the whole-codeword encode of the
    # zero-filled, padded info bits
    code = rscodec.RsCode(*code)
    if payload_bytes is None:
        plan = harness._frame_plan(code, 1e6, code.k * code.m, preamble_bits=0)
    else:
        plan = harness._frame_plan(code, 1e6, (1 + payload_bytes + 2) * 8)
    m, rows = code.m, 12
    pad_syms = plan["n_codewords"] * code.k - plan["info_syms"]
    tail = np.concatenate([
        np.zeros(plan["info_syms"] * m - plan["frame_bits_n"], dtype=np.uint8),
        rscodec.symbols_to_bits(np.full(pad_syms, harness._pad_symbol(m)), m),
    ])
    frame_bits = np.random.default_rng(5).integers(0, 2, (rows, plan["frame_bits_n"]),
                                                   dtype=np.uint8)
    info = np.hstack([frame_bits, np.tile(tail, (rows, 1))])
    want = rscodec.encode_bits(code, info.reshape(-1, code.k * m)).reshape(rows, -1)
    got = harness._encode_frames(code, plan, frame_bits)
    assert got.dtype == np.uint8 and np.array_equal(got, want)
    lead = harness._encode_frames(code, plan, frame_bits.reshape(3, 4, -1))
    assert np.array_equal(lead, want.reshape(3, 4, -1))


def test_symbol_level_report_fields():
    rep = harness.run(_config(mode="symbol"))
    assert rep.frames == 40
    assert (rep.code_n, rep.code_k) == (15, 9)
    assert 0.0 <= rep.fer <= 1.0
    assert 0.0 <= rep.fer_baseline <= 1.0
    assert len(rep.frame_log) == 40
    assert 0.0 <= rep.throughput < 16 * 8 * 1e6  # cannot beat one payload per us
    d = rep.to_dict()
    assert d["fer"] == rep.fer and len(d["frame_log"]) == 40


def test_modes_agree_frame_by_frame_without_noise(monkeypatch):
    # spb 4 and short off runs: some frame has an off run that starts
    # within the first of a bit's 4 samples, which must gate that whole bit
    first_sample = _config(mode="symbol", frames=40, code=(15, 9), payload_bytes=32, seed=14,
                           off_shape=1.5, off_scale_min=2.0, on_shape=1.2, on_scale_min=60.0,
                           samples_per_bit=4, erasure_margin_bits=8)
    for cfg_sym in (
        _config(mode="symbol", frames=30, code=(63, 45), payload_bytes=32,
                off_shape=1.1, off_scale_min=3.0, on_shape=1.2, on_scale_min=60.0,
                erasure_margin_bits=8),
        first_sample,
        # on runs of a few microseconds lose many preambles: a frame whose
        # preamble is lost counts every frame bit as a bit error in both modes
        _config(mode="symbol", frames=200, code=(15, 9), payload_bytes=16, seed=5,
                off_shape=1.5, off_scale_min=3.0, on_shape=1.5, on_scale_min=2.0,
                erasure_margin_bits=8),
    ):
        cfg_samp = dataclasses.replace(cfg_sym, mode="sample")
        rs = harness.run(cfg_sym)
        rp = harness.run(cfg_samp)
        assert [f["coded_error"] for f in rs.frame_log] == [f["coded_error"] for f in rp.frame_log]
        assert [f["baseline_error"] for f in rs.frame_log] == [f["baseline_error"] for f in rp.frame_log]
        assert rs.fer == rp.fer
        assert rs.fer_baseline == rp.fer_baseline
        assert rs.ber == rp.ber
        assert rs.ber_baseline == rp.ber_baseline

    # the seed gives first_sample such a frame: an off run starts where an on
    # run ends, within the lost mask's window and the first quarter of a bit.
    # Each gate's bounds take an even count of places, so the odd places of
    # a block's bounds are the ends of its gates' on runs and their infs
    draw_gates = channel.draw_gates
    blocks = []

    def spy(rng, stats, total_us, count, bounds, off):
        draw_gates(rng, stats, total_us, count, bounds, off)
        blocks.append(np.array(bounds))

    monkeypatch.setattr(channel, "draw_gates", spy)
    harness.run(first_sample)
    plan = harness._frame_plan(rscodec.RsCode(15, 9), first_sample.rate, (1 + 32 + 2) * 8)
    starts = np.concatenate([b[1::2] for b in blocks]) * plan["bit_rate"] / 1e6
    starts = starts[starts < plan["mask_bits_n"]]
    assert (starts % 1 < 1 / first_sample.samples_per_bit).any()


@pytest.mark.parametrize("seed", range(4))
def test_symbol_mode_finds_frames_by_the_receivers_rule(seed):
    # at zero noise the receiver finds a frame iff no preamble '1' bit is
    # lost, and symbol mode finds the same frames: a lost preamble '0' bit
    # reads as the 0 that was sent
    rng = np.random.default_rng(seed)
    code = rscodec.RsCode(15, 11)
    frame_bits = rng.integers(0, 2, (300, (1 + 8 + 2) * 8), dtype=np.uint8)
    plan = harness._frame_plan(code, 1e6, frame_bits.shape[1])
    lost = rng.random((300, plan["mask_bits_n"])) < rng.choice([0.01, 0.05, 0.3], (300, 1))
    (found, _, _), _ = harness._frames(
        _config(erasure_margin_bits=8), code, plan, frame_bits, lost)
    stats = phy.apply_channel(phy.modulate(frame_bits), lost)
    assert np.array_equal(found, phy.demodulate(stats, 8)[2])
    ones_lost = (lost[:, : phy.PREAMBLE_LEN] & (phy.PREAMBLE_BITS == 1)).any(axis=1)
    assert np.array_equal(found, ~ones_lost)
    # some frames lost only preamble '0' bits, and they are found
    assert (found & lost[:, : phy.PREAMBLE_LEN].any(axis=1)).any()


@pytest.mark.parametrize("sigma", [0.3, 0.5])
def test_receiver_erasures_are_a_function_of_its_bits(sigma, monkeypatch):
    # both modes flag erasures by one rule: in every found frame the noisy
    # receiver's erasures are the over-margin runs of the line bits it
    # sliced 0, as the closed form's are at zero noise
    # (test_phy.py::test_noise_free_chain_is_a_closed_form)
    demodulate = phy.demodulate
    flagged = []

    def spy(power, margin):
        bits, erasures, found = demodulate(power, margin)
        expected = phy.flag_erasure_runs(phy.scramble(bits) == 0, margin)
        assert np.array_equal(erasures[found], expected[found])
        flagged.append(int(erasures[found].sum()))
        return bits, erasures, found

    monkeypatch.setattr(phy, "demodulate", spy)
    for margin in (0, 8, 16):
        harness.run(_config(mode="sample", noise_sigma=sigma, erasure_margin_bits=margin))
    assert sum(flagged) > 0


def test_noise_free_sample_mode_runs_no_chain(monkeypatch):
    # at zero noise sample mode reads the chain's closed form, as symbol
    # mode does: it modulates, gates and demodulates nothing, and runs the
    # chain only under noise.  Only sample mode decodes, in one call per
    # block at every noise level; symbol mode and the parity sweep apply
    # the > t rule alone
    calls = []
    for module, name in ((phy, "modulate"), (phy, "apply_channel"), (phy, "demodulate"),
                         (rscodec, "decode_block")):
        def spy(*args, _name=name, _function=getattr(module, name)):
            calls.append(_name)
            return _function(*args)

        monkeypatch.setattr(module, name, spy)
    # blocks of 7 frames: 40 frames are 6 blocks
    plan = harness._frame_plan(rscodec.RsCode(15, 9), 1e6, (1 + 16 + 2) * 8)
    monkeypatch.setattr(harness, "BLOCK_BITS", 7 * plan["mask_bits_n"])
    harness.run(_config())
    harness.sweep_parity(_config(), n=15)
    assert calls == []
    harness.run(_config(mode="sample"))
    assert calls == ["decode_block"] * 6
    calls.clear()
    harness.run(_config(mode="sample", noise_sigma=0.3))
    assert calls.count("decode_block") == 6
    assert set(calls) == {"modulate", "apply_channel", "demodulate", "decode_block"}


@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_decoder_gets_the_codewords_received_wrong(sigma, monkeypatch):
    # sample mode hands the decoder, as bits, exactly the codewords of found
    # frames that have at most t erased symbols and some bit received
    # wrong; the others keep their received bits, as the decoder would
    # return a codeword received as sent
    receive, decode_block = harness._receive, rscodec.decode_block
    received, decoded = [], []

    def receive_spy(config, plan, lost, sent, *noise):
        out = receive(config, plan, lost, sent, *noise)
        received.append((sent[1], *out[1]))
        return out

    def decode_spy(code, bits, erased):
        decoded.append((bits.copy(), erased.copy()))
        return decode_block(code, bits, erased)

    monkeypatch.setattr(harness, "_receive", receive_spy)
    monkeypatch.setattr(rscodec, "decode_block", decode_spy)
    code = rscodec.RsCode(15, 9)
    harness.run(_config(mode="sample", noise_sigma=sigma, frames=200))
    assert len(received) == len(decoded) == 1
    (tx, wrong, flags, found), (bits, erased) = received[0], decoded[0]
    words = (len(tx), -1, code.n * code.m)
    tx, wrong = tx.reshape(words), wrong.reshape(words)
    flagged = flags.reshape(len(tx), -1, code.n, code.m).any(axis=3)
    todo = found[:, None] & (flagged.sum(axis=2) <= code.t) & wrong.any(axis=2)
    assert np.array_equal(bits, tx[todo] ^ wrong[todo])
    assert np.array_equal(erased, flagged[todo])
    # some codewords of found frames within t erasures are skipped, received
    # as sent, and some are decoded
    assert 0 < todo.sum() < (found[:, None] & (flagged.sum(axis=2) <= code.t)).sum()


def test_modes_draw_the_same_frames(monkeypatch):
    # both modes, with or without receiver noise, are handed the same
    # payloads and lost-bit masks: the noise comes from generators of its own
    blocks, frame_block = harness._blocks, phy.frame_block
    runs = []

    def blocks_spy(*args):
        for lost in blocks(*args):
            runs[-1][1].append(lost)
            yield lost

    def frame_block_spy(payloads):
        runs[-1][0].append(payloads.copy())
        return frame_block(payloads)

    monkeypatch.setattr(harness, "_blocks", blocks_spy)
    monkeypatch.setattr(phy, "frame_block", frame_block_spy)
    for mode, sigma in (("symbol", 0.0), ("sample", 0.0), ("sample", 0.3)):
        runs.append(([], []))
        harness.run(_config(mode=mode, noise_sigma=sigma))
    (payloads, lost), *others = [[np.concatenate(a) for a in calls] for calls in runs]
    assert payloads.shape == (40, 16)
    for other_payloads, other_lost in others:
        assert np.array_equal(other_payloads, payloads) and np.array_equal(other_lost, lost)


@pytest.mark.parametrize("experiment", ["symbol", "sample", "noisy", "sweep"])
def test_block_bits_bound_every_experiment(experiment, monkeypatch):
    # BLOCK_BITS bounds the rows that the frame kernel sees at once, in the
    # run loop of both modes, with and without receiver noise, and in the
    # parity sweep alike, and the outputs do not depend on it
    sweep = experiment == "sweep"
    cfg = _config(mode="symbol" if experiment in ("symbol", "sweep") else "sample",
                  noise_sigma=0.3 if experiment == "noisy" else 0.0)

    def outputs():
        return harness.sweep_parity(cfg, n=15) if sweep else harness.run(cfg).to_dict()

    want = outputs()
    # blocks of 7 frames, or of 7 trials of n*m mask bits at n = 15
    mask_bits_n = 15 * 4 if sweep else harness._frame_plan(
        rscodec.RsCode(*cfg.code), cfg.rate, (1 + 16 + 2) * 8)["mask_bits_n"]
    monkeypatch.setattr(harness, "BLOCK_BITS", 7 * mask_bits_n)
    kernel = harness._frames
    rows = []

    def spy(*args):
        rows.append(len(args[4]))  # the frame rows' lost masks; the noise may follow
        return kernel(*args)

    monkeypatch.setattr(harness, "_frames", spy)
    assert outputs() == want
    # 40 frames, or 40 trials at each of the 7 k, in blocks of 7 and a last of 5
    assert max(rows) == 7 and sum(rows) == 40 * (7 if sweep else 1)


# run scales in us: about 10 runs per 300 us gate, and about 240 short ones
_DRAW_REGIMES = {"long": (1.2, 2.0, 1.3, 20.0), "short": (1.5, 0.3, 1.5, 0.6)}


class _Chunks:
    """A generator whose random() calls are recorded by the doubles each
    gave: size 1 for a scalar call."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def random(self, size=None):
        self.sizes.append(1 if size is None else size)
        return self.rng.random(size)


@pytest.mark.parametrize("regime", sorted(_DRAW_REGIMES))
@pytest.mark.parametrize("held", [0, 1])
@pytest.mark.parametrize("payload_bytes", [0, 3, 7, 8, 9, 108])
def test_block_draw_replays_per_frame_draws(payload_bytes, held, regime, monkeypatch):
    # a block's payloads, read by one random_raw call, and its gates, drawn
    # by _blocks straight into run bounds, equal a per-frame loop of raw
    # words and per-gate draws: equal payloads, run bounds, lost masks and
    # final states of both generators, for payload sizes around whole words
    # (0 is the parity sweep's gates-only draw), over back-to-back blocks.
    # Neither draw reads the generators' held uint32 word: it is left as set.
    # The gates' doubles come in chunks of at most the gates left in the
    # block, down to single doubles when a gate needs more than that, and
    # sum to the runs drawn
    off_shape, off_scale, on_shape, on_scale = _DRAW_REGIMES[regime]
    stats = traffic.TrafficStats(off=traffic.ParetoParams(off_shape, off_scale),
                                 on=traffic.ParetoParams(on_shape, on_scale))
    total_us, rate, n_symbols = 300.0, 1e6, 299
    # one block holds BLOCK_BITS // n_symbols = 876 frames
    plan = {"horizon_us": total_us, "bit_rate": rate, "mask_bits_n": n_symbols}
    gate_rngs = [np.random.default_rng(7) for _ in range(2)]
    payload_rngs = [np.random.default_rng([7, 3]) for _ in range(2)]
    for rng in gate_rngs + payload_rngs:
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = held, 0xA5C3_1E07
        rng.bit_generator.state = state
    mask = channel.erasure_mask_from_gate
    drawn = []

    def spy(bounds, off, *args):
        drawn.append((np.array(bounds), np.array(off)))
        return mask(bounds, off, *args)

    monkeypatch.setattr(channel, "erasure_mask_from_gate", spy)
    runs = 0
    for count in (1, 7, 144):
        chunks = _Chunks(gate_rngs[0])
        (lost,) = harness._blocks(chunks, stats, plan, count)
        payloads = harness._payloads(payload_rngs[0], count, payload_bytes)
        want, gates = draw_frames_loop(gate_rngs[1], payload_rngs[1], stats, total_us, count,
                                       payload_bytes)
        assert payloads.shape == want.shape and np.array_equal(payloads, want)
        [(bounds, off)] = drawn
        drawn.clear()
        want_bounds, want_off = run_bounds(gates)
        assert np.array_equal(bounds, want_bounds) and np.array_equal(off, want_off)
        assert np.array_equal(lost, mask(want_bounds, want_off, rate, n_symbols))
        for block_rng, loop_rng in (gate_rngs, payload_rngs):
            state = block_rng.bit_generator.state
            assert state == loop_rng.bit_generator.state
            assert (state["has_uint32"], state["uinteger"]) == (held, 0xA5C3_1E07)
        runs += sum(len(g) for g in gates)
        assert sum(chunks.sizes) == sum(len(g) for g in gates)
        assert max(chunks.sizes) <= count and min(chunks.sizes) == 1
    assert runs / 152 > (100 if regime == "short" else 2)

    # the run cap hit mid-block: gate i is the first to need more runs than
    # all gates before it, and the cap is one run short of it.  The block
    # draw then raises as the per-gate loop does at gate i, with the gates
    # before it drawn as that loop draws them
    probe = np.random.default_rng(0)
    probe.bit_generator.state = gate_rngs[1].bit_generator.state
    probed = [draw_gate_loop(probe, stats, total_us) for _ in range(144)]
    counts = [len(g) for g in probed]
    i = next(i for i in range(1, 144) if counts[i] > max(counts[:i]))
    cap = counts[i] - 1
    monkeypatch.setattr(channel, "MAX_GATE_RUNS", cap)
    bounds, off = array("d"), array("d")
    with pytest.raises(ParameterError, match="runs"):
        channel.draw_gates(gate_rngs[0], stats, total_us, 144, bounds, off)
    gates = [draw_gate_loop(gate_rngs[1], stats, total_us) for _ in range(i)]
    with pytest.raises(ParameterError):
        draw_gate_loop(gate_rngs[1], stats, total_us)
    want_bounds, want_off = run_bounds(gates)
    assert np.array_equal(np.array(off)[: want_off.size], want_off)
    # gate i stops at the cap, its bounds drawn up to there
    assert np.array_equal(bounds, np.append(want_bounds, np.cumsum(np.r_[0.0, probed[i][:cap]])))


def test_payloads_are_raw_words_of_their_own_generator(monkeypatch):
    # frame i's payload is the first payload_bytes bytes, low byte first, of
    # raw words 2i and 2i + 1 of the generator [seed, 3] at 13-byte
    # payloads, across blocks of 7 frames
    cfg = _config(payload_bytes=13)
    plan = harness._frame_plan(rscodec.RsCode(*cfg.code), cfg.rate, (1 + 13 + 2) * 8)
    monkeypatch.setattr(harness, "BLOCK_BITS", 7 * plan["mask_bits_n"])
    frame_block = phy.frame_block
    drawn = []

    def spy(payloads):
        drawn.append(payloads.copy())
        return frame_block(payloads)

    monkeypatch.setattr(phy, "frame_block", spy)
    harness.run(cfg)
    words = np.random.default_rng([cfg.seed, 3]).bit_generator.random_raw(2 * cfg.frames)
    want = [b"".join(int(w).to_bytes(8, "little") for w in words[2 * i : 2 * i + 2])[:13]
            for i in range(cfg.frames)]
    assert [len(p) for p in drawn] == [7] * 5 + [5]
    assert [bytes(p) for p in np.concatenate(drawn)] == want


@pytest.mark.parametrize("sweep", [False, True])
def test_gate_run_cap_stops_experiments(sweep, monkeypatch):
    # a gate that needs more runs than the cap fails the whole experiment
    # at once, through the one block loop that both the run and the sweep
    # draw from
    cfg = _config(frames=5, off_scale_min=0.3, on_scale_min=0.6)
    monkeypatch.setattr(channel, "MAX_GATE_RUNS", 3)
    with pytest.raises(ParameterError, match="runs"):
        harness.sweep_parity(cfg, n=15) if sweep else harness.run(cfg)


def test_link_runs_reuse_their_code(monkeypatch):
    # a link run's code comes from a small cache, so a second run of the
    # same code, given or searched for, builds no parity matrix or check image
    images = []

    def spy(*args):
        images.append(args)
        return binary_image(*args)

    binary_image = rscodec._binary_image
    monkeypatch.setattr(rscodec, "_binary_image", spy)
    harness._link_code.cache_clear()
    for cfg in (_config(mode="sample", noise_sigma=0.3), _config(code=None, frames=5)):
        want = harness.run(cfg).to_dict()
        built = len(images)
        assert built > 0 and harness.run(cfg).to_dict() == want and len(images) == built
    assert harness._link_code.cache_info().maxsize == 4


def test_parity_sweep_gathers_each_block_from_cached_logs(monkeypatch):
    # each code's logs are computed once per process, its parity matrix
    # gathered afresh per block and k, so memory stays bounded by a block
    cfg = _config(frames=40)
    want = harness.sweep_parity(cfg, n=15)
    monkeypatch.setattr(harness, "BLOCK_BITS", 7 * 15 * 4)  # 6 blocks of trials
    images = []

    def spy(m, logs):
        images.append(logs.shape)
        return binary_image(m, logs)

    binary_image = rscodec._binary_image
    monkeypatch.setattr(rscodec, "_binary_image", spy)
    rscodec._generator_logs.cache_clear()
    assert harness.sweep_parity(cfg, n=15) == want
    ks = range(13, 0, -2)
    assert rscodec._generator_logs.cache_info().misses == len(ks)
    assert images == [(k, 15 - k) for _ in range(6) for k in ks]


def test_same_seed_same_report():
    a = harness.run(_config())
    b = harness.run(_config())
    assert a.to_dict() == b.to_dict()


def test_different_seeds_differ():
    a = harness.run(_config(seed=1, frames=60))
    b = harness.run(_config(seed=2, frames=60))
    assert a.frame_log != b.frame_log


def test_optimizer_resolution_in_harness():
    cfg = _config(code=None, off_shape=3.0, off_scale_min=20 * 2 / 3,
                  on_shape=2.0, on_scale_min=341.33 / 2, frames=5)
    rep = harness.run(cfg)
    assert (rep.code_n, rep.code_k) == (127, 95)
    assert rep.predicted_pe <= 1e-3


def test_fixed_code_reports_prediction():
    rep = harness.run(_config(off_shape=3.0, off_scale_min=20 * 2 / 3,
                              on_shape=2.0, on_scale_min=341.33 / 2, frames=5))
    assert rep.p_s == pytest.approx(20.0 / 361.33, rel=1e-3)
    assert 0.0 <= rep.predicted_pe <= 1.0


def test_perfect_channel_delivers_everything():
    # an on run longer than any frame: no losses in either mode
    cfg = _config(off_shape=3.0, off_scale_min=1.0, on_shape=3.0, on_scale_min=1e7,
                  frames=10)
    for mode in ("symbol", "sample"):
        rep = harness.run(dataclasses.replace(cfg, mode=mode))
        assert rep.fer == 0.0
        assert rep.fer_baseline == 0.0
        assert rep.ber == 0.0


def test_throughput_accounting():
    cfg = _config(off_shape=3.0, off_scale_min=1.0, on_shape=3.0, on_scale_min=1e7,
                  frames=4, payload_bytes=64, code=(63, 45))
    rep = harness.run(cfg)
    payload_bits = 64 * 8
    coded_air_s = (36 + 756) / 6e6
    base_air_s = (36 + 536) / 6e6
    assert rep.throughput == pytest.approx(payload_bits / coded_air_s, rel=1e-12)
    assert rep.throughput_baseline == pytest.approx(payload_bits / base_air_s, rel=1e-12)


def test_sweep_parity_structure():
    cfg = _config(frames=50, code=None)
    rows = harness.sweep_parity(cfg, n=15)
    assert [r["parameter"] for r in rows] == [13, 11, 9, 7, 5, 3, 1]
    for row in rows:
        assert set(row) == {
            "parameter", "ber_baseline", "ber_coded",
            "fer_baseline", "fer_coded", "throughput",
        }
        assert 0.0 <= row["fer_coded"] <= 1.0


def test_sweep_silent_rescales_off_mean():
    cfg = _config(frames=20, off_shape=2.0, off_scale_min=10.0)
    rows = harness.sweep_silent(cfg, [20.0, 60.0])
    assert [r["parameter"] for r in rows] == [20.0, 60.0]
    cfg_inf = _config(off_shape=0.9)
    with pytest.raises(InfeasibleError):
        harness.sweep_silent(cfg_inf, [20.0])


def test_trace_scenario_resolution(tmp_path):
    rng = np.random.default_rng(4)
    trace = traffic.DurationTrace(
        off_durations=pareto_sample(rng, traffic.ParetoParams(2.5, 3.0), 500),
        on_durations=pareto_sample(rng, traffic.ParetoParams(2.5, 80.0), 500),
    )
    path = tmp_path / "t.csv"
    traffic.save_trace(trace, path)
    cfg = harness.ExperimentConfig(trace=str(path), frames=5, code=(15, 9), seed=0)
    rep = harness.run(cfg)
    assert rep.frames == 5
