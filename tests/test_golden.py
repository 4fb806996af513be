"""Golden-output lock: SHA-256 digests of fixed-seed simulator outputs.

A speed-up or refactor of the simulator must leave every digest here
unchanged.  A change that alters outputs on purpose updates the digests it
moves and says why.  Each digest is over the canonical JSON
(`sort_keys=True`) of the reports, or over the CLI's standard output.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from rscatter import cli, harness, phy
from rscatter.rscodec import ADMISSIBLE_N, RsCode

# one code per symbol size m = 3..7
CODES = {3: (7, 3), 4: (15, 9), 5: (31, 19), 6: (63, 45), 7: (127, 95)}
MARGINS = (0, 8, 16)
SCENARIOS = {
    "bursty": dict(off_shape=1.2, off_scale_min=2.0, on_shape=1.3, on_scale_min=10.0),
    # off runs of a few bit-times, mostly under the erasure margin
    "short_off": dict(off_shape=2.0, off_scale_min=0.5, on_shape=1.3, on_scale_min=20.0),
}
# 40 symbol-mode frames fill no whole number of blocks of 7 or 32 frames in
# test_reports_do_not_depend_on_block_size; the default budget holds them
# in one block
FRAMES = {"symbol": 40, "sample": 3}

LINK_DIGESTS = {
    # re-pinned when symbol mode began counting every frame bit of a frame
    # whose preamble is lost as a baseline bit error, as sample mode does
    ("symbol", 3): "4ba6c29954311fff676e79c6fbdd55f342c3452ff5468f7eed2073eb23789508",
    ("symbol", 4): "9d10eb9349cd47f229a8a9d89362d6cc9189dabfa2dd3273865361318a499871",
    ("symbol", 5): "8dac310c01c79a2216cae6a62b69799b01a54d71b1b0a4262e6abf7b8e46decf",
    ("symbol", 6): "215339bd5406ee9ff6fd23722f08fe4a207235ee8a1a4361ec8b25d237e4e292",
    ("symbol", 7): "528fdf7042a86eb89341c205570120c0918e2720eecd3ee93a23342ad95c670e",
    ("sample", 3): "ddccfe397d51049f0450a586e5d9d3617fab6ffa6f96ec086c09c66ac92a9f8e",
    ("sample", 4): "61959751616ba5486ce03a16ea36f6a1bc7decf521a09712e839d56f8bb03c4a",
    ("sample", 5): "3a7772ada6e28aac4068e5ff1b0c4eda9207b4933d6cb394068581746cb6a711",
    ("sample", 6): "43697b887c5eb7f8779a6379e2db95b8176470c077ccb42e9c1c8845d0ca386d",
    ("sample", 7): "fe2ecd489ce93567858b381a4212f8508559953a51295e45499fadbd613587b8",
}
PARITY_DIGESTS = {
    7: "1f789cba096c391e80c03ccca2f5315b1ee7d603eb79207e14f1a445510708a0",
    15: "47af4a1fa091633cbc7aec15bc6f2f79cb94b3edb288492f12d002ee4e63df35",
    31: "189cb248b1842a06c6dc077b8641957767a773c395efea451e5b494dfcad1106",
    63: "699b1ff5def9829975db4b112fa48d9fb83510c2bc88b38c612baf53a1c134e4",
    127: "227fd02cc509a001a5c6bb1f325650fa5fd0eca64030a5f57050a7d027fbe10a",
}
# block sizes, in frames or parity trials, at which the block-invariance
# test reruns pinned experiments; the default BLOCK_BITS puts each of them
# in one block
SMALL_BLOCKS = (1, 7, 32)
# WAVEFORM_BYTES at which the noisy block-invariance case also runs: one
# frame per waveform part, and one part per block
WAVEFORM_PARTS = (1, 10**8)
# the parity sweep off the default rate and margin, keyed by (rate, margin, n):
# the gate horizon and bit clock scale with the rate
PARITY_RATE_DIGESTS = {
    (3e5, 0, 15): "2235405428de0991e0888543387079ad4940811f5bf3db363dbf95f25c59a646",
    (3e5, 0, 127): "0063252df53170d4464af34ba037560a4e21392e0501950ee9eebf05cd5e7339",
    (2.5e6, 16, 15): "f7a7f4e51eac05c6ffc27248e3b10119dd3942fd2f9766519aadc49fc6c787ca",
    (2.5e6, 16, 127): "56bc944b595fa7fd634a933ffb0f95003ef559e1ee4af8a289584f1160a85d2a",
}
# sample mode with receiver noise, keyed by (noise_sigma, m).  The frames
# and gates are those of the noise-free runs: at 0.1, and at 0.3 for m = 4,
# the noise moves no decision, so these digests equal LINK_DIGESTS["sample",
# m]; at 0.3 for m = 6 and at 0.5 it does, which pins the baseline's and the
# coded transmission's noise draws
NOISY_DIGESTS = {
    (0.1, 4): "61959751616ba5486ce03a16ea36f6a1bc7decf521a09712e839d56f8bb03c4a",
    (0.1, 6): "43697b887c5eb7f8779a6379e2db95b8176470c077ccb42e9c1c8845d0ca386d",
    (0.3, 4): "61959751616ba5486ce03a16ea36f6a1bc7decf521a09712e839d56f8bb03c4a",
    (0.3, 6): "ac950d6f5c5c91fd78eeb0fc2fcdea0372f48a36a2944bae3ec3ee4806a057e2",
    (0.5, 4): "5a6ea56408f334ebb346ee47c72dc195a0361fbcbb91e071cbdff78eccdc6246",
}
# sample mode over more frames than one waveform part, keyed by
# (noise_sigma, m); run again in blocks of 1, 7 and 32 frames, and in the
# noisy case in waveform parts of one frame and of a whole block, it pins
# that each transmission's noise is drawn frame after frame
SAMPLE_BLOCK_FRAMES = 40
SAMPLE_BLOCK_DIGESTS = {
    (0.0, 3): "409fdf742fa1a1e0827d75bdc61aff35ff3490f1c0e6802e71d4542ec0e9f62f",
    (0.3, 4): "74a7a825edb086bd687b0a7194a8cfe4a98087d3badf192493b0926d424d5d99",
}
# sample mode off the default 8 samples per bit, keyed by (samples_per_bit,
# noise_sigma): 37 frames fill no whole number of blocks of any size.  Over
# 13 or more samples a bit's mean power hides noise of 0.3, and over 64 it
# hides 0.52, so those runs give the noise-free report; 0.4 at 13 and 0.8 at
# 64 samples per bit move decisions, and from about 1.0 at 13 and 1.2 at 64
# every coded frame fails
SPB_FRAMES = 37
SPB_DIGESTS = {
    (4, 0.0): "ea5bd0ab7224af60be553c3f0aae3d18ede22b63aacc769391000c6dc9789802",
    (4, 0.3): "bba766642bc4e911d52fd9fc20ae2e55c7f6c56a46f91282d8de812ea09a6b94",
    (13, 0.0): "ae10aa54a7eb7858e28045b9d86c2def5bfada711ea659b4afce440c5b10f37d",
    (13, 0.3): "ae10aa54a7eb7858e28045b9d86c2def5bfada711ea659b4afce440c5b10f37d",
    (13, 0.4): "d56915da1f05a998cb68f37bef2a6500f601a7d1828f3c9f384d4c48dc7de95f",
    (64, 0.0): "150653322b665c481281332d24f061939bace4a308d638b3ec99a8f0ed25682a",
    (64, 0.3): "150653322b665c481281332d24f061939bace4a308d638b3ec99a8f0ed25682a",
    (64, 0.52): "150653322b665c481281332d24f061939bace4a308d638b3ec99a8f0ed25682a",
    (64, 0.8): "56b78f3115c8a7a60fe3336ff0fd061a0eb39a3fdb71b594fde1bbac506d7479",
}
# the longest waveform an experiment can ask for: RS(7,1), 108-byte payloads
# and 64 samples per bit, keyed by noise_sigma; over 64 samples a bit's mean
# power hides noise of 0.3 and 0.52, so those runs give the noise-free
# report, while 0.8 fails all 5 baseline frames against 1 without noise
LONGEST_WAVEFORM_DIGESTS = {
    0.0: "440d68c283c98c38177923903a4ae9826e25a27f2560d56ab98a7fcdbff638cb",
    0.3: "440d68c283c98c38177923903a4ae9826e25a27f2560d56ab98a7fcdbff638cb",
    0.52: "440d68c283c98c38177923903a4ae9826e25a27f2560d56ab98a7fcdbff638cb",
    0.8: "591537a2844ee7636f3e0be133230efad2b6b432000c067be105e3c1c6d602a5",
}
SILENT_DIGEST = "8491f148c4e6b3bad4da2abbdb1d88953ea3a277e6a22ba289f38abaff319abc"
CLI_SIMULATE_DIGEST = "bdee225fe20caaa987703415ab2aeab36426570b8497896c5b49b966e178190e"
# the CSV that `rscatter sweep` prints, keyed by --vary; the silent-duration
# sweep runs in sample mode
CLI_SWEEP_DIGESTS = {
    "parity": "583e97f61ecc09d5c3c2752e88407876229ee0cf77458dc078a2222cebfab20d",
    "silent-duration": "67ec2450d675b1881714737f80c402a3d80b92315d038e21828b39211987a1a2",
}
# `rscatter optimize` in the symbol workload's regime (mean off run 20 us at
# shape 1.001): its JSON, every p_e a full float
CLI_OPTIMIZE_ARGV = ["optimize", "--off-shape", "1.001", "--off-scale-min", "0.01998",
                     "--on-shape", "1.15", "--on-scale-min", "44.52"]
CLI_OPTIMIZE_DIGEST = "116491e3ca03c80343ea30bb7f1a3452a70dba05a39259dcc7c7bf144552ea47"
# ...and on a channel no code can serve: exit 3 and one stderr line, "best
# achievable p_e was 0.998093"
CLI_INFEASIBLE_ARGV = ["optimize", "--off-shape", "2.0", "--off-scale-min", "100.0",
                       "--on-shape", "2.0", "--on-scale-min", "10.0", "--pe-th", "1e-6"]
CLI_INFEASIBLE_DIGEST = "c958a2a03d0d909aa8daa9e92b85b945f5fd4631438687e323db0791ab5433d4"
# the clamp regime: a mean off run of 0.6 us, shorter than a 1 us symbol,
# clamps beta to 1 with a warning.  Pinned through both callers of the code
# search: `rscatter optimize`'s JSON, and a symbol-mode link report whose
# code the search picks (RS(127,121)) and whose 108-byte frames outlast
# the 170.665 us shortest on run
CLAMP_SCENARIO = dict(off_shape=1.5, off_scale_min=0.2, on_shape=2.0, on_scale_min=170.665)
CLAMP_WARNING = ("transition quotient exceeds 1 (alpha=0.00293, beta=1.67); "
                 "clamping to 1 (more than one transition per symbol)")
CLI_CLAMP_ARGV = ["optimize", "--off-shape", "1.5", "--off-scale-min", "0.2",
                  "--on-shape", "2.0", "--on-scale-min", "170.665"]
CLI_CLAMP_DIGEST = "b9b7361d7608117784d96bb801b1385c6612a633c87b459377d40991dc1da386"
CLAMP_LINK_DIGEST = "fa9a796bbd72fdc51de1cd391005b014b200d94c88f8308175bf37b0556db16a"
# the parity part G2 of every admissible code's binary generator, as uint8
# bytes, n ascending and then k ascending
BINARY_GENERATOR_DIGEST = "47bf1046db48156e04774c16fc97df5e73daa40743696bb991458daae84a7c10"


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def link_reports(mode, m, noise_sigma=0.0, frames=None):
    """Reports for every scenario and margin at one mode and symbol size."""
    reports = []
    for name, scenario in sorted(SCENARIOS.items()):
        for margin in MARGINS:
            cfg = harness.ExperimentConfig(
                **scenario, code=CODES[m], frames=frames or FRAMES[mode], payload_bytes=16,
                erasure_margin_bits=margin, mode=mode, seed=1000 * m + margin,
                noise_sigma=noise_sigma,
            )
            reports.append(harness.run(cfg).to_dict())
    return reports


def sample_report(samples_per_bit, noise_sigma, code=(15, 9), payload_bytes=16,
                  frames=SPB_FRAMES, on_scale_min=60.0, margin=8):
    """One sample-mode report over bursty off runs."""
    cfg = harness.ExperimentConfig(
        off_shape=1.2, off_scale_min=2.0, on_shape=1.3, on_scale_min=on_scale_min,
        code=code, frames=frames, payload_bytes=payload_bytes, erasure_margin_bits=margin,
        mode="sample", seed=samples_per_bit, samples_per_bit=samples_per_bit,
        noise_sigma=noise_sigma,
    )
    return harness.run(cfg).to_dict()


def parity_rows(n, rate=1e6, margin=8):
    # on runs short enough that even a 7-symbol codeword sees flagged losses
    cfg = harness.ExperimentConfig(
        off_shape=1.5, off_scale_min=3.0, on_shape=1.5, on_scale_min=3.0,
        erasure_margin_bits=margin, frames=16, seed=n, rate=rate,
    )
    return harness.sweep_parity(cfg, n=n)


def silent_rows():
    cfg = harness.ExperimentConfig(
        **SCENARIOS["bursty"], code=(31, 19), frames=20, payload_bytes=12, seed=3,
    )
    return harness.sweep_silent(cfg, [5.0, 40.0])


def cli_simulate_stdout(tmp_path, capsys):
    conf = tmp_path / "sim.conf"
    conf.write_text(
        "off_shape = 1.001\noff_scale_min = 0.01998\non_shape = 1.15\n"
        "on_scale_min = 44.52\ncode = optimize\nframes = 36\npayload_bytes = 108\n"
        "seed = 5\n"
    )
    assert cli.main(["simulate", "--config", str(conf), "--keep-frame-log-in-json"]) == 0
    return capsys.readouterr().out


def cli_sweep_stdout(vary, tmp_path, capsys):
    conf = tmp_path / "sweep.conf"
    argv = ["sweep", "--vary", vary, "--config", str(conf)]
    if vary == "parity":
        # on runs short enough that every k sees flagged losses
        conf.write_text(
            "off_shape = 1.5\noff_scale_min = 3.0\non_shape = 1.5\non_scale_min = 3.0\n"
            "code = 15,9\nframes = 16\nerasure_margin_bits = 4\nseed = 6\n"
        )
    else:
        conf.write_text(
            "off_shape = 1.5\noff_scale_min = 1.0\non_shape = 1.5\non_scale_min = 30.0\n"
            "code = 15,9\nframes = 8\npayload_bytes = 8\nmode = sample\n"
            "noise_sigma = 0.3\nsamples_per_bit = 4\nseed = 6\n"
        )
        argv += ["--values", "2,20"]
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("mode,m", sorted(LINK_DIGESTS))
def test_link_reports_unchanged(mode, m):
    assert _digest(link_reports(mode, m)) == LINK_DIGESTS[mode, m]


@pytest.mark.parametrize("sigma,m", sorted(NOISY_DIGESTS))
def test_noisy_sample_reports_unchanged(sigma, m):
    assert _digest(link_reports("sample", m, noise_sigma=sigma)) == NOISY_DIGESTS[sigma, m]


@pytest.mark.parametrize("sigma,m", sorted(SAMPLE_BLOCK_DIGESTS))
def test_sample_reports_over_blocks_unchanged(sigma, m):
    reports = link_reports("sample", m, noise_sigma=sigma, frames=SAMPLE_BLOCK_FRAMES)
    assert _digest(reports) == SAMPLE_BLOCK_DIGESTS[sigma, m]


@pytest.mark.parametrize("spb,sigma", sorted(SPB_DIGESTS))
def test_sample_reports_at_samples_per_bit_unchanged(spb, sigma):
    assert _digest(sample_report(spb, sigma)) == SPB_DIGESTS[spb, sigma]


@pytest.mark.parametrize("sigma", sorted(LONGEST_WAVEFORM_DIGESTS))
def test_longest_waveform_reports_unchanged(sigma):
    # on runs long enough that some 2 ms frames get through
    report = sample_report(phy.MAX_SAMPLES_PER_BIT, sigma, code=(7, 1),
                           payload_bytes=phy.MAX_PAYLOAD, frames=5, on_scale_min=300.0,
                           margin=16)
    assert _digest(report) == LONGEST_WAVEFORM_DIGESTS[sigma]


def _link_plan(m):
    """The frame plan of link_reports at symbol size m (16-byte payloads)."""
    return harness._frame_plan(RsCode(*CODES[m]), 1e6, (1 + 16 + 2) * 8)


# per case: the pinned digest, the frame plan that sizes its lost masks,
# and the experiment.  The parity cases also show that each k's info
# generator carries on across blocks: a trial reads the same info symbols
# whatever the block it falls in
BLOCK_CASES = {
    "symbol": (LINK_DIGESTS["symbol", 7], _link_plan(7), lambda: link_reports("symbol", 7)),
    "sample": (SAMPLE_BLOCK_DIGESTS[0.0, 3], _link_plan(3),
               lambda: link_reports("sample", 3, frames=SAMPLE_BLOCK_FRAMES)),
    "noisy_sample": (SAMPLE_BLOCK_DIGESTS[0.3, 4], _link_plan(4),
                     lambda: link_reports("sample", 4, noise_sigma=0.3,
                                          frames=SAMPLE_BLOCK_FRAMES)),
    # every parity trial at n = 127 has a mask of n*m bits, whatever its k
    "parity": (PARITY_DIGESTS[127], harness._frame_plan(RsCode(127, 1), 1e6, 7, preamble_bits=0),
               lambda: parity_rows(127)),
}


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_reports_do_not_depend_on_block_size(case, block, monkeypatch):
    digest, plan, experiment = BLOCK_CASES[case]
    # room for `block` whole frames and all but one bit of another
    monkeypatch.setattr(harness, "BLOCK_BITS", (block + 1) * plan["mask_bits_n"] - 1)
    sizes = []
    block_frames = harness._block_frames

    def spy(plan):
        sizes.append(block_frames(plan))
        return sizes[-1]

    monkeypatch.setattr(harness, "_block_frames", spy)
    assert _digest(experiment()) == digest
    if case == "noisy_sample":
        for size in WAVEFORM_PARTS:
            monkeypatch.setattr(harness, "WAVEFORM_BYTES", size)
            assert _digest(experiment()) == digest
    assert set(sizes) == {block}


@pytest.mark.parametrize("n", sorted(PARITY_DIGESTS))
def test_parity_sweep_unchanged(n):
    assert _digest(parity_rows(n)) == PARITY_DIGESTS[n]


@pytest.mark.parametrize("rate,margin,n", sorted(PARITY_RATE_DIGESTS))
def test_parity_sweep_at_rate_and_margin_unchanged(rate, margin, n):
    assert _digest(parity_rows(n, rate, margin)) == PARITY_RATE_DIGESTS[rate, margin, n]


def test_silent_sweep_unchanged():
    assert _digest(silent_rows()) == SILENT_DIGEST


def test_binary_generators_unchanged():
    digest = hashlib.sha256()
    for n in ADMISSIBLE_N:
        for k in range(1, n - 1, 2):
            digest.update(RsCode(n, k).binary_generator.astype(np.uint8).tobytes())
    assert digest.hexdigest() == BINARY_GENERATOR_DIGEST


def test_cli_simulate_json_unchanged(tmp_path, capsys):
    out = cli_simulate_stdout(tmp_path, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_SIMULATE_DIGEST


@pytest.mark.parametrize("vary", sorted(CLI_SWEEP_DIGESTS))
def test_cli_sweep_csv_unchanged(vary, tmp_path, capsys):
    out = cli_sweep_stdout(vary, tmp_path, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_SWEEP_DIGESTS[vary]


def test_cli_optimize_json_unchanged(capsys):
    assert cli.main(CLI_OPTIMIZE_ARGV) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_OPTIMIZE_DIGEST


def test_cli_optimize_infeasible_line_unchanged(capsys):
    assert cli.main(CLI_INFEASIBLE_ARGV) == cli.EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert hashlib.sha256(captured.err.encode()).hexdigest() == CLI_INFEASIBLE_DIGEST


def test_cli_optimize_clamp_regime_unchanged(capsys):
    with pytest.warns(UserWarning, match=re.escape(CLAMP_WARNING)):
        assert cli.main(CLI_CLAMP_ARGV) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_CLAMP_DIGEST


def test_clamp_regime_link_report_unchanged():
    cfg = harness.ExperimentConfig(**CLAMP_SCENARIO, frames=40, payload_bytes=108, seed=11)
    with pytest.warns(UserWarning, match=re.escape(CLAMP_WARNING)):
        report = harness.run(cfg).to_dict()
    assert _digest(report) == CLAMP_LINK_DIGEST
