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
    # re-pinned, with every digest below that a payload reaches, when the
    # payloads came to be read as raw words of their own generator [seed, 3]
    ("symbol", 3): "6a3f00ce29275fa12bba88a71c62eef2e9c7fe4d7d4837f4a85395c98734b688",
    ("symbol", 4): "edd31d837fd9855608af30ac5030f68e1f16ae2549792016e60d3b0a3e8465f4",
    ("symbol", 5): "2f418e38ac85d074aaca15c707b38bc4987afbe5db23146ca59440c5e7fa6ff8",
    ("symbol", 6): "51104ea0018dc5547c3051d0746d6059525c62ac0c4fc403d57194b0b2226a33",
    ("symbol", 7): "0f1843d187489b84865a1d04938b33362fac9e553bce1effde1ab6136ab89623",
    ("sample", 3): "b2cc5d0f589bf86608e72522aa84983a8da318b8a7366eb37e28a36ab3262c90",
    ("sample", 4): "22a43d118977e4a42c1e00cb428c67f26de27de4584feba66a1876b90cba72f8",
    ("sample", 5): "1c2ebe7a6393edd14008bef35b770aeb3144fa1c06c70b704e7150bb6f2e5ab4",
    ("sample", 6): "be2900f8cec83f4b422d504fb798a975e93dc0cd7006a237c75c6db76a0dc4e3",
    ("sample", 7): "28f1b161560a4bd4d18e4743c2c1b78eb0bd9efd737ff8986fb1df8588955a1d",
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
# and gates are those of the noise-free runs: at 0.1 the noise moves no
# decision, so these digests equal LINK_DIGESTS["sample", m]; at 0.3 and 0.5
# it does, which pins the baseline's and the coded transmission's noise draws
NOISY_DIGESTS = {
    (0.1, 4): "22a43d118977e4a42c1e00cb428c67f26de27de4584feba66a1876b90cba72f8",
    (0.1, 6): "be2900f8cec83f4b422d504fb798a975e93dc0cd7006a237c75c6db76a0dc4e3",
    (0.3, 4): "35b87c6c777c6daa57e867b0391bf77bc3f078dc5aa20421ae94c227ee432f68",
    (0.3, 6): "e0a60614bb7102f092ec565291c2b09c692a493655bd7df33ce7bb88bf7e7c8a",
    (0.5, 4): "b7090f5a587bb424a81ab309494d98558f0c80059be31431e927c1f8f6fb4755",
}
# sample mode over more frames than one waveform part, keyed by
# (noise_sigma, m); run again in blocks of 1, 7 and 32 frames, and in the
# noisy case in waveform parts of one frame and of a whole block, it pins
# that each transmission's noise is drawn frame after frame
SAMPLE_BLOCK_FRAMES = 40
SAMPLE_BLOCK_DIGESTS = {
    (0.0, 3): "667948817b8b3267ca3528a8075df860fa47568b002fa2493da44b9008daeae7",
    (0.3, 4): "cf8b6f3df59bd3813230b2b0bd6dd0adafb7afd4f8c4546fe26bc6d492da490f",
}
# sample mode off the default 8 samples per bit, keyed by (samples_per_bit,
# noise_sigma): 37 frames fill no whole number of blocks of any size.  Over
# 13 or more samples a bit's mean power hides noise of 0.3, and over 64 it
# hides 0.52, so those runs give the noise-free report; 0.4 at 13 and 0.8 at
# 64 samples per bit move decisions, and from about 1.0 at 13 and 1.2 at 64
# every coded frame fails
SPB_FRAMES = 37
SPB_DIGESTS = {
    (4, 0.0): "0731004c591339e69d5dcb892ef0e31ef902251eb6a82d61f996fab41fb057a7",
    (4, 0.3): "444307ebfe6b067232c5ed748b3bba6aadcaa1916d5ebfb74b9984e6c4161ef3",
    (13, 0.0): "11b39b2a16dd1320240224b5fbeb9a55ae0f29d5f215c8a8a1381d1f29c48c30",
    (13, 0.3): "11b39b2a16dd1320240224b5fbeb9a55ae0f29d5f215c8a8a1381d1f29c48c30",
    (13, 0.4): "e2858a81a53fdba0f3a688b09f93ac7c8b0bff70b59bf52f2b8b8ba8e15a9dfd",
    (64, 0.0): "b46a2bc02f9cd3ca3326f17658d78f84566ae576b5e178d8d0c3375aa12a483c",
    (64, 0.3): "b46a2bc02f9cd3ca3326f17658d78f84566ae576b5e178d8d0c3375aa12a483c",
    (64, 0.52): "b46a2bc02f9cd3ca3326f17658d78f84566ae576b5e178d8d0c3375aa12a483c",
    (64, 0.8): "f734939b334ef59a42781dcffc22da22fec42579e272b91e5189f3f7dd7ba679",
}
# the longest waveform an experiment can ask for: RS(7,1), 108-byte payloads
# and 64 samples per bit, keyed by noise_sigma; over 64 samples a bit's mean
# power hides noise of 0.3 and 0.52, so those runs give the noise-free
# report, while 0.8 fails all 5 baseline frames against none without noise
LONGEST_WAVEFORM_DIGESTS = {
    0.0: "9e74e18de24a4b64de6660c808a6c9baf6e7964c3d44f99cfc5a72bf588a0ef4",
    0.3: "9e74e18de24a4b64de6660c808a6c9baf6e7964c3d44f99cfc5a72bf588a0ef4",
    0.52: "9e74e18de24a4b64de6660c808a6c9baf6e7964c3d44f99cfc5a72bf588a0ef4",
    0.8: "dc7a0a30057e1f2150c40ed1a031efd8b24eaccc8c27ac1878e8fc00f2926c5d",
}
SILENT_DIGEST = "a5eba238a55e9c62859e9e0ad88e9a104dfd91e1ef59a68791b92f43c7f6d1dc"
CLI_SIMULATE_DIGEST = "0325ac1eac5e6d970145bcf4b44961cc744868c72d43d0b75eaa72016a98b35f"
# the CSV that `rscatter sweep` prints, keyed by --vary; the silent-duration
# sweep runs in sample mode
CLI_SWEEP_DIGESTS = {
    "parity": "583e97f61ecc09d5c3c2752e88407876229ee0cf77458dc078a2222cebfab20d",
    "silent-duration": "8cec82eaaa133d751a8ccfd2f4fee2611da7bfced182646c11c9a23fa773174c",
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
CHECK_IMAGE_DIGEST = "22471043664b69b0d0488d3e4a7dbf55a0407f3f57616500b3fb0d3cd5c33aae"


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


def _images_digest(image):
    digest = hashlib.sha256()
    for n in ADMISSIBLE_N:
        for k in range(1, n - 1, 2):
            digest.update(getattr(RsCode(n, k), image).astype(np.uint8).tobytes())
    return digest.hexdigest()


def test_binary_generators_unchanged():
    assert _images_digest("binary_generator") == BINARY_GENERATOR_DIGEST


def test_check_images_unchanged():
    assert _images_digest("check_image") == CHECK_IMAGE_DIGEST


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
