"""Golden-output lock: SHA-256 digests of fixed-seed simulator outputs.

A speed-up or refactor of the simulator must leave every digest here
unchanged.  A change that alters outputs on purpose updates the digests it
moves and says why.  Each digest is over the canonical JSON
(`sort_keys=True`) of the reports, or over the CLI's standard output.
"""

import hashlib
import json

import numpy as np
import pytest

from rscatter import cli, harness
from rscatter.rscodec import ADMISSIBLE_N, RsCode

# one code per symbol size m = 3..7
CODES = {3: (7, 3), 4: (15, 9), 5: (31, 19), 6: (63, 45), 7: (127, 95)}
MARGINS = (0, 8, 16)
SCENARIOS = {
    "bursty": dict(off_shape=1.2, off_scale_min=2.0, on_shape=1.3, on_scale_min=10.0),
    # off runs of a few bit-times, mostly under the erasure margin
    "short_off": dict(off_shape=2.0, off_scale_min=0.5, on_shape=1.3, on_scale_min=20.0),
}
# symbol mode runs more frames than one batch of the frame kernel holds
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
# the parity sweep off the default rate and margin, keyed by (rate, margin, n):
# the gate horizon and bit clock scale with the rate
PARITY_RATE_DIGESTS = {
    (3e5, 0, 15): "2235405428de0991e0888543387079ad4940811f5bf3db363dbf95f25c59a646",
    (3e5, 0, 127): "0063252df53170d4464af34ba037560a4e21392e0501950ee9eebf05cd5e7339",
    (2.5e6, 16, 15): "f7a7f4e51eac05c6ffc27248e3b10119dd3942fd2f9766519aadc49fc6c787ca",
    (2.5e6, 16, 127): "56bc944b595fa7fd634a933ffb0f95003ef559e1ee4af8a289584f1160a85d2a",
}
# sample mode with receiver noise, keyed by (noise_sigma, m); at 0.1 the
# noise rarely moves a decision, at 0.3 it does, which pins the order of
# the baseline and coded noise draws
NOISY_DIGESTS = {
    (0.1, 4): "625c53869d8b79cada03e501b6c7c0523ec7708ef7625421d6366e67fe8be981",
    (0.1, 6): "858248bb7b62321b805476ba674063b17235a486c67119887b5e3305e01b14e7",
    (0.3, 4): "aa6a92d2a6269c54ddcd4648f33b14186ea64cd8865a454163419500ab04ded7",
    (0.3, 6): "d2cf5e10d55303739ccc8a44c233e08bc31ee6d390c32a1e1cf5b033dbf00fb2",
}
SILENT_DIGEST = "8491f148c4e6b3bad4da2abbdb1d88953ea3a277e6a22ba289f38abaff319abc"
CLI_SIMULATE_DIGEST = "bdee225fe20caaa987703415ab2aeab36426570b8497896c5b49b966e178190e"
# the parity part G2 of every admissible code's binary generator, as uint8
# bytes, n ascending and then k ascending
BINARY_GENERATOR_DIGEST = "47bf1046db48156e04774c16fc97df5e73daa40743696bb991458daae84a7c10"


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def link_reports(mode, m, noise_sigma=0.0):
    """Reports for every scenario and margin at one mode and symbol size."""
    reports = []
    for name, scenario in sorted(SCENARIOS.items()):
        for margin in MARGINS:
            cfg = harness.ExperimentConfig(
                **scenario, code=CODES[m], frames=FRAMES[mode], payload_bytes=16,
                erasure_margin_bits=margin, mode=mode, seed=1000 * m + margin,
                noise_sigma=noise_sigma,
            )
            reports.append(harness.run(cfg).to_dict())
    return reports


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


@pytest.mark.parametrize("mode,m", sorted(LINK_DIGESTS))
def test_link_reports_unchanged(mode, m):
    assert _digest(link_reports(mode, m)) == LINK_DIGESTS[mode, m]


@pytest.mark.parametrize("sigma,m", sorted(NOISY_DIGESTS))
def test_noisy_sample_reports_unchanged(sigma, m):
    assert _digest(link_reports("sample", m, noise_sigma=sigma)) == NOISY_DIGESTS[sigma, m]


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
