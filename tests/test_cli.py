"""Command-line interface: subcommands, config parsing, exit codes."""

import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest

from traffic_oracle import pareto_sample
from rscatter import cli, harness, phy, traffic
from rscatter.errors import ParameterError


def _write_trace(tmp_path, seed=0, n=400):
    rng = np.random.default_rng(seed)
    trace = traffic.DurationTrace(
        off_durations=pareto_sample(rng, traffic.ParetoParams(2.5, 4.0), n),
        on_durations=pareto_sample(rng, traffic.ParetoParams(2.0, 100.0), n),
    )
    path = tmp_path / "trace.csv"
    traffic.save_trace(trace, path)
    return path


def _write_config(tmp_path, text):
    path = tmp_path / "run.conf"
    path.write_text(text)
    return path


def test_fit_outputs_both_states(tmp_path, capsys):
    path = _write_trace(tmp_path)
    assert cli.main(["fit", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"off", "on"}
    assert out["off"]["shape"] == pytest.approx(2.5, rel=0.2)
    assert out["on"]["scale_min"] > 0


def test_optimize_from_parameters(capsys):
    rc = cli.main([
        "optimize",
        "--off-shape", "3.0", "--off-scale-min", "13.333",
        "--on-shape", "2.0", "--on-scale-min", "170.665",
        "--rate", "1e6",
    ])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["n"], out["k"]) == (127, 95)
    assert out["predicted_pe"] <= 1e-3
    assert out["feasible_alternatives"]


def test_optimize_requires_full_scenario(capsys):
    scenario = ["--off-shape", "3.0", "--off-scale-min", "13.333",
                "--on-shape", "2.0", "--on-scale-min", "170.665"]
    # a partial scenario, then a full one at a rate that is not finite
    for argv, named in [(scenario[:2], ""), (scenario + ["--rate", "inf"], "rate"),
                        (scenario + ["--rate", "nan"], "rate")]:
        rc = cli.main(["optimize", *argv])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error:" in err and named in err


def test_optimize_infeasible_exit_code(tmp_path, capsys):
    rc = cli.main([
        "optimize",
        "--off-shape", "2.0", "--off-scale-min", "100.0",
        "--on-shape", "2.0", "--on-scale-min", "10.0",
        "--pe-th", "1e-6",
    ])
    assert rc == cli.EXIT_INFEASIBLE
    assert "infeasible:" in capsys.readouterr().err


def test_infinite_mean_exit_code(capsys):
    rc = cli.main([
        "optimize",
        "--off-shape", "0.8", "--off-scale-min", "5.0",
        "--on-shape", "2.0", "--on-scale-min", "100.0",
    ])
    assert rc == cli.EXIT_INFEASIBLE
    capsys.readouterr()


def test_load_config_types_and_comments(tmp_path):
    # every config field once, with the value and type it must parse to
    expected = {
        "off_shape": 1.5, "off_scale_min": 2.0, "on_shape": 2.0, "on_scale_min": 50.0,
        "trace": "trace.csv", "rate": 2e6, "code": (15, 9), "pe_threshold": 0.01,
        "frames": 7, "payload_bytes": 16, "mode": "sample", "noise_sigma": 0.1,
        "seed": 3, "samples_per_bit": 8, "erasure_margin_bits": 12,
    }
    assert set(expected) == {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    path = _write_config(
        tmp_path,
        "# scenario\n"
        "off_shape = 1.5\n"
        "off_scale_min = 2.0  # us\n"
        "on_shape = 2\n"
        "on_scale_min = 50.0\n"
        "rate = 2e6\n"
        "code = 15,9\n"
        "pe_threshold = 1e-2\n"
        "frames = 7\n"
        "payload_bytes = 16\n"
        "mode = sample\n"
        "noise_sigma = 0.1\n"
        "seed = 3\n"
        "samples_per_bit = 8\n"
        "erasure_margin_bits = 12\n",
    )
    cfg = cli.load_config(path)
    # a trace replaces the Pareto fields, so it takes a file of its own
    trace = cli.load_config(_write_config(tmp_path, "trace = trace.csv\n")).trace
    for name, value in expected.items():
        got = trace if name == "trace" else getattr(cfg, name)
        assert type(got) is type(value) and got == value, name


def test_load_config_rejects_garbage(tmp_path):
    for text in ("whatkey = 3\n", "off_shape 1.5\n", "frames = many\n", "code = 15;9\n"):
        path = _write_config(tmp_path, text)
        with pytest.raises(ParameterError):
            cli.load_config(path)


def test_simulate_reports_and_logs(tmp_path, capsys):
    # on runs short enough that the log holds every pair of outcome flags
    conf = _write_config(
        tmp_path,
        "off_shape = 1.5\noff_scale_min = 2.0\non_shape = 2.0\non_scale_min = 20.0\n"
        "code = 15,9\nframes = 12\npayload_bytes = 8\nseed = 5\n",
    )
    log = tmp_path / "frames.csv"
    rc = cli.main(["simulate", "--config", str(conf), "--frame-log", str(log)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["frames"] == 12
    assert report["frame_log"] == []  # kept out of JSON unless requested
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "frame,baseline_error,coded_error"
    assert len(lines) == 13
    # one row per frame, its outcome flags written as True/False
    expected = harness.run(cli.load_config(conf)).frame_log
    assert {(row["baseline_error"], row["coded_error"]) for row in expected} == {
        (False, False), (False, True), (True, False), (True, True)}
    assert lines[1:] == [
        f"{row['frame']},{row['baseline_error']},{row['coded_error']}" for row in expected
    ]


def test_simulate_optimize_keyword(tmp_path, capsys):
    conf = _write_config(
        tmp_path,
        "off_shape = 3.0\noff_scale_min = 13.333\non_shape = 2.0\non_scale_min = 170.665\n"
        "code = optimize\nframes = 3\nseed = 1\n",
    )
    assert cli.main(["simulate", "--config", str(conf)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["code_n"], report["code_k"]) == (127, 95)


def test_simulate_missing_config_exit_code(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(tmp_path / "absent.conf")])
    assert rc == cli.EXIT_CONFIG
    capsys.readouterr()


_SCENARIO_ARGS = ["--off-shape", "2.5", "--off-scale-min", "4.0",
                  "--on-shape", "2.0", "--on-scale-min", "100.0"]


@pytest.mark.parametrize("argv", [
    ["fit", "{dir}"],
    ["simulate", "--config", "{dir}"],
    ["fit", "{binary}"],
    ["simulate", "--config", "{binary}"],
    ["gen-trace", *_SCENARIO_ARGS, "--total-us", "100", "-o", "{dir}"],
], ids=["fit-dir", "simulate-dir", "fit-binary", "simulate-binary", "gen-trace-dir"])
def test_unreadable_path_exit_code(tmp_path, capsys, argv):
    # a directory where a file belongs, and a file that is not text
    binary = tmp_path / "binary.dat"
    binary.write_bytes(b"off_shape = 2\xff\n")
    argv = [a.format(dir=tmp_path, binary=binary) for a in argv]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_simulate_negative_values_exit_code(tmp_path, capsys):
    scenario = "off_shape = 1.5\noff_scale_min = 2.0\non_shape = 2.0\non_scale_min = 50.0\n"

    def replaced(text):
        # the scenario with text's keys in place of its own: a config may
        # not give a key twice
        pairs = dict(line.split(" = ") for line in (scenario + text).splitlines())
        return "".join(f"{key} = {value}\n" for key, value in pairs.items())

    # an infinite off run would gate nothing and report a perfect link
    for line in ("off_scale_min = inf", "on_shape = nan",
                 "seed = -1", "noise_sigma = -0.5", "noise_sigma = nan",
                 "noise_sigma = 1e300", "noise_sigma = 1e300\nmode = sample", "noise_sigma = 0.3",
                 "erasure_margin_bits = -1", "rate = 0", "rate = inf", "pe_threshold = 2",
                 "samples_per_bit = 3", "samples_per_bit = 3\nmode = sample",
                 "samples_per_bit = 100000", "samples_per_bit = 100000\nmode = sample"):
        conf = _write_config(tmp_path, replaced("code = 15,9\nframes = 2\n" + line + "\n"))
        # rejected before any waveform is built, so an oversized
        # samples_per_bit costs no time or memory
        t0 = time.perf_counter()
        assert cli.main(["simulate", "--config", str(conf)]) == cli.EXIT_CONFIG
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert "error:" in err and "given twice" not in err
    # the parity sweep has no waveform receiver
    conf = _write_config(tmp_path, scenario + "code = 15,9\nframes = 2\nmode = sample\n")
    assert cli.main(["sweep", "--vary", "parity", "--config", str(conf)]) == cli.EXIT_CONFIG
    assert "symbol mode only" in capsys.readouterr().err
    # nor a receiver noise model: noise in symbol mode is a config error too
    conf = _write_config(tmp_path, scenario + "code = 15,9\nframes = 2\nnoise_sigma = 0.3\n")
    assert cli.main(["sweep", "--vary", "parity", "--config", str(conf)]) == cli.EXIT_CONFIG
    assert "sample mode only" in capsys.readouterr().err
    # the sample-rate and noise caps themselves are accepted
    for line in (f"samples_per_bit = {phy.MAX_SAMPLES_PER_BIT}",
                 f"noise_sigma = {phy.MAX_NOISE_SIGMA}"):
        conf = _write_config(tmp_path, scenario + "code = 15,9\nframes = 2\nmode = sample\n"
                             + line + "\n")
        assert cli.main(["simulate", "--config", str(conf)]) == 0
    capsys.readouterr()


def test_simulate_huge_frames_exit_code(tmp_path, capsys):
    # rejected by the frame cap before any array is sized by the frame count
    scenario = "off_shape = 1.5\noff_scale_min = 2.0\non_shape = 2.0\non_scale_min = 50.0\n"
    for frames in (harness.MAX_FRAMES + 1, 100000000000):
        for mode in ("symbol", "sample"):
            conf = _write_config(tmp_path, f"{scenario}code = 15,9\nframes = {frames}\n"
                                           f"mode = {mode}\n")
            t0 = time.perf_counter()
            assert cli.main(["simulate", "--config", str(conf)]) == cli.EXIT_CONFIG
            assert time.perf_counter() - t0 < 5.0
            assert "frames must be in" in capsys.readouterr().err
        conf = _write_config(tmp_path, f"{scenario}frames = {frames}\n")
        assert cli.main(["sweep", "--vary", "parity", "--config", str(conf)]) == cli.EXIT_CONFIG
        assert "frames must be in" in capsys.readouterr().err


def test_bad_input_file_error_names_the_file(tmp_path, capsys):
    # a config or trace that is not text, and a malformed trace line, are
    # reported with the file they came from
    binary = tmp_path / "binary.dat"
    binary.write_bytes(b"off_shape = 2\xff\n")
    bad_trace = tmp_path / "bad.csv"
    bad_trace.write_text("on,3.5\nbogus line\n")
    via_binary = tmp_path / "binary_trace.conf"
    via_binary.write_text(f"trace = {binary}\n")
    via_bad = tmp_path / "bad_trace.conf"
    via_bad.write_text(f"trace = {bad_trace}\n")
    for argv, named in [
        (["simulate", "--config", str(binary)], f"{binary}: "),
        (["simulate", "--config", str(via_binary)], f"{binary}: "),
        (["simulate", "--config", str(via_bad)], f"{bad_trace}:2: "),
        (["fit", str(binary)], f"{binary}: "),
        (["fit", str(bad_trace)], f"{bad_trace}:2: "),
    ]:
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err


def test_gen_trace_negative_seed_exit_code(tmp_path, capsys):
    out = tmp_path / "synthetic.csv"
    rc = cli.main([
        "gen-trace",
        "--off-shape", "2.5", "--off-scale-min", "4.0",
        "--on-shape", "2.0", "--on-scale-min", "100.0",
        "--total-us", "100", "--seed", "-1", "-o", str(out),
    ])
    assert rc == cli.EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_gen_trace_bad_total_us_exit_code(tmp_path, capsys):
    out = tmp_path / "synthetic.csv"
    for total in ("-5", "0", "nan", "inf"):
        rc = cli.main([
            "gen-trace",
            "--off-shape", "2.5", "--off-scale-min", "4.0",
            "--on-shape", "2.0", "--on-scale-min", "100.0",
            "--total-us", total, "-o", str(out),
        ])
        assert rc == cli.EXIT_CONFIG, total
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


def test_gen_trace_run_cap_exit_code(tmp_path, capsys):
    # sub-picosecond runs would need ~1e11 of them to cover 100 us
    out = tmp_path / "synthetic.csv"
    rc = cli.main([
        "gen-trace",
        "--off-shape", "2.5", "--off-scale-min", "1e-9",
        "--on-shape", "2.0", "--on-scale-min", "1e-9",
        "--total-us", "100", "-o", str(out),
    ])
    assert rc == cli.EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_gate_shape_below_bound_exit_code(tmp_path, capsys):
    # an off shape of 0.001 overflows a run on some seeds only (1, 4 and 5 of
    # 1..6); the gate draw rejects it on every seed, as both commands that
    # draw gates without the finite-mean check meet it
    out = tmp_path / "synthetic.csv"
    for seed in range(1, 7):
        rc = cli.main(["gen-trace", "--off-shape", "0.001", "--off-scale-min", "1",
                       "--on-shape", "2", "--on-scale-min", "1", "--total-us", "1000",
                       "--seed", str(seed), "-o", str(out)])
        assert rc == cli.EXIT_CONFIG, seed
        assert "off shape must be >= 53/1024" in capsys.readouterr().err
        assert not out.exists()
    conf = _write_config(tmp_path, "off_shape = 0.001\noff_scale_min = 1.0\non_shape = 2.0\n"
                                   "on_scale_min = 1.0\ncode = 15,9\nframes = 50\n")
    assert cli.main(["sweep", "--vary", "parity", "--config", str(conf)]) == cli.EXIT_CONFIG
    assert "off shape must be >= 53/1024" in capsys.readouterr().err


def test_ambiguous_config_exit_code(tmp_path, capsys):
    # a trace with a Pareto field would run on the trace alone, and a key
    # given twice on its last value
    trace = _write_trace(tmp_path)
    conf = _write_config(tmp_path, f"trace = {trace}\noff_shape = 2.0\ncode = 15,9\nframes = 2\n")
    assert cli.main(["simulate", "--config", str(conf)]) == cli.EXIT_CONFIG
    assert "not both" in capsys.readouterr().err
    assert cli.main(["optimize", "--trace", str(trace), "--off-shape", "2"]) == cli.EXIT_CONFIG
    assert "not both: trace" in capsys.readouterr().err
    conf = _write_config(tmp_path, "off_shape = 1.5\noff_scale_min = 2.0\non_shape = 2.0\n"
                                   "on_scale_min = 50.0\nframes = 2\n# again\nframes = 3\n")
    assert cli.main(["simulate", "--config", str(conf)]) == cli.EXIT_CONFIG
    assert f"{conf}:7: config key 'frames' given twice" in capsys.readouterr().err


SWEEP_HEADER = "parameter,ber_baseline,ber_coded,fer_baseline,fer_coded,throughput"


def test_sweep_silent_csv(tmp_path, capsys):
    conf = _write_config(
        tmp_path,
        "off_shape = 2.0\noff_scale_min = 10.0\non_shape = 2.0\non_scale_min = 50.0\n"
        "code = 15,9\nframes = 10\npayload_bytes = 8\nseed = 2\n",
    )
    rc = cli.main(["sweep", "--vary", "silent-duration", "--values", "20,60",
                   "--config", str(conf)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("20")


def test_sweep_silent_requires_values(tmp_path, capsys):
    conf = _write_config(
        tmp_path,
        "off_shape = 2.0\noff_scale_min = 10.0\non_shape = 2.0\non_scale_min = 50.0\n"
        "code = 15,9\nframes = 5\nseed = 2\n",
    )
    rc = cli.main(["sweep", "--vary", "silent-duration", "--config", str(conf)])
    assert rc == cli.EXIT_CONFIG
    capsys.readouterr()
    # and they must be numbers that give a finite off-run scale
    for values in ("5,abc", "", "inf", "20,nan"):
        rc = cli.main(["sweep", "--vary", "silent-duration", "--values", values,
                       "--config", str(conf)])
        assert rc == cli.EXIT_CONFIG, values
        assert "error:" in capsys.readouterr().err


def test_sweep_parity_csv(tmp_path, capsys):
    conf = _write_config(
        tmp_path,
        "off_shape = 1.5\noff_scale_min = 1.0\non_shape = 1.5\non_scale_min = 30.0\n"
        "code = 15,9\nframes = 40\nseed = 4\n",
    )
    rc = cli.main(["sweep", "--vary", "parity", "--config", str(conf)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 7  # header plus one row per odd k of n=15


def test_sweep_parity_rejects_values(tmp_path, capsys):
    # --values are mean silent durations, which the parity sweep does not vary
    conf = _write_config(
        tmp_path,
        "off_shape = 1.5\noff_scale_min = 1.0\non_shape = 1.5\non_scale_min = 30.0\n"
        "code = 15,9\nframes = 4\nseed = 4\n",
    )
    rc = cli.main(["sweep", "--vary", "parity", "--values", "5,20", "--config", str(conf)])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--values" in captured.err


def test_gen_trace_then_fit_roundtrip(tmp_path, capsys):
    out = tmp_path / "synthetic.csv"
    rc = cli.main([
        "gen-trace",
        "--off-shape", "2.5", "--off-scale-min", "4.0",
        "--on-shape", "2.0", "--on-scale-min", "100.0",
        "--total-us", "200000", "--seed", "9", "-o", str(out),
    ])
    assert rc == 0
    capsys.readouterr()
    assert cli.main(["fit", str(out)]) == 0
    fitted = json.loads(capsys.readouterr().out)
    assert fitted["off"]["shape"] == pytest.approx(2.5, rel=0.25)
    assert fitted["on"]["shape"] == pytest.approx(2.0, rel=0.25)


@pytest.mark.parametrize("scenario, total_us, seed, digest", [
    # the console-script run of CI: long runs, 1,865 of them
    (("2.5", "4.0", "2.0", "100.0"), "200000", "3",
     "eca1b086e60fbba1656ffb37b7eb247fa91155f0fd40ed909fc418b6edcabb62"),
    # sub-microsecond runs, 1,503 of them
    (("1.5", "0.3", "1.5", "0.6"), "2000", "5",
     "eda3d8ad6eab8e029583b4f597c991f0dd214dab935542d46567bd2c5a097da8"),
])
def test_gen_trace_file_is_pinned(tmp_path, capsys, scenario, total_us, seed, digest):
    # the trace file's bytes are those the per-run draw loop wrote, one
    # rng.random() call per run
    out = tmp_path / "synthetic.csv"
    off_shape, off_scale, on_shape, on_scale = scenario
    assert cli.main([
        "gen-trace", "--off-shape", off_shape, "--off-scale-min", off_scale,
        "--on-shape", on_shape, "--on-scale-min", on_scale,
        "--total-us", total_us, "--seed", seed, "-o", str(out),
    ]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_same_seed_byte_identical_output(tmp_path, capsys):
    conf = _write_config(
        tmp_path,
        "off_shape = 1.5\noff_scale_min = 2.0\non_shape = 2.0\non_scale_min = 50.0\n"
        "code = 15,9\nframes = 15\npayload_bytes = 8\nseed = 6\nmode = sample\n",
    )
    assert cli.main(["simulate", "--config", str(conf), "--keep-frame-log-in-json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["simulate", "--config", str(conf), "--keep-frame-log-in-json"]) == 0
    second = capsys.readouterr().out
    assert first == second
