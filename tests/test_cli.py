"""Command-line interface: subcommands, config parsing, exit codes."""

import dataclasses
import json
import time

import numpy as np
import pytest

from rscatter import cli, harness, phy, traffic
from rscatter.errors import ParameterError


def _write_trace(tmp_path, seed=0, n=400):
    rng = np.random.default_rng(seed)
    trace = traffic.DurationTrace(
        off_durations=traffic.pareto_sample(rng, traffic.ParetoParams(2.5, 4.0), n),
        on_durations=traffic.pareto_sample(rng, traffic.ParetoParams(2.0, 100.0), n),
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
        "trace = trace.csv\n"
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
    for name, value in expected.items():
        got = getattr(cfg, name)
        assert type(got) is type(value) and got == value, name


def test_load_config_rejects_garbage(tmp_path):
    for text in ("whatkey = 3\n", "off_shape 1.5\n", "frames = many\n", "code = 15;9\n"):
        path = _write_config(tmp_path, text)
        with pytest.raises(ParameterError):
            cli.load_config(path)


def test_simulate_reports_and_logs(tmp_path, capsys):
    conf = _write_config(
        tmp_path,
        "off_shape = 1.5\noff_scale_min = 2.0\non_shape = 2.0\non_scale_min = 50.0\n"
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


def test_simulate_negative_values_exit_code(tmp_path, capsys):
    scenario = "off_shape = 1.5\noff_scale_min = 2.0\non_shape = 2.0\non_scale_min = 50.0\n"
    # a later line overrides the scenario's; an infinite off run would gate
    # nothing and report a perfect link
    for line in ("off_scale_min = inf", "on_shape = nan",
                 "seed = -1", "noise_sigma = -0.5", "noise_sigma = nan",
                 "erasure_margin_bits = -1", "rate = 0", "rate = inf", "pe_threshold = 2",
                 "samples_per_bit = 3", "samples_per_bit = 3\nmode = sample",
                 "samples_per_bit = 100000", "samples_per_bit = 100000\nmode = sample"):
        conf = _write_config(tmp_path, scenario + "code = 15,9\nframes = 2\n" + line + "\n")
        # rejected before any waveform is built, so an oversized
        # samples_per_bit costs no time or memory
        t0 = time.perf_counter()
        assert cli.main(["simulate", "--config", str(conf)]) == cli.EXIT_CONFIG
        assert time.perf_counter() - t0 < 5.0
        assert "error:" in capsys.readouterr().err
    # the sample-rate cap itself is accepted
    conf = _write_config(tmp_path, scenario + "code = 15,9\nframes = 2\nmode = sample\n"
                         f"samples_per_bit = {phy.MAX_SAMPLES_PER_BIT}\n")
    assert cli.main(["simulate", "--config", str(conf)]) == 0
    capsys.readouterr()


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
    assert lines[0].startswith("parameter,")
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
    assert len(lines) == 1 + 7  # header plus one row per odd k of n=15


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
