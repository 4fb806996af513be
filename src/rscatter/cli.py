"""Command-line interface.

Subcommands: fit, optimize, simulate, sweep, gen-trace.  Reports are JSON,
sweeps and per-frame logs are CSV.  Exit codes: 0 success, 2 config or
parameter error or an unreadable or unwritable file, 3 infeasible channel
or search.
"""

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import channel, codesearch, harness, traffic
from .errors import (
    DegenerateTraceError,
    InfeasibleError,
    InfiniteMeanError,
    ParameterError,
    TraceParseError,
)

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

# config key -> value type; `code` is parsed by _parse_code
_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(harness.ExperimentConfig)}


def _parse_code(text):
    text = text.strip()
    if text == "optimize":
        return None
    try:
        n, k = (int(v) for v in text.split(","))
    except ValueError:
        raise ParameterError(f"code must be 'optimize' or 'n,k', got {text!r}") from None
    return (n, k)


def load_config(path):
    """Flat key=value config; '#' starts a comment."""
    values = {}
    for lineno, raw in traffic.text_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        if key not in _CONFIG_FIELDS:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ParameterError(f"{path}:{lineno}: config key {key!r} given twice")
        conv = _CONFIG_FIELDS[key]
        try:
            values[key] = _parse_code(value) if key == "code" else conv(value)
        except ValueError:
            raise ParameterError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return harness.ExperimentConfig(**values)


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_fit(args):
    stats = traffic.fit_stats(traffic.load_trace(args.trace))
    _emit(dataclasses.asdict(stats))


def _scenario_stats(args):
    return harness.ExperimentConfig(
        trace=args.trace,
        off_shape=args.off_shape,
        off_scale_min=args.off_scale_min,
        on_shape=args.on_shape,
        on_scale_min=args.on_scale_min,
    ).stats()


def _cmd_optimize(args):
    stats = _scenario_stats(args)
    outcome = codesearch.optimize_for_ps(channel.symbol_error_rate(stats, args.rate), args.pe_th)
    _emit(
        {
            "n": outcome.code.n,
            "k": outcome.code.k,
            "t": outcome.code.t,
            "rate": outcome.rate,
            "predicted_pe": outcome.predicted_pe,
            "feasible_alternatives": [
                {"n": n, "k": k, "pe": pe} for n, k, pe in outcome.feasible_alternatives
            ],
        }
    )


def _cmd_simulate(args):
    config = load_config(args.config)
    report = harness.run(config)
    if args.frame_log:
        with open(args.frame_log, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["frame", "baseline_error", "coded_error"])
            writer.writeheader()
            writer.writerows(report.frame_log)
    if not args.keep_frame_log_in_json:
        report = dataclasses.replace(report, frame_log=[])
    _emit(report.to_dict())


def _cmd_sweep(args):
    config = load_config(args.config)
    if args.vary == "parity":
        if args.values is not None:
            raise ParameterError("--values applies to --vary silent-duration only")
        n = config.code[0] if config.code else 127
        rows = harness.sweep_parity(config, n=n)
    else:
        if args.values is None:
            raise ParameterError("--values is required for --vary silent-duration")
        try:
            values = [float(v) for v in args.values.split(",")]
        except ValueError:
            raise ParameterError(
                f"--values must be a comma list of numbers, got {args.values!r}"
            ) from None
        rows = harness.sweep_silent(config, values)
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


def _cmd_gen_trace(args):
    if args.seed < 0:
        raise ParameterError(f"seed must be >= 0, got {args.seed}")
    if not (math.isfinite(args.total_us) and args.total_us > 0):
        raise ParameterError(f"--total-us must be finite and > 0, got {args.total_us}")
    stats = _scenario_stats(args)
    rng = np.random.default_rng(args.seed)
    durations = channel.gate_durations(rng, stats, args.total_us)
    trace = traffic.DurationTrace(
        off_durations=durations[1::2], on_durations=durations[0::2]
    )
    traffic.save_trace(trace, args.output)
    print(f"wrote {durations.size} runs to {args.output}")


def _add_scenario_options(p):
    p.add_argument("--trace", help="trace CSV to fit instead of explicit parameters")
    p.add_argument("--off-shape", type=float, dest="off_shape")
    p.add_argument("--off-scale-min", type=float, dest="off_scale_min")
    p.add_argument("--on-shape", type=float, dest="on_shape")
    p.add_argument("--on-scale-min", type=float, dest="on_scale_min")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rscatter",
        description="RS-coded backscatter link simulator over intermittent WiFi excitation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit Pareto on/off statistics from a trace CSV")
    p.add_argument("trace")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("optimize", help="select the rate-maximal RS code")
    _add_scenario_options(p)
    p.add_argument("--rate", type=float, default=1e6, help="backscatter symbols/second")
    p.add_argument("--pe-th", type=float, default=codesearch.DEFAULT_PE_THRESHOLD)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="run one Monte Carlo experiment")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--frame-log", help="write the per-frame outcome CSV here")
    p.add_argument(
        "--keep-frame-log-in-json", action="store_true",
        help="include the per-frame log in the JSON report",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="sweep parity or mean silent duration")
    p.add_argument("--vary", choices=["parity", "silent-duration"], required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--values", help="comma list of mean silent durations in us")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gen-trace", help="synthesize a trace CSV from Pareto parameters")
    _add_scenario_options(p)
    p.add_argument("--total-us", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=_cmd_gen_trace)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ParameterError, TraceParseError, DegenerateTraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleError, InfiniteMeanError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return 0


if __name__ == "__main__":
    sys.exit(main())
