"""rscatter benchmark: one workload, untraced (end-to-end) or traced (per layer).

    python3 perfbench/run.py --workload {symbol,sample,parity} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from `src/` next to this
directory.  The last line of standard output is the result object; the line
before it is the run record (machine, versions, counts, digest).  A readable
summary goes to standard error.  See README.md for the workloads and metrics.
"""

import os

# Pinned before numpy is imported, by this process and the set-up probes, so
# that a future matrix-based encoder is not measured against the scheduler.
THREAD_PINS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up probes per untraced run, spread over the run so that their median
# samples the same machine conditions as the timed calls.
SETUP_REPEATS = 15
MIN_CALLS = 3
TRACED_MODULES = ("traffic", "channel", "gf2m", "rscodec", "codesearch", "phy", "harness")
# Share of --seconds that a traced run spends on untraced calls, the
# reference for the tracing overhead; the rest is traced.
UNTRACED_SHARE = 1 / 3

# Per-layer metrics, `<span>.<quantity>`.  Spans are `<module>.<function>`,
# named after the module that defines the function.
PER_LAYER = (
    "rscodec.encode.self_s", "rscodec.encode.calls", "gf2m.mul.calls",
    "rscodec.encode_batch.self_s",
    "rscodec.decode.self_s", "rscodec.decode.calls", "rscodec.decode.none_ratio",
    "rscodec.RsCode.calls",
    "phy.flag_erasure_runs.self_s", "phy.flag_erasure_runs.calls",
    "phy.perceived_erasures.self_s", "phy.scramble.self_s",
    "phy.crc16.self_s", "phy.crc16.calls",
    "phy.demodulate.self_s", "phy.demodulate.none_ratio",
    "phy.modulate.self_s", "phy.apply_channel.self_s",
    "phy.frame_parse.calls", "phy.frame_parse.crc_reject_ratio",
    "channel.gate_durations.self_s", "channel.gate_durations.calls",
    "traffic.pareto_sample.calls", "channel.erasure_mask_from_gate.self_s",
    "channel.markov_from_stats.calls",
    "codesearch.optimize_code.self_s", "codesearch.optimize_for_ps.self_s",
    "channel.binomial_tail.calls",
    "harness.run.self_s", "harness.run_symbol_level.self_s",
    "harness.run_sample_level.self_s", "harness.sweep_parity.self_s",
    "bench.trace_overhead_ratio",
)
UNITS = {"self_s": "s", "calls": "count", "none_ratio": "ratio",
         "crc_reject_ratio": "ratio", "trace_overhead_ratio": "ratio"}

# Workloads on which each named span must see calls; on the others it must
# see none.  This is the call graph at the commit the benchmark was written
# for: a mismatch means the tracer missed a binding or work moved between
# layers, and is reported in the record, not as a failed call.
ALL = frozenset({"symbol", "sample", "parity"})
SYMBOL, SAMPLE, PARITY = frozenset({"symbol"}), frozenset({"sample"}), frozenset({"parity"})
EXPECTED_CALLS = {
    "rscodec.encode": SYMBOL | SAMPLE,
    "gf2m.mul": ALL,
    "rscodec.encode_batch": PARITY,
    "rscodec.decode": SAMPLE,
    "rscodec.RsCode": ALL,
    "phy.flag_erasure_runs": ALL,
    "phy.perceived_erasures": SYMBOL | PARITY,
    "phy.scramble": ALL,
    "phy.crc16": SYMBOL | SAMPLE,
    "phy.demodulate": SAMPLE,
    "phy.modulate": SAMPLE,
    "phy.apply_channel": SAMPLE,
    "phy.frame_parse": SAMPLE,
    "channel.gate_durations": ALL,
    "traffic.pareto_sample": ALL,
    "channel.erasure_mask_from_gate": ALL,
    "channel.markov_from_stats": SYMBOL | SAMPLE,
    "codesearch.optimize_code": SYMBOL,
    "codesearch.optimize_for_ps": SYMBOL,
    "channel.binomial_tail": SYMBOL | SAMPLE,
    "harness.run": SYMBOL | SAMPLE,
    "harness.run_symbol_level": SYMBOL,
    "harness.run_sample_level": SAMPLE,
    "harness.sweep_parity": PARITY,
}


def import_program():
    """Import rscatter from this checkout's src/, never from elsewhere."""
    if not (SRC / "rscatter" / "__init__.py").is_file():
        sys.exit(f"run.py: no rscatter sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import rscatter

    if Path(rscatter.__file__).resolve().parent != SRC / "rscatter":
        sys.exit(f"run.py: imported rscatter from {rscatter.__file__}, not {SRC}")
    return rscatter


class SetupProbe:
    """Set-up time of a workload, measured in fresh interpreters, one at a
    time, while the benchmark's own process waits."""

    def __init__(self, workload, seed, seconds):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.interval = seconds / SETUP_REPEATS
        self.next_at = perf_counter()
        self.samples = []

    def probe(self):
        out = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        self.samples.append(float(out.stdout.split()[-1]))

    def between_calls(self):
        if len(self.samples) < SETUP_REPEATS and perf_counter() >= self.next_at:
            self.probe()
            self.next_at += self.interval

    def finish(self):
        while len(self.samples) < SETUP_REPEATS:
            self.probe()
        return self.samples


def timed_calls(workload, cfg, expected, seconds, after_call=None, min_calls=MIN_CALLS):
    """Closed loop: call, compare the report with the reference, repeat until
    `seconds` have passed.  Returns the wall times of good calls and the
    number of calls that raised or gave another report."""
    walls, failed = [], 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(walls) + failed < min_calls:
        t0 = perf_counter()
        try:
            out = workload.call(cfg)
        except Exception:
            traceback.print_exc()
            failed += 1
        else:
            wall = perf_counter() - t0
            if workload.report_bytes(out) == expected:
                walls.append(wall)
            else:
                failed += 1
        if after_call:
            after_call()
    return walls, failed


def median(values):
    return statistics.median(values) if values else 0.0


def fast_call_s(walls):
    """Wall time of a call at the fastest decile of the run.

    Other tenants of a shared machine only ever slow a call down, and on a
    2-core host they moved the median call time of a 30 s run by 5-12%
    from run to run, the fastest decile by 2-4%.
    """
    if len(walls) < 2:
        return walls[0] if walls else 0.0
    return statistics.quantiles(walls, n=10, method="inclusive")[0]


class SpanLog:
    """Per-call span figures gathered while the tracer is installed."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.per_call = {}  # span -> list of (calls, self_s), one per traced call
        self.totals = {}  # span -> [calls, none_returns, FrameCrcError raises]

    def after_call(self):
        for name, span in self.tracer.spans.items():
            self.per_call.setdefault(name, []).append((span.calls, span.self_s))
            tot = self.totals.setdefault(name, [0, 0, 0])
            tot[0] += span.calls
            tot[1] += span.none_returns
            tot[2] += span.raised["FrameCrcError"]
        self.tracer.reset()

    def calls(self, name):
        return median([c for c, _ in self.per_call.get(name, [])])

    def self_s(self, name):
        return median([s for _, s in self.per_call.get(name, [])])

    def ratio(self, name, index):
        calls, *counts = self.totals.get(name, [0, 0, 0])
        return counts[index] / calls if calls else 0.0


def traced_run(rscatter, workload, cfg, expected, seconds):
    """Untraced reference calls, then traced calls, then one call counting
    gf2m.mul alone: the per-symbol multiply runs millions of times per call,
    so timing it, or even counting it alongside the timed spans, would
    inflate its callers' self time."""
    import tracer as tracing

    untraced, failed_u = timed_calls(workload, cfg, expected, seconds * UNTRACED_SHARE)

    tr = tracing.Tracer("rscatter")
    tr.wrap_functions(TRACED_MODULES)
    if hasattr(rscatter.rscodec, "RsCode"):
        tr.wrap_method(rscatter.rscodec.RsCode, "__init__", "rscodec.RsCode")
    log = SpanLog(tr)
    try:
        traced, failed_t = timed_calls(
            workload, cfg, expected, seconds * (1 - UNTRACED_SHARE), log.after_call
        )
    finally:
        tr.uninstall()

    counter = tracing.Tracer("rscatter")
    if hasattr(rscatter.gf2m, "FieldContext"):
        counter.wrap_method(rscatter.gf2m.FieldContext, "mul", "gf2m.mul", count_only=True)
    try:
        counted, failed_c = timed_calls(workload, cfg, expected, 0.0, min_calls=1)
    finally:
        counter.uninstall()
    mul_span = counter.spans.get("gf2m.mul")
    mul_calls = mul_span.calls / (len(counted) + failed_c) if mul_span else 0.0

    overhead = fast_call_s(traced) / fast_call_s(untraced) if untraced else 0.0
    metrics = {}
    for metric in PER_LAYER:
        span, quantity = metric.rsplit(".", 1)
        if metric == "gf2m.mul.calls":
            value = mul_calls
        elif metric == "bench.trace_overhead_ratio":
            value = overhead
        elif quantity == "self_s":
            value = log.self_s(span)
        elif quantity == "calls":
            value = log.calls(span)
        else:
            value = log.ratio(span, 0 if quantity == "none_ratio" else 1)
        metrics[metric] = {"value": value, "unit": UNITS[quantity]}

    seen = {name for name in log.per_call if log.calls(name) > 0}
    if mul_calls > 0:
        seen.add("gf2m.mul")
    span_check = [
        f"{name}: expected {'calls' if workload.name in where else 'no calls'}"
        for name, where in sorted(EXPECTED_CALLS.items())
        if (workload.name in where) != (name in seen)
    ]
    wall = median(traced)
    detail = {
        "untraced_call_s": fast_call_s(untraced),
        "traced_call_s": fast_call_s(traced),
        "mul_count_call_s": median(counted),
        "span_check": span_check,
        "spans": {
            name: {"calls": log.calls(name), "self_s": log.self_s(name),
                   "share": log.self_s(name) / wall if wall else 0.0}
            for name in sorted(seen, key=log.self_s, reverse=True)
            if name in log.per_call
        },
    }
    calls = untraced + traced + counted
    return metrics, calls, failed_u + failed_t + failed_c, detail


def machine():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": THREAD_PINS,
        "processes": "one process runs the workload; set-up probes run before it, one at a time",
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("symbol", "sample", "parity"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    rscatter = import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]

    cfg = workload.build(args.seed)
    reference = workload.call(cfg)  # warm-up: fills the field tables, untimed
    expected = workload.report_bytes(reference)
    problems = workload.check(cfg, reference)
    work = workload.work(cfg)

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, f"{workload.unit}s_per_call": work,
        "git_commit": git_commit(), "machine": machine(),
        "report_sha256": hashlib.sha256(expected).hexdigest(),
        "check_problems": problems,
    }
    if isinstance(reference, rscatter.harness.LinkReport):
        record["code"] = [reference.code_n, reference.code_k]
        record["fer"] = reference.fer
        record["fer_baseline"] = reference.fer_baseline

    if args.trace:
        metrics, walls, failed, detail = traced_run(
            rscatter, workload, cfg, expected, args.seconds)
        record.update(detail)
    else:
        setup = SetupProbe(workload.name, args.seed, args.seconds)
        walls, failed = timed_calls(workload, cfg, expected, args.seconds, setup.between_calls)
        setup_samples = setup.finish()
        call_s = fast_call_s(walls)
        metrics = {
            "frames_per_s": {"value": work / call_s if call_s else 0.0, "unit": "1/s"},
            "setup_s": {"value": median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        record["setup_samples_s"] = setup_samples
    attempted = len(walls) + failed
    if problems:  # every call repeats the reference report, so every call fails the check
        failed = attempted
    record["calls"] = attempted
    record["call_s"] = walls
    record["failed_ratio"] = failed / attempted
    correct = not problems and failed == 0

    summarize(record, metrics, workload)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def summarize(record, metrics, workload):
    err = sys.stderr
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['calls']} calls of {record[workload.unit + 's_per_call']} "
          f"{workload.unit}s, report sha256 {record['report_sha256'][:16]}", file=err)
    for problem in record["check_problems"] + record.get("span_check", []):
        print(f"  CHECK: {problem}", file=err)
    if record["trace"]:
        print(f"  untraced call {record['untraced_call_s']:.4f} s, traced "
              f"{record['traced_call_s']:.4f} s, mul-count call "
              f"{record['mul_count_call_s']:.4f} s", file=err)
        print(f"  {'span':36s} {'calls/call':>12s} {'self s/call':>12s} {'share':>7s}", file=err)
        for name, s in record["spans"].items():
            print(f"  {name:36s} {s['calls']:12g} {s['self_s']:12.6f} {s['share']:7.1%}",
                  file=err)
    else:
        label = {"frame": "frames_per_s", "trial": "trials_per_s"}[workload.unit]
        m = metrics["frames_per_s"]
        print(f"  {label} = {m['value']:.2f} {m['unit']}", file=err)
        for name in ("setup_s", "peak_rss_mb"):
            print(f"  {name} = {metrics[name]['value']:.4f} {metrics[name]['unit']}", file=err)
        print(f"  failed_ratio = {record['failed_ratio']:.4f} ratio", file=err)


if __name__ == "__main__":
    main()
