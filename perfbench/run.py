"""Benchmark entry point: one workload (or all of them) in one process.

    python3 perfbench/run.py --workload train-pinned --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the program is imported from `src/` of
that checkout and from nowhere else. Human-readable lines start with `#`;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
`--workload all` runs every workload in this process and reports each
workload's own metric names instead. README.md in this directory documents
every workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

WORKLOAD_NAMES = ("train-pinned", "sample-wide", "codec-sweep")

# One BLAS thread: on a 2-core machine two threads were no faster on either
# the narrow training or the wide sampling workload, and one thread keeps
# the figures independent of the host's core count.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_REPEATS = 3  # setup_s is the median of this many complete set-ups

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END_UNITS = {"setup_s": "s", "op_ms.p50": "ms", "op_ms.tail": "ms",
                    "items_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes, for the smoke check only; figures mean nothing")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all" and args.trace:
        p.error("--workload all reports end-to-end metrics only; trace one workload at a time")
    return args


def say(line: str) -> None:
    print(f"# {line}", flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def environment(np, seed) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def code_hash() -> str:
    """Hash of the program and benchmark sources, keying recorded counters."""
    h = hashlib.sha256()
    for folder in (os.path.join(SRC, "jpeggan"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def timed_setups(wl):
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = wl.setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times), times, state


def end_to_end(W, wl, out, setup_s) -> dict:
    tail_ms, pct, n = W.tail(out.op_ms)
    say(f"item: {wl.item}")
    say(f"op_ms.tail is p{pct:.1f} of {n} operations")
    return {
        "setup_s": setup_s,
        "op_ms.p50": W.p50(out.op_ms),
        "op_ms.tail": tail_ms,
        "items_per_s": out.items / out.wall_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def workload_named(W, wl, out, setup_s, factor) -> dict:
    """The workload's own metric names, as the README lists them."""
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb(), "MB"),
             "failed_ratio": (out.failed / out.attempted, "ratio")}
    named.update(wl.own_metrics(out))
    for name, (value, unit) in named.items():
        say(f"{wl.name} {name} = {value:.6g} {unit}")
    if "protocol_projected_s" in named:
        projected = named["protocol_projected_s"][0]
        say(f"{wl.name} protocol_projected_s {projected:.0f} s at reference speed, "
            f"{projected / factor:.0f} s as measured, against the {W.PROTOCOL_BUDGET_S:.0f} s budget")
    return named


def check_repeats(key, counters, problems) -> None:
    """Compare counters with an earlier run of the same seed and code."""
    path = os.path.join(OUT, "counters.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    if key in known:
        for name, value in counters.items():
            if known[key].get(name) != value:
                problems.append(f"{name} = {value} differs from {known[key].get(name)} "
                                f"in an earlier run of this seed")
    else:
        known[key] = counters
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)


def calibrated_run(wl, state, seconds, min_ops, tracer=None):
    """Run the workload; return its outcome at reference speed, and the factor."""
    from calibration import REFERENCE_MS, Calibration  # numpy loads only after BLAS_ENV is set

    cal = Calibration()
    cal.sample(force=True)
    out = wl.run(state, seconds, min_ops, tracer, cal)
    cal.sample(force=True)
    say(f"speed factor {cal.factor:.4f}: calibration kernel median "
        f"{statistics.median(cal.samples_ms):.3f} ms over {len(cal.samples_ms)} samples, "
        f"reference {REFERENCE_MS} ms")
    return out.scaled(cal.factor), cal.factor


def traced_run(W, tracing, wl, args, env):
    """Untraced then traced halves; per-layer values come from the traced one."""
    half = args.seconds / 2.0
    min_ops = max(W.TINY_MIN_OPS, wl.window)  # enough for the counters; no tail is needed
    plain, _ = calibrated_run(wl, wl.setup(), half, min_ops)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        state = wl.setup()
        traced, factor = calibrated_run(wl, state, half, min_ops, tracer)
    untraced_p50 = W.p50(plain.op_ms)
    overhead = W.p50(traced.op_ms) - untraced_p50
    problems = tracing.repeat_problems(tracer.spans)
    metrics = tracing.layer_metrics(tracer.spans, traced.attempted, wl.window, wl.f32, factor,
                                    traced.phases, overhead, untraced_p50)
    counters = {k: metrics[k] for k in tracing.REPEATING}
    key = f"{wl.name} seed={args.seed} tiny={args.tiny} code={code_hash()}"
    check_repeats(key, counters, problems)
    tracer.dump(os.path.join(OUT, f"{wl.name}.spans.jsonl"))
    say(f"{len(tracer.spans)} spans written to perfbench/out/{wl.name}.spans.jsonl")
    say("wait time: none recorded; the program is single-threaded and no layer queues work")
    say(f"tracing overhead: {overhead:.3f} ms per operation on an untraced p50 of "
        f"{untraced_p50:.3f} ms")
    for problem in problems:
        say(f"REPEAT CHECK FAILED: {problem}")
    failed = plain.failed + traced.failed
    result = {
        "correct": failed == 0 and not problems,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": tracing.metric_unit(n)}
                    for n in tracing.metric_names()},
    }
    return result, {"env": env, "problems": problems, "untraced_op_ms": plain.op_ms,
                    "traced_op_ms": traced.op_ms}


def plain_run(W, wl, args, env):
    setup_s, setup_times, state = timed_setups(wl)
    say(f"setup_s median of {setup_times} s as measured")
    out, factor = calibrated_run(wl, state, args.seconds, W.TINY_MIN_OPS if args.tiny else W.MIN_OPS)
    setup_s *= factor
    metrics = end_to_end(W, wl, out, setup_s)
    named = workload_named(W, wl, out, setup_s, factor)
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in metrics.items()},
    }
    detail = {"env": env, "speed_factor": factor,
              "named": {n: {"value": v, "unit": u} for n, (v, u) in named.items()},
              "setup_s_as_measured": setup_times, "op_ms": out.op_ms, "samples": out.samples}
    return result, detail, named


def run_all(W, args, env):
    """Every workload in this process, each reported under its own names."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        wl = W.WORKLOADS[name](args.seed, args.tiny)
        say(f"--- {name}")
        result, _, named = plain_run(W, wl, args, env)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, (value, unit) in named.items():
            metrics[f"{name}.{metric}"] = {"value": value, "unit": unit}
    say("peak_rss_mb here is the process peak so far; run one workload for its own peak")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:  # must be set before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "jpeggan", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}/jpeggan", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import jpeggan

    if os.path.dirname(os.path.realpath(jpeggan.__file__)) != os.path.realpath(os.path.join(SRC, "jpeggan")):
        print(f"perfbench: jpeggan was imported from {jpeggan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads as W

    os.makedirs(OUT, exist_ok=True)
    env = environment(np, args.seed)
    say(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}{' tiny' if args.tiny else ''}")
    say(" ".join(f"{k}={v}" for k, v in env.items()))
    if args.workload == "all":
        result = run_all(W, args, env)
    else:
        wl = W.WORKLOADS[args.workload](args.seed, args.tiny)
        if args.trace:
            result, detail = traced_run(W, tracing, wl, args, env)
        else:
            result, detail, _ = plain_run(W, wl, args, env)
        detail["result"] = result
        with open(os.path.join(OUT, f"{wl.name}.trace{args.trace}.json"), "w") as fh:
            json.dump(detail, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
