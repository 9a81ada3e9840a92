"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Runs every workload once untraced and twice traced, then `--workload all`,
and checks each result line against BENCHMARK.json: the four keys, every
metric by name with its unit, `correct` true and nothing failed. It also
checks the per-layer facts the README states for this commit, and that the
benchmark exits non-zero without printing a result when the program's
sources are missing. Prints one line per check; exits 1 if any failed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OWN_NAMES = {  # each workload's own metric names, as --workload all reports them
    "train-pinned": ("pretrain_step_ms.p50", "pretrain_step_ms.tail", "joint_step_ms.p50",
                     "joint_step_ms.tail", "protocol_projected_s"),
    "sample-wide": ("sample_images_per_s", "sample_batch_ms.p50", "sample_batch_ms.tail"),
    "codec-sweep": ("sweep_reencodes_per_s", "sweep_setting_ms.p50"),
}
COMMON = ("setup_s", "peak_rss_mb", "failed_ratio")

failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    cmd = SPEC["command"] + args
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(args, what):
    code, lines, err = run(args)
    check(code == 0, f"{what}: exit code 0")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        check(False, f"{what}: last line is JSON ({err.strip()[-200:]})")
        return None
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{what}: result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{what}: correct, none failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what}: attempted >= 1")
    return result


def check_metrics(result, specs, what):
    metrics = result["metrics"]
    check(sorted(metrics) == sorted(m["name"] for m in specs), f"{what}: metric names match")
    for m in specs:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        ok = got.get("unit") == m["unit"] and isinstance(value, (int, float)) and math.isfinite(value)
        check(ok, f"{what}: {m['name']} is a number in {m['unit']}")


def main() -> int:
    tiny = ["--seed", "1", "--seconds", "1", "--tiny"]
    layer = {}
    for name in WORKLOADS:
        result = result_of(["--workload", name, "--trace", "0"] + tiny, f"{name} trace 0")
        if result:
            check_metrics(result, SPEC["end_to_end"], f"{name} trace 0")
        for rep in (1, 2):  # the second traced run compares its counters with the first
            result = result_of(["--workload", name, "--trace", "1"] + tiny, f"{name} trace 1 #{rep}")
            if result:
                check_metrics(result, SPEC["per_layer"], f"{name} trace 1 #{rep}")
                layer[name] = {k: v["value"] for k, v in result["metrics"].items()}
    if "train-pinned" in layer and "sample-wide" in layer:
        train, sample = layer["train-pinned"], layer["sample-wide"]
        check(train["tensor.col2im.calls"] > 0, "train-pinned runs col2im")
        check(train["tensor.grad_create_graph.ms"] > 0, "train-pinned runs the double backward")
        check(train["tensor.f64_outputs"] > 0, "train-pinned still computes in float64 (known defect)")
        check(sample["tensor.col2im.calls"] == 0, "sample-wide runs no col2im")
        check(sample["tensor.grad_create_graph.ms"] == 0, "sample-wide runs no double backward")
        check(sample["jfif.bytes_written"] > 0, "sample-wide writes JFIF")

    result = result_of(["--workload", "all", "--trace", "0"] + tiny, "all")
    if result:
        wanted = {f"{w}.{m}" for w, own in OWN_NAMES.items() for m in own + COMMON}
        check(set(result["metrics"]) == wanted, "all: each workload's own metric names")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines, _ = run(["--workload", WORKLOADS[0], "--trace", "0"] + tiny, cwd=bare)
    check(code != 0 and not any(line.startswith("{") for line in lines),
          "without program sources: non-zero exit, no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
