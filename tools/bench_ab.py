"""Parent-versus-change benchmark comparison, written to a BENCH_<tag>.json file.

    python3 tools/bench_ab.py --parent HEAD~1 --change HEAD --tag pr11

Both revisions are extracted with `git archive` into a temporary directory,
so the comparison sees committed files only. The workloads, the run length
and the end-to-end metrics come from the change's BENCHMARK.json. For each
of `--pairs` seeds the script runs the benchmark command with `--trace 0`
once per side on every workload, alternating which side goes first from
seed to seed. It then runs one `--trace 1` run per side on every workload
and records every per-layer metric it reports. The output holds, per
workload and end-to-end metric, each pair's values, each side's median and
quartiles, the pairs the change won, and the verdict of `judge`; per
workload and side, each run's minor page faults and system CPU seconds,
read as `RUSAGE_CHILDREN` deltas around the benchmark process, and their
medians; and per workload and side, each run's raw set-up times and speed
factor, read from the `perfbench/out/<workload>.trace0.json` file the run
leaves behind (null where it leaves none), and their medians. Since
`setup_s` is the median raw set-up times the speed factor, these tell a
`setup_s` verdict that comes from set-up spread from one that comes from
host drift. It also holds the line count of each side's `src/` Python files
and their difference, in total and per file. After writing the file, the
script prints one line per workload and end-to-end metric (`verdict_lines`),
then a header naming the traced seed and per workload the five traced
per-layer times that moved most, each with its relative size
(`layer_lines`); one traced run per side gives these moves no spread, so
they are not verdicts. Last comes one line per `src/` file whose line
count changed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Compare one metric over pairs of runs; parent[i] and change[i] share a seed.

    A pair is won when the change reads better than the parent, lost when it
    reads worse; an equal pair counts as neither.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    out = {"better": better, "pairs": [[p, c] for p, c in zip(parent, change)],
           "won": won, "lost": lost, "tied": len(parent) - won - lost}
    for side, values in (("parent", parent), ("change", change)):
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        out[side] = {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}
    out["median_change"] = out["change"]["median"] - out["parent"]["median"]
    return out


def judge(s: dict, bound: float) -> dict:
    """The acceptance rule for one `summarize` result; `bound` is a fraction
    of the parent's median.

    The verdict is "unresolved" when the parent's IQR is wider than the
    bound, unless every change run reads better than every parent run;
    otherwise "worse" when the change's median is worse than the parent's
    by more than the bound; otherwise "ok". `gain` holds when the change won
    at least 9 in 10 pairs and its median is better by more than the
    parent's IQR.
    """
    sign = 1.0 if s["better"] == "lower" else -1.0
    parent, change = zip(*s["pairs"])
    limit = bound * abs(s["parent"]["median"])
    improvement = -sign * s["median_change"]
    separated = all(sign * (p - c) > 0 for p in parent for c in change)
    if s["parent"]["iqr"] > limit and not separated:
        verdict = "unresolved"
    elif -improvement > limit:
        verdict = "worse"
    else:
        verdict = "ok"
    gain = 10 * s["won"] >= 9 * len(parent) and improvement > s["parent"]["iqr"]
    return {"verdict": verdict, "gain": gain}


def verdict_lines(workloads: dict) -> list[str]:
    """One line per workload and end-to-end metric of a `compare` result:
    parent median -> change median, the relative change, pairs won, verdict
    and gain."""
    lines = []
    for w, result in workloads.items():
        for name, m in result["metrics"].items():
            parent, change = m["parent"]["median"], m["change"]["median"]
            rel = f" ({100.0 * m['median_change'] / parent:+.1f} %)" if parent else ""
            lines.append(f"{w} {name}: {parent:.4g} -> {change:.4g}{rel}, won {m['won']}/{len(m['pairs'])}, "
                         f"{m['verdict']}, gain {'yes' if m['gain'] else 'no'}")
    return lines


def layer_lines(traced: dict) -> list[str]:
    """A header naming the traced seed, then per workload of a `traced`
    result one line for each of the five per-layer `*.ms` metrics that
    moved most between parent and change, largest absolute difference first
    (ties in name order); a metric that did not move is left out. Each line
    gives the move's size relative to the parent's time, except where that
    reads 0. A span the change no longer calls reads 0 on its side, so its
    whole parent time shows here. Each side has one traced run, so these
    moves carry no spread and are not verdicts; the header says so."""
    lines = [f"traced per-layer moves, seed {traced['seed']}: one run per side, no spread, not verdicts"]
    for w, sides in traced.items():
        if w == "seed":
            continue
        parent, change = sides["parent"], sides["change"]
        moved = [n for n in parent if n.endswith(".ms") and n in change and change[n] != parent[n]]
        for n in sorted(moved, key=lambda n: (-abs(change[n] - parent[n]), n))[:5]:
            move = change[n] - parent[n]
            rel = f", {100.0 * move / parent[n]:+.1f} %" if parent[n] else ""
            lines.append(f"{w} traced {n}: {parent[n]:.4g} -> {change[n]:.4g} ({move:+.4g}{rel})")
    return lines


def rusage_delta(before, after) -> dict:
    """Minor page faults and system CPU seconds between two `getrusage` readings."""
    return {"minflt": after.ru_minflt - before.ru_minflt, "stime_s": after.ru_stime - before.ru_stime}


def trace0_path(tree: str, workload: str) -> str:
    return os.path.join(tree, "perfbench", "out", f"{workload}.trace0.json")


def setup_detail(tree: str, workload: str) -> dict | None:
    """The raw set-up times and speed factor of the last `--trace 0` run of
    `workload` in `tree`; None when that run left no detail file."""
    try:
        with open(trace0_path(tree, workload)) as fh:
            detail = json.load(fh)
    except FileNotFoundError:
        return None
    return {"setup_s_as_measured": detail["setup_s_as_measured"], "speed_factor": detail["speed_factor"]}


def setup_summary(details: list) -> dict:
    """Each run's `setup_detail` and, over the runs that have one, the median
    of each run's median raw set-up and the median speed factor (null when
    no run has one)."""
    have = [d for d in details if d is not None]

    def median(values):
        return statistics.median(values) if have else None

    return {"runs": details,
            "median": {"setup_s_as_measured": median([statistics.median(d["setup_s_as_measured"]) for d in have]),
                       "speed_factor": median([d["speed_factor"] for d in have])}}


def src_file_lines(tree: str) -> dict[str, int]:
    """Lines (newline characters, as `wc -l` counts them) in each `.py` file
    under `tree`/src, keyed by its `/`-separated path relative to `tree`, in
    path order."""
    counts = {}
    for root, _, files in os.walk(os.path.join(tree, "src")):
        for name in filter(lambda n: n.endswith(".py"), files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                counts[os.path.relpath(path, tree).replace(os.sep, "/")] = fh.read().count(b"\n")
    return dict(sorted(counts.items()))


def src_lines(tree: str) -> int:
    """Lines in all the `.py` files under `tree`/src."""
    return sum(src_file_lines(tree).values())


def line_changes(parent: dict[str, int], change: dict[str, int]) -> dict:
    """For each file in either `src_file_lines` result, in path order: its
    lines on each side (0 where it is absent) and the net change."""
    return {path: {"parent": parent.get(path, 0), "change": change.get(path, 0),
                   "net": change.get(path, 0) - parent.get(path, 0)}
            for path in sorted(parent.keys() | change.keys())}


def extract(rev: str, dest: str) -> str:
    """Write the files of `rev` into `dest` and return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return commit


def run_bench(bench: dict, tree: str, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in `tree`; its result is the last line of standard output."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    if trace == 0 and os.path.exists(trace0_path(tree, workload)):
        os.remove(trace0_path(tree, workload))  # a failed run must not leave the last run's detail
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    usage = rusage_delta(before, resource.getrusage(resource.RUSAGE_CHILDREN))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}, "rusage": usage,
            "setup": setup_detail(tree, workload) if trace == 0 else None}


def compare(bench: dict, trees: dict, seeds: list[int]) -> dict:
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                r = run_bench(bench, trees[side], w, seed, 0)
                runs[w][side].append(r)
                print(f"# seed {seed} {w} {side}: op_ms.p50 {r['metrics']['op_ms.p50']:.1f} ms", flush=True)
    out = {}
    for w in workloads:
        sides = runs[w]
        metrics = {}
        for m in bench["end_to_end"]:
            summary = summarize([r["metrics"][m["name"]] for r in sides["parent"]],
                          [r["metrics"][m["name"]] for r in sides["change"]], m["better"])
            metrics[m["name"]] = {**summary, **judge(summary, m["bound"])}
        out[w] = {
            "failed": {s: [r["failed"] for r in sides[s]] for s in sides},
            "attempted": {s: [r["attempted"] for r in sides[s]] for s in sides},
            "correct": {s: all(r["correct"] for r in sides[s]) for s in sides},
            "rusage": {s: {k: {"runs": [r["rusage"][k] for r in sides[s]],
                               "median": statistics.median(r["rusage"][k] for r in sides[s])}
                           for k in ("minflt", "stime_s")} for s in sides},
            "setup": {s: setup_summary([r["setup"] for r in sides[s]]) for s in sides},
            "metrics": metrics,
        }
    return out


def traced(bench: dict, trees: dict, seed: int) -> dict:
    """Every per-layer metric of one traced run per side on each workload."""
    out = {"seed": seed}
    for w in bench["workloads"]:
        out[w["name"]] = {side: run_bench(bench, trees[side], w["name"], seed, 1)["metrics"]
                          for side in ("parent", "change")}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--change", required=True, help="changed revision")
    p.add_argument("--tag", required=True, help="names the output, BENCH_<tag>.json")
    p.add_argument("--pairs", type=int, default=10, help="seeds, each run once per side")
    p.add_argument("--first-seed", type=int, default=1101)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        commits = {side: extract(rev, trees[side]) for side, rev in
                   (("parent", args.parent), ("change", args.change))}
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        report = {
            "tag": args.tag,
            "command": "python3 tools/bench_ab.py " + " ".join(argv if argv is not None else sys.argv[1:]),
            "commits": commits,
            "src_lines": {side: src_lines(trees[side]) for side in ("parent", "change")},
            "src_file_lines": line_changes(src_file_lines(trees["parent"]), src_file_lines(trees["change"])),
            "seeds": seeds,
            "run_seconds": bench["run_seconds"],
            "host": {"python": platform.python_version(), "machine": platform.machine(),
                     "nproc": len(os.sched_getaffinity(0))},
            "workloads": compare(bench, trees, seeds),
            "traced": traced(bench, trees, seeds[0]),
        }
    report["src_lines"]["net"] = report["src_lines"]["change"] - report["src_lines"]["parent"]
    path = f"BENCH_{args.tag}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"# wrote {path}")
    print("\n".join(verdict_lines(report["workloads"]) + layer_lines(report["traced"])))
    for path, lines in report["src_file_lines"].items():
        if lines["net"]:
            print(f"{path}: {lines['parent']} -> {lines['change']} lines ({lines['net']:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
