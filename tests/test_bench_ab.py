"""The summary that tools/bench_ab.py writes for each metric."""

import importlib.util
import json
import pathlib
import resource
import subprocess
import sys
from types import SimpleNamespace

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


class TestSummarize:
    def test_lower_is_better(self):
        s = bench_ab.summarize([10.0, 12.0, 11.0, 13.0, 9.0], [8.0, 12.0, 9.0, 14.0, 7.0], "lower")
        assert (s["won"], s["lost"], s["tied"]) == (3, 1, 1)
        assert s["pairs"] == [[10.0, 8.0], [12.0, 12.0], [11.0, 9.0], [13.0, 14.0], [9.0, 7.0]]
        assert s["parent"]["median"] == 11.0 and s["change"]["median"] == 9.0
        assert s["median_change"] == -2.0
        # inclusive quartiles of 9..13
        assert (s["parent"]["q1"], s["parent"]["q3"], s["parent"]["iqr"]) == (10.0, 12.0, 2.0)

    def test_higher_is_better(self):
        s = bench_ab.summarize([3.0, 3.0], [3.5, 2.0], "higher")
        assert (s["won"], s["lost"], s["tied"]) == (1, 1, 0)
        assert s["parent"]["iqr"] == 0.0

    def test_one_pair_has_no_spread(self):
        s = bench_ab.summarize([5.0], [4.0], "lower")
        assert s["won"] == 1 and s["change"] == {"median": 4.0, "q1": 4.0, "q3": 4.0, "iqr": 0.0}

    def test_unpaired_runs_are_rejected(self):
        with pytest.raises(ValueError, match="same positive number"):
            bench_ab.summarize([1.0, 2.0], [1.0], "lower")
        with pytest.raises(ValueError):
            bench_ab.summarize([], [], "lower")


class TestJudge:
    def judge(self, parent, change, better="lower", bound=0.2):
        return bench_ab.judge(bench_ab.summarize(parent, change, better), bound)

    def test_ok_within_bound(self):
        assert self.judge([10.0, 10.5, 9.5, 10.0], [11.0, 11.5, 10.5, 11.0]) == {"verdict": "ok", "gain": False}

    def test_worse_beyond_bound(self):
        assert self.judge([10.0, 10.5, 9.5, 10.0], [13.0, 13.5, 12.5, 13.0])["verdict"] == "worse"
        # higher is better: a fall of 30 % is worse, a rise is not
        assert self.judge([10.0, 10.5, 9.5, 10.0], [7.0, 7.5, 6.5, 7.0], "higher")["verdict"] == "worse"
        assert self.judge([10.0, 10.5, 9.5, 10.0], [13.0, 13.5, 12.5, 13.0], "higher")["verdict"] == "ok"

    def test_unresolved_when_parent_spreads_wider_than_bound(self):
        # parent IQR 5.0 > 0.2 * median 10.0
        assert self.judge([5.0, 10.0, 15.0, 8.0, 12.0], [30.0, 10.0, 11.0, 9.0, 10.0])["verdict"] == "unresolved"

    def test_full_separation_resolves_a_wide_parent(self):
        s = self.judge([5.0, 10.0, 15.0, 8.0, 12.0], [4.0, 3.0, 2.0, 1.0, 4.5])
        assert s["verdict"] == "ok"

    def test_gain_needs_nine_in_ten_pairs_and_a_median_beyond_the_iqr(self):
        parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]
        assert self.judge(parent, [p - 1.0 for p in parent])["gain"] is True
        # eight pairs won of ten
        assert self.judge(parent, [p - 1.0 for p in parent[:8]] + [p + 1.0 for p in parent[8:]])["gain"] is False
        # every pair won, by less than the parent's IQR
        assert self.judge(parent, [p - 0.05 for p in parent])["gain"] is False
        assert self.judge(parent, [p + 1.0 for p in parent], "higher")["gain"] is True


class TestSetupDetail:
    def fake_tree(self, tmp_path, details):
        out = tmp_path / "perfbench" / "out"
        out.mkdir(parents=True)
        for workload, detail in details.items():
            (out / f"{workload}.trace0.json").write_text(json.dumps(detail))
        return str(tmp_path)

    def test_reads_the_raw_setups_and_speed_factor(self, tmp_path):
        tree = self.fake_tree(tmp_path, {"codec-sweep": {
            "env": {}, "speed_factor": 0.93, "setup_s_as_measured": [0.5, 0.7, 0.6], "op_ms": [1.0]}})
        assert bench_ab.setup_detail(tree, "codec-sweep") == {
            "setup_s_as_measured": [0.5, 0.7, 0.6], "speed_factor": 0.93}
        assert bench_ab.setup_detail(tree, "train-pinned") is None

    def test_medians_skip_runs_without_a_file(self):
        runs = [{"setup_s_as_measured": [0.5, 0.7, 0.6], "speed_factor": 1.1}, None,
                {"setup_s_as_measured": [0.9, 0.8, 1.0], "speed_factor": 0.9}]
        s = bench_ab.setup_summary(runs)
        assert s["runs"] == runs
        assert s["median"] == {"setup_s_as_measured": pytest.approx(0.75), "speed_factor": pytest.approx(1.0)}

    def test_run_bench_records_the_detail_its_run_leaves(self, tmp_path, monkeypatch):
        # a stand-in benchmark that writes the detail file only when asked to
        (tmp_path / "bench.py").write_text(
            "import json, os, sys\n"
            "w = sys.argv[sys.argv.index('--workload') + 1]\n"
            "if os.environ.get('WRITE_DETAIL'):\n"
            "    with open(f'perfbench/out/{w}.trace0.json', 'w') as fh:\n"
            "        json.dump({'speed_factor': 1.25, 'setup_s_as_measured': [0.25, 0.5, 0.75]}, fh)\n"
            "print(json.dumps({'correct': True, 'attempted': 3, 'failed': 0,"
            " 'metrics': {'setup_s': {'value': 0.625, 'unit': 's'}}}))\n")
        tree = self.fake_tree(tmp_path, {})
        bench = {"command": [sys.executable, "bench.py"], "run_seconds": 1}
        monkeypatch.setenv("WRITE_DETAIL", "1")
        r = bench_ab.run_bench(bench, tree, "w", 1, 0)
        monkeypatch.delenv("WRITE_DETAIL")
        assert r["setup"] == {"setup_s_as_measured": [0.25, 0.5, 0.75], "speed_factor": 1.25}
        # the next run leaves no file: the last run's detail is not reused
        assert bench_ab.run_bench(bench, tree, "w", 2, 0)["setup"] is None

    def test_null_medians_when_no_run_has_a_file(self):
        assert bench_ab.setup_summary([None, None])["median"] == {"setup_s_as_measured": None, "speed_factor": None}


class TestRusageDelta:
    def test_faults_and_system_seconds_between_readings(self):
        before = SimpleNamespace(ru_minflt=1200, ru_stime=3.25, ru_utime=9.0)
        after = SimpleNamespace(ru_minflt=1700, ru_stime=4.0, ru_utime=20.0)
        assert bench_ab.rusage_delta(before, after) == {"minflt": 500, "stime_s": 0.75}

    def test_counts_a_finished_child(self):
        # RUSAGE_CHILDREN grows once a waited-for child has exited
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", "bytearray(8 << 20)"], check=True)
        delta = bench_ab.rusage_delta(before, resource.getrusage(resource.RUSAGE_CHILDREN))
        assert delta["minflt"] > 0 and delta["stime_s"] >= 0


class TestSrcLines:
    def test_counts_python_files_under_src_only(self, tmp_path):
        (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "__pycache__" / "b.cpython-311.pyc").write_bytes(b"\n" * 7)
        (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2\n\n")
        (tmp_path / "src" / "pkg" / "b.py").write_text("z = 3\nw = 4")  # no final newline
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "t.py").write_text("ignored\n" * 5)
        assert bench_ab.src_lines(str(tmp_path)) == 4
        assert list(bench_ab.src_file_lines(str(tmp_path)).items()) == [("src/a.py", 3), ("src/pkg/b.py", 1)]

    def test_tree_without_src_has_none(self, tmp_path):
        assert bench_ab.src_lines(str(tmp_path)) == 0
        assert bench_ab.src_file_lines(str(tmp_path)) == {}

    def test_line_changes_per_file(self):
        parent = {"src/a.py": 10, "src/gone.py": 4, "src/same.py": 7}
        change = {"src/a.py": 8, "src/new.py": 5, "src/same.py": 7}
        assert list(bench_ab.line_changes(parent, change).items()) == [
            ("src/a.py", {"parent": 10, "change": 8, "net": -2}),
            ("src/gone.py", {"parent": 4, "change": 0, "net": -4}),
            ("src/new.py", {"parent": 0, "change": 5, "net": 5}),
            ("src/same.py", {"parent": 7, "change": 7, "net": 0}),
        ]


class TestVerdictLines:
    def metric(self, parent, change, better="lower", bound=0.2):
        s = bench_ab.summarize(parent, change, better)
        return {**s, **bench_ab.judge(s, bound)}

    def test_one_line_per_workload_and_metric(self):
        parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.0]
        workloads = {
            "train": {"metrics": {"op_ms.p50": self.metric(parent, [p - 1.0 for p in parent]),
                                  "items_per_s": self.metric([4.0, 4.0], [2.0, 2.0], "higher")}},
            "sweep": {"metrics": {"op_ms.p50": self.metric([5.0, 10.0, 15.0, 8.0, 12.0],
                                                           [30.0, 10.0, 11.0, 9.0, 10.0])}},
        }
        assert bench_ab.verdict_lines(workloads) == [
            "train op_ms.p50: 10 -> 9 (-10.0 %), won 10/10, ok, gain yes",
            "train items_per_s: 4 -> 2 (-50.0 %), won 0/2, worse, gain no",
            "sweep op_ms.p50: 10 -> 10 (+0.0 %), won 2/5, unresolved, gain no",
        ]

    def test_zero_parent_median_has_no_relative_change(self):
        line = bench_ab.verdict_lines({"w": {"metrics": {"m": self.metric([0.0, 0.0], [0.0, 0.0])}}})[0]
        assert line == "w m: 0 -> 0, won 0/2, ok, gain no"


class TestLayerLines:
    def test_five_largest_moves_per_workload(self):
        parent = {"a.ms": 50.0, "b.ms": 10.0, "c.ms": 5.0, "d.ms": 1.0, "e.ms": 3.0, "f.ms": 2.0,
                  "same.ms": 7.0, "a.calls": 900.0, "trace.overhead_ms": 90.0}
        change = {"a.ms": 0.0, "b.ms": 12.0, "c.ms": 4.0, "d.ms": 4.0, "e.ms": 1.0, "f.ms": 2.5,
                  "same.ms": 7.0, "a.calls": 0.0, "trace.overhead_ms": 1.0}
        sides = {"parent": parent, "change": change}
        traced = {"seed": 7, "sweep": sides, "still": {"parent": {"x.ms": 1.0}, "change": {"x.ms": 1.0}},
                  "again": sides}
        five = ["a.ms: 50 -> 0 (-50, -100.0 %)", "d.ms: 1 -> 4 (+3, +300.0 %)", "b.ms: 10 -> 12 (+2, +20.0 %)",
                "e.ms: 3 -> 1 (-2, -66.7 %)", "c.ms: 5 -> 4 (-1, -20.0 %)"]
        assert bench_ab.layer_lines(traced)[1:] == [f"{w} traced {line}" for w in ("sweep", "again") for line in five]

    def test_header_names_the_seed_and_the_missing_spread(self):
        traced = {"seed": 1101, "w": {"parent": {"new.ms": 0.0, "old.ms": 8.0},
                                      "change": {"new.ms": 2.5, "old.ms": 6.0}}}
        assert bench_ab.layer_lines(traced) == [
            "traced per-layer moves, seed 1101: one run per side, no spread, not verdicts",
            "w traced new.ms: 0 -> 2.5 (+2.5)",  # no relative size from a parent of 0
            "w traced old.ms: 8 -> 6 (-2, -25.0 %)",
        ]
        assert bench_ab.layer_lines({"seed": 3}) == [
            "traced per-layer moves, seed 3: one run per side, no spread, not verdicts"]
