"""The summary that tools/bench_ab.py writes for each metric."""

import importlib.util
import pathlib

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
