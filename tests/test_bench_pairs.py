"""The paired-run summary behind tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load_tool():
    path = REPO / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_tool()


class TestSummarise:
    def test_ties_count_for_neither_side(self):
        s = bench_pairs.summarise([1.0, 2.0, 3.0, 4.0], [1.0, 5.0, 2.0, 4.0], "higher")
        assert (s["wins"], s["losses"], s["pairs"]) == (1, 1, 4)

    def test_lower_is_better_flips_the_count(self):
        s = bench_pairs.summarise([1.0, 2.0, 3.0, 4.0], [1.0, 5.0, 2.0, 4.0], "lower")
        assert (s["wins"], s["losses"]) == (1, 1)
        s = bench_pairs.summarise([3.0, 3.0], [2.0, 2.5], "lower")
        assert (s["wins"], s["losses"]) == (2, 0)

    def test_quartiles_are_inclusive(self):
        # Inclusive quartiles of 1..5 are 2, 3, 4; of 10..40 step 10
        # (unsorted on purpose) 17.5, 25, 32.5.
        s = bench_pairs.summarise([5.0, 1.0, 4.0, 2.0, 3.0], [1.0] * 5, "higher")
        assert s["base_quartiles"] == (2.0, 3.0, 4.0)
        assert s["base_iqr"] == 2.0
        s = bench_pairs.summarise([1.0] * 4, [40.0, 10.0, 30.0, 20.0], "higher")
        assert s["change_quartiles"] == (17.5, 25.0, 32.5)

    def test_single_pair_quartiles_collapse(self):
        s = bench_pairs.summarise([2.0], [3.0], "higher")
        assert s["base_quartiles"] == (2.0, 2.0, 2.0)
        assert s["base_iqr"] == 0.0
        assert s["clears"]

    def test_clearing_needs_wins_and_a_gap_beyond_the_base_iqr(self):
        base = [100.0 + i for i in range(10)]  # IQR 4.5
        assert bench_pairs.summarise(base, [b + 10 for b in base], "higher")["clears"]
        # Ten wins, but the medians differ by less than the base's IQR.
        assert not bench_pairs.summarise(base, [b + 1 for b in base], "higher")["clears"]
        # A wide gap, but only 8/10 wins.
        change = [b + 10 for b in base[:8]] + base[8:]
        assert not bench_pairs.summarise(base, change, "higher")["clears"]
        # A gain the wrong way never clears.
        assert not bench_pairs.summarise(base, [b + 10 for b in base], "lower")["clears"]

    @pytest.mark.parametrize(
        "base, change, better",
        [([], [], "higher"), ([1.0], [1.0, 2.0], "higher"), ([1.0], [1.0], "up")],
    )
    def test_rejects_bad_input(self, base, change, better):
        with pytest.raises(ValueError):
            bench_pairs.summarise(base, change, better)


class TestRunProblems:
    def ok(self, failed=0):
        return {"correct": True, "failed": failed, "metrics": {}}

    def test_clean_pair(self):
        assert bench_pairs.run_problems(0, self.ok(), self.ok()) == []

    def test_incorrect_or_missing_run_fails(self):
        bad = {"correct": False, "failed": 0, "metrics": {}}
        assert bench_pairs.run_problems(3, bad, self.ok()) == [
            "pair 3: base run reported correct: false"
        ]
        assert bench_pairs.run_problems(1, self.ok(), None) == [
            "pair 1: change run printed no JSON result"
        ]

    def test_a_rise_in_failed_fails(self):
        assert bench_pairs.run_problems(2, self.ok(1), self.ok(2)) == [
            "pair 2: change failed 2 operations, base 1"
        ]
        # Failing fewer operations than the base is not a problem.
        assert bench_pairs.run_problems(2, self.ok(2), self.ok(1)) == []
