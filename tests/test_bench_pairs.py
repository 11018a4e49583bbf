"""``scripts/bench_pairs.py``'s summary of interleaved runs, on synthetic
run records (no benchmark is run)."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "bench_pairs.py")


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BETTER = {"total_s": "lower", "train_steps_per_s": "higher"}


def run(total_s, steps_per_s, failed=0, attempted=10):
    return {"result": {"failed": failed, "attempted": attempted, "metrics": {
        "total_s": {"value": total_s, "unit": "s"},
        "train_steps_per_s": {"value": steps_per_s, "unit": "1/s"}}}}


def crashed():
    return {"exit_code": 1, "stderr_tail": ["Traceback (most recent call last):", "boom"]}


def pair(seed, base, change):
    return {"seed": seed, "first": "base", "base": base, "change": change}


def test_wins_follow_each_metric_direction(bench_pairs):
    pairs = [pair(1, run(10.0, 100.0), run(9.0, 120.0)),     # change better in both
             pair(2, run(10.0, 100.0), run(11.0, 90.0)),     # change worse in both
             pair(3, run(10.0, 100.0), run(8.0, 80.0))]      # faster, fewer steps/s
    s = bench_pairs.summarize(pairs, BETTER)
    assert s["change_better_in_pairs"] == {"total_s": 2, "train_steps_per_s": 1}
    assert s["medians"] == {"base": {"total_s": 10.0, "train_steps_per_s": 100.0},
                            "change": {"total_s": 9.0, "train_steps_per_s": 90.0}}
    assert s["completed_pairs"] == 3


def test_ties_are_not_wins(bench_pairs):
    pairs = [pair(1, run(10.0, 100.0), run(10.0, 100.0)),
             pair(2, run(10.0, 100.0), run(9.0, 100.0))]
    s = bench_pairs.summarize(pairs, BETTER)
    assert s["change_better_in_pairs"] == {"total_s": 1, "train_steps_per_s": 0}


def test_failed_runs_are_left_out_and_counted(bench_pairs):
    pairs = [pair(1, run(10.0, 100.0, failed=1, attempted=12), run(9.0, 120.0)),
             pair(2, crashed(), run(1.0, 1000.0)),          # its change run counts nowhere
             pair(3, run(12.0, 80.0), crashed()),
             pair(4, run(14.0, 60.0), run(15.0, 50.0, failed=2, attempted=11))]
    s = bench_pairs.summarize(pairs, BETTER)
    assert s["completed_pairs"] == 2
    assert s["medians"] == {"base": {"total_s": 12.0, "train_steps_per_s": 80.0},
                            "change": {"total_s": 12.0, "train_steps_per_s": 85.0}}
    assert s["change_better_in_pairs"] == {"total_s": 1, "train_steps_per_s": 1}
    assert s["failures"] == {
        "base": {"failed_runs": 1, "failed_operations": 1, "attempted_operations": 32},
        "change": {"failed_runs": 1, "failed_operations": 2, "attempted_operations": 31}}


def test_no_completed_pair(bench_pairs):
    s = bench_pairs.summarize([pair(1, crashed(), run(9.0, 120.0))], BETTER)
    assert s["completed_pairs"] == 0
    assert s["medians"] == {"base": {}, "change": {}}
    assert s["change_better_in_pairs"] == {"total_s": 0, "train_steps_per_s": 0}
