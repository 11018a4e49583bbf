"""``scripts/bench_pairs.py``'s summary of interleaved runs, on synthetic
run records (no benchmark is run)."""

import importlib.util
import os
import subprocess

import numpy as np
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


def run(total_s, steps_per_s, failed=0, attempted=10, digests=("a1", "b2")):
    return {"result": {"failed": failed, "attempted": attempted, "metrics": {
        "total_s": {"value": total_s, "unit": "s"},
        "train_steps_per_s": {"value": steps_per_s, "unit": "1/s"}}},
        "digests": list(digests)}


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
    assert s["quartiles"] == {
        "base": {"total_s": {"q1": 10.0, "q3": 10.0},
                 "train_steps_per_s": {"q1": 100.0, "q3": 100.0}},
        "change": {"total_s": {"q1": 8.5, "q3": 10.0},
                   "train_steps_per_s": {"q1": 85.0, "q3": 105.0}}}
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
    assert s["quartiles"] == {
        "base": {"total_s": {"q1": 11.0, "q3": 13.0},
                 "train_steps_per_s": {"q1": 70.0, "q3": 90.0}},
        "change": {"total_s": {"q1": 10.5, "q3": 13.5},
                   "train_steps_per_s": {"q1": 67.5, "q3": 102.5}}}
    assert s["change_better_in_pairs"] == {"total_s": 1, "train_steps_per_s": 1}
    assert s["failures"] == {
        "base": {"failed_runs": 1, "failed_operations": 1, "attempted_operations": 32},
        "change": {"failed_runs": 1, "failed_operations": 2, "attempted_operations": 31}}


def test_no_completed_pair(bench_pairs):
    s = bench_pairs.summarize([pair(1, crashed(), run(9.0, 120.0))], BETTER)
    assert s["completed_pairs"] == 0
    assert s["medians"] == {"base": {}, "change": {}}
    assert s["quartiles"] == {"base": {}, "change": {}}
    assert s["change_better_in_pairs"] == {"total_s": 0, "train_steps_per_s": 0}


def test_quartiles_of_one_pair_are_its_values(bench_pairs):
    s = bench_pairs.summarize([pair(1, run(10.0, 100.0), run(9.0, 120.0))], BETTER)
    assert s["quartiles"] == {
        "base": {"total_s": {"q1": 10.0, "q3": 10.0},
                 "train_steps_per_s": {"q1": 100.0, "q3": 100.0}},
        "change": {"total_s": {"q1": 9.0, "q3": 9.0},
                   "train_steps_per_s": {"q1": 120.0, "q3": 120.0}}}


def test_quartiles_are_numpys_default_percentiles(bench_pairs):
    rng = np.random.default_rng(0)
    base, change = rng.uniform(5.0, 15.0, size=(2, 10))
    pairs = [pair(i, run(b, 1.0 / b), run(c, 1.0 / c))
             for i, (b, c) in enumerate(zip(base, change))]
    s = bench_pairs.summarize(pairs, BETTER)
    for side, totals in (("base", base), ("change", change)):
        q1, q3 = np.percentile(totals, [25, 75])
        assert s["quartiles"][side]["total_s"] == pytest.approx({"q1": q1, "q3": q3},
                                                                rel=1e-14)


def test_missing_workdir_is_created(bench_pairs, tmp_path):
    root_before = sorted(os.listdir(os.path.dirname(os.path.dirname(SCRIPT))))
    workdir = tmp_path / "not" / "yet"
    tmp = bench_pairs.make_tmpdir(str(workdir))
    assert os.path.isdir(tmp)
    assert os.path.dirname(tmp) == str(workdir)
    assert os.path.basename(tmp).startswith("bench_pairs_")
    # an existing workdir is used as it is
    assert os.path.dirname(bench_pairs.make_tmpdir(str(workdir))) == str(workdir)
    assert sorted(os.listdir(os.path.dirname(os.path.dirname(SCRIPT)))) == root_before


def test_uncommitted_changes_counts_only_the_code(bench_pairs, tmp_path, monkeypatch):
    # a BENCH_*.json that an earlier workload wrote is not a code change
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    (tmp_path / "BENCH_readme-train.json").write_text("{}\n")
    (tmp_path / "notes").mkdir()
    (tmp_path / "notes" / "todo.md").write_text("x\n")
    assert bench_pairs.uncommitted_changes() is False
    for code in bench_pairs.CODE:
        (tmp_path / code).mkdir()
        (tmp_path / code / "x.py").write_text("x = 1\n")
        assert bench_pairs.uncommitted_changes() is True
        (tmp_path / code / "x.py").unlink()
    assert bench_pairs.uncommitted_changes() is False


def test_model_digests_equal_counts_completed_pairs_with_the_same_models(bench_pairs):
    pairs = [pair(1, run(10.0, 100.0), run(9.0, 120.0)),
             pair(2, run(10.0, 100.0), run(9.0, 120.0, digests=("a1", "c3"))),
             pair(3, run(10.0, 100.0), run(9.0, 120.0, digests=("b2", "a1"))),   # order counts
             pair(4, crashed(), run(9.0, 120.0)),
             pair(5, run(10.0, 100.0, digests=()), run(9.0, 120.0, digests=())),  # no models
             pair(6, run(10.0, 100.0), run(9.0, 120.0))]
    for p in pairs[5:]:
        del p["base"]["digests"], p["change"]["digests"]   # a run that printed none
    assert bench_pairs.summarize(pairs, BETTER)["model_digests_equal_in_pairs"] == 1


def test_run_once_keeps_the_digests_and_wall_lines(bench_pairs, tmp_path):
    script = tmp_path / "e2ebench" / "run.py"
    script.parent.mkdir()
    script.write_text("print('machine {\"cpus\": 2}')\n"
                      "print('digests [\"a1\", \"b2\"]')\n"
                      "print('calibration {\"block_s\": 0.5}')\n"
                      "print('wall {\"total_s\": 4.5}')\n"
                      "print('{\"failed\": 0, \"attempted\": 3, \"metrics\": {}}')\n")
    got = bench_pairs.run_once(str(tmp_path), "readme-train", 1, 1)
    assert got == {"result": {"failed": 0, "attempted": 3, "metrics": {}},
                   "machine": {"cpus": 2}, "digests": ["a1", "b2"],
                   "calibration": {"block_s": 0.5}, "wall": {"total_s": 4.5}}


def walled(total_s, steps_per_s, wall_total_s, wall_steps_per_s, **kw):
    """A run whose wall line holds figures other than its calibrated ones."""
    return {**run(total_s, steps_per_s, **kw),
            "wall": {"total_s": wall_total_s, "train_steps_per_s": wall_steps_per_s}}


def test_uncalibrated_block_compares_the_wall_lines(bench_pairs):
    # calibrated, the change wins every metric; uncalibrated, it loses both
    pairs = [pair(1, walled(10.0, 100.0, 8.0, 125.0), walled(9.0, 120.0, 9.0, 120.0)),
             pair(2, walled(10.0, 100.0, 6.0, 150.0), walled(9.0, 110.0, 7.0, 140.0)),
             pair(3, walled(12.0, 90.0, 11.0, 100.0), walled(11.0, 95.0, 12.0, 90.0))]
    s = bench_pairs.summarize(pairs, BETTER)
    assert s["change_better_in_pairs"] == {"total_s": 3, "train_steps_per_s": 3}
    u = s["uncalibrated"]
    assert u["completed_pairs"] == 3
    assert u["change_better_in_pairs"] == {"total_s": 0, "train_steps_per_s": 0}
    assert u["medians"] == {"base": {"total_s": 8.0, "train_steps_per_s": 125.0},
                            "change": {"total_s": 9.0, "train_steps_per_s": 120.0}}
    assert u["quartiles"]["base"] == {"total_s": {"q1": 7.0, "q3": 9.5},
                                      "train_steps_per_s": {"q1": 112.5, "q3": 137.5}}


def test_uncalibrated_block_takes_pairs_with_two_wall_lines(bench_pairs):
    pairs = [pair(1, walled(10.0, 100.0, 8.0, 125.0), walled(9.0, 120.0, 7.0, 130.0)),
             pair(2, run(10.0, 100.0), walled(9.0, 110.0, 1.0, 999.0)),   # base printed none
             pair(3, crashed(), walled(9.0, 110.0, 1.0, 999.0))]
    s = bench_pairs.summarize(pairs, BETTER)
    assert s["completed_pairs"] == 2
    assert s["uncalibrated"]["completed_pairs"] == 1
    assert s["uncalibrated"]["medians"]["change"] == {"total_s": 7.0,
                                                      "train_steps_per_s": 130.0}
    assert s["uncalibrated"]["change_better_in_pairs"] == {"total_s": 1,
                                                           "train_steps_per_s": 1}
    none = bench_pairs.summarize(pairs[1:], BETTER)["uncalibrated"]
    assert none == {"completed_pairs": 0, "medians": {"base": {}, "change": {}},
                    "quartiles": {"base": {}, "change": {}},
                    "change_better_in_pairs": {"total_s": 0, "train_steps_per_s": 0}}


BOUNDS = {"total_s": 0.2, "train_steps_per_s": 0.2}


def pairs_of(base_totals, change_totals, base_rates=None, change_rates=None):
    """Completed pairs whose runs read the given total_s and steps/s."""
    base_rates = base_rates or [100.0] * len(base_totals)
    change_rates = change_rates or [100.0] * len(change_totals)
    return [pair(i, run(b, br), run(c, cr)) for i, (b, c, br, cr) in
            enumerate(zip(base_totals, change_totals, base_rates, change_rates))]


def verdicts_of(bench_pairs, pairs):
    s = bench_pairs.summarize(pairs, BETTER)
    return bench_pairs.verdicts(s, BETTER, BOUNDS)


def test_gain_needs_nine_in_ten_wins_and_a_gap_past_the_parents_iqr(bench_pairs):
    base = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]   # IQR 0.45
    faster = [t - 1.0 for t in base]
    assert verdicts_of(bench_pairs, pairs_of(base, faster))["total_s"] == "gain"
    # one loss in ten still counts; two do not
    one_loss = faster[:9] + [11.0]
    assert verdicts_of(bench_pairs, pairs_of(base, one_loss))["total_s"] == "gain"
    two_losses = faster[:8] + [11.0, 11.0]
    assert verdicts_of(bench_pairs, pairs_of(base, two_losses))["total_s"] == "within_bound"
    # every pair won, but by less than the parent's IQR
    slightly = [t - 0.1 for t in base]
    assert verdicts_of(bench_pairs, pairs_of(base, slightly))["total_s"] == "within_bound"


def test_gain_follows_the_metric_direction(bench_pairs):
    base = [10.0] * 10
    v = verdicts_of(bench_pairs, pairs_of(base, base, [100.0 + i for i in range(10)],
                                          [130.0 + i for i in range(10)]))
    assert v == {"total_s": "within_bound", "train_steps_per_s": "gain"}
    v = verdicts_of(bench_pairs, pairs_of(base, base, [100.0 + i for i in range(10)],
                                          [70.0 + i for i in range(10)]))
    assert v["train_steps_per_s"] == "worse"


def test_worse_past_the_bound_and_within_it(bench_pairs):
    base = [10.0] * 10
    assert verdicts_of(bench_pairs, pairs_of(base, [12.5] * 10))["total_s"] == "worse"
    assert verdicts_of(bench_pairs, pairs_of(base, [11.9] * 10))["total_s"] == "within_bound"


def test_unresolved_when_the_parents_spread_exceeds_the_bound(bench_pairs):
    base = [6.0, 8.0, 10.0, 12.0, 14.0] * 2   # IQR 4, 40% of the median
    assert verdicts_of(bench_pairs, pairs_of(base, base))["total_s"] == "unresolved"
    # a change past its bound reads worse whatever the spread
    assert verdicts_of(bench_pairs, pairs_of(base, [13.0] * 10))["total_s"] == "worse"


def test_no_completed_pair_is_unresolved(bench_pairs):
    s = bench_pairs.summarize([pair(1, crashed(), run(9.0, 120.0))], BETTER)
    assert bench_pairs.verdicts(s, BETTER, BOUNDS) == {"total_s": "unresolved",
                                                       "train_steps_per_s": "unresolved"}
    s["verdicts"] = bench_pairs.verdicts(s, BETTER, BOUNDS)
    assert bench_pairs.verdict_lines("calibrated", s, BOUNDS) == [
        "calibrated total_s: unresolved (no completed pair)",
        "calibrated train_steps_per_s: unresolved (no completed pair)"]


def test_uncalibrated_block_gets_its_own_verdicts(bench_pairs):
    # calibrated, every pair is a clear gain; the wall lines say the reverse
    pairs = [pair(i, walled(10.0 + 0.1 * i, 100.0, 8.0, 125.0),
                  walled(8.0 + 0.1 * i, 100.0, 10.0, 125.0)) for i in range(10)]
    s = bench_pairs.summarize(pairs, BETTER)
    assert bench_pairs.verdicts(s, BETTER, BOUNDS)["total_s"] == "gain"
    u = s["uncalibrated"]
    u["verdicts"] = bench_pairs.verdicts(u, BETTER, BOUNDS)
    assert u["verdicts"] == {"total_s": "worse", "train_steps_per_s": "within_bound"}
    assert bench_pairs.verdict_lines("uncalibrated", u, BOUNDS) == [
        "uncalibrated total_s: worse (8 -> 10, better in 0/10 pairs, parent IQR 8-8, "
        "bound 20%)",
        "uncalibrated train_steps_per_s: within_bound (125 -> 125, better in 0/10 pairs, "
        "parent IQR 125-125, bound 20%)"]
