"""Tests of the benchmark itself: every workload at a tiny size with all
checks on, traced and untraced, and the checker's power to reject a wrong
eval report.

    PYTHONPATH=src python3 -m pytest -q e2ebench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import bench  # noqa: E402
import checks  # noqa: E402
from spans import Target, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

SMALL = {"threshold_qstar": bench.QSTAR, "bag_size_mean": 10, "bag_size_std": 2}
TINY = {
    "readme-train": dict(dataset={"n_bags": 120, **SMALL},
                         train={"val_metric": "loss", "max_epochs": 60, "q_init": 0.3}),
    "bigbag-train": dict(dataset={"n_bags": 40, "threshold_qstar": bench.QSTAR,
                                  "bag_size_mean": 300, "bag_size_std": 30},
                         train={"val_metric": "loss", "max_epochs": 25, "patience": 25}),
    "mnist-wide": dict(dataset={"n_bags": 40, "threshold_qstar": bench.QSTAR},
                       train={"val_metric": "loss", "max_epochs": 6, "patience": 6},
                       mnist={"train_images": 3000, "test_images": 600, "n_test_bags": 20}),
    "heads-loop": dict(dataset={"n_bags": 80, **SMALL},
                       train={"val_metric": "loss", "max_epochs": 15, "patience": 15}),
}


def test_every_workload_has_a_tiny_form():
    assert set(TINY) == set(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_passes_its_checks_traced_and_untraced(name, tmp_path):
    wl = dataclasses.replace(bench.WORKLOADS[name], **TINY[name])
    result, extra = bench.run_workload(wl, 3, 0, False, str(tmp_path / "plain"))
    assert result["correct"] and result["failed"] == 0, extra["notes"]
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for k, m in result["metrics"].items() if k != "setup_s")

    traced, traced_extra = bench.run_workload(wl, 3, 0, True, str(tmp_path / "traced"))
    assert traced["correct"] and traced["failed"] == 0, traced_extra["notes"]
    assert set(traced["metrics"]) == PER_LAYER
    assert traced_extra["absent_layers"] == []
    for key in ("training.step_us", "bernstein.kernel_us", "network.forward_us",
                "metrics.evaluate_s", "bagdata.save_s", "bagdata.load_s"):
        assert traced["metrics"][key]["value"] > 0, key
    # Wrapping changes no output: the models are the same with tracing on.
    assert traced_extra["digests"] == extra["digests"]
    assert not os.path.exists(tmp_path / "plain")


def test_missing_layer_is_reported_absent_not_fatal():
    tracer = Tracer()
    tracer.install([Target("gone", "promil.bernstein", "no_such_function"),
                    Target("gone_module", "promil.no_such_module", "f"),
                    Target("gone_method", "promil.bernstein", "SortedPredictions.nope")])
    assert tracer.absent == {"gone", "gone_module", "gone_method"}
    tracer.remove()


def test_wrappers_patch_aliases_and_restore_them():
    import promil.metrics
    import promil.training

    original = promil.metrics.auc
    assert promil.training.auc_metric is original
    tracer = Tracer()
    tracer.install([Target("metrics.auc", "promil.metrics", "auc")])
    assert promil.training.auc_metric is promil.metrics.auc is not original
    promil.training.auc_metric([0.1, 0.9], [0, 1])
    assert tracer.calls["metrics.auc"] == 1
    tracer.remove()
    assert promil.training.auc_metric is original and promil.metrics.auc is original


def test_excluded_work_is_left_out_of_every_open_span():
    tracer = Tracer()

    def inner():
        tracer.exclude(lambda: time.sleep(0.05))

    tracer.span("outer", tracer.span, "inner", inner)
    assert tracer.total["outer"] < 0.02 and tracer.total["inner"] < 0.02
    assert tracer.excluded >= 0.05


def test_calibration_scales_times_and_rates_not_sizes():
    wall = {"total_s": 10.0, "train_steps_per_s": 100.0, "dataset_mb": 2.0}
    assert bench.calibrated(wall, 0.5) == {
        "total_s": 5.0, "train_steps_per_s": 200.0, "dataset_mb": 2.0}


@pytest.fixture
def eval_report(tmp_path):
    """A real model and eval report from the CLI, plus recomputed scores."""
    from promil.cli import main

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema": "promil-config/1", "seed": 4, "head": "promil",
        "dataset": {"n_bags": 80, **SMALL},
        "train": {"val_metric": "loss", "max_epochs": 5, "patience": 5},
    }))
    data, model, report = (str(tmp_path / n) for n in ("d.json", "m.json", "r.json"))
    assert main(["generate", "--config", str(config), "--out", data]) == 0
    assert main(["train", data, "--config", str(config), "--out", model]) == 0
    assert main(["eval", model, data, "--split", "test", "--out", report]) == 0
    bags = [b for b in checks.read_json(data)["bags"] if b["split"] == "test"]
    model_doc = checks.read_json(model)
    expected = np.array([checks.bag_score(model_doc, b["instances"], "promil") for b in bags])
    labels = np.array([b["label"] for b in bags])
    return checks.read_json(report), expected, labels


def _verdicts(report, scores, expected, labels):
    return {name: ok for name, ok, _ in checks.check_eval_report(report, scores, expected,
                                                                  labels)}


def test_checker_accepts_the_real_report(eval_report):
    report, expected, labels = eval_report
    assert all(_verdicts(report, expected.copy(), expected, labels).values())


def test_checker_rejects_a_perturbed_score(eval_report):
    report, expected, labels = eval_report
    scores = expected.copy()
    scores[len(scores) // 2] += 1e-6
    assert _verdicts(report, scores, expected, labels)["eval.scores"] is False


def test_checker_rejects_a_wrong_auc(eval_report):
    report, expected, labels = eval_report
    wrong = dict(report, auc=report["auc"] - 0.01)
    verdicts = _verdicts(wrong, expected, expected, labels)
    assert verdicts["eval.auc"] is False
    assert verdicts["eval.scores"] and verdicts["eval.balanced_accuracy"]


def test_pair_auc_counts_ties_half():
    assert checks.pair_auc([0.2, 0.5, 0.5, 0.9], [0, 0, 1, 1]) == 0.875


def test_bernstein_quantile_flip_identity_on_a_large_bag():
    p = np.random.default_rng(0).uniform(0.01, 0.99, size=10001)
    assert abs(checks.bernstein_quantile(p, 0.3)
               + checks.bernstein_quantile(1 - p, 0.7) - 1) < 1e-12


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "readme-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
