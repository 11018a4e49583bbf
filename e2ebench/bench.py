"""Workloads and the runner behind ``run.py``.

A run drives the package as a user does, through ``promil.cli.main``:
one ``generate`` (set-up), then whole rounds of ``generate``, ``train`` and
``eval`` commands until the run's seconds are used, then the output checks.
Every CLI command and every check is one operation.

Two runs of a workload differ in what is wrapped:

* untraced (``--trace 0``): only the calls the CLI makes into the package
  at its boundary (``train``, ``evaluate``, ``save_dataset``,
  ``load_dataset``, plus ``auc`` to observe the scores behind a report and
  to mark the end of each training epoch), each once per command or epoch;
* traced (``--trace 1``): every layer function as well.  Each traced round
  is paired with an untraced round of the same commands, so the tracing
  overhead is measured, not estimated.

Calibration blocks (``calibrate.py``) run between commands and at epoch
ends, outside every timed span; their median scales the end-to-end times
and rates to reference seconds.

Peak RSS is read after the last round, before any check runs, so the
checker's own memory never counts toward it.
"""

import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import scipy

import calibrate
import checks
from spans import Target, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
QSTAR = 0.3
SPLITS = (0.8, 0.1, 0.1)


# -- what is wrapped ----------------------------------------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _count_instances(tracer, args, kwargs):
    instances = _arg(args, kwargs, 1, "instances")
    tracer.count["network.instances"] += len(instances) if instances is not None else 0


def _count_epochs(tracer, args, kwargs, result):
    tracer.count["training.epochs"] += getattr(result, "epochs_run", 0)


def _on_auc(calibrator, tracer, args, kwargs):
    """Inside ``evaluate``, keep the scores behind the report; inside
    ``train`` (once per epoch, for the validation AUC), run the calibration
    blocks that are due, outside every span."""
    caller = tracer.current()
    if caller == "metrics.evaluate":
        tracer.captured["eval_scores"] = np.array(_arg(args, kwargs, 0, "scores"),
                                                  dtype=np.float64)
    elif caller == "training.train":
        calibrator.tick(tracer.exclude)


def _capture_saved_bags(tracer, args, kwargs):
    tracer.captured["saved_bags"] = _arg(args, kwargs, 1, "bags")


def boundary(calibrator):
    """The calls the CLI makes into the package, wrapped on every run."""
    return (
        Target("training.train", "promil.training", "train", on_return=_count_epochs),
        Target("metrics.evaluate", "promil.metrics", "evaluate"),
        Target("metrics.auc", "promil.metrics", "auc",
               on_call=functools.partial(_on_auc, calibrator)),
        Target("bagdata.save", "promil.bagdata", "save_dataset",
               on_call=_capture_saved_bags),
        Target("bagdata.load", "promil.bagdata", "load_dataset"),
    )


LAYERS = (
    Target("bernstein.sort", "promil.bernstein", "SortedPredictions.from_raw"),
    Target("bernstein.kernel", "promil._backend", "quantile_value_grad"),
    Target("bernstein.estimate", "promil.bernstein", "estimate_quantile"),
    Target("network.forward", "promil.network", "forward_bag", on_call=_count_instances),
    Target("network.backward", "promil.network", "backward_bag"),
    Target("training.step", "promil.training", "bag_step"),
    Target("training.cost_grads", "promil.training", "bag_cost_and_grads"),
    Target("training.adam", "promil.training", "adam_update"),
    Target("heads.score_bag", "promil.heads", "score_bag"),
    Target("bagdata.generate", "promil.bagdata", "generate_synthetic"),
    Target("bagdata.idx_load", "promil.bagdata", "load_idx"),
    Target("bagdata.mnist_bags", "promil.bagdata", "make_mnist_bags"),
    Target("cli.model_save", "promil.cli", "save_model"),
    Target("cli.model_load", "promil.cli", "load_model"),
)
SAMPLED = ("bagdata.save", "bagdata.load", "training.train", "metrics.evaluate")
# The eval commands after each train: the whole dataset four times, so that a
# run holds enough `evaluate` calls of one size for a steady eval_bags_per_s,
# then the test split for the method check.
EVAL_SPLITS = ("all", "all", "all", "all", "test")


# -- workloads ----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """Inputs and commands of one workload.  ``dataset`` and ``train`` are
    the config file's sections; every training run uses each head in
    ``heads`` at ``train_seeds`` seeds (the run's seed, seed+1, ...)."""

    name: str
    dataset: dict
    train: dict
    heads: tuple = ("promil",)
    train_seeds: int = 1
    hidden_dims: tuple = ()
    mnist: dict = None          # {"train_images": N, "test_images": N, "n_test_bags": N}
    kernel_bag: int = 0         # size of the flip-identity bag; 0 skips that check
    auc_check: bool = True      # promil must reach test AUC >= 0.95 on every seed
    generates: int = 1          # `promil generate` commands per round


# BENCHMARK.json drives readme-train and mnist-wide; the other two run by
# name, as README.md explains.
WORKLOADS = {w.name: w for w in (
    # The README config: the headline cost of one `promil train`.  It runs
    # the 180 epochs at which the README's own run stops early; left to
    # stop early, its length varies with the seed (156-273 epochs).  No AUC
    # floor or q check: on some seeds the promil head starts inverted and
    # has not recovered by epoch 180 (see README.md).  Four generates a
    # round give a run enough dataset saves for a steady median.
    Workload("readme-train",
             dataset={"n_bags": 625, "threshold_qstar": QSTAR},
             train={"val_metric": "loss", "max_epochs": 180, "patience": 180},
             kernel_bag=10001, auc_check=False, generates=4),
    # Big bags: the sort and the quantile kernel dominate a step.  No AUC
    # floor: on some seeds the promil head keeps an inverted class
    # orientation at this bag size (see README.md).
    Workload("bigbag-train",
             dataset={"n_bags": 200, "threshold_qstar": QSTAR,
                      "bag_size_mean": 3000, "bag_size_std": 300},
             train={"val_metric": "loss", "max_epochs": 12, "patience": 12},
             kernel_bag=10001, auc_check=False),
    # MNIST width: dataset I/O and the matmuls dominate.
    Workload("mnist-wide",
             dataset={"n_bags": 80, "threshold_qstar": QSTAR},
             train={"val_metric": "loss", "max_epochs": 20, "patience": 20},
             hidden_dims=(32,),
             mnist={"train_images": 60000, "test_images": 10000, "n_test_bags": 40}),
    # The sweep/acceptance loop in small form, baseline heads included.  No
    # AUC floor: at 60 epochs some seeds leave the promil head inverted.
    Workload("heads-loop",
             dataset={"n_bags": 250, "threshold_qstar": QSTAR},
             train={"val_metric": "loss", "max_epochs": 60, "patience": 60},
             heads=("promil", "max", "mean"), train_seeds=2, auc_check=False),
)}


# -- one run ------------------------------------------------------------------

@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list = field(default_factory=list)

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            self.notes.append(f"check {name} failed: {detail}")


def _fingerprint(bags):
    """sha256 over every bag's ids, labels, split, fraction and array bytes."""
    h = hashlib.sha256()
    for b in bags:
        h.update(repr((b.id, int(b.label), b.split, b.positive_fraction,
                       b.instances.dtype.str, b.instances.shape)).encode())
        h.update(np.ascontiguousarray(b.instances).tobytes())
        if b.hidden_instance_labels is not None:
            h.update(np.ascontiguousarray(b.hidden_instance_labels).tobytes())
    return h.hexdigest()


class Runner:
    def __init__(self, workload, seed, workdir):
        self.wl = workload
        self.seed = seed
        self.dir = workdir
        self.ops = Ops()
        self.cli = None
        self.tracer = None
        self.calibrator = calibrate.Calibrator()
        self.command_s = 0.0    # wall time of every command so far

    def path(self, name):
        return os.path.join(self.dir, name)

    # commands

    def command(self, *argv):
        """Run one CLI command in-process, then the calibration blocks due;
        returns (exit code, seconds, stdout)."""
        self.ops.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        x0 = self.tracer.excluded
        self.calibrator.start()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.tracer.span("cli.command", self.cli.main, list(argv))
        except Exception:   # noqa: BLE001 - a crash is a failed operation
            code = -1
            err.write(traceback.format_exc())
        dt = perf_counter() - t0 - (self.tracer.excluded - x0)
        self.calibrator.tick(self.tracer.exclude)
        self.command_s += dt
        if code != 0:
            self.ops.failed += 1
            self.ops.notes.append(f"command {argv[0]} exited {code}: "
                                  f"{err.getvalue().strip()[-300:]}")
        return code, dt, out.getvalue()

    def config_doc(self, head):
        wl = self.wl
        doc = {"schema": "promil-config/1", "seed": self.seed, "head": head,
               "dataset": wl.dataset, "split_fractions": list(SPLITS),
               "hidden_dims": list(wl.hidden_dims), "train": wl.train}
        if wl.mnist:
            doc["source"] = "mnist"
            doc["mnist"] = {
                "train_images": self.path("idx/train-images-idx3-ubyte"),
                "train_labels": self.path("idx/train-labels-idx1-ubyte"),
                "test_images": self.path("idx/t10k-images-idx3-ubyte"),
                "test_labels": self.path("idx/t10k-labels-idx1-ubyte"),
                "n_test_bags": wl.mnist["n_test_bags"],
            }
        return doc

    # phases

    def write_inputs(self):
        """Config files, and for MNIST the IDX files (in a separate process)."""
        for head in self.wl.heads:
            with open(self.path(f"config-{head}.json"), "w") as f:
                json.dump(self.config_doc(head), f)
        if self.wl.mnist:
            os.makedirs(self.path("idx"))
            subprocess.run(
                [sys.executable, os.path.join(HERE, "make_idx.py"), self.path("idx"),
                 str(self.seed), str(self.wl.mnist["train_images"]),
                 str(self.wl.mnist["test_images"])],
                check=True, timeout=120)

    def generate(self):
        """``promil generate``; returns its wall time."""
        _, dt, _ = self.command("generate", "--config",
                                self.path(f"config-{self.wl.heads[0]}.json"),
                                "--out", self.path("dataset.json"))
        return dt

    def one_round(self, tag):
        """One pass over the workload's commands; returns its record."""
        tr = self.tracer
        rec = {"models": [], "train_cmd_s": 0.0, "train_loop_s": [], "eval": []}
        t0 = self.command_s
        rec["generate_s"] = [self.generate() for _ in range(self.wl.generates)]
        tr.captured.pop("saved_bags", None)
        for head in self.wl.heads:
            for j in range(self.wl.train_seeds):
                model = self.path(f"model-{tag}-{head}-{j}.json")
                n = len(tr.samples["training.train"])
                _, dt, _ = self.command("train", self.path("dataset.json"), "--config",
                                        self.path(f"config-{head}.json"),
                                        "--seed", str(self.seed + j), "--out", model)
                rec["train_cmd_s"] += dt
                rec["train_loop_s"] += tr.samples["training.train"][n:]
                reports = []
                for i, split in enumerate(EVAL_SPLITS):
                    report = f"{model}.{i}.{split}.eval.json"
                    n = len(tr.samples["metrics.evaluate"])
                    self.command("eval", model, self.path("dataset.json"),
                                 "--split", split, "--out", report)
                    rec["eval"] += [(split, s) for s in tr.samples["metrics.evaluate"][n:]]
                    reports.append((split, report, tr.captured.pop("eval_scores", None)))
                rec["models"].append((head, model, reports))
        rec["total_s"] = self.command_s - t0
        return rec

    # checks

    def read_bags(self):
        """The dataset as plain dicts, parsed here with json when the file is
        a bagdata/1 document, else read back through the package."""
        try:
            doc = checks.read_json(self.path("dataset.json"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            doc = None
        if doc is not None and doc.get("schema") == "bagdata/1":
            return doc["bags"]
        bags, _, _ = importlib.import_module("promil.bagdata").load_dataset(
            self.path("dataset.json"))
        return [{"id": b.id, "instances": b.instances, "label": b.label, "split": b.split,
                 "hidden_instance_labels": b.hidden_instance_labels} for b in bags]

    def check_round(self, rec, bags, epochs_per_model):
        ops = self.ops
        labels = np.array([b["label"] for b in bags])
        is_test = np.array([b["split"] == "test" for b in bags])
        digests = []
        for head, model_path, reports in rec["models"]:
            if not all(os.path.exists(p) for p in
                       [model_path, model_path + ".log.csv"] + [p for _, p, _ in reports]):
                ops.check(f"outputs[{head}]", False, f"{model_path} or its reports are missing")
                continue
            model = checks.read_json(model_path)
            digests.append(checks.model_digest(model_path))
            expected = np.array([checks.bag_score(model, b["instances"], head) for b in bags])
            for split, report_path, scores in reports:
                report = checks.read_json(report_path)
                sel = is_test if split == "test" else np.ones(len(bags), dtype=bool)
                for name, ok, detail in checks.check_eval_report(
                        report, scores, expected[sel], labels[sel]):
                    ops.check(f"{name}[{head},{split}]", ok, detail)
                if split == "test" and head == "promil" and self.wl.auc_check:
                    ops.check("method.test_auc", report["auc"] >= 0.95,
                              f"promil test AUC {report['auc']:.4f} < 0.95")
            with open(model_path + ".log.csv") as f:
                epochs_per_model.append(sum(1 for _ in f) - 1)
        return digests

    def check_kernel(self, model_path):
        """A bag of kernel_bag instances through ``promil quantile``."""
        model = checks.read_json(model_path)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xF11]))
        n = self.wl.kernel_bag
        x = rng.normal(size=(n, 2))
        n_pos = int(QSTAR * n)
        x[:n_pos, 0] += 3.0
        x[n_pos:, 0] -= 3.0
        p = checks.instance_predictions(model, x)
        q = model["q"]
        values = []
        for vals, level in ((p, q), (1.0 - p, 1.0 - q)):
            code, _, out = self.command("quantile", *map(repr, vals.tolist()),
                                        "--q", repr(level))
            values.append(float(out.strip()) if code == 0 else float("nan"))
        for name, ok, detail in checks.check_flip_identity(
                values[0], values[1], p, checks.bernstein_quantile(p, q)):
            self.ops.check(name, ok, detail)


def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def _pooled_rate(per_call, seconds):
    """Items per second over calls of ``per_call`` items each."""
    return per_call * len(seconds) / sum(seconds) if seconds else 0.0


def layer_metrics(tr, traced_rounds, untraced_totals, traced_totals):
    """Per-layer figures from the traced rounds (and traced set-up)."""
    def per_call(name, scale):
        return tr.total[name] / tr.calls[name] * scale if tr.calls[name] else 0.0

    def self_time(name):
        return tr.total[name] - tr.child[name]

    steps = tr.calls["training.step"]
    epochs = tr.count["training.epochs"]
    fwd = tr.calls["network.forward"]
    values = {
        "bernstein.sort_us": per_call("bernstein.sort", 1e6),
        "bernstein.kernel_us": per_call("bernstein.kernel", 1e6),
        "bernstein.kernel_calls": tr.calls["bernstein.kernel"] / traced_rounds,
        "bernstein.estimate_us": per_call("bernstein.estimate", 1e6),
        "network.forward_us": per_call("network.forward", 1e6),
        "network.backward_us": per_call("network.backward", 1e6),
        "network.forward_calls": fwd / traced_rounds,
        "network.instances_per_call": tr.count["network.instances"] / fwd if fwd else 0.0,
        "training.step_us": per_call("training.step", 1e6),
        "training.cost_grads_self_us":
            self_time("training.cost_grads") / steps * 1e6 if steps else 0.0,
        "training.adam_us": per_call("training.adam", 1e6),
        "training.adam_calls_per_step": tr.calls["training.adam"] / steps if steps else 0.0,
        "training.step_self_us": self_time("training.step") / steps * 1e6 if steps else 0.0,
        "training.nonstep_s_per_epoch":
            (tr.total["training.train"] - tr.total["training.step"]) / epochs
            if epochs else 0.0,
        "training.epochs": epochs / traced_rounds,
        "training.steps": steps / traced_rounds,
        "heads.score_bag_us": per_call("heads.score_bag", 1e6),
        "metrics.evaluate_s": per_call("metrics.evaluate", 1.0),
        "metrics.auc_us": per_call("metrics.auc", 1e6),
        "bagdata.generate_s": per_call("bagdata.generate", 1.0),
        "bagdata.save_s": per_call("bagdata.save", 1.0),
        "bagdata.load_s": per_call("bagdata.load", 1.0),
        "bagdata.idx_load_s": per_call("bagdata.idx_load", 1.0),
        "bagdata.mnist_bags_s": per_call("bagdata.mnist_bags", 1.0),
        "cli.model_save_s": per_call("cli.model_save", 1.0),
        "cli.model_load_s": per_call("cli.model_load", 1.0),
        "cli.self_s": self_time("cli.command") / tr.calls["cli.command"]
        if tr.calls["cli.command"] else 0.0,
        "trace.overhead_s": _median(traced_totals) - _median(untraced_totals),
    }
    return values


def calibrated(wall, scale):
    """End-to-end figures in reference seconds: times (``*_s``) multiplied
    by ``scale``, rates (``*_per_s``) divided by it, sizes as they are."""
    out = {}
    for name, value in wall.items():
        if name.endswith("_per_s"):
            value /= scale
        elif name.endswith("_s"):
            value *= scale
        out[name] = value
    return out


def metric_units():
    """Unit of every metric, from BENCHMARK.json at the checkout root."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def machine_block(promil):
    backend = getattr(promil, "backend_name", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": backend() if callable(backend) else "absent",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_workload(workload, seed, seconds, trace, workdir, import_s=0.0):
    """One benchmark run; returns (result dict, extra info dict).

    ``import_s`` is the time the caller took to import ``promil.cli`` in a
    fresh interpreter; it is part of set-up time."""
    os.makedirs(workdir)
    try:
        return _run(workload, seed, seconds, trace, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(wl, seed, seconds, trace, workdir, import_s):
    r = Runner(wl, seed, workdir)
    r.write_inputs()
    r.cli = importlib.import_module("promil.cli")
    promil = importlib.import_module("promil")

    base = Tracer(sampled=SAMPLED)
    layered = Tracer(sampled=SAMPLED)
    r.tracer = layered if trace else base
    r.tracer.install(boundary(r.calibrator) + (LAYERS if trace else ()))
    setup_generate_s = r.generate()
    r.tracer.remove()
    saved = r.tracer.captured.pop("saved_bags", None)
    generated_print = _fingerprint(saved) if saved is not None else None
    del saved

    records, untraced_totals, traced_totals = [], [], []
    start = perf_counter()
    while not records or perf_counter() - start < seconds:
        passes = (False, True) if trace else (False,)
        for traced in passes:
            r.tracer = layered if traced else base
            r.tracer.install(boundary(r.calibrator) + (LAYERS if traced else ()))
            try:
                rec = r.one_round(f"r{len(records)}")
            finally:
                r.tracer.remove()
            rec["traced"] = traced
            records.append(rec)
            (traced_totals if traced else untraced_totals).append(rec["total_s"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    blocks = list(r.calibrator.blocks)
    block_s = _median(blocks)

    # Checks: nothing below is timed.
    r.tracer = base
    bags = r.read_bags()
    n_train = sum(b["split"] == "train" for b in bags)
    name, ok, detail = checks.check_labels(bags, QSTAR)
    r.ops.check(name, ok, detail)
    loaded, _, _ = importlib.import_module("promil.bagdata").load_dataset(r.path("dataset.json"))
    r.ops.check("dataset.round_trip", _fingerprint(loaded) == generated_print,
                "bags read back differ from the bags generate wrote")
    del loaded
    digests = None
    all_same = True
    for rec in records:
        epochs = []
        d = r.check_round(rec, bags, epochs)
        rec["steps"] = [e * n_train for e in epochs]
        all_same = all_same and (digests is None or d == digests)
        digests = digests or d
    r.ops.check("determinism.model_digests", all_same,
                "model files differ between rounds of the same seed")
    if wl.kernel_bag:
        r.check_kernel(records[-1]["models"][0][1])

    plain = [rec for rec in records if not rec["traced"]]
    wall = None
    if trace:
        metrics = layer_metrics(layered, len(traced_totals), untraced_totals, traced_totals)
    else:
        wall = {
            "setup_s": import_s + _median(
                [setup_generate_s] + [s for rec in plain for s in rec["generate_s"]]),
            "total_s": _median([rec["total_s"] for rec in plain]),
            "train_s": _median([rec["train_cmd_s"] for rec in plain]),
            "train_steps_per_s": _median([
                steps / loop_s for rec in plain
                for steps, loop_s in zip(rec["steps"], rec["train_loop_s"])]),
            "eval_bags_per_s": _pooled_rate(len(bags), [dt for rec in plain
                                                         for split, dt in rec["eval"]
                                                         if split == "all"]),
            "dataset_save_s": _median(base.samples["bagdata.save"]),
            "dataset_load_s": _median(base.samples["bagdata.load"]),
            "dataset_mb": os.path.getsize(r.path("dataset.json")) / 1e6,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = calibrated(wall, calibrate.REF_BLOCK_S / block_s)
    units = metric_units()
    result = {
        "correct": r.ops.correct,
        "attempted": r.ops.attempted,
        "failed": r.ops.failed,
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in metrics.items()},
    }
    extra = {
        "machine": machine_block(promil),
        "rounds": len(records),
        "calibration": {"block_s": block_s, "blocks": len(blocks),
                        "ref_block_s": calibrate.REF_BLOCK_S},
        "wall": wall,
        "digests": digests,
        "absent_layers": sorted(layered.absent),
        "notes": r.ops.notes,
    }
    return result, extra
