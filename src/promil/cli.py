"""Command-line tool: dataset generation, training, evaluation, sweeps,
and a standalone quantile utility.

Configs and models are JSON with explicit schema-version fields
(promil-config/1, promil-model/2, which adds the training eps_clamp;
promil-model/1 is still read, with the default eps).  Datasets are one
deflated .npz whatever the file's extension (bagdata/2; the JSON bagdata/1
is still read).  Sweep results and per-epoch training logs are CSV.
Identical (config, seed) inputs reproduce output files byte for byte; the
model file keeps its timestamp in a separate metadata field so everything
else stays reproducible.

Exit codes: 0 success, 1 usage error, 2 I/O or parse error, 3 numerical
failure (NaN detected).
"""

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .bagdata import (
    DatasetError,
    DatasetSplit,
    IdxParseError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_idx,
    make_mnist_bags,
    save_dataset,
    split_dataset,
)
from .bernstein import (
    DEFAULT_EPS,
    QuantileParam,
    check_eps,
    estimate_quantile,
    estimate_quantile_limit,
)
from .heads import HEADS
from .metrics import evaluate
from .network import NetArch, NetParams
from .training import (
    NumericalError,
    TrainConfig,
    TrainedModel,
    init_train_state,
    train,
)

CONFIG_SCHEMA = "promil-config/1"
MODEL_SCHEMA = "promil-model/2"
LEGACY_MODEL_SCHEMA = "promil-model/1"   # read with eps_clamp = DEFAULT_EPS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

SWEEP_COLUMNS = ("axis", "value", "method", "seed", "auc",
                 "balanced_accuracy", "learned_q", "status")
SWEEP_AXES = ("threshold", "bag_size", "n_bags")
EPOCH_LOG_COLUMNS = ("epoch", "train_cost", "val_auc", "val_loss", "q")


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


@dataclass
class MnistPaths:
    train_images: str = None
    train_labels: str = None
    test_images: str = None
    test_labels: str = None
    n_test_bags: int = 250


@dataclass
class ExperimentConfig:
    seed: int = 0
    head: str = "promil"
    source: str = "synthetic"        # or "mnist"
    dataset: SyntheticSpec = field(
        default_factory=lambda: SyntheticSpec(n_bags=625, threshold_qstar=0.3))
    mnist: MnistPaths = field(default_factory=MnistPaths)
    split_fractions: tuple = (0.8, 0.1, 0.1)
    hidden_dims: tuple = ()
    activation: str = "relu"
    train: TrainConfig = field(default_factory=TrainConfig)
    repeats: int = 5

    def __post_init__(self):
        if self.head not in HEADS:
            raise ConfigError(f"invalid config field 'head': must be one of {HEADS}")
        if self.source not in ("synthetic", "mnist"):
            raise ConfigError("invalid config field 'source': must be synthetic or mnist")
        if self.repeats < 1:
            raise ConfigError("invalid config field 'repeats': must be >= 1")

    def net_arch(self, input_dim):
        return NetArch(input_dim=input_dim, hidden_dims=tuple(self.hidden_dims),
                       activation=self.activation)


def _build_section(cls, obj, section):
    """Construct a dataclass from a config dict, naming bad fields."""
    if not isinstance(obj, dict):
        raise ConfigError(f"invalid config field '{section}': expected an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(
            f"invalid config field '{section}.{sorted(unknown)[0]}': unknown field"
        )
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config field in '{section}': {exc}") from exc


def load_config(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: a config must be a JSON object, got "
                          f"{type(doc).__name__}")
    if doc.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(
            f"{path}: unsupported config schema {doc.get('schema')!r} "
            f"(expected {CONFIG_SCHEMA!r})"
        )
    doc = dict(doc)
    doc.pop("schema")
    kwargs = {}
    for key in ("seed", "head", "source", "repeats", "activation"):
        if key in doc:
            kwargs[key] = doc.pop(key)
    if "split_fractions" in doc:
        kwargs["split_fractions"] = tuple(doc.pop("split_fractions"))
    if "hidden_dims" in doc:
        kwargs["hidden_dims"] = tuple(doc.pop("hidden_dims"))
    if "dataset" in doc:
        kwargs["dataset"] = _build_section(SyntheticSpec, doc.pop("dataset"), "dataset")
    if "mnist" in doc:
        kwargs["mnist"] = _build_section(MnistPaths, doc.pop("mnist"), "mnist")
    if "train" in doc:
        tr = doc.pop("train")
        if isinstance(tr, dict) and "q_init" in tr and tr["q_init"] != "random":
            tr["q_init"] = float(tr["q_init"])
        kwargs["train"] = _build_section(TrainConfig, tr, "train")
    if doc:
        raise ConfigError(f"invalid config field '{sorted(doc)[0]}': unknown field")
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def config_to_dict(cfg):
    return {
        "schema": CONFIG_SCHEMA,
        "seed": cfg.seed,
        "head": cfg.head,
        "source": cfg.source,
        "dataset": dataclasses.asdict(cfg.dataset),
        "mnist": dataclasses.asdict(cfg.mnist),
        "split_fractions": list(cfg.split_fractions),
        "hidden_dims": list(cfg.hidden_dims),
        "activation": cfg.activation,
        "train": dataclasses.asdict(cfg.train),
        "repeats": cfg.repeats,
    }


def save_config(path, cfg):
    with open(path, "w") as f:
        json.dump(config_to_dict(cfg), f, sort_keys=True, indent=2)
        f.write("\n")


def save_model(path, model):
    doc = {
        "schema": MODEL_SCHEMA,
        "arch": {
            "input_dim": model.arch.input_dim,
            "hidden_dims": list(model.arch.hidden_dims),
            "activation": model.arch.activation,
        },
        "weights": [w.tolist() for w in model.net.weights],
        "biases": [b.tolist() for b in model.net.biases],
        "raw_q": float(model.q.raw),
        "q": float(model.q.q),
        "head": model.head,
        "eps_clamp": float(model.eps),
        "metadata": {
            "seed": model.seed,
            "epochs_run": model.epochs_run,
            "best_epoch": model.best_epoch,
            "best_val_metric": model.best_value,
            "val_metric": model.val_metric,
            "created_unix": int(time.time()),
        },
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def _finite_arrays(values, shapes):
    """Nested lists as finite float64 arrays of the given shapes."""
    arrays = [np.asarray(v, dtype=np.float64) for v in values]
    if [a.shape for a in arrays] != shapes:
        raise ValueError(f"shapes {[a.shape for a in arrays]} do not match {shapes}")
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("values must be finite")
    return arrays


def load_model(path):
    """Read a model file.  A file that is not JSON, or a field that is
    missing or bad, raises ConfigError naming the path and the field."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema not in (MODEL_SCHEMA, LEGACY_MODEL_SCHEMA):
        raise ConfigError(
            f"{path}: unsupported model schema {schema!r} "
            f"(expected {MODEL_SCHEMA!r} or {LEGACY_MODEL_SCHEMA!r})"
        )
    name = "eps_clamp"
    try:
        eps = float(doc[name]) if schema == MODEL_SCHEMA else DEFAULT_EPS
        check_eps(eps)
        name = "arch"
        arch = NetArch(
            input_dim=int(doc[name]["input_dim"]),
            hidden_dims=tuple(doc[name]["hidden_dims"]),
            activation=doc[name]["activation"],
        )
        dims = arch.layer_dims
        name = "weights"
        weights = _finite_arrays(doc[name], list(zip(dims[:-1], dims[1:])))
        name = "biases"
        biases = _finite_arrays(doc[name], [(n,) for n in dims[1:]])
        name = "raw_q"
        raw_q = float(doc[name])
        if not math.isfinite(raw_q):
            raise ValueError(f"must be finite, got {raw_q}")
        name = "head"
        head = doc.get(name, "promil")
        if head not in HEADS:
            raise ValueError(f"must be one of {HEADS}, got {head!r}")
        name = "metadata"
        meta = doc.get(name, {})
        if not isinstance(meta, dict):
            raise TypeError(f"must be an object, got {type(meta).__name__}")
    except KeyError as exc:
        raise ConfigError(f"{path}: invalid model field '{name}': missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid model field '{name}': {exc}") from None
    return TrainedModel(
        arch=arch,
        net=NetParams(arch=arch, weights=weights, biases=biases),
        q=QuantileParam(raw=raw_q),
        head=head,
        val_metric=meta.get("val_metric", "auc"),
        best_epoch=meta.get("best_epoch", 0),
        best_value=meta.get("best_val_metric", float("nan")),
        epochs_run=meta.get("epochs_run", 0),
        seed=meta.get("seed", 0),
        eps=eps,
    )


def _generate_bags(cfg, seed):
    """Produce the tagged bag list for a config (synthetic or MNIST)."""
    if cfg.source == "synthetic":
        bags = generate_synthetic(cfg.dataset, seed)
        split = split_dataset(bags, cfg.split_fractions, seed)
        for name, bucket in (("train", split.train), ("validation", split.validation),
                             ("test", split.test)):
            for b in bucket:
                b.split = name
        return split.train + split.validation + split.test
    m = cfg.mnist
    for fieldname in ("train_images", "train_labels", "test_images", "test_labels"):
        if getattr(m, fieldname) is None:
            raise ConfigError(f"invalid config field 'mnist.{fieldname}': required "
                              f"when source is mnist")
    tr_images, tr_labels = load_idx(m.train_images, m.train_labels)
    te_images, te_labels = load_idx(m.test_images, m.test_labels)
    frac_train, frac_val, _ = cfg.split_fractions
    pool = make_mnist_bags(tr_images, tr_labels, cfg.dataset, seed, split=None)
    denom = frac_train + frac_val
    inner = (frac_train / denom, frac_val / denom, 0.0) if denom > 0 else (1.0, 0.0, 0.0)
    split = split_dataset(pool, inner, seed)
    for b in split.train:
        b.split = "train"
    for b in split.validation:
        b.split = "validation"
    test_spec = dataclasses.replace(cfg.dataset, n_bags=m.n_test_bags)
    test = make_mnist_bags(te_images, te_labels, test_spec, seed + 1, split="test")
    return split.train + split.validation + test


def _split_from_tags(bags):
    split = DatasetSplit()
    for b in bags:
        if b.split == "train":
            split.train.append(b)
        elif b.split == "validation":
            split.validation.append(b)
        elif b.split == "test":
            split.test.append(b)
    return split


def _train_once(cfg, bags, head=None):
    split = _split_from_tags(bags)
    if not split.train or not split.validation:
        raise UsageError("dataset has no train/validation split tags; regenerate it")
    input_dim = split.train[0].instances.shape[1]
    state = init_train_state(cfg.net_arch(input_dim), cfg.train)
    return train(state, split, cfg.train, head=head or cfg.head), split


def cmd_generate(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    bags = _generate_bags(cfg, cfg.seed)
    save_dataset(args.out, bags, spec=cfg.dataset, seed=cfg.seed)
    n_pos = sum(b.label for b in bags)
    print(f"wrote {len(bags)} bags to {args.out} "
          f"(positive rate {n_pos / len(bags):.3f}, "
          f"splits train/val/test = "
          f"{sum(b.split == 'train' for b in bags)}/"
          f"{sum(b.split == 'validation' for b in bags)}/"
          f"{sum(b.split == 'test' for b in bags)})")
    return EXIT_OK


def cmd_train(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.train.seed = cfg.seed
    bags, _, _ = load_dataset(args.dataset)
    model, _ = _train_once(cfg, bags)
    save_model(args.out, model)
    log_path = args.log or (args.out + ".log.csv")
    with open(log_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(EPOCH_LOG_COLUMNS)
        for row in model.history:
            writer.writerow([row.epoch, repr(row.train_cost), repr(row.val_auc),
                             repr(row.val_loss), repr(row.q)])
    print(f"trained {model.head} for {model.epochs_run} epochs "
          f"(best epoch {model.best_epoch}, val_{model.val_metric} "
          f"{model.best_value:.6f}); learned q = {model.learned_q:.6f}")
    print(f"model written to {args.out}, epoch log to {log_path}")
    return EXIT_OK


def cmd_eval(args):
    model = load_model(args.model)
    bags, _, _ = load_dataset(args.dataset)
    if args.split != "all":
        bags = [b for b in bags if b.split == args.split]
        if not bags:
            raise UsageError(f"dataset has no bags tagged split={args.split!r}")
    if bags and bags[0].instances.shape[1] != model.arch.input_dim:
        raise UsageError(
            f"model expects input_dim {model.arch.input_dim} but dataset has "
            f"{bags[0].instances.shape[1]}"
        )
    head = args.head or model.head
    result = evaluate(model, bags, head=head)
    if any(np.isnan(v) for v in (result.auc, result.balanced_accuracy)):
        raise NumericalError("NaN in evaluation metrics")
    out = args.out or f"{args.model}.{head}.{args.split}.eval.json"
    doc = {
        "model": args.model,
        "dataset": args.dataset,
        "head": head,
        "split": args.split,
        "auc": result.auc,
        "balanced_accuracy": result.balanced_accuracy,
        "accuracy": result.accuracy,
        "confusion": {"tp": result.tp, "fp": result.fp, "tn": result.tn, "fn": result.fn},
        "n_bags": result.n_bags,
    }
    with open(out, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")
    print(f"{head} on {args.split}: AUC {result.auc:.4f}, "
          f"balanced accuracy {result.balanced_accuracy:.4f} "
          f"({result.n_bags} bags) -> {out}")
    return EXIT_OK


def _apply_axis(cfg, axis, value):
    ds = cfg.dataset
    if axis == "threshold":
        return dataclasses.replace(ds, threshold_qstar=float(value))
    if axis == "bag_size":
        return dataclasses.replace(ds, bag_size_mean=float(value))
    if axis == "n_bags":
        return dataclasses.replace(ds, n_bags=int(value))
    raise UsageError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")


def cmd_sweep(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"--values must be comma-separated numbers: {exc}") from exc
    if not values:
        raise UsageError("--values must contain at least one number")
    rows = []
    for vi, value in enumerate(values):
        try:
            dataset_spec = _apply_axis(cfg, args.axis, value)
        except Exception as exc:   # noqa: BLE001 - rows record the failure
            for rep in range(cfg.repeats):
                cell_seed = cfg.seed * 1_000_000 + vi * 1_000 + rep
                for method in HEADS:
                    rows.append([args.axis, value, method, cell_seed, "", "", "",
                                 f"error:{type(exc).__name__}"])
            continue
        for rep in range(cfg.repeats):
            cell_seed = cfg.seed * 1_000_000 + vi * 1_000 + rep
            cell_cfg = dataclasses.replace(
                cfg,
                dataset=dataset_spec,
                train=dataclasses.replace(cfg.train, seed=cell_seed),
                seed=cell_seed,
            )
            try:
                bags = _generate_bags(cell_cfg, cell_seed)
            except Exception as exc:   # noqa: BLE001 - row records the failure
                for method in HEADS:
                    rows.append([args.axis, value, method, cell_seed, "", "", "",
                                 f"error:{type(exc).__name__}"])
                continue
            for method in HEADS:
                try:
                    model, split = _train_once(cell_cfg, bags, head=method)
                    result = evaluate(model, split.test, head=method)
                    rows.append([
                        args.axis, value, method, cell_seed,
                        repr(result.auc), repr(result.balanced_accuracy),
                        repr(model.learned_q) if method == "promil" else "",
                        "ok",
                    ])
                except Exception as exc:   # noqa: BLE001
                    rows.append([args.axis, value, method, cell_seed, "", "", "",
                                 f"error:{type(exc).__name__}"])
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(rows)
    ok = sum(r[-1] == "ok" for r in rows)
    print(f"sweep over {args.axis}: {len(rows)} rows ({ok} ok) -> {args.out}")
    return EXIT_OK


def cmd_quantile(args):
    if not args.numbers:
        raise UsageError("quantile needs at least one number")
    if not 0.0 <= args.q <= 1.0:
        raise UsageError(f"--q must be in [0, 1], got {args.q}")
    for x in args.numbers:
        if not 0.0 <= x <= 1.0:
            raise UsageError(f"numbers must be finite and in [0, 1], got {x}")
    values = np.sort(np.asarray(args.numbers, dtype=np.float64))
    if args.q in (0.0, 1.0):
        result = estimate_quantile_limit(values, args.q)
    else:
        result = estimate_quantile(values, args.q, eps=args.eps)
    print(f"{result:.9g}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="promil",
                     description="Percentage-based MIL with a trainable quantile head")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a bag dataset file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model on a dataset file")
    p.add_argument("dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="per-epoch CSV path (default <out>.log.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model file on a dataset file")
    p.add_argument("model")
    p.add_argument("dataset")
    p.add_argument("--head", choices=HEADS, default=None)
    p.add_argument("--split", choices=("all", "train", "validation", "test"),
                   default="all")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run generate/train/eval grids to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("quantile", help="evaluate the quantile estimator on numbers")
    p.add_argument("numbers", nargs="*", type=float)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.set_defaults(func=cmd_quantile)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, IdxParseError, DatasetError, FileNotFoundError, IsADirectoryError,
            PermissionError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
