"""Command-line tool: dataset generation, training, evaluation, sweeps,
and a standalone quantile utility.

Configs and models are JSON with explicit schema-version fields
(promil-config/1, promil-model/2, which records the training eps_clamp).
Datasets are one .npz whatever the file's extension (bagdata/4, which
keeps the instance matrix as a bit mask of its nonzero cells and their
values).  Files of the schemas earlier versions wrote (promil-model/1,
bagdata/3, the dense bagdata/2 and the JSON bagdata/1) are refused by
name, exit 2.
Sweep results and per-epoch training logs are CSV.
Identical (config, seed) inputs reproduce output files byte for byte; the
model file keeps its timestamp in a separate metadata field so everything
else stays reproducible.

A config is checked when it is read: each section (dataset, mnist, train),
then the config itself, is built as its dataclass, which checks each of its
own fields with ``check_number`` or ``check_choice``, as a model file's
are.  The top-level seed, or ``--seed``, seeds the bags, the split and
training; the train section takes no seed.

Exit codes: 0 success, 1 usage error, 2 I/O or parse error (a bad config
field among them), 3 numerical failure (NaN detected).
"""

import argparse
import csv
import dataclasses
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .bagdata import (
    DatasetError,
    DatasetSplit,
    IdxParseError,
    SyntheticSpec,
    check_choice,
    check_fractions,
    check_number,
    generate_synthetic,
    is_number,
    load_dataset,
    load_idx,
    make_mnist_bags,
    save_dataset,
    split_dataset,
)
from .bernstein import DEFAULT_EPS, estimate_quantile
from .heads import HEADS
from .metrics import evaluate
from .network import NetArch, NetParams
from .training import (
    EpochStats,
    NumericalError,
    VAL_METRICS,
    TrainConfig,
    TrainedModel,
    init_train_state,
    train,
)

CONFIG_SCHEMA = "promil-config/1"
MODEL_SCHEMA = "promil-model/2"
RETIRED_MODEL_SCHEMAS = ("promil-model/1",)   # written by earlier versions, no longer read

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

SWEEP_COLUMNS = ("axis", "value", "method", "seed", "auc",
                 "balanced_accuracy", "learned_q", "status")
# each sweep axis: the dataset field it sets, and that field's type
_AXIS_FIELDS = {"threshold": ("threshold_qstar", float), "bag_size": ("bag_size_mean", float),
                "n_bags": ("n_bags", int)}
SWEEP_AXES = tuple(_AXIS_FIELDS)
EPOCH_LOG_COLUMNS = tuple(f.name for f in dataclasses.fields(EpochStats))


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

    def __post_init__(self):
        for name in ("train_images", "train_labels", "test_images", "test_labels"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name} must be a path, got {getattr(self, name)!r}")
        check_number("n_test_bags", self.n_test_bags, integer=True, at_least=2)


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
        self.train = dataclasses.replace(self.train, seed=self.seed)   # TrainConfig checks it
        check_choice("head", self.head, HEADS)
        check_choice("source", self.source, ("synthetic", "mnist"))
        self.split_fractions = check_fractions(self.split_fractions, "split_fractions")
        # the input width comes with the dataset; any width checks the rest
        self.hidden_dims = NetArch(1, self.hidden_dims, self.activation).hidden_dims
        check_number("repeats", self.repeats, integer=True, at_least=1)

    def net_arch(self, input_dim):
        return NetArch(input_dim=input_dim, hidden_dims=self.hidden_dims,
                       activation=self.activation)


# the config's sections, each built as its dataclass before the config itself
_SECTIONS = {"dataset": SyntheticSpec, "mnist": MnistPaths, "train": TrainConfig}


def _read_json(path, kind):
    """The JSON object in the file ``path``; ConfigError naming the path
    when the file is not UTF-8 JSON text holding an object."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as exc:   # UnicodeDecodeError, JSONDecodeError, too long an integer
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: a {kind} must be a JSON object, got "
                          f"{type(doc).__name__}")
    return doc


def _build_section(cls, obj, path, section=None):
    """``cls`` built from the config object ``obj``, which checks each of
    its fields; a field that is unknown or bad raises ConfigError naming
    the path, the section (none for the top level) and the field."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: invalid config field '{section}': expected an object")
    unknown = sorted(set(obj) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        name = f"{section}.{unknown[0]}" if section else unknown[0]
        raise ConfigError(f"{path}: invalid config field '{name}': unknown field")
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        where = f" in '{section}'" if section else ""
        raise ConfigError(f"{path}: invalid config field{where}: {exc}") from exc


def load_config(path):
    """Read a config file: each section, then the config itself, is built
    as its dataclass.  A file that is not a JSON object, or a field that is
    unknown or bad, raises ConfigError naming the path and the field."""
    doc = _read_json(path, "config")
    if doc.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(
            f"{path}: unsupported config schema {doc.get('schema')!r} "
            f"(expected {CONFIG_SCHEMA!r})"
        )
    fields = {key: value for key, value in doc.items() if key != "schema"}
    if isinstance(fields.get("train"), dict) and "seed" in fields["train"]:
        raise ConfigError(f"{path}: invalid config field 'train.seed': 'train' takes no seed; "
                          f"the top-level 'seed' seeds training")
    for section, cls in _SECTIONS.items():
        if section in fields:
            fields[section] = _build_section(cls, fields[section], path, section)
    return _build_section(ExperimentConfig, fields, path)


def save_model(path, model):
    arch = model.net.arch
    doc = {
        "schema": MODEL_SCHEMA,
        "arch": {
            "input_dim": arch.input_dim,
            "hidden_dims": list(arch.hidden_dims),
            "activation": arch.activation,
        },
        "weights": [w.tolist() for w in model.net.weights],
        "biases": [b.tolist() for b in model.net.biases],
        "raw_q": float(model.raw_q),
        "q": float(model.learned_q),
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
    # one dumps call takes the C encoder; json.dump would take the Python one
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w") as f:
        f.write(text)


def _finite_arrays(values, shapes):
    """Nested lists of numbers as finite float64 arrays of the given shapes."""
    arrays = [np.asarray(v, dtype=np.float64) for v in values]
    if [a.shape for a in arrays] != shapes:
        raise ValueError(f"shapes {[a.shape for a in arrays]} do not match {shapes}")
    # the conversion also takes bools and numeric strings, so each scalar's
    # type is checked; JSON numbers are read as int or float
    for v, a in zip(values, arrays):
        for row in v if a.ndim == 2 else [v]:
            if not set(map(type, row)) <= {int, float}:
                bad = next(x for x in row if not is_number(x))
                raise TypeError(f"must be numbers, got {bad!r}")
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("values must be finite")
    return arrays


def load_model(path):
    """Read a model file.  A file that is not JSON, or a field that is
    missing or bad, raises ConfigError naming the path and the field."""
    doc = _read_json(path, "model")
    schema = doc.get("schema")
    if schema != MODEL_SCHEMA:
        why = "is no longer read" if schema in RETIRED_MODEL_SCHEMAS else "is not supported"
        raise ConfigError(f"{path}: model schema {schema!r} {why} (expected {MODEL_SCHEMA!r})")
    name = "eps_clamp"
    try:
        eps = float(check_number(name, doc[name], above=0))
        name = "arch"
        arch = NetArch(
            input_dim=doc[name]["input_dim"],
            hidden_dims=doc[name]["hidden_dims"],
            activation=doc[name]["activation"],
        )
        dims = arch.layer_dims
        name = "weights"
        weights = _finite_arrays(doc[name], list(zip(dims[:-1], dims[1:])))
        name = "biases"
        biases = _finite_arrays(doc[name], [(n,) for n in dims[1:]])
        name = "raw_q"
        raw_q = float(check_number(name, doc[name]))
        name = "head"
        head = check_choice(name, doc.get(name, "promil"), HEADS)
        name = "metadata"
        meta = doc.get(name, {})
        if not isinstance(meta, dict):
            raise TypeError(f"must be an object, got {type(meta).__name__}")
        counts = {}
        for key in ("seed", "epochs_run", "best_epoch"):
            name = f"metadata.{key}"
            counts[key] = check_number(name, meta.get(key, 0), integer=True, at_least=0)
        name = "metadata.best_val_metric"
        best_value = meta.get("best_val_metric", math.nan)   # NaN when no epoch improved
        if not is_number(best_value):
            raise TypeError(f"must be a number, got {best_value!r}")
        name = "metadata.val_metric"
        val_metric = check_choice(name, meta.get("val_metric", "auc"), VAL_METRICS)
    except KeyError as exc:
        raise ConfigError(f"{path}: invalid model field '{name}': missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid model field '{name}': {exc}") from None
    return TrainedModel(
        net=NetParams(arch, flat=np.concatenate([a.ravel() for a in (*weights, *biases)])),
        raw_q=raw_q,
        head=head,
        val_metric=val_metric,
        best_value=float(best_value),
        eps=eps,
        **counts,
    )


def _read_digits(cfg):
    """The MNIST source's ((train images, labels), (test images, labels)),
    read from its IDX files; None for a synthetic source.  An unset path
    raises ConfigError naming its field."""
    if cfg.source != "mnist":
        return None
    m = cfg.mnist
    for fieldname in ("train_images", "train_labels", "test_images", "test_labels"):
        if getattr(m, fieldname) is None:
            raise ConfigError(f"invalid config field 'mnist.{fieldname}': required "
                              f"when source is mnist")
    return load_idx(m.train_images, m.train_labels), load_idx(m.test_images, m.test_labels)


def _generate_split(cfg, seed, digits):
    """The config's bags (synthetic, or MNIST from ``digits``, what
    _read_digits gave) as a DatasetSplit, each bag tagged with the split it
    is in."""
    if digits is None:
        split = split_dataset(generate_synthetic(cfg.dataset, seed), cfg.split_fractions, seed)
    else:
        (tr_images, tr_labels), (te_images, te_labels) = digits
        frac_train, frac_val, _ = cfg.split_fractions
        pool = make_mnist_bags(tr_images, tr_labels, cfg.dataset, seed, split=None)
        denom = frac_train + frac_val
        inner = (frac_train / denom, frac_val / denom, 0.0) if denom > 0 else (1.0, 0.0, 0.0)
        split = split_dataset(pool, inner, seed)
        test_spec = dataclasses.replace(cfg.dataset, n_bags=cfg.mnist.n_test_bags)
        split.test = make_mnist_bags(te_images, te_labels, test_spec, seed + 1, split="test")
    return DatasetSplit(*([dataclasses.replace(b, split=name) for b in getattr(split, name)]
                          for name in ("train", "validation", "test")))


def _split_from_tags(bags):
    split = DatasetSplit()
    for b in bags:
        if b.split in ("train", "validation", "test"):
            getattr(split, b.split).append(b)
    return split


def _train_once(cfg, split, head):
    if not split.train or not split.validation:
        raise UsageError("dataset has no train/validation split tags; regenerate it")
    input_dim = split.train[0].instances.shape[1]
    state = init_train_state(cfg.net_arch(input_dim), cfg.train)
    return train(state, split, cfg.train, head=head)


def _config(args):
    """The config file named in ``args``, with ``--seed``, when given, as
    its seed."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def cmd_generate(args):
    cfg = _config(args)
    split = _generate_split(cfg, cfg.seed, _read_digits(cfg))
    bags = split.train + split.validation + split.test
    save_dataset(args.out, bags, spec=cfg.dataset, seed=cfg.seed)
    n_pos = sum(b.label for b in bags)
    print(f"wrote {len(bags)} bags to {args.out} "
          f"(positive rate {n_pos / len(bags):.3f}, "
          f"splits train/val/test = "
          f"{len(split.train)}/{len(split.validation)}/{len(split.test)})")
    return EXIT_OK


def cmd_train(args):
    cfg = _config(args)
    bags, _, _ = load_dataset(args.dataset)
    model = _train_once(cfg, _split_from_tags(bags), cfg.head)
    save_model(args.out, model)
    log_path = args.log or (args.out + ".log.csv")
    with open(log_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(EPOCH_LOG_COLUMNS)
        for row in model.history:
            writer.writerow([repr(value) for value in dataclasses.astuple(row)])
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


def cmd_sweep(args):
    cfg = _config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"--values must be comma-separated numbers: {exc}") from exc
    if not values:
        raise UsageError("--values must contain at least one number")
    name, kind = _AXIS_FIELDS[args.axis]
    for value in values:
        if kind is int and not value.is_integer():
            raise UsageError(f"--values for --axis {args.axis} must be whole numbers, "
                             f"got {value}")
    digits = _read_digits(cfg)   # once: every cell takes its bags from the same files
    rows = []
    for vi, value in enumerate(values):
        for rep in range(cfg.repeats):
            cell_seed = cfg.seed * 1_000_000 + vi * 1_000 + rep
            split = None
            for method in HEADS:
                # every failure takes the one row path below: a cell whose
                # dataset cannot be made fails the same way for each head
                try:
                    if split is None:
                        cell_cfg = dataclasses.replace(
                            cfg,
                            dataset=dataclasses.replace(cfg.dataset, **{name: kind(value)}),
                            seed=cell_seed,
                        )
                        split = _generate_split(cell_cfg, cell_seed, digits)
                    model = _train_once(cell_cfg, split, method)
                    result = evaluate(model, split.test, head=method)
                    outcome = [repr(result.auc), repr(result.balanced_accuracy),
                               repr(model.learned_q) if method == "promil" else "", "ok"]
                except Exception as exc:   # noqa: BLE001 - the row records the failure
                    outcome = ["", "", "", f"error:{type(exc).__name__}"]
                rows.append([args.axis, value, method, cell_seed, *outcome])
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(rows)
    ok = sum(r[-1] == "ok" for r in rows)
    print(f"sweep over {args.axis}: {len(rows)} rows ({ok} ok) -> {args.out}")
    return EXIT_OK


def cmd_quantile(args):
    values = np.sort(np.asarray(args.numbers, dtype=np.float64))
    print(f"{estimate_quantile(values, args.q, eps=args.eps):.9g}")
    return EXIT_OK


# A token that starts with "-" and that float() reads: digits with
# underscores, a fraction, an exponent, inf, infinity or nan.
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:[eE][-+]?{_DIGITS})?"
    rf"|(?i:inf|infinity|nan))\s*\Z")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse counts a token as a negative number, not an option, only
        # when it is -digits or -.digits; -1e5, -inf and -nan are values too
        self._negative_number_matcher = _NEGATIVE_NUMBER

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
            PermissionError) as exc:
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
