"""Percentage-based bag datasets.

Synthetic bags draw instances from two isotropic Gaussian clusters; each
bag's target positive fraction comes from Uniform(0, 1) and the bag label
compares the realized fraction against a threshold (percentage rule) or
checks for any positive instance (standard rule).  The MNIST-bag path
draws its bags by the same protocol (``_draw_bag``) from user-supplied
IDX files, with the digit 9 as the positive class.

Hidden per-instance labels ride along for diagnostics only; training never
sees them.
"""

import io
import json
import math
import numbers
import os
import struct
import zipfile
import zlib
from dataclasses import dataclass, field, asdict

import numpy as np

DATASET_SCHEMA = "bagdata/3"
DENSE_SCHEMA = "bagdata/2"          # one dense instance member; still read, no longer written
LEGACY_SCHEMA = "bagdata/1"        # JSON; still read, no longer written
SPLIT_NAMES = (None, "train", "validation", "test")   # indexed by split code
# the members every .npz schema has, and the numpy dtype kinds each may have
_MEMBER_KINDS = {
    "header": "U", "ids": "U", "offsets": "i", "labels": "iu", "splits": "iu", "hidden": "iu",
    "has_hidden": "b", "fractions": "f", "has_fraction": "b",
}
# each .npz schema's instance members: bagdata/3 holds a bit per cell (set
# where the cell is not +0.0) and the cells so marked, in row-major order
_INSTANCE_KINDS = {
    DATASET_SCHEMA: {"instance_mask": "u", "instance_values": "f"},
    DENSE_SCHEMA: {"instances": "f"},
}
# zlib level for the instance members: on MNIST-like bags level 1 deflates
# the mask and values 5x faster than the default level, for 7% more bytes;
# the small members keep the default: level 1 grows the hidden labels by 70%
_INSTANCE_LEVEL = 1
_ZIP_MAGIC = b"PK\x03\x04"
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)   # fixed member time: same bags, same bytes
IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
LABEL_RULES = ("percentage", "standard")


def is_integer(x):
    """True for an integer other than a bool: JSON true and false are read
    as bools, which Python counts as the integers 1 and 0."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_number(x):
    """True for a real number other than a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class IdxParseError(ValueError):
    """IDX file violated the format; the message names the byte offset."""


class DatasetError(ValueError):
    """A dataset file is unreadable or inconsistent; the message names the
    path and the field."""


@dataclass
class Bag:
    id: str
    instances: np.ndarray
    label: int
    hidden_instance_labels: np.ndarray = None
    positive_fraction: float = None
    split: str = None
    # (instances, (whole, offsets), i), set by load_dataset: ``instances``
    # was made as ``whole[offsets[i]:offsets[i + 1]]``, a view of the
    # dataset's one instance array.  It holds for as long as ``instances``
    # is that object.
    loaded_rows: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise ValueError(f"bag {self.id!r}: id must be a string")
        self.instances = np.asarray(self.instances, dtype=np.float64)
        if self.instances.ndim != 2 or self.instances.shape[0] == 0:
            raise ValueError(f"bag {self.id}: instances must be a nonempty 2-D array")
        if not (is_integer(self.label) and self.label in (0, 1)):
            raise ValueError(f"bag {self.id}: label must be 0 or 1, got {self.label!r}")
        if self.hidden_instance_labels is not None:
            self.hidden_instance_labels = np.asarray(self.hidden_instance_labels, dtype=np.int64)
            if len(self.hidden_instance_labels) != len(self.instances):
                raise ValueError(f"bag {self.id}: hidden label count mismatch")
            if self.positive_fraction is not None:
                expect = self.hidden_instance_labels.sum() / len(self.instances)
                if abs(self.positive_fraction - expect) > 1e-12:
                    raise ValueError(
                        f"bag {self.id}: positive_fraction {self.positive_fraction} "
                        f"inconsistent with hidden labels ({expect})"
                    )

    def __len__(self):
        return self.instances.shape[0]

    def __getstate__(self):
        # a copied or unpickled bag's instances are no longer a view of the
        # array it was loaded from
        return {**self.__dict__, "loaded_rows": None}


@dataclass
class SyntheticSpec:
    n_bags: int
    threshold_qstar: float
    bag_size_mean: float = 30.0
    bag_size_std: float = 5.0
    feature_dim: int = 2
    class_separation: float = 6.0
    noise_std: float = 1.0
    label_rule: str = "percentage"
    rebalance: bool = False

    def __post_init__(self):
        for name in ("n_bags", "feature_dim"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("threshold_qstar", "bag_size_mean", "bag_size_std", "class_separation",
                     "noise_std"):
            value = getattr(self, name)
            if not (is_number(value) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.n_bags < 2:
            raise ValueError(f"n_bags must be at least 2, got {self.n_bags}")
        if not 0.0 < self.threshold_qstar < 1.0:
            raise ValueError(f"threshold_qstar must be in (0, 1), got {self.threshold_qstar}")
        if self.bag_size_mean < 2:
            raise ValueError(f"bag_size_mean must be >= 2, got {self.bag_size_mean}")
        if self.bag_size_std < 0:
            raise ValueError(f"bag_size_std must be nonnegative, got {self.bag_size_std}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be positive, got {self.feature_dim}")
        if self.class_separation < 0:
            raise ValueError(f"class_separation must be nonnegative, got {self.class_separation}")
        if self.noise_std <= 0:
            raise ValueError(f"noise_std must be positive, got {self.noise_std}")
        if self.label_rule not in LABEL_RULES:
            raise ValueError(f"label_rule must be one of {LABEL_RULES}, got {self.label_rule!r}")
        if not isinstance(self.rebalance, (bool, np.bool_)):
            raise ValueError(f"rebalance must be true or false, got {self.rebalance!r}")


@dataclass
class DatasetSplit:
    train: list = field(default_factory=list)
    validation: list = field(default_factory=list)
    test: list = field(default_factory=list)


def _bag_label(n_pos, size, spec):
    if spec.label_rule == "percentage":
        return int(n_pos / size >= spec.threshold_qstar)
    return int(n_pos > 0)


def _draw_bag(rng, spec, bag_id, draw, split=None):
    """One bag of the protocol both generators follow.  Its size is drawn
    from Normal(bag_size_mean, bag_size_std), at least 2, and its target
    fraction pi from Uniform(0, 1); it holds n_pos = floor(pi * size)
    positives.  ``draw(rng, n_pos, n_neg)`` gives its rows, positives
    first, and one permutation of ``rng`` shuffles them."""
    size = max(2, int(round(rng.normal(spec.bag_size_mean, spec.bag_size_std))))
    pi = rng.uniform(0.0, 1.0)
    n_pos = int(np.floor(pi * size))
    instances = draw(rng, n_pos, size - n_pos)
    hidden = np.concatenate([np.ones(n_pos, dtype=np.int64),
                             np.zeros(size - n_pos, dtype=np.int64)])
    order = rng.permutation(size)
    return Bag(
        id=bag_id,
        instances=instances[order],
        label=_bag_label(n_pos, size, spec),
        hidden_instance_labels=hidden[order],
        positive_fraction=n_pos / size,
        split=split,
    )


def generate_synthetic(spec, seed):
    """Generate spec.n_bags bags; each bag uses its own derived seed.

    With ``spec.rebalance`` the generator keeps drawing extra bags (same
    derived-seed stream) until both classes reach n_bags/2, then truncates.
    """
    mu = np.zeros(spec.feature_dim)
    mu[0] = spec.class_separation / 2.0

    def draw(rng, n_pos, n_neg):
        x_pos = rng.normal(size=(n_pos, spec.feature_dim)) * spec.noise_std + mu
        x_neg = rng.normal(size=(n_neg, spec.feature_dim)) * spec.noise_std - mu
        return np.vstack([x_pos, x_neg])

    root = np.random.SeedSequence([int(seed), 0xBA9])
    if not spec.rebalance:
        children = root.spawn(spec.n_bags)
        return [_draw_bag(np.random.default_rng(children[i]), spec, f"bag-{i:06d}", draw)
                for i in range(spec.n_bags)]
    per_class = spec.n_bags // 2
    want = {0: per_class, 1: spec.n_bags - per_class}
    have = {0: 0, 1: 0}
    bags = []
    i = 0
    while have[0] < want[0] or have[1] < want[1]:
        child = root.spawn(1)[0]
        bag = _draw_bag(np.random.default_rng(child), spec, f"bag-{i:06d}", draw)
        i += 1
        if have[bag.label] < want[bag.label]:
            have[bag.label] += 1
            bags.append(bag)
        if i > 1000 * spec.n_bags:
            raise ValueError("rebalancing failed: one class essentially never occurs")
    return bags


def _read_be32(data, offset, path):
    if offset + 4 > len(data):
        raise IdxParseError(f"{path}: truncated at byte offset {offset} (expected 4-byte field)")
    return struct.unpack_from(">I", data, offset)[0]


def load_idx(images_path, labels_path):
    """Read an IDX image/label file pair; counts must agree.

    Returns (images, labels) with images shaped (count, rows, cols) uint8
    and labels shaped (count,) uint8.
    """
    # The pixels are read straight into the returned array: checking the
    # header's count against the file size first keeps a corrupt count from
    # allocating, and no second copy of the pixel bytes is ever held.
    with open(images_path, "rb") as f:
        header = f.read(16)
        magic = _read_be32(header, 0, images_path)
        if magic != IDX_IMAGES_MAGIC:
            raise IdxParseError(
                f"{images_path}: bad magic 0x{magic:08x} at byte offset 0 "
                f"(expected 0x{IDX_IMAGES_MAGIC:08x})"
            )
        count = _read_be32(header, 4, images_path)
        rows = _read_be32(header, 8, images_path)
        cols = _read_be32(header, 12, images_path)
        need = 16 + count * rows * cols
        size = os.fstat(f.fileno()).st_size
        if size >= need:
            images = np.empty((count, rows, cols), dtype=np.uint8)
            size = 16 + f.readinto(images)
        if size < need:
            raise IdxParseError(
                f"{images_path}: truncated pixel data at byte offset {size} "
                f"(expected {need} bytes)"
            )
    with open(labels_path, "rb") as f:
        lab_data = f.read()

    magic = _read_be32(lab_data, 0, labels_path)
    if magic != IDX_LABELS_MAGIC:
        raise IdxParseError(
            f"{labels_path}: bad magic 0x{magic:08x} at byte offset 0 "
            f"(expected 0x{IDX_LABELS_MAGIC:08x})"
        )
    lab_count = _read_be32(lab_data, 4, labels_path)
    if lab_count != count:
        raise IdxParseError(
            f"{labels_path}: label count {lab_count} at byte offset 4 does not "
            f"match image count {count}"
        )
    if len(lab_data) < 8 + count:
        raise IdxParseError(
            f"{labels_path}: truncated label data at byte offset {len(lab_data)} "
            f"(expected {8 + count} bytes)"
        )
    labels = np.frombuffer(lab_data, dtype=np.uint8, count=count, offset=8).copy()
    return images, labels


def write_idx_images(path, images):
    """Write images (count, rows, cols) uint8 in IDX format."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    count, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, count, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path, labels):
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        f.write(labels.tobytes())


def make_mnist_bags(images, labels, spec, seed, positive_digit=9, split=None):
    """Assemble bags of flattened digit images, positives being one digit.

    Pixel bytes are scaled to [0, 1], converting only the rows a bag takes.
    Each bag is drawn by the protocol of generate_synthetic, with images
    of ``positive_digit`` as its positives and any other digit as its
    negatives, both drawn with replacement.  ``split`` tags the produced
    bags so the source train/test division is preserved.
    """
    labels = np.asarray(labels)
    pos_idx = np.flatnonzero(labels == positive_digit)
    neg_idx = np.flatnonzero(labels != positive_digit)
    if pos_idx.size == 0:
        raise ValueError(f"no images of digit {positive_digit} available")
    if neg_idx.size == 0:
        raise ValueError("no negative-class images available")
    flat = np.asarray(images).reshape(len(labels), -1)

    def draw(rng, n_pos, n_neg):
        idx = np.concatenate([rng.choice(pos_idx, size=n_pos, replace=True),
                              rng.choice(neg_idx, size=n_neg, replace=True)])
        return flat[idx] / 255.0

    children = np.random.SeedSequence([int(seed), 0x31D]).spawn(spec.n_bags)
    prefix = split or "bag"
    return [_draw_bag(np.random.default_rng(children[i]), spec, f"{prefix}-{i:06d}", draw, split)
            for i in range(spec.n_bags)]


def check_fractions(fractions, name="fractions"):
    """``fractions`` as a tuple of three floats; ValueError naming ``name``
    unless they are three nonnegative reals that sum to 1."""
    try:
        checked = tuple(fractions)
    except TypeError:
        checked = ()
    if len(checked) != 3 or not all(is_number(f) and f >= 0 for f in checked):
        raise ValueError(f"{name} must be three nonnegative reals, got {fractions!r}")
    checked = tuple(map(float, checked))
    if abs(sum(checked) - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1, got {sum(checked)}")
    return checked


def split_dataset(bags, fractions, seed):
    """Seeded stratified split into (train, validation, test).

    Fractions must be nonnegative and sum to 1.  Every nonempty split must
    receive both classes.
    """
    fractions = check_fractions(fractions)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x59711]))
    split = DatasetSplit()
    buckets = (split.train, split.validation, split.test)
    for cls in (0, 1):
        members = [b for b in bags if b.label == cls]
        order = rng.permutation(len(members))
        n = len(members)
        n_train = int(round(fractions[0] * n))
        n_val = int(round(fractions[1] * n))
        if fractions[2] == 0.0:
            n_val = n - n_train
        n_train = min(n_train, n)
        n_val = min(n_val, n - n_train)
        counts = (n_train, n_val, n - n_train - n_val)
        at = 0
        for bucket, cnt in zip(buckets, counts):
            for i in range(at, at + cnt):
                bucket.append(members[int(order[i])])
            at += cnt
    for name, bucket, frac in zip(("train", "validation", "test"), buckets, fractions):
        if frac > 0 and bucket:
            present = {b.label for b in bucket}
            if present != {0, 1}:
                raise ValueError(f"{name} split is missing one class; need more bags")
    return split


def stack_instances(bags, width):
    """A split's instances as one (N, width) float64 array, and each bag's
    instance count as an int64 array.

    The array is a view when the bags are consecutive row ranges of the
    instance array ``load_dataset`` read them from, as the bags of every
    split it returns are, and a copy otherwise.  A copy's bags are first
    checked by ``check_bags``.
    """
    if not bags:
        return np.empty((0, width)), np.empty(0, dtype=np.int64)
    run = _loaded_run(bags)
    if run is not None and run[0].shape[1] == width:
        return run
    check_bags(bags, width)
    arrays = [b.instances for b in bags]
    lengths = np.array([x.shape[0] for x in arrays], dtype=np.int64)
    return np.concatenate(arrays), lengths


def check_bags(bags, width, where=""):
    """Raise ValueError, naming the bag after ``where``, unless every bag
    holds a nonempty (bag_size, width) float64 array and a label of 0 or 1."""
    for bag in bags:
        x = bag.instances
        dtype = getattr(x, "dtype", None)
        if dtype != np.float64:
            raise ValueError(f"{where}bag {bag.id}: instances of dtype {dtype}, "
                             f"expected float64")
        if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] != width:
            raise ValueError(f"{where}bag {bag.id}: instances of shape {x.shape}, "
                             f"expected a nonempty (bag_size, {width}) array")
        if bag.label not in (0, 1):
            raise ValueError(f"{where}bag {bag.id}: label must be 0 or 1, got {bag.label!r}")


def _loaded_run(bags):
    """``(view, lengths)`` when ``bags`` are, in order, consecutive bags of
    one dataset that ``load_dataset`` read; else None."""
    if bags[0].loaded_rows is None:
        return None
    _, source, first = bags[0].loaded_rows
    for i, bag in enumerate(bags, first):
        rows = bag.loaded_rows
        if rows is None or rows[0] is not bag.instances or rows[1] is not source or rows[2] != i:
            return None
    whole, offsets = source
    bounds = offsets[first:first + len(bags) + 1]
    return whole[bounds[0]:bounds[-1]], np.diff(bounds)


def _bag_from_json(obj):
    return Bag(
        id=obj["id"],
        instances=np.asarray(obj["instances"], dtype=np.float64),
        label=obj["label"],
        hidden_instance_labels=obj.get("hidden_instance_labels"),
        positive_fraction=obj.get("positive_fraction"),
        split=obj.get("split"),
    )


def _check_storable(bags):
    """The bags' one width; raise ValueError, naming the bag, unless they
    share it, their instances are finite and each split is one of
    SPLIT_NAMES: the rules every dataset container holds to."""
    width = bags[0].instances.shape[1] if bags else 0
    for b in bags:
        if b.instances.shape[1] != width:
            raise ValueError(f"bag {b.id}: {b.instances.shape[1]} features per instance, "
                             f"but bag {bags[0].id} has {width}")
        if not np.isfinite(b.instances).all():
            raise ValueError(f"bag {b.id}: instances contain NaN or infinity")
        if b.split not in SPLIT_NAMES:
            raise ValueError(f"bag {b.id}: split must be one of {SPLIT_NAMES}, got {b.split!r}")
    return width


def save_dataset(path, bags, spec=None, seed=None):
    """Write the dataset container (schema bagdata/3) to exactly ``path``.

    The file is a deflated .npz whatever its extension.  Its instances, all
    bags' rows stacked into one N_total x d float64 matrix cut by
    ``offsets``, are kept as ``instance_mask``, the packed bits of the
    cells whose bit pattern is nonzero (so -0.0 is kept), and
    ``instance_values``, those cells in row-major order; the two are
    deflated at level 1.  Per bag it holds the id, label, split code,
    positive fraction and which optional fields the bag has; per instance
    the hidden label; and a JSON header with the schema, spec, seed and
    width d.  Members carry a fixed timestamp, so equal bags give equal
    bytes.
    """
    width = _check_storable(bags)
    cells = np.concatenate([b.instances.reshape(-1) for b in bags] or [np.empty(0)])
    nonzero = cells.view(np.uint64) != 0   # bit patterns: -0.0 is kept
    header = {"schema": DATASET_SCHEMA, "seed": seed, "width": width,
              "spec": asdict(spec) if spec is not None else None}
    members = {
        "header": np.array(json.dumps(header, sort_keys=True)),
        "ids": np.array([b.id for b in bags], dtype=str),
        "offsets": np.cumsum([0] + [len(b) for b in bags], dtype=np.int64),
        "instance_mask": np.packbits(nonzero),
        # a flat index takes the values faster than the boolean mask does
        "instance_values": cells[np.flatnonzero(nonzero)],
        "labels": np.array([b.label for b in bags], dtype=np.int64),
        "splits": np.array([SPLIT_NAMES.index(b.split) for b in bags], dtype=np.int8),
        "hidden": np.concatenate([np.zeros(len(b), dtype=np.int64)
                                  if b.hidden_instance_labels is None
                                  else b.hidden_instance_labels for b in bags]
                                 or [np.empty(0, dtype=np.int64)]),
        "has_hidden": np.array([b.hidden_instance_labels is not None for b in bags], dtype=bool),
        "fractions": np.array([b.positive_fraction or 0.0 for b in bags], dtype=np.float64),
        "has_fraction": np.array([b.positive_fraction is not None for b in bags], dtype=bool),
    }
    del cells, nonzero   # the stacked matrix is not held while the members deflate
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in members.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, arr, allow_pickle=False)
            zf.writestr(zipfile.ZipInfo(name + ".npy", date_time=_ZIP_EPOCH), buf.getbuffer(),
                        compress_type=zipfile.ZIP_DEFLATED,
                        compresslevel=_INSTANCE_LEVEL if name.startswith("instance_") else None)


def load_dataset(path):
    """Read a dataset container; returns (bags, spec_dict, seed).

    Reads bagdata/3, the dense bagdata/2 and the JSON bagdata/1, told
    apart by their first bytes and the header's schema.  The bags of a
    bagdata/3 or bagdata/2 file are views of one N_total x d float64
    instance array.  A file that is unreadable or inconsistent raises
    DatasetError naming the path and the field.
    """
    with open(path, "rb") as f:
        head = f.read(len(_ZIP_MAGIC))
    if head == _ZIP_MAGIC:
        return _load_npz(path)
    if head[:1] == b"{":
        return _load_json(path)
    raise DatasetError(f"{path}: not a dataset container ({DATASET_SCHEMA}, {DENSE_SCHEMA} "
                       f"or {LEGACY_SCHEMA}); it starts with {head!r}")


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatasetError(f"{path}: not valid JSON: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != LEGACY_SCHEMA:
        raise DatasetError(
            f"{path}: unsupported dataset schema {schema!r} "
            f"(expected {LEGACY_SCHEMA!r}; {DATASET_SCHEMA!r} and {DENSE_SCHEMA!r} are .npz)"
        )
    try:
        bags = [_bag_from_json(obj) for obj in doc["bags"]]
        _check_storable(bags)
    except KeyError as exc:
        raise DatasetError(f"{path}: field {exc} is missing") from None
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"{path}: {exc}") from None
    return bags, doc.get("spec"), doc.get("seed")


def _load_npz(path):
    names = set(_MEMBER_KINDS).union(*_INSTANCE_KINDS.values())
    try:
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as npz:
            a = {name: npz[name] for name in npz.files if name in names}
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        raise DatasetError(f"{path}: unreadable .npz dataset container: {exc}") from exc

    def bad(name, why):
        return DatasetError(f"{path}: field {name!r} {why}")

    def check_kinds(kinds):
        for name, allowed in kinds.items():
            if name not in a:
                raise bad(name, "is missing")
            if a[name].dtype.kind not in allowed:
                raise bad(name, f"has dtype {a[name].dtype}")

    check_kinds({"header": _MEMBER_KINDS["header"]})
    try:
        header = json.loads(a["header"].item())
    except (TypeError, ValueError) as exc:
        raise bad("header", f"is not one JSON text: {exc}") from exc
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema not in _INSTANCE_KINDS:
        raise bad("header", f"does not name schema {DATASET_SCHEMA!r} or {DENSE_SCHEMA!r}")
    check_kinds({**_MEMBER_KINDS, **_INSTANCE_KINDS[schema]})
    offsets, codes = a["offsets"], a["splits"]
    if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0:
        raise bad("offsets", "must be a 1-D array starting at 0")
    if (np.diff(offsets) <= 0).any():
        raise bad("offsets", "must increase strictly (every bag nonempty)")
    n_rows = int(offsets[-1])
    if schema == DENSE_SCHEMA:
        instances = a["instances"]
        if instances.ndim != 2:
            raise bad("instances", f"has shape {instances.shape}, expected N_total x d")
        if n_rows != len(instances):
            raise bad("offsets", f"end at {n_rows}, but 'instances' has {len(instances)} rows")
    n_bags = offsets.size - 1
    for name in ("ids", "labels", "splits", "has_hidden", "fractions", "has_fraction"):
        if a[name].shape != (n_bags,):
            raise bad(name, f"has shape {a[name].shape}, expected ({n_bags},) from 'offsets'")
    if a["hidden"].shape != (n_rows,):
        raise bad("hidden", f"has shape {a['hidden'].shape}, expected ({n_rows},)")
    if not np.isin(a["labels"], (0, 1)).all():
        raise bad("labels", "holds a label other than 0 or 1")
    if ((codes < 0) | (codes >= len(SPLIT_NAMES))).any():
        raise bad("splits", f"holds a split code outside 0..{len(SPLIT_NAMES) - 1}")
    if schema == DENSE_SCHEMA:
        if not np.isfinite(instances).all():
            raise bad("instances", "contain NaN or infinity")
        instances = instances.astype(np.float64, copy=False)
    else:
        instances = _decode_instances(a["instance_mask"], a["instance_values"], n_rows,
                                      header.get("width"), bad)

    ids, labels, fractions = a["ids"].tolist(), a["labels"].tolist(), a["fractions"].tolist()
    codes, has_hidden, has_fraction = codes.tolist(), a["has_hidden"], a["has_fraction"]
    bounds, hidden = offsets.tolist(), a["hidden"]
    try:   # each bag a view of the one instance array
        bags = [Bag(id=ids[i], instances=instances[lo:hi], label=labels[i],
                    hidden_instance_labels=hidden[lo:hi] if has_hidden[i] else None,
                    positive_fraction=fractions[i] if has_fraction[i] else None,
                    split=SPLIT_NAMES[codes[i]])
                for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    except ValueError as exc:
        raise DatasetError(f"{path}: {exc}") from exc
    source = (instances, offsets.astype(np.int64, copy=False))
    for i, bag in enumerate(bags):
        bag.loaded_rows = (bag.instances, source, i)
    return bags, header.get("spec"), header.get("seed")


def _decode_instances(mask, values, n_rows, width, bad):
    """The (n_rows, width) float64 instances of a bagdata/3 file: zero but
    for the cells ``mask`` marks, which hold ``values`` in row-major order.
    ``bad(field, why)`` makes the error for a member that does not fit."""
    if not (is_integer(width) and width >= 0):
        raise bad("header", f"width must be an integer >= 0, got {width!r}")
    cells = n_rows * width
    if mask.dtype != np.uint8 or mask.shape != (-(-cells // 8),):
        raise bad("instance_mask", f"has dtype {mask.dtype} and shape {mask.shape}, but "
                                   f"{n_rows} rows ('offsets') of the header's width "
                                   f"{width} take uint8 of shape ({-(-cells // 8)},)")
    if cells % 8 and mask[-1] & (0xFF >> cells % 8):
        raise bad("instance_mask", f"has a nonzero pad bit after its {cells} cells")
    if values.ndim != 1:
        raise bad("instance_values", f"has shape {values.shape}, expected a 1-D array")
    # a flat index puts the values in place faster than the boolean mask
    # does, and numpy finds the set cells of a bool array 3x faster than of
    # its uint8 bytes
    marked = np.flatnonzero(np.unpackbits(mask, count=cells).view(bool))
    if marked.size != values.size:
        raise bad("instance_values", f"holds {values.size} values, but 'instance_mask' "
                                     f"marks {marked.size} cells")
    if not np.isfinite(values).all():
        raise bad("instance_values", "contain NaN or infinity")
    instances = np.zeros(cells)
    instances[marked] = values
    return instances.reshape(n_rows, width)
