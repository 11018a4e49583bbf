"""Percentage-based bag datasets.

Synthetic bags draw instances from two isotropic Gaussian clusters; each
bag's target positive fraction comes from Uniform(0, 1) and the bag label
compares the realized fraction against a threshold (percentage rule) or
checks for any positive instance (standard rule).  The MNIST-bag path
draws its bags by the same protocol (``_draw_bag``) from user-supplied
IDX files, with the digit 9 as the positive class.

Hidden per-instance labels ride along for diagnostics only; training never
sees them.  A bag's positive fraction is derived from them, not stored.  A
dataset file is one bagdata/4 .npz container; a file of a schema that
earlier versions wrote (RETIRED_SCHEMAS) is refused by name.
``check_number`` and ``check_choice`` are the package's one test of a
number field and of a choice field; a failure reads "<field> must be
<rule>, got <value>".
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

DATASET_SCHEMA = "bagdata/4"
# written by earlier versions, no longer read: the JSON bagdata/1, the
# dense .npz bagdata/2 and bagdata/3, which also stored each bag's
# positive fraction
RETIRED_SCHEMAS = ("bagdata/1", "bagdata/2", "bagdata/3")
SPLIT_NAMES = (None, "train", "validation", "test")   # indexed by split code
# the members of a dataset file, and the numpy dtype kinds each may have;
# the instances are a bit per cell (set where the cell is not +0.0) and
# the cells so marked, in row-major order
_MEMBER_KINDS = {
    "header": "U", "ids": "U", "offsets": "i", "labels": "iu", "splits": "iu", "hidden": "iu",
    "has_hidden": "b", "instance_mask": "u", "instance_values": "f",
}
# zlib level of every deflated member: level 1 deflates MNIST-like instances
# 5x faster than the default level, for 7% more bytes, and the README data's
# hidden labels 10x faster, for 1.5 KB more over all the small members
_DEFLATE_LEVEL = 1
# a member is stored, not deflated, when level 1 shrinks its first
# _SAMPLE_BYTES to more than _STORED_RATIO of their size.  Gaussian values
# (every synthetic dataset's) shrink by 3%, and deflating the README data's
# 0.3 MB of them took 9 ms, half a save; MNIST-like values shrink 5x and
# stay deflated
_SAMPLE_BYTES = 16384
_STORED_RATIO = 0.9
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


def check_number(name, value, *, integer=False, above=None, at_least=None, below=None,
                 at_most=None):
    """``value`` when it is a finite number (an integer, with ``integer``)
    that is > above, >= at_least, < below and <= at_most, for each bound
    given; else ValueError naming ``name`` and the value.  An integer of
    any size is finite; where a float is asked for, one beyond the float
    range is not."""
    ok = is_integer(value) if integer else is_number(value) and _in_float_range(value)
    if ok and ((above is None or value > above) and (at_least is None or value >= at_least)
               and (below is None or value < below) and (at_most is None or value <= at_most)):
        return value
    where = " and".join(f" {op} {bound}" for op, bound in (
        (">", above), (">=", at_least), ("<", below), ("<=", at_most)) if bound is not None)
    raise ValueError(f"{name} must be {'an integer' if integer else 'a finite number'}{where}, "
                     f"got {value if is_number(value) else repr(value)}")


def _in_float_range(value):
    """True when the number ``value`` is finite as a float64.  Comparing a
    numpy float32 or float16 with the largest float instead would cast that
    bound to the value's type, where it overflows to inf."""
    try:
        return math.isfinite(value)
    except OverflowError:   # an integer or a fraction beyond the float range
        return False


def check_choice(name, value, choices):
    """``value`` if it is one of the tuple ``choices`` and of that choice's
    type (1 is not True); else ValueError naming ``name`` and the value."""
    if value in choices and isinstance(value, type(choices[choices.index(value)])):
        return value
    raise ValueError(f"{name} must be one of {choices}, got {value!r}")


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
        _check_label(self)
        if self.hidden_instance_labels is not None:
            hidden = np.asarray(self.hidden_instance_labels)
            if hidden.dtype.kind not in "iu":   # not cast: int64 would truncate 0.7 to 0
                raise ValueError(f"bag {self.id}: hidden labels are {hidden.dtype}, not integers")
            self.hidden_instance_labels = hidden.astype(np.int64, copy=False)
            if len(self.hidden_instance_labels) != len(self.instances):
                raise ValueError(f"bag {self.id}: hidden label count mismatch")

    def __len__(self):
        return self.instances.shape[0]

    @property
    def positive_fraction(self):
        """The share of positive instances, from the hidden labels; None
        without them."""
        hidden = self.hidden_instance_labels
        return None if hidden is None else int(hidden.sum()) / len(hidden)

    def __getstate__(self):
        # a copied or unpickled bag's instances are no longer a view of the
        # array it was loaded from
        return {**self.__dict__, "loaded_rows": None}

    @classmethod
    def _unchecked(cls, **fields):
        """A bag of ``fields``, every one of them, which the caller has
        found to pass ``__post_init__``'s checks and casts."""
        bag = cls.__new__(cls)
        bag.__dict__.update(fields)
        return bag


def _check_label(bag, where=""):
    """Raise ValueError, naming ``bag`` after ``where``, unless its label
    is the integer 0 or 1."""
    if not (is_integer(bag.label) and bag.label in (0, 1)):
        raise ValueError(f"{where}bag {bag.id}: label must be 0 or 1, got {bag.label!r}")


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
        check_number("n_bags", self.n_bags, integer=True, at_least=2)
        check_number("threshold_qstar", self.threshold_qstar, above=0, below=1)
        check_number("bag_size_mean", self.bag_size_mean, at_least=2)
        check_number("bag_size_std", self.bag_size_std, at_least=0)
        check_number("feature_dim", self.feature_dim, integer=True, at_least=1)
        check_number("class_separation", self.class_separation, at_least=0)
        check_number("noise_std", self.noise_std, above=0)
        check_choice("label_rule", self.label_rule, LABEL_RULES)
        check_choice("rebalance", self.rebalance, (False, True))


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
        split=split,
    )


def _draw_bags(root, spec, draw, prefix="bag", split=None):
    """spec.n_bags bags by ``_draw_bag``, draw i from child i of the
    SeedSequence ``root`` and named ``prefix-i``.  With ``spec.rebalance``
    a bag of a class that has its n_bags/2 is dropped and the draws go on."""
    n = spec.n_bags
    want = [n // 2, n - n // 2] if spec.rebalance else [n, n]   # bags still wanted per class
    bags = []
    i = 0
    while len(bags) < n:
        # spawn(1) at a time gives the children spawn(n_bags) would
        rng = np.random.default_rng(root.spawn(1)[0])
        bag = _draw_bag(rng, spec, f"{prefix}-{i:06d}", draw, split)
        i += 1
        if want[bag.label] > 0:
            want[bag.label] -= 1
            bags.append(bag)
        if i > 1000 * n:
            raise ValueError("rebalancing failed: one class essentially never occurs")
    return bags


def generate_synthetic(spec, seed):
    """Generate spec.n_bags bags of the two Gaussian clusters; each bag
    uses its own derived seed (see ``_draw_bags``)."""
    mu = np.zeros(spec.feature_dim)
    mu[0] = spec.class_separation / 2.0

    def draw(rng, n_pos, n_neg):
        x_pos = rng.normal(size=(n_pos, spec.feature_dim)) * spec.noise_std + mu
        x_neg = rng.normal(size=(n_neg, spec.feature_dim)) * spec.noise_std - mu
        return np.vstack([x_pos, x_neg])

    return _draw_bags(np.random.SeedSequence([int(seed), 0xBA9]), spec, draw)


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
    negatives, both drawn with replacement, and ``spec.rebalance`` works
    as there.  ``split`` tags the produced bags so the source train/test
    division is preserved.
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

    return _draw_bags(np.random.SeedSequence([int(seed), 0x31D]), spec, draw, split or "bag",
                      split)


def check_fractions(fractions, name="fractions"):
    """``fractions`` as a tuple of three floats; ValueError naming ``name``
    unless they are three finite numbers >= 0 that sum to 1."""
    try:
        checked = tuple(fractions)
    except TypeError:
        checked = ()
    if len(checked) != 3:
        raise ValueError(f"{name} must be three numbers, got {fractions!r}")
    checked = tuple(float(check_number(f"{name}[{i}]", f, at_least=0))
                    for i, f in enumerate(checked))
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
        _check_label(bag, where)


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


def _check_storable(bags, finite):
    """The bags' one width; raise ValueError, naming the bag, unless each
    id is a string, they share the width, their instances are finite and
    each split is one of SPLIT_NAMES.  ``finite`` says the caller has found
    every instance finite."""
    width = bags[0].instances.shape[1] if bags else 0
    for b in bags:
        if not isinstance(b.id, str):
            raise ValueError(f"bag {b.id!r}: id must be a string")
        if b.instances.shape[1] != width:
            raise ValueError(f"bag {b.id}: {b.instances.shape[1]} features per instance, "
                             f"but bag {bags[0].id} has {width}")
        if not (finite or np.isfinite(b.instances).all()):
            raise ValueError(f"bag {b.id}: instances contain NaN or infinity")
        if b.split not in SPLIT_NAMES:
            raise ValueError(f"bag {b.id}: split must be one of {SPLIT_NAMES}, got {b.split!r}")
    return width


def _labels_member(bags):
    """The bags' labels as an int64 array; ValueError naming the first bag
    whose label, set after the bag was built, is not the integer 0 or 1."""
    labels = [b.label for b in bags]
    # an int64 array would read 0.7 as 0 and True as 1: types are checked first
    if {type(x) for x in labels} <= {int} and set(labels) <= {0, 1}:
        return np.array(labels, dtype=np.int64)
    for b in bags:   # the first bag that breaks the rule raises, naming itself
        _check_label(b)
    return np.array(labels, dtype=np.int64)


def _hidden_member(bags, sizes):
    """The bags' hidden labels as one int8 array, 0 where a bag has none;
    ValueError naming the first bag whose hidden labels, set after the bag
    was built, are not one 0 or 1 per instance."""
    hidden = [np.zeros(n, dtype=np.int64) if b.hidden_instance_labels is None
              else b.hidden_instance_labels for b, n in zip(bags, sizes)]
    if [len(h) for h in hidden] != sizes:
        for b, h, n in zip(bags, hidden, sizes):   # the first bag that breaks the rule raises
            if len(h) != n:
                raise ValueError(f"bag {b.id}: hidden label count mismatch")
    member = np.concatenate(hidden or [np.empty(0, dtype=np.int64)])
    if not np.isin(member, (0, 1)).all():
        for b, h in zip(bags, hidden):
            if not np.isin(h, (0, 1)).all():
                raise ValueError(f"bag {b.id}: hidden labels must be 0 or 1")
    # checked as they are, so no label wraps into 0 or 1; int8 deflates in
    # two thirds of the time, to 60% of the bytes
    return member.astype(np.int8)


def _compress_type(data):
    """ZIP_STORED for a member whose first _SAMPLE_BYTES deflate to more
    than _STORED_RATIO of their size at level 1, else ZIP_DEFLATED."""
    sample = data[:_SAMPLE_BYTES]
    if len(zlib.compress(sample, _DEFLATE_LEVEL)) > _STORED_RATIO * len(sample):
        return zipfile.ZIP_STORED
    return zipfile.ZIP_DEFLATED


def save_dataset(path, bags, spec=None, seed=None):
    """Write the dataset container (schema bagdata/4) to exactly ``path``.

    The file is an .npz whatever its extension.  Its instances, all bags'
    rows stacked into one N_total x d float64 matrix cut by ``offsets``,
    are kept as ``instance_mask``, the packed bits of the cells whose bit
    pattern is nonzero (so -0.0 is kept), and ``instance_values``, those
    cells in row-major order.  Per bag it holds the id, label, split code
    and whether the bag has hidden labels; per instance the hidden label,
    as int8; and a JSON header with the schema, spec, seed and width d.
    Every member is deflated at level 1, but one whose leading bytes
    deflate by less than a tenth, as Gaussian values do, is stored as it
    is (``_compress_type``).  The decision reads only the member's bytes,
    and members carry a fixed timestamp, so equal bags give equal bytes.

    The rules are checked once for all bags: the instances' finiteness on
    the stacked cells, the labels' types and the hidden label counts on one
    list each, the hidden labels' values on one array.  Only a failure
    walks the bags, to name the first that breaks a rule.
    """
    cells = np.concatenate([b.instances.reshape(-1) for b in bags] or [np.empty(0)])
    width = _check_storable(bags, finite=np.isfinite(cells).all())
    labels = _labels_member(bags)
    sizes = [len(b) for b in bags]
    hidden = _hidden_member(bags, sizes)
    nonzero = cells.view(np.uint64) != 0   # bit patterns: -0.0 is kept
    header = {"schema": DATASET_SCHEMA, "seed": seed, "width": width,
              "spec": asdict(spec) if spec is not None else None}
    members = {
        "header": np.array(json.dumps(header, sort_keys=True)),
        "ids": np.array([b.id for b in bags], dtype=str),
        "offsets": np.cumsum([0] + sizes, dtype=np.int64),
        "instance_mask": np.packbits(nonzero),
        # a flat index takes the values faster than the boolean mask does
        "instance_values": cells[np.flatnonzero(nonzero)],
        "labels": labels,
        "splits": np.array([SPLIT_NAMES.index(b.split) for b in bags], dtype=np.int8),
        "hidden": hidden,
        "has_hidden": np.array([b.hidden_instance_labels is not None for b in bags], dtype=bool),
    }
    del cells, nonzero   # the stacked matrix is not held while the members are written
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in members.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, arr, allow_pickle=False)
            data = buf.getbuffer()
            zf.writestr(zipfile.ZipInfo(name + ".npy", date_time=_ZIP_EPOCH), data,
                        compress_type=_compress_type(data), compresslevel=_DEFLATE_LEVEL)


def load_dataset(path):
    """Read a bagdata/4 container; returns (bags, spec_dict, seed).

    The bags are views of one N_total x d float64 instance array.  A file
    that is unreadable or inconsistent raises DatasetError naming the path
    and the field; so does a file of a schema in RETIRED_SCHEMAS, saying
    that it is no longer read.
    """
    with open(path, "rb") as f:
        head = f.read(len(_ZIP_MAGIC))
    if head == _ZIP_MAGIC:
        return _load_npz(path)
    if head[:1] == b"{":   # every JSON dataset is bagdata/1
        raise DatasetError(f"{path}: a JSON dataset, schema {RETIRED_SCHEMAS[0]!r}, which is no "
                           f"longer read (expected a {DATASET_SCHEMA!r} .npz container)")
    raise DatasetError(f"{path}: not a {DATASET_SCHEMA!r} dataset container; it starts with "
                       f"{head!r}")


def _load_npz(path):
    try:
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as npz:
            a = {name: npz[name] for name in npz.files if name in _MEMBER_KINDS}
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
    if schema in RETIRED_SCHEMAS:
        raise bad("header", f"names the schema {schema!r}, which is no longer read "
                            f"(expected {DATASET_SCHEMA!r})")
    if schema != DATASET_SCHEMA:
        raise bad("header", f"does not name schema {DATASET_SCHEMA!r}")
    check_kinds(_MEMBER_KINDS)
    offsets, codes = a["offsets"], a["splits"]
    if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0:
        raise bad("offsets", "must be a 1-D array starting at 0")
    if (np.diff(offsets) <= 0).any():
        raise bad("offsets", "must increase strictly (every bag nonempty)")
    n_rows = int(offsets[-1])
    n_bags = offsets.size - 1
    for name in ("ids", "labels", "splits", "has_hidden"):
        if a[name].shape != (n_bags,):
            raise bad(name, f"has shape {a[name].shape}, expected ({n_bags},) from 'offsets'")
    if a["hidden"].shape != (n_rows,):
        raise bad("hidden", f"has shape {a['hidden'].shape}, expected ({n_rows},)")
    if not np.isin(a["labels"], (0, 1)).all():
        raise bad("labels", "holds a label other than 0 or 1")
    if ((codes < 0) | (codes >= len(SPLIT_NAMES))).any():
        raise bad("splits", f"holds a split code outside 0..{len(SPLIT_NAMES) - 1}")
    instances = _decode_instances(a["instance_mask"], a["instance_values"], n_rows,
                                  header.get("width"), bad)

    ids, labels, has_hidden = a["ids"].tolist(), a["labels"].tolist(), a["has_hidden"].tolist()
    hidden = a["hidden"].astype(np.int64, copy=False)   # one cast; each bag's labels a view
    if not np.isin(hidden, (0, 1)).all():
        raise bad("hidden", "holds a hidden label other than 0 or 1")
    source = (instances, offsets.astype(np.int64, copy=False))
    bounds, codes = offsets.tolist(), codes.tolist()
    bags = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):   # each a view of the one array
        rows = instances[lo:hi]
        bags.append(Bag._unchecked(
            id=ids[i], instances=rows, label=labels[i],
            hidden_instance_labels=hidden[lo:hi] if has_hidden[i] else None,
            split=SPLIT_NAMES[codes[i]], loaded_rows=(rows, source, i)))
    return bags, header.get("spec"), header.get("seed")


def _decode_instances(mask, values, n_rows, width, bad):
    """The (n_rows, width) float64 instances of a dataset file: zero but
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
