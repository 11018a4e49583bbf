import dataclasses
import hashlib
import json
import re
import struct
import tracemalloc
import warnings
import zipfile
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from promil.bagdata import (
    Bag,
    IDX_IMAGES_MAGIC,
    DatasetError,
    IdxParseError,
    SyntheticSpec,
    check_bags,
    check_number,
    generate_synthetic,
    load_dataset,
    load_idx,
    make_mnist_bags,
    save_dataset,
    split_dataset,
    stack_instances,
    write_idx_images,
    write_idx_labels,
)
from promil.metrics import auc


def recompute_label(bag, spec):
    frac = bag.hidden_instance_labels.sum() / len(bag)
    if spec.label_rule == "percentage":
        return int(frac >= spec.threshold_qstar)
    return int(bag.hidden_instance_labels.any())


class TestSyntheticGenerator:
    def test_labels_rederivable_from_hidden_labels(self):
        spec = SyntheticSpec(n_bags=1000, threshold_qstar=0.3, bag_size_mean=10,
                             bag_size_std=3)
        for bag in generate_synthetic(spec, seed=0):
            assert bag.label == recompute_label(bag, spec)
            assert bag.positive_fraction == pytest.approx(
                bag.hidden_instance_labels.mean(), abs=1e-12
            )

    def test_standard_rule(self):
        spec = SyntheticSpec(n_bags=300, threshold_qstar=0.3, bag_size_mean=6,
                             bag_size_std=2, label_rule="standard")
        bags = generate_synthetic(spec, seed=1)
        for bag in bags:
            assert bag.label == int(bag.hidden_instance_labels.any())

    def test_label_permutation_invariant(self):
        spec = SyntheticSpec(n_bags=50, threshold_qstar=0.4, bag_size_mean=8)
        rng = np.random.default_rng(0)
        for bag in generate_synthetic(spec, seed=2):
            perm = rng.permutation(len(bag))
            shuffled = Bag(id=bag.id, instances=bag.instances[perm], label=bag.label,
                           hidden_instance_labels=bag.hidden_instance_labels[perm])
            assert recompute_label(shuffled, spec) == bag.label

    def test_bag_sizes(self):
        spec = SyntheticSpec(n_bags=600, threshold_qstar=0.3)
        bags = generate_synthetic(spec, seed=3)
        sizes = np.array([len(b) for b in bags])
        assert sizes.min() >= 2
        assert abs(sizes.mean() - spec.bag_size_mean) / spec.bag_size_mean < 0.1

    def test_positive_rate_matches_uniform_fractions(self):
        # target fraction ~ U(0,1) gives expected positive rate 1 - q* (the
        # floor when placing positives biases realized fractions down by
        # ~1/(2*size), so this holds at the default bag size, not tiny ones)
        for qstar in (0.3, 0.6):
            spec = SyntheticSpec(n_bags=1500, threshold_qstar=qstar)
            bags = generate_synthetic(spec, seed=4)
            rate = np.mean([b.label for b in bags])
            assert abs(rate - (1.0 - qstar)) < 0.05

    def test_rebalance_switch(self):
        spec = SyntheticSpec(n_bags=200, threshold_qstar=0.3, bag_size_mean=8,
                             rebalance=True)
        bags = generate_synthetic(spec, seed=5)
        assert len(bags) == 200
        assert sum(b.label for b in bags) == 100

    def test_no_signal_when_clusters_coincide(self):
        spec = SyntheticSpec(n_bags=400, threshold_qstar=0.3, bag_size_mean=10,
                             class_separation=0.0)
        bags = generate_synthetic(spec, seed=6)
        # score each bag by its mean first feature: should carry no label signal
        scores = [float(b.instances[:, 0].mean()) for b in bags]
        labels = [b.label for b in bags]
        assert abs(auc(scores, labels) - 0.5) < 0.1

    def test_deterministic(self):
        spec = SyntheticSpec(n_bags=30, threshold_qstar=0.3)
        a = generate_synthetic(spec, seed=7)
        b = generate_synthetic(spec, seed=7)
        for ba, bb in zip(a, b):
            np.testing.assert_array_equal(ba.instances, bb.instances)
            assert ba.label == bb.label

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_bags=1, threshold_qstar=0.3)
        with pytest.raises(ValueError):
            SyntheticSpec(n_bags=10, threshold_qstar=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_bags=10, threshold_qstar=0.3, noise_std=0.0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_bags=10, threshold_qstar=0.3, label_rule="count")


def bags_digest(bags):
    """sha256 over each bag's id, label, split, fraction, hidden labels and
    instance bytes, in order."""
    h = hashlib.sha256()
    for b in bags:
        h.update(f"{b.id}|{b.label}|{b.split}|{b.positive_fraction!r}|{b.instances.shape}|"
                 .encode())
        h.update(np.ascontiguousarray(b.hidden_instance_labels, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(b.instances, dtype=np.float64).tobytes())
    return h.hexdigest()


def fake_digits(n=400, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, 8, 8), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    labels[:40] = 9   # guarantee positives exist
    return images, labels


class TestGeneratorOutputPinned:
    """The generators' bags, digested: a change to the bag protocol or to
    its order of random draws changes every dataset made from a config."""

    README = SyntheticSpec(n_bags=625, threshold_qstar=0.3)
    MNIST = SyntheticSpec(n_bags=120, threshold_qstar=0.3, bag_size_mean=8, bag_size_std=2)

    def test_synthetic(self):
        assert bags_digest(generate_synthetic(self.README, seed=5)) == (
            "9c348d92946af9273145c60ba800f0d612ebcf26f72a1c3e2affb4c8163b3404")

    def test_synthetic_rebalanced(self):
        spec = dataclasses.replace(self.README, rebalance=True)
        assert bags_digest(generate_synthetic(spec, seed=5)) == (
            "1ed1854f6db5fb47eb27e1d35b22279b2caeaabf5dd776ec24ab2ba1e33eee4b")

    def test_mnist_pool(self):
        bags = make_mnist_bags(*fake_digits(), self.MNIST, seed=5)
        assert bags_digest(bags) == (
            "0a9152326899d811ff500b1fadf35231ce68edde1cb209056b9c1cd2bc30d0e9")

    def test_mnist_test_split(self):
        bags = make_mnist_bags(*fake_digits(), self.MNIST, seed=6, split="test")
        assert bags_digest(bags) == (
            "ae3e9cf2004f0d7bf4bdd68246ce76012bb3c328a01697ba70916f494d8f44cd")


class TestIdx:
    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(17, 7, 5), dtype=np.uint8)
        labels = rng.integers(0, 10, size=17, dtype=np.uint8)
        ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        got_images, got_labels = load_idx(ip, lp)
        np.testing.assert_array_equal(got_images, images)
        np.testing.assert_array_equal(got_labels, labels)
        # writing what was read reproduces the files byte for byte
        ip2, lp2 = tmp_path / "imgs2.idx", tmp_path / "labs2.idx"
        write_idx_images(ip2, got_images)
        write_idx_labels(lp2, got_labels)
        assert ip.read_bytes() == ip2.read_bytes()
        assert lp.read_bytes() == lp2.read_bytes()

    def test_empty_labels_file(self, tmp_path):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ip, np.zeros((0, 3, 3), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(0, dtype=np.uint8))
        images, labels = load_idx(ip, lp)
        assert images.shape == (0, 3, 3)
        assert labels.shape == (0,)

    def test_bad_magic(self, tmp_path):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        ip.write_bytes(b"\x00\x00\x08\x99" + b"\x00" * 12)
        write_idx_labels(lp, np.zeros(0, dtype=np.uint8))
        with pytest.raises(IdxParseError, match="offset 0"):
            load_idx(ip, lp)

    def test_truncated_pixels(self, tmp_path):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ip, np.zeros((2, 4, 4), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(2, dtype=np.uint8))
        data = ip.read_bytes()
        ip.write_bytes(data[:-5])   # cut mid pixel data
        with pytest.raises(IdxParseError, match="byte offset"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ip, np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(4, dtype=np.uint8))
        with pytest.raises(IdxParseError, match="does not match"):
            load_idx(ip, lp)


class TestIdxSizeCheck:
    def test_huge_count_on_short_file_names_offset(self, tmp_path):
        # 2^31 images of 28 x 28 would take 1.7 TB: the file size is checked
        # before any pixel array is allocated
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        ip.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 2 ** 31, 28, 28)
                       + b"\x00" * 100)
        write_idx_labels(lp, np.zeros(0, dtype=np.uint8))
        with pytest.raises(IdxParseError, match="truncated pixel data at byte offset 116 "):
            load_idx(ip, lp)

    def test_trailing_bytes_are_ignored(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ip, images)
        write_idx_labels(lp, np.arange(3, dtype=np.uint8))
        with open(ip, "ab") as f:
            f.write(b"\xff" * 9)
        got_images, got_labels = load_idx(ip, lp)
        np.testing.assert_array_equal(got_images, images)
        np.testing.assert_array_equal(got_labels, [0, 1, 2])


class TestMnistBags:
    def test_labels_rederivable(self):
        images, labels = fake_digits()
        spec = SyntheticSpec(n_bags=120, threshold_qstar=0.3, bag_size_mean=8,
                             bag_size_std=2)
        bags = make_mnist_bags(images, labels, spec, seed=0)
        assert len(bags) == 120
        for bag in bags:
            assert bag.label == recompute_label(bag, spec)

    def test_pixels_scaled_and_flattened(self):
        images, labels = fake_digits()
        spec = SyntheticSpec(n_bags=10, threshold_qstar=0.3, bag_size_mean=5,
                             bag_size_std=1)
        bags = make_mnist_bags(images, labels, spec, seed=1)
        for bag in bags:
            assert bag.instances.shape[1] == 64
            assert bag.instances.min() >= 0.0 and bag.instances.max() <= 1.0

    def test_example_fraction(self):
        # four 9s out of ten at threshold 0.3 labels the bag positive
        images, labels = fake_digits()
        spec = SyntheticSpec(n_bags=200, threshold_qstar=0.3, bag_size_mean=10,
                             bag_size_std=0.001)
        bags = make_mnist_bags(images, labels, spec, seed=2)
        four_niners = [b for b in bags if abs(b.positive_fraction - 0.4) < 1e-9]
        assert four_niners and all(b.label == 1 for b in four_niners)
        no_niners = [b for b in bags if b.positive_fraction == 0.0]
        assert no_niners and all(b.label == 0 for b in no_niners)

    def test_matches_full_conversion(self, tmp_path):
        # every instance is bit-identical to its row of the whole image array
        # converted to float64 up front
        images, labels = fake_digits(n=300, seed=3)
        write_idx_images(tmp_path / "images", images)
        write_idx_labels(tmp_path / "labels", labels)
        images, labels = load_idx(tmp_path / "images", tmp_path / "labels")
        full = np.asarray(images, dtype=np.float64).reshape(len(labels), -1) / 255.0
        row_of = {img.tobytes(): j for j, img in enumerate(images.reshape(len(labels), -1))}
        assert len(row_of) == len(labels)   # distinct images identify their rows
        spec = SyntheticSpec(n_bags=40, threshold_qstar=0.3, bag_size_mean=8,
                             bag_size_std=2)
        for bag in make_mnist_bags(images, labels, spec, seed=4):
            rows = [row_of[np.rint(x * 255.0).astype(np.uint8).tobytes()]
                    for x in bag.instances]
            assert bag.instances.dtype == np.float64
            np.testing.assert_array_equal(bag.instances, full[rows])
            np.testing.assert_array_equal(bag.hidden_instance_labels,
                                          (labels[rows] == 9).astype(np.int64))

    def test_memory_scales_with_bags_not_images(self):
        _, labels = fake_digits(n=6000, seed=5)
        images = np.random.default_rng(5).integers(0, 256, size=(6000, 28, 28),
                                                   dtype=np.uint8)
        spec = SyntheticSpec(n_bags=10, threshold_qstar=0.3, bag_size_mean=30,
                             bag_size_std=3)
        tracemalloc.start()
        try:
            bags = make_mnist_bags(images, labels, spec, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        float_copy = images.size * 8   # the whole array as float64: 37.6 MB
        kept = sum(b.instances.nbytes for b in bags)
        assert peak < float_copy / 8
        assert peak < 3 * kept

    def test_rebalance_gives_half_of_each_class(self):
        spec = SyntheticSpec(n_bags=60, threshold_qstar=0.3, bag_size_mean=8,
                             bag_size_std=2, rebalance=True)
        bags = make_mnist_bags(*fake_digits(), spec, seed=5, split="test")
        assert len(bags) == 60 and sum(b.label for b in bags) == 30
        numbers = [int(b.id[len("test-"):]) for b in bags]
        assert numbers == sorted(set(numbers)) and numbers[-1] >= 60

    def test_requires_positive_digit(self):
        images, labels = fake_digits()
        labels = np.where(labels == 9, 1, labels).astype(np.uint8)
        spec = SyntheticSpec(n_bags=10, threshold_qstar=0.3, bag_size_mean=5)
        with pytest.raises(ValueError, match="digit 9"):
            make_mnist_bags(images, labels, spec, seed=0)


class TestSplit:
    def bags(self, n=100, seed=0):
        spec = SyntheticSpec(n_bags=n, threshold_qstar=0.5, bag_size_mean=4,
                             bag_size_std=1, rebalance=True)
        return generate_synthetic(spec, seed)

    def test_all_train(self):
        bags = self.bags(20)
        split = split_dataset(bags, (1.0, 0.0, 0.0), seed=0)
        assert len(split.train) == 20
        assert not split.validation and not split.test

    def test_stratified_80_10_10(self):
        bags = self.bags(100)
        split = split_dataset(bags, (0.8, 0.1, 0.1), seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) == (80, 10, 10)
        for bucket in (split.train, split.validation, split.test):
            pos = sum(b.label for b in bucket)
            assert abs(pos - len(bucket) / 2) <= 1

    def test_deterministic_and_disjoint(self):
        bags = self.bags(60)
        a = split_dataset(bags, (0.6, 0.2, 0.2), seed=2)
        b = split_dataset(bags, (0.6, 0.2, 0.2), seed=2)
        assert [x.id for x in a.train] == [x.id for x in b.train]
        assert [x.id for x in a.test] == [x.id for x in b.test]
        ids = [x.id for x in a.train + a.validation + a.test]
        assert len(ids) == len(set(ids)) == 60

    def test_missing_class_rejected(self):
        spec = SyntheticSpec(n_bags=40, threshold_qstar=0.99, bag_size_mean=4,
                             bag_size_std=1)
        bags = generate_synthetic(spec, seed=3)   # almost surely all negative
        assert {b.label for b in bags} == {0}
        with pytest.raises(ValueError):
            split_dataset(bags, (0.8, 0.1, 0.1), seed=0)

    def test_fraction_validation(self):
        bags = self.bags(10)
        with pytest.raises(ValueError):
            split_dataset(bags, (0.5, 0.1), seed=0)
        with pytest.raises(ValueError):
            split_dataset(bags, (0.5, 0.4, 0.2), seed=0)


# dataset files as the bagdata/1 (JSON), bagdata/2 (dense .npz) and
# bagdata/3 (with a stored positive fraction) writers of earlier versions
# saved them
RETIRED_DATA = Path(__file__).parent / "data"


def assert_same_bags(got, want):
    """Every field equal, bit for bit, with the same Python types."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        fields_a = (a.id, a.label, a.split, a.positive_fraction)
        fields_b = (b.id, b.label, b.split, b.positive_fraction)
        assert fields_a == fields_b
        assert [type(x) for x in fields_a] == [type(x) for x in fields_b]
        assert a.instances.dtype == b.instances.dtype
        assert a.instances.shape == b.instances.shape
        assert a.instances.tobytes() == b.instances.tobytes()
        if b.hidden_instance_labels is None:
            assert a.hidden_instance_labels is None
        else:
            assert a.hidden_instance_labels.dtype == b.hidden_instance_labels.dtype
            assert a.hidden_instance_labels.tobytes() == b.hidden_instance_labels.tobytes()


def container_bags():
    spec = SyntheticSpec(n_bags=12, threshold_qstar=0.3, bag_size_mean=5, bag_size_std=1)
    bags = generate_synthetic(spec, seed=9)
    for b, split in zip(bags, ("train", "validation", "test", None) * 3):
        b.split = split
    bags[1].hidden_instance_labels = None
    return spec, bags


def read_members(path):
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def saved_members(tmp_path, bags=None):
    """A saved dataset file and its members, read back as arrays."""
    path = tmp_path / "good"
    save_dataset(path, container_bags()[1] if bags is None else bags)
    return path, read_members(path)


def write_members(path, arrays):
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def with_header(**fields):
    """A change to the header member that sets ``fields``; None deletes one."""
    def change(header):
        doc = json.loads(header.item())
        doc.update(fields)
        return np.array(json.dumps({k: v for k, v in doc.items() if v is not None}))
    return change


def cell(index, value):
    """A change that sets the ``index``-th cell of an array, in row-major order."""
    def change(a):
        a = a.copy()
        a.reshape(-1)[index] = value
        return a
    return change


def assert_rejected(tmp_path, arrays, member, change, message, field=None):
    """Loading ``arrays`` with ``member`` changed fails naming ``field``
    (by default the member) and matching ``message``."""
    arrays[member] = change(arrays[member])
    bad = tmp_path / "bad.json"
    write_members(bad, arrays)
    with pytest.raises(DatasetError, match=f"bad.json: field '{field or member}' .*{message}"):
        load_dataset(bad)


class TestContainer:
    def test_round_trip(self, tmp_path):
        spec, bags = container_bags()
        path = tmp_path / "data.json"
        save_dataset(path, bags, spec=spec, seed=9)
        assert [p.name for p in tmp_path.iterdir()] == ["data.json"]
        assert path.read_bytes()[:4] == b"PK\x03\x04"
        loaded, spec_dict, seed = load_dataset(path)
        assert seed == 9
        assert spec_dict == dataclasses.asdict(spec)
        assert_same_bags(loaded, bags)

    def test_bags_view_one_instance_array(self, tmp_path):
        _, bags = container_bags()
        save_dataset(tmp_path / "d", bags)
        loaded, spec_dict, seed = load_dataset(tmp_path / "d")
        assert spec_dict is None and seed is None
        base = loaded[0].instances.base
        assert base is not None and base.size == 2 * sum(len(b) for b in bags)
        assert all(b.instances.base is base for b in loaded)

    def test_empty_dataset(self, tmp_path):
        save_dataset(tmp_path / "d", [])
        assert load_dataset(tmp_path / "d") == ([], None, None)

    def test_schema_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "bagdata/999", "bags": []}')
        with pytest.raises(DatasetError, match="schema"):
            load_dataset(path)

    def test_unknown_format_names_path(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00\x01binary")
        with pytest.raises(DatasetError, match="bad.bin"):
            load_dataset(path)

    def test_save_rejects_mixed_widths(self, tmp_path):
        _, bags = container_bags()
        bags[3] = Bag(id="wide", instances=np.zeros((2, 3)), label=0)
        with pytest.raises(ValueError, match=f"^bag wide: 3 features per instance, but bag "
                                             f"{bags[0].id} has 2$"):
            save_dataset(tmp_path / "d", bags)
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_rejects_non_finite(self, tmp_path, bad):
        _, bags = container_bags()
        bags[4].instances[1, 0] = bad
        with pytest.raises(ValueError, match=f"bag {bags[4].id}: .*NaN or infinity"):
            save_dataset(tmp_path / "d", bags)

    @pytest.mark.parametrize("hidden, message", [
        (lambda n: np.full(n, 5), "hidden labels must be 0 or 1"),
        (lambda n: np.full(n, -1), "hidden labels must be 0 or 1"),
        (lambda n: np.zeros(0, dtype=np.int64), "hidden label count mismatch"),
        (lambda n: np.zeros(n + 1, dtype=np.int64), "hidden label count mismatch"),
        (lambda n: np.zeros(n - 1, dtype=np.int64), "hidden label count mismatch"),
    ], ids=["5", "-1", "none", "one-more", "one-fewer"])
    def test_save_rejects_hidden_labels_set_after_the_bag_was_built(self, tmp_path, hidden,
                                                                   message):
        _, bags = container_bags()
        bags[3].hidden_instance_labels = hidden(len(bags[3]))
        with pytest.raises(ValueError, match=f"^bag {bags[3].id}: {message}$"):
            save_dataset(tmp_path / "d", bags)
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("bag_id", [5, None, b"a"], ids=["int", "none", "bytes"])
    def test_save_rejects_an_id_set_after_the_bag_was_built(self, tmp_path, bag_id):
        _, bags = container_bags()
        bags[4].id = bag_id
        with pytest.raises(ValueError, match=re.escape(f"bag {bag_id!r}: id must be a string")):
            save_dataset(tmp_path / "d", bags)
        assert not (tmp_path / "d").exists()

    def test_save_takes_an_id_of_a_str_subclass(self, tmp_path):
        class Name(str):
            pass

        _, bags = container_bags()
        bags[4].id = Name("named")
        save_dataset(tmp_path / "d", bags)
        assert load_dataset(tmp_path / "d")[0][4].id == "named"

    def test_positive_fraction_follows_the_hidden_labels(self):
        bag = Bag(id="a", instances=np.zeros((4, 2)), label=1,
                  hidden_instance_labels=[1, 0, 1, 1])
        assert bag.positive_fraction == 0.75 and type(bag.positive_fraction) is float
        bag.hidden_instance_labels = np.array([0, 0, 0, 1])
        assert bag.positive_fraction == 0.25
        bag.hidden_instance_labels = None
        assert bag.positive_fraction is None
        with pytest.raises(AttributeError):
            bag.positive_fraction = 0.5

    @pytest.mark.parametrize("fields, message", [
        ({"hidden_instance_labels": [0.7, 0.0, 1.0]}, "bag a: hidden labels are .*, not integers"),
        ({"hidden_instance_labels": [True, False, True]},
         "bag a: hidden labels are .*, not integers"),
        ({"label": 0.7}, "bag a: label must be 0 or 1, got 0.7"),
        ({"label": "1"}, "bag a: label must be 0 or 1, got '1'"),
        ({"label": True}, "bag a: label must be 0 or 1, got True"),
        ({"id": 5}, "bag 5: id must be a string"),
    ])
    def test_bag_refuses_bad_fields(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Bag(**{"id": "a", "instances": np.zeros((3, 2)), "label": 1, **fields})

    @pytest.mark.parametrize("label", [0.7, 1.0, 5, -1, True, "1", None])
    def test_save_rejects_a_label_set_after_the_bag_was_built(self, tmp_path, label):
        _, bags = container_bags()
        bags[3].label = label
        with pytest.raises(ValueError, match=re.escape(
                f"bag {bags[3].id}: label must be 0 or 1, got {label!r}")):
            save_dataset(tmp_path / "d", bags)
        assert not (tmp_path / "d").exists()

    def test_save_takes_numpy_integer_labels(self, tmp_path):
        _, bags = container_bags()
        for b in bags:
            b.label = np.int64(b.label)
        save_dataset(tmp_path / "d", bags)
        assert_same_bags(load_dataset(tmp_path / "d")[0], container_bags()[1])

    def test_save_rejects_unknown_split(self, tmp_path):
        _, bags = container_bags()
        bags[0].split = "holdout"
        with pytest.raises(ValueError, match=f"bag {bags[0].id}: split"):
            save_dataset(tmp_path / "d", bags)

    @pytest.mark.parametrize("field, change, message", [
        ("offsets", lambda a: a + 1, "starting at 0"),
        ("offsets", lambda a: np.r_[a[:2], a[1], a[2:]], "increase strictly"),
        ("labels", lambda a: a[:-1], "shape"),
        ("ids", lambda a: np.r_[a, a[:1]], "shape"),
        ("hidden", lambda a: a[1:], "shape"),
        ("labels", lambda a: np.r_[2, a[1:]], "other than 0 or 1"),
        ("labels", lambda a: a.astype(np.float64), "dtype"),
        ("splits", lambda a: np.r_[4, a[1:]].astype(np.int8), "split code"),
        ("splits", lambda a: np.r_[-1, a[1:]].astype(np.int8), "split code"),
        ("header", lambda a: np.array('{"schema": "bagdata/1"}'), "schema"),
        ("header", lambda a: np.array('{"schema": "bagdata/2"}'), "'bagdata/2', which is no "
                                                                 "longer read"),
        ("header", lambda a: np.array("not json"), "JSON"),
    ])
    def test_load_rejects_inconsistent_fields(self, tmp_path, field, change, message):
        _, arrays = saved_members(tmp_path)
        assert_rejected(tmp_path, arrays, field, change, message)

    @pytest.mark.parametrize("value", [5, -1])
    def test_load_rejects_hidden_labels_outside_their_range(self, tmp_path, value):
        _, arrays = saved_members(tmp_path)
        assert_rejected(tmp_path, arrays, "hidden", cell(0, value),
                        "hidden label other than 0 or 1")

    def test_load_rejects_missing_member(self, tmp_path):
        _, arrays = saved_members(tmp_path)
        del arrays["has_hidden"]
        write_members(tmp_path / "bad", arrays)
        with pytest.raises(DatasetError, match="field 'has_hidden' is missing"):
            load_dataset(tmp_path / "bad")

    def test_loaded_bags_stack_as_a_view(self, tmp_path):
        _, bags = container_bags()
        save_dataset(tmp_path / "d", bags)
        loaded, _, _ = load_dataset(tmp_path / "d")
        train = [b for b in loaded if b.split == "train"]
        assert all(b.loaded_rows[0] is b.instances for b in loaded)
        stacked, lengths = stack_instances(loaded[3:9], 2)
        assert stacked.base is loaded[0].instances.base
        assert lengths.tolist() == [len(b) for b in loaded[3:9]]
        assert stack_instances(train, 2)[0].base is None   # not consecutive: a copy

    @pytest.mark.parametrize("keep", [0.3, 0.6, 0.9, 0.999])
    def test_truncated_file_names_path(self, tmp_path, keep):
        good, _ = saved_members(tmp_path)
        data = good.read_bytes()
        bad = tmp_path / "cut.json"
        bad.write_bytes(data[:int(len(data) * keep)])
        with pytest.raises(DatasetError, match="cut.json"):
            load_dataset(bad)

    @pytest.mark.parametrize("member", ["instance_values.npy", "instance_mask.npy",
                                        "offsets.npy", "hidden.npy", "ids.npy"])
    def test_corrupt_member_names_path(self, tmp_path, member):
        good = saved_members(tmp_path)[0]
        data = bytearray(good.read_bytes())
        at = data.index(member.encode()) + len(member) + 24   # in its stored or deflated bytes
        data[at:at + 8] = bytes(255 - x for x in data[at:at + 8])
        bad = tmp_path / "flipped.json"
        bad.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match="flipped.json"):
            load_dataset(bad)


def deflate(data, level):
    """``data`` as a raw deflate stream, the form a zip member stores."""
    packer = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS)
    return packer.compress(data) + packer.flush()


def odd_bags():
    """Bags whose 5 cells leave 3 pad bits in the mask's last byte, with a
    zero cell among them."""
    return [Bag(id="a", instances=[[1.5], [0.0], [-2.0]], label=1),
            Bag(id="b", instances=[[0.25], [3.0]], label=0)]


class TestSparseInstances:
    """A dataset file keeps the instances as the packed bits of the
    nonzero cells and the values of those cells."""

    def test_members(self, tmp_path):
        x = np.array([[0.0, -0.0, 1.5], [0.0, 0.0, 0.0], [2.0, 0.0, -3.0]])
        _, arrays = saved_members(tmp_path, [Bag(id="a", instances=x, label=1)])
        assert "instances" not in arrays
        assert json.loads(arrays["header"].item())["width"] == 3
        np.testing.assert_array_equal(np.unpackbits(arrays["instance_mask"])[:9],
                                      [0, 1, 1, 0, 0, 0, 1, 0, 1])
        assert arrays["instance_values"].tobytes() == np.array([-0.0, 1.5, 2.0, -3.0]).tobytes()

    def test_every_deflated_member_at_level_1(self, tmp_path):
        # pixel-like cells, sparse and with few distinct values, which level
        # 1 and the default level deflate differently
        rng = np.random.default_rng(3)
        cells = rng.integers(0, 256, size=(400, 64)) * (rng.random((400, 64)) < 0.2) / 255.0
        good, _ = saved_members(tmp_path, [Bag(id=f"b{i}", instances=cells[i::8], label=i % 2)
                                           for i in range(8)])
        data = good.read_bytes()
        levels = {}
        with zipfile.ZipFile(good) as zf:
            for info in zf.infolist():
                assert info.compress_type == zipfile.ZIP_DEFLATED
                name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
                at = info.header_offset + 30 + name_len + extra_len
                stored = data[at:at + info.compress_size]
                plain = zf.read(info)
                levels[info.filename] = [level for level in (1, 6)
                                         if stored == deflate(plain, level)]
        assert all(1 in level for level in levels.values()), levels
        # the split codes and the flags, all zero here, are the members
        # that both levels deflate alike
        assert [name for name, level in levels.items() if level != [1]] == [
            "splits.npy", "has_hidden.npy"]

    @pytest.mark.parametrize("x", [
        np.array([[-0.0, 0.0], [0.0, -0.0]]),
        np.array([[5e-324, -5e-324], [0.0, 2.2250738585072014e-308]]),
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 2.0], [0.0, 0.0, 0.0]]),
        np.zeros((4, 3)),
        np.arange(1.0, 13.0).reshape(4, 3) * np.pi,
        np.array([[np.finfo(float).max, -np.finfo(float).tiny, 1e-300]]),
    ], ids=["negative-zero", "subnormal", "zero-rows", "all-zero", "no-zero-cell", "extremes"])
    def test_round_trip_bit_exact(self, tmp_path, x):
        bags = [Bag(id="a", instances=x[:1], label=0, split="train"),
                Bag(id="b", instances=x[1:], label=1)] if len(x) > 1 else \
            [Bag(id="a", instances=x, label=0)]
        save_dataset(tmp_path / "d", bags)
        loaded, _, _ = load_dataset(tmp_path / "d")
        assert_same_bags(loaded, bags)
        np.testing.assert_array_equal(np.signbit(np.vstack([b.instances for b in loaded])),
                                      np.signbit(x))

    def test_odd_cell_count_round_trip(self, tmp_path):
        save_dataset(tmp_path / "d", odd_bags())
        assert_same_bags(load_dataset(tmp_path / "d")[0], odd_bags())

    def test_equal_bags_give_equal_bytes(self, tmp_path):
        save_dataset(tmp_path / "a", container_bags()[1])
        save_dataset(tmp_path / "b", container_bags()[1])
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    @pytest.mark.parametrize("member, change, field, message", [
        ("offsets", lambda a: np.r_[a[:-1], a[-1] - 1], "hidden", r"expected \(59,\)"),
        ("offsets", lambda a: np.r_[a[:-1], a[-1] + 4], "hidden", r"expected \(64,\)"),
        ("offsets", lambda a: a[:-1], "ids", r"expected \(11,\) from 'offsets'"),
        ("instance_mask", lambda a: a[:-1], "instance_mask", r"take uint8 of shape \(15,\)"),
        ("instance_mask", lambda a: np.append(a, np.uint8(0)), "instance_mask",
         r"take uint8 of shape \(15,\)"),
        ("instance_mask", lambda a: a.astype(np.uint16), "instance_mask", "dtype uint16"),
        ("instance_mask", lambda a: a.astype(np.float64), "instance_mask", "dtype float64"),
        ("instance_mask", cell(0, 0x7F), "instance_values",
         "holds 120 values, but 'instance_mask' marks 119 cells"),
        ("instance_values", lambda a: a[:-1], "instance_values",
         "holds 119 values, but 'instance_mask' marks 120 cells"),
        ("instance_values", lambda a: np.r_[a, 1.0], "instance_values", "holds 121 values"),
        ("instance_values", cell(3, np.nan), "instance_values", "NaN or infinity"),
        ("instance_values", cell(5, np.inf), "instance_values", "NaN or infinity"),
        ("instance_values", cell(7, -np.inf), "instance_values", "NaN or infinity"),
        ("instance_values", lambda a: a.reshape(-1, 2), "instance_values",
         "expected a 1-D array"),
        ("instance_values", lambda a: a.astype(np.int64), "instance_values", "dtype int64"),
        ("instance_values", lambda a: np.array(a.tolist(), dtype=str), "instance_values",
         "dtype"),
        ("header", with_header(width=None), "header", "width must be an integer >= 0, got None"),
        ("header", with_header(width="2"), "header", "width must be an integer"),
        ("header", with_header(width=2.0), "header", "width must be an integer"),
        ("header", with_header(width=True), "header", "width must be an integer"),
        ("header", with_header(width=-2), "header", "width must be an integer"),
        ("header", with_header(schema="bagdata/5"), "header", "schema"),
    ])
    def test_load_rejects_inconsistent_fields(self, tmp_path, member, change, field, message):
        _, arrays = saved_members(tmp_path)
        assert json.loads(arrays["header"].item())["width"] == 2
        assert arrays["offsets"][-1] == 60
        assert_rejected(tmp_path, arrays, member, change, message, field)

    @pytest.mark.parametrize("width, message", [
        (3, r"60 rows \('offsets'\) of the header's width 3 take uint8 of shape \(23,\)"),
        (1, r"width 1 take uint8 of shape \(8,\)"),
        (0, r"width 0 take uint8 of shape \(0,\)"),
    ])
    def test_header_width_that_does_not_fit(self, tmp_path, width, message):
        _, arrays = saved_members(tmp_path)
        arrays["header"] = with_header(width=width)(arrays["header"])
        assert_rejected(tmp_path, arrays, "instance_mask", lambda a: a, message)

    def test_load_rejects_nonzero_pad_bit(self, tmp_path):
        _, arrays = saved_members(tmp_path, odd_bags())
        assert arrays["instance_mask"].shape == (1,)
        assert_rejected(tmp_path, arrays, "instance_mask", lambda a: a | 0b001,
                        "nonzero pad bit after its 5 cells")

    @pytest.mark.parametrize("name", ["instance_mask", "instance_values"])
    def test_load_rejects_missing_instance_member(self, tmp_path, name):
        _, arrays = saved_members(tmp_path)
        del arrays[name]
        write_members(tmp_path / "bad", arrays)
        with pytest.raises(DatasetError, match=f"bad: field '{name}' is missing"):
            load_dataset(tmp_path / "bad")


def gaussian_bags(n_bags=80):
    """Bags of Gaussian cells, more of them than the writer's sample."""
    spec = SyntheticSpec(n_bags=n_bags, threshold_qstar=0.3, bag_size_mean=40, feature_dim=3)
    return generate_synthetic(spec, seed=4)


def rezip_deflated(path, out, hidden_dtype=np.int64):
    """``path``'s members, every one deflated at zlib's default level, with
    the hidden labels as ``hidden_dtype``."""
    arrays = read_members(path)
    arrays["hidden"] = arrays["hidden"].astype(hidden_dtype)
    with zipfile.ZipFile(out, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, arr in arrays.items():
            with zf.open(name + ".npy", "w") as f:
                np.lib.format.write_array(f, arr, allow_pickle=False)


class TestStoredMembers:
    """A member whose leading bytes deflate badly is stored as it is."""

    def test_gaussian_values_stored_and_round_trip(self, tmp_path):
        bags = gaussian_bags()
        save_dataset(tmp_path / "a", bags)
        with zipfile.ZipFile(tmp_path / "a") as zf:
            values = zf.getinfo("instance_values.npy")
            types = {info.filename: info.compress_type for info in zf.infolist()}
        assert values.file_size > 16384 * 4 and values.compress_type == zipfile.ZIP_STORED
        assert types.pop("instance_values.npy") == zipfile.ZIP_STORED
        assert set(types.values()) == {zipfile.ZIP_DEFLATED}, types
        assert_same_bags(load_dataset(tmp_path / "a")[0], bags)
        save_dataset(tmp_path / "b", gaussian_bags())
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_flipped_byte_in_stored_values_names_path(self, tmp_path):
        # no deflate stream to break: the member's CRC-32 catches it
        save_dataset(tmp_path / "good", gaussian_bags())
        data = bytearray((tmp_path / "good").read_bytes())
        data[data.index(b"instance_values.npy") + 5000] ^= 0xFF
        bad = tmp_path / "flipped.json"
        bad.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match="flipped.json: .*CRC"):
            load_dataset(bad)

    def test_hidden_labels_stored_as_int8_and_loaded_as_int64(self, tmp_path):
        bags = gaussian_bags()
        _, arrays = saved_members(tmp_path, bags)
        assert arrays["hidden"].dtype == np.int8
        assert arrays["hidden"].tolist() == np.concatenate(
            [b.hidden_instance_labels for b in bags]).tolist()
        loaded, _, _ = load_dataset(tmp_path / "good")
        base = loaded[0].hidden_instance_labels.base
        assert base is not None and base.dtype == np.int64
        assert all(b.hidden_instance_labels.base is base for b in loaded)

    def test_file_with_every_member_deflated_loads_to_the_same_bags(self, tmp_path):
        bags = gaussian_bags()
        save_dataset(tmp_path / "new", bags)
        rezip_deflated(tmp_path / "new", tmp_path / "old")
        with zipfile.ZipFile(tmp_path / "old") as zf:
            assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_DEFLATED}
        assert read_members(tmp_path / "old")["hidden"].dtype == np.int64
        assert_same_bags(load_dataset(tmp_path / "old")[0], bags)

    def test_save_names_the_first_of_several_bad_bags(self, tmp_path):
        bags = gaussian_bags()
        bags[7].instances[2, 1] = np.nan
        bags[5].hidden_instance_labels = np.zeros(len(bags[5]) + 1, dtype=np.int64)
        bags[3].hidden_instance_labels = np.full(len(bags[3]), 2)
        bags[9].split = "holdout"
        with pytest.raises(ValueError, match="^bag bag-000007: instances contain NaN"):
            save_dataset(tmp_path / "d", bags)
        bags[7].instances[2, 1] = 0.0
        with pytest.raises(ValueError, match="^bag bag-000009: split must be one of"):
            save_dataset(tmp_path / "d", bags)
        bags[9].split = None
        with pytest.raises(ValueError, match="^bag bag-000005: hidden label count mismatch"):
            save_dataset(tmp_path / "d", bags)
        bags[5].hidden_instance_labels = None
        with pytest.raises(ValueError, match="^bag bag-000003: hidden labels must be 0 or 1"):
            save_dataset(tmp_path / "d", bags)
        assert not (tmp_path / "d").exists()

    def test_hidden_label_that_would_wrap_in_int8_rejected(self, tmp_path):
        bags = gaussian_bags(4)
        bags[1].hidden_instance_labels = np.full(len(bags[1]), 256)
        with pytest.raises(ValueError, match="^bag bag-000001: hidden labels must be 0 or 1"):
            save_dataset(tmp_path / "d", bags)


class TestCheckBags:
    """The check a training split passes before the unchecked network
    core takes its bags."""

    @pytest.mark.parametrize("field, value, message", [
        ("instances", np.empty((0, 2)),
         r"instances of shape \(0, 2\), expected a nonempty \(bag_size, 2\) array"),
        ("instances", np.zeros((3, 5)), r"instances of shape \(3, 5\)"),
        ("instances", np.zeros(2), r"instances of shape \(2,\)"),
        ("instances", np.zeros((3, 2), dtype=np.float32), "instances of dtype float32"),
        ("instances", [[0.0, 1.0]], "instances of dtype None"),
        ("label", 2, "label must be 0 or 1, got 2"),
        ("label", True, "label must be 0 or 1, got True"),
        ("label", 1.0, r"label must be 0 or 1, got 1\.0"),
    ], ids=["empty", "wide", "one-dimensional", "float32", "list", "label", "label-bool",
            "label-float"])
    def test_names_the_bag_after_where(self, field, value, message):
        _, bags = container_bags()
        setattr(bags[4], field, value)
        check_bags(bags[:4], 2)
        with pytest.raises(ValueError, match=f"^train split: bag {bags[4].id}: {message}"):
            check_bags(bags, 2, "train split: ")


class TestRetiredFiles:
    """Files of the schemas that earlier versions wrote are refused by name."""

    @pytest.mark.parametrize("name, schema", [("bagdata1.json", "bagdata/1"),
                                              ("bagdata2.npz", "bagdata/2"),
                                              ("bagdata3.npz", "bagdata/3")])
    def test_fixture_refused_naming_path_and_schema(self, name, schema):
        path = RETIRED_DATA / name
        with pytest.raises(DatasetError, match=re.escape(f"{path}: ")) as exc:
            load_dataset(path)
        assert f"{schema!r}" in str(exc.value) and "no longer read" in str(exc.value)

    def test_any_json_text_is_read_as_the_json_schema(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"schema": "bagdata/4", "bags": []}')
        with pytest.raises(DatasetError, match=re.escape(
                f"{path}: a JSON dataset, schema 'bagdata/1', which is no longer read")):
            load_dataset(path)


class TestCheckNumber:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_numpy_floats_in_their_own_type(self, dtype):
        # no cast of the largest float into the value's type, so no
        # overflow warning, and an infinity of any width is refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (0.5, -2.0, np.finfo(dtype).max):
                assert check_number("x", dtype(value)) == dtype(value)
            for value in (np.inf, -np.inf, np.nan):
                with pytest.raises(ValueError, match="x must be a finite number, got"):
                    check_number("x", dtype(value))

    def test_integers_of_any_size(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_number("x", 10 ** 400, integer=True) == 10 ** 400
            assert check_number("x", 10 ** 308) == 10 ** 308
            for value in (10 ** 400, -10 ** 400, Fraction(10 ** 400, 3)):
                with pytest.raises(ValueError, match="x must be a finite number, got"):
                    check_number("x", value)
