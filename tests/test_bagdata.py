import tracemalloc

import numpy as np
import pytest

from promil.bagdata import (
    Bag,
    IdxParseError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_idx,
    make_mnist_bags,
    save_dataset,
    split_dataset,
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


class TestMnistBags:
    def fake_digits(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        images = rng.integers(0, 256, size=(n, 8, 8), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        labels[:40] = 9   # guarantee positives exist
        return images, labels

    def test_labels_rederivable(self):
        images, labels = self.fake_digits()
        spec = SyntheticSpec(n_bags=120, threshold_qstar=0.3, bag_size_mean=8,
                             bag_size_std=2)
        bags = make_mnist_bags(images, labels, spec, seed=0)
        assert len(bags) == 120
        for bag in bags:
            assert bag.label == recompute_label(bag, spec)

    def test_pixels_scaled_and_flattened(self):
        images, labels = self.fake_digits()
        spec = SyntheticSpec(n_bags=10, threshold_qstar=0.3, bag_size_mean=5,
                             bag_size_std=1)
        bags = make_mnist_bags(images, labels, spec, seed=1)
        for bag in bags:
            assert bag.instances.shape[1] == 64
            assert bag.instances.min() >= 0.0 and bag.instances.max() <= 1.0

    def test_example_fraction(self):
        # four 9s out of ten at threshold 0.3 labels the bag positive
        images, labels = self.fake_digits()
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
        images, labels = self.fake_digits(n=300, seed=3)
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
        _, labels = self.fake_digits(n=6000, seed=5)
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

    def test_requires_positive_digit(self):
        images, labels = self.fake_digits()
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


class TestContainer:
    def test_round_trip(self, tmp_path):
        spec = SyntheticSpec(n_bags=12, threshold_qstar=0.3, bag_size_mean=5,
                             bag_size_std=1)
        bags = generate_synthetic(spec, seed=9)
        bags[0].split = "train"
        path = tmp_path / "data.json"
        save_dataset(path, bags, spec=spec, seed=9)
        loaded, spec_dict, seed = load_dataset(path)
        assert seed == 9
        assert spec_dict["threshold_qstar"] == 0.3
        assert loaded[0].split == "train"
        for a, b in zip(bags, loaded):
            assert a.id == b.id and a.label == b.label
            np.testing.assert_array_equal(a.instances, b.instances)
            np.testing.assert_array_equal(a.hidden_instance_labels,
                                          b.hidden_instance_labels)

    def test_schema_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "bagdata/999", "bags": []}')
        with pytest.raises(ValueError, match="schema"):
            load_dataset(path)
