"""The split scorer: its equal-length blocks against the head table's
per-bag scores, bit for bit, the stacked instances ``score_bags`` runs
through the network, and its input checks and memory bound."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from promil import heads
from promil.bagdata import Bag, load_dataset, save_dataset, stack_instances
from promil.heads import HEADS, head_function, score_bags
from promil.network import NetArch, forward, init_params

EPS = 1e-7
SIZES = (1, 2, 3, 30, 301, 3001, 10001)


def score_predictions(preds, lengths, head, q, eps):
    """The split scorer with the head's row function: the scores of
    consecutive bags."""
    return heads._score_split(preds, lengths, heads._HEADS[head][1], q, eps)


def per_bag(preds, lengths, head, q, eps=EPS):
    ends = np.cumsum(lengths)
    return np.array([head_function(head)(preds[end - n:end], q, eps)[0]
                     for end, n in zip(ends, lengths)])


def mixed_split(seed, sizes=SIZES):
    """Predictions of bags of the given sizes in shuffled order; about one
    in ten lies below the clamp."""
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.array(sizes, dtype=np.int64))
    preds = rng.uniform(0.0, 1.0, size=int(lengths.sum()))
    low = rng.uniform(size=preds.size) < 0.1
    preds[low] = rng.uniform(0.0, EPS, size=int(low.sum()))
    return preds, lengths


def assert_agree(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("q", [1e-6, 0.3, 0.5, 1.0 - 1e-6])
@pytest.mark.parametrize("head", HEADS)
def test_split_scores_equal_per_bag_scores(head, q):
    for seed in range(3):
        preds, lengths = mixed_split(seed)
        assert_agree(score_predictions(preds, lengths, head, q, EPS),
                     per_bag(preds, lengths, head, q))


@pytest.mark.parametrize("head", HEADS)
def test_every_size_class_up_to_10001(head):
    # one bag of each size at and around every power of two, repeated sizes
    # that share a block, and the README's sizes around 30
    sizes = [1, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 25, 30, 30, 31, 32, 33, 35]
    sizes += [2 ** j + d for j in range(6, 14) for d in (-1, 0, 1)] + [10001]
    preds, lengths = mixed_split(7, sizes)
    for q in (0.05, 0.3, 0.9):
        assert_agree(score_predictions(preds, lengths, head, q, 1e-3),
                     per_bag(preds, lengths, head, q, 1e-3))


def test_nan_prediction_reaches_its_bag_score_only():
    preds, lengths = mixed_split(3, (5, 30, 1, 17))
    preds[lengths[0]] = np.nan       # the first prediction of the second bag
    for head in HEADS:
        scores = score_predictions(preds, lengths, head, 0.3, EPS)
        assert np.isnan(scores).tolist() == [False, True, False, False]


class TestStackInstances:
    def dataset(self, tmp_path, sizes=(3, 5, 2, 7, 4)):
        rng = np.random.default_rng(6)
        bags = [Bag(id=f"b{i}", instances=rng.normal(size=(n, 3)), label=i % 2,
                    split="train" if i < 3 else "test")
                for i, n in enumerate(sizes)]
        path = str(tmp_path / "d.npz")
        save_dataset(path, bags)
        return bags, load_dataset(path)[0]

    def test_a_loaded_split_is_a_view(self, tmp_path):
        bags, loaded = self.dataset(tmp_path)
        for split in (loaded, loaded[:3], loaded[3:], loaded[1:2]):
            x, lengths = stack_instances(split, 3)
            assert np.shares_memory(x, split[0].instances)
            np.testing.assert_array_equal(x, np.concatenate([b.instances for b in split]))
            assert lengths.tolist() == [len(b) for b in split]

    def test_other_bags_are_copied(self, tmp_path):
        bags, loaded = self.dataset(tmp_path)
        again = load_dataset(str(tmp_path / "d.npz"))[0]
        for split in (bags, loaded[::2], loaded[::-1], [loaded[0], loaded[0]],
                      [loaded[0], bags[1]], [loaded[0], again[1]]):
            x, lengths = stack_instances(split, 3)
            assert not any(np.shares_memory(x, b.instances) for b in split)
            np.testing.assert_array_equal(x, np.concatenate([b.instances for b in split]))
            assert lengths.tolist() == [len(b) for b in split]

    def test_copied_bags_are_copied(self, tmp_path):
        _, loaded = self.dataset(tmp_path)
        for split in (copy.deepcopy(loaded), pickle.loads(pickle.dumps(loaded))):
            split[1].instances[0, 0] = 99.0
            x, _ = stack_instances(split, 3)
            np.testing.assert_array_equal(x, np.concatenate([b.instances for b in split]))
        x, _ = stack_instances([copy.copy(b) for b in loaded], 3)
        np.testing.assert_array_equal(x, np.concatenate([b.instances for b in loaded]))

    def test_consecutive_rows_not_read_by_load_dataset_are_copied(self):
        buf = np.arange(40.0).reshape(20, 2)
        bags = [Bag(id=f"b{i}", instances=buf[lo:hi], label=0)
                for i, (lo, hi) in enumerate(((0, 3), (3, 5)))]
        x, _ = stack_instances(bags, 2)
        assert not np.shares_memory(x, buf)
        np.testing.assert_array_equal(x, buf[:5])

    def test_replaced_instances_are_copied(self, tmp_path):
        # each bag's rows are trusted only while it holds the array it was
        # loaded with: here the last bag drops its first row
        _, loaded = self.dataset(tmp_path)
        split = loaded[:3]
        split[-1].instances = split[-1].instances[1:]
        x, lengths = stack_instances(split, 3)
        assert not np.shares_memory(x, split[0].instances)
        np.testing.assert_array_equal(x, np.concatenate([b.instances for b in split]))
        assert lengths.tolist() == [len(b) for b in split]


class TestScoreBags:
    def net(self, dim=3):
        net = init_params(NetArch(dim, hidden_dims=(4,)), 8)
        net.flat[:] = np.random.default_rng(9).normal(size=net.flat.size)
        return net

    @pytest.mark.parametrize("head", HEADS)
    def test_scores_the_stacked_forward_pass(self, head, tmp_path):
        _, loaded = TestStackInstances().dataset(tmp_path)
        net = self.net()
        preds = forward(net, np.concatenate([b.instances for b in loaded]))[0]
        lengths = np.array([len(b) for b in loaded])
        np.testing.assert_array_equal(score_bags(net, loaded, head, 0.3, EPS),
                                      score_predictions(preds, lengths, head, 0.3, EPS))

    def test_empty_list(self):
        scores = score_bags(self.net(), [], "promil", 0.3, EPS)
        assert scores.dtype == np.float64 and scores.shape == (0,)

    def test_wrong_width_names_the_bag(self):
        rng = np.random.default_rng(10)
        bags = [Bag(id="good", instances=rng.normal(size=(4, 3)), label=0),
                Bag(id="wide-bag", instances=rng.normal(size=(4, 5)), label=1)]
        with pytest.raises(ValueError, match="wide-bag"):
            score_bags(self.net(), bags, "promil", 0.3, EPS)
        with pytest.raises(ValueError, match="good"):
            score_bags(self.net(dim=5), bags, "max", 0.3, EPS)

    def test_wrong_width_names_the_first_loaded_bag(self, tmp_path):
        _, loaded = TestStackInstances().dataset(tmp_path)
        with pytest.raises(ValueError, match=f"bag {loaded[1].id}:"):
            score_bags(self.net(dim=5), loaded[1:], "promil", 0.3, EPS)

    def test_empty_bag_raises(self):
        bag = Bag(id="hollow", instances=np.ones((2, 3)), label=0)
        bag.instances = np.empty((0, 3))
        with pytest.raises(ValueError, match="hollow"):
            score_bags(self.net(), [bag], "mean", 0.3, EPS)

    @pytest.mark.parametrize("instances, message", [
        (np.empty((0, 3)), r"instances of shape \(0, 3\)"),
        (np.zeros((2, 4)), r"instances of shape \(2, 4\)"),
        (np.zeros(3), r"instances of shape \(3,\)"),
        (np.zeros((2, 3), dtype=np.float32), "instances of dtype float32"),
        (np.zeros((2, 3), dtype=np.int64), "instances of dtype int64"),
    ], ids=["empty", "wide", "one-dimensional", "float32", "int64"])
    def test_instances_the_network_cannot_take_name_the_bag(self, instances, message):
        # the forward pass checks nothing: score_bags refuses such a bag
        # before it stacks the split
        bags = [Bag(id="good", instances=np.ones((2, 3)), label=0),
                Bag(id="bad", instances=np.ones((2, 3)), label=1)]
        bags[1].instances = instances
        expect = "expected float64" if "dtype" in message else \
            r"expected a nonempty \(bag_size, 3\) array"
        with pytest.raises(ValueError, match=f"^bag bad: {message}, {expect}$"):
            score_bags(self.net(), bags, "promil", 0.3, EPS)

    def test_level_and_head_are_checked(self):
        bags = [Bag(id="b", instances=np.ones((2, 3)), label=0)]
        with pytest.raises(ValueError, match="q must be"):
            score_bags(self.net(), bags, "promil", 1.0, EPS)
        with pytest.raises(ValueError, match="head must be one of"):
            score_bags(self.net(), bags, "median", 0.3, EPS)

    def test_one_huge_bag_does_not_pad_the_split(self, tmp_path):
        # 600 bags of about 30 and one of 10,001: padding every row to the
        # widest bag would take 601 x 10,001 cells, 48 MB
        rng = np.random.default_rng(11)
        sizes = [*rng.integers(20, 40, size=600), 10001]
        bags = [Bag(id=f"b{i}", instances=rng.normal(size=(n, 2)), label=i % 2)
                for i, n in enumerate(sizes)]
        path = str(tmp_path / "big.npz")
        save_dataset(path, bags)
        loaded = load_dataset(path)[0]
        net = init_params(NetArch(2), 12)
        instance_bytes = sum(b.instances.nbytes for b in loaded)
        score_bags(net, loaded, "promil", 0.3, EPS)      # grow the tables first
        tracemalloc.start()
        try:
            score_bags(net, loaded, "promil", 0.3, EPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * instance_bytes
