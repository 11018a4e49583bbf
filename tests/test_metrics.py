import numpy as np
import pytest

from promil.bagdata import SyntheticSpec, generate_synthetic
from promil.bernstein import DEFAULT_EPS, logit
from promil.heads import head_function
from promil.metrics import _tied_ranks, auc, balanced_accuracy, evaluate
from promil.network import NetArch, NetParams, forward
from promil.training import TrainedModel


def loop_tied_ranks(x):
    """Reference: walk the sorted values, giving each run of ties its mean rank."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    sorted_x = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


def pair_auc(scores, labels):
    """Share of (positive, negative) pairs ranked right; ties count 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum((a > b) + 0.5 * (a == b) for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


def oracle_model(scale=60.0):
    """Logistic net that reproduces the synthetic hidden labels exactly."""
    arch = NetArch(input_dim=2)
    net = NetParams(arch, flat=np.array([scale, 0.0, 0.0]))
    return TrainedModel(net=net, raw_q=logit(0.25),
                        head="promil", val_metric="auc", best_epoch=1,
                        best_value=1.0, epochs_run=1, seed=0)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_enumerated_pairs(self):
        # pairs: (0.35 vs 0.1) win, (0.35 vs 0.4) loss, (0.8 vs both) wins -> 3/4
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("levels", [1, 2, 3, 7, 1000])
    def test_heavy_ties_match_pair_count_and_loop_ranks(self, levels):
        rng = np.random.default_rng(levels)
        for n in (2, 3, 17, 63, 625):
            scores = rng.integers(0, levels, size=n) / levels
            labels = rng.integers(0, 2, size=n)
            labels[:2] = (0, 1)
            assert np.array_equal(_tied_ranks(scores), loop_tied_ranks(scores))
            assert auc(scores, labels) == pytest.approx(pair_auc(scores, labels), abs=1e-12)

    def test_two_bags(self):
        assert auc([0.3, 0.7], [0, 1]) == 1.0
        assert auc([0.7, 0.3], [0, 1]) == 0.0
        assert auc([0.5, 0.5], [1, 0]) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=40)
        labels = rng.integers(0, 2, size=40)
        if labels.sum() in (0, 40):
            labels[0] = 1 - labels[0]
        base = auc(scores, labels)
        for transform in (lambda s: 3 * s + 1, lambda s: s ** 3, np.exp,
                          lambda s: np.log(s + 1e-9)):
            assert auc(transform(scores), labels) == pytest.approx(base, abs=1e-12)

    def test_label_flip_complement(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=30)
        labels = np.array([1] * 10 + [0] * 20)
        assert auc(scores, 1 - labels) == pytest.approx(1.0 - auc(scores, labels),
                                                        abs=1e-12)


class TestBalancedAccuracy:
    def test_perfect(self):
        assert balanced_accuracy([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0

    def test_all_positive_on_balanced_set(self):
        assert balanced_accuracy([1, 1, 1, 1], [1, 0, 1, 0]) == 0.5

    def test_confusion_formula(self):
        # tp=8 fn=2 tn=6 fp=4 -> (0.8 + 0.6)/2 = 0.7
        labels = [1] * 10 + [0] * 10
        preds = [1] * 8 + [0] * 2 + [0] * 6 + [1] * 4
        assert balanced_accuracy(preds, labels) == pytest.approx(0.7, abs=1e-12)

    def test_class_ratio_invariance(self):
        labels = np.array([1] * 10 + [0] * 10)
        rng = np.random.default_rng(2)
        preds = rng.integers(0, 2, size=20)
        base = balanced_accuracy(preds, labels)
        # duplicating every negative bag leaves the value unchanged
        labels2 = np.concatenate([labels, np.zeros(10, dtype=int)])
        preds2 = np.concatenate([preds, preds[10:]])
        assert balanced_accuracy(preds2, labels2) == pytest.approx(base, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            balanced_accuracy([1, 0], [0, 0])


class TestEvaluate:
    def test_oracle_model_is_perfect(self):
        # constant bag size: the bag score is then a fixed strictly
        # increasing function of the positive fraction, so ranking is exact
        spec = SyntheticSpec(n_bags=150, threshold_qstar=0.3, bag_size_mean=20,
                             bag_size_std=0.001)
        bags = generate_synthetic(spec, seed=0)
        result = evaluate(oracle_model(), bags, head="promil")
        assert result.auc == pytest.approx(1.0, abs=1e-9)
        assert result.n_bags == 150
        assert result.tp + result.fp + result.tn + result.fn == 150

    def test_oracle_model_with_varying_sizes(self):
        # size heterogeneity changes each bag's smoothing width, so boundary
        # bags may swap ranks; the separation stays near-perfect
        spec = SyntheticSpec(n_bags=150, threshold_qstar=0.3, bag_size_mean=20,
                             bag_size_std=4)
        bags = generate_synthetic(spec, seed=0)
        result = evaluate(oracle_model(), bags, head="promil")
        assert result.auc > 0.99

    def test_no_signal_data_scores_near_half(self):
        spec = SyntheticSpec(n_bags=400, threshold_qstar=0.3, bag_size_mean=10,
                             class_separation=0.0)
        bags = generate_synthetic(spec, seed=1)
        result = evaluate(oracle_model(scale=1.0), bags, head="promil")
        assert abs(result.auc - 0.5) < 0.1

    def test_max_head_equals_quantile_limit(self):
        from promil.bernstein import estimate_quantile

        spec = SyntheticSpec(n_bags=20, threshold_qstar=0.3, bag_size_mean=6,
                             bag_size_std=2)
        bags = generate_synthetic(spec, seed=2)
        model = oracle_model()
        for bag in bags:
            preds, _ = forward(model.net, bag.instances)
            score = head_function("max")(preds, 0.5, DEFAULT_EPS)[0]
            assert score == estimate_quantile(np.sort(preds), 0)

    def test_balanced_accuracy_from_confusion(self):
        spec = SyntheticSpec(n_bags=100, threshold_qstar=0.4, bag_size_mean=8)
        bags = generate_synthetic(spec, seed=3)
        result = evaluate(oracle_model(), bags, head="mean")
        sens = result.tp / (result.tp + result.fn)
        spec_ = result.tn / (result.tn + result.fp)
        assert result.balanced_accuracy == pytest.approx(0.5 * (sens + spec_), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate(oracle_model(), [], head="max")
