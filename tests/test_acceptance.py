"""Acceptance suite: one test per release criterion.

Each criterion prints one PASS/FAIL line (run with ``pytest -v -s`` to see
them live).  Criterion 6 needs user-supplied MNIST IDX files and skips
when they are absent.
"""

import json
import os
import pathlib

import mpmath
import numpy as np
import pytest

from promil.bagdata import SyntheticSpec, generate_synthetic, load_idx, split_dataset
from promil.bernstein import (
    DEFAULT_EPS,
    estimate_quantile,
    level,
    logit,
    quantile_value_grad,
)
from promil.cli import load_model, main as cli_main
from promil.metrics import auc, balanced_accuracy, evaluate
from promil.network import NetArch, init_params
from promil.training import TrainConfig, bag_cost_and_grads, init_train_state, train

Q_GRID = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def default_dataset(qstar=0.3, seed=42, n_bags=625):
    spec = SyntheticSpec(n_bags=n_bags, threshold_qstar=qstar)
    bags = generate_synthetic(spec, seed=seed)
    return split_dataset(bags, (0.8, 0.1, 0.1), seed=seed)


def run_experiment(split, seed, head, max_epochs=100):
    cfg = TrainConfig(seed=seed, val_metric="loss", max_epochs=max_epochs)
    state = init_train_state(NetArch(input_dim=split.train[0].instances.shape[1]),
                             cfg)
    model = train(state, split, cfg, head=head)
    return model, evaluate(model, split.test, head=head)


class TestCriterion1Gradients:
    def test_quantile_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(1001)
        h = 1e-6
        worst = 0.0
        for _ in range(30):
            n_plus_1 = int(rng.integers(2, 30))
            values = np.sort(rng.uniform(0.05, 0.95, size=n_plus_1))
            while np.min(np.diff(values)) < 1e-3:
                values = np.sort(rng.uniform(0.05, 0.95, size=n_plus_1))
            q = float(rng.uniform(0.05, 0.95))
            _, grad_values, grad_q = quantile_value_grad(values, q, DEFAULT_EPS)
            fd_q = (estimate_quantile(values, q + h)
                    - estimate_quantile(values, q - h)) / (2 * h)
            worst = max(worst, abs(grad_q - fd_q) / max(abs(fd_q), abs(grad_q), 1e-4))
            for k in range(n_plus_1):
                vp, vm = values.copy(), values.copy()
                vp[k] += h
                vm[k] -= h
                fd = (estimate_quantile(vp, q) - estimate_quantile(vm, q)) / (2 * h)
                worst = max(worst,
                            abs(grad_values[k] - fd) / max(abs(fd), abs(grad_values[k]), 1e-4))
        ok = worst < 1e-5
        assert report(1, ok, f"quantile analytic vs central differences: worst "
                             f"relative error {worst:.2e} over 30 configs (< 1e-5)")

    def test_composed_cost_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(1002)
        cfg = TrainConfig(seed=0)
        h = 1e-6
        worst = 0.0
        configs = 0
        for trial in range(24):
            hidden = [(), (5,), (8, 4)][trial % 3]
            act = ("relu", "tanh")[trial % 2]
            arch = NetArch(input_dim=4, hidden_dims=hidden, activation=act)
            net = init_params(arch, seed=trial + 1)
            for w in net.weights:
                w += rng.normal(size=w.shape) * 0.4
            from promil.bagdata import Bag
            bag = Bag(id=f"g{trial}", instances=rng.normal(size=(int(rng.integers(2, 10)), 4)),
                      label=int(rng.integers(0, 2)))
            raw = logit(float(rng.uniform(0.1, 0.9)))
            _, grads, grad_raw = bag_cost_and_grads(net, level(raw), bag, cfg)

            def cost():
                return bag_cost_and_grads(net, level(raw), bag, cfg)[0]

            for arr, garr in zip(net.weights + net.biases,
                                 grads.weights + grads.biases):
                flat, gflat = arr.ravel(), np.asarray(garr).ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = cost()
                    flat[idx] = orig - h
                    down = cost()
                    flat[idx] = orig
                    fd = (up - down) / (2 * h)
                    worst = max(worst, abs(gflat[idx] - fd) / max(abs(fd), abs(gflat[idx]), 1e-4))
            q_up, q_down = level(raw + h), level(raw - h)
            fd_raw = (bag_cost_and_grads(net, q_up, bag, cfg)[0]
                      - bag_cost_and_grads(net, q_down, bag, cfg)[0]) / (2 * h)
            worst = max(worst, abs(grad_raw - fd_raw) / max(abs(fd_raw), abs(grad_raw), 1e-4))
            configs += 1
        ok = worst < 1e-4 and configs >= 20
        assert report(1, ok, f"composed per-bag cost analytic vs central differences: "
                             f"worst relative error {worst:.2e} over {configs} configs (< 1e-4)")


class TestCriterion2OracleEquivalence:
    def test_log_domain_matches_direct_summation(self):
        rng = np.random.default_rng(2001)
        worst = 0.0
        with mpmath.workdps(50):
            for n_plus_1 in range(1, 32):
                values = np.sort(rng.uniform(size=n_plus_1))
                for q in Q_GRID:
                    got = estimate_quantile(values, q)
                    n = n_plus_1 - 1
                    want = float(sum(
                        mpmath.binomial(n, k) * mpmath.mpf(q) ** (n - k)
                        * (1 - mpmath.mpf(q)) ** k
                        * max(mpmath.mpf(float(v)), mpmath.mpf(1e-7))
                        for k, v in enumerate(values)
                    ))
                    worst = max(worst, abs(got - want))
        rng = np.random.default_rng(2002)
        big = np.sort(rng.uniform(size=10_001))
        finite = all(np.isfinite(estimate_quantile(big, q)) for q in Q_GRID)
        ok = worst < 1e-9 and finite
        assert report(2, ok, f"log-domain vs 50-digit direct summation: worst abs "
                             f"error {worst:.2e} for sizes <= 31 (< 1e-9); "
                             f"finite at n=10,000: {finite}")


class TestCriterion3ExactIdentities:
    def test_identities(self):
        worst_grid = 0.0
        for n in (1, 2, 5, 10, 50, 100):
            values = np.arange(n + 1) / n
            for q in Q_GRID:
                # tiny eps so the p_0 = 0 clamp cannot mask the identity
                got = estimate_quantile(values, q, eps=1e-300)
                worst_grid = max(worst_grid, abs(got - (1.0 - q)))
        default_eps_case = abs(estimate_quantile(np.arange(11) / 10, 0.3) - 0.7)
        rng = np.random.default_rng(3001)
        values = np.sort(rng.uniform(size=13))
        bound_ok = (estimate_quantile(values, 0) == values[-1]
                    and estimate_quantile(values, 1) == values[0])
        const_ok = all(
            abs(estimate_quantile(np.full(k, 0.37), q) - 0.37) < 1e-12
            for k in (1, 2, 9) for q in Q_GRID
        )
        ok = worst_grid < 1e-12 and default_eps_case < 1e-12 and bound_ok and const_ok
        assert report(3, ok, f"linear grid == 1-q (worst {worst_grid:.2e} < 1e-12, "
                             f"default-eps spot check {default_eps_case:.2e}); "
                             f"q=0 -> max and q=1 -> min: {bound_ok}; "
                             f"constant bags fixed: {const_ok}")


@pytest.mark.slow
class TestCriterion4ThresholdRecovery:
    def test_learned_q_near_generator_threshold(self):
        split = default_dataset(qstar=0.3, seed=42)
        # precondition: the instance problem is separable enough for a
        # logistic classifier (oracle boundary accuracy >= 99%)
        X = np.vstack([b.instances for b in split.train])
        y = np.concatenate([b.hidden_instance_labels for b in split.train])
        oracle_acc = np.mean((X[:, 0] > 0).astype(int) == y)
        assert oracle_acc >= 0.99, f"dataset not separable enough ({oracle_acc:.4f})"
        hits, learned = 0, []
        for seed in range(1, 6):
            model, result = run_experiment(split, seed, "promil", max_epochs=300)
            learned.append(model.learned_q)
            if abs(model.learned_q - 0.3) <= 0.1:
                hits += 1
        ok = hits >= 4
        assert report(4, ok, f"learned q within +-0.1 of q*=0.3 in {hits}/5 seeds "
                             f"(need >= 4); values: {[f'{q:.3f}' for q in learned]}")


@pytest.mark.slow
class TestCriterion5MethodOrdering:
    def test_promil_auc_floor_and_margins(self):
        results = {}
        for qstar in (0.3, 0.4):
            per_head = {}
            for head in ("promil", "max", "mean"):
                aucs = []
                for seed in range(1, 6):
                    split = default_dataset(qstar=qstar, seed=100 + seed)
                    _, result = run_experiment(split, seed, head)
                    aucs.append(result.auc)
                per_head[head] = float(np.mean(aucs))
            results[qstar] = per_head
        floor_ok = all(r["promil"] >= 0.95 for r in results.values())
        max_ok = all(r["promil"] - r["max"] >= 0.05 for r in results.values())
        mean_ok = all(r["promil"] - r["mean"] >= 0.05 for r in results.values())
        detail = "; ".join(
            f"q*={q}: promil {r['promil']:.4f}, max {r['max']:.4f}, "
            f"mean {r['mean']:.4f}" for q, r in results.items()
        )
        ok = floor_ok and max_ok and mean_ok
        report(5, ok, f"{detail} (need promil >= 0.95, margins >= 0.05 over both)")
        assert floor_ok, "ProMIL mean AUC below 0.95"
        assert max_ok, "margin over instance+max below 0.05"
        # On two separable isotropic Gaussian clusters with a percentage
        # label, the bag mean of any monotone instance scorer is itself
        # monotone in the positive fraction that defines the label, so a
        # trained instance+mean baseline ranks bags near-perfectly and no
        # 0.05 AUC margin over it exists on this data family.
        assert mean_ok, "margin over instance+mean below 0.05"


MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def find_mnist():
    root = pathlib.Path(os.environ.get("PROMIL_MNIST_DIR", "data/mnist"))
    if all((root / f).exists() for f in MNIST_FILES):
        return root
    return None


class TestCriterion6MnistBags:
    def test_mnist_bag_auc(self):
        root = find_mnist()
        if root is None:
            pytest.skip("user-supplied MNIST IDX files not found "
                        "(set PROMIL_MNIST_DIR or place them in data/mnist/)")
        from promil.bagdata import DatasetSplit, make_mnist_bags

        tr_images, tr_labels = load_idx(root / MNIST_FILES[0], root / MNIST_FILES[1])
        te_images, te_labels = load_idx(root / MNIST_FILES[2], root / MNIST_FILES[3])
        spec = SyntheticSpec(n_bags=1125, threshold_qstar=0.4)
        pool = make_mnist_bags(tr_images, tr_labels, spec, seed=0)
        inner = split_dataset(pool, (8 / 9, 1 / 9, 0.0), seed=0)
        test_spec = SyntheticSpec(n_bags=250, threshold_qstar=0.4)
        test = make_mnist_bags(te_images, te_labels, test_spec, seed=1)
        split = DatasetSplit(train=inner.train[:1000], validation=inner.validation,
                             test=test)
        aucs = {}
        for head in ("promil", "max", "mean"):
            cfg = TrainConfig(seed=0, val_metric="loss")
            state = init_train_state(
                NetArch(input_dim=784, hidden_dims=(32,)), cfg)
            model = train(state, split, cfg, head=head)
            aucs[head] = evaluate(model, split.test, head=head).auc
        ok = aucs["promil"] >= 0.90 and aucs["promil"] > max(aucs["max"], aucs["mean"])
        assert report(6, ok, f"MNIST-bag q*=0.4: promil {aucs['promil']:.4f} "
                             f"(>= 0.90), max {aucs['max']:.4f}, mean {aucs['mean']:.4f}")


class TestCriterion7DeskScaleSubstitution:
    def test_metrics_property_suite_stands_in(self):
        # The published full-scale clinical results (whole-slide pathology
        # and ultrasound video) need private multi-gigabyte datasets and
        # pretrained backbones; they are NOT reproduced here.  Criteria 1-6
        # plus these metric identities are the desk-scale substitute.
        rng = np.random.default_rng(7001)
        scores = rng.uniform(size=60)
        labels = rng.integers(0, 2, size=60)
        labels[0], labels[1] = 1, 0
        base = auc(scores, labels)
        monotone_ok = all(
            abs(auc(t(scores), labels) - base) < 1e-12
            for t in (lambda s: 5 * s - 2, lambda s: s ** 3, np.exp)
        )
        flip_ok = abs(auc(scores, 1 - labels) - (1 - base)) < 1e-12
        preds = rng.integers(0, 2, size=60)
        preds_dup = np.concatenate([preds, preds[labels == 0]])
        labels_dup = np.concatenate([labels, labels[labels == 0]])
        dup_ok = abs(balanced_accuracy(preds_dup, labels_dup)
                     - balanced_accuracy(preds, labels)) < 1e-12
        ok = monotone_ok and flip_ok and dup_ok
        assert report(7, ok, "published full-scale clinical table values are out of "
                             "desk-scale reach (private data, pretrained backbones); "
                             f"substitute metric identities hold: monotone-transform "
                             f"invariance {monotone_ok}, label-flip complement {flip_ok}, "
                             f"negative-duplication invariance {dup_ok}")


class TestCriterion8DeterminismPersistence:
    def test_sweep_reproducibility_and_model_roundtrip(self, tmp_path):
        cfg_doc = {
            "schema": "promil-config/1",
            "seed": 5,
            "dataset": {"n_bags": 50, "threshold_qstar": 0.3, "bag_size_mean": 6,
                        "bag_size_std": 2, "class_separation": 5.0},
            "split_fractions": [0.6, 0.2, 0.2],
            "train": {"max_epochs": 3, "patience": 3, "q_init": 0.3,
                      "val_metric": "loss"},
            "repeats": 2,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_doc))
        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out in (s1, s2):
            code = cli_main(["sweep", "--config", str(cfg), "--axis", "threshold",
                             "--values", "0.3,0.5", "--out", str(out)])
            assert code == 0
        sweep_ok = s1.read_bytes() == s2.read_bytes()

        data, model_path = tmp_path / "d.json", tmp_path / "m.json"
        assert cli_main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
        assert cli_main(["train", str(data), "--config", str(cfg),
                         "--out", str(model_path)]) == 0
        from promil.bagdata import load_dataset
        from promil.heads import score_bags
        bags, _, _ = load_dataset(data)
        model = load_model(model_path)
        reloaded = load_model(model_path)

        def scores(m):
            return score_bags(m.net, bags, "promil", m.learned_q, DEFAULT_EPS).tolist()

        roundtrip_ok = scores(model) == scores(reloaded)
        for wa, wb in zip(model.net.weights, reloaded.net.weights):
            roundtrip_ok = roundtrip_ok and np.array_equal(wa, wb)
        ok = sweep_ok and roundtrip_ok
        assert report(8, ok, f"identical (config, seed) sweep CSVs byte-identical: "
                             f"{sweep_ok}; model save/load preserves every bag score "
                             f"bitwise: {roundtrip_ok}")
