"""Quantile estimator tests.

Expected values come from three independent sources: hand-expanded small
cases, exact factorial arithmetic, and a high-precision direct summation
oracle (mpmath at 50 digits) that never touches the log-domain code path.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from promil.bernstein import (
    DEFAULT_EPS,
    QuantileParam,
    estimate_quantile,
    estimate_quantile_limit,
    quantile_gradients,
    quantile_value_grad,
)

Q_GRID = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]


def direct_quantile(values, q, eps=DEFAULT_EPS):
    """Brute-force summation of the estimator at 50 digits."""
    with mpmath.workdps(50):
        n = len(values) - 1
        total = mpmath.mpf(0)
        for k, v in enumerate(values):
            w = mpmath.binomial(n, k) * mpmath.mpf(q) ** (n - k) * (1 - mpmath.mpf(q)) ** k
            total += w * max(mpmath.mpf(float(v)), mpmath.mpf(eps))
        return float(total)


def weights(n, q):
    """The kernel's weights w_0..w_n at level q, read off quantile_gradients
    on n + 1 values that the clamp leaves alone."""
    grad_values, _ = quantile_gradients(np.full(n + 1, 0.5), q)
    return grad_values


def log_binomial(n, k):
    """log C(n, k) from the kernel's log-factorial table: at q = 1/2 the
    k-th weight is C(n, k) / 2^n."""
    return math.log(weights(n, 0.5)[k]) + n * math.log(2.0)


class TestLogBinomial:
    def test_edge_cases(self):
        assert log_binomial(5, 0) == pytest.approx(0.0, abs=1e-14)
        assert log_binomial(1, 1) == pytest.approx(0.0, abs=1e-14)
        assert log_binomial(0, 0) == pytest.approx(0.0, abs=1e-14)

    def test_against_exact_factorials(self):
        # 5!/(2! 3!) = 10, and a grid cross-check against integer arithmetic
        assert log_binomial(5, 2) == pytest.approx(math.log(10), rel=1e-13)
        for n in (1, 2, 7, 20, 60):
            for k in range(n + 1):
                assert log_binomial(n, k) == pytest.approx(
                    math.log(math.comb(n, k)), rel=1e-12, abs=1e-12
                )


class TestLogWeights:
    def test_single_term(self):
        np.testing.assert_allclose(np.log(weights(0, 0.3)), [0.0], atol=1e-14)

    def test_symmetric_coin(self):
        np.testing.assert_allclose(
            np.log(weights(1, 0.5)), [math.log(0.5)] * 2, rtol=1e-13
        )

    def test_hand_expanded_n2(self):
        # C(2,k) 0.3^(2-k) 0.7^k = [0.09, 0.42, 0.49]
        np.testing.assert_allclose(weights(2, 0.3), [0.09, 0.42, 0.49], rtol=1e-13)

    def test_normalization_up_to_n200(self):
        for n in (1, 2, 3, 5, 10, 50, 100, 200):
            for q in np.arange(0.01, 1.0, 0.09):
                log_total = np.log(weights(n, q).sum())
                assert abs(log_total) < 1e-10, f"n={n} q={q}: log of the sum={log_total}"

    def test_domain_errors(self):
        for q in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                weights(3, q)
        with pytest.raises(ValueError):
            weights(-1, 0.5)


class TestEstimateQuantile:
    def test_singleton(self):
        for q in Q_GRID:
            assert estimate_quantile(np.array([0.7]), q) == pytest.approx(0.7, abs=1e-14)

    def test_constant_bag(self):
        values = np.full(4, 0.4)
        for q in Q_GRID:
            assert estimate_quantile(values, q) == pytest.approx(0.4, abs=1e-13)

    def test_linear_grid_identity(self):
        # p_k = k/n makes the estimate E[K]/n = 1 - q exactly
        values = np.arange(11) / 10.0
        assert estimate_quantile(values, 0.3) == pytest.approx(0.7, abs=1e-12)

    def test_matches_direct_summation(self):
        got = estimate_quantile(np.array([0.1, 0.2, 0.9]), 0.25)
        assert got == pytest.approx(direct_quantile([0.1, 0.2, 0.9], 0.25), abs=1e-12)

    def test_oracle_equivalence_random_bags(self):
        rng = np.random.default_rng(20240)
        for trial in range(40):
            n_plus_1 = int(rng.integers(1, 32))
            values = np.sort(rng.uniform(size=n_plus_1))
            q = float(rng.choice(Q_GRID))
            got = estimate_quantile(values, q)
            want = direct_quantile(values, q)
            assert got == pytest.approx(want, abs=1e-9), f"trial {trial}"

    def test_range_and_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            values = np.sort(rng.uniform(size=int(rng.integers(1, 40))))
            q = float(rng.uniform(0.01, 0.99))
            est = estimate_quantile(values, q)
            assert values[0] - DEFAULT_EPS <= est <= values[-1] + 1e-15
            assert 0.0 <= est <= 1.0

    def test_monotone_in_values(self):
        rng = np.random.default_rng(11)
        values = np.sort(rng.uniform(size=9))
        base = estimate_quantile(values, 0.4)
        for k in range(9):
            bumped = values.copy()
            ceiling = bumped[k + 1] if k + 1 < 9 else 1.0
            bumped[k] = min(1.0, 0.5 * (bumped[k] + ceiling))
            assert estimate_quantile(bumped, 0.4) >= base - 1e-12

    def test_nonincreasing_in_q(self):
        rng = np.random.default_rng(13)
        values = np.sort(rng.uniform(size=15))
        estimates = [estimate_quantile(values, q) for q in Q_GRID]
        assert all(a >= b - 1e-12 for a, b in zip(estimates, estimates[1:]))

    def test_large_bag_stays_finite(self):
        rng = np.random.default_rng(17)
        values = np.sort(rng.uniform(size=10_001))
        for q in (0.05, 0.3, 0.7, 0.95):
            est = estimate_quantile(values, q)
            assert np.isfinite(est)
            assert 0.0 <= est <= 1.0

    def test_consistency_uniform_samples(self):
        # sorted U(0,1) samples: the estimate approaches 1 - q as n grows
        rng = np.random.default_rng(19)
        for q in (0.25, 0.5, 0.75):
            deviations = []
            for _ in range(50):
                values = np.sort(rng.uniform(size=2000))
                deviations.append(abs(estimate_quantile(values, q) - (1.0 - q)))
            assert np.mean(deviations) < 0.03

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            estimate_quantile(np.array([]), 0.5)
        with pytest.raises(ValueError):
            estimate_quantile(np.array([0.5]), 0.0)
        with pytest.raises(ValueError):
            estimate_quantile(np.array([0.5]), 1.0)
        with pytest.raises(ValueError):
            estimate_quantile(np.array([0.5]), 0.5, eps=0.0)
        with pytest.raises(ValueError):
            estimate_quantile(np.array([0.9, 0.1]), 0.5)


class TestQuantileGradients:
    def test_singleton(self):
        grad_values, grad_q = quantile_gradients(np.array([0.7]), 0.4)
        np.testing.assert_allclose(grad_values, [1.0], atol=1e-14)
        assert grad_q == pytest.approx(0.0, abs=1e-14)

    def test_constant_bag_has_zero_q_gradient(self):
        grad_values, grad_q = quantile_gradients(np.full(7, 0.6), 0.3)
        assert grad_q == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad_values.sum(), 1.0, rtol=1e-12)

    def test_finite_difference_match(self):
        rng = np.random.default_rng(20241)
        h = 1e-6
        for trial in range(100):
            # keep values separated by >> h so perturbations preserve the order
            n_plus_1 = int(rng.integers(1, 25))
            values = np.sort(rng.uniform(0.05, 0.95, size=n_plus_1))
            while n_plus_1 > 1 and np.min(np.diff(values)) < 1e-3:
                values = np.sort(rng.uniform(0.05, 0.95, size=n_plus_1))
            q = float(rng.uniform(0.05, 0.95))
            grad_values, grad_q = quantile_gradients(values, q)
            fd_q = (estimate_quantile(values, q + h)
                    - estimate_quantile(values, q - h)) / (2 * h)
            # scale floor 1e-4 keeps the check meaningful where the central
            # difference itself bottoms out in float roundoff (~5e-11)
            scale = max(abs(fd_q), abs(grad_q), 1e-4)
            assert abs(grad_q - fd_q) / scale < 1e-5, f"trial {trial}: grad_q"
            for k in range(n_plus_1):
                vp, vm = values.copy(), values.copy()
                vp[k] += h
                vm[k] -= h
                fd_k = (estimate_quantile(vp, q) - estimate_quantile(vm, q)) / (2 * h)
                scale = max(abs(fd_k), abs(grad_values[k]), 1e-4)
                assert abs(grad_values[k] - fd_k) / scale < 1e-5, f"trial {trial}: k={k}"

    def test_clamped_values_get_zero_gradient(self):
        values = np.array([0.0, 1e-9, 0.5, 0.9])
        grad_values, _ = quantile_gradients(values, 0.3, eps=1e-7)
        assert grad_values[0] == 0.0
        assert grad_values[1] == 0.0
        assert grad_values[2] > 0.0
        assert grad_values[3] > 0.0


class TestQuantileLimit:
    def test_boundaries(self):
        values = np.array([0.1, 0.5, 0.9])
        assert estimate_quantile_limit(values, 0) == 0.9
        assert estimate_quantile_limit(values, 1) == 0.1
        assert estimate_quantile_limit(np.array([0.42]), 0) == 0.42

    def test_interior_q_rejected(self):
        with pytest.raises(ValueError):
            estimate_quantile_limit(np.array([0.5]), 0.5)

    def test_small_q_approaches_limit(self):
        values = np.sort(np.random.default_rng(3).uniform(size=12))
        assert estimate_quantile(values, 1e-9) == pytest.approx(values[-1], abs=1e-6)
        assert estimate_quantile(values, 1 - 1e-9) == pytest.approx(values[0], abs=1e-6)


class TestQuantileParam:
    def test_always_interior(self):
        for raw in (-50.0, -1.0, 0.0, 1.0, 50.0):
            assert 0.0 < QuantileParam(raw).q < 1.0

    def test_from_q_roundtrip(self):
        for q in (0.01, 0.3, 0.5, 0.99):
            assert QuantileParam.from_q(q).q == pytest.approx(q, rel=1e-12)
        with pytest.raises(ValueError):
            QuantileParam.from_q(0.0)
        with pytest.raises(ValueError):
            QuantileParam.from_q(1.0)


def former_kernel(values, q, eps):
    """``quantile_value_grad`` before the per-length rows, the clamp-free
    branch and the dot products for grad_q, kept as its reference."""
    n = values.size - 1
    lf = gammaln(np.arange(1.0, n + 2.0))
    k = np.arange(n + 1.0)
    w = np.exp(lf[n] - lf[k.astype(int)] - lf[n::-1] + k[::-1] * np.log(q)
               + k * np.log1p(-q))
    wg = w * np.maximum(values, eps)
    grad_q = float((wg * (k[::-1] / q - k / (1.0 - q))).sum())
    return float(wg.sum()), np.where(values >= eps, w, 0.0), grad_q, wg


@pytest.mark.parametrize("size", [1, 2, 3, 30, 31, 301, 3001, 10001])
def test_kernel_against_its_former_form(size):
    # value and weights bit for bit, with and without clamped values, also
    # when the length's row is served from the store; grad_q to within the
    # rounding of an (n + 1)-term sum
    rng = np.random.default_rng(size)
    for q in (1e-3, 0.05, 0.3, 0.5, 0.9, 0.999):
        for low in (0, max(1, size // 10)):
            values = rng.uniform(size=size)
            values[:low] = rng.uniform(0.0, DEFAULT_EPS, size=low)
            values.sort()
            value, w, grad_q, wg = former_kernel(values, q, DEFAULT_EPS)
            for _ in range(2):
                got = quantile_value_grad(values, q, DEFAULT_EPS)
                assert got[0] == value
                np.testing.assert_array_equal(got[1], w)
                k = np.arange(size)
                scale = np.abs(wg * ((size - 1 - k) / q - k / (1.0 - q))).sum()
                assert abs(got[2] - grad_q) <= (size + 8) * 2.0 ** -52 * scale
