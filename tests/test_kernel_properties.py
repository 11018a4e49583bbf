"""Property tests of the one quantile kernel, through the bag score, the
checked estimate and the kernel itself.

Bags are drawn as (size, seed) pairs and filled by numpy, so sizes up to
10,001 stay cheap to generate and to shrink.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promil.bernstein import DEFAULT_EPS, estimate_quantile, quantile_value_grad
from promil.heads import head_function

LEVELS = st.floats(min_value=0.01, max_value=0.99)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY = settings(max_examples=60, deadline=None)


def bag(size, seed, lo=1e-3, hi=1.0 - 1e-3):
    return np.random.default_rng(seed).uniform(lo, hi, size=size)


def score_bag(preds, head, q, eps=DEFAULT_EPS):
    """One bag's score: the first value of the head's per-bag function."""
    return head_function(head)(preds, q, eps)[0]


@PROPERTY
@given(size=st.integers(1, 400), seed=SEEDS, q=LEVELS)
def test_bag_score_is_permutation_invariant(size, seed, q):
    p = bag(size, seed)
    shuffled = np.random.default_rng(seed + 1).permutation(p)
    assert score_bag(shuffled, "promil", q) == score_bag(p, "promil", q)


@PROPERTY
@given(size=st.integers(1, 400), seed=SEEDS, q=LEVELS)
def test_flip_identity(size, seed, q):
    # c_{1-q}(1 - p) = 1 - c_q(p): complementing reverses the order and
    # moves the binomial mass from index n(1-q) to index nq
    p = bag(size, seed)
    c = score_bag(p, "promil", q)
    assert score_bag(1.0 - p, "promil", 1.0 - q) == pytest.approx(1.0 - c, abs=1e-12)


@PROPERTY
@given(size=st.integers(1, 400), seed=SEEDS, q=LEVELS, bump=st.floats(0.0, 1.0))
def test_monotone_in_each_value(size, seed, q, bump):
    p = bag(size, seed)
    i = int(np.random.default_rng(seed).integers(size))
    raised = p.copy()
    raised[i] += bump * (1.0 - p[i])
    assert score_bag(raised, "promil", q) >= score_bag(p, "promil", q) - 1e-13


@PROPERTY
@given(size=st.integers(1, 400), seed=SEEDS, q=LEVELS, r=LEVELS)
def test_nonincreasing_in_q(size, seed, q, r):
    p = bag(size, seed)
    lo, hi = min(q, r), max(q, r)
    assert score_bag(p, "promil", hi) <= score_bag(p, "promil", lo) + 1e-13


@PROPERTY
@given(size=st.integers(1, 10_001), seed=SEEDS, q=st.floats(0.02, 0.98))
def test_gradients_match_finite_differences(size, seed, q):
    v = np.sort(bag(size, seed))
    _, grad_values, grad_q = quantile_value_grad(v, q, DEFAULT_EPS)
    h = 1e-6
    # the estimate is linear in the unclamped values: check the derivative
    # along one random direction
    d = np.random.default_rng(seed + 2).uniform(-1.0, 1.0, size=size)
    fd = (_in_given_order(v + h * d, q) - _in_given_order(v - h * d, q)) / (2 * h)
    assert float(grad_values @ d) == pytest.approx(fd, rel=1e-5, abs=1e-7)
    fd_q = (estimate_quantile(v, q + h) - estimate_quantile(v, q - h)) / (2 * h)
    assert grad_q == pytest.approx(fd_q, rel=1e-5, abs=1e-6)


def _in_given_order(values, q):
    """The estimate with the k-th weight on values[k], without re-sorting."""
    return quantile_value_grad(values, q, DEFAULT_EPS)[0]
