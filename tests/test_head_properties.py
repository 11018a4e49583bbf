"""Property tests of the instance+max and instance+mean heads, through the
bag score and the composed cost gradients of ``bag_cost_and_grads``, and of
every head's split scores against its bag scores.

Bags are drawn as (size, seed) pairs and filled by numpy, as in
test_kernel_properties.py.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from promil import heads
from promil.bagdata import Bag
from promil.bernstein import DEFAULT_EPS, level, logit
from promil.heads import HEADS, head_function
from promil.network import NetArch, forward, init_params
from promil.training import TrainConfig, bag_cost_and_grads

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SIZES = st.integers(1, 400)
PROPERTY = settings(max_examples=60, deadline=None)


def bag(size, seed):
    return np.random.default_rng(seed).uniform(1e-3, 1.0 - 1e-3, size=size)


def score_bag(preds, head, q, eps=DEFAULT_EPS):
    """One bag's score: the first value of the head's per-bag function."""
    return head_function(head)(preds, q, eps)[0]


@PROPERTY
@given(size=SIZES, seed=SEEDS)
def test_permutation_invariant(size, seed):
    p = bag(size, seed)
    shuffled = np.random.default_rng(seed + 1).permutation(p)
    assert score_bag(shuffled, "max", 0.5) == score_bag(p, "max", 0.5)
    # the mean's summation order follows the permutation
    assert score_bag(shuffled, "mean", 0.5) == pytest.approx(score_bag(p, "mean", 0.5),
                                                             rel=1e-13)


@PROPERTY
@given(size=SIZES, seed=SEEDS, bump=st.floats(0.0, 1.0))
def test_monotone_in_each_value(size, seed, bump):
    p = bag(size, seed)
    i = int(np.random.default_rng(seed).integers(size))
    raised = p.copy()
    raised[i] += bump * (1.0 - p[i])
    assert score_bag(raised, "max", 0.5) >= score_bag(p, "max", 0.5)
    assert score_bag(raised, "mean", 0.5) >= score_bag(p, "mean", 0.5)


@PROPERTY
@given(size=SIZES, seed=SEEDS)
def test_complement_identities(size, seed):
    p = bag(size, seed)
    assert score_bag(1.0 - p, "mean", 0.5) == pytest.approx(1.0 - score_bag(p, "mean", 0.5),
                                                            abs=1e-13)
    assert score_bag(1.0 - p, "max", 0.5) == 1.0 - p.min()


@PROPERTY
@given(size=st.integers(1, 40), seed=SEEDS, head=st.sampled_from(("max", "mean")),
       hidden=st.sampled_from(((), (4,))), label=st.integers(0, 1))
def test_cost_gradients_match_finite_differences(size, seed, head, hidden, label):
    rng = np.random.default_rng(seed)
    arch = NetArch(input_dim=3, hidden_dims=hidden, activation="tanh")
    net = init_params(arch, seed=seed)
    net.flat += rng.normal(size=net.flat.size) * 0.4
    b = Bag(id="b", instances=rng.normal(size=(size, 3)), label=label)
    h = 1e-6
    if head == "max" and size > 1:
        # a step of h must not move the argmax: keep away from near-ties
        top = np.sort(forward(net, b.instances)[0])[-2:]
        assume(top[1] - top[0] > 1e-4)
    cfg = TrainConfig(seed=0)
    q = level(logit(0.3))
    _, grads, grad_raw = bag_cost_and_grads(net, q, b, cfg, head=head)
    assert grad_raw == 0.0
    d = rng.uniform(-1.0, 1.0, size=net.flat.size)
    theta = net.flat.copy()
    costs = []
    for sign in (1.0, -1.0):
        net.flat[:] = theta + sign * h * d
        costs.append(bag_cost_and_grads(net, q, b, cfg, head=head)[0])
    fd = (costs[0] - costs[1]) / (2 * h)
    assert float(grads.flat @ d) == pytest.approx(fd, rel=1e-5, abs=1e-7)


@PROPERTY
@given(lengths=st.lists(st.one_of(st.integers(1, 6), SIZES), min_size=1, max_size=30),
       seed=SEEDS, q=st.floats(1e-6, 1.0 - 1e-6), head=st.sampled_from(HEADS))
def test_split_scores_are_bag_scores_bit_for_bit(lengths, seed, q, head):
    # short lengths repeat, so bags share a block; some predictions sit
    # below the clamp
    eps = 1e-3
    lengths = np.array(lengths, dtype=np.int64)
    rng = np.random.default_rng(seed)
    preds = rng.uniform(0.0, 1.0, size=int(lengths.sum()))
    preds[rng.uniform(size=preds.size) < 0.1] *= eps
    got = heads._score_split(preds, lengths, heads._HEADS[head][1], q, eps)
    ends = np.cumsum(lengths)
    want = [score_bag(preds[end - n:end], head, q, eps) for end, n in zip(ends, lengths)]
    assert got.tolist() == want
