"""Bag-level scoring heads, the one scoring path, and the bag decision rule.

One table maps each head name to two functions.  The first scores one bag,
``(preds, q, eps, grads)``: with ``grads=False`` it returns the bag score;
with ``grads=True`` it returns ``(score, d score/d preds, d score/d q)``.
Training uses it bag by bag.  The second scores a whole split at once,
``(preds, lengths, q, eps)`` on the predictions of consecutive bags, and
gives each bag the score of the first to within rounding.  The quantile
head sorts the predictions ascending (stable, so gradient routing is
reproducible under ties) and evaluates the Bernstein estimator at q.  The
max and mean heads are the classic instance-based baselines and do not
depend on q.

``score_bags`` is the one scoring path of validation, ``evaluate`` and
``sweep``: one forward pass over the split's stacked instances, then the
split function of the head.
"""

import numpy as np

from .bagdata import stack_instances
from .bernstein import DEFAULT_EPS, check_level, quantile_rows, quantile_value_grad
from .network import forward_bag


def _promil(preds, q, eps, grads):
    perm = preds.argsort(kind="stable")
    if not grads:
        return quantile_value_grad(preds[perm], q, eps, grads=False)
    value, w, dq = quantile_value_grad(preds[perm], q, eps)
    dpreds = np.empty(preds.size)
    dpreds[perm] = w
    return value, dpreds, dq


def _promil_split(preds, lengths, q, eps):
    # One padded block per power-of-two length class: a bag of n
    # predictions sits in a row of the class's widest bag, fewer than 2n
    # cells, so a block holds at most twice its predictions.  NaN padding
    # sorts after every number and after a NaN prediction, so a bag's own
    # predictions stay in its leading cells, and a NaN among them still
    # reaches its score.
    starts = np.cumsum(lengths) - lengths
    length_class = np.frexp(lengths)[1]
    scores = np.empty(lengths.size)
    for c in np.unique(length_class):
        rows = np.flatnonzero(length_class == c)
        n = lengths[rows]
        inside = np.arange(n.max()) < n[:, None]
        block = np.full(inside.shape, np.nan)
        # the class's predictions, bag after bag, fill the cells of
        # ``inside`` in row-major order
        shift = np.repeat(starts[rows] - (np.cumsum(n) - n), n)
        block[inside] = preds[np.arange(n.sum()) + shift]
        block.sort(axis=1)
        scores[rows] = quantile_rows(block, n - 1, q, eps)
    return scores


def _max(preds, q, eps, grads):
    j = int(np.argmax(preds))
    if not grads:
        return float(preds[j])
    dpreds = np.zeros_like(preds)
    dpreds[j] = 1.0
    return float(preds[j]), dpreds, 0.0


def _max_split(preds, lengths, q, eps):
    return np.maximum.reduceat(preds, np.cumsum(lengths) - lengths)


def _mean(preds, q, eps, grads):
    if not grads:
        return float(preds.mean())
    return float(preds.mean()), np.full_like(preds, 1.0 / preds.size), 0.0


def _mean_split(preds, lengths, q, eps):
    return np.add.reduceat(preds, np.cumsum(lengths) - lengths) / lengths


_HEADS = {"promil": (_promil, _promil_split), "max": (_max, _max_split),
          "mean": (_mean, _mean_split)}
HEADS = tuple(_HEADS)


def _entry(head):
    try:
        return _HEADS[head]
    except KeyError:
        raise ValueError(f"head must be one of {HEADS}, got {head!r}") from None


def head_function(head):
    """The per-bag table entry for ``head``; an unknown name raises
    ValueError."""
    return _entry(head)[0]


def score_bag(predictions, head, q=None, eps=DEFAULT_EPS):
    """The score of one bag under ``head``, a float.

    ``predictions`` is a nonempty 1-D float64 array, as ``forward_bag``
    returns.  q and eps are not checked here; ``score_bags`` checks them
    once per split.
    """
    if predictions.size == 0:
        raise ValueError("a bag needs at least one prediction")
    return head_function(head)(predictions, q, eps, False)


def score_bags(net, bags, head, q, eps):
    """Score every bag of a split under ``head``: the one scoring path of
    validation, ``evaluate`` and ``sweep``.  Returns a float64 array.

    The split's instances go through the network in one forward pass.  A
    bag that is empty or whose width is not the network's input_dim raises
    ValueError naming it.
    """
    check_level(q, eps)
    score_split = _entry(head)[1]
    if not bags:
        return np.empty(0)
    instances, lengths = stack_instances(bags, net.arch.input_dim)
    return score_split(forward_bag(net, instances)[0], lengths, q, eps)


def decide(scores):
    """Bag labels: 1 where the score exceeds 0.5 (strictly), else 0.  A
    float gives one label, an array an int64 array."""
    return np.greater(scores, 0.5).astype(np.int64)
