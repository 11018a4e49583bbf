"""Bag-level scoring heads, the one scoring path, and the bag decision rule.

One table maps each head name to a function ``(preds, q, eps, grads)`` of
a bag's instance predictions.  With ``grads=False`` it returns the bag
score; with ``grads=True`` it returns ``(score, d score/d preds,
d score/d q)``.  The quantile head sorts the predictions ascending (stable,
so gradient routing is reproducible under ties) and evaluates the
Bernstein estimator at q.  The max and mean heads are the classic
instance-based baselines and do not depend on q.
"""

import numpy as np

from .bernstein import DEFAULT_EPS, check_level, quantile_value_grad
from .network import forward_bag


def _promil(preds, q, eps, grads):
    perm = preds.argsort(kind="stable")
    if not grads:
        return quantile_value_grad(preds[perm], q, eps, grads=False)
    value, w, dq = quantile_value_grad(preds[perm], q, eps)
    dpreds = np.empty_like(preds)
    dpreds[perm] = w
    return value, dpreds, dq


def _max(preds, q, eps, grads):
    j = int(np.argmax(preds))
    if not grads:
        return float(preds[j])
    dpreds = np.zeros_like(preds)
    dpreds[j] = 1.0
    return float(preds[j]), dpreds, 0.0


def _mean(preds, q, eps, grads):
    if not grads:
        return float(preds.mean())
    return float(preds.mean()), np.full_like(preds, 1.0 / preds.size), 0.0


_HEADS = {"promil": _promil, "max": _max, "mean": _mean}
HEADS = tuple(_HEADS)


def head_function(head):
    """The table entry for ``head``; an unknown name raises ValueError."""
    try:
        return _HEADS[head]
    except KeyError:
        raise ValueError(f"head must be one of {HEADS}, got {head!r}") from None


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
    validation, ``evaluate`` and ``sweep``.  Returns a float64 array."""
    check_level(q, eps)
    scores = np.empty(len(bags))
    for i, bag in enumerate(bags):
        scores[i] = score_bag(forward_bag(net, bag.instances)[0], head, q, eps)
    return scores


def decide(scores):
    """Bag labels: 1 where the score exceeds 0.5 (strictly), else 0.  A
    float gives one label, an array an int64 array."""
    return np.greater(scores, 0.5).astype(np.int64)
