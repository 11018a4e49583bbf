"""Bag-level scoring heads and the bag decision rule.

The quantile head sorts the instance predictions ascending (stable, so
gradient routing is reproducible under ties) and evaluates the Bernstein
estimator at q.  The max and mean heads are the classic instance-based
baselines.
"""

from dataclasses import dataclass

import numpy as np

from .bernstein import DEFAULT_EPS, check_level, quantile_value_grad

HEADS = ("promil", "max", "mean")


@dataclass
class BagScore:
    score: float
    permutation: np.ndarray = None


def _check_nonempty(predictions):
    predictions = np.asarray(predictions, dtype=np.float64)
    if predictions.ndim != 1 or predictions.size == 0:
        raise ValueError("predictions must be a nonempty 1-D array")
    return predictions


def promil_score(predictions, q, eps=DEFAULT_EPS):
    """Quantile head: the estimate at level q of the sorted predictions."""
    predictions = _check_nonempty(predictions)
    check_level(q, eps)
    perm = predictions.argsort(kind="stable")
    return BagScore(score=quantile_value_grad(predictions[perm], float(q), float(eps),
                                              grads=False),
                    permutation=perm)


def max_score(predictions):
    predictions = _check_nonempty(predictions)
    return BagScore(score=float(predictions.max()))


def mean_score(predictions):
    predictions = _check_nonempty(predictions)
    return BagScore(score=float(predictions.mean()))


def decide(score):
    """Bag label: positive iff the score exceeds 0.5 (strict)."""
    return 1 if score > 0.5 else 0


def score_bag(predictions, head, q=None, eps=DEFAULT_EPS):
    """Dispatch to one of the three heads by name."""
    if head == "promil":
        return promil_score(predictions, q, eps)
    if head == "max":
        return max_score(predictions)
    if head == "mean":
        return mean_score(predictions)
    raise ValueError(f"head must be one of {HEADS}, got {head!r}")
