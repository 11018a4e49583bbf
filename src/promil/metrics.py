"""Bag-level evaluation: rank AUC, balanced accuracy, and the evaluation
of a model over the one scoring path (``heads.score_bags``)."""

from dataclasses import dataclass

import numpy as np

from .heads import decide, score_bags


@dataclass
class EvalResult:
    auc: float
    balanced_accuracy: float
    accuracy: float
    tp: int
    fp: int
    tn: int
    fn: int
    n_bags: int


def _tied_ranks(x):
    """1-based ranks of x; a run of equal values at sorted positions
    start..end shares the mean rank (start + end + 2) / 2."""
    order = np.argsort(x, kind="stable")
    s = x[order]
    n = len(s)
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(s[1:], s[:-1], out=edge[1:n])
    bounds = np.flatnonzero(edge)      # each run's start, then n
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2.0, bounds[1:] - bounds[:-1])
    return ranks


def auc(scores, labels):
    """Mann-Whitney AUC: P(random positive outranks random negative), ties 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative label")
    ranks = _tied_ranks(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def balanced_accuracy(pred_labels, labels):
    """Mean of sensitivity and specificity."""
    pred_labels = np.asarray(pred_labels)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("balanced accuracy needs both classes present")
    tp = int(((pred_labels == 1) & (labels == 1)).sum())
    tn = int(((pred_labels == 0) & (labels == 0)).sum())
    return 0.5 * (tp / n_pos + tn / n_neg)


def evaluate(model, bags, head=None):
    """Score every bag with the chosen head and aggregate an EvalResult.

    ``model`` is a TrainedModel (or anything with .net, .learned_q and
    .eps); ``head`` defaults to the head the model was trained with.  Bags
    are scored by ``score_bags`` with the clamp ``model.eps`` the model was
    trained with, as in validation.
    """
    if not bags:
        raise ValueError("cannot evaluate an empty bag list")
    scores = score_bags(model.net, bags, head or model.head, model.learned_q, model.eps)
    labels = np.array([int(bag.label) for bag in bags])
    hard = decide(scores)
    tp = int(((hard == 1) & (labels == 1)).sum())
    fp = int(((hard == 1) & (labels == 0)).sum())
    tn = int(((hard == 0) & (labels == 0)).sum())
    fn = int(((hard == 0) & (labels == 1)).sum())
    return EvalResult(
        auc=auc(scores, labels),
        balanced_accuracy=balanced_accuracy(hard, labels),
        accuracy=float((hard == labels).mean()),
        tp=tp, fp=fp, tn=tn, fn=fn,
        n_bags=len(bags),
    )
