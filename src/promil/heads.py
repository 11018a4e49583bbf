"""Bag-level scoring heads, the one scoring path, and the bag decision rule.

One table maps each head name to two functions.  The first scores one bag,
``(preds, q, eps)``, and returns ``(score, d score/d preds, d score/d q)``;
d score/d preds is a fresh array, which the caller may scale in place.
Training uses it bag by bag, through ``head_function``, which finds a
valid name with one dict lookup; its first value is one bag's score.  The
second scores each row of a block of bags of one length, ``(block, q,
eps)``, bit for bit as the first.  The quantile head sorts the
predictions ascending (stable, so gradient routing is reproducible under
ties; a big bag without ties may take an unstable sort, which then gives
the same permutation) and evaluates the Bernstein estimator at q.  The max
and mean heads are the classic instance-based baselines and do not depend
on q.

Both functions stay because each serves a gated cost.  One ``(m, n)``
function with gradients, a training step being a block of one bag and a
split scored with the gradients dropped, was measured on a 2-vCPU VM
(numpy 2.4) and lost on both: at one bag of 26 the quantile head took
25.4 us against 14.9 us (a lean form still adds about 3.7 us for the 2-D
scatter, matmul, reduce and first-column min), its d score/d q by matmul
differed from ``dot`` in the last bits in 23 of 64 bags, and scoring a
split was 2.6x slower on 62 bags and 2.4x on 625.

``score_bags`` is the one scoring path of validation, ``evaluate`` and
``sweep``: one forward pass over the split's stacked instances, then the
bags of each length, in split order, as the rows of one unpadded block.
"""

import numpy as np

from .bagdata import check_choice, stack_instances
from .bernstein import bag_weights, check_level, quantile_value_grad
from .network import forward


# from this many predictions up, an unstable sort checked for ties beats
# the stable sort: 11.9 against 16.6 us at 1,000 and 37.7 against 175 us at
# 3,000 (2-vCPU VM, numpy 2.4); at 300 it lost, 6.1 against 4.0 us
UNSTABLE_SORT_MIN = 1000


def _ascending(preds):
    """The stable ascending permutation of ``preds`` and the values it
    sorts.  From UNSTABLE_SORT_MIN predictions up an unstable sort comes
    first: when its values increase strictly it is the one permutation that
    sorts them, so the stable one; a tie or a NaN falls back to the stable
    sort."""
    if preds.size >= UNSTABLE_SORT_MIN:
        perm = preds.argsort()
        ranked = preds[perm]
        if (ranked[1:] > ranked[:-1]).all():
            return perm, ranked
    perm = preds.argsort(kind="stable")
    return perm, preds[perm]


def _promil(preds, q, eps):
    perm, ranked = _ascending(preds)
    value, w, dq = quantile_value_grad(ranked, q, eps)
    dpreds = np.empty(preds.size)
    dpreds[perm] = w
    return value, dpreds, dq


def _promil_rows(block, q, eps):
    # each term is the kernel's, and a row sums as the kernel's 1-D array
    block.sort(axis=1)
    np.maximum(block, eps, out=block)
    block *= bag_weights(block.shape[1] - 1, q)
    return block.sum(axis=1)


def _max(preds, q, eps):
    j = int(np.argmax(preds))
    dpreds = np.zeros_like(preds)
    dpreds[j] = 1.0
    return float(preds[j]), dpreds, 0.0


def _max_rows(block, q, eps):
    return np.maximum.reduce(block, axis=1)


def _mean(preds, q, eps):
    return float(preds.mean()), np.full_like(preds, 1.0 / preds.size), 0.0


def _mean_rows(block, q, eps):
    # ndarray.mean's sum and divide, without its Python-level dispatch
    return np.add.reduce(block, axis=1) / block.shape[1]


_HEADS = {"promil": (_promil, _promil_rows), "max": (_max, _max_rows),
          "mean": (_mean, _mean_rows)}
HEADS = tuple(_HEADS)


def head_function(head):
    """The per-bag table entry for ``head``; an unknown name raises
    ValueError."""
    # a training step asks on every bag, so a valid name is one dict hit
    entry = _HEADS.get(head) if isinstance(head, str) else None
    if entry is None:
        entry = _HEADS[check_choice("head", head, HEADS)]
    return entry[0]


def _score_split(preds, lengths, score_rows, q, eps):
    """The scores of consecutive bags of ``lengths`` predictions each, a
    block of the bags of each length at a time."""
    order = lengths.argsort(kind="stable")
    by_length = lengths[order]
    starts = (np.cumsum(lengths) - lengths)[order]
    cuts = [0, *(np.flatnonzero(np.diff(by_length)) + 1).tolist(), lengths.size]
    by_order = np.empty(lengths.size)
    for lo, hi in zip(cuts, cuts[1:]):
        # each block is gathered on its own, so no temporary is split-sized
        block = preds[starts[lo:hi, None] + np.arange(by_length[lo])]
        by_order[lo:hi] = score_rows(block, q, eps)
    scores = np.empty(lengths.size)
    scores[order] = by_order
    return scores


def score_bags(net, bags, head, q, eps):
    """Score every bag of a split under ``head``: the one scoring path of
    validation, ``evaluate`` and ``sweep``.  Returns a float64 array.

    The split's instances go through the network in one forward pass.  A
    bag whose width is not the network's input_dim raises ValueError
    naming it; ``Bag`` refuses an empty one when it is made.
    """
    check_level(q, eps)
    score_rows = _HEADS[check_choice("head", head, HEADS)][1]
    if not bags:
        return np.empty(0)
    instances, lengths = stack_instances(bags, net.arch.input_dim)
    # stack_instances has checked every bag: the unchecked pass takes them
    return _score_split(forward(net, instances)[0], lengths, score_rows, q, eps)


def decide(scores):
    """Bag labels: 1 where the score exceeds 0.5 (strictly), else 0.  A
    float gives one label, an array an int64 array."""
    return np.greater(scores, 0.5).astype(np.int64)
