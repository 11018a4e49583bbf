"""Output checks computed apart from the program.

Nothing here imports ``promil``.  Scores are recomputed from a model file's
weights with a plain numpy forward pass and binomial weights from
``scipy.stats.binom``; AUC is counted pair by pair; dataset files are parsed
with ``json``.  Each check returns ``(name, ok, detail)``.
"""

import hashlib
import json

import numpy as np
from scipy.special import expit
from scipy.stats import binom

EPS = 1e-7                  # the clamp ``promil eval`` applies before the log
SCORE_RTOL = 1e-9
METRIC_ATOL = 1e-12
_TINY = np.nextafter(0.0, 1.0)
_ALMOST_ONE = np.nextafter(1.0, 0.0)


def read_json(path):
    with open(path) as f:
        return json.load(f)


def model_digest(path):
    """sha256 of a model file with its creation time left out."""
    doc = read_json(path)
    doc.get("metadata", {}).pop("created_unix", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def instance_predictions(model, instances):
    """Forward pass of the instance MLP stored in a model file document."""
    a = np.asarray(instances, dtype=np.float64)
    weights = [np.asarray(w, dtype=np.float64) for w in model["weights"]]
    biases = [np.asarray(b, dtype=np.float64) for b in model["biases"]]
    relu = model["arch"]["activation"] == "relu"
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w + b
        if i < len(weights) - 1:
            a = np.maximum(a, 0.0) if relu else np.tanh(a)
    return np.clip(expit(a[:, 0]), _TINY, _ALMOST_ONE)


def bernstein_quantile(predictions, q, eps=EPS):
    """sum_k Binom(k; n, 1-q) * p_(k) over the sorted, eps-clamped values."""
    values = np.maximum(np.sort(np.asarray(predictions, dtype=np.float64)), eps)
    n = values.size - 1
    return float(np.dot(binom.pmf(np.arange(n + 1), n, 1.0 - q), values))


def bag_score(model, instances, head):
    preds = instance_predictions(model, instances)
    if head == "promil":
        return bernstein_quantile(preds, model["q"])
    if head == "max":
        return float(preds.max())
    return float(preds.mean())


def pair_auc(scores, labels):
    """Share of (positive, negative) pairs ranked right; ties count 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))


def balanced_accuracy(scores, labels):
    hard = np.asarray(scores) > 0.5
    labels = np.asarray(labels)
    tpr = (hard & (labels == 1)).sum() / (labels == 1).sum()
    tnr = (~hard & (labels == 0)).sum() / (labels == 0).sum()
    return float(0.5 * (tpr + tnr))


def check_eval_report(report, program_scores, expected_scores, labels):
    """Compare an eval report (plus the scores behind it) with recomputation."""
    expected_scores = np.asarray(expected_scores, dtype=np.float64)
    out = []
    if program_scores is None or len(program_scores) != len(expected_scores):
        out.append(("eval.scores", False, "scores behind the report were not observed "
                    "or have the wrong length"))
    else:
        diff = np.abs(np.asarray(program_scores, dtype=np.float64) - expected_scores)
        bad = diff > SCORE_RTOL * np.maximum(np.abs(expected_scores), 1e-3)
        out.append(("eval.scores", not bad.any(),
                    f"worst |score - recomputed| {diff.max():.3g} on {int(bad.sum())} bags"))
    auc = pair_auc(expected_scores, labels)
    out.append(("eval.auc", abs(report["auc"] - auc) <= METRIC_ATOL,
                f"report {report['auc']!r}, pair count {auc!r}"))
    bacc = balanced_accuracy(expected_scores, labels)
    out.append(("eval.balanced_accuracy",
                abs(report["balanced_accuracy"] - bacc) <= METRIC_ATOL,
                f"report {report['balanced_accuracy']!r}, recomputed {bacc!r}"))
    out.append(("eval.n_bags", report["n_bags"] == len(labels),
                f"report {report['n_bags']}, expected {len(labels)}"))
    return out


def check_labels(bags, qstar):
    """Every bag label follows the percentage rule on its hidden labels."""
    wrong = [b["id"] for b in bags
             if b["label"] != int(sum(b["hidden_instance_labels"])
                                  / len(b["hidden_instance_labels"]) >= qstar)]
    return ("dataset.labels", not wrong, f"{len(wrong)} bags break the percentage rule "
            f"{wrong[:3]}")


def check_flip_identity(c_q, c_flip, predictions, expected):
    """A large bag: finite, inside [min, max], and c_{1-q}(1-p) = 1 - c_q(p)."""
    lo, hi = float(np.min(predictions)), float(np.max(predictions))
    return [
        ("kernel.finite_in_range", bool(np.isfinite(c_q) and lo <= c_q <= hi),
         f"score {c_q!r}, range [{lo!r}, {hi!r}]"),
        ("kernel.flip_identity", abs(c_q + c_flip - 1.0) <= 1e-8,
         f"c_q + c_1-q(1-p) - 1 = {c_q + c_flip - 1.0:.3g}"),
        ("kernel.matches_binomial_sum", abs(c_q - expected) <= 1e-8,
         f"cli {c_q!r}, binomial sum {expected!r}"),
    ]
