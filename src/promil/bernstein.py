"""Bernstein polynomial quantile estimator.

For ascending values p_0 <= ... <= p_n and a level q in (0, 1), the
estimate is

    sum_{k=0}^{n} C(n,k) q^(n-k) (1-q)^k * p_k,

a binomial mixture of order statistics that is differentiable in both the
values and q.  The weights put their mass near index n*(1-q), so q -> 0
approaches the maximum and q -> 1 the minimum.  The weights are built in
the log domain (log-factorial binomial coefficients), so bag sizes in the
thousands stay finite, and the estimate is their direct sum with the
values: the largest weight is at least 1/(n+1) and every clamped value at
least eps, so the sum cannot underflow as a whole, and the weights that
underflow one by one are negligible.

Values are clamped below at ``eps``; clamped entries receive zero
gradient.  One kernel (``quantile_value_grad``) serves training,
validation, evaluation and the CLI; ``quantile_rows`` applies the same
weights to a block of bags at once, for scoring a whole split.

A training step calls the kernel on one bag, so the kernel does per call
only what depends on q or on the values.  The q-free part of the log
weights, log C(n, k) for k = 0..n, is kept per bag length n in a store
that takes rows while it holds at most ``ROW_CACHE_FLOATS`` numbers; the
weights built from it are the ones the uncached sum gives, bit for bit.
The values ascend, so one comparison of the first with eps tells whether
the clamp binds anywhere; when it does not, the clamp and the masking of
the weights are skipped, which changes no bit either.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logit

DEFAULT_EPS = 1e-7
_TINY = np.nextafter(0.0, 1.0)
_ALMOST_ONE = np.nextafter(1.0, 0.0)


@dataclass
class QuantileParam:
    """Trainable quantile level stored as an unconstrained real.

    ``q = logistic(raw)`` is strictly inside (0, 1) for every finite raw
    value, so gradient steps can never push the level onto a boundary.
    The float logistic saturates to exact 0.0/1.0 around |raw| > 37, so the
    derived level is clipped back into the open interval.
    """

    raw: float = field(default=0.0)

    @property
    def q(self):
        raw = self.raw
        if raw >= 0.0:
            q = 1.0 / (1.0 + math.exp(-raw))
        else:
            e = math.exp(raw)
            q = e / (1.0 + e)
        return min(max(q, _TINY), _ALMOST_ONE)

    @classmethod
    def from_q(cls, q):
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {q}")
        return cls(raw=float(logit(q)))


# log k! for k = 0, 1, ... and the same k as floats, grown on demand.
_LOG_FACTORIAL = gammaln(np.arange(1.0, 1025.0))
_K = np.arange(1024.0)

# log C(n, k) for k = 0..n, per bag length n: the part of a bag's log
# weights that does not depend on q.  A row is stored only while the store
# stays within ROW_CACHE_FLOATS numbers (1 MiB); other lengths are computed
# on each call.  Nothing is evicted: a split of more lengths than fit (140
# near 3,000 on bigbag-sized splits) would otherwise compute and store rows
# over and over.
ROW_CACHE_FLOATS = 1 << 17
_LOG_BINOMIAL_ROWS = {}


def _tables(n):
    """The log-factorial and k tables, covering 0..n."""
    global _LOG_FACTORIAL, _K
    if _K.size <= n:
        size = max(n + 1, 2 * _K.size)
        _LOG_FACTORIAL = gammaln(np.arange(1.0, size + 1.0))
        _K = np.arange(float(size))
    return _LOG_FACTORIAL, _K


def _log_binomial_row(n):
    """log C(n, k) for k = 0..n, from the per-length store."""
    row = _LOG_BINOMIAL_ROWS.get(n)
    if row is None:
        lf = _tables(n)[0]
        row = lf[n] - lf[:n + 1] - lf[n::-1]
        row.flags.writeable = False
        # the row of length n holds n + 1 numbers, so the keys give the count
        if sum(_LOG_BINOMIAL_ROWS) + len(_LOG_BINOMIAL_ROWS) + row.size <= ROW_CACHE_FLOATS:
            _LOG_BINOMIAL_ROWS[n] = row
    return row


def _log_weights(log_binomials, n_minus_k, k, q):
    """log C(n,k) + (n-k) log q + k log(1-q): the log of the Binomial(n, 1-q)
    pmf at k, from log C(n, k) and the float arrays n - k and k."""
    # (n-k) log q + log C(n,k) is log C(n,k) + (n-k) log q bit for bit, as
    # IEEE addition commutes; summing into the product's array keeps one
    # array of the block's size alive besides the arguments
    w = n_minus_k * np.log(q)
    w += log_binomials
    w += k * np.log1p(-q)
    return w


def quantile_value_grad(values, q, eps, grads=True):
    """The kernel: the estimate at level q of ascending ``values``, with
    unchecked arguments.

    Returns ``(value, grad_values, grad_q)`` where ``grad_values[k]`` is the
    probability weight w_k (zero for entries clamped below eps) and
    ``grad_q = sum_k w_k * max(values[k], eps) * ((n-k)/q - k/(1-q))``;
    with ``grads=False`` only the value.
    """
    n = values.size - 1
    k = _tables(n)[1]
    n_minus_k, k = k[n::-1], k[:n + 1]
    w = _log_weights(_log_binomial_row(n), n_minus_k, k, q)
    np.exp(w, out=w)
    # the values ascend, so the first tells whether the clamp binds anywhere
    clamped = not values[0] >= eps
    wg = w * (np.maximum(values, eps) if clamped else values)
    value = float(np.add.reduce(wg))
    if not grads:
        return value
    grad_values = np.where(values >= eps, w, 0.0) if clamped else w
    grad_q = float(wg.dot(n_minus_k)) / q - float(wg.dot(k)) / (1.0 - q)
    return value, grad_values, grad_q


def quantile_rows(block, n, q, eps):
    """The estimate at level q of each row of a 2-D ``block`` whose leading
    ``n[i] + 1`` entries are ascending; the entries after them are padding
    and count for nothing.  Arguments are unchecked.  Each weight and term
    is the one ``quantile_value_grad`` computes for that row alone.
    """
    cols = np.arange(block.shape[1])
    n = n[:, None]
    lf, kf = _tables(block.shape[1])
    # k is the column.  In the padding, where k > n, n - k is taken as
    # k - n: the log weight there is then at most 0, so exp cannot
    # overflow before the padding is zeroed.
    # Each block-sized array is dropped once used (on bigbag-sized splits
    # each is about 6 MB), which keeps the peak at four, the block included.
    nk = np.abs(n - cols)
    log_binomials = lf[n] - lf[cols]
    log_binomials -= lf[nk]
    n_minus_k = kf[nk]
    del nk
    wg = _log_weights(log_binomials, n_minus_k, kf[cols], q)
    del n_minus_k
    np.exp(wg, out=wg)
    wg *= np.maximum(block, eps, out=log_binomials)
    wg[cols > n] = 0.0
    return wg.sum(axis=1)


def _ascending_values(preds):
    values = np.ascontiguousarray(preds, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("predictions must be a nonempty 1-D array")
    if np.any(np.diff(values) < 0):
        raise ValueError("predictions must be sorted ascending")
    return values


def check_eps(eps, name="eps"):
    """Reject a clamp that is not positive and finite."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {eps}")


def check_level(q, eps):
    """Reject a level outside the open interval (0, 1) or a clamp eps that
    is not positive and finite."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be strictly inside (0, 1), got {q}")
    check_eps(eps)


def estimate_quantile(preds, q, eps=DEFAULT_EPS):
    """Evaluate the estimator at level q on ascending predictions.

    ``preds`` is a nonempty, already-ascending 1-D array.
    ``eps`` is the lower clamp applied to each value before its log.
    """
    values = _ascending_values(preds)
    check_level(q, eps)
    return quantile_value_grad(values, float(q), float(eps), grads=False)


def quantile_gradients(preds, q, eps=DEFAULT_EPS):
    """Analytic gradients of estimate_quantile.

    Returns ``(grad_values, grad_q)``: grad_values[k] is the k-th binomial
    weight (zero when values[k] was clamped), and grad_q sums
    w_k * max(values[k], eps) * ((n-k)/q - k/(1-q)).
    """
    values = _ascending_values(preds)
    check_level(q, eps)
    _, grad_values, grad_q = quantile_value_grad(values, float(q), float(eps))
    return grad_values, grad_q


def estimate_quantile_limit(preds, q):
    """Boundary levels via the 0^0 = 1 convention: q=0 -> max, q=1 -> min."""
    values = _ascending_values(preds)
    if q == 0:
        return float(values[-1])
    if q == 1:
        return float(values[0])
    raise ValueError(f"q must be exactly 0 or 1, got {q}")
