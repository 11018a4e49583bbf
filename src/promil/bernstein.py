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
gradient.  One function, ``bag_weights``, builds the weights.  The kernel,
``quantile_value_grad``, scores one bag with its gradients and checks
nothing; a training step calls it through the head table.  A split is
scored in unpadded blocks of bags of one length with the same weights, so
each bag's split score is its kernel score bit for bit.  ``level`` and
``logit`` map between q and the raw value that training updates.

``estimate_quantile`` is the one checked estimate, and the ``quantile``
command's: it checks its values, level and clamp once, and covers every
level in [0, 1], with q = 0 giving the maximum and q = 1 the minimum.

A training step calls the kernel on one bag, so the kernel does per call
only what depends on q or on the values.  The q-free parts of the log
weights, log C(n, k), n - k and k for k = 0..n, come from one lookup per
bag length n, which serves both the weights and the two dot products of
d/dq.  The store takes a length while its log C(n, k) rows hold at most
``ROW_CACHE_FLOATS`` numbers (n - k and k are views of one shared k
table); the weights built from it are the ones the uncached sum gives,
bit for bit.
The values ascend, so one comparison of the first with eps tells whether
the clamp binds anywhere; when it does not, the clamp and the masking of
the weights are skipped, which changes no bit either.
"""

import math
import operator
from itertools import accumulate

import numpy as np

from .bagdata import check_number

DEFAULT_EPS = 1e-7
_TINY = np.nextafter(0.0, 1.0)
_ALMOST_ONE = np.nextafter(1.0, 0.0)


def level(raw):
    """The quantile level logistic(raw) of a raw value.

    The float logistic saturates to exact 0.0/1.0 around |raw| > 37, so the
    level is clipped back into the open interval (0, 1).
    """
    if raw >= 0.0:
        q = 1.0 / (1.0 + math.exp(-raw))
    else:
        e = math.exp(raw)
        q = e / (1.0 + e)
    return min(max(q, _TINY), _ALMOST_ONE)


def logit(q):
    """log(q / (1 - q)) for q in (0, 1), the inverse of ``level``.

    Near q = 0.5 the rounding of the quotient would dominate a logit close
    to 0, so on [0.3, 0.65], where s = 2(q - 0.5) is exact, it is taken as
    log1p(s) - log1p(-s).  A q outside (0, 1) raises ValueError.
    """
    check_number("q", q, above=0, below=1)
    if 0.3 <= q <= 0.65:
        s = 2.0 * (q - 0.5)
        return math.log1p(s) - math.log1p(-s)
    return math.log(q / (1.0 - q))


def _log_factorials(size):
    """log k! for k = 0..size-1.

    While k! is below the float maximum (k <= 170) the entry is the log of
    the exact integer k!, correctly rounded; beyond, it is lgamma(k + 1).
    The tests hold every entry up to k = 20,000 within 2 ulp of the exact
    value, which lgamma alone would miss at k = 2 (over 3 ulp).
    """
    table = np.fromiter(map(math.lgamma, range(1, size + 1)), np.float64, size)
    exact = min(size, 171)
    table[:exact] = list(map(math.log, accumulate(range(1, exact), operator.mul, initial=1)))
    return table


# log k! for k = 0, 1, ... and the same k as floats, grown on demand.
_LOG_FACTORIAL = _log_factorials(1024)
_K = np.arange(1024.0)

# Per bag length n, the q-free parts of a bag's log weights: log C(n, k),
# n - k and k for k = 0..n.  A length's entry is stored only while the
# stored log C(n, k) rows stay within ROW_CACHE_FLOATS numbers (1 MiB);
# n - k and k are views of the k table and add nothing to it.  Other
# lengths are computed on each call.  Nothing is evicted: a split of more
# lengths than fit (140 near 3,000 on bigbag-sized splits) would otherwise
# compute and store rows over and over.
ROW_CACHE_FLOATS = 1 << 17
_LENGTH_ROWS = {}


def _tables(n):
    """The log-factorial and k tables, covering 0..n."""
    global _LOG_FACTORIAL, _K
    if _K.size <= n:
        size = max(n + 1, 2 * _K.size)
        _LOG_FACTORIAL = _log_factorials(size)
        _K = np.arange(float(size))
    return _LOG_FACTORIAL, _K


def _length_rows(n):
    """(log C(n, k), n - k, k) for k = 0..n, the last two as floats, from
    the per-length store."""
    rows = _LENGTH_ROWS.get(n)
    if rows is None:
        lf, k = _tables(n)
        log_binomials = lf[n] - lf[:n + 1] - lf[n::-1]
        log_binomials.flags.writeable = False
        rows = log_binomials, k[n::-1], k[:n + 1]
        # the entry of length n holds n + 1 numbers, so the keys give the count
        if sum(_LENGTH_ROWS) + len(_LENGTH_ROWS) + n + 1 <= ROW_CACHE_FLOATS:
            _LENGTH_ROWS[n] = rows
    return rows


def _weights(rows, q):
    """The weights of ``bag_weights`` from a length's ``_length_rows``."""
    log_binomials, n_minus_k, k = rows
    # log C(n,k) + (n-k) log q + k log(1-q), the log of the Binomial(n, 1-q)
    # pmf at k.  (n-k) log q + log C(n,k) is log C(n,k) + (n-k) log q bit
    # for bit, as IEEE addition commutes; summing into the product's array
    # keeps one array of the bag's length alive besides the arguments
    w = n_minus_k * np.log(q)
    w += log_binomials
    w += k * np.log1p(-q)
    return np.exp(w, out=w)


def bag_weights(n, q):
    """The weights w_k = C(n,k) q^(n-k) (1-q)^k, k = 0..n, of the estimate
    at level q of n + 1 ascending values; arguments are unchecked."""
    return _weights(_length_rows(n), q)


def quantile_value_grad(values, q, eps):
    """The kernel: the estimate at level q of ascending ``values``, with
    unchecked arguments.

    Returns ``(value, grad_values, grad_q)`` where ``grad_values[k]`` is the
    probability weight w_k (zero for entries clamped below eps) and
    ``grad_q = sum_k w_k * max(values[k], eps) * ((n-k)/q - k/(1-q))``.
    """
    rows = _length_rows(values.size - 1)
    w = _weights(rows, q)
    # the values ascend, so the first tells whether the clamp binds anywhere
    clamped = not values[0] >= eps
    wg = w * (np.maximum(values, eps) if clamped else values)
    value = float(np.add.reduce(wg))
    grad_values = np.where(values >= eps, w, 0.0) if clamped else w
    grad_q = float(wg.dot(rows[1])) / q - float(wg.dot(rows[2])) / (1.0 - q)
    return value, grad_values, grad_q


def check_level(q, eps):
    """Reject a level outside the open interval (0, 1) or a clamp eps that
    is not positive and finite."""
    check_number("q", q, above=0, below=1)
    check_number("eps", eps, above=0)


def estimate_quantile(values, q, eps=DEFAULT_EPS):
    """The estimate at level q in [0, 1] of ascending ``values``, checked.

    ``values`` is a nonempty 1-D array of finite numbers in [0, 1], sorted
    ascending, and ``eps``, the lower clamp of the values, is positive and
    finite.  q = 0 gives the maximum and q = 1 the minimum, unclamped: the
    limits of the estimate under the 0^0 = 1 convention.  Any other level
    gives the kernel's value.  A failed check raises ValueError naming the
    offending value.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"values must be a nonempty 1-D array, got shape {values.shape}")
    bad = values[~((values >= 0.0) & (values <= 1.0))]
    if bad.size:
        raise ValueError(f"values must be finite and in [0, 1], got {bad[0]}")
    down = np.flatnonzero(np.diff(values) < 0)
    if down.size:
        raise ValueError(f"values must be sorted ascending, got {values[down[0]]} "
                         f"before {values[down[0] + 1]}")
    check_number("q", q, at_least=0, at_most=1)
    check_number("eps", eps, above=0)
    if q == 0.0:
        return float(values[-1])
    if q == 1.0:
        return float(values[0])
    return quantile_value_grad(values, float(q), float(eps))[0]
