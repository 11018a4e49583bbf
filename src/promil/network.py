"""Instance classification network: a small MLP with a logistic output.

Forward passes score each instance of a bag independently; the cached trace
makes the reverse pass cheap.  Everything is plain numpy in float64.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

_TINY = np.nextafter(0.0, 1.0)
_ALMOST_ONE = np.nextafter(1.0, 0.0)

ACTIVATIONS = ("relu", "tanh")

# Init gain: weights ~ U(-g/sqrt(fan_in), +g/sqrt(fan_in)).  Small enough
# that all instance scores start near 0.5, so the first epochs establish the
# class orientation from the bag labels instead of amplifying whatever
# orientation the random draw happened to encode.
INIT_GAIN = 0.1


@dataclass(frozen=True)
class NetArch:
    input_dim: int
    hidden_dims: tuple = ()
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be positive, got {self.input_dim}")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must be positive, got {self.hidden_dims}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")

    @property
    def layer_dims(self):
        return (self.input_dim, *self.hidden_dims, 1)


def weight_count(arch):
    """Number of weight entries, which lead the flat parameter vector."""
    dims = arch.layer_dims
    return sum(fan_in * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


@dataclass
class NetParams:
    """Per-layer weight matrices (fan_in, fan_out) and bias vectors.

    All of them are views into one flat vector laid out as
    [W_0, ..., W_L, b_0, ..., b_L], so an optimizer can update the whole
    network with one call and the weights form its leading block.  Built
    from ``weights`` and ``biases`` the arrays are copied into a new flat
    vector; built from ``flat`` they view that vector.  Gradients use the
    same container.
    """

    arch: NetArch
    weights: list = None
    biases: list = None
    flat: np.ndarray = None

    def __post_init__(self):
        dims = self.arch.layer_dims
        shapes = [*zip(dims[:-1], dims[1:]), *((fan_out,) for fan_out in dims[1:])]
        if self.flat is None:
            arrays = [np.asarray(a, dtype=np.float64) for a in (*self.weights, *self.biases)]
            if [a.shape for a in arrays] != shapes:
                raise ValueError(f"parameter shapes {[a.shape for a in arrays]} do not "
                                 f"match layers {dims}")
            self.flat = np.concatenate([a.ravel() for a in arrays])
        sizes = [math.prod(shape) for shape in shapes]
        if self.flat.shape != (sum(sizes),):
            raise ValueError(f"flat parameters of shape {self.flat.shape} do not match "
                             f"layers {dims}")
        views, offset = [], 0
        for shape, size in zip(shapes, sizes):
            views.append(self.flat[offset:offset + size].reshape(shape))
            offset += size
        self.weights, self.biases = views[:len(dims) - 1], views[len(dims) - 1:]

    def copy(self):
        return NetParams(arch=self.arch, flat=self.flat.copy())


@dataclass
class BagForwardTrace:
    """Cached activations from forward_bag, consumed by backward_bag."""

    layer_inputs: list   # input to each layer, (bag_size, fan_in)
    preacts: list        # pre-activation of each layer, (bag_size, fan_out)
    predictions: np.ndarray

    def __len__(self):
        return self.predictions.size


def init_params(arch, seed):
    """Uniform(-s, s) weights with s = INIT_GAIN/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(seed)
    dims = arch.layer_dims
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        s = INIT_GAIN / np.sqrt(fan_in)
        weights.append(rng.uniform(-s, s, size=(fan_in, fan_out)))
    return NetParams(arch=arch, weights=weights, biases=[np.zeros(n) for n in dims[1:]])


def _activate(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z, kind):
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def forward_bag(params, instances):
    """Score every instance; returns (predictions, trace).

    ``instances`` is (bag_size, input_dim).  Predictions are clipped into
    the open interval (0, 1): the logistic saturates to exact 0.0/1.0 in
    float64 for |logit| > ~37.
    """
    x = np.asarray(instances, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("bag must be a nonempty (bag_size, input_dim) array")
    if x.shape[1] != params.arch.input_dim:
        raise ValueError(
            f"instance dimension {x.shape[1]} does not match input_dim {params.arch.input_dim}"
        )
    act = params.arch.activation
    layer_inputs, preacts = [], []
    a = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        layer_inputs.append(a)
        # .dot is the product @ computes, with less call overhead on a bag
        z = a.dot(w)
        z += b
        preacts.append(z)
        a = _activate(z, act) if i < last else z
    c = expit(a[:, 0])
    np.minimum(np.maximum(c, _TINY, out=c), _ALMOST_ONE, out=c)
    return c, BagForwardTrace(layer_inputs=layer_inputs, preacts=preacts, predictions=c)


def backward_bag(params, trace, upstream, out=None):
    """Parameter gradients of sum_i upstream[i] * c_i, upstream held constant.

    ``upstream[i]`` is d cost / d prediction_i.  Gradients are summed over
    the bag and written into ``out``, a NetParams of the same shape (a new
    one when None), which is returned.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != trace.predictions.shape:
        raise ValueError(
            f"upstream length {upstream.shape} does not match bag size "
            f"{trace.predictions.shape}"
        )
    if len(trace.layer_inputs) != len(params.weights):
        raise ValueError("trace does not match params layer count")
    if out is None:
        out = NetParams(arch=params.arch, flat=np.empty(params.flat.size))
    act = params.arch.activation
    c = trace.predictions
    dz = upstream * c
    dz *= 1.0 - c
    dz = dz[:, None]
    for i in range(len(params.weights) - 1, -1, -1):
        trace.layer_inputs[i].T.dot(dz, out=out.weights[i])
        np.add.reduce(dz, axis=0, out=out.biases[i])
        if i > 0:
            da = dz.dot(params.weights[i].T)
            dz = da * _activate_grad(trace.preacts[i - 1], act)
    return out
