"""Instance classification network: a small MLP with a logistic output.

Forward passes score each instance of a bag independently; each hidden
layer keeps one array, its activation, from which the reverse pass takes
the derivative.  Everything is plain numpy in float64.

The math lives once, in two functions that check nothing: ``forward``
returns the predictions and each layer's input, and ``backward`` sums the
parameter gradients, scaling its d cost / d prediction array in place.  A
training step calls them on a bag that ``bagdata.check_bags`` has passed,
and ``heads.score_bags`` on a split that ``bagdata.stack_instances`` has
stacked and checked.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bagdata import check_choice, check_number

# The output pre-activation z is held in [-708, 36.7] for the logistic
# 1 / (1 + exp(-z)).  There exp(-z) is a normal float, below exp(708), and
# above 2^-53, so 1 + exp(-z) does not round to 1: the logistic is a normal
# float strictly inside (0, 1), at most 1 - 2^-52, and computing it raises
# no floating-point flag.  Only outputs that would round to 1.0 move.
# The constants are 0-d arrays: a ufunc takes them with less overhead than
# Python floats, which counts on bags of a few dozen instances.
_NEG_PREACT_MIN = np.array(-36.7)
_NEG_PREACT_MAX = np.array(708.0)
_ONE = np.array(1.0)

# Each activation in place on z, and its derivative from the output a:
# max(z, 0) > 0 exactly when z > 0, and 1 - a*a is 1 - tanh(z)^2.
_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a: a > 0.0),
    "tanh": (lambda z: np.tanh(z, out=z), lambda a: 1.0 - a * a),
}
ACTIVATIONS = tuple(_ACTIVATIONS)

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
        dims = self.hidden_dims
        if not isinstance(dims, (tuple, list)):
            raise ValueError(f"hidden_dims must be a list of integers, got {dims!r}")
        object.__setattr__(self, "hidden_dims", tuple(
            int(check_number(f"hidden_dims[{i}]", h, integer=True, at_least=1))
            for i, h in enumerate(dims)))
        check_number("input_dim", self.input_dim, integer=True, at_least=1)
        check_choice("activation", self.activation, ACTIVATIONS)

    @property
    def layer_dims(self):
        return (self.input_dim, *self.hidden_dims, 1)


@dataclass
class NetParams:
    """Per-layer weight matrices (fan_in, fan_out) and bias vectors.

    ``weights`` and ``biases`` are views into the one flat vector ``flat``,
    laid out as [W_0, ..., W_L, b_0, ..., b_L], so an optimizer can update
    the whole network with one call and the weights form its leading
    block.  ``flat`` defaults to a new zero vector.  Gradients use the same
    container.
    """

    arch: NetArch
    flat: np.ndarray = None

    def __post_init__(self):
        dims = self.arch.layer_dims
        shapes = [*zip(dims[:-1], dims[1:]), *((fan_out,) for fan_out in dims[1:])]
        sizes = [math.prod(shape) for shape in shapes]
        if self.flat is None:
            self.flat = np.zeros(sum(sizes))
        if self.flat.shape != (sum(sizes),):
            raise ValueError(f"flat parameters of shape {self.flat.shape} do not match "
                             f"layers {dims}")
        views, offset = [], 0
        for shape, size in zip(shapes, sizes):
            views.append(self.flat[offset:offset + size].reshape(shape))
            offset += size
        self.weights, self.biases = views[:len(dims) - 1], views[len(dims) - 1:]


def init_params(arch, seed):
    """Uniform(-s, s) weights with s = INIT_GAIN/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng(seed)
    params = NetParams(arch)
    for w in params.weights:
        s = INIT_GAIN / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-s, s, size=w.shape)
    return params


def forward(params, x):
    """The forward pass on the checked (bag_size, input_dim) float64 array
    ``x``: returns (predictions, layer_inputs), the input to each layer.

    A prediction is the logistic 1 / (1 + exp(-z)) of the output
    pre-activation z held in [-708, 36.7], so it lies strictly inside
    (0, 1) even where the float logistic of z would round to 0.0 or 1.0.
    """
    activate = _ACTIVATIONS[params.arch.activation][0]
    weights, biases = params.weights, params.biases
    layer_inputs = [x]
    a = x
    for i in range(len(weights) - 1):
        # .dot is the product @ computes, with less call overhead on a bag;
        # it is a new array, so the bias and the activation go in place
        a = a.dot(weights[i])
        a += biases[i]
        activate(a)
        layer_inputs.append(a)
    # the logistic, in place on the output layer's (bag_size, 1) array,
    # which starts as -z: -b - a.w is -(a.w + b) bit for bit
    c = a.dot(weights[-1])
    np.subtract(-biases[-1].item(), c, out=c)
    np.maximum(c, _NEG_PREACT_MIN, out=c)
    np.minimum(c, _NEG_PREACT_MAX, out=c)
    np.exp(c, out=c)
    c += _ONE
    np.reciprocal(c, out=c)
    return c[:, 0], layer_inputs


def backward(params, layer_inputs, predictions, dz, out):
    """The parameter gradients of sum_i dz[i] * c_i, summed over the bag
    into the NetParams ``out``, which is returned; nothing is checked.
    ``dz`` is d cost / d prediction, a fresh float64 array of the bag's
    length, which is scaled in place."""
    derivative = _ACTIVATIONS[params.arch.activation][1]
    c = predictions
    dz *= c
    dz *= 1.0 - c
    dz = dz[:, None]
    for i in range(len(params.weights) - 1, -1, -1):
        layer_inputs[i].T.dot(dz, out=out.weights[i])
        np.add.reduce(dz, axis=0, out=out.biases[i])
        if i > 0:
            dz = dz.dot(params.weights[i].T)
            dz *= derivative(layer_inputs[i])
    return out

