"""Training: the bag-level cost, its gradients, Adam, and the epoch loop.

One optimization step processes a single bag (batch size 1): score the bag
with the selected head, apply the binary cross-entropy cost, push gradients
back through the head (for the quantile head, through its sort
permutation) into the instance network, and update the flat parameter
vector (network weights and biases plus the raw quantile level) with one
bias-corrected Adam call (decoupled weight decay on the weights only).

For the quantile head the cost is

    cost = -y log c_q - (1-y) log c'_{1-q}

where c_q is the level-q estimate of the sorted predictions and c'_{1-q}
is the level-(1-q) estimate of the complemented predictions.  By the flip
identity of the estimator (complementing and reversing the values maps the
level q to 1-q), c'_{1-q} = 1 - c_q, which is how it is computed; the cost
is therefore ordinary BCE on c_q (``bag_cost``).  Training the negative
class against the same-list level-(1-q) estimate instead leaves the
instance network stuck with whatever class orientation the random init
happened to pick, so that form is not used.

The quantile level itself is trained through an unconstrained raw value
with logistic squashing (dq/draw = q(1-q)), keeping q strictly inside
(0, 1) at every step.

``train`` checks each split once, before the first step, with
``bagdata.check_bags``, the check that scoring a copied split makes too:
every train and validation bag must hold a nonempty (bag_size,
input_dim) float64 array and a label of 0 or 1, else ValueError names
the split and the bag.  A step then does only what changes from step to
step: the network's unchecked forward pass, the head's per-bag function,
``bag_cost``, the chain rule in place on the head's fresh gradient, the
unchecked reverse pass into the state's gradient buffer, a finiteness
test of the cost and the gradient, and one ``adam_update``.

``adam_update`` takes a vector of at most ``SCALAR_ADAM_MAX`` entries, as
the README network's 4 parameters, in Python floats, where a dozen numpy
calls on a few numbers would cost more than the arithmetic; it takes the
array form's operations in the same order, so both give the same bits.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bagdata import check_bags, check_choice, check_number
from .bernstein import DEFAULT_EPS, level, logit
from .heads import head_function, score_bags
from .metrics import auc as auc_metric
from .network import NetParams, backward, forward, init_params

ADAM_EPS = 1e-8
# adam_update takes vectors of at most this many entries in Python floats
SCALAR_ADAM_MAX = 8
IMPROVE_TOL = 1e-4
Q_INIT_RANGE = (0.1, 0.5)
VAL_METRICS = ("auc", "loss")


class NumericalError(RuntimeError):
    """A cost, gradient or metric became NaN or infinite during training."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.99
    beta2: float = 0.999
    weight_decay: float = 1e-5
    max_epochs: int = 100
    patience: int = 15
    eps_clamp: float = DEFAULT_EPS
    q_init: object = "random"   # float in (0,1), or "random" for U[0.1, 0.5]
    seed: int = 0
    val_metric: str = "auc"     # one of VAL_METRICS

    def __post_init__(self):
        check_number("learning_rate", self.learning_rate, above=0)
        check_number("beta1", self.beta1, at_least=0, below=1)
        check_number("beta2", self.beta2, at_least=0, below=1)
        check_number("weight_decay", self.weight_decay, at_least=0)
        check_number("max_epochs", self.max_epochs, integer=True, at_least=1)
        # patience 0 is allowed: it stops after the first epoch
        check_number("patience", self.patience, integer=True, at_least=0, at_most=self.max_epochs)
        check_number("eps_clamp", self.eps_clamp, above=0)
        if self.q_init != "random":
            self.q_init = float(check_number("q_init", self.q_init, above=0, below=1))
        check_number("seed", self.seed, integer=True, at_least=0)
        check_choice("val_metric", self.val_metric, VAL_METRICS)


class TrainState:
    """Everything one training run updates.

    ``theta`` is the flat parameter vector [net weights, net biases, raw q]
    and ``net`` views its leading part.  The gradient buffer ``grad``
    (viewed by ``net_grads``) and the Adam moments ``m`` and ``v`` share
    that layout; weight decay applies to ``theta[decayed]``, the weights.
    ``m`` and ``v`` hold the moments divided by (1 - beta1) and
    (1 - beta2), the form ``adam_update`` keeps them in.
    """

    def __init__(self, arch, theta):
        self.theta = theta
        self.net = NetParams(arch=arch, flat=theta[:-1])
        self.grad = np.zeros_like(theta)
        self.net_grads = NetParams(arch=arch, flat=self.grad[:-1])
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.decayed = slice(0, sum(w.size for w in self.net.weights))
        self.t = 0
        self.epoch = 0


@dataclass
class EpochStats:
    epoch: int
    train_cost: float
    val_auc: float
    val_loss: float
    q: float


@dataclass
class TrainedModel:
    """Best-validation snapshot plus the run's bookkeeping.

    ``net`` and ``raw_q`` are the best epoch's parameter vector: the
    network's part and the raw quantile level, whose level is
    ``learned_q``.  ``eps`` is the clamp the model was trained and
    validated with; scoring it anywhere else uses the same clamp.
    """

    net: NetParams
    raw_q: float
    head: str
    val_metric: str
    best_epoch: int
    best_value: float
    epochs_run: int
    seed: int
    eps: float = DEFAULT_EPS
    history: list = field(default_factory=list)

    @property
    def learned_q(self):
        return level(self.raw_q)


def bag_cost(score, y, eps):
    """The cost of a bag score against its label y in {0, 1}, and its
    derivative in the score: (cost, d cost/d score).

    The cost is -log p for p = score (y = 1) or p = 1 - score (y = 0),
    with p clamped into [eps, 1]; where the clamp binds the derivative is 0.
    """
    if y == 1:
        p, sign = score, -1.0
    elif y == 0:
        p, sign = 1.0 - score, 1.0
    else:
        raise ValueError(f"y must be 0 or 1, got {y}")
    if p < eps:
        return -math.log(eps), 0.0
    if p > 1.0:
        return 0.0, 0.0
    return -math.log(p), sign / p


def adam_update(param, grad, moments, cfg, t, decay=False):
    """One bias-corrected Adam step, in place on the float64 vector
    ``param`` and its moments.

    ``moments`` is an (m, v) pair matching param's shape, holding the first
    and second moments divided by (1 - beta1) and (1 - beta2).  Decoupled
    weight decay applies to ``param[decay]`` when ``decay`` is a slice, and
    to none of param when it is False.  Returns (param, m, v).
    """
    # Kingma & Ba (2015, section 2) fold both bias corrections into the step
    # size and eps: with c = sqrt((1 - beta2^t) / (1 - beta2)),
    # lr * m_hat / (sqrt(v_hat) + eps) = lr c (1 - beta1) / (1 - beta1^t)
    # * m / (sqrt(v) + eps c), so a step takes one sqrt, one divide and one
    # temporary array.
    m, v = moments
    b1, b2 = cfg.beta1, cfg.beta2
    c = math.sqrt((1.0 - b2 ** t) / (1.0 - b2))
    eps_c = ADAM_EPS * c
    a = cfg.learning_rate * c * (1.0 - b1) / (1.0 - b1 ** t)
    if param.ndim == 1 and param.size <= SCALAR_ADAM_MAX:
        # the array form below, entry by entry in Python floats, which costs
        # less on a few entries; IEEE mul, add, div and sqrt round correctly
        # in both forms, and each takes the same operations in the same order
        ms, vs, ps = m.tolist(), v.tolist(), param.tolist()
        for i, g in enumerate(grad.tolist()):
            ms[i] = mi = ms[i] * b1 + g
            vs[i] = vi = vs[i] * b2 + g * g
            ps[i] -= mi / (math.sqrt(vi) + eps_c) * a
        if decay is not False:
            f = 1.0 - cfg.learning_rate * cfg.weight_decay
            ps[decay] = [p * f for p in ps[decay]]
        m[:], v[:], param[:] = ms, vs, ps
        return param, m, v
    m *= b1
    m += grad
    step = np.square(grad)
    v *= b2
    v += step
    np.sqrt(v, out=step)
    step += eps_c
    np.divide(m, step, out=step)
    step *= a
    param -= step
    if decay is not False:
        param[decay] *= 1.0 - cfg.learning_rate * cfg.weight_decay
    return param, m, v


def bag_cost_and_grads(net, q, bag, cfg, head="promil", out=None):
    """Cost of one bag at quantile level ``q`` (a float) and its gradients
    w.r.t. net params and raw q.

    Returns (cost, net_grads, grad_raw); net_grads is ``out``, a NetParams
    shaped like ``net``, when given.  This is the full composed chain:
    instance forward -> head -> cost -> head backward -> instance backward,
    plus the logistic-reparameterization factor on the quantile level.
    The bag is not checked: its instances must be a nonempty (bag_size,
    input_dim) float64 array, as ``bagdata.check_bags`` makes sure.
    """
    preds, layer_inputs = forward(net, bag.instances)
    score, dscore_dpreds, dscore_dq = head_function(head)(preds, q, cfg.eps_clamp)
    cost, upstream = bag_cost(score, bag.label, cfg.eps_clamp)
    # the head's gradient is a fresh array, so it takes the chain rule in place
    dscore_dpreds *= upstream
    net_grads = backward(net, layer_inputs, preds, dscore_dpreds,
                         NetParams(net.arch) if out is None else out)
    return cost, net_grads, upstream * dscore_dq * q * (1.0 - q)


def bag_step(state, bag, cfg, head="promil"):
    """One full training iteration on a single bag; returns (state, cost).

    A NaN or infinite cost or gradient raises NumericalError, naming the
    bag and the step, before the update: the parameters stay as they were.
    """
    cost, _, grad_raw = bag_cost_and_grads(state.net, level(state.theta.item(-1)), bag,
                                           cfg, head, out=state.net_grads)
    state.grad[-1] = grad_raw
    # a finite squared norm means every entry is finite; only a norm that is
    # not needs the entrywise test, since finite squares can overflow
    grad = state.grad
    if not (math.isfinite(cost)
            and (math.isfinite(grad.dot(grad)) or np.isfinite(grad).all())):
        raise NumericalError(f"non-finite cost {cost} or gradient on bag {bag.id!r} "
                             f"at step {state.t + 1}")
    state.t += 1
    adam_update(state.theta, state.grad, (state.m, state.v), cfg, state.t,
                decay=state.decayed)
    return state, cost


def init_train_state(arch, cfg):
    """Fresh state: fan-in-scaled net init and the quantile level init.

    All randomness derives from cfg.seed; q_init="random" draws the level
    uniformly from [0.1, 0.5].
    """
    net = init_params(arch, np.random.SeedSequence([cfg.seed, 0]))
    if cfg.q_init == "random":
        lo, hi = Q_INIT_RANGE
        q0 = float(np.random.default_rng(np.random.SeedSequence([cfg.seed, 1])).uniform(lo, hi))
    else:
        q0 = cfg.q_init
    return TrainState(arch, np.append(net.flat, logit(q0)))


def _validation_stats(net, q, bags, cfg, head):
    scores = score_bags(net, bags, head, q, cfg.eps_clamp)
    labels = [int(bag.label) for bag in bags]
    total = 0.0
    for s, y in zip(scores.tolist(), labels):
        total += bag_cost(s, y, cfg.eps_clamp)[0]
    return auc_metric(scores, labels), total / len(bags)


def train(state, splits, cfg, head="promil"):
    """Epoch loop with seeded shuffling, early stopping, and best snapshot.

    Iterates the training split in a fresh shuffled order each epoch (batch
    size 1), evaluates cfg.val_metric on the validation split after every
    epoch, and stops once `patience` epochs pass without improvement (or at
    max_epochs).  Returns a TrainedModel built from a copy of the parameter
    vector taken at the best validation epoch, so later steps on ``state``
    leave it unchanged.
    """
    train_bags = splits.train
    val_bags = splits.validation
    if not train_bags or not val_bags:
        raise ValueError("train and validation splits must both be nonempty")
    head_function(head)
    for name, bags in (("train", train_bags), ("validation", val_bags)):
        check_bags(bags, state.net.arch.input_dim, f"{name} split: ")
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    higher_better = cfg.val_metric == "auc"
    best_value = -math.inf if higher_better else math.inf
    best, best_epoch = state.theta.copy(), 0
    since_improve = 0
    history = []
    epochs_run = 0
    for epoch in range(1, cfg.max_epochs + 1):
        state.epoch = epoch
        epochs_run = epoch
        order = shuffle_rng.permutation(len(train_bags))
        total = 0.0
        for i in order.tolist():
            state, cost = bag_step(state, train_bags[i], cfg, head)
            total += cost
        train_cost = total / len(train_bags)
        q = level(state.theta.item(-1))
        val_auc, val_loss = _validation_stats(state.net, q, val_bags, cfg, head)
        if math.isnan(val_auc) or math.isnan(val_loss):
            raise NumericalError(
                f"NaN at epoch {epoch}: val_auc={val_auc} val_loss={val_loss}"
            )
        history.append(EpochStats(epoch, train_cost, val_auc, val_loss, q))
        value = val_auc if higher_better else val_loss
        improved = (value > best_value + IMPROVE_TOL) if higher_better \
            else (value < best_value - IMPROVE_TOL)
        if improved:
            best_value = value
            best = state.theta.copy()
            best_epoch = epoch
            since_improve = 0
        else:
            since_improve += 1
        if since_improve >= cfg.patience:
            break
    return TrainedModel(
        net=NetParams(state.net.arch, flat=best[:-1]),
        raw_q=best.item(-1),
        head=head,
        val_metric=cfg.val_metric,
        best_epoch=best_epoch,
        best_value=best_value,
        epochs_run=epochs_run,
        seed=cfg.seed,
        eps=cfg.eps_clamp,
        history=history,
    )
