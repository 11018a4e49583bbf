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
step: ``forward_bag``, the head's per-bag function, ``bag_cost``,
``backward_bag`` into the state's gradient buffer, a finiteness test of
the cost and the gradient, and one ``adam_update``.
``forward_bag``, ``backward_bag`` and ``bag_cost`` keep their own argument
checks, for callers that pass unchecked arrays.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bagdata import check_bags, is_integer, is_number
from .bernstein import DEFAULT_EPS, check_eps, level, logit
from .heads import head_function, score_bags
from .metrics import auc as auc_metric
from .network import NetParams, backward_bag, forward_bag, init_params

ADAM_EPS = 1e-8
IMPROVE_TOL = 1e-4
Q_INIT_RANGE = (0.1, 0.5)


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
    val_metric: str = "auc"     # "auc" or "loss"

    def __post_init__(self):
        for name in ("learning_rate", "beta1", "beta2", "weight_decay", "eps_clamp"):
            if not is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be nonnegative and finite, "
                             f"got {self.weight_decay}")
        if not (is_integer(self.max_epochs) and self.max_epochs >= 1):
            raise ValueError(f"max_epochs must be an integer >= 1, got {self.max_epochs!r}")
        # patience 0 is allowed: it stops after the first epoch
        if not (is_integer(self.patience) and 0 <= self.patience <= self.max_epochs):
            raise ValueError(f"patience must be an integer in [0, max_epochs="
                             f"{self.max_epochs}], got {self.patience!r}")
        check_eps(self.eps_clamp, "eps_clamp")
        if self.q_init != "random":
            if not (is_number(self.q_init) and 0.0 < self.q_init < 1.0):
                raise ValueError(f"q_init must be 'random' or in (0, 1), got {self.q_init!r}")
            self.q_init = float(self.q_init)
        if self.val_metric not in ("auc", "loss"):
            raise ValueError(f"val_metric must be 'auc' or 'loss', got {self.val_metric!r}")


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
    """One bias-corrected Adam step, in place on the array ``param`` and its
    moments.

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
    m *= b1
    m += grad
    step = np.square(grad)
    v *= b2
    v += step
    np.sqrt(v, out=step)
    step += ADAM_EPS * c
    np.divide(m, step, out=step)
    step *= cfg.learning_rate * c * (1.0 - b1) / (1.0 - b1 ** t)
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
    """
    preds, trace = forward_bag(net, bag.instances)
    score, dscore_dpreds, dscore_dq = head_function(head)(preds, q, cfg.eps_clamp)
    cost, upstream = bag_cost(score, bag.label, cfg.eps_clamp)
    net_grads = backward_bag(net, trace, upstream * dscore_dpreds, out=out)
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
