"""Training: the bag-level cost, its gradients, Adam, and the epoch loop.

One optimization step processes a single bag (batch size 1): score the bag
with the selected head, apply the binary cross-entropy cost, push gradients
back through the quantile head's sort permutation into the instance network,
and update the flat parameter vector (network weights and biases plus the
raw quantile level) with one bias-corrected Adam call (decoupled weight
decay on the weights only).

For the quantile head the cost is

    cost = -y log c_q - (1-y) log c'_{1-q}

where c_q is the level-q estimate of the sorted predictions and c'_{1-q}
is the level-(1-q) estimate of the complemented predictions.  By the flip
identity of the estimator (complementing and reversing the values maps the
level q to 1-q), c'_{1-q} = 1 - c_q, which is how it is computed; the cost
is therefore ordinary BCE on c_q.  Training the negative class against the
same-list level-(1-q) estimate instead leaves the instance network stuck
with whatever class orientation the random init happened to pick, so that
form is not used.

The quantile level itself is trained through an unconstrained raw value
with logistic squashing (dq/draw = q(1-q)), keeping q strictly inside
(0, 1) at every step.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bernstein import DEFAULT_EPS, QuantileParam, quantile_value_grad
from .heads import HEADS, score_bag
from .metrics import auc as auc_metric
from .network import NetParams, backward_bag, forward_bag, init_params, weight_count

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
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.patience > self.max_epochs:
            raise ValueError(
                f"patience {self.patience} exceeds max_epochs {self.max_epochs}"
            )
        if self.eps_clamp <= 0:
            raise ValueError(f"eps_clamp must be positive, got {self.eps_clamp}")
        if self.q_init != "random" and not 0.0 < float(self.q_init) < 1.0:
            raise ValueError(f"q_init must be 'random' or in (0, 1), got {self.q_init}")
        if self.val_metric not in ("auc", "loss"):
            raise ValueError(f"val_metric must be 'auc' or 'loss', got {self.val_metric!r}")


class TrainState:
    """Everything one training run updates.

    ``theta`` is the flat parameter vector [net weights, net biases, raw q]
    and ``net`` views its leading part.  The gradient buffer ``grad``
    (viewed by ``net_grads``) and the Adam moments ``m`` and ``v`` share
    that layout; weight decay applies to ``theta[decayed]``, the weights.
    """

    def __init__(self, arch, theta):
        self.theta = theta
        self.net = NetParams(arch=arch, flat=theta[:-1])
        self.grad = np.zeros_like(theta)
        self.net_grads = NetParams(arch=arch, flat=self.grad[:-1])
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.decayed = slice(0, weight_count(arch))
        self.t = 0
        self.epoch = 0

    @property
    def q(self):
        return QuantileParam(float(self.theta[-1]))


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

    ``eps`` is the clamp the model was trained and validated with; scoring
    it anywhere else uses the same clamp.
    """

    arch: object
    net: object
    q: QuantileParam
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
        return self.q.q


def promil_cost(c_q, c_1mq, y):
    """-y log(c_q) - (1-y) log(c_1mq); arguments in (0, 1] after clamping."""
    if y not in (0, 1):
        raise ValueError(f"y must be 0 or 1, got {y}")
    c_q = min(c_q, 1.0)
    c_1mq = min(c_1mq, 1.0)
    return -y * math.log(c_q) - (1 - y) * math.log(c_1mq)


def cost_gradients(c_q, c_1mq, y):
    """(d cost/d c_q, d cost/d c_1mq) = (-y/c_q, -(1-y)/c_1mq)."""
    if y not in (0, 1):
        raise ValueError(f"y must be 0 or 1, got {y}")
    return -y / c_q, -(1 - y) / c_1mq


def adam_update(param, grad, moments, cfg, t, decay=False):
    """One bias-corrected Adam step, in place on ``param`` and its moments.

    ``moments`` is an (m, v) pair matching param's shape.  Decoupled weight
    decay applies to ``param[decay]`` when ``decay`` is a slice, to all of
    param when it is True, and to none of it when False.  Returns
    (param, m, v); a scalar param and its moments come back as floats.
    """
    if np.ndim(param) == 0:
        p, g, m, v = (np.array([x], dtype=np.float64) for x in (param, grad, *moments))
        adam_update(p, g, (m, v), cfg, t, decay)
        return float(p[0]), float(m[0]), float(v[0])
    # Two buffers hold every intermediate: at MNIST width a fresh array per
    # operation costs more than the arithmetic.  The roundings are those of
    # param -= lr * m_hat / (sqrt(v_hat) + eps).
    m, v = moments
    step = np.multiply(grad, 1.0 - cfg.beta1)
    m *= cfg.beta1
    m += step
    np.square(grad, out=step)
    step *= 1.0 - cfg.beta2
    v *= cfg.beta2
    v += step
    np.divide(m, 1.0 - cfg.beta1 ** t, out=step)
    denom = np.divide(v, 1.0 - cfg.beta2 ** t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step *= cfg.learning_rate
    step /= denom
    param -= step
    if decay is not False:
        w = param if decay is True else param[decay]
        w -= cfg.learning_rate * cfg.weight_decay * w
    return param, m, v


def _clip_unit(x, eps):
    """Clamp into [eps, 1]; returns (clamped, pass_through) for the chain rule."""
    if x < eps:
        return eps, False
    if x > 1.0:
        return 1.0, False
    return x, True


def bag_cost_and_grads(net, q_param, bag, cfg, head="promil", out=None):
    """Cost of one bag and its gradients w.r.t. net params and raw q.

    Returns (cost, net_grads, grad_raw); net_grads is ``out``, a NetParams
    shaped like ``net``, when given.  This is the full composed chain:
    instance forward -> head -> cost -> head backward (through the sort
    permutation for the quantile head) -> instance backward, plus the
    logistic-reparameterization factor on the quantile level.
    """
    if head not in HEADS:
        raise ValueError(f"head must be one of {HEADS}, got {head!r}")
    y = int(bag.label)
    preds, trace = forward_bag(net, bag.instances)
    eps = cfg.eps_clamp
    if head == "promil":
        q = q_param.q
        perm = preds.argsort(kind="stable")
        s, w_q, dval_dq = quantile_value_grad(preds[perm], q, eps)
    elif head == "max":
        j = int(np.argmax(preds))
        s = float(preds[j])
    else:
        s = float(preds.mean())
    s_pos, pos_open = _clip_unit(s, eps)
    s_neg, neg_open = _clip_unit(1.0 - s, eps)
    cost = promil_cost(s_pos, s_neg, y)
    d_pos, d_neg = cost_gradients(s_pos, s_neg, y)
    upstream = (d_pos if pos_open else 0.0) - (d_neg if neg_open else 0.0)
    grad_raw = 0.0
    if head == "promil":
        grad_preds = np.empty_like(preds)
        grad_preds[perm] = upstream * w_q
        grad_raw = upstream * dval_dq * q * (1.0 - q)
    elif head == "max":
        grad_preds = np.zeros_like(preds)
        grad_preds[j] = upstream
    else:
        grad_preds = np.full_like(preds, upstream / preds.size)
    net_grads = backward_bag(net, trace, grad_preds, out=out)
    return cost, net_grads, grad_raw


def bag_step(state, bag, cfg, head="promil"):
    """One full training iteration on a single bag; returns (state, cost).

    A NaN or infinite cost or gradient raises NumericalError, naming the
    bag and the step, before the update: the parameters stay as they were.
    """
    cost, _, grad_raw = bag_cost_and_grads(state.net, state.q, bag, cfg, head,
                                           out=state.net_grads)
    state.grad[-1] = grad_raw
    if not (math.isfinite(cost) and np.isfinite(state.grad).all()):
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
        q0 = float(cfg.q_init)
    return TrainState(arch, np.append(net.flat, QuantileParam.from_q(q0).raw))


def _validation_stats(net, q, bags, cfg, head):
    scores, labels, total = [], [], 0.0
    eps = cfg.eps_clamp
    for bag in bags:
        preds, _ = forward_bag(net, bag.instances)
        s = score_bag(preds, head, q=q, eps=eps).score
        s_pos, _ = _clip_unit(s, eps)
        s_neg, _ = _clip_unit(1.0 - s, eps)
        total += promil_cost(s_pos, s_neg, int(bag.label))
        scores.append(s)
        labels.append(int(bag.label))
    val_auc = auc_metric(scores, labels)
    return val_auc, total / len(bags)


def train(state, splits, cfg, head="promil"):
    """Epoch loop with seeded shuffling, early stopping, and best snapshot.

    Iterates the training split in a fresh shuffled order each epoch (batch
    size 1), evaluates cfg.val_metric on the validation split after every
    epoch, and stops once `patience` epochs pass without improvement (or at
    max_epochs).  Returns the snapshot from the best validation epoch.
    """
    train_bags = splits.train
    val_bags = splits.validation
    if not train_bags or not val_bags:
        raise ValueError("train and validation splits must both be nonempty")
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    higher_better = cfg.val_metric == "auc"
    best_value = -math.inf if higher_better else math.inf
    best_net, best_q, best_epoch = state.net.copy(), state.q, 0
    since_improve = 0
    history = []
    epochs_run = 0
    for epoch in range(1, cfg.max_epochs + 1):
        state.epoch = epoch
        epochs_run = epoch
        order = shuffle_rng.permutation(len(train_bags))
        total = 0.0
        for i in order:
            state, cost = bag_step(state, train_bags[int(i)], cfg, head)
            total += cost
        train_cost = total / len(train_bags)
        q = state.q
        val_auc, val_loss = _validation_stats(state.net, q.q, val_bags, cfg, head)
        if math.isnan(val_auc) or math.isnan(val_loss):
            raise NumericalError(
                f"NaN at epoch {epoch}: val_auc={val_auc} val_loss={val_loss}"
            )
        history.append(EpochStats(epoch, train_cost, val_auc, val_loss, q.q))
        value = val_auc if higher_better else val_loss
        improved = (value > best_value + IMPROVE_TOL) if higher_better \
            else (value < best_value - IMPROVE_TOL)
        if improved:
            best_value = value
            best_net = state.net.copy()
            best_q = q
            best_epoch = epoch
            since_improve = 0
        else:
            since_improve += 1
        if since_improve >= cfg.patience:
            break
    return TrainedModel(
        arch=state.net.arch,
        net=best_net,
        q=best_q,
        head=head,
        val_metric=cfg.val_metric,
        best_epoch=best_epoch,
        best_value=best_value,
        epochs_run=epochs_run,
        seed=cfg.seed,
        eps=cfg.eps_clamp,
        history=history,
    )
