"""Percentage-based multiple instance learning with a trainable quantile head.

A bag of instances is scored by running a small instance network on every
instance and evaluating a differentiable Bernstein-polynomial quantile of
the sorted predictions at a trainable level q; bags whose quantile exceeds
0.5 are called positive.  The quantile head and the instance+max and
instance+mean baselines form one table of heads (``heads.HEADS``), each
giving a bag score and its gradients; training, validation and evaluation
all score bags through it.  A synthetic percentage-labeled bag generator,
an MNIST-bag builder, metrics, and an experiment CLI round out the package.
Everything is plain numpy.
"""

from .bagdata import (
    Bag,
    DatasetSplit,
    SyntheticSpec,
    generate_synthetic,
    load_idx,
    make_mnist_bags,
    split_dataset,
)
from .bernstein import estimate_quantile
from .heads import HEADS, decide, score_bags
from .metrics import EvalResult, auc, balanced_accuracy, evaluate
from .network import NetArch, NetParams, backward, forward, init_params
from .training import (
    TrainConfig,
    TrainedModel,
    TrainState,
    adam_update,
    bag_cost,
    bag_cost_and_grads,
    bag_step,
    init_train_state,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Bag",
    "DatasetSplit",
    "EvalResult",
    "HEADS",
    "NetArch",
    "NetParams",
    "SyntheticSpec",
    "TrainConfig",
    "TrainState",
    "TrainedModel",
    "adam_update",
    "auc",
    "backward",
    "bag_cost",
    "bag_cost_and_grads",
    "bag_step",
    "balanced_accuracy",
    "decide",
    "estimate_quantile",
    "evaluate",
    "forward",
    "generate_synthetic",
    "init_params",
    "init_train_state",
    "load_idx",
    "make_mnist_bags",
    "score_bags",
    "split_dataset",
    "train",
]
