"""Percentage-based multiple instance learning with a trainable quantile head.

A bag of instances is scored by running a small instance network on every
instance and evaluating a differentiable Bernstein-polynomial quantile of
the sorted predictions at a trainable level q; bags whose quantile exceeds
0.5 are called positive.  Instance+max and instance+mean baselines, a
synthetic percentage-labeled bag generator, an MNIST-bag builder, metrics,
and an experiment CLI round out the package.  Everything is plain numpy.
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
from .bernstein import (
    QuantileParam,
    SortedPredictions,
    bernstein_log_weights,
    estimate_quantile,
    estimate_quantile_limit,
    log_binomial,
    quantile_gradients,
)
from .heads import BagScore, decide, max_score, mean_score, promil_score
from .metrics import EvalResult, auc, balanced_accuracy, evaluate
from .network import (
    BagForwardTrace,
    NetArch,
    NetParams,
    backward_bag,
    forward_bag,
    forward_instance,
    init_params,
)
from .training import (
    TrainConfig,
    TrainedModel,
    TrainState,
    adam_update,
    bag_step,
    cost_gradients,
    init_train_state,
    promil_cost,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Bag",
    "BagForwardTrace",
    "BagScore",
    "DatasetSplit",
    "EvalResult",
    "NetArch",
    "NetParams",
    "QuantileParam",
    "SortedPredictions",
    "SyntheticSpec",
    "TrainConfig",
    "TrainState",
    "TrainedModel",
    "adam_update",
    "auc",
    "backward_bag",
    "balanced_accuracy",
    "bag_step",
    "bernstein_log_weights",
    "cost_gradients",
    "decide",
    "estimate_quantile",
    "estimate_quantile_limit",
    "evaluate",
    "forward_bag",
    "forward_instance",
    "generate_synthetic",
    "init_params",
    "init_train_state",
    "load_idx",
    "log_binomial",
    "make_mnist_bags",
    "max_score",
    "mean_score",
    "promil_cost",
    "promil_score",
    "quantile_gradients",
    "split_dataset",
    "train",
]
