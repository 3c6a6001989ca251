"""Minimal reverse-mode differentiation stack used by all trained models."""

from .gradcheck import GradCheckResult, grad_check
from .layers import (
    BatchNorm,
    Dense,
    MaxPool,
    Network,
    PointwiseDense,
    ReLU,
)
from .lossops import emd_loss, soft_hausdorff_loss
from .optim import AdamState, adam_step
from .tensor import Tensor

__all__ = [
    "AdamState",
    "BatchNorm",
    "Dense",
    "GradCheckResult",
    "MaxPool",
    "Network",
    "PointwiseDense",
    "ReLU",
    "Tensor",
    "adam_step",
    "emd_loss",
    "grad_check",
    "soft_hausdorff_loss",
]
