"""Point-set distance losses as autodiff graph nodes.

The assignment and soft-Hausdorff solvers live in scanmend.distances and work
on plain arrays; these wrappers turn their values into scalar Tensors whose
backward routes the analytic (sub)gradients into the predicted clouds.  The
EMD gradient is exact at the optimal assignment (Danskin), the Hausdorff one
is the gradient of the log-sum-exp relaxation.  The soft Hausdorff value and
gradient are computed for the whole batch at once, the gradient in matmul
form (see distances.soft_hausdorff_batch).
"""

from __future__ import annotations

import numpy as np

from .. import distances
from .tensor import Tensor


def _batched(arr: np.ndarray) -> np.ndarray:
    if arr.ndim == 2:
        return arr[None]
    if arr.ndim == 3:
        return arr
    raise ValueError(f"expected (points, 3) or (batch, points, 3), got {arr.shape}")


def emd_loss(pred: Tensor, target) -> Tensor:
    """Mean over the batch of emd(pred_b, target_b), differentiable in pred."""
    t = _batched(np.asarray(target, dtype=np.float64))
    p = _batched(pred.data)
    if p.shape != t.shape:
        raise ValueError(f"pred {p.shape} vs target {t.shape}")
    batch, n = p.shape[0], p.shape[1]
    costs = np.empty(batch)
    grads = np.zeros_like(p)
    for b in range(batch):
        costs[b], mapping = distances.emd(p[b], t[b])
        diff = p[b] - t[b][mapping]
        norms = np.sqrt((diff * diff).sum(axis=1, keepdims=True))
        nz = norms[:, 0] > 0.0
        grads[b][nz] = diff[nz] / (norms[nz] * n)
    out = Tensor(costs.mean(), (pred,))

    def backward(g):
        pred.accum_grad((g * grads / batch).reshape(pred.data.shape))

    out._backward = backward
    return out


class HausdorffLoss(Tensor):
    """The soft-Hausdorff loss node; `hard` holds each cloud's hard directed
    Hausdorff distance source -> completion, taken from the same distance
    pass (see distances.soft_hausdorff_batch)."""

    __slots__ = ("hard",)


def soft_hausdorff_loss(source, completion: Tensor, tau: float = 0.01) -> Tensor:
    """Mean over the batch of the soft directed Hausdorff source -> completion.

    `source` (the partial input) is a constant; gradients flow into the
    completion only.  The result is a HausdorffLoss, whose `hard` holds the
    (batch,) hard distances.
    """
    s = _batched(np.asarray(source, dtype=np.float64))
    c = _batched(completion.data)
    if s.shape[0] != c.shape[0]:
        raise ValueError(f"batch sizes differ: {s.shape[0]} vs {c.shape[0]}")
    batch = c.shape[0]
    values, grads, hard = distances.soft_hausdorff_batch(s, c, tau)
    out = HausdorffLoss(values.mean(), (completion,))
    out.hard = hard

    def backward(g):
        completion.accum_grad((g * grads / batch).reshape(completion.data.shape))

    out._backward = backward
    return out
