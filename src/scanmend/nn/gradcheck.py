"""Central finite-difference gradient verification.

Checks the analytic parameter gradients of a network against
(L(p+h) - L(p-h)) / 2h on a scalar loss.  The loss function receives the
network's output tensor and may close over inputs and other (frozen)
networks, so full training objectives can be checked end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..rng import Rng
from .layers import BatchNorm, Network
from .tensor import Tensor

# Parameters whose analytic and numeric gradients are both below this are
# skipped: central differences at h=1e-6 on a loss of magnitude ~1 carry a
# roundoff floor of about eps * |L| / (2h) ~ 1e-10 absolute, so below the
# 1e-5 mark the relative comparison measures that noise, not correctness
# (at |g| = 1e-6 the noise alone reaches 1e-4 relative).  Entries above the
# mark keep a >= 10x margin under the 1e-4 verification bar.  A wrong
# backward still trips the check because skipping needs BOTH sides small:
# an analytic gradient of real magnitude against a ~0 numeric one is
# compared relatively and fails.
DEAD_GRAD_ATOL = 1e-5


@dataclass
class GradCheckResult:
    max_rel_err: float
    n_checked: int
    skipped: list[str] = field(default_factory=list)


def grad_check(
    net: Network,
    loss_fn,
    x,
    *,
    h: float = 1e-6,
    sample: int | None = None,
    rng: Rng | None = None,
) -> GradCheckResult:
    """Compare analytic and central-FD gradients of loss_fn(net.forward(x)).

    Relative error per parameter is |a - n| / max(|a|, |n|, 1e-12).  With
    `sample`, a seeded random subset of parameters is checked instead of all
    of them.  A max-pool tie in the unperturbed forward makes the point
    nondifferentiable; the check is then skipped and reported as such.  The
    BatchNorm running statistics that the forwards update are restored on
    return.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    stats = [
        (l, l.running_mean.copy(), l.running_var.copy())
        for l in net.layers
        if isinstance(l, BatchNorm)
    ]
    p0 = net.param_vector()
    try:
        net.zero_grad()
        out = net.forward(x)
        if net.maxpool_tie_count() > 0:
            return GradCheckResult(0.0, 0, ["maxpool: skipped (nondifferentiable point)"])
        loss = loss_fn(out)
        if loss.data.size != 1:
            raise ValueError("loss_fn must return a scalar tensor")
        loss.backward()
        analytic = net.grad_vector()

        if sample is None or sample >= p0.size:
            idx = np.arange(p0.size)
        else:
            idx = (rng or Rng(0)).permutation(p0.size)[:sample]

        def value_at(vec: np.ndarray) -> float:
            net.set_param_vector(vec)
            return float(loss_fn(net.forward(x)).data)

        max_rel = 0.0
        work = p0.copy()
        for i in idx:
            orig = work[i]
            work[i] = orig + h
            up = value_at(work)
            work[i] = orig - h
            down = value_at(work)
            work[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = analytic[i]
            if max(abs(a), abs(numeric)) < DEAD_GRAD_ATOL:
                continue
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            max_rel = max(max_rel, rel)
        return GradCheckResult(max_rel, len(idx))
    finally:
        net.set_param_vector(p0)
        net.zero_grad()
        for layer, mean, var in stats:
            layer.running_mean = mean
            layer.running_var = var
