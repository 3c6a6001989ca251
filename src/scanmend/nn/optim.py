"""Adam optimizer on flat parameter vectors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray = field(default=None)
    v: np.ndarray = field(default=None)
    t: int = 0

    def ensure(self, n: int) -> None:
        if self.m is None:
            self.m = np.zeros(n)
            self.v = np.zeros(n)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One bias-corrected Adam update; returns the new parameter vector.

    The moments are updated in place in the state's arrays, with the
    operations of the textbook formula in its order, so the result is the
    same bit for bit; no array the caller passed is written."""
    if params.shape != grads.shape:
        raise ValueError(f"params {params.shape} vs grads {grads.shape}")
    if not np.all(np.isfinite(grads)):
        raise FloatingPointError(f"non-finite gradients ({np.sum(~np.isfinite(grads))} entries)")
    state.ensure(params.size)
    if state.m.size != params.size:
        raise ValueError(f"Adam state holds {state.m.size} moments, params have {params.size}")
    state.t += 1
    m, v = state.m, state.v
    # m = beta1 * m + (1 - beta1) * g
    buf = np.multiply(grads, 1.0 - state.beta1)
    m *= state.beta1
    m += buf
    # v = beta2 * v + ((1 - beta2) * g) * g
    np.multiply(grads, 1.0 - state.beta2, out=buf)
    buf *= grads
    v *= state.beta2
    v += buf
    # params - (lr * m_hat) / (sqrt(v_hat) + eps)
    np.divide(v, 1.0 - state.beta2**state.t, out=buf)
    np.sqrt(buf, out=buf)
    buf += state.eps
    step = np.divide(m, 1.0 - state.beta1**state.t)
    step *= state.lr
    step /= buf
    return np.subtract(params, step, out=step)
