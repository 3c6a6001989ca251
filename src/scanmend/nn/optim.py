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
    """One bias-corrected Adam update; returns the new parameter vector."""
    if params.shape != grads.shape:
        raise ValueError(f"params {params.shape} vs grads {grads.shape}")
    if not np.all(np.isfinite(grads)):
        raise FloatingPointError(f"non-finite gradients ({np.sum(~np.isfinite(grads))} entries)")
    state.ensure(params.size)
    if state.m.size != params.size:
        raise ValueError(f"Adam state holds {state.m.size} moments, params have {params.size}")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = state.m / (1.0 - state.beta1**state.t)
    v_hat = state.v / (1.0 - state.beta2**state.t)
    return params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
