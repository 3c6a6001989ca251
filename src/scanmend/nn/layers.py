"""Network layers: dense, shared per-point MLP, batchnorm, ReLU, max pool.

A Network is an ordered list of layer records plus a train/infer mode flag.
Weights are float64 Tensors; batchnorm running statistics are plain arrays,
updated only in train mode.  Initialization is seed-controlled:
Kaiming-uniform ahead of ReLU, Xavier for final linear layers.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from ..rng import Rng
from .tensor import Tensor

BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # running = momentum * running + (1 - momentum) * batch


def _init_weight(n_in: int, n_out: int, scheme: str, rng: Rng) -> np.ndarray:
    if scheme == "kaiming":
        limit = np.sqrt(6.0 / n_in)
    elif scheme == "xavier":
        limit = np.sqrt(6.0 / (n_in + n_out))
    else:
        raise ValueError(f"unknown init scheme {scheme!r}")
    return (rng.uniform((n_in, n_out)) * 2.0 - 1.0) * limit


class Dense:
    """Fully connected layer on (batch, features) inputs."""

    kind = "dense"

    def __init__(self, n_in: int, n_out: int, rng: Rng, init: str = "kaiming"):
        self.n_in, self.n_out, self.init = n_in, n_out, init
        self.w = Tensor(_init_weight(n_in, n_out, init, rng))
        self.b = Tensor(np.zeros(n_out))

    def spec(self) -> dict:
        return {"type": self.kind, "in": self.n_in, "out": self.n_out, "init": self.init}

    def param_items(self):
        return [("w", self.w), ("b", self.b)]

    def forward(self, x: Tensor, train: bool) -> Tensor:
        if x.data.ndim != 2 or x.data.shape[1] != self.n_in:
            raise ValueError(f"dense expects (batch, {self.n_in}), got {x.data.shape}")
        return x.matmul(self.w, self.b)


class PointwiseDense(Dense):
    """Shared MLP applied to every point: (batch, points, f_in) -> (..., f_out).

    Equivalent to the 1-D convolutions of the reference architecture with
    kernel size 1.
    """

    kind = "pointwise"

    def forward(self, x: Tensor, train: bool) -> Tensor:
        if x.data.ndim != 3 or x.data.shape[2] != self.n_in:
            raise ValueError(
                f"pointwise dense expects (batch, points, {self.n_in}), got {x.data.shape}"
            )
        return x.matmul(self.w, self.b)


class BatchNorm:
    """Feature-wise batch normalization.

    On 3-axis inputs statistics are taken over batch and points jointly.
    Train mode normalizes by batch statistics and updates the running
    averages; infer mode uses the stored running averages only, so its output
    is independent of batch composition.
    """

    kind = "batchnorm"

    def __init__(self, width: int):
        self.width = width
        self.gamma = Tensor(np.ones(width))
        self.beta = Tensor(np.zeros(width))
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)

    def spec(self) -> dict:
        return {"type": self.kind, "width": self.width}

    def param_items(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def forward(self, x: Tensor, train: bool) -> Tensor:
        if x.data.shape[-1] != self.width:
            raise ValueError(f"batchnorm width {self.width} != features {x.data.shape[-1]}")
        axes = tuple(range(x.data.ndim - 1))
        gamma, beta = self.gamma, self.beta
        m = x.data.size // self.width
        flat = x.data.reshape(m, self.width)
        if train:
            mu = flat.mean(axis=0)
            xhat = x.data - mu
            var = np.einsum("ij,ij->j", xhat.reshape(m, self.width), xhat.reshape(m, self.width)) / m
            self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mu
            self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
            inv = 1.0 / np.sqrt(var + BN_EPS)
            xhat *= inv
            y = xhat * gamma.data
            y += beta.data
            out = Tensor(y, (x, gamma, beta))

            def backward(g):
                dy = g.reshape(m, self.width)
                xh = xhat.reshape(m, self.width)
                beta.accum_grad(dy.sum(axis=0))
                gamma.accum_grad(np.einsum("ij,ij->j", dy, xh))
                dxhat = dy * gamma.data
                c1 = dxhat.mean(axis=0)
                c2 = np.einsum("ij,ij->j", dxhat, xh) / m
                dxhat -= c1
                dxhat -= xh * c2
                dxhat *= inv
                x.accum_grad(dxhat.reshape(x.data.shape))

        else:
            mean = self.running_mean
            inv = 1.0 / np.sqrt(self.running_var + BN_EPS)
            # One allocation, then in place: ((x - mean) * inv) * gamma + beta.
            y = x.data - mean
            y *= inv
            y *= gamma.data
            y += beta.data
            out = Tensor(y, (x, gamma, beta))

            def backward(g):
                dy = g.reshape(m, self.width)
                xhat = (x.data.reshape(m, self.width) - mean) * inv
                beta.accum_grad(dy.sum(axis=0))
                gamma.accum_grad(np.einsum("ij,ij->j", dy, xhat))
                x.accum_grad(g * (gamma.data * inv))

        out._backward = backward
        return out


class ReLU:
    kind = "relu"

    def spec(self) -> dict:
        return {"type": self.kind}

    def param_items(self):
        return []

    def forward(self, x: Tensor, train: bool) -> Tensor:
        return x.relu()


class MaxPool:
    """Feature-wise maximum over the points axis: (batch, points, f) -> (batch, f).

    Exactly permutation-invariant.  Records whether the last forward hit a
    tie (gradient is then a subgradient choice, flagged for grad checks).
    """

    kind = "maxpool"

    def __init__(self):
        self.last_tie_count = 0

    def spec(self) -> dict:
        return {"type": self.kind}

    def param_items(self):
        return []

    def forward(self, x: Tensor, train: bool) -> Tensor:
        if x.data.ndim != 3:
            raise ValueError(f"maxpool expects (batch, points, features), got {x.data.shape}")
        out, ties = x.max_over_axis(axis=1)
        self.last_tie_count = ties
        return out


class Network:
    """Ordered layer stack with a train/infer mode and flat parameter views."""

    def __init__(self, layers: list, name: str = "net"):
        self.layers = list(layers)
        self.name = name
        self.mode = "train"

    def train(self) -> "Network":
        self.mode = "train"
        return self

    def infer(self) -> "Network":
        self.mode = "infer"
        return self

    def forward(self, x: Tensor) -> Tensor:
        """Run the stack; raise FloatingPointError naming the first layer
        whose output is not finite.

        ReLU and max-pool map finite inputs to finite outputs, so their
        output is scanned only when their input is not yet known finite.
        """
        if not isinstance(x, Tensor):
            x = Tensor(x)
        train = self.mode == "train"
        finite = False
        for i, layer in enumerate(self.layers):
            x = layer.forward(x, train)
            if finite and isinstance(layer, (ReLU, MaxPool)):
                continue
            if not np.all(np.isfinite(x.data)):
                raise FloatingPointError(
                    f"non-finite activation after layer {i} ({layer.kind}) of {self.name}"
                )
            finite = True
        return x

    # ---- parameters ----

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, layer in enumerate(self.layers):
            for local, t in layer.param_items():
                out.append((f"{i}.{layer.kind}.{local}", t))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def zero_grad(self) -> None:
        for t in self.parameters():
            t.grad = None

    def param_vector(self) -> np.ndarray:
        chunks = [t.data.reshape(-1) for t in self.parameters()]
        return np.concatenate(chunks) if chunks else np.zeros(0)

    def grad_vector(self) -> np.ndarray:
        chunks = [t.grad_or_zeros().reshape(-1) for t in self.parameters()]
        return np.concatenate(chunks) if chunks else np.zeros(0)

    def set_param_vector(self, vec: np.ndarray) -> None:
        offset = 0
        for t in self.parameters():
            size = t.data.size
            t.data = vec[offset : offset + size].reshape(t.data.shape).copy()
            offset += size
        if offset != vec.size:
            raise ValueError(f"parameter vector length {vec.size}, expected {offset}")

    def maxpool_tie_count(self) -> int:
        return sum(l.last_tie_count for l in self.layers if isinstance(l, MaxPool))

    # ---- architecture identity ----

    def layer_specs(self) -> list[dict]:
        return [layer.spec() for layer in self.layers]

    def architecture_hash(self) -> str:
        canon = json.dumps(self.layer_specs(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def build_layer(spec: dict, rng: Rng):
    """Construct a layer from its spec record (used by checkpoint load)."""
    t = spec["type"]
    if t == "dense":
        return Dense(spec["in"], spec["out"], rng, spec["init"])
    if t == "pointwise":
        return PointwiseDense(spec["in"], spec["out"], rng, spec["init"])
    if t == "batchnorm":
        return BatchNorm(spec["width"])
    if t == "relu":
        return ReLU()
    if t == "maxpool":
        return MaxPool()
    raise ValueError(f"unknown layer type {t!r}")
