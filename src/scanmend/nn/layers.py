"""Network layers: dense, shared per-point MLP, batchnorm, ReLU, max pool.

A Network is an ordered list of layer records; each PointwiseDense ->
BatchNorm -> ReLU triple in it runs as one fused PointBlock node (see there
for the buffers that node owns and overwrites).  Weights are float64
Tensors; batchnorm running statistics are plain arrays.  A network holds no
run mode: each call chooses train or infer arithmetic for itself.
`forward(x, train=...)` takes the choice as a required keyword and builds
autodiff nodes; only a train forward normalizes by batch statistics and
updates the running statistics.  `predict`, for inference, runs the infer
formulas on plain arrays with the running statistics, builds no node, and
writes only into arrays it allocated, never into its input, even when the
first layer is a ReLU or a BatchNorm.  So Network.predict(x) is
forward(Tensor(x), train=False).data, bit for bit.  Initialization is
seed-controlled: Kaiming-uniform ahead of ReLU, Xavier for final linear
layers.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from ..rng import Rng
from .tensor import Tensor, affine, affine_backward

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

    kind, ndim = "dense", 2

    def __init__(self, n_in: int, n_out: int, rng: Rng, init: str = "kaiming"):
        self.n_in, self.n_out, self.init = n_in, n_out, init
        self.w = Tensor(_init_weight(n_in, n_out, init, rng))
        self.b = Tensor(np.zeros(n_out))

    def spec(self) -> dict:
        return {"type": self.kind, "in": self.n_in, "out": self.n_out, "init": self.init}

    def param_items(self):
        return [("w", self.w), ("b", self.b)]

    def check_input(self, x: np.ndarray) -> None:
        if x.ndim != self.ndim or x.shape[-1] != self.n_in:
            raise ValueError(f"{self.kind} expects {self.ndim} axes ending in {self.n_in}: {x.shape}")

    def forward(self, x: Tensor, train: bool) -> Tensor:
        self.check_input(x.data)
        return x.matmul(self.w, self.b)

    def predict(self, x: np.ndarray) -> np.ndarray:
        self.check_input(x)
        return affine(x, self.w.data, self.b.data)[1].reshape(x.shape[:-1] + (self.n_out,))


class PointwiseDense(Dense):
    """Shared MLP applied to every point: (batch, points, f_in) -> (..., f_out).

    Equivalent to the 1-D convolutions of the reference architecture with
    kernel size 1.
    """

    kind, ndim = "pointwise", 3

    # Dense's forward, bound in this class too so that tracing tells the two apart.
    forward = Dense.forward


class BatchNorm:
    """Feature-wise batch normalization.

    On 3-axis inputs statistics are taken over batch and points jointly.
    A train call normalizes by batch statistics and updates the running
    averages; an infer call uses the stored running averages only, so its
    output is independent of batch composition.  The arithmetic works on
    (rows, width) arrays and is shared with the fused point block.
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

    # ---- arithmetic on (rows, width) arrays ----

    def normalize_train(self, flat: np.ndarray, out=None) -> tuple:
        """(x-hat, inv) of `flat` under its batch statistics, and update the
        running averages.  x-hat is written to `out`, which may be `flat`
        itself, or to a new array when out is None."""
        m = flat.shape[0]
        mu = flat.mean(axis=0)
        xhat = np.subtract(flat, mu, out=out)
        var = np.einsum("ij,ij->j", xhat, xhat) / m
        self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mu
        self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv
        return xhat, inv

    def scale_shift(self, xhat: np.ndarray) -> np.ndarray:
        """xhat * gamma + beta in a new array."""
        y = xhat * self.gamma.data
        y += self.beta.data
        return y

    def backward_train(self, dy: np.ndarray, xhat: np.ndarray, inv: np.ndarray, out=None):
        """Accumulate the gamma and beta gradients of a train forward and
        return its input gradient, written to `out`, which may be `dy`
        itself, or to a new array when out is None.  Overwrites `xhat` with
        xhat * c2, so it runs at most once per forward."""
        m = dy.shape[0]
        self.beta.accum_grad(dy.sum(axis=0))
        self.gamma.accum_grad(np.einsum("ij,ij->j", dy, xhat))
        dxhat = np.multiply(dy, self.gamma.data, out=out)
        c1 = dxhat.mean(axis=0)
        c2 = np.einsum("ij,ij->j", dxhat, xhat) / m
        dxhat -= c1
        xhat *= c2
        dxhat -= xhat
        dxhat *= inv
        return dxhat

    def infer_stats(self) -> tuple:
        return self.running_mean, 1.0 / np.sqrt(self.running_var + BN_EPS)

    def normalize_infer(self, flat: np.ndarray, mean, inv, out=None) -> np.ndarray:
        """((flat - mean) * inv) * gamma + beta, written to `out`, which may
        be `flat` itself, or to a new array when out is None."""
        y = np.subtract(flat, mean, out=out)
        y *= inv
        y *= self.gamma.data
        y += self.beta.data
        return y

    def backward_infer(self, dy: np.ndarray, flat: np.ndarray, mean, inv) -> np.ndarray:
        """Accumulate the gamma and beta gradients of an infer forward of
        `flat` and return its input gradient as a new array."""
        xhat = (flat - mean) * inv
        self.beta.accum_grad(dy.sum(axis=0))
        self.gamma.accum_grad(np.einsum("ij,ij->j", dy, xhat))
        return dy * (self.gamma.data * inv)

    def check_input(self, x: np.ndarray) -> None:
        if x.shape[-1] != self.width:
            raise ValueError(f"batchnorm width {self.width} != features {x.shape[-1]}")

    def predict(self, x: np.ndarray) -> np.ndarray:
        self.check_input(x)
        return self.normalize_infer(x.reshape(-1, self.width), *self.infer_stats()).reshape(x.shape)

    def forward(self, x: Tensor, train: bool) -> Tensor:
        self.check_input(x.data)
        shape, width = x.data.shape, self.width
        m = x.data.size // width
        if train:
            xhat, inv = self.normalize_train(x.data.reshape(m, width))
            y = self.scale_shift(xhat)

            def backward(g):
                dx = self.backward_train(g.reshape(m, width), xhat, inv)
                x.accum_grad(dx.reshape(shape))

        else:
            mean, inv = self.infer_stats()
            y = self.normalize_infer(x.data.reshape(m, width), mean, inv)

            def backward(g):
                dx = self.backward_infer(g.reshape(m, width), x.data.reshape(m, width), mean, inv)
                x.accum_grad(dx.reshape(shape))

        out = Tensor(y.reshape(shape), (x, self.gamma, self.beta))
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

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


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

    def check_input(self, x: np.ndarray) -> None:
        if x.ndim != 3:
            raise ValueError(f"maxpool expects (batch, points, features), got {x.shape}")

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The forward output with no tie scan; last_tie_count is left as it was."""
        self.check_input(x)
        return x.max(axis=1)

    def forward(self, x: Tensor, train: bool) -> Tensor:
        self.check_input(x.data)
        out, ties = x.max_over_axis(axis=1)
        self.last_tie_count = ties
        return out


class PointBlock:
    """PointwiseDense -> BatchNorm -> ReLU run as one graph node.

    Network builds one for each such triple in its layer list; the three
    layers keep their records, parameters and running statistics, and the
    node's parents are (x, W, b, gamma, beta).  Every per-element formula and
    reduction is the three layers' own, so the outputs and gradients are
    bit-identical to running them one by one.

    A train call owns two (rows, width) arrays: the GEMM output, which it
    normalizes in place to x-hat, and the output max(x-hat * gamma + beta, 0).
    Backward takes the ReLU mask from the output and applies it, and then
    the BatchNorm backward, in place in the output gradient it receives,
    which it owns (see nn.tensor); the BatchNorm backward also overwrites
    x-hat.  A read-only gradient (sum's broadcast) is masked into a new
    array instead.  An infer call runs the BatchNorm affine map and the ReLU
    in place in the GEMM output, the only array it owns, so its backward
    recomputes the GEMM; predict runs the same infer arithmetic and returns
    that array with no node.
    """

    def __init__(self, dense: PointwiseDense, bn: BatchNorm):
        self.dense, self.bn = dense, bn

    def _run(self, x: np.ndarray, train: bool, check, index: int) -> tuple:
        """(flat input, output, (x-hat, inv) for a train or (mean, inv) for an
        infer call) of the block on array x.  `check(array, i)` raises when
        the output of layer i is not finite; `index` is the dense layer's
        index."""
        dense, bn = self.dense, self.bn
        dense.check_input(x)
        flat, h = affine(x, dense.w.data, dense.b.data)
        check(h, index)
        if train:
            state = bn.normalize_train(h, out=h)
            y = bn.scale_shift(state[0])
        else:
            state = bn.infer_stats()
            y = bn.normalize_infer(h, *state, out=h)
        check(y, index + 1)
        # ReLU maps finite values to finite values, so its output needs no check.
        y = np.maximum(y, 0.0, out=y).reshape(x.shape[:-1] + (dense.n_out,))
        return flat, y, state

    def predict(self, x: np.ndarray, check, index: int) -> np.ndarray:
        return self._run(x, False, check, index)[1]

    def forward(self, x: Tensor, train: bool, check, index: int) -> Tensor:
        dense, bn = self.dense, self.bn
        w, b, n_out = dense.w, dense.b, dense.n_out
        flat, y, state = self._run(x.data, train, check, index)
        out = Tensor(y, (x, w, b, bn.gamma, bn.beta))

        def backward(g):
            # y > 0 exactly where the BatchNorm output was positive.  g is
            # this node's own, unless it is sum's read-only broadcast.
            mask = y > 0.0
            g = np.multiply(g, mask, out=g) if g.flags.writeable else g * mask
            dy = g.reshape(-1, n_out)
            if train:
                dh = bn.backward_train(dy, *state, out=dy)
            else:
                dh = bn.backward_infer(dy, affine(flat, w.data, b.data)[1], *state)
            affine_backward(dh, flat, x, w, b)

        out._backward = backward
        return out


def _forward_steps(layers: list) -> list:
    """(index, step) pairs that run `layers` in order, each PointwiseDense ->
    BatchNorm -> ReLU triple of matching width as one PointBlock step.  A
    triple whose widths differ runs layer by layer, so that BatchNorm's own
    check reports the mismatch."""
    steps, i = [], 0
    while i < len(layers):
        triple = layers[i : i + 3]
        if (
            len(triple) == 3
            and isinstance(triple[0], PointwiseDense)
            and isinstance(triple[1], BatchNorm)
            and isinstance(triple[2], ReLU)
            and triple[0].n_out == triple[1].width
        ):
            steps.append((i, PointBlock(triple[0], triple[1])))
            i += 3
        else:
            steps.append((i, layers[i]))
            i += 1
    return steps


class Network:
    """Ordered layer stack with flat parameter views."""

    def __init__(self, layers: list, name: str = "net"):
        self.layers = list(layers)
        self.name = name
        self._steps = _forward_steps(self.layers)

    def _check(self, arr: np.ndarray, i: int) -> None:
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError(
                f"non-finite activation after layer {i} ({self.layers[i].kind}) of {self.name}"
            )

    def _check_step(self, n: int, i: int, arr: np.ndarray) -> None:
        """Scan step n (layer i; a PointBlock scans itself).  ReLU and max-pool
        keep finite inputs finite, so they are scanned only as the first step."""
        if n == 0 or not isinstance(self.layers[i], (ReLU, MaxPool)):
            self._check(arr, i)

    def forward(self, x: Tensor, *, train: bool) -> Tensor:
        """Run the stack as autodiff nodes, each fused triple as one PointBlock
        node, with train or infer arithmetic as `train` says; raise
        FloatingPointError naming the first layer whose output is not
        finite."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        for n, (i, step) in enumerate(self._steps):
            if isinstance(step, PointBlock):
                x = step.forward(x, train, self._check, i)
            else:
                x = step.forward(x, train)
                self._check_step(n, i, x.data)
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        """forward(Tensor(x), train=False).data, bit for bit and with the same
        FloatingPointError, but with no graph; x is never written to, and each
        intermediate is freed once the next step reads it."""
        x = np.asarray(x, dtype=np.float64)
        for n, (i, step) in enumerate(self._steps):
            if isinstance(step, PointBlock):
                x = step.predict(x, self._check, i)
            else:
                x = step.predict(x)
                self._check_step(n, i, x)
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
        """Copy `vec` into the parameters; ValueError, changing nothing, when
        its length is not the parameter count."""
        params = self.parameters()
        expected = sum(t.data.size for t in params)
        if vec.size != expected:
            raise ValueError(f"parameter vector length {vec.size}, expected {expected}")
        offset = 0
        for t in params:
            size = t.data.size
            t.data = vec[offset : offset + size].reshape(t.data.shape).copy()
            offset += size

    def maxpool_tie_count(self) -> int:
        return sum(l.last_tie_count for l in self.layers if isinstance(l, MaxPool))

    # ---- architecture identity ----

    def layer_specs(self) -> list[dict]:
        return [layer.spec() for layer in self.layers]

    def architecture_hash(self) -> str:
        canon = json.dumps(self.layer_specs(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def dense_stack(n_in: int, widths: tuple, rng: Rng, name: str) -> Network:
    """Dense layers of `widths` on n_in features: Kaiming init and a ReLU
    after each hidden layer, Xavier init on the last, drawn from rng in
    layer order."""
    layers: list = []
    for width in widths[:-1]:
        layers += [Dense(n_in, width, rng, init="kaiming"), ReLU()]
        n_in = width
    layers.append(Dense(n_in, widths[-1], rng, init="xavier"))
    return Network(layers, name=name)


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
