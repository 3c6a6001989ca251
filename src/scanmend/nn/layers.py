"""Network layers: dense, shared per-point MLP, batchnorm, ReLU, max pool.

A Network is an ordered list of layer records; each run of consecutive
PointwiseDense -> BatchNorm -> ReLU triples in it, such as the encoder's
five, runs as one fused PointBlock node.  A train call of that node saves
only each triple's x-hat and recomputes the triples' outputs in backward
(see there for the buffers it owns and overwrites).  Weights are float64
Tensors; batchnorm running statistics are plain arrays.  A network holds no
run mode: each call chooses train or infer arithmetic for itself.
`forward(x, train=...)` takes the choice as a required keyword and builds
autodiff nodes; only a train forward normalizes by batch statistics and
updates the running statistics.  `predict`, for inference, runs the infer
formulas on plain arrays with the running statistics, builds no node, and
writes only into arrays it allocated, never into its input, even when the
first layer is a ReLU or a BatchNorm.  So Network.predict(x) is
forward(Tensor(x), train=False).data, bit for bit.  `frozen()` gives a view
of a network whose parameters are constants (see nn.tensor), to
differentiate through it without training it.  Initialization is
seed-controlled: Kaiming-uniform ahead of ReLU, Xavier for final linear
layers; a network built with no Rng, to be filled from a checkpoint, starts
from zero weights and draws nothing.  A layer's spec() record (type and
sizes) identifies the architecture; checkpoints store the records, and
loading compares them with those of a network built by the model's own
code, so no layer is ever built from a record.
"""

from __future__ import annotations

import copy
import hashlib
import json

import numpy as np

from ..rng import Rng
from .tensor import Tensor, affine, affine_backward

BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # running = momentum * running + (1 - momentum) * batch
_TILE_ROWS = 512  # rows per PointBlock.predict tile: 1 MiB at the encoder's widest layer


def _init_weight(n_in: int, n_out: int, scheme: str, rng: Rng | None) -> np.ndarray:
    """Initial weights drawn from rng, or zeros when rng is None: a network
    that a checkpoint will fill needs no draw."""
    if scheme == "kaiming":
        limit = np.sqrt(6.0 / n_in)
    elif scheme == "xavier":
        limit = np.sqrt(6.0 / (n_in + n_out))
    else:
        raise ValueError(f"unknown init scheme {scheme!r}")
    if rng is None:
        return np.zeros((n_in, n_out))
    return (rng.uniform((n_in, n_out)) * 2.0 - 1.0) * limit


class Dense:
    """Fully connected layer on (batch, features) inputs."""

    kind, ndim = "dense", 2

    def __init__(self, n_in: int, n_out: int, rng: Rng | None, init: str = "kaiming"):
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

    def normalize_train(self, flat: np.ndarray, mu: np.ndarray, out=None) -> tuple:
        """(x-hat, inv) of `flat` under its batch statistics, and update the
        running averages; `mu` is the batch mean, flat.mean(axis=0).  x-hat
        is written to `out`, which may be `flat` itself, or to a new array
        when out is None."""
        m = flat.shape[0]
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
            flat = x.data.reshape(m, width)
            xhat, inv = self.normalize_train(flat, flat.mean(axis=0))
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
    """A run of consecutive PointwiseDense -> BatchNorm -> ReLU triples as
    one graph node.

    Network builds one for each such run in its layer list, so the
    encoder's five triples are one node; the layers keep their records,
    parameters and running statistics.  The node's parents are x and then
    each triple's (W, b, gamma, beta): a run of one has parents
    (x, W, b, gamma, beta).  Every per-element formula and reduction is the
    layers' own, so the outputs, running statistics and gradients are
    bit-identical to running the layers one by one.

    A train call keeps only the run's flattened input and each triple's
    x-hat, which it normalizes in place in the GEMM output, and `inv`.  A
    triple's output, max(x-hat * gamma + beta, 0), is dropped as soon as the
    next triple's GEMM has read it; the last one is the node's output.
    Backward walks the triples in reverse in the output gradient it
    receives, which it owns (see nn.tensor); a read-only gradient (sum's
    broadcast) is masked into a new array instead.  Per triple it applies
    the ReLU mask and the BatchNorm backward, which overwrites that triple's
    x-hat, then recomputes the triple's input from the previous triple's
    x-hat with the forward's own ops.  That array gives the weight gradient and the
    previous triple's ReLU mask, and is freed before the input gradient is
    allocated.  An infer call keeps every triple's output and runs the
    BatchNorm affine map and the ReLU in place in its GEMM output, so its
    backward recomputes the GEMM; predict runs the same infer arithmetic
    with no node and keeps nothing, over tiles of whole clouds of at most
    _TILE_ROWS rows, so that a batch's layer outputs never reach megabytes.
    The tiles leave every bit unchanged: numpy's GEMM gives a row the same
    bits whatever number of rows, two or more, shares the call (measured for
    the encoder's layer shapes; tests/test_predict.py checks it at several
    tile sizes), and every other op is per row or per feature.  A one-row
    product goes to gemv, whose bits may differ, so clouds of one point run
    untiled.
    """

    def __init__(self, triples: list):
        self.triples = triples  # (PointwiseDense, BatchNorm) pairs

    def _run(self, x: np.ndarray, train: bool, check, index: int, keep: int) -> tuple:
        """(output, flat inputs of the first `keep` triples, (x-hat, inv) per
        triple for a train or (mean, inv) for an infer call) of the run on
        array x.  `check(array, i)` raises when the output of layer i is not
        finite; `index` is the index of the run's first layer.

        Each triple is scanned once, at its BatchNorm output, which is not
        finite whenever its GEMM output is not.  The dense layer is still
        named when its output is the one that is not finite: a train call
        scans the GEMM output when the batch mean is not finite, before the
        running statistics change; an infer call, whose BatchNorm overwrote
        the GEMM output, recomputes it from the input when the scan fails."""
        inputs, states = [], []
        for j, (dense, bn) in enumerate(self.triples):
            dense.check_input(x)
            shape = x.shape[:-1] + (dense.n_out,)
            w, b = dense.w.data, dense.b.data
            flat, h = affine(x, w, b)
            if j < keep:
                inputs.append(flat)
            if train:
                # A later triple's input is a view of the previous output: drop it.
                del x, flat
                mu = h.mean(axis=0)
                if not np.isfinite(mu).all():
                    check(h, index + 3 * j)
                states.append(bn.normalize_train(h, mu, out=h))
                y = bn.scale_shift(h)
                check(y, index + 3 * j + 1)
            else:
                states.append(bn.infer_stats())
                y = bn.normalize_infer(h, *states[-1], out=h)
                try:
                    check(y, index + 3 * j + 1)
                except FloatingPointError:
                    check(affine(flat, w, b)[1], index + 3 * j)
                    raise
                del x, flat
            # ReLU maps finite values to finite values, so its output needs no check.
            x = np.maximum(y, 0.0, out=y).reshape(shape)
        return x, inputs, states

    def predict(self, x: np.ndarray, check, index: int) -> np.ndarray:
        """The infer call's output, from consecutive tiles of whole clouds
        of at most _TILE_ROWS rows (one cloud when a cloud has more), joined.
        Clouds of one point run untiled (see the class).  An error in any
        tile reruns the whole batch, which raises the error of the untiled
        call: the first layer that fails on any cloud, and the full shape."""
        if x.ndim != 3 or x.shape[1] < 2 or x.shape[0] * x.shape[1] <= _TILE_ROWS:
            return self._run(x, False, check, index, 0)[0]
        per = max(_TILE_ROWS // x.shape[1], 1)
        try:
            tiles = [self._run(x[s : s + per], False, check, index, 0)[0]
                     for s in range(0, len(x), per)]
        except (FloatingPointError, ValueError):
            return self._run(x, False, check, index, 0)[0]
        return np.concatenate(tiles)

    def forward(self, x: Tensor, train: bool, check, index: int) -> Tensor:
        triples = self.triples
        y, inputs, states = self._run(x.data, train, check, index, 1 if train else len(triples))
        params = [t for dense, bn in triples for t in (dense.w, dense.b, bn.gamma, bn.beta)]
        out = Tensor(y, (x, *params))

        def backward(g):
            # y > 0 exactly where the BatchNorm output was positive.  g is
            # this node's own, unless it is sum's read-only broadcast.
            mask = y > 0.0
            g = np.multiply(g, mask, out=g) if g.flags.writeable else g * mask
            for j in range(len(triples) - 1, -1, -1):
                dense, bn = triples[j]
                w, b = dense.w, dense.b
                dy = g.reshape(-1, dense.n_out)
                del g
                if train:
                    # Overwrites triple j's x-hat, which pop then frees.
                    dh = bn.backward_train(dy, *states.pop(), out=dy)
                    if j:
                        # Triple j's input, from the previous x-hat before its
                        # backward overwrites it, with the forward's ops.
                        inp = triples[j - 1][1].scale_shift(states[-1][0])
                        np.maximum(inp, 0.0, out=inp)
                    else:
                        inp = inputs.pop()
                else:
                    inp = inputs.pop()
                    dh = bn.backward_infer(dy, affine(inp, w.data, b.data)[1], *states.pop())
                del dy
                if not j:
                    affine_backward(dh, inp, x, w, b)
                    return
                w.accum_grad(inp.T @ dh)
                b.accum_grad(dh.sum(axis=0))
                mask = inp > 0.0
                del inp
                g = dh @ w.data.T
                del dh
                np.multiply(g, mask, out=g)

        out._backward = backward
        return out


def _is_triple(layers: list) -> bool:
    return (
        len(layers) == 3
        and isinstance(layers[0], PointwiseDense)
        and isinstance(layers[1], BatchNorm)
        and isinstance(layers[2], ReLU)
        and layers[0].n_out == layers[1].width
    )


def _forward_steps(layers: list) -> list:
    """(index, step) pairs that run `layers` in order, each run of
    consecutive PointwiseDense -> BatchNorm -> ReLU triples of matching
    width as one PointBlock step.  A triple whose widths differ runs layer
    by layer, so that BatchNorm's own check reports the mismatch."""
    steps, i = [], 0
    while i < len(layers):
        end = i
        while _is_triple(layers[end : end + 3]):
            end += 3
        if end > i:
            steps.append((i, PointBlock([(layers[k], layers[k + 1]) for k in range(i, end, 3)])))
            i = end
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
        """Run the stack as autodiff nodes, each run of fused triples as one
        PointBlock node, with train or infer arithmetic as `train` says; raise
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
        intermediate is freed once the next step reads it.  A PointBlock step
        runs in tiles of whole clouds of at most _TILE_ROWS rows, so the
        encoder's working set does not grow with the batch; a GEMM gives
        each row the same bits in a tile as in the batch, except in a one-row
        tile, so clouds of one point run untiled (see PointBlock)."""
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

    def frozen(self) -> "Network":
        """A view of the network as it is now, to differentiate through it
        without training it: copies of its layers whose parameters are
        constants on the arrays they hold now, so a backward through the
        view reaches its input only.  The view shares no state that a call
        changes: set_param_vector rebinds the network's arrays, not the
        view's, and a train call on the view updates the view's BatchNorm
        running statistics, not the network's."""
        layers = []
        for layer in self.layers:
            view = copy.copy(layer)
            for name, t in layer.param_items():
                setattr(view, name, Tensor(t.data, constant=True))
            layers.append(view)
        return Network(layers, name=self.name)

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


def dense_stack(n_in: int, widths: tuple, rng: Rng | None, name: str) -> Network:
    """Dense layers of `widths` on n_in features: Kaiming init and a ReLU
    after each hidden layer, Xavier init on the last, drawn from rng in
    layer order (zeros when rng is None)."""
    layers: list = []
    for width in widths[:-1]:
        layers += [Dense(n_in, width, rng, init="kaiming"), ReLU()]
        n_in = width
    layers.append(Dense(n_in, widths[-1], rng, init="xavier"))
    return Network(layers, name=name)

