"""Reverse-mode automatic differentiation over numpy float64 arrays.

A Tensor wraps a value array and a gradient slot.  Each operation records
its parents and a closure that routes the node's output gradient to them;
backward() runs the closures in reverse topological order.  Tensors carry at
most three axes (batch, points, features).  Custom operations (EMD, soft
Hausdorff, max pooling) build nodes directly by supplying parents and
assigning _backward.

Three rules keep memory behavior sane across long training runs:

* The graph must stay acyclic in the reference-counting sense: a backward
  closure receives the output gradient as its argument and must never
  capture the output tensor itself (captured forward intermediates are fine
  as plain arrays).  References then only point child -> parent, so an
  entire step's graph is freed the moment the loss tensor is dropped, with
  no reliance on the cycle collector.
* No operation writes into an array another node holds: in-place updates
  touch only arrays the operation itself just allocated.  A closure may
  therefore capture its own output array (ReLU derives its mask from it).
  The fused point block (`layers.PointBlock`) is the widest case: a train
  call normalizes its own GEMM output in place to x-hat and writes its
  output into a second array; its backward overwrites one array it
  allocates, never the output gradient it receives, its x-hat or its
  output.  An infer call works in place in its GEMM output, which is its
  output array, so its backward recomputes the GEMM.
  `Network.predict`, the inference path, keeps the same rule with no node at
  all: it builds no Tensor, normalizes by the BatchNorm running statistics,
  and writes only into arrays it allocated itself, never into its input,
  even when the first layer is a ReLU or a BatchNorm.
* Gradients are allocated lazily: `grad` is None until backward reaches the
  tensor.  Accumulation always rebinds (`grad = grad + g`) and never mutates
  an existing array, so a gradient may safely alias its consumer's gradient
  when an op merely passes it through (add, reshape).
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def affine(data: np.ndarray, w: np.ndarray, b: np.ndarray | None):
    """The flattened GEMM of `data @ w (+ b)`: (contiguous (rows, n_in) input,
    new (rows, n_out) output), the bias added in place into the output."""
    flat = np.ascontiguousarray(data).reshape(-1, w.shape[0])
    y = flat @ w
    if b is not None:
        y += b
    return flat, y


def affine_backward(g2: np.ndarray, flat: np.ndarray, x: "Tensor", w: "Tensor", b) -> None:
    """Route the (rows, n_out) output gradient `g2` of affine() to x, w and b."""
    x.accum_grad((g2 @ w.data.T).reshape(x.data.shape))
    w.accum_grad(flat.T @ g2)
    if b is not None:
        b.accum_grad(g2.sum(axis=0))


class Tensor:
    __slots__ = ("data", "grad", "_backward", "_parents")

    def __init__(self, data, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._backward = None
        self._parents = tuple(parents)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def accum_grad(self, g) -> None:
        """Add `g` into the gradient slot without mutating any array."""
        self.grad = g if self.grad is None else self.grad + g

    def grad_or_zeros(self) -> np.ndarray:
        return np.zeros_like(self.data) if self.grad is None else self.grad

    # ---- graph traversal ----

    def backward(self, upstream=None) -> None:
        """Accumulate gradients of self w.r.t. every ancestor.

        With no upstream, self must be scalar-valued and is seeded with 1.
        """
        if upstream is None:
            if self.data.size != 1:
                raise ValueError("backward() without upstream needs a scalar tensor")
            self.accum_grad(np.ones_like(self.data))
        else:
            up = np.asarray(upstream, dtype=np.float64)
            if up.shape != self.data.shape:
                raise ValueError(f"upstream shape {up.shape} != tensor shape {self.data.shape}")
            self.accum_grad(up)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ---- arithmetic ----

    def __add__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data + other.data, (self, other))

            def backward(g):
                self.accum_grad(_unbroadcast(g, self.data.shape))
                other.accum_grad(_unbroadcast(g, other.data.shape))

        else:
            out = Tensor(self.data + other, (self,))

            def backward(g):
                self.accum_grad(_unbroadcast(g, self.data.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, (self,))

        def backward(g):
            self.accum_grad(-g)

        out._backward = backward
        return out

    def __sub__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data - other.data, (self, other))

            def backward(g):
                self.accum_grad(_unbroadcast(g, self.data.shape))
                other.accum_grad(_unbroadcast(-g, other.data.shape))

            out._backward = backward
            return out
        return self + (-np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data * other.data, (self, other))

            def backward(g):
                self.accum_grad(_unbroadcast(g * other.data, self.data.shape))
                other.accum_grad(_unbroadcast(g * self.data, other.data.shape))

        else:
            const = np.asarray(other, dtype=np.float64)
            out = Tensor(self.data * const, (self,))

            def backward(g):
                self.accum_grad(_unbroadcast(g * const, self.data.shape))

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: float):
        e = float(exponent)
        out = Tensor(self.data**e, (self,))
        base = self.data

        def backward(g):
            self.accum_grad(g * e * base ** (e - 1.0))

        out._backward = backward
        return out

    def matmul(self, w: "Tensor", bias: "Tensor | None" = None) -> "Tensor":
        """self @ w (+ bias) with self of 2 or 3 axes and w a 2-D weight matrix.

        Runs as a single flattened GEMM; the bias is added in place into the
        GEMM output, so one node holds the affine map and no pre-bias array
        stays alive.
        """
        if w.data.ndim != 2:
            raise ValueError("matmul weight must be 2-D")
        n_out = w.data.shape[1]
        flat, y = affine(self.data, w.data, None if bias is None else bias.data)
        parents = (self, w) if bias is None else (self, w, bias)
        out = Tensor(y.reshape(self.data.shape[:-1] + (n_out,)), parents)

        def backward(g):
            affine_backward(np.ascontiguousarray(g).reshape(-1, n_out), flat, self, w, bias)

        out._backward = backward
        return out

    __matmul__ = matmul

    # ---- nonlinearities and elementwise maps ----

    def relu(self):
        y = np.maximum(self.data, 0.0)
        out = Tensor(y, (self,))

        def backward(g):
            # y > 0 exactly where the input was positive.
            self.accum_grad(g * (y > 0.0))

        out._backward = backward
        return out

    def sigmoid(self):
        s = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(s, (self,))

        def backward(g):
            self.accum_grad(g * s * (1.0 - s))

        out._backward = backward
        return out

    def log(self):
        out = Tensor(np.log(self.data), (self,))
        base = self.data

        def backward(g):
            self.accum_grad(g / base)

        out._backward = backward
        return out

    # ---- reductions and shape ----

    def sum(self, axis=None, keepdims: bool = False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        shape = self.data.shape

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self.accum_grad(np.broadcast_to(g, shape))

        out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max_over_axis(self, axis: int) -> tuple["Tensor", int]:
        """Max along one axis; also returns the number of tied maxima cells.

        Gradient flows to the first attaining element per cell (ties make the
        point nondifferentiable; callers use the tie count to detect that).
        """
        m = self.data.max(axis=axis, keepdims=True)
        hits = self.data == m
        ties = int((hits.sum(axis=axis) > 1).sum())
        first = hits.cumsum(axis=axis) == 1
        mask = hits & first
        out = Tensor(np.squeeze(m, axis=axis), (self,))

        def backward(g):
            self.accum_grad(np.expand_dims(g, axis) * mask)

        out._backward = backward
        return out, ties

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), (self,))
        in_shape = self.data.shape

        def backward(g):
            self.accum_grad(g.reshape(in_shape))

        out._backward = backward
        return out
