"""Reverse-mode automatic differentiation over numpy float64 arrays.

A Tensor wraps a value array and a gradient slot.  Each operation records
its parents and a closure that routes the node's output gradient to them;
backward() runs the closures in reverse topological order.  Tensors carry at
most three axes (batch, points, features).  Custom operations (EMD, soft
Hausdorff, max pooling) build nodes directly by supplying parents and
assigning _backward.

A tensor may be a constant: data that no gradient is wanted for, such as
a batch of inputs or the weights of a frozen network (see
layers.Network.frozen).  A constant receives no gradient: accum_grad
ignores it, so its `grad` stays None, and the affine backward skips the
GEMM or the bias sum that would produce one.  Every other gradient is the
same, bit for bit, as with a variable in its place: skipping a constant's
gradient changes no operand of any other.

Four rules keep memory behavior sane across long training runs:

* Backward consumes the graph.  A backward closure receives the output
  gradient as its argument and must never capture the output tensor itself
  (captured forward intermediates are fine as plain arrays), so references
  only point child -> parent.  backward() drops each interior node's
  gradient, closure and parents as the walk passes it: a layer's saved
  arrays and gradients are freed as the walk leaves the layer, the rest
  dies with the root and the outputs the caller holds, and nothing relies
  on the cycle collector.  A second backward() through a consumed node
  raises RuntimeError, since its closure may have overwritten what it saved.
* A closure owns its incoming gradient: no live tensor and no caller array
  aliases it, so the closure may write into it (an add of two same-shape
  parents hands the second a copy).  The exception is the read-only
  broadcast that `sum` passes on, so an in-place closure checks
  `g.flags.writeable`.  Forward, no operation writes into an array another
  node holds, so a closure may capture its own output array (ReLU derives
  its mask from it).  The fused point block (`layers.PointBlock`) is the
  widest case.  Its forward node normalizes each GEMM output in place to
  x-hat and writes each triple's output into a new array; its backward
  works in its incoming gradient, overwrites each x-hat and never writes
  its output.  `Network.predict`, the inference path, keeps the same rule
  with no node at all: it builds no Tensor, normalizes by the BatchNorm
  running statistics in place in each GEMM output, and writes only into
  arrays it allocated itself, never into its input, even when the first
  layer is a ReLU or a BatchNorm.
* A node need not save what its backward reads.  It may recompute an
  intermediate from what it saved, with the forward's own ops on the same
  operands, so the recomputed array equals the dropped one bit for bit.
  The point block's forward saves only each triple's x-hat and `inv`;
  its backward recomputes each triple's input, the previous triple's
  output, from the previous x-hat before that x-hat is overwritten.
* The root and the leaves keep their gradients (a constant has none).
  `grad` is None until backward reaches the tensor, and accumulation always
  rebinds (`grad = grad + g`).  backward(upstream) leaves
  `root.grad is upstream`, unchanged, and hands the root's closure a
  private copy.
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
    """Route the (rows, n_out) output gradient `g2` of affine() to x, w and
    b, computing none for a constant."""
    if not x.constant:
        x.accum_grad((g2 @ w.data.T).reshape(x.data.shape))
    if not w.constant:
        w.accum_grad(flat.T @ g2)
    if b is not None and not b.constant:
        b.accum_grad(g2.sum(axis=0))


_CONSUMED = "backward() through a graph that an earlier backward() consumed"


def _consumed(g) -> None:
    """The closure of a node that backward() has walked past."""
    raise RuntimeError(_CONSUMED)


class Tensor:
    __slots__ = ("data", "grad", "_backward", "_parents", "constant")

    def __init__(self, data, parents=(), constant: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._backward = None
        self._parents = tuple(parents)
        self.constant = constant

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def accum_grad(self, g) -> None:
        """Add `g` into the gradient slot without mutating any array; a
        constant keeps no gradient."""
        if not self.constant:
            self.grad = g if self.grad is None else self.grad + g

    def grad_or_zeros(self) -> np.ndarray:
        return np.zeros_like(self.data) if self.grad is None else self.grad

    # ---- graph traversal ----

    def backward(self, upstream=None) -> None:
        """Accumulate gradients of self w.r.t. every ancestor, consuming the
        graph: the walk drops each interior node's gradient, closure and
        parents as it runs that closure.  self and the leaves keep their
        gradients.

        With no upstream, self must be scalar-valued and is seeded with 1.
        Raises RuntimeError, before any closure runs, when an earlier
        backward() consumed part of the graph.
        """
        if upstream is None:
            if self.data.size != 1:
                raise ValueError("backward() without upstream needs a scalar tensor")
            up = np.ones_like(self.data)
        else:
            up = np.asarray(upstream, dtype=np.float64)
            if up.shape != self.data.shape:
                raise ValueError(f"upstream shape {up.shape} != tensor shape {self.data.shape}")
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
            if node._backward is _consumed:
                raise RuntimeError(_CONSUMED)
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.accum_grad(up)
        # Pop rather than iterate, so that the list does not keep a passed
        # node, and with it its value, alive.
        while topo:
            node = topo.pop()
            fn, g = node._backward, node.grad
            if fn is None:
                continue
            if node is self:
                g = g.copy()
            else:
                node.grad = None
            node._backward, node._parents = _consumed, ()
            if g is not None:
                fn(g)

    # ---- arithmetic ----

    def __add__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data + other.data, (self, other))

            def backward(g):
                gs = _unbroadcast(g, self.data.shape)
                go = _unbroadcast(g, other.data.shape)
                # Each parent owns its gradient; a read-only g is never written.
                self.accum_grad(gs)
                other.accum_grad(go.copy() if go is gs and g.flags.writeable else go)

        else:
            out = Tensor(self.data + other, (self,))

            def backward(g):
                self.accum_grad(_unbroadcast(g, self.data.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data - other.data, (self, other))

            def backward(g):
                self.accum_grad(_unbroadcast(g, self.data.shape))
                other.accum_grad(_unbroadcast(-g, other.data.shape))

            out._backward = backward
            return out
        return self + (-np.asarray(other))

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

    # ---- nonlinearity ----

    def relu(self):
        y = np.maximum(self.data, 0.0)
        out = Tensor(y, (self,))

        def backward(g):
            # y > 0 exactly where the input was positive.
            self.accum_grad(g * (y > 0.0))

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
