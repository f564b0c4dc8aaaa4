"""Minimal reverse-mode automatic differentiation on numpy arrays.

Every op records its inputs and a backward closure; `backward(loss)`
topologically sorts the recorded graph and accumulates gradients into
every tracked tensor, or returns those of the given leaves.  Recorded
tensors are never mutated in place, which is what makes the gradient
contract hold.  Training runs in float32; gradient checks rebuild the
same graph in float64.

Also provides the network building blocks used downstream: dense MLPs
(relu hidden layers, linear output, Glorot-uniform init from a seeded
PCG64 generator) and Adam with bias correction.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .errors import ShapeError


class Tensor:
    """An array value plus the bookkeeping to backpropagate through it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None,
                 _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def constant(value, dtype=None) -> Tensor:
    return Tensor(value, requires_grad=False, dtype=dtype)


def parameter(value, dtype=np.float32) -> Tensor:
    return Tensor(value, requires_grad=True, dtype=dtype)


def _wrap(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _make(data, parents, backward) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _wrap(a, b)
    b = _wrap(b, a)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from None
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _wrap(a, b)
    b = _wrap(b, a)
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}") from None
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _wrap(a, b)
    b = _wrap(b, a)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None
    return _make(out, (a, b), lambda g: (_unbroadcast(g * b.data, a.shape),
                                         _unbroadcast(g * a.data, b.shape)))


def div(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _wrap(a, b)
    b = _wrap(b, a)
    try:
        out = a.data / b.data
    except ValueError:
        raise ShapeError(f"div: incompatible shapes {a.shape} and {b.shape}") from None
    return _make(out, (a, b), lambda g: (_unbroadcast(g / b.data, a.shape),
                                         _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def square(a: Tensor) -> Tensor:
    return _make(a.data * a.data, (a,), lambda g: (g * (2.0 * a.data),))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * (0.5 / out),))


def relu(a: Tensor) -> Tensor:
    """max(a, 0) with +0.0 for inputs <= 0 and NaN; gradient passes where a > 0."""
    mask = a.data > 0
    # +0.0 is the all-zero bit pattern, so AND-ing the bits with the mask
    # widened to all-ones/all-zeros equals where(mask, a, 0.0) bit for bit
    bits = np.dtype(f"i{a.dtype.itemsize}")
    out = (a.data.view(bits) & -mask.astype(bits)).view(a.dtype)
    return _make(out, (a,), lambda g: (g * mask,))


def select(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise where() with a constant boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, a.data, b.data)
    return _make(out, (a, b), lambda g: (_unbroadcast(g * mask, a.shape),
                                         _unbroadcast(g * ~mask, b.shape)))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, w: Tensor) -> Tensor:
    """(..., n) @ (n, p); the right operand must be 2D (weights, transforms)."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    w = w if isinstance(w, Tensor) else Tensor(w)
    if w.data.ndim != 2 or a.data.ndim < 2 or a.shape[-1] != w.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {w.shape}")
    out = a.data @ w.data

    def backward(g):
        ga = g @ w.data.T
        gw = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, w.shape[1])
        return ga, gw

    return _make(out, (a, w), backward)


def apply_linear_maps(mats: Tensor, vecs: Tensor) -> Tensor:
    """Per-point matrix application: (N, a, b) maps acting on (N, R, b) vectors."""
    if mats.data.ndim != 3 or vecs.data.ndim != 3 or mats.shape[0] != vecs.shape[0] \
            or mats.shape[2] != vecs.shape[2]:
        raise ShapeError(f"apply_linear_maps: incompatible shapes {mats.shape} and {vecs.shape}")
    out = np.einsum("nab,nrb->nra", mats.data, vecs.data)

    def backward(g):
        gm = np.einsum("nra,nrb->nab", g, vecs.data)
        gv = np.einsum("nab,nra->nrb", mats.data, g)
        return gm, gv

    return _make(out, (mats, vecs), backward)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2D tensor, got {a.shape}")
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,))


def inverse(a: Tensor) -> Tensor:
    """Matrix inverse of a square 2D tensor."""
    if a.data.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"inverse expects a square 2D tensor, got {a.shape}")
    out = np.linalg.inv(a.data)
    return _make(out, (a,), lambda g: (-(out.T @ g @ out.T),))


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(out, tensors, backward)


def _scatter_rows(g: np.ndarray, indices: np.ndarray, rows: int) -> np.ndarray:
    """(rows, ...) sums of g's rows by target index: out[indices[p]] += g[p].

    A CSR matrix with one row per target, its entries in ascending p, times
    g adds each target's terms in ascending p from zero, as np.add.at does,
    so the sums are bitwise equal to it.
    """
    m = len(indices)
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=rows), out=indptr[1:])
    scatter = sparse.csr_array((np.ones(m, dtype=g.dtype), np.argsort(indices, kind="stable"),
                                indptr), shape=(rows, m))
    flat = g.reshape(m, math.prod(g.shape[1:]))
    return (scatter @ flat).reshape((rows,) + g.shape[1:])


def gather(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Select rows/columns by a 1-D integer index; gradients scatter-add back."""
    indices = np.asarray(indices, dtype=np.int64)
    if axis not in (0, 1) or indices.ndim != 1:
        raise ShapeError("gather takes a 1-D index along axis 0 or 1")
    out = np.take(a.data, indices, axis=axis)
    size = a.shape[axis]
    indices = np.where(indices < 0, indices + size, indices)

    def backward(g):
        if axis == 0:
            ga = _scatter_rows(g, indices, size)
        else:
            ga = np.swapaxes(_scatter_rows(np.swapaxes(g, 0, 1), indices, size), 0, 1)
        return (ga.astype(a.dtype, copy=False),)

    return _make(out, (a,), backward)


# ---------------------------------------------------------------------------
# reductions and nonlinear maps


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=False),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, a.shape).astype(a.dtype, copy=False),)

    return _make(out, (a,), backward)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reduce_max(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max along an axis; gradient routes to the first (lowest-index) argmax."""
    out = a.data.max(axis=axis, keepdims=keepdims)

    def backward(g):
        # the argmax is the first index holding the max, or a NaN when the max
        # is NaN: k - max(hit * (k, k-1, ..., 1)) along the axis, which reduces
        # the contiguous trailing axes instead of striding like np.argmax
        peak = out if keepdims else np.expand_dims(out, axis)
        hit = a.data == peak
        hit |= np.isnan(a.data)
        k = a.shape[axis]
        rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))
        rank = rank.reshape((k,) + (1,) * (a.data.ndim - axis % a.data.ndim - 1))
        argmax = k - (hit * rank).max(axis=axis, keepdims=True).astype(np.intp)
        ga = np.zeros_like(a.data)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(ga, argmax, g_exp, axis=axis)
        return (ga,)

    return _make(out, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return _make(out, (a,), backward)


def unit_rows(a: Tensor, eps: float = 1e-20) -> Tensor:
    """Normalize along the last axis.

    eps guards exact-zero rows; 1 + eps rounds to 1, so unit rows pass
    through bit-exactly.
    """
    norm = sqrt(add(reduce_sum(square(a), axis=-1, keepdims=True), eps))
    return div(a, norm)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor, leaves=None):
    """Populate .grad of every tracked tensor with d(loss)/d(tensor).

    Given `leaves` (tensors without parents, such as parameters), their
    gradients are returned in that order (None where the loss does not
    depend on one) and their .grad is left untouched, so graphs that share
    parameters can run backward on separate threads.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    held = {} if leaves is None else {id(t): None for t in leaves}
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        grads = node._backward(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in held:
                held[key] = g if held[key] is None else held[key] + g
            else:
                parent.grad = g if parent.grad is None else parent.grad + g
    if leaves is not None:
        return [held[id(t)] for t in leaves]


def zero_grad(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# network building blocks


class Mlp:
    """Dense MLP with Glorot-uniform init (biases zero) from a PCG64 rng.

    `widths` lists the input, hidden and output widths: relu on hidden
    layers, linear output.
    """

    def __init__(self, rng: np.random.Generator, widths, name: str = "mlp",
                 zero_init_last: bool = False, dtype=np.float32):
        widths = tuple(int(w) for w in widths)
        if len(widths) < 2:
            raise ValueError("an MLP needs at least input and output widths")
        if any(w < 1 for w in widths):
            raise ValueError("all widths must be >= 1")
        self.name = name
        self.layers: list[tuple[Tensor, Tensor]] = []
        n_layers = len(widths) - 1
        for i in range(n_layers):
            fan_in, fan_out = widths[i], widths[i + 1]
            if zero_init_last and i == n_layers - 1:
                weight = np.zeros((fan_in, fan_out))
            else:
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                weight = rng.uniform(-limit, limit, size=(fan_in, fan_out))
            self.layers.append((parameter(weight, dtype=dtype),
                                parameter(np.zeros(fan_out), dtype=dtype)))

    def __call__(self, x: Tensor) -> Tensor:
        last = len(self.layers) - 1
        for i, (weight, bias) in enumerate(self.layers):
            x = add(matmul(x, weight), bias)
            if i < last:
                x = relu(x)
        return x

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, (weight, bias) in enumerate(self.layers):
            out.append((f"{self.name}.w{i}", weight))
            out.append((f"{self.name}.b{i}", bias))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]


class Adam:
    """Adam with bias correction; state lives in this object."""

    def __init__(self, params, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / (1.0 - self.beta1 ** t)
            v_hat = self.v[i] / (1.0 - self.beta2 ** t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        zero_grad(self.params)
