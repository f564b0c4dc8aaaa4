"""Minimal reverse-mode automatic differentiation on numpy arrays.

Every op records its inputs and a backward closure; `backward(loss)`
topologically sorts the recorded graph and returns the gradients of the
leaves the loss depends on, without writing to the graph.  Recorded
tensors are never mutated in place, which is what makes the gradient
contract hold.  Training runs in float32; gradient checks rebuild the
same graph in float64.

Also provides the network building blocks used downstream: dense MLPs
(relu hidden layers, linear output, Glorot-uniform init from a seeded
PCG64 generator, one graph node per layer, and an edge-convolution first
layer that keeps no edge rows) and Adam with bias correction.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .errors import ShapeError


class Tensor:
    """An array value plus the bookkeeping to backpropagate through it."""

    __slots__ = ("data", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None,
                 _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=dtype)
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


def _binary(op: str, a, b, value, grad_a, grad_b) -> Tensor:
    """value(a, b) as a node; grad_a(g, x, y) and grad_b(g, x, y) are unbroadcast in turn."""
    a = a if isinstance(a, Tensor) else Tensor(a, dtype=b.dtype)
    b = b if isinstance(b, Tensor) else Tensor(b, dtype=a.dtype)
    try:
        out = value(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None
    return _make(out, (a, b), lambda g: (_unbroadcast(grad_a(g, a.data, b.data), a.shape),
                                         _unbroadcast(grad_b(g, a.data, b.data), b.shape)))


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary("div", a, b, np.divide, lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y * y))


def square(a: Tensor) -> Tensor:
    return _make(a.data * a.data, (a,), lambda g: (g * (2.0 * a.data),))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * (0.5 / out),))


def select(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise where() with a constant boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, a.data, b.data)
    return _make(out, (a, b), lambda g: (_unbroadcast(g * mask, a.shape),
                                         _unbroadcast(g * ~mask, b.shape)))


# ---------------------------------------------------------------------------
# linear algebra


def _check_matmul(op: str, a: Tensor, w: Tensor) -> None:
    if w.data.ndim != 2 or a.data.ndim < 2 or a.shape[-1] != w.shape[0]:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {w.shape}")


def _matmul_grads(a: np.ndarray, w: np.ndarray, g: np.ndarray):
    """Gradients of a @ w given the output's gradient g."""
    ga = g @ w.T
    gw = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, w.shape[1])
    return ga, gw


def matmul(a: Tensor, w: Tensor) -> Tensor:
    """(..., n) @ (n, p); the right operand must be 2D (weights, transforms)."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    w = w if isinstance(w, Tensor) else Tensor(w)
    _check_matmul("matmul", a, w)
    return _make(a.data @ w.data, (a, w), lambda g: _matmul_grads(a.data, w.data, g))


def _affine(op: str, a: np.ndarray, weight: Tensor, bias: Tensor, relu: bool) -> np.ndarray:
    """relu(a @ weight + bias), or a @ weight + bias, with the bias and relu applied in place."""
    out = a @ weight.data
    try:
        # in place but for a lone element, which numpy adds in place as a
        # reduction that keeps the bias's NaN where both are NaN; `add` and a
        # new array keep the product's
        out = np.add(out, bias.data, out=out if out.size > 1 else np.empty_like(out),
                     casting="safe")
    except ValueError:
        raise ShapeError(f"{op}: bias shape {bias.shape} does not fit output "
                         f"{out.shape}") from None
    if relu:
        # +0.0 is the all-zero bit pattern, so multiplying the bits by the
        # mask equals where(out > 0, out, 0.0) bit for bit
        bits = out.view(f"i{out.itemsize}")
        np.multiply(bits, out > 0, out=bits)
    return out


def dense(a: Tensor, weight: Tensor, bias: Tensor, relu: bool) -> Tensor:
    """relu(a @ weight + bias), or a @ weight + bias, as one node.

    Bit for bit the result and gradients of matmul, add and a relu (+0.0 for
    inputs <= 0 and NaN, gradient passing where the input is > 0) in turn,
    but the bias and the relu are applied in place on the product, so the
    graph keeps one array per layer instead of three arrays and a mask: the
    output is +0.0 exactly where the relu's input was <= 0 or NaN, so
    out > 0 is the mask.
    """
    _check_matmul("dense", a, weight)
    out = _affine("dense", a.data, weight, bias, relu)

    def backward(g):
        g = g * (out > 0) if relu else g
        return (*_matmul_grads(a.data, weight.data, g), _unbroadcast(g, bias.shape))

    return _make(out, (a, weight, bias), backward)


def edge_dense(a: Tensor, neighbors, weight: Tensor, bias: Tensor, relu: bool) -> Tensor:
    """`dense` of the edge rows concat([a_i, a_j - a_i]) of each row i of a and
    its neighbours j, as one node that keeps none of the (n*k, 2w) edge rows.

    Output row i*k + t is the edge (i, neighbors[i, t]).  Bit for bit the
    gathers of a_i and a_j, their difference, the concat and `dense` in turn:
    the edge rows are rebuilt in backward, and a gets two parent gradients,
    the a_j rows' scatter, then the a_i rows' (concat part plus negated
    difference part), which `backward` adds in the order of those gathers'.
    """
    neighbors = np.asarray(neighbors, dtype=np.int64)
    if a.data.ndim != 2 or neighbors.ndim != 2 or len(neighbors) != len(a.data) \
            or weight.data.ndim != 2 or weight.shape[0] != 2 * a.shape[1]:
        raise ShapeError(f"edge_dense: features {a.shape}, neighbours {neighbors.shape} and "
                         f"weight {weight.shape} are not (n, w), (n, k) and (2w, p)")
    n, width = a.shape
    k = neighbors.shape[1]
    targets = neighbors.reshape(-1)

    def edges():
        rows = np.empty((n * k, 2 * width), dtype=a.dtype)
        rows.reshape(n, k, 2 * width)[:, :, :width] = a.data[:, None, :]
        np.subtract(np.take(a.data, targets, axis=0), rows[:, :width], out=rows[:, width:])
        return rows

    out = _affine("edge_dense", edges(), weight, bias, relu)

    def backward(g):
        g = g * (out > 0) if relu else g
        ge, gw = _matmul_grads(edges(), weight.data, g)
        g_j = ge[:, width:]
        g_i = ge[:, :width] + (-g_j)
        return (_scatter_rows(g_j, targets, n).astype(a.dtype, copy=False),
                _scatter_rows(g_i, np.repeat(np.arange(n), k), n).astype(a.dtype, copy=False),
                gw, _unbroadcast(g, bias.shape))

    return _make(out, (a, a, weight, bias), backward)


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
    so the sums are bitwise equal to it, but for one case: where two NaNs
    meet in one sum, this keeps the first NaN's sign and np.add.at the last's.
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


def concat_repeat(a: Tensor, b: Tensor, r: int) -> Tensor:
    """concat([a, gather(b, repeat(arange(n), r))], axis=-1) as one node.

    a is (n*r, p) and b is (n, q).  The node keeps no repeated copy of b; b's
    gradient sums each row's r gradients in order from zero, bitwise the
    gather's scatter.
    """
    n, width = len(b.data), a.shape[1]
    out = np.concatenate([a.data, np.repeat(b.data, r, axis=0)], axis=1)

    def backward(g):
        gb = _scatter_rows(g[:, width:], np.repeat(np.arange(n), r), n)
        return g[:, :width], gb.astype(b.dtype, copy=False)

    return _make(out, (a, b), backward)


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


def reduce_mean(a: Tensor) -> Tensor:
    return mul(reduce_sum(a), 1.0 / a.data.size)


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


def row_norms(a: Tensor, eps: float, keepdims: bool = False) -> Tensor:
    """sqrt(sum of squares + eps) along the last axis; eps keeps sqrt differentiable at 0."""
    return sqrt(add(reduce_sum(square(a), axis=-1, keepdims=keepdims), eps))


def unit_rows(a: Tensor) -> Tensor:
    """Normalize along the last axis.

    An eps of 1e-20 guards exact-zero rows; 1 + eps rounds to 1, so unit rows
    pass through bit-exactly.
    """
    return div(a, row_norms(a, 1e-20, keepdims=True))


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> dict:
    """{leaf: d(loss)/d(leaf)} for every leaf the loss depends on.

    Leaves are tracked tensors without parents, such as parameters.  Nothing
    is written to the graph, so graphs that share parameters can run
    backward on separate threads.  A node's gradient is complete once every
    node after it in topological order has run, and is dropped then.
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

    pending = {loss: np.ones_like(loss.data)} if loss.requires_grad else {}
    leaf_grads = {}
    for node in reversed(topo):
        grad = pending.pop(node, None)
        if grad is None:
            continue
        if node._backward is None:
            leaf_grads[node] = grad
            continue
        for parent, g in zip(node._parents, node._backward(grad)):
            if g is None or not parent.requires_grad:
                continue
            pending[parent] = pending[parent] + g if parent in pending else g
    return leaf_grads


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

    def __call__(self, x: Tensor, neighbors=None) -> Tensor:
        """The MLP of x's rows; with (n, k) `neighbors`, of x's edge rows (`edge_dense`)."""
        last = len(self.layers) - 1
        for i, (weight, bias) in enumerate(self.layers):
            if i == 0 and neighbors is not None:
                x = edge_dense(x, neighbors, weight, bias, relu=i < last)
            else:
                x = dense(x, weight, bias, relu=i < last)
        return x

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, (weight, bias) in enumerate(self.layers):
            out.append((f"{self.name}.w{i}", weight))
            out.append((f"{self.name}.b{i}", bias))
        return out


class Adam:
    """Adam with bias correction and fixed betas and eps; the state is step_count, m and v."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr: float = 0.001):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: dict) -> None:
        """Update each parameter from grads[parameter], as `backward` returns.

        A parameter absent from `grads` keeps its value and moments.
        """
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = grads.get(p)
            if g is None:
                continue
            self.m[i] = self.BETA1 * self.m[i] + (1.0 - self.BETA1) * g
            self.v[i] = self.BETA2 * self.v[i] + (1.0 - self.BETA2) * (g * g)
            m_hat = self.m[i] / (1.0 - self.BETA1 ** t)
            v_hat = self.v[i] / (1.0 - self.BETA2 ** t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)
