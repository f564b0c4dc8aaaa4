import numpy as np
import pytest

import pugeo.autodiff as ad
from pugeo.autodiff import Adam, Mlp, Tensor
from pugeo.errors import ShapeError

from helpers import max_rel_err, numeric_gradient


def _param(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# forward semantics


def test_softmax_uniform():
    out = ad.softmax(Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_hand_value():
    # e^{ln 2} = 2, denominators sum to 4
    out = ad.softmax(Tensor(np.array([np.log(2.0), 0.0, 0.0])))
    np.testing.assert_allclose(out.data, [0.5, 0.25, 0.25], atol=1e-12)


def test_reduce_max_axis():
    out = ad.reduce_max(Tensor(np.array([[1.0, 5.0], [3.0, 2.0]])), axis=1)
    np.testing.assert_allclose(out.data, [5.0, 3.0])


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_add_shape_error():
    # add, sub, mul and div share one node constructor, which wraps a plain
    # array operand; the message names the op and both shapes
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        for b in (Tensor(np.zeros((4, 5))), np.zeros((4, 5))):
            with pytest.raises(ShapeError, match=rf"^{op.__name__}: incompatible shapes "
                                                 rf"\(2, 3\) and \(4, 5\)$"):
                op(Tensor(np.zeros((2, 3))), b)


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_square():
    x = _param(3.0)
    loss = ad.reduce_sum(ad.square(x))
    assert abs(ad.backward(loss)[x] - 6.0) < 1e-12


def test_backward_concat_routes_ones():
    a = _param(np.zeros(3))
    b = _param(np.zeros(2))
    loss = ad.reduce_sum(ad.concat([a, b], axis=0))
    grads = ad.backward(loss)
    np.testing.assert_allclose(grads[a], np.ones(3))
    np.testing.assert_allclose(grads[b], np.ones(2))


def test_backward_requires_scalar():
    x = _param(np.zeros(3))
    with pytest.raises(ValueError):
        ad.backward(ad.square(x))


def test_backward_returns_leaf_gradients_without_writing_them():
    def graph(split=False):
        w, b, unused = _param([[1.0, -2.0], [0.5, 3.0]]), _param([0.1, -0.2]), _param(1.0)
        w_out = _param(w.data) if split else w
        x = Tensor(np.array([[1.0, 2.0], [-1.0, 0.5]]))
        hidden = ad.dense(x, w, b, relu=True)
        # unsplit, w is used twice, so its gradient sums two contributions
        return (w, w_out, b, unused), ad.reduce_sum(ad.square(ad.matmul(hidden, w_out)))

    (w, _, b, _), loss = graph()
    grads = ad.backward(loss)
    (w2, _, b2, _), loss2 = graph()
    grads2 = ad.backward(loss2)
    assert grads[w].tobytes() == grads2[w2].tobytes()
    assert grads[b].tobytes() == grads2[b2].tobytes()
    (w_in, w_out, _, _), loss3 = graph(split=True)
    split = ad.backward(loss3)
    assert grads[w].tobytes() == (split[w_in] + split[w_out]).tobytes()
    # no entry for the unused leaf or for any intermediate node
    assert set(grads) == {w, b}
    assert "grad" not in Tensor.__slots__


def test_reduce_max_tie_routes_to_lowest_index():
    x = _param(np.array([2.0, 2.0, 1.0]))
    loss = ad.reduce_sum(ad.reduce_max(x, axis=0))
    np.testing.assert_allclose(ad.backward(loss)[x], [1.0, 0.0, 0.0])


def test_gather_scatter_adds():
    x = _param(np.arange(4.0).reshape(4, 1))
    out = ad.gather(x, np.array([0, 0, 2]), axis=0)
    grads = ad.backward(ad.reduce_sum(out))
    np.testing.assert_allclose(grads[x].ravel(), [2.0, 0.0, 1.0, 0.0])


def _relu(x):
    """A hidden dense layer with identity weight and zero bias."""
    width = x.shape[-1]
    return ad.dense(x, Tensor(np.eye(width)), Tensor(np.zeros(width)), relu=True)


@pytest.mark.parametrize("op_name", ["relu", "softmax", "sqrt", "square"])
def test_unary_op_gradients(op_name):
    rng = np.random.default_rng(3)
    x = _param(rng.uniform(0.5, 2.0, size=(4, 5)))

    def build():
        op = _relu if op_name == "relu" else getattr(ad, op_name)
        return ad.reduce_sum(ad.mul(op(x), Tensor(weights)))

    weights = rng.normal(size=(4, 5))
    grads = ad.backward(build())
    numeric = numeric_gradient(lambda: build().item(), x)
    assert max_rel_err(grads[x], numeric) < 1e-6


@pytest.mark.parametrize("op_name", ["add", "sub", "mul", "div"])
def test_binary_op_wraps_a_plain_operand_in_the_tensor_dtype(op_name):
    x = np.array([0.1, 2.0, -3.0], dtype=np.float32)
    ufunc = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}[op_name]
    op = getattr(ad, op_name)
    for out, want in ((op(Tensor(x), 1e-20), ufunc(x, np.float32(1e-20))),
                      (op(0.3, Tensor(x)), ufunc(np.float32(0.3), x))):
        assert out.dtype == np.float32 and np.array_equal(out.data, want)


@pytest.mark.parametrize("op_name", ["add", "sub", "mul", "div"])
@pytest.mark.parametrize("b_shape", [(4, 5), (5,), (4, 1), ()], ids=["same", "row", "column",
                                                                     "scalar"])
def test_binary_op_gradients_unbroadcast(op_name, b_shape):
    rng = np.random.default_rng(5)
    a = _param(rng.uniform(0.5, 2.0, size=(4, 5)))
    b = _param(rng.uniform(0.5, 2.0, size=b_shape))
    weights = rng.normal(size=(4, 5))

    def build():
        return ad.reduce_sum(ad.mul(getattr(ad, op_name)(a, b), Tensor(weights)))

    grads = ad.backward(build())
    for x in (a, b):
        assert grads[x].shape == x.shape
        assert max_rel_err(grads[x], numeric_gradient(lambda: build().item(), x)) < 1e-6


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    mlp = Mlp(rng, (4, 8, 8, 2), "net", dtype=np.float64)
    x = Tensor(rng.normal(size=(5, 4)))

    def loss_value():
        return ad.reduce_sum(ad.square(mlp(x))).item()

    grads = ad.backward(ad.reduce_sum(ad.square(mlp(x))))
    for name, p in mlp.named_params():
        numeric = numeric_gradient(loss_value, p)
        assert max_rel_err(grads[p], numeric) < 1e-4, name


def test_inverse_gradient():
    rng = np.random.default_rng(1)
    a = _param(np.eye(3) + 0.1 * rng.normal(size=(3, 3)))
    w = rng.normal(size=(3, 3))

    def build():
        return ad.reduce_sum(ad.mul(ad.inverse(a), Tensor(w)))

    grads = ad.backward(build())
    numeric = numeric_gradient(lambda: build().item(), a)
    assert max_rel_err(grads[a], numeric) < 1e-5


def test_apply_linear_maps_gradients():
    rng = np.random.default_rng(2)
    mats = _param(rng.normal(size=(3, 3, 3)))
    vecs = _param(rng.normal(size=(3, 4, 3)))
    w = rng.normal(size=(3, 4, 3))

    def build():
        return ad.reduce_sum(ad.mul(ad.apply_linear_maps(mats, vecs), Tensor(w)))

    grads = ad.backward(build())
    for t in (mats, vecs):
        numeric = numeric_gradient(lambda: build().item(), t)
        assert max_rel_err(grads[t], numeric) < 1e-5


def test_no_mutation_of_recorded_tensors():
    x, w, b = _param([[1.0, -2.0, 3.0]]), _param(np.eye(3)), _param([0.5, 0.5, -4.0])
    y = ad.dense(x, w, b, relu=True)
    before = [t.data.copy() for t in (x, w, b, y)]
    loss = ad.reduce_sum(ad.square(y))
    ad.backward(loss)
    for t, data in zip((x, w, b, y), before):
        np.testing.assert_array_equal(t.data, data)


# ---------------------------------------------------------------------------
# MLP construction


def test_mlp_spec_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        Mlp(rng, (4,))
    with pytest.raises(ValueError):
        Mlp(rng, (4, 0, 2))


def test_mlp_zero_weights_zero_output():
    rng = np.random.default_rng(4)
    mlp = Mlp(rng, (3, 2), "z", zero_init_last=True, dtype=np.float64)
    out = mlp(Tensor(rng.normal(size=(5, 3))))
    np.testing.assert_array_equal(out.data, np.zeros((5, 2)))


def test_mlp_identity_single_layer():
    m = Mlp(np.random.default_rng(5), (3, 3), "i", dtype=np.float64)
    m.layers[0] = (Tensor(np.eye(3), requires_grad=True),
                   Tensor(np.zeros(3), requires_grad=True))
    x = np.random.default_rng(6).normal(size=(4, 3))
    np.testing.assert_allclose(m(Tensor(x)).data, x)


def test_mlp_hand_forward():
    m = Mlp(np.random.default_rng(7), (2, 3, 1), "h", dtype=np.float64)
    w0 = np.array([[0.1, 0.2, -0.3], [0.4, -0.5, 0.6]])
    b0 = np.array([0.01, 0.02, 0.03])
    w1 = np.array([[1.0], [-2.0], [0.5]])
    b1 = np.array([0.1])
    m.layers = [(Tensor(w0, requires_grad=True), Tensor(b0, requires_grad=True)),
                (Tensor(w1, requires_grad=True), Tensor(b1, requires_grad=True))]
    x = np.array([[1.0, -1.0]])
    hidden = np.maximum(x @ w0 + b0, 0.0)
    expected = hidden @ w1 + b1
    np.testing.assert_allclose(m(Tensor(x)).data, expected, atol=1e-6)


def test_mlp_init_deterministic_from_seed():
    a = Mlp(np.random.default_rng(11), (4, 8, 2), "a")
    b = Mlp(np.random.default_rng(11), (4, 8, 2), "b")
    for (_, pa), (_, pb) in zip(a.named_params(), b.named_params()):
        assert np.array_equal(pa.data, pb.data)


def test_mlp_records_one_node_per_layer():
    rng = np.random.default_rng(12)
    mlp = Mlp(rng, (4, 8, 8, 3), "net")
    for _, bias in mlp.layers:
        bias.data = rng.normal(size=bias.shape).astype(np.float32)
    x = Tensor(rng.normal(size=(16, 4)).astype(np.float32), requires_grad=True)
    out = mlp(x)
    nodes, stack = [], [out]
    while stack:
        node = stack.pop()
        if node._parents and all(node is not seen for seen in nodes):
            nodes.append(node)
            stack.extend(node._parents)
    assert len(nodes) == len(mlp.layers)
    # what the graph holds: each node's output and its backward's saved values
    held = [a for node in nodes
            for a in [node.data] + [c.cell_contents for c in node._backward.__closure__]
            if isinstance(a, np.ndarray)]
    # none of them is a layer's pre-bias or (hidden layers) pre-relu array
    h, last = x.data, len(mlp.layers) - 1
    for i, (weight, bias) in enumerate(mlp.layers):
        product = h @ weight.data
        h = product + bias.data
        dropped = [product, h] if i < last else [product]
        assert not any(a.shape == d.shape and a.tobytes() == d.tobytes()
                       for a in held for d in dropped), f"layer {i}"
        h = np.maximum(h, 0.0)


# ---------------------------------------------------------------------------
# Adam


def test_adam_gradient_of_zeros_no_change():
    p = _param(np.array([1.0, -2.0]))
    absent = _param(np.array([3.0]))  # a parameter without a gradient is skipped
    opt = Adam([p, absent])
    opt.step({p: np.zeros(2)})
    np.testing.assert_allclose(p.data, [1.0, -2.0])
    np.testing.assert_array_equal(absent.data, [3.0])


def test_adam_first_step_is_signed_lr():
    # closed form: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps)
    p = _param(np.array([1.0, 1.0]))
    opt = Adam([p], lr=0.001)
    opt.step({p: np.array([0.5, -0.25])})
    delta = p.data - 1.0
    np.testing.assert_allclose(delta, [-0.001, 0.001], rtol=1e-6)


def test_adam_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True)
        opt = Adam([p], lr=0.01)
        for step in range(10):
            loss = ad.reduce_sum(ad.square(p))
            opt.step(ad.backward(loss))
        return p.data.copy()

    assert np.array_equal(run(), run())
