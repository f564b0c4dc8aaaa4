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
    with pytest.raises(ShapeError):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_square():
    x = _param(3.0)
    loss = ad.reduce_sum(ad.square(x))
    ad.backward(loss)
    assert abs(x.grad - 6.0) < 1e-12


def test_backward_concat_routes_ones():
    a = _param(np.zeros(3))
    b = _param(np.zeros(2))
    loss = ad.reduce_sum(ad.concat([a, b], axis=0))
    ad.backward(loss)
    np.testing.assert_allclose(a.grad, np.ones(3))
    np.testing.assert_allclose(b.grad, np.ones(2))


def test_backward_requires_scalar():
    x = _param(np.zeros(3))
    with pytest.raises(ValueError):
        ad.backward(ad.square(x))


def test_backward_returns_leaf_gradients_without_writing_them():
    def graph():
        w, b, unused = _param([[1.0, -2.0], [0.5, 3.0]]), _param([0.1, -0.2]), _param(1.0)
        x = Tensor(np.array([[1.0, 2.0], [-1.0, 0.5]]))
        hidden = ad.relu(ad.add(ad.matmul(x, w), b))
        # w is used twice, so its gradient sums two contributions
        return (w, b, unused), ad.reduce_sum(ad.square(ad.matmul(hidden, w)))

    (w, b, unused), loss = graph()
    ad.backward(loss)
    (w2, b2, unused2), loss2 = graph()
    held = np.full((2, 2), 7.0)
    w2.grad = held
    grads = ad.backward(loss2, leaves=[w2, b2, unused2])
    assert grads[0].tobytes() == w.grad.tobytes()
    assert grads[1].tobytes() == b.grad.tobytes()
    assert grads[2] is None and unused.grad is None
    assert w2.grad is held and b2.grad is None  # the leaves' .grad is untouched


def test_reduce_max_tie_routes_to_lowest_index():
    x = _param(np.array([2.0, 2.0, 1.0]))
    loss = ad.reduce_sum(ad.reduce_max(x, axis=0))
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, [1.0, 0.0, 0.0])


def test_gather_scatter_adds():
    x = _param(np.arange(4.0).reshape(4, 1))
    out = ad.gather(x, np.array([0, 0, 2]), axis=0)
    ad.backward(ad.reduce_sum(out))
    np.testing.assert_allclose(x.grad.ravel(), [2.0, 0.0, 1.0, 0.0])


@pytest.mark.parametrize("op_name", ["relu", "softmax", "sqrt", "square"])
def test_unary_op_gradients(op_name):
    rng = np.random.default_rng(3)
    x = _param(rng.uniform(0.5, 2.0, size=(4, 5)))

    def build():
        op = getattr(ad, op_name)
        return ad.reduce_sum(ad.mul(op(x), Tensor(weights)))

    weights = rng.normal(size=(4, 5))
    loss = build()
    ad.backward(loss)
    numeric = numeric_gradient(lambda: build().item(), x)
    assert max_rel_err(x.grad, numeric) < 1e-6


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    mlp = Mlp(rng, (4, 8, 8, 2), "net", dtype=np.float64)
    x = Tensor(rng.normal(size=(5, 4)))

    def loss_value():
        return ad.reduce_sum(ad.square(mlp(x))).item()

    loss = ad.reduce_sum(ad.square(mlp(x)))
    ad.backward(loss)
    for name, p in mlp.named_params():
        numeric = numeric_gradient(loss_value, p)
        assert max_rel_err(p.grad, numeric) < 1e-4, name


def test_inverse_gradient():
    rng = np.random.default_rng(1)
    a = _param(np.eye(3) + 0.1 * rng.normal(size=(3, 3)))
    w = rng.normal(size=(3, 3))

    def build():
        return ad.reduce_sum(ad.mul(ad.inverse(a), Tensor(w)))

    loss = build()
    ad.backward(loss)
    numeric = numeric_gradient(lambda: build().item(), a)
    assert max_rel_err(a.grad, numeric) < 1e-5


def test_apply_linear_maps_gradients():
    rng = np.random.default_rng(2)
    mats = _param(rng.normal(size=(3, 3, 3)))
    vecs = _param(rng.normal(size=(3, 4, 3)))
    w = rng.normal(size=(3, 4, 3))

    def build():
        return ad.reduce_sum(ad.mul(ad.apply_linear_maps(mats, vecs), Tensor(w)))

    loss = build()
    ad.backward(loss)
    for t in (mats, vecs):
        numeric = numeric_gradient(lambda: build().item(), t)
        assert max_rel_err(t.grad, numeric) < 1e-5


def test_no_mutation_of_recorded_tensors():
    x = _param(np.ones(3))
    y = ad.relu(x)
    before = y.data.copy()
    loss = ad.reduce_sum(ad.square(y))
    ad.backward(loss)
    np.testing.assert_array_equal(y.data, before)


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


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_no_change():
    p = _param(np.array([1.0, -2.0]))
    opt = Adam([p])
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_allclose(p.data, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    # closed form: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps)
    p = _param(np.array([1.0, 1.0]))
    opt = Adam([p], lr=0.001)
    p.grad = np.array([0.5, -0.25])
    opt.step()
    delta = p.data - 1.0
    np.testing.assert_allclose(delta, [-0.001, 0.001], rtol=1e-6)


def test_adam_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True)
        opt = Adam([p], lr=0.01)
        for step in range(10):
            loss = ad.reduce_sum(ad.square(p))
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
        return p.data.copy()

    assert np.array_equal(run(), run())
