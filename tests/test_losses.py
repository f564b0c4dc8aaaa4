import numpy as np
import pytest

import pugeo.autodiff as ad
from pugeo import LossWeights, chamfer
from pugeo.autodiff import Tensor
from pugeo.losses import chamfer_loss, normal_loss_graph, total_loss_graph
from pugeo.sampling import nearest_pairs

from helpers import max_rel_err, numeric_gradient, unit_rows
from reference import (coarse_normal_loss, normal_loss_unoriented, refined_normal_loss,
                       total_loss)


# ---------------------------------------------------------------------------
# chamfer


def test_chamfer_identical_sets_zero():
    pts = np.random.default_rng(0).normal(size=(30, 3))
    assert chamfer(pts, pts) == 0.0


def test_chamfer_hand_value():
    x = np.array([[0, 0, 0], [1, 0, 0]], float)
    y = np.array([[0, 0, 0], [0, 1, 0]], float)
    assert abs(chamfer(x, y) - 1.0) < 1e-12


def test_chamfer_symmetric_equal_sizes():
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(20, 3)), rng.normal(size=(20, 3))
    assert abs(chamfer(x, y) - chamfer(y, x)) < 1e-12


def test_chamfer_empty_raises():
    with pytest.raises(ValueError):
        chamfer(np.zeros((0, 3)), np.zeros((3, 3)))


def test_chamfer_divides_by_target_size():
    x = np.array([[0, 0, 0]], float)
    y = np.array([[1, 0, 0], [0, 1, 0]], float)
    # (1 + 1 + 1) / |y|
    assert abs(chamfer(x, y) - 1.5) < 1e-12


# ---------------------------------------------------------------------------
# normal losses


def test_normal_loss_zero_same_and_antipodal():
    n = np.array([0.0, 0.0, 1.0])
    assert normal_loss_unoriented(n, n) == 0.0
    assert normal_loss_unoriented(n, -n) == 0.0


def test_normal_loss_orthogonal_is_two():
    assert abs(normal_loss_unoriented([1, 0, 0], [0, 1, 0]) - 2.0) < 1e-12


def test_normal_loss_rejects_non_unit():
    with pytest.raises(ValueError):
        normal_loss_unoriented([2.0, 0, 0], [1.0, 0, 0])


def test_normal_loss_sign_flip_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, m = unit_rows(rng.normal(size=(2, 3)))
        base = normal_loss_unoriented(n, m)
        assert normal_loss_unoriented(-n, m) == base
        assert normal_loss_unoriented(n, -m) == base


def test_coarse_loss_identical_and_antipodal():
    rng = np.random.default_rng(4)
    normals = unit_rows(rng.normal(size=(10, 3)))
    assert coarse_normal_loss(normals, normals) == 0.0
    flipped = normals.copy()
    flipped[3] = -flipped[3]
    assert coarse_normal_loss(normals, flipped) == 0.0


def test_coarse_loss_two_orthogonal_pairs():
    pred = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], float)
    gt = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], float)
    assert abs(coarse_normal_loss(pred, gt) - 4.0) < 1e-12
    assert abs(coarse_normal_loss(pred, gt, reduction="mean") - 4.0 / 3) < 1e-12


def test_coarse_loss_length_mismatch():
    with pytest.raises(ValueError):
        coarse_normal_loss(np.tile([0, 0, 1.0], (3, 1)), np.tile([0, 0, 1.0], (2, 1)))


def test_refined_loss_exact_match_zero():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(12, 3))
    normals = unit_rows(rng.normal(size=(12, 3)))
    assert refined_normal_loss(pts, normals, pts, normals) == 0.0


def test_refined_loss_tie_matches_lower_index():
    gt_pts = np.array([[1, 0, 0], [-1, 0, 0]], float)
    gt_n = np.array([[0, 0, 1], [1, 0, 0]], float)
    pred_n = np.array([[0, 1, 0]])  # orthogonal to gt_n[0] -> loss 2
    value = refined_normal_loss(np.zeros((1, 3)), pred_n, gt_pts, gt_n)
    assert abs(value - 2.0) < 1e-12


def test_refined_loss_hand_sum():
    gt_pts = np.array([[0, 0, 0], [10, 0, 0]], float)
    gt_n = np.array([[0, 0, 1], [1, 0, 0]], float)
    pred_pts = np.array([[0.1, 0, 0], [9.8, 0, 0]], float)
    pred_n = np.array([[0, 1, 0], [1, 0, 0]], float)
    # brute force: pred0 -> gt0, loss 2; pred1 -> gt1, loss 0
    assert abs(refined_normal_loss(pred_pts, pred_n, gt_pts, gt_n) - 2.0) < 1e-12


def test_refined_loss_requires_gt_normals():
    with pytest.raises(ValueError):
        refined_normal_loss(np.zeros((1, 3)), np.array([[0, 0, 1.0]]),
                            np.zeros((1, 3)), None)


# ---------------------------------------------------------------------------
# total loss


def test_total_loss_zero():
    assert total_loss(0.0, 0.0, 0.0) == 0.0


def test_total_loss_hand_value():
    assert abs(total_loss(0.01, 0.5, 0.2) - 1.7) < 1e-12


def test_total_loss_gamma_zero_disables_refined():
    w = LossWeights(alpha=100.0, beta=1.0, gamma=0.0)
    assert abs(total_loss(0.01, 0.5, 123.0, w) - 1.5) < 1e-12


def test_total_loss_linear_in_weights():
    rng = np.random.default_rng(6)
    cd, coarse, refined = rng.uniform(0, 1, 3)
    for scale in (0.0, 0.5, 2.0):
        w = LossWeights(alpha=scale * 100, beta=scale, gamma=scale)
        assert abs(total_loss(cd, coarse, refined, w)
                   - scale * total_loss(cd, coarse, refined)) < 1e-12


def test_loss_weights_validated():
    with pytest.raises(ValueError):
        LossWeights(alpha=-1.0)


@pytest.mark.parametrize("weights", [dict(alpha=np.nan), dict(beta=np.inf), dict(gamma=-np.inf)],
                         ids=["alpha_nan", "beta_inf", "gamma_minus_inf"])
def test_loss_weights_reject_non_finite(weights):
    with pytest.raises(ValueError, match="finite and non-negative"):
        LossWeights(**weights)


# ---------------------------------------------------------------------------
# graph losses agree with numpy and differentiate cleanly


def test_chamfer_loss_matches_numpy():
    rng = np.random.default_rng(7)
    pred = rng.normal(size=(25, 3))
    gt = rng.normal(size=(40, 3))
    graph = chamfer_loss(Tensor(pred), gt, *nearest_pairs(pred, gt))
    assert abs(graph.item() - chamfer(pred, gt)) < 1e-9
    # without a pairing the loss computes the same one itself
    assert chamfer_loss(Tensor(pred), gt).item() == graph.item()


def test_coarse_loss_graph_matches_numpy():
    rng = np.random.default_rng(8)
    pred = unit_rows(rng.normal(size=(15, 3)))
    gt = unit_rows(rng.normal(size=(15, 3)))
    graph = normal_loss_graph(Tensor(pred), gt)
    assert abs(graph.item() - coarse_normal_loss(pred, gt)) < 1e-9
    mean = normal_loss_graph(Tensor(pred), gt, "mean")
    assert abs(mean.item() - coarse_normal_loss(pred, gt, reduction="mean")) < 1e-9


def test_refined_loss_graph_matches_numpy():
    rng = np.random.default_rng(9)
    pred_pts = rng.normal(size=(20, 3))
    pred_n = unit_rows(rng.normal(size=(20, 3)))
    gt_pts = rng.normal(size=(35, 3))
    gt_n = unit_rows(rng.normal(size=(35, 3)))
    phi, _ = nearest_pairs(pred_pts, gt_pts)
    graph = normal_loss_graph(Tensor(pred_n), gt_n[phi])
    assert abs(graph.item() - refined_normal_loss(pred_pts, pred_n, gt_pts, gt_n)) < 1e-9


def test_chamfer_loss_gradient():
    rng = np.random.default_rng(10)
    pred = Tensor(rng.normal(size=(12, 3)), requires_grad=True)
    gt = rng.normal(size=(18, 3))
    phi, psi = nearest_pairs(pred.data, gt)

    def build():
        return chamfer_loss(pred, gt, phi, psi)

    grads = ad.backward(build())
    numeric = numeric_gradient(lambda: build().item(), pred)
    assert max_rel_err(grads[pred], numeric) < 1e-4


def test_normal_loss_graph_gradients():
    rng = np.random.default_rng(11)
    pred_pts = rng.normal(size=(10, 3))
    pred_n = Tensor(unit_rows(rng.normal(size=(10, 3))), requires_grad=True)
    gt_pts = rng.normal(size=(16, 3))
    gt_n = unit_rows(rng.normal(size=(16, 3)))
    phi, _ = nearest_pairs(pred_pts, gt_pts)

    def build():
        return normal_loss_graph(pred_n, gt_n[phi])

    grads = ad.backward(build())
    numeric = numeric_gradient(lambda: build().item(), pred_n)
    assert max_rel_err(grads[pred_n], numeric) < 1e-4


def test_total_loss_graph_composition():
    cd = Tensor(np.array(0.01), requires_grad=True)
    coarse = Tensor(np.array(0.5))
    refined = Tensor(np.array(0.2))
    total = total_loss_graph(cd, coarse, refined, LossWeights())
    assert abs(total.item() - 1.7) < 1e-9
    assert abs(ad.backward(total)[cd] - 100.0) < 1e-9
