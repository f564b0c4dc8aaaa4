"""Training losses: Chamfer distance and unoriented normal losses.

The joint training loss is built on autodiff tensors.  Chamfer distance
also has a plain numpy version, which the metrics use.  The
nearest-neighbor correspondences inside the graph losses are computed
from current values and treated as constants during the backward pass
(the standard subgradient choice).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .sampling import NeighborIndex


@dataclass
class LossWeights:
    """Weights of the joint loss: alpha*cd + beta*coarse + gamma*refined."""

    alpha: float = 100.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0.0:
            raise ValueError("loss weights must be non-negative")


def nearest_indices(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of the nearest target for each query; ties to the lowest index."""
    return NeighborIndex(targets).nearest(queries)


# ---------------------------------------------------------------------------
# numpy version (the metrics score with it)


def chamfer(x: np.ndarray, y: np.ndarray) -> float:
    """Symmetric sum of nearest-neighbor distances.

    Both directed sums are divided by |Y| (the dense-set size).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1, 3)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 3)
    if len(x) == 0 or len(y) == 0:
        raise ValueError("chamfer requires non-empty point sets")
    phi = nearest_indices(x, y)
    psi = nearest_indices(y, x)
    forward = np.linalg.norm(x - y[phi], axis=1).sum()
    backward_ = np.linalg.norm(y - x[psi], axis=1).sum()
    return float((forward + backward_) / len(y))


# ---------------------------------------------------------------------------
# graph versions (autodiff tensors): the training loss


def _row_norms(t: Tensor, eps: float = 1e-12) -> Tensor:
    # the eps keeps sqrt differentiable if a predicted point lands exactly
    # on its target; negligible against any real distance
    return ad.sqrt(ad.add(ad.reduce_sum(ad.square(t), axis=-1), eps))


def chamfer_loss(pred: Tensor, gt: np.ndarray) -> Tensor:
    """Graph Chamfer distance to a fixed target set, normalized as `chamfer` is."""
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 3)
    pred_values = pred.data.astype(np.float64)
    phi = nearest_indices(pred_values, gt)
    psi = nearest_indices(gt, pred_values)
    gt_c = ad.constant(gt.astype(pred.dtype))
    forward = ad.reduce_sum(_row_norms(ad.sub(pred, ad.gather(gt_c, phi, axis=0))))
    backward_ = ad.reduce_sum(_row_norms(ad.sub(ad.gather(pred, psi, axis=0), gt_c)))
    return ad.mul(ad.add(forward, backward_), 1.0 / len(gt))


def _unoriented_sq_loss(pred: Tensor, gt_const: Tensor) -> Tensor:
    minus = ad.reduce_sum(ad.square(ad.sub(pred, gt_const)), axis=-1)
    plus = ad.reduce_sum(ad.square(ad.add(pred, gt_const)), axis=-1)
    mask = minus.data <= plus.data  # branch fixed by value; min at ties -> minus
    return ad.select(mask, minus, plus)


def coarse_normal_loss_graph(pred_normals: Tensor, gt_normals: np.ndarray,
                             reduction: str = "sum") -> Tensor:
    gt = ad.constant(np.asarray(gt_normals).astype(pred_normals.dtype))
    values = _unoriented_sq_loss(pred_normals, gt)
    return ad.reduce_mean(values) if reduction == "mean" else ad.reduce_sum(values)


def refined_normal_loss_graph(pred_points: Tensor, pred_normals: Tensor,
                              gt_points: np.ndarray, gt_normals: np.ndarray,
                              reduction: str = "sum") -> Tensor:
    phi = nearest_indices(pred_points.data.astype(np.float64),
                          np.asarray(gt_points, dtype=np.float64))
    matched = ad.constant(np.asarray(gt_normals)[phi].astype(pred_normals.dtype))
    values = _unoriented_sq_loss(pred_normals, matched)
    return ad.reduce_mean(values) if reduction == "mean" else ad.reduce_sum(values)


def total_loss_graph(cd: Tensor, coarse: Tensor, refined: Tensor,
                     weights: LossWeights | None = None) -> Tensor:
    w = weights or LossWeights()
    return ad.add(ad.add(ad.mul(cd, w.alpha), ad.mul(coarse, w.beta)),
                  ad.mul(refined, w.gamma))
