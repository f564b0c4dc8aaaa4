"""The joint training loss on autodiff tensors: Chamfer and unoriented normals.

The losses take the nearest-point pairing between prediction and ground
truth (`sampling.nearest_pairs`) as an input, computed from current
values and treated as constant during the backward pass (the standard
subgradient choice), so one pairing serves the Chamfer and the refined
normal term.  The numpy Chamfer distance is a metric (`metrics.chamfer`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .sampling import nearest_pairs


@dataclass
class LossWeights:
    """Weights of the joint loss: alpha*cd + beta*coarse + gamma*refined."""

    alpha: float = 100.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not all(0.0 <= w < np.inf for w in (self.alpha, self.beta, self.gamma)):
            raise ValueError(f"loss weights must be finite and non-negative, got alpha="
                             f"{self.alpha}, beta={self.beta}, gamma={self.gamma}")


def chamfer_loss(pred: Tensor, gt: np.ndarray, phi: np.ndarray | None = None,
                 psi: np.ndarray | None = None) -> Tensor:
    """Graph Chamfer distance to a fixed target set, normalized as `metrics.chamfer` is.

    phi and psi are `nearest_pairs(pred, gt)`; they are computed here when
    not given.
    """
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 3)
    if phi is None or psi is None:
        phi, psi = nearest_pairs(pred.data, gt)
    gt_c = ad.constant(gt.astype(pred.dtype))
    # the eps keeps sqrt differentiable if a predicted point lands exactly on
    # its target; negligible against any real distance
    forward = ad.reduce_sum(ad.row_norms(ad.sub(pred, ad.gather(gt_c, phi, axis=0)), 1e-12))
    backward_ = ad.reduce_sum(ad.row_norms(ad.sub(ad.gather(pred, psi, axis=0), gt_c), 1e-12))
    return ad.mul(ad.add(forward, backward_), 1.0 / len(gt))


def normal_loss_graph(pred_normals: Tensor, gt_normals: np.ndarray,
                      reduction: str = "sum") -> Tensor:
    """Unoriented normal loss against row-aligned targets, summed or averaged.

    Each row costs min(|p - g|^2, |p + g|^2).  The coarse term passes the
    sparse input's normals, the refined term `dense_normals[phi]`.
    """
    gt = ad.constant(np.asarray(gt_normals).astype(pred_normals.dtype))
    minus = ad.reduce_sum(ad.square(ad.sub(pred_normals, gt)), axis=-1)
    plus = ad.reduce_sum(ad.square(ad.add(pred_normals, gt)), axis=-1)
    mask = minus.data <= plus.data  # branch fixed by value; min at ties -> minus
    values = ad.select(mask, minus, plus)
    return ad.reduce_mean(values) if reduction == "mean" else ad.reduce_sum(values)


def total_loss_graph(cd: Tensor, coarse: Tensor, refined: Tensor,
                     weights: LossWeights) -> Tensor:
    return ad.add(ad.add(ad.mul(cd, weights.alpha), ad.mul(coarse, weights.beta)),
                  ad.mul(refined, weights.gamma))
