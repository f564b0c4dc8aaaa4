"""Analytic (learning-free) upsampling through local parameterization.

For each input point: estimate a tangent frame and principal curvatures
from its k nearest neighbors, draw parametric samples in the local disk,
lift them to the tangent plane, then push each lifted point along the
frame normal by the second-order height (k1*u^2 + k2*v^2)/2.  This is the
geometric oracle the learned model is sanity-checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _unit_rows, estimate_frames, fit_curvatures
from .io import PointCloud
from .sampling import NeighborIndex

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
#: disk radius of the analytic draw, in units of the median 4-NN spacing
DISK_SCALE = 0.6


@dataclass
class UpsampleResult:
    """One upsampling draw: R samples around each of P frames.

    Row i*R+r of points, normals and deltas is sample r of frame i.
    `metadata` counts the input points, the points in no patch and the
    degenerate frames and curvature fits.
    """

    points: np.ndarray   # (P*R, 3)
    normals: np.ndarray  # (P*R, 3) unit
    deltas: np.ndarray   # (P*R,) displacements along the frame's third column
    frames: np.ndarray   # (P, 3, 3), columns (t1, t2, t3)
    metadata: dict


def param_samples(factor: int, radius) -> np.ndarray:
    """(R, 2) parametric samples on the Fibonacci disk of `radius`; no RNG.

    radius may also be an (N,) array, giving (N, R, 2) samples: one disk per
    radius.  Sample j sits at r_j = radius*sqrt((j+0.5)/R) and angle j times
    the golden angle, so |uv_j| grows with j and stays inside the disk.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    radius = np.asarray(radius, dtype=np.float64)
    if np.any(radius < 0.0):
        raise ValueError("radius must be non-negative")
    j = np.arange(factor, dtype=np.float64)
    r = radius[..., None] * np.sqrt((j + 0.5) / factor)
    angle = j * GOLDEN_ANGLE
    return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)


def upsample_analytic(cloud: PointCloud, factor: int, k: int = 16) -> UpsampleResult:
    """Upsample a cloud R-fold via frame estimation and quadric displacement.

    Per point, computed for all points at once: kNN(k) neighborhood ->
    tangent frame -> curvature fit -> Fibonacci disk of DISK_SCALE times
    the median 4-NN spacing, rotated into principal coordinates -> tangent
    lift -> displacement along t3, clamped to the local radius.  The
    first-order (tangent-plane) points are points - deltas * t3.
    Degenerate neighborhoods fall back to a canonical frame with zero
    displacement and are counted in result metadata.
    """
    pts = cloud.points
    n = len(pts)
    if n < k + 1:
        raise ValueError(f"need at least k+1={k + 1} points, got {n}")

    index = NeighborIndex(pts)
    neighborhoods = pts[index.knn_batch(pts, k)]  # row i starts with i itself
    frames, collinear = estimate_frames(neighborhoods, pts)
    curvatures, directions, flat = fit_curvatures(neighborhoods, pts, frames)
    # collinear rows have no fit to use or count: flat disk in the identity frame
    flat &= ~collinear
    curvatures[collinear] = 0.0
    directions[collinear] = np.eye(2)
    t1, t2, t3 = frames[:, :, 0], frames[:, :, 1], frames[:, :, 2]
    p1 = (directions[:, :1, 0] * t1 + directions[:, 1:, 0] * t2)[:, None, :]
    p2 = (directions[:, :1, 1] * t1 + directions[:, 1:, 1] * t2)[:, None, :]
    k1, k2 = curvatures[:, :1], curvatures[:, 1:]

    dists = np.linalg.norm(neighborhoods - pts[:, None, :], axis=2)
    local_radius = np.median(dists[:, 1:5], axis=1)  # knn_batch rows are ascending
    uv = param_samples(factor, DISK_SCALE * local_radius)  # (N, R, 2)
    u, v = uv[:, :, 0], uv[:, :, 1]

    lifted = pts[:, None, :] + u[..., None] * p1 + v[..., None] * p2
    deltas = 0.5 * (k1 * u ** 2 + k2 * v ** 2)
    bound = np.where(local_radius > 0.0, local_radius, np.inf)[:, None]
    deltas = np.clip(deltas, -bound, bound)
    samples = lifted + deltas[..., None] * t3[:, None, :]
    normals = (-k1 * u)[..., None] * p1 - (k2 * v)[..., None] * p2 + t3[:, None, :]
    normals = _unit_rows(normals.reshape(-1, 3))

    metadata = {"points": n, "uncovered": 0, "degenerate_frames": int(collinear.sum()),
                "degenerate_fits": int(flat.sum())}
    return UpsampleResult(points=samples.reshape(-1, 3), normals=normals,
                          deltas=deltas.reshape(-1), frames=frames, metadata=metadata)
