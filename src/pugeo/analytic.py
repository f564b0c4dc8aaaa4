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

from .geometry import estimate_frames, fit_curvatures
from .io import PointCloud
from .sampling import NeighborIndex

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

PATTERN_KINDS = ("fibonacci_disk", "jittered_grid")


@dataclass
class SamplePattern:
    """How parametric samples are laid out inside the local disk."""

    kind: str = "fibonacci_disk"
    radius_scale: float = 0.6

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.radius_scale < 0.0:
            raise ValueError("radius_scale must be non-negative")


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


def param_samples(factor: int, pattern: SamplePattern, local_radius,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """(R, 2) parametric samples inside the disk of radius_scale*local_radius.

    local_radius may also be an (N,) array, giving (N, R, 2) samples: one
    disk per radius.  fibonacci_disk places r_j = radius*sqrt((j+0.5)/R) at
    multiples of the golden angle (no RNG).  jittered_grid jitters the
    first R cells of a ceil(sqrt(R))^2 grid spanning the inscribed square
    of the disk; per disk it draws R u-jitters, then R v-jitters.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    local_radius = np.asarray(local_radius, dtype=np.float64)
    if np.any(local_radius < 0.0):
        raise ValueError("local_radius must be non-negative")
    radius = pattern.radius_scale * local_radius[..., None]
    if pattern.kind == "fibonacci_disk":
        j = np.arange(factor, dtype=np.float64)
        r = radius * np.sqrt((j + 0.5) / factor)
        angle = j * GOLDEN_ANGLE
        return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)
    if rng is None:
        rng = np.random.default_rng(0)
    m = math.ceil(math.sqrt(factor))
    half = radius / math.sqrt(2.0)  # inscribed square keeps samples in the disk
    cell = 2.0 * half / m
    rows, cols = np.divmod(np.arange(factor), m)
    jitter = rng.random(local_radius.shape + (2, factor))
    u = -half + (cols + jitter[..., 0, :]) * cell
    v = -half + (rows + jitter[..., 1, :]) * cell
    return np.stack([u, v], axis=-1)


def upsample_analytic(cloud: PointCloud, factor: int, k: int = 16,
                      pattern: SamplePattern | None = None,
                      rng: np.random.Generator | None = None,
                      displacement: bool = True) -> UpsampleResult:
    """Upsample a cloud R-fold via frame estimation and quadric displacement.

    Per point, computed for all points at once: kNN(k) neighborhood ->
    tangent frame -> curvature fit -> samples in the local disk (radius
    from the median 4-NN spacing) rotated into principal coordinates ->
    tangent lift -> displacement along t3, clamped to the local radius.
    `displacement=False` forces all displacements to zero (first-order
    baseline).  Degenerate neighborhoods fall back to a canonical frame
    with zero displacement and are counted in result metadata.
    """
    if pattern is None:
        pattern = SamplePattern()
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
    uv = param_samples(factor, pattern, local_radius, rng)  # (N, R, 2)
    u, v = uv[:, :, 0], uv[:, :, 1]

    lifted = pts[:, None, :] + u[..., None] * p1 + v[..., None] * p2
    deltas = 0.5 * (k1 * u ** 2 + k2 * v ** 2)
    bound = np.where(local_radius > 0.0, local_radius, np.inf)[:, None]
    deltas = np.clip(deltas, -bound, bound)
    if not displacement:
        deltas = np.zeros_like(deltas)
    samples = lifted + deltas[..., None] * t3[:, None, :]
    normals = (-k1 * u)[..., None] * p1 - (k2 * v)[..., None] * p2 + t3[:, None, :]
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)

    metadata = {"points": n, "uncovered": 0, "degenerate_frames": int(collinear.sum()),
                "degenerate_fits": int(flat.sum())}
    return UpsampleResult(points=samples.reshape(-1, 3), normals=normals.reshape(-1, 3),
                          deltas=deltas.reshape(-1), frames=frames, metadata=metadata)
