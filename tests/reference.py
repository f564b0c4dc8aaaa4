"""Slow reference implementations that the vectorized code is tested against.

These are the original loop versions of farthest point sampling, of
Poisson sample elimination (one kd-tree query per neighbor update), of
analytic upsampling with its per-point frame and curvature fits, and of
the frame statistics, plus the full scan over every triangle for the
point-to-surface distance.  They are kept verbatim in arithmetic so that
the fast paths in ``pugeo`` can be compared against them bit for bit (FPS,
Poisson elimination, P2F, frame statistics) or within a fixed tolerance
(geometry, whose least-squares solves moved from LAPACK ``gelsd`` to a
stacked SVD).  The numpy normal and joint losses at the end are the
oracles for the autodiff training losses.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from pugeo.analytic import GOLDEN_ANGLE, SamplePattern, UpsampleResult
from pugeo.errors import GeometryError
from pugeo.geometry import FrameStats
from pugeo.io import PointCloud, TriangleMesh
from pugeo.losses import LossWeights, nearest_indices
from pugeo.metrics import point_to_triangles
from pugeo.sampling import NeighborIndex

_COLLINEAR_RTOL = 1e-10
_FIT_CONDITION_LIMIT = 1e8
_UNIT_TOL = 1e-5


@dataclass
class Frame:
    """One orthonormal tangent frame at `origin`: columns t1, t2, t3 = t1 x t2."""

    origin: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray


@dataclass
class Forms:
    """One quadric fit: principal curvatures (k1 >= k2) and unit 2D directions."""

    k1: float
    k2: float
    dir1: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0]))
    dir2: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0]))
    degenerate: bool = False


def farthest_point_sample(points, count: int, seed_index: int = 0) -> np.ndarray:
    """O(N * count) greedy max-min selection; ties go to the lowest index."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    selected = np.empty(count, dtype=np.int64)
    selected[0] = seed_index
    min_dist = np.linalg.norm(pts - pts[seed_index], axis=1)
    for i in range(1, count):
        nxt = int(np.argmax(min_dist))
        selected[i] = nxt
        np.minimum(min_dist, np.linalg.norm(pts - pts[nxt], axis=1), out=min_dist)
    return selected


def poisson_eliminate(points, n: int) -> np.ndarray:
    """Sample elimination with one tree query per neighbor update.

    Removes the point whose nearest surviving neighbor is closest (ties to
    the lowest index) until n remain; returns the survivors' indices.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    m = len(points)
    if m == n:
        return np.arange(m)

    tree = cKDTree(points, balanced_tree=True)
    alive = np.ones(m, dtype=bool)
    alive_count = m

    def nearest_alive(i: int):
        k = 8
        while True:
            k = min(k, m)
            dists, idxs = tree.query(points[i], k=k)
            dists, idxs = np.atleast_1d(dists), np.atleast_1d(idxs)
            for d, j in zip(dists, idxs):
                if j != i and alive[j]:
                    return float(d), int(j)
            if k == m:
                raise AssertionError("no surviving neighbor found")
            k *= 4

    nn_dist = np.empty(m)
    nn_idx = np.empty(m, dtype=np.int64)
    d2, i2 = tree.query(points, k=2)
    for i in range(m):
        if i2[i, 1] != i:
            nn_dist[i], nn_idx[i] = d2[i, 1], i2[i, 1]
        else:  # duplicate coordinates can swap the self column
            nn_dist[i], nn_idx[i] = d2[i, 0], i2[i, 0]
    watchers: dict[int, set[int]] = {}
    for i in range(m):
        watchers.setdefault(int(nn_idx[i]), set()).add(i)
    heap = [(nn_dist[i], i) for i in range(m)]
    heapq.heapify(heap)

    while alive_count > n:
        d, i = heapq.heappop(heap)
        if not alive[i] or d != nn_dist[i]:
            continue
        alive[i] = False
        alive_count -= 1
        if alive_count == n:
            break
        for j in watchers.pop(i, ()):  # points whose nearest neighbor died
            if not alive[j]:
                continue
            nn_dist[j], nn_idx[j] = nearest_alive(j)
            watchers.setdefault(int(nn_idx[j]), set()).add(j)
            heapq.heappush(heap, (nn_dist[j], j))

    return np.nonzero(alive)[0]


def brute_force_mesh_distance(p, mesh: TriangleMesh) -> float:
    """Minimum distance from one point over every triangle of the mesh."""
    v, t = mesh.vertices, mesh.triangles
    return float(np.min(point_to_triangles(p, v[t[:, 0]], v[t[:, 1]], v[t[:, 2]])))


def estimate_frame(neighborhood, center) -> Frame:
    """Per-point PCA frame with one jet step, oriented toward the centroid."""
    pts = np.asarray(neighborhood, dtype=np.float64).reshape(-1, 3)
    center = np.asarray(center, dtype=np.float64).reshape(3)
    centroid = pts.mean(axis=0)
    deltas = pts - centroid
    cov = deltas.T @ deltas / len(pts)
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[1] <= _COLLINEAR_RTOL * max(eigvals[2], 1e-300):
        raise GeometryError("neighborhood is collinear or degenerate")

    t3 = eigvecs[:, 0]
    major = eigvecs[:, 2]
    t1 = major - (major @ t3) * t3
    t1 = t1 / np.linalg.norm(t1)
    t2 = np.cross(t3, t1)
    t1, t2, t3 = _jet_refine(pts, center, t1, t2, t3)

    reference = centroid - center
    if np.linalg.norm(reference) <= 1e-12 * math.sqrt(max(eigvals[2], 1e-300)):
        reference = np.array([0.0, 0.0, 1.0])
    if float(t3 @ reference) < 0.0:
        t3 = -t3
        t2 = -t2
    return Frame(origin=center.copy(), t1=t1, t2=t2, t3=t3)


def _jet_refine(pts, center, t1, t2, t3):
    d = pts - center
    u = d @ t1
    v = d @ t2
    w = d @ t3
    design = np.column_stack([u, v, 0.5 * u * u, u * v, 0.5 * v * v])
    solution, _, rank, _ = np.linalg.lstsq(design, w, rcond=None)
    if rank < 5:
        return t1, t2, t3
    a, b = solution[0], solution[1]
    refined = -a * t1 - b * t2 + t3
    refined /= np.linalg.norm(refined)
    t1 = t1 - (t1 @ refined) * refined
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(refined, t1), refined


def fit_fundamental_forms(neighborhood, frame: Frame) -> Forms:
    """Per-point quadric height fit through the frame origin."""
    pts = np.asarray(neighborhood, dtype=np.float64).reshape(-1, 3)
    d = pts - frame.origin
    u = d @ frame.t1
    v = d @ frame.t2
    w = d @ frame.t3
    design = np.column_stack([0.5 * u * u, u * v, 0.5 * v * v])
    solution, _, rank, singular = np.linalg.lstsq(design, w, rcond=None)
    smallest = singular[-1] if len(singular) == 3 else 0.0
    if rank < 3 or smallest <= 0.0 or singular[0] / smallest > _FIT_CONDITION_LIMIT:
        return Forms(0.0, 0.0, degenerate=True)
    e, f, g = solution
    eigvals, eigvecs = np.linalg.eigh(np.array([[e, f], [f, g]]))
    return Forms(k1=float(eigvals[1]), k2=float(eigvals[0]),
                 dir1=eigvecs[:, 1].copy(), dir2=eigvecs[:, 0].copy())


def param_samples(factor: int, pattern: SamplePattern, local_radius: float,
                  rng: np.random.Generator) -> np.ndarray:
    """(R, 2) disk samples for one point, drawing u then v from `rng`."""
    radius = pattern.radius_scale * local_radius
    if pattern.kind == "fibonacci_disk":
        j = np.arange(factor, dtype=np.float64)
        r = radius * np.sqrt((j + 0.5) / factor)
        angle = j * GOLDEN_ANGLE
        return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)
    m = math.ceil(math.sqrt(factor))
    half = radius / math.sqrt(2.0)
    cell = 2.0 * half / m
    rows, cols = np.divmod(np.arange(factor), m)
    u = -half + (cols + rng.random(factor)) * cell
    v = -half + (rows + rng.random(factor)) * cell
    return np.stack([u, v], axis=1)


def upsample_analytic(cloud: PointCloud, factor: int, k: int = 16,
                      pattern: SamplePattern | None = None,
                      rng: np.random.Generator | None = None,
                      displacement: bool = True) -> UpsampleResult:
    """The per-point loop: frame, fit, disk samples, lift and displacement.

    Besides the usual result, metadata carries per-point ``k1`` and ``k2``
    (zero where the frame or the fit is degenerate).
    """
    if pattern is None:
        pattern = SamplePattern()
    if rng is None:
        rng = np.random.default_rng(0)
    pts = cloud.points
    n = len(pts)
    neighbor_idx = NeighborIndex(pts).knn_batch(pts, k)

    out_points = np.empty((n * factor, 3))
    out_normals = np.empty((n * factor, 3))
    out_deltas = np.empty(n * factor)
    coarse = np.empty((n, 3))
    curvatures = np.zeros((n, 2))
    degenerate_frames = 0
    degenerate_fits = 0

    for i in range(n):
        neighborhood = pts[neighbor_idx[i]]
        center = pts[i]
        try:
            frame = estimate_frame(neighborhood, center)
            forms = fit_fundamental_forms(neighborhood, frame)
        except GeometryError:
            degenerate_frames += 1
            frame = Frame(origin=center.copy(),
                          t1=np.array([1.0, 0.0, 0.0]),
                          t2=np.array([0.0, 1.0, 0.0]),
                          t3=np.array([0.0, 0.0, 1.0]))
            forms = None
        dists = np.linalg.norm(neighborhood - center, axis=1)
        local_radius = float(np.median(np.sort(dists)[1:5]))
        uv = param_samples(factor, pattern, local_radius, rng)

        if forms is None or forms.degenerate:
            if forms is not None and forms.degenerate:
                degenerate_fits += 1
            p1, p2 = frame.t1, frame.t2
            k1 = k2 = 0.0
        else:
            p1 = forms.dir1[0] * frame.t1 + forms.dir1[1] * frame.t2
            p2 = forms.dir2[0] * frame.t1 + forms.dir2[1] * frame.t2
            k1, k2 = forms.k1, forms.k2

        lifted = center + uv[:, :1] * p1 + uv[:, 1:] * p2
        deltas = 0.5 * (k1 * uv[:, 0] ** 2 + k2 * uv[:, 1] ** 2)
        if local_radius > 0.0:
            deltas = np.clip(deltas, -local_radius, local_radius)
        if not displacement:
            deltas = np.zeros_like(deltas)
        samples = lifted + deltas[:, None] * frame.t3
        normals = -k1 * uv[:, :1] * p1 - k2 * uv[:, 1:] * p2 + frame.t3
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)

        sl = slice(i * factor, (i + 1) * factor)
        out_points[sl] = samples
        out_normals[sl] = normals
        out_deltas[sl] = deltas
        coarse[i] = frame.t3
        curvatures[i] = (k1, k2)

    metadata = {"degenerate_frames": degenerate_frames, "degenerate_fits": degenerate_fits,
                "k1": curvatures[:, 0], "k2": curvatures[:, 1]}
    return UpsampleResult(points=out_points, normals=out_normals, coarse_normals=coarse,
                          deltas=out_deltas,
                          parent=np.repeat(np.arange(n, dtype=np.int64), factor),
                          metadata=metadata)


def frame_stats(frames: list[Frame], deltas) -> FrameStats:
    """The per-frame loop: angle-vs-cross-product and displacement histograms."""
    thetas = []
    degenerate = 0
    for frame in frames:
        cross = np.cross(frame.t1, frame.t2)
        n3 = np.linalg.norm(frame.t3)
        nc = np.linalg.norm(cross)
        if n3 <= 0.0 or nc <= 0.0:
            degenerate += 1
            continue
        cos = float(np.clip(frame.t3 @ cross / (n3 * nc), -1.0, 1.0))
        angle = math.degrees(math.acos(cos))
        thetas.append(min(angle, 180.0 - angle))
    theta_deg = np.asarray(thetas, dtype=np.float64)
    theta_counts, theta_edges = np.histogram(theta_deg, bins=30, range=(0.0, 90.0))

    deltas = np.asarray(deltas, dtype=np.float64).ravel()
    if deltas.size == 0:
        delta_counts, delta_edges = np.histogram(deltas, bins=50, range=(0.0, 1.0))
    else:
        lo, hi = float(deltas.min()), float(deltas.max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        delta_counts, delta_edges = np.histogram(deltas, bins=50, range=(lo, hi))
    return FrameStats(theta_deg=theta_deg, theta_counts=theta_counts,
                      theta_edges=theta_edges, delta_counts=delta_counts,
                      delta_edges=delta_edges, degenerate=degenerate)


def _check_unit(v: np.ndarray, name: str) -> None:
    lengths = np.linalg.norm(v, axis=-1)
    if np.any(np.abs(lengths - 1.0) > _UNIT_TOL):
        worst = float(np.max(np.abs(lengths - 1.0)))
        raise ValueError(f"{name} must be unit vectors (worst deviation {worst:.3g})")


def normal_loss_unoriented(n: np.ndarray, m: np.ndarray) -> float:
    """min(||n - m||^2, ||n + m||^2) for unit vectors n, m."""
    n = np.asarray(n, dtype=np.float64).reshape(3)
    m = np.asarray(m, dtype=np.float64).reshape(3)
    _check_unit(n[None], "n")
    _check_unit(m[None], "m")
    return float(min(np.sum((n - m) ** 2), np.sum((n + m) ** 2)))


def _unoriented_sq(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    minus = np.sum((pred - gt) ** 2, axis=-1)
    plus = np.sum((pred + gt) ** 2, axis=-1)
    return np.minimum(minus, plus)


def coarse_normal_loss(predicted: np.ndarray, target: np.ndarray,
                       reduction: str = "sum") -> float:
    """Index-aligned unoriented normal loss over the sparse points."""
    predicted = np.asarray(predicted, dtype=np.float64).reshape(-1, 3)
    target = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    if len(predicted) != len(target):
        raise ValueError(f"length mismatch: {len(predicted)} vs {len(target)}")
    _check_unit(predicted, "predicted normals")
    _check_unit(target, "target normals")
    values = _unoriented_sq(predicted, target)
    return float(values.mean() if reduction == "mean" else values.sum())


def refined_normal_loss(pred_points: np.ndarray, pred_normals: np.ndarray,
                        gt_points: np.ndarray, gt_normals: np.ndarray | None,
                        reduction: str = "sum") -> float:
    """Unoriented normal loss against the nearest ground-truth point's normal."""
    if gt_normals is None:
        raise ValueError("ground truth normals are required")
    pred_points = np.asarray(pred_points, dtype=np.float64).reshape(-1, 3)
    pred_normals = np.asarray(pred_normals, dtype=np.float64).reshape(-1, 3)
    gt_points = np.asarray(gt_points, dtype=np.float64).reshape(-1, 3)
    gt_normals = np.asarray(gt_normals, dtype=np.float64).reshape(-1, 3)
    if len(gt_points) == 0:
        raise ValueError("ground truth is empty")
    _check_unit(pred_normals, "predicted normals")
    _check_unit(gt_normals, "target normals")
    phi = nearest_indices(pred_points, gt_points)
    values = _unoriented_sq(pred_normals, gt_normals[phi])
    return float(values.mean() if reduction == "mean" else values.sum())


def total_loss(cd: float, coarse: float, refined: float,
               weights: LossWeights | None = None) -> float:
    w = weights or LossWeights()
    return w.alpha * cd + w.beta * coarse + w.gamma * refined
