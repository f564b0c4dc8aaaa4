"""Slow reference implementations that the vectorized code is tested against.

These are the original loop versions of farthest point sampling, of
Poisson sample elimination (one kd-tree query per neighbor update), of
analytic upsampling with its per-point frame and curvature fits, and of
the frame statistics, plus the full scan over every triangle for the
point-to-surface distance.  They are kept verbatim in arithmetic so that
the fast paths in ``pugeo`` can be compared against them bit for bit (FPS,
Poisson elimination, P2F, frame statistics) or within a fixed tolerance
(geometry, whose least-squares solves moved from LAPACK ``gelsd`` to a
stacked SVD).  The numpy normal and joint losses are the oracles for
the autodiff training losses.  The full-sort feature kNN and the
``np.add.at`` gather are the oracles for the model's pruned kNN and the
CSR scatter in ``gather``'s backward; the ``np.where`` relu and the
``np.argmax`` reduce_max are the oracles for their bit-level kernels.  The
joint-graph training loop is the oracle for the per-example backward
passes of ``trainer.train``, and the per-record ``.xyz``, OBJ and PLY
readers at the end are the oracles for ``pugeo.io``'s readers.
"""

from __future__ import annotations

import heapq
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

import pugeo.autodiff as ad
from pugeo import trainer
from pugeo.analytic import GOLDEN_ANGLE, SamplePattern, UpsampleResult
from pugeo.errors import (FormatError, GeometryError, ShapeError, TrainingDiverged,
                          UnsupportedFormatError)
from pugeo.geometry import FrameStats
from pugeo.io import PointCloud, TriangleMesh, _naming, _unit_rows
from pugeo.losses import LossWeights
from pugeo.metrics import point_to_triangles
from pugeo.model import save_model
from pugeo.sampling import NeighborIndex

from helpers import brute_force_nearest

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
    phi = brute_force_nearest(pred_points, gt_points)
    values = _unoriented_sq(pred_normals, gt_normals[phi])
    return float(values.mean() if reduction == "mean" else values.sum())


def total_loss(cd: float, coarse: float, refined: float,
               weights: LossWeights | None = None) -> float:
    w = weights or LossWeights()
    return w.alpha * cd + w.beta * coarse + w.gamma * refined


# The in-network kNN by a full stable sort of every (n, n, w) broadcast
# distance row, and the gather op with np.add.at for its gradient.

def _pairwise_sq_dists(values: np.ndarray) -> np.ndarray:
    # explicit broadcast keeps each pair's arithmetic independent of row
    # order, which the permutation-equivariance contract relies on
    diff = values[:, None, :] - values[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def knn_indices(values: np.ndarray, k: int) -> np.ndarray:
    """k nearest rows for each row, self excluded, ties by ascending index."""
    n = len(values)
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the point count {n}")
    d2 = _pairwise_sq_dists(values)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, :k]


def gather(a: ad.Tensor, indices, axis: int = 0) -> ad.Tensor:
    """Select rows/columns by integer index; gradients scatter-add back."""
    indices = np.asarray(indices, dtype=np.int64)
    if axis not in (0, 1):
        raise ShapeError("gather supports axis 0 or 1")
    out = np.take(a.data, indices, axis=axis)

    def backward(g):
        ga = np.zeros_like(a.data)
        if axis == 0:
            np.add.at(ga, indices, g)
        else:
            np.add.at(ga, (slice(None), indices), g)
        return (ga,)

    return ad._make(out, (a,), backward)


# relu by np.where and reduce_max with a strided np.argmax: the oracles for
# the bit-AND relu and the first-hit argmax in reduce_max's backward.

def relu(a: ad.Tensor) -> ad.Tensor:
    mask = a.data > 0
    return ad._make(np.where(mask, a.data, 0.0).astype(a.dtype, copy=False), (a,),
                    lambda g: (g * mask,))


def reduce_max(a: ad.Tensor, axis: int, keepdims: bool = False) -> ad.Tensor:
    """Max along an axis; gradient routes to the first (lowest-index) argmax."""
    out = a.data.max(axis=axis, keepdims=keepdims)
    argmax = np.argmax(a.data, axis=axis)

    def backward(g):
        ga = np.zeros_like(a.data)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(ga, np.expand_dims(argmax, axis), g_exp, axis=axis)
        return (ga,)

    return ad._make(out, (a,), backward)


# The training loop with one joint graph per batch: every example's loss is
# summed into one node and a single backward pass writes the parameters'
# .grad.  The oracle for trainer.train's per-example backward passes.

def train(config, dataset, model, log_stream=None, checkpoint_dir=None):
    if not dataset:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(config.seed)
    optimizer = ad.Adam(model.parameters(), lr=config.lr)
    history = []
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        sums = np.zeros(4)
        batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = [dataset[i] for i in order[start:start + config.batch_size]]
            if config.augment:
                batch = [trainer.augment_example(ex, rng) for ex in batch]
            totals = []
            components = np.zeros(3)
            try:
                for example in batch:
                    total, cd, coarse, refined = trainer._example_losses(
                        model, example, config.weights, config.normal_reduction)
                    totals.append(total)
                    components += [cd.item(), coarse.item(), refined.item()]
                batch_loss = totals[0]
                for extra in totals[1:]:
                    batch_loss = ad.add(batch_loss, extra)
                batch_loss = ad.mul(batch_loss, 1.0 / len(batch))
                if not np.isfinite(batch_loss.item()):
                    raise TrainingDiverged("non-finite loss")
            except TrainingDiverged as exc:
                # the gradients in hand are the previous step's; step 0 has none
                grad_norms = {name: float(np.linalg.norm(t.grad))
                              for name, t in model.named_params() if t.grad is not None}
                raise TrainingDiverged(
                    f"{exc} at step {step}",
                    {"step": step, "examples": len(totals),
                     "components": (components / len(totals)).tolist() if totals else None,
                     "grad_step": step - 1 if grad_norms else None,
                     "grad_norms": grad_norms}) from None
            optimizer.zero_grad()
            ad.backward(batch_loss)
            optimizer.step()
            sums += [batch_loss.item(), *(components / len(batch))]
            batches += 1
            step += 1
        record = {"epoch": epoch, "l_total": sums[0] / batches, "l_cd": sums[1] / batches,
                  "l_coarse": sums[2] / batches, "l_refined": sums[3] / batches}
        history.append(record)
        if log_stream is not None:
            log_stream.write(json.dumps(record, sort_keys=True) + "\n")
            log_stream.flush()
        if checkpoint_dir is not None and (epoch + 1) % config.checkpoint_every == 0:
            save_model(model, f"{checkpoint_dir}/checkpoint_epoch{epoch + 1:04d}.pugeo")
    if checkpoint_dir is not None:
        save_model(model, f"{checkpoint_dir}/checkpoint_final.pugeo")
    return model, history


# The text readers, each with its own per-record parse loop.

def _check_finite(values: list[float], lineno: int) -> None:
    """FormatError citing the line if any parsed value is nan or inf."""
    if not all(map(math.isfinite, values)):
        raise FormatError(f"line {lineno}: non-finite value")


def _fan(indices: list[int], lineno: int) -> list[tuple[int, int, int]]:
    if len(indices) < 3:
        raise FormatError(f"line {lineno}: face with {len(indices)} vertices")
    return [(indices[0], indices[i], indices[i + 1]) for i in range(1, len(indices) - 1)]


def read_xyz(path: str | os.PathLike) -> PointCloud:
    """Read an .xyz file: 3 columns (points) or 6 (points + normals).

    Normals are normalized on load.  Mixed arity, non-numeric tokens or
    non-finite values raise FormatError citing the path and the 1-based
    line number.
    """
    points, normals = [], []
    arity = None
    with _naming(path), open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            tokens = raw.split()
            if not tokens:
                continue
            if len(tokens) not in (3, 6):
                raise FormatError(f"line {lineno}: expected 3 or 6 columns, got {len(tokens)}")
            if arity is None:
                arity = len(tokens)
            elif len(tokens) != arity:
                raise FormatError(
                    f"line {lineno}: mixed column counts ({len(tokens)} after {arity})"
                )
            try:
                values = [float(tok) for tok in tokens]
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-numeric token ({exc})") from None
            _check_finite(values, lineno)
            points.append(values[:3])
            if arity == 6:
                n = np.asarray(values[3:], dtype=np.float64)
                length = np.linalg.norm(n)
                if length == 0.0:
                    raise FormatError(f"line {lineno}: zero-length normal")
                normals.append(n / length)
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return PointCloud(pts, np.asarray(normals) if normals else None)


def _read_obj(path) -> TriangleMesh:
    verts: list[list[float]] = []
    vnormals: list[list[float]] = []
    faces: list[tuple[int, int, int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            tokens = raw.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            tag = tokens[0]
            if tag == "v":
                if len(tokens) < 4:
                    raise FormatError(f"line {lineno}: vertex needs 3 coordinates")
                try:
                    coords = [float(t) for t in tokens[1:4]]
                except ValueError:
                    raise FormatError(f"line {lineno}: non-numeric vertex coordinate") from None
                _check_finite(coords, lineno)
                verts.append(coords)
            elif tag == "vn":
                try:
                    normal = [float(t) for t in tokens[1:4]]
                except ValueError:
                    raise FormatError(f"line {lineno}: non-numeric normal") from None
                _check_finite(normal, lineno)
                vnormals.append(normal)
            elif tag == "f":
                idx = []
                for tok in tokens[1:]:
                    head = tok.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError:
                        raise FormatError(f"line {lineno}: bad face index {head!r}") from None
                    # OBJ is 1-based; negative indices count from the end
                    i = i - 1 if i > 0 else len(verts) + i
                    if not 0 <= i < len(verts):
                        raise FormatError(f"line {lineno}: face index {head} out of range")
                    idx.append(i)
                faces.extend(_fan(idx, lineno))
    normals = None
    if len(vnormals) == len(verts) and verts:
        normals = _unit_rows(np.asarray(vnormals, dtype=np.float64))
    return TriangleMesh(np.asarray(verts, dtype=np.float64).reshape(-1, 3),
                        np.asarray(faces, dtype=np.int64).reshape(-1, 3), normals)


def _read_ply(path) -> TriangleMesh:
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        lines = [ln.rstrip("\n") for ln in handle]
    if not lines or lines[0].strip() != "ply":
        raise FormatError("not a PLY file (missing 'ply' header)")
    n_vertex = n_face = 0
    vertex_props: list[str] = []
    current = None
    cursor = 1
    while cursor < len(lines):
        tokens = lines[cursor].split()
        cursor += 1
        if not tokens:
            continue
        if tokens[0] == "format":
            if tokens[1] != "ascii":
                raise UnsupportedFormatError(f"unsupported PLY format {tokens[1]!r}")
        elif tokens[0] == "element":
            current = tokens[1]
            if current == "vertex":
                n_vertex = int(tokens[2])
            elif current == "face":
                n_face = int(tokens[2])
        elif tokens[0] == "property" and current == "vertex":
            vertex_props.append(tokens[-1])
        elif tokens[0] == "end_header":
            break
    else:
        raise FormatError("PLY header is missing end_header")

    for name in ("x", "y", "z"):
        if name not in vertex_props:
            raise FormatError(f"PLY vertex element lacks property {name!r}")
    col = {name: vertex_props.index(name) for name in vertex_props}
    has_normals = all(n in vertex_props for n in ("nx", "ny", "nz"))

    body = [(lineno, ln) for lineno, ln in enumerate(lines[cursor:], start=cursor + 1)
            if ln.split()]
    if len(body) < n_vertex + n_face:
        raise FormatError(f"PLY body has {len(body)} rows, header declares {n_vertex + n_face}")
    verts = np.empty((n_vertex, 3), dtype=np.float64)
    normals = np.empty((n_vertex, 3), dtype=np.float64) if has_normals else None
    for i in range(n_vertex):
        tokens = body[i][1].split()
        try:
            verts[i] = [float(tokens[col["x"]]), float(tokens[col["y"]]), float(tokens[col["z"]])]
            if has_normals:
                normals[i] = [float(tokens[col["nx"]]), float(tokens[col["ny"]]),
                              float(tokens[col["nz"]])]
        except (ValueError, IndexError):
            raise FormatError(f"PLY vertex row {i + 1} is malformed") from None
    finite = np.isfinite(verts).all(axis=1)
    if has_normals:
        finite &= np.isfinite(normals).all(axis=1)
    if not finite.all():
        raise FormatError(f"line {body[int(np.argmin(finite))][0]}: non-finite value")
    faces: list[tuple[int, int, int]] = []
    for i in range(n_face):
        tokens = body[n_vertex + i][1].split()
        try:
            count = int(tokens[0])
            idx = [int(t) for t in tokens[1:1 + count]]
        except (ValueError, IndexError):
            raise FormatError(f"PLY face row {i + 1} is malformed") from None
        if any(not 0 <= j < n_vertex for j in idx):
            raise FormatError(f"PLY face row {i + 1}: index out of range")
        faces.extend(_fan(idx, i + 1))
    if normals is not None:
        normals = _unit_rows(normals)
    return TriangleMesh(verts, np.asarray(faces, dtype=np.int64).reshape(-1, 3), normals)
