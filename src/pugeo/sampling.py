"""Spatial sampling and patching.

Farthest point sampling, k-nearest neighbors with exact brute-force
semantics (distance ties broken by ascending index), Poisson-disk sampling
of triangle meshes by sample elimination, patch extraction/normalization
and patch fusion.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import GeometryError
from .io import PointCloud, TriangleMesh, vertex_normals


def _as_points(cloud) -> np.ndarray:
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=np.float64)
    return pts.reshape(-1, 3)


# ---------------------------------------------------------------------------
# farthest point sampling


def farthest_point_sample(cloud, count: int, seed_index: int = 0) -> np.ndarray:
    """Greedy max-min subset selection starting at seed_index.

    Each subsequent pick maximizes the distance to the nearest already
    selected point; ties go to the smallest index (argmax returns the first
    maximum).  A pick can only lower the nearest-selected distance of
    points within the current max-min radius of it, so only those are
    updated, found through a kd-tree at that radius inflated by 1e-9
    relative.  The distances are the ones a full O(N) update computes, so
    the picks are exactly those of the full scan.
    """
    pts = _as_points(cloud)
    n = len(pts)
    if count > n:
        raise ValueError(f"requested {count} samples from {n} points")
    if not 0 <= seed_index < n:
        raise ValueError(f"seed index {seed_index} out of range for {n} points")
    selected = np.empty(count, dtype=np.int64)
    selected[0] = seed_index
    min_dist = np.linalg.norm(pts - pts[seed_index], axis=1)
    tree = cKDTree(pts)
    for i in range(1, count):
        nxt = int(np.argmax(min_dist))
        selected[i] = nxt
        radius = np.nextafter(min_dist[nxt] * (1.0 + 1e-9), np.inf)
        cand = np.asarray(tree.query_ball_point(pts[nxt], radius), dtype=np.int64)
        min_dist[cand] = np.minimum(min_dist[cand],
                                    np.linalg.norm(pts[cand] - pts[nxt], axis=1))
    return selected


# ---------------------------------------------------------------------------
# k nearest neighbors
#
# The spatial index is a scipy cKDTree (median splits with balanced_tree).
# Results are post-processed so they match a brute-force scan exactly,
# including the tie rule: sort by (distance, index) with distances
# recomputed by the same numpy expression a brute-force scan would use.


class NeighborIndex:
    """kNN queries against a fixed cloud with exact brute-force semantics."""

    def __init__(self, points):
        self.points = _as_points(points)
        if len(self.points) == 0:
            raise ValueError("empty point set")
        self.tree = cKDTree(self.points, balanced_tree=True)

    def _exact(self, query: np.ndarray, k: int) -> np.ndarray:
        dk = np.atleast_1d(self.tree.query(query, k=k)[0])[-1]
        radius = np.nextafter(dk * (1.0 + 1e-9), np.inf)
        cand = np.asarray(self.tree.query_ball_point(query, radius), dtype=np.int64)
        dists = np.linalg.norm(self.points[cand] - query, axis=1)
        order = np.lexsort((cand, dists))
        return cand[order[:k]]

    def knn(self, query, k: int) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64).reshape(3)
        if k > len(self.points):
            raise ValueError(f"k={k} exceeds point count {len(self.points)}")
        return self._exact(query, k)

    def knn_batch(self, queries, k: int) -> np.ndarray:
        """kNN for many queries at once; (Q, k) index array.

        Fast path uses the tree directly and re-sorts by recomputed
        (distance, index); rows whose k-th distance is ambiguous against the
        (k+1)-th fall back to the exact candidate scan.
        """
        queries = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        n = len(self.points)
        if k > n:
            raise ValueError(f"k={k} exceeds point count {n}")
        kq = min(k + 1, n)
        dist, idx = self.tree.query(queries, k=kq)
        dist = dist.reshape(len(queries), kq)
        idx = idx.reshape(len(queries), kq)
        out = np.empty((len(queries), k), dtype=np.int64)
        # boundary tie: excluded (k+1)-th point at (or within rounding of) the
        # k-th distance; such rows take the exact candidate-scan path
        if kq > k:
            ambiguous = dist[:, k] <= dist[:, k - 1] * (1.0 + 1e-12) + 1e-300
        else:
            ambiguous = np.zeros(len(queries), bool)
        for row in np.nonzero(ambiguous)[0]:
            out[row] = self._exact(queries[row], k)
        ok = ~ambiguous
        if np.any(ok):
            sel = idx[ok, :k]
            d = np.linalg.norm(self.points[sel] - queries[ok][:, None, :], axis=2)
            # stable per-row sort by (distance, index)
            order = np.lexsort((sel, d), axis=1)
            out[ok] = np.take_along_axis(sel, order, axis=1)
        return out

    def nearest(self, queries) -> np.ndarray:
        """Index of the single nearest point for each query (ties: lowest index)."""
        return self.knn_batch(queries, 1)[:, 0]


def knn(cloud, query, k: int) -> np.ndarray:
    """Indices of the k nearest cloud points to `query`, ascending distance."""
    return NeighborIndex(cloud).knn(query, k)


# ---------------------------------------------------------------------------
# Poisson-disk sampling of a triangle mesh


def _triangle_areas(mesh: TriangleMesh) -> np.ndarray:
    v, t = mesh.vertices, mesh.triangles
    cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    return 0.5 * np.linalg.norm(cross, axis=1)


def _dart_throw(mesh: TriangleMesh, count: int, rng: np.random.Generator):
    """Area-weighted uniform surface samples with interpolated normals."""
    areas = _triangle_areas(mesh)
    total = float(areas.sum())
    if total <= 0.0:
        raise GeometryError("mesh has zero surface area")
    tri_idx = rng.choice(len(areas), size=count, p=areas / total)
    r1 = np.sqrt(rng.random(count))
    r2 = rng.random(count)
    bary = np.stack([1.0 - r1, r1 * (1.0 - r2), r1 * r2], axis=1)
    tris = mesh.triangles[tri_idx]
    corners = mesh.vertices[tris]                      # (count, 3, 3)
    points = np.einsum("nc,ncd->nd", bary, corners)
    vnorm = mesh.normals if mesh.normals is not None else vertex_normals(mesh)
    normals = np.einsum("nc,ncd->nd", bary, vnorm[tris])
    lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    flat = lengths[:, 0] <= 1e-12
    if np.any(flat):
        # opposing vertex normals cancel; fall back to the face normal
        face = np.cross(corners[flat, 1] - corners[flat, 0], corners[flat, 2] - corners[flat, 0])
        normals[flat] = face
        lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    return points, normals / lengths


def poisson_disk_sample(mesh: TriangleMesh, n: int, seed: int,
                        oversample: int = 4) -> PointCloud:
    """Exactly n blue-noise samples on the mesh surface.

    Dart-throws oversample*n area-weighted candidates, then eliminates down
    to n by repeatedly removing the point whose nearest surviving neighbor
    is closest (ties to the lowest index).  Deterministic given seed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    m = max(n * oversample, n)
    points, normals = _dart_throw(mesh, m, rng)
    if m == n:
        return PointCloud(points, normals)

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

    keep = np.nonzero(alive)[0]
    return PointCloud(points[keep], normals[keep])


# ---------------------------------------------------------------------------
# patches


@dataclass
class Patch:
    """A neighborhood of the parent cloud, centered and scaled to unit radius."""

    indices: np.ndarray
    points: np.ndarray
    centroid: np.ndarray
    scale: float
    normals: np.ndarray | None = None


def extract_patches(cloud: PointCloud, patch_size: int, coverage: float = 3.0,
                    seed_index: int = 0) -> list[Patch]:
    """Cover the cloud with ceil(coverage*M/N) kNN patches around FPS seeds.

    Each patch is translated to zero mean and scaled to max radius 1.  When
    coverage >= 1 but some point still lands in no patch, a warning is
    emitted.
    """
    pts = cloud.points
    m = len(pts)
    if patch_size > m:
        raise ValueError(f"patch size {patch_size} exceeds cloud size {m}")
    n_seeds = min(m, math.ceil(coverage * m / patch_size))
    seeds = farthest_point_sample(cloud, n_seeds, seed_index)
    index = NeighborIndex(pts)
    covered = np.zeros(m, dtype=bool)
    patches = []
    for s in seeds:
        idx = index.knn(pts[s], patch_size)
        covered[idx] = True
        patches.append(_normalize_patch(cloud, idx))
    if coverage >= 1.0 and not covered.all():
        warnings.warn(f"{int((~covered).sum())} points not covered by any patch",
                      stacklevel=2)
    return patches


def _normalize_patch(cloud: PointCloud, indices: np.ndarray) -> Patch:
    raw = cloud.points[indices]
    centroid = raw.mean(axis=0)
    centered = raw - centroid
    scale = float(np.linalg.norm(centered, axis=1).max())
    if scale == 0.0:
        scale = 1.0
    normals = cloud.normals[indices].copy() if cloud.normals is not None else None
    return Patch(indices=np.asarray(indices, dtype=np.int64), points=centered / scale,
                 centroid=centroid, scale=scale, normals=normals)


def denormalize(patch: Patch, points) -> np.ndarray:
    """Map patch-local coordinates back to the parent cloud's units."""
    return np.asarray(points, dtype=np.float64) * patch.scale + patch.centroid


# ---------------------------------------------------------------------------
# fusion


def fuse_patches(clouds: list[PointCloud], target_count: int) -> PointCloud:
    """Concatenate overlapping upsampled patches and FPS down to target_count.

    FPS (seeded at index 0) suppresses near-duplicates from patch overlap
    because a zero-distance duplicate is never picked before the distinct
    points are exhausted.
    """
    points = np.concatenate([c.points for c in clouds], axis=0)
    if len(points) < target_count:
        raise ValueError(f"only {len(points)} points available for target {target_count}")
    have_normals = all(c.normals is not None for c in clouds)
    normals = np.concatenate([c.normals for c in clouds], axis=0) if have_normals else None
    keep = farthest_point_sample(points, target_count, seed_index=0)
    return PointCloud(points[keep], normals[keep] if normals is not None else None)
