"""Reference scoring that shares no code with the package under test.

Nearest neighbours come from scipy's cKDTree, point-to-surface distances
from a brute-force scan over every triangle (plane distance when the
projection falls inside the triangle, otherwise the nearest of the three
edges, which is a different formulation from the package's region
classification).  The voxel JSD follows the package's documented
definition: the binning arithmetic must match for the eval check to be
exact, so only the counting differs.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

JSD_GRID = 32
P2F_CHUNK = 256  # points per brute-force block, bounding its (chunk, triangles) arrays
ALPHA = 100.0  # weight of CD in the joint objective, as in the paper's loss


def nearest(queries: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dist, idx = cKDTree(targets).query(queries, k=1)
    return dist, idx


def chamfer(pred: np.ndarray, ref: np.ndarray) -> float:
    """Sum of both directed nearest distances over |ref| (target normalisation)."""
    forward, _ = nearest(pred, ref)
    backward, _ = nearest(ref, pred)
    return float((forward.sum() + backward.sum()) / len(ref))


def hausdorff(pred: np.ndarray, ref: np.ndarray) -> float:
    forward, _ = nearest(pred, ref)
    backward, _ = nearest(ref, pred)
    return float(max(forward.max(), backward.max()))


def jsd(pred: np.ndarray, ref: np.ndarray) -> float:
    """Natural-log JSD of voxel occupancy over the union box inflated by 1%."""
    both = np.concatenate([pred, ref])
    lo, hi = both.min(axis=0), both.max(axis=0)
    extent = np.maximum(hi - lo, 1e-12)
    lo = lo - 0.005 * extent
    hi = hi + 0.005 * extent
    cell = (hi - lo) / JSD_GRID

    def distribution(points):
        cells = np.clip(((points - lo) / cell).astype(np.int64), 0, JSD_GRID - 1)
        keys, counts = np.unique(cells, axis=0, return_counts=True)
        return {tuple(k): c / len(points) for k, c in zip(keys.tolist(), counts)}

    p, q = distribution(pred), distribution(ref)
    total = 0.0
    for key in p.keys() | q.keys():
        a, b = p.get(key, 0.0), q.get(key, 0.0)
        m = 0.5 * (a + b)
        if a > 0.0:
            total += a * np.log(a / m)
        if b > 0.0:
            total += b * np.log(b / m)
    return float(0.5 * total)


def _segment_distances(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, t) distances from points p (n, 3) to segments a[j]-b[j] (t, 3)."""
    ab = b - a
    length2 = np.einsum("td,td->t", ab, ab)
    ap = p[:, None, :] - a[None, :, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.einsum("ntd,td->nt", ap, ab) / length2
    t = np.clip(np.nan_to_num(t, nan=0.0), 0.0, 1.0)
    closest = a[None] + t[..., None] * ab[None]
    return np.linalg.norm(p[:, None, :] - closest, axis=2)


def point_to_mesh(points: np.ndarray, vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Exact distance from each point to the nearest triangle, by full scan."""
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    normal = np.cross(b - a, c - a)
    area2 = np.einsum("td,td->t", normal, normal)
    out = np.empty(len(points))
    for start in range(0, len(points), P2F_CHUNK):
        p = points[start:start + P2F_CHUNK]
        edges = np.minimum(np.minimum(_segment_distances(p, a, b), _segment_distances(p, b, c)),
                           _segment_distances(p, c, a))
        ap = p[:, None, :] - a[None]
        with np.errstate(invalid="ignore", divide="ignore"):
            height = np.einsum("ntd,td->nt", ap, normal) / np.sqrt(area2)
            foot = p[:, None, :] - height[..., None] * (normal / np.sqrt(area2)[:, None])[None]
            # barycentric sign test on the projected foot point
            inside = np.ones(height.shape, dtype=bool)
            for u, v in ((a, b), (b, c), (c, a)):
                side = np.einsum("ntd,td->nt", np.cross(v - u, foot - u[None]), normal)
                inside &= side >= 0.0
        inside &= area2[None, :] > 0.0
        dist = np.where(inside, np.abs(height), edges)
        out[start:start + P2F_CHUNK] = dist.min(axis=1)
    return out


def normal_error_deg(pred_normals: np.ndarray, pred_points: np.ndarray,
                     ref_points: np.ndarray, ref_normals: np.ndarray) -> float:
    """Mean unoriented angle to the normal of each point's nearest reference point."""
    _, idx = nearest(pred_points, ref_points)
    cos = np.abs(np.einsum("nd,nd->n", pred_normals, ref_normals[idx]))
    return float(np.degrees(np.arccos(np.clip(cos, 0.0, 1.0))).mean())


def joint_objective(pred_points: np.ndarray, pred_normals: np.ndarray,
                    ref_points: np.ndarray, ref_normals: np.ndarray) -> float:
    """ALPHA * CD plus the mean unoriented squared normal error to nearest refs."""
    _, idx = nearest(pred_points, ref_points)
    m = ref_normals[idx]
    minus = np.sum((pred_normals - m) ** 2, axis=1)
    plus = np.sum((pred_normals + m) ** 2, axis=1)
    return ALPHA * chamfer(pred_points, ref_points) + float(np.minimum(minus, plus).mean())


def score(pred_points: np.ndarray, pred_normals: np.ndarray, ref_points: np.ndarray,
          ref_normals: np.ndarray, mesh: tuple[np.ndarray, np.ndarray] | None) -> dict:
    """All point-quality metrics of a prediction against its reference.

    Without a mesh, P2F falls back to the distance to the nearest reference
    sample, i.e. the dense reference stands in for the surface.
    """
    if mesh is not None:
        p2f = point_to_mesh(pred_points, *mesh)
    else:
        p2f, _ = nearest(pred_points, ref_points)
    return {
        "cd": chamfer(pred_points, ref_points),
        "hd": hausdorff(pred_points, ref_points),
        "jsd": jsd(pred_points, ref_points),
        "p2f_mean": float(p2f.mean()),
        "p2f_std": float(p2f.std()),
        "normal_err_deg": normal_error_deg(pred_normals, pred_points, ref_points, ref_normals),
        "loss_final": joint_objective(pred_points, pred_normals, ref_points, ref_normals),
    }
