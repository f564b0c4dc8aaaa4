"""Evaluation metrics between point sets and against meshes.

Chamfer and Hausdorff distance (both reduce one nearest-point pairing,
computed once when a report needs both), voxel-grid Jensen-Shannon
divergence, exact point-to-surface (P2F) distances batched over all
points (from one k-nearest-centroid query per triangle radius bucket), and
the mesh-to-mesh comparison that samples both surfaces and compares the
samples.  A metric report scores P2F and the pairing metrics as two
independent tasks on the worker-thread runner (`workers._map_tasks`), and
the mesh comparison samples its two meshes the same way.  The
training loss has its own Chamfer on autodiff tensors
(`losses.chamfer_loss`).
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import rel_entr

from .io import PointCloud, TriangleMesh, _naming
from .sampling import nearest_pairs, poisson_disk_sample
from .workers import _map_tasks

JSD_GRID = 32


@dataclass
class MetricReport:
    """All whole-shape metrics plus provenance of the inputs."""

    cd: float
    hd: float
    jsd: float
    p2f_mean: float
    p2f_std: float
    pred_count: int = 0
    gt_count: int = 0
    factor: int | None = None
    inputs: dict = field(default_factory=dict)
    surface: dict = field(default_factory=dict)  # optional cd#/hd#/jsd#

    def to_dict(self) -> dict:
        """Every field, with the `surface` entries merged in at the top level."""
        out = asdict(self)
        out.update(out.pop("surface"))
        return out


def _chamfer_hausdorff(x, y) -> tuple[float, float]:
    """(CD, HD) from one nearest-point pairing of x and y.

    CD divides both directed distance sums by |y| (the dense-set size); HD
    is the larger of the two directed maxima.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1, 3)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 3)
    if len(x) == 0 or len(y) == 0:
        raise ValueError("chamfer and hausdorff require non-empty point sets")
    phi, psi = nearest_pairs(x, y)
    forward = np.linalg.norm(x - y[phi], axis=1)
    backward = np.linalg.norm(y - x[psi], axis=1)
    return (float((forward.sum() + backward.sum()) / len(y)),
            float(max(forward.max(), backward.max())))


def chamfer(x, y) -> float:
    """Symmetric sum of nearest-neighbor distances, divided by |y|."""
    return _chamfer_hausdorff(x, y)[0]


def metric_hd(x, y) -> float:
    """Symmetric Hausdorff distance: max over both directed maxima."""
    return _chamfer_hausdorff(x, y)[1]


def metric_jsd(x, y) -> float:
    """Jensen-Shannon divergence between voxel occupancy distributions.

    Both sets are voxelized on a JSD_GRID^3 lattice over their union bounding
    box inflated by 1%; occupancy counts are normalized and compared with
    natural-log JSD (0*log 0 = 0).  Disjoint supports give ln 2.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1, 3)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 3)
    if len(x) == 0 or len(y) == 0:
        raise ValueError("jsd requires non-empty point sets")
    both = np.concatenate([x, y], axis=0)
    lo = both.min(axis=0)
    hi = both.max(axis=0)
    extent = np.maximum(hi - lo, 1e-12)
    lo = lo - 0.005 * extent
    hi = hi + 0.005 * extent
    cell = (hi - lo) / JSD_GRID

    def occupancy(points):
        idx = np.clip(((points - lo) / cell).astype(np.int64), 0, JSD_GRID - 1)
        flat = (idx[:, 0] * JSD_GRID + idx[:, 1]) * JSD_GRID + idx[:, 2]
        counts = np.bincount(flat, minlength=JSD_GRID ** 3).astype(np.float64)
        return counts / counts.sum()

    p = occupancy(x)
    q = occupancy(y)
    m = 0.5 * (p + q)
    return float(0.5 * (rel_entr(p, m).sum() + rel_entr(q, m).sum()))


def point_to_triangles(p: np.ndarray, a: np.ndarray, b: np.ndarray,
                       c: np.ndarray) -> np.ndarray:
    """Distances from p to each triangle (a[i], b[i], c[i]).

    p is one (3,) point or (n, 3) rows aligned with the triangles.  The
    closest point is classified into the vertex, edge or interior region
    (Ericson, Real-Time Collision Detection, 5.1.5); each row's result does
    not depend on the other rows.  Every region's closest point is computed
    for every row, without branches, and the first region in Ericson's order
    whose test holds is selected; a row's unused candidates may divide by
    zero, so their floating-point errors are ignored.
    """
    p = np.asarray(p, dtype=np.float64)
    p = p.reshape(-1, 3) if p.ndim == 2 else p.reshape(3)
    a = np.asarray(a, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 3)
    c = np.asarray(c, dtype=np.float64).reshape(-1, 3)

    ab = b - a
    ac = c - a
    ap, bp, cp = p - a, p - b, p - c
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    # d1 - d3 = |ab|^2 and d2 - d6 = |ac|^2: a zero-length edge has no region
    # (its 0 / 0 would be NaN); the vertex regions at its ends cover it
    with np.errstate(all="ignore"):
        regions = [  # (test, closest point), in Ericson's order
            ((d1 <= 0.0) & (d2 <= 0.0), a),                                       # vertex A
            ((d3 >= 0.0) & (d4 <= d3), b),                                        # vertex B
            ((vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0) & (d1 != d3),                # edge AB
             a + (d1 / (d1 - d3))[:, None] * ab),
            ((d6 >= 0.0) & (d5 <= d6), c),                                        # vertex C
            ((vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0) & (d2 != d6),                # edge AC
             a + (d2 / (d2 - d6))[:, None] * ac),
            ((va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0),                  # edge BC
             b + ((d4 - d3) / ((d4 - d3) + (d5 - d6)))[:, None] * (c - b)),
        ]
        denom = va + vb + vc
        closest = a + (vb / denom)[:, None] * ab + (vc / denom)[:, None] * ac  # interior
    for test, point in reversed(regions):  # so the first region that holds wins
        closest = np.where(test[:, None], point, closest)
    return np.linalg.norm(closest - p, axis=1)


#: (point, triangle) pairs evaluated at once, and (point, centroid) entries
#: one nearest-centroid query returns, which bounds the memory used
_PAIR_BUDGET = 1 << 16
#: nearest centroids per point that the first query of a radius bucket returns
_FIRST_K = 8


def _lower_by_bucket(found, q, members, tree, reach, dist, idx, corners) -> None:
    """Lower `found` to each q's distance to the bucket's triangles within reach.

    (dist, idx) is the bucket's first query, whose column 0 is in `found`
    already.  A point whose last centroid returned is still within reach is
    queried again for up to 4x the ranks.  That query starts at the rank of
    the point's first centroid at that last distance: a longer query may
    order tied centroids differently, and the ones nearer are all seen.
    """
    a, b, c = corners
    at = np.arange(len(q))
    keep = dist <= reach[:, None]
    keep[:, 0] = False
    lo, pages = 0, []
    while True:
        r, col = np.nonzero(keep)
        if len(r):
            tri = members[idx[r, col]]
            np.minimum.at(found, at[r], point_to_triangles(q[at[r]], a[tri], b[tri], c[tri]))
        hi, last = lo + dist.shape[1], dist[:, -1]
        more = last <= reach[at]
        if hi < len(members) and more.any():
            at, last = at[more], last[more]
            lo += int(np.argmax(dist[more] == last[:, None], axis=1).min())
            top = min(4 * hi, len(members), max(lo + _PAIR_BUDGET, hi + 1))
            take = max(1, _PAIR_BUDGET // (top - lo))
            pages.extend((at[s:s + take], last[s:s + take], lo, top)
                         for s in range(0, len(at), take))
        if not pages:
            return
        at, last, lo, top = pages.pop()
        dist, idx = tree.query(q[at], k=np.arange(lo + 1, top + 1))
        # ranks below a point's first one at `last` are nearer, seen already
        keep = (dist >= last[:, None]) & (dist <= reach[at, None])


def point_to_mesh_distances(points, mesh: TriangleMesh) -> np.ndarray:
    """Exact distance from each point to the mesh surface.

    The result equals, bit for bit, the minimum of point_to_triangles over
    every triangle.  Triangles are bucketed by the power of two of their
    radius (the farthest corner from the centroid), with one centroid
    kd-tree per bucket, so one large triangle does not widen the search of
    every point.  One query per bucket returns each point's _FIRST_K
    nearest centroids.  A point's distance is at most its exact distance to
    the triangle of each bucket's nearest centroid, a surface point in hand;
    a triangle whose centroid lies farther than that bound plus the
    bucket's largest radius (the reach) is strictly farther, so only the
    others are candidates, and only points whose last centroid returned is
    still within reach are queried again.  Points go _PAIR_BUDGET //
    _FIRST_K at a time, and a query returns at most _PAIR_BUDGET (point,
    centroid) entries, unless more centroids than that are equidistant from
    a point, so no evaluation holds more pairs.  A point whose squared
    distance to a bucket's nearest centroid overflows float64 raises
    ValueError; a farther centroid whose distance overflows is beyond reach.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    v, t = mesh.vertices, mesh.triangles
    if len(t) == 0:
        raise ValueError("mesh has no triangles")
    corners = a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    centroids = (a + b + c) / 3.0
    radius = np.linalg.norm(np.stack(corners) - centroids, axis=2).max(axis=0)
    level = np.frexp(radius)[1]
    buckets = [(members, cKDTree(centroids[members]), radius[members].max())
               for members in (np.flatnonzero(level == lv) for lv in np.unique(level))]
    best = np.empty(len(pts))
    step = max(1, _PAIR_BUDGET // _FIRST_K)
    for start in range(0, len(pts), step):
        rows = np.arange(start, min(start + step, len(pts)))
        q = pts[rows]
        first = [tree.query(q, k=np.arange(1, min(_FIRST_K, len(members)) + 1))
                 for members, tree, _ in buckets]
        bound = np.full(len(q), np.inf)
        for (members, _, _), (dist, idx) in zip(buckets, first):
            # where a squared distance overflows float64 the tree returns inf
            # and no centroid; farther columns are beyond reach, not column 0
            far = np.isinf(dist[:, 0])
            if far.any():
                raise ValueError(f"query point {rows[np.argmax(far)]}: its squared distance to "
                                 f"the nearest triangle centroid overflows float64")
            nearest = members[idx[:, 0]]
            np.minimum(bound, point_to_triangles(q, a[nearest], b[nearest], c[nearest]),
                       out=bound)
        found = bound.copy()
        for (members, tree, largest), (dist, idx) in zip(buckets, first):
            # inflated by 1e-9 relative and rounded up, to absorb rounding
            reach = np.nextafter((bound + largest) * (1.0 + 1e-9), np.inf)
            _lower_by_bucket(found, q, members, tree, reach, dist, idx, corners)
        best[rows] = found
    return best


def metric_p2f(points, mesh: TriangleMesh) -> tuple[float, float]:
    """Mean and population std of exact point-to-surface distances."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        raise ValueError("no query points")
    d = point_to_mesh_distances(points, mesh)
    return float(d.mean()), float(d.std())


def surface_compare(mesh_a: TriangleMesh, mesh_b: TriangleMesh, n: int = 200_000,
                    seed: int = 0, names: tuple[str, str] | None = None
                    ) -> tuple[float, float, float]:
    """Sample both meshes and compare the samples with CD/HD/JSD.

    The two samplings use independently derived seeds, so comparing a mesh
    against itself measures the sampling noise floor rather than zero.
    `_map_tasks` runs them as two tasks, under the caller's np.errstate, so
    the samples are bitwise the same for any thread count, and a failure
    raises mesh_a's error before mesh_b's.  A GeometryError is prefixed
    with that mesh's entry in `names` when given.
    """
    meshes = (mesh_a, mesh_b)
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(2)]

    def sample(i: int) -> PointCloud:
        with contextlib.nullcontext() if names is None else _naming(names[i]):
            return poisson_disk_sample(meshes[i], n, seeds[i])

    sample_a, sample_b = _map_tasks(sample, 2)
    cd, hd = _chamfer_hausdorff(sample_a.points, sample_b.points)
    return cd, hd, metric_jsd(sample_a.points, sample_b.points)


def report_metrics(pred: PointCloud, gt_dense: PointCloud, gt_mesh: TriangleMesh,
                   factor: int | None = None, inputs: dict | None = None) -> MetricReport:
    """CD/HD/JSD against the dense ground truth plus P2F against the mesh.

    `_map_tasks` runs two tasks, under the caller's np.errstate: task 0
    pairs the sets once for CD and HD, then scores JSD; task 1 scores P2F.
    Each metric runs the same code on one thread, so the report is bitwise
    the same for any thread count, and a failure raises the first error of
    the serial order CD/HD, JSD, P2F.
    """
    def task(i: int):
        if i == 0:
            return (_chamfer_hausdorff(pred.points, gt_dense.points),
                    metric_jsd(pred.points, gt_dense.points))
        return metric_p2f(pred.points, gt_mesh)

    ((cd, hd), jsd), (p2f_mean, p2f_std) = _map_tasks(task, 2)
    return MetricReport(cd=cd, hd=hd, jsd=jsd, p2f_mean=p2f_mean, p2f_std=p2f_std,
                        pred_count=len(pred), gt_count=len(gt_dense), factor=factor,
                        inputs=inputs or {})
