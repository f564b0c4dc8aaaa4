"""Per-point differential geometry from neighborhoods, batched over points.

For each of N neighborhoods at once, a tangent frame is estimated by PCA
of the neighborhood covariance and packed as the 3x3 matrix [t1 t2 t3]
whose first two columns span the tangent plane and whose third column is
their cross product.  A quadric height fit over that frame yields the
principal curvatures, which drive the normal displacement that bends
tangent-plane samples onto the surface.  Both kernels (estimate_frames,
fit_curvatures) work on stacked (N, k, 3) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: fewest rows per neighborhood the frame and curvature fits accept
MIN_NEIGHBORS = 6
#: relative eigenvalue floor below which a covariance is considered collinear
_COLLINEAR_RTOL = 1e-10
#: normal-equation condition number above which a quadric fit is degenerate
_FIT_CONDITION_LIMIT = 1e8
#: condition bound at or below which a Householder solve stands without the SVD;
#: 1e6 keeps far inside both _FIT_CONDITION_LIMIT and the rank cutoff 1 / (16 eps)
_QR_CONDITION_LIMIT = 1e6
#: below this length a vector's squared length is subnormal or zero
_MIN_LENGTH = float(np.sqrt(np.finfo(np.float64).tiny))


def estimate_frames(neighborhoods, centers) -> tuple[np.ndarray, np.ndarray]:
    """PCA tangent frames of N neighborhoods at once, jet-refined.

    `neighborhoods` is (N, k, 3) with k >= 6 and `centers` is (N, 3).  Per
    row, t3 starts as the smallest-eigenvalue direction of the neighborhood
    covariance; one least-squares jet step (height fit with linear terms)
    then cancels the residual tilt of the PCA plane, which would otherwise
    leak first-order error into the curvature fit.  The step is skipped
    where that fit has rank < 5.  t3 is oriented toward the neighborhood
    centroid (the concave side).  Where the centroid lies in the tangent
    plane (flat neighborhoods, or a centroid at the center), to within
    1e-12 of the neighborhood's extent (the square root of its largest
    covariance eigenvalue), t3's largest-magnitude component is made
    positive instead, so a flat region gets one orientation.  t1 is the
    dominant covariance direction projected into the tangent plane,
    t2 = t3 x t1.

    Returns (frames, collinear): frames is (N, 3, 3) with columns
    (t1, t2, t3); rows whose middle covariance eigenvalue falls below the
    collinear floor are flagged and get the identity frame.
    """
    pts = _neighborhoods(neighborhoods)
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    centroid = pts.mean(axis=1)
    deltas = pts - centroid[:, None, :]
    cov = deltas.transpose(0, 2, 1) @ deltas / pts.shape[1]
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    spread = np.maximum(eigvals[:, 2], 1e-300)
    collinear = eigvals[:, 1] <= _COLLINEAR_RTOL * spread

    t3 = eigvecs[:, :, 0]
    major = eigvecs[:, :, 2]
    t1 = _unit_rows(major - _dot(major, t3)[:, None] * t3)
    t2 = np.cross(t3, t1)

    u, v, w = _frame_coords(pts, centers, np.stack([t1, t2, t3], axis=2))
    design = np.stack([u, v, 0.5 * u * u, u * v, 0.5 * v * v])
    solution, rank, _ = _lstsq_rows(design, w)
    refined = _unit_rows(-solution[0, :, None] * t1 - solution[1, :, None] * t2 + t3)
    t1_refined = _unit_rows(t1 - _dot(t1, refined)[:, None] * refined)
    tilt = (rank == 5)[:, None]
    t1 = np.where(tilt, t1_refined, t1)
    t2 = np.where(tilt, np.cross(refined, t1_refined), t2)
    t3 = np.where(tilt, refined, t3)

    side = _dot(t3, centroid - centers)
    # in the tangent plane the sign of `side` is rounding noise
    in_plane = np.abs(side) <= 1e-12 * np.sqrt(spread)
    largest = np.take_along_axis(t3, np.abs(t3).argmax(axis=1)[:, None], axis=1)[:, 0]
    side = np.where(in_plane, largest, side)
    # flipping t2 with t3 keeps the handedness t3 = t1 x t2
    sign = np.where(side < 0.0, -1.0, 1.0)[:, None]
    frames = np.stack([t1, sign * t2, sign * t3], axis=2)
    frames[collinear] = np.eye(3)
    return frames, collinear


def fit_curvatures(neighborhoods, origins, frames) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares quadric height fits of N neighborhoods in given frames.

    Neighbors are expressed as (u, v, w) in each row's frame (columns t1,
    t2, t3 of the (N, 3, 3) `frames`, placed at the (N, 3) `origins`) and
    w is fitted against (u^2/2, u*v, v^2/2) through the origin.  The
    symmetric coefficient matrix [[e, f], [f, g]] is eigen-decomposed into
    curvatures and directions.

    Returns (curvatures, directions, degenerate): curvatures is (N, 2) with
    k1 >= k2, directions is (N, 2, 2) with the unit 2D principal directions
    dir1, dir2 as columns.  Rank-deficient or ill-conditioned fits are
    flagged degenerate, with zero curvature and the identity directions.
    """
    pts = _neighborhoods(neighborhoods)
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    u, v, w = _frame_coords(pts, origins, np.asarray(frames, dtype=np.float64))
    design = np.stack([0.5 * u * u, u * v, 0.5 * v * v])
    solution, rank, condition = _lstsq_rows(design, w)
    # rank < 3 includes every fit whose smallest singular value is <= 0
    degenerate = (rank < 3) | (condition > _FIT_CONDITION_LIMIT)
    e, f, g = solution
    eigvals, eigvecs = np.linalg.eigh(np.stack([e, f, f, g], axis=1).reshape(-1, 2, 2))
    curvatures = eigvals[:, ::-1].copy()
    directions = eigvecs[:, :, ::-1].copy()
    curvatures[degenerate] = 0.0
    directions[degenerate] = np.eye(2)
    return curvatures, directions, degenerate


def _neighborhoods(neighborhoods) -> np.ndarray:
    pts = np.asarray(neighborhoods, dtype=np.float64)
    if pts.ndim != 3 or pts.shape[2] != 3:
        raise ValueError(f"neighborhoods must be (N, k, 3), got shape {pts.shape}")
    if pts.shape[1] < MIN_NEIGHBORS:
        raise ValueError(f"need at least {MIN_NEIGHBORS} neighbors, got {pts.shape[1]}")
    return pts


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("nd,nd->n", a, b)


def _vector_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products rounded as one `a[i] @ b[i]` vector dot rounds."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Rows of (n, 3), none of them all zero, each divided by its length.

    The one normal rule of the package.  A row whose squared length
    overflows or is subnormal would lose its length, so it is first divided
    by its largest |component|.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(v, axis=1)
    lost = (norms < _MIN_LENGTH) | np.isinf(norms)
    if lost.any():
        v = np.where(lost[:, None], v / np.abs(v).max(axis=1, keepdims=True), v)
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


def _face_cross(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """(b - a) x (c - a) of every triangle (a, b, c): its normal times twice its area.

    The vertices are first scaled by a power of two, which is exact, so
    that the largest |coordinate| is in [0.5, 1): the products never
    overflow, and the mesh's scale alone cannot make them underflow.
    """
    if vertices.size:
        vertices = np.ldexp(vertices, -np.frexp(np.abs(vertices).max())[1])
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    return np.cross(b - a, c - a)


def _frame_coords(pts, origins, frames):
    """(u, v, w) of every neighbor in its row's frame, each (k, N) and contiguous."""
    coords = np.ascontiguousarray(((pts - origins[:, None, :]) @ frames).transpose(2, 1, 0))
    return coords[0], coords[1], coords[2]


def _lstsq_rows(design: np.ndarray, rhs: np.ndarray):
    """np.linalg.lstsq(A_i, b_i, rcond=None) of N rows at once, batch axis last.

    `design` is (m, k, N) with k >= m and `rhs` is (k, N): A_i is
    design[:, :, i].T and b_i is rhs[:, i].  Householder QR solves every
    row at once, looping over the m columns only; no row's arithmetic
    depends on another row, so its result is bitwise the same in any batch.
    kappa = ||R||_F * ||R^-1||_F bounds the condition number (cond <= kappa
    <= m * cond).  A row with kappa <= _QR_CONDITION_LIMIT is full rank and
    well conditioned, and keeps its QR solution.  Every other finite row is
    solved by one stacked SVD as lstsq solves it: singular values at or
    below eps * max(k, m) times the row's largest count as zero, and the
    solution is the minimum-norm one.  A row with a non-finite design entry
    gets rank 0 and NaN: LAPACK's SVD fails on NaN and does not return on inf.

    Returns (solution, rank, condition): solution is (m, N); condition is
    sigma_max / sigma_min where the SVD ran and kappa elsewhere.
    """
    m, k, n = design.shape
    if n == 1:
        # numpy would run one row's sums along k, in another order than
        # along the batch axis; a pair keeps them there
        solution, rank, condition = _lstsq_rows(design.repeat(2, axis=2), rhs.repeat(2, axis=1))
        return solution[:, :1], rank[:1], condition[:1]
    finite = np.isfinite(design).all(axis=(0, 1))
    with np.errstate(all="ignore"):
        solution, condition = _householder_rows(design, rhs)
    rank = np.full(n, m)
    redo = np.flatnonzero(~(condition <= _QR_CONDITION_LIMIT) & finite)
    if redo.size:
        u, singular, vt = np.linalg.svd(design[:, :, redo].T, full_matrices=False)
        kept = singular > np.finfo(np.float64).eps * max(k, m) * singular[:, :1]
        inverse = np.divide(1.0, singular, out=np.zeros_like(singular), where=kept)
        coeffs = np.einsum("nkm,nk->nm", u, np.ascontiguousarray(rhs[:, redo].T)) * inverse
        solution[:, redo] = np.einsum("nmj,nm->nj", vt, coeffs).T
        rank[redo] = kept.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            condition[redo] = singular[:, 0] / singular[:, -1]
    solution[:, ~finite] = np.nan
    rank[~finite] = 0
    condition[~finite] = np.nan
    return solution, rank, condition


def _householder_rows(design: np.ndarray, rhs: np.ndarray):
    """_lstsq_rows's QR solutions, (m, N), and each row's kappa, (N,).

    Each A_i is first scaled by the power of two that brings its largest
    |entry| into [0.5, 1): exact, and it keeps the sums of squares of any
    row that can pass the kappa test clear of underflow and overflow.
    """
    m, k, n = design.shape
    exponent = np.frexp(np.maximum(design.max(axis=(0, 1)), -design.min(axis=(0, 1))))[1]
    # the scaled columns, then the rhs: the reflections act on all m + 1
    cols = np.empty((m + 1, k, n))
    np.ldexp(design, -exponent, out=cols[:m])
    cols[m] = rhs
    norm_a = np.einsum("ckn,ckn->n", cols[:m], cols[:m])  # ||R||_F^2 = ||A||_F^2
    for j in range(m):
        # x becomes v in place, for the reflection I - 2 v v^T / |v|^2 that
        # maps x onto alpha * e1 and acts on the later columns and the rhs
        x = cols[j, j:]
        x0 = x[0].copy()
        norm = np.sqrt(np.einsum("kn,kn->n", x, x))
        alpha = -np.copysign(norm, x0)
        scale = 1.0 / (norm * (norm + np.abs(x0)))  # 2 / |v|^2
        x[0] -= alpha
        rest = cols[j + 1:, j:]
        rest -= (scale * np.einsum("ckn,kn->cn", rest, x))[:, None, :] * x
        x[0] = alpha
    # now R[i, c] = cols[c, i] for i <= c; back substitution of
    # R [x, X] = [Q^T b, I]: x solves the scaled row, X = R^-1
    y = np.zeros((m, m + 1, n))
    y[:, 0] = cols[m, :m]
    y[:, 1:] = np.eye(m)[:, :, None]
    for i in range(m - 1, -1, -1):
        for c in range(i + 1, m):
            y[i] -= cols[c, i] * y[c]
        y[i] /= cols[i, i]
    kappa = np.sqrt(norm_a * np.einsum("icn,icn->n", y[:, 1:], y[:, 1:]))
    return np.ldexp(y[:, 0], -exponent), kappa


# ---------------------------------------------------------------------------
# frame statistics


@dataclass
class FrameStats:
    """Histogram report over frame consistency angles and displacements."""

    theta_deg: np.ndarray
    theta_counts: np.ndarray
    theta_edges: np.ndarray
    delta_counts: np.ndarray
    delta_edges: np.ndarray
    degenerate: int

    def to_tsv(self) -> str:
        lines = [f"# theta_deg\tbins={len(self.theta_counts)}\t"
                 f"range=[0,90]\tdegenerate={self.degenerate}",
                 "lo\thi\tcount"]
        for i, count in enumerate(self.theta_counts):
            lines.append(f"{self.theta_edges[i]:.6g}\t{self.theta_edges[i + 1]:.6g}\t{count}")
        lines.append("")
        lines.append(f"# delta\tbins={len(self.delta_counts)}\t"
                     f"range=[{self.delta_edges[0]:.6g},{self.delta_edges[-1]:.6g}]")
        lines.append("lo\thi\tcount")
        for i, count in enumerate(self.delta_counts):
            lines.append(f"{self.delta_edges[i]:.6g}\t{self.delta_edges[i + 1]:.6g}\t{count}")
        return "\n".join(lines) + "\n"


def frame_stats(frames, deltas) -> FrameStats:
    """Angle-vs-cross-product and displacement histograms.

    `frames` is (N, 3, 3) with columns (t1, t2, t3).  theta is the
    unoriented angle between t3 and t1 x t2 in degrees, in [0, 90]:
    atan2(|a x b|, |a . b|) of the two unit vectors a and b, which resolves
    angles far below arccos's smallest step above 0 (8.5e-7 degrees).
    Frames with zero-length t3 or t1 x t2 land in a degenerate bucket.
    The delta histogram uses 50 bins over the data range.
    """
    frames = np.asarray(frames, dtype=np.float64).reshape(-1, 3, 3)
    t1, t2, t3 = frames[:, :, 0], frames[:, :, 1], frames[:, :, 2]
    cross = np.cross(t1, t2)
    n3 = np.sqrt(_vector_dot(t3, t3))
    nc = np.sqrt(_vector_dot(cross, cross))
    valid = (n3 > 0.0) & (nc > 0.0)
    a = t3[valid] / n3[valid, None]
    b = cross[valid] / nc[valid, None]
    normal = np.cross(a, b)
    theta_deg = np.degrees(np.arctan2(np.sqrt(_vector_dot(normal, normal)),
                                      np.abs(_vector_dot(a, b))))
    degenerate = int(np.count_nonzero(~valid))
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
