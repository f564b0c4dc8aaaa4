"""Spatial sampling and patching.

Farthest point sampling, k-nearest neighbors and the two-way nearest-point
pairing of two clouds with exact brute-force semantics (distance ties
broken by ascending index), Poisson-disk sampling of triangle meshes by
sample elimination, patch extraction/normalization and patch fusion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import GeometryError
from .geometry import _face_cross, _unit_rows
from .io import PointCloud, TriangleMesh, vertex_normals


def _as_points(cloud) -> np.ndarray:
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=np.float64)
    return pts.reshape(-1, 3)


# ---------------------------------------------------------------------------
# farthest point sampling


_FPS_ROUND_CAP = 64  # most picks one round of farthest_point_sample tries
_FPS_POOL = 256  # points farthest_point_sample ranks each round, refilled from all N
_FPS_LEAFSIZE = 64  # points per leaf of its kd-tree; no ball depends on the tree's layout
_UPPER = np.triu(np.ones((_FPS_ROUND_CAP, _FPS_ROUND_CAP), dtype=bool), 1)  # [i, j]: i before j


def _norms(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm(d, axis=-1), bitwise: the expression it reduces to."""
    return np.sqrt(np.add.reduce(d * d, axis=-1))


def farthest_point_sample(cloud, count: int, seed_index: int = 0) -> np.ndarray:
    """Greedy max-min subset selection starting at seed_index.

    Each subsequent pick maximizes the distance to the nearest already
    selected point (its key); ties go to the smallest index (argmax returns
    the first maximum).  Once every point is within distance 0 of a selected
    one, argmax of the all-zero distances is index 0, so the rest of the
    output repeats index 0.

    The picks come in two phases.  The opening makes the first
    _FPS_ROUND_CAP picks, the seed included, one full O(N) scan each.  The
    rest come in rounds, with no Python loop per pick.  A round ranks the
    top points by key (distance, then lowest index) and walks that list in
    order.  An entry is blocked if an earlier entry lies within its key
    distance.  An unblocked entry is picked; a blocked one all of whose
    blockers are unblocked is skipped, and its key after the round's picks
    is the smallest distance to a blocker.  The round ends at the first
    entry that a blocked entry blocks, whose key is 0, or whose key is no
    larger than a skipped entry's lowered key above it.  The picks are those
    of the one-at-a-time loop, in order: an unblocked entry keeps its key
    through the round's earlier picks; every blocker of a skipped entry is
    picked before any later entry, so the skipped entry's key is then
    exactly its lowered key, which the end test keeps below each later
    pick's key; and every point after an entry ranks below it.

    The top points are ranked among a pool of the _FPS_POOL largest keys,
    which every point outside it stays below; the pool is refilled from all
    N points once one of its points has fallen below that bound.  A pick can
    only lower the key of points within its own key distance, so only those
    are updated, found through a kd-tree at that radius inflated by 1e-9
    relative.  The distances are the ones a full O(N) update computes, so
    the picks are exactly those of the full scan.  A call with count <=
    _FPS_ROUND_CAP builds no tree.
    """
    pts = _as_points(cloud)
    n = len(pts)
    if not 1 <= count <= n:
        raise ValueError(f"requested {count} samples from {n} points")
    if not 0 <= seed_index < n:
        raise ValueError(f"seed index {seed_index} out of range for {n} points")
    coords = np.ascontiguousarray(pts.T)  # (3, N): elementwise work runs along N, not along 3
    selected = np.empty(count, dtype=np.int64)
    nxt = seed_index
    min_dist = np.full(n, np.inf)
    for done in range(min(count, _FPS_ROUND_CAP)):
        if min_dist[nxt] == 0.0:
            selected[done:] = nxt  # index 0: every key is 0 and no pick moves one
            return selected
        selected[done] = nxt
        np.minimum(min_dist, _norms((coords - coords[:, nxt, None]).T), out=min_dist)
        nxt = int(min_dist.argmax())
    if count <= _FPS_ROUND_CAP:
        return selected
    tree = cKDTree(pts, leafsize=_FPS_LEAFSIZE, balanced_tree=False)
    pool, floor, last = _fps_pool(min_dist)
    done, want = _FPS_ROUND_CAP, 4
    while done < count:
        want = min(want, count - done)
        top, keys = _top_keys(min_dist, pool, want)
        # points that fell out of the pool sort last; refill once the top holds one
        if keys[-1] < floor or (keys[-1] == floor and top[-1] > last):
            pool, floor, last = _fps_pool(min_dist)
            top, keys = _top_keys(min_dist, pool, want)
        if keys[0] == 0.0:
            selected[done:] = top[0]  # index 0: every key is 0 and no pick moves one
            break
        near = coords.take(top, axis=1)
        pair = _norms((near[:, :, None] - near[:, None, :]).transpose(1, 2, 0))
        blocks = (pair <= keys) & _UPPER[:want, :want]  # [i, j]: i may lower j's key
        blocked = blocks.any(axis=0)
        lowered = np.where(blocks, pair, np.inf).min(axis=0)
        above = np.maximum.accumulate(np.where(blocked, lowered, -np.inf))
        ends = (blocks & blocked[:, None]).any(axis=0) | (keys == 0.0)
        ends[1:] |= keys[1:] <= above[:-1]
        end = int(ends.argmax()) if ends.any() else want
        picked = np.flatnonzero(~blocked[:end])
        accepted, take = top[picked], len(picked)
        selected[done:done + take] = accepted
        done += take
        radii = np.nextafter(keys[picked] * (1.0 + 1e-9), np.inf)
        balls = tree.query_ball_point(pts[accepted], radii, return_sorted=False)
        sizes = np.fromiter(map(len, balls), dtype=np.intp, count=take)
        cand = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp,
                           count=int(sizes.sum()))
        diff = coords.take(cand, axis=1) - coords.take(accepted.repeat(sizes), axis=1)
        np.minimum.at(min_dist, cand, _norms(diff.T))
        want = min(max(2 * end, 4), _FPS_ROUND_CAP)
    return selected


def _top_keys(min_dist: np.ndarray, pool: np.ndarray,
              want: int) -> tuple[np.ndarray, np.ndarray]:
    """The want pool entries of largest min_dist, lowest index first among ties, and their keys."""
    keys = min_dist[pool]
    order = (-keys).argsort(kind="stable")[:want]
    return pool[order], keys[order]


def _fps_pool(min_dist: np.ndarray) -> tuple[np.ndarray, float, int]:
    """The _FPS_POOL top-ranked indices, in index order, and the last-ranked key and index.

    A point stays ranked above every point outside the pool while its key
    is above that key, or equal to it at an index no larger.
    """
    n = len(min_dist)
    k = min(_FPS_POOL, n)
    floor = np.partition(min_dist, n - k)[n - k]
    inside = min_dist > floor
    tied = np.flatnonzero(min_dist == floor)[:k - np.count_nonzero(inside)]
    inside[tied] = True
    return np.flatnonzero(inside), floor, int(tied[-1])


# ---------------------------------------------------------------------------
# k nearest neighbors
#
# The spatial index is a scipy cKDTree (median splits with balanced_tree).
# Results match a brute-force scan exactly, tie rule included: each row's
# query widens past every point within rounding of its k-th distance, then
# sorts by (distance, index), distances recomputed as a brute-force scan does.


def _widening(tree, queries, width, reach):
    """Each query's nearest tree entries out past its reach, as batches (rows, dist, idx).

    Queries each row's `width` nearest entries and yields the rows whose last
    entry lies beyond their reach, or that already hold the whole tree; the
    other rows are queried again at 4x the width.  reach(dist) gives each
    row's reach from the first query's (Q, width) distances.
    """
    rows = np.arange(len(queries))
    limit = None
    while len(rows):
        width = min(width, tree.n)
        dist, idx = (a.reshape(len(rows), width) for a in tree.query(queries[rows], k=width))
        if limit is None:
            limit = reach(dist)
        done = (dist[:, -1] > limit) | (width == tree.n)
        yield rows[done], dist[done], idx[done]
        rows, limit = rows[~done], limit[~done]
        width *= 4


class NeighborIndex:
    """kNN queries against a fixed cloud with exact brute-force semantics."""

    def __init__(self, points):
        self.points = _as_points(points)
        if len(self.points) == 0:
            raise ValueError("empty point set")
        self.tree = cKDTree(self.points, balanced_tree=True)

    def knn_batch(self, queries, k: int) -> np.ndarray:
        """kNN for many queries at once; (Q, k) index array.

        Each row's tree query widens (_widening) from k+1 entries until its
        last lies beyond the k-th distance by more than rounding; the first k
        by recomputed (distance, index) are kept.
        """
        queries = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        n = len(self.points)
        if k > n:
            raise ValueError(f"k={k} exceeds point count {n}")
        out = np.empty((len(queries), k), dtype=np.int64)
        for rows, _, idx in _widening(self.tree, queries, k + 1,
                                      lambda dist: dist[:, k - 1] * (1.0 + 1e-12) + 1e-300):
            d = np.linalg.norm(self.points[idx] - queries[rows][:, None, :], axis=2)
            order = np.lexsort((idx, d), axis=1)[:, :k]
            out[rows] = np.take_along_axis(idx, order, axis=1)
        return out


def nearest_pairs(x, y) -> tuple[np.ndarray, np.ndarray]:
    """The nearest-point pairing of two clouds, in both directions.

    phi[i] is the row of y nearest x[i] and psi[j] the row of x nearest
    y[j], ties to the lowest index.  Chamfer, Hausdorff and the refined
    normal loss all read this one pairing.
    """
    x, y = _as_points(x), _as_points(y)
    return NeighborIndex(y).knn_batch(x, 1)[:, 0], NeighborIndex(x).knn_batch(y, 1)[:, 0]


# ---------------------------------------------------------------------------
# Poisson-disk sampling of a triangle mesh

_OVERSAMPLE = 4  # dart-thrown candidates per kept sample
_TIE_QUERY_K = 12  # first k of the tie check's tree query; it grows 4x from there


def _dart_throw(mesh: TriangleMesh, count: int, rng: np.random.Generator):
    """Area-weighted uniform surface samples with interpolated normals."""
    cross = _face_cross(mesh.vertices, mesh.triangles)  # exactly scaled: only area ratios are used
    areas = 0.5 * np.linalg.norm(cross, axis=1)
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
    # opposing vertex normals cancel; fall back to the face normal
    flat = np.linalg.norm(normals, axis=1) <= 1e-12
    normals[flat] = cross[tri_idx[flat]]
    return points, _unit_rows(normals)


def poisson_disk_sample(mesh: TriangleMesh, n: int, seed: int) -> PointCloud:
    """Exactly n blue-noise samples on the mesh surface.

    Dart-throws _OVERSAMPLE*n area-weighted candidates, then eliminates down
    to n by repeatedly removing the point whose nearest surviving neighbor
    is closest (ties to the lowest index): greedy sample elimination after
    Yuksel (2015).  Deterministic given seed; _eliminate removes many points
    per round, each against a kd-tree of the surviving candidates, and
    keeps exactly the set this one-at-a-time rule keeps.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    points, normals = _dart_throw(mesh, n * _OVERSAMPLE, rng)
    keep = _eliminate(points, n)
    return PointCloud(points[keep], normals[keep])


def _eliminate(points: np.ndarray, n: int) -> np.ndarray:
    """Ascending indices of the n candidates that survive; needs 1 <= n < len(points).

    A point's key is (distance to its nearest live neighbor, index), and
    one-at-a-time elimination removes the live point of smallest key.
    Keys only grow as points die, so removals come in increasing key
    order.  Each round removes, all at once, every live point i that
    passes two tests:

    - safe: every other live point within i's key distance has a larger
      key.  Then one of i's nearest neighbors outlives i, so i keeps its
      key until it is removed, and a point whose key i's death raises
      already has a larger key, so removing i early moves no other removal;
    - rank: fewer than R live points have a smaller key, R being the
      removals still needed.  Everything removed before a safe i has a
      smaller key now, so i is among the next R removals.

    The smallest key passes both, so every round removes something, and
    the kept set is bitwise the one-at-a-time one.  Each round queries a
    kd-tree of the live points only.  Rows whose nearest neighbor died
    take their two nearest other points from it; other rows keep a second
    distance from an earlier round, which deaths since can only have
    raised.  The safe test reads only i's nearest neighbor when the second
    is farther than the key distance; otherwise (equal distances,
    duplicates) it checks every live point within the key distance, which
    the tied rows' one widening tree query (_widening, from _TIE_QUERY_K
    entries) returns.  A kd-tree computes a pair's distance the same way
    whatever tree holds the pair, whatever k is and in either direction.
    """
    m = len(points)
    alive = np.ones(m, dtype=bool)
    dist, second = np.empty(m), np.empty(m)
    nearest = np.empty(m, dtype=np.intp)
    live, stale = np.arange(m), np.ones(m, dtype=bool)  # stale: live rows whose nearest died
    while True:
        tree = cKDTree(points[live], balanced_tree=False)
        rows = tree.indices[stale[tree.indices]]  # in leaf order: neighboring queries
        near_dist, near_idx = tree.query(tree.data[rows], k=3)
        # self is at most one of the three: the nearest other entry is column 1
        # if self is column 0, else 0; the second is column 2 if self is column
        # 0 or 1, else 1
        is_self = near_idx == rows[:, None]
        nearest_col = is_self[:, 0].astype(np.intp)
        second_col = 1 + (is_self[:, 0] | is_self[:, 1])
        at, r = live[rows], np.arange(len(rows))
        dist[at], second[at] = near_dist[r, nearest_col], near_dist[r, second_col]
        nearest[at] = live[near_idx[r, nearest_col]]
        doomed = _elimination_round(tree, live, dist, nearest, second, len(live) - n)
        alive[doomed] = False
        live = np.flatnonzero(alive)
        if len(live) == n:
            return live
        stale = ~alive[nearest[live]]


def _elimination_round(tree, live, dist, nearest, second, needed: int) -> np.ndarray:
    """The live points that pass the rank and safe tests of _eliminate."""
    pos = np.argsort(dist[live], kind="stable")[:needed]
    cand = live[pos]
    # the nearest neighbor's key distance is at most i's, so i's key is the
    # smaller only in a mutual nearest pair with i the lower index
    d = dist[cand]
    near = nearest[cand]
    safe = (dist[near] == d) & (cand < near)
    pos, cand, d = pos[safe], cand[safe], d[safe]
    alone = second[cand] > d
    tied, key = pos[~alone], d[~alone]
    doomed = [cand[alone]]
    for rows, near_dist, near_pos in _widening(tree, tree.data[tied], _TIE_QUERY_K,
                                               lambda _: key):
        # safe unless another live point within the key distance has a smaller key
        p, r = tied[rows, None], key[rows, None]
        other = live[near_pos]
        other_key = dist[other]
        larger = (other_key > r) | ((other_key == r) & (other > live[p]))
        blocked = (near_dist <= r) & (near_pos != p) & ~larger
        doomed.append(live[tied[rows[~blocked.any(axis=1)]]])
    return np.concatenate(doomed)


# ---------------------------------------------------------------------------
# patches


@dataclass
class Patch:
    """A neighborhood of the parent cloud, centered and scaled to unit radius."""

    indices: np.ndarray
    points: np.ndarray
    centroid: np.ndarray
    scale: float
    seed: int  # the index cut around (indices[0] may be a lower-index duplicate of it)
    normals: np.ndarray | None = None


def _check_coverage(coverage: float) -> None:
    """ValueError naming the bad value unless 0 < coverage < inf."""
    if not 0 < coverage < math.inf:
        raise ValueError(f"coverage must be finite and > 0, got {coverage}")


def patch_count(m: int, patch_size: int, coverage: float) -> int:
    """ceil(coverage*m/patch_size), clamped to m before the ceil so no coverage overflows it.

    ValueError naming the bad value unless patch_size >= 1 and 0 < coverage < inf.
    """
    if patch_size < 1:
        raise ValueError(f"patch size must be >= 1, got {patch_size}")
    _check_coverage(coverage)
    return math.ceil(min(coverage * m / patch_size, m))


def extract_patches(cloud: PointCloud, patch_size: int, coverage: float = 3.0,
                    rng: np.random.Generator | None = None) -> list[Patch]:
    """Cover the cloud with `patch_count` kNN patches around their seeds.

    The seeds are picked by FPS from index 0, or, with `rng`, by
    rng.choice(M, count, replace=False).  Each patch is translated to zero
    mean and scaled to max radius 1.  Even at coverage >= 1 some point may
    land in no patch; `count_uncovered` counts them.
    """
    pts = cloud.points
    m = len(pts)
    count = patch_count(m, patch_size, coverage)
    if patch_size > m:
        raise ValueError(f"patch size {patch_size} exceeds cloud size {m}")
    if rng is None:
        seeds = farthest_point_sample(cloud, count)
    else:
        seeds = rng.choice(m, count, replace=False)
    neighborhoods = NeighborIndex(pts).knn_batch(pts[seeds], patch_size)
    return [_normalize_patch(cloud, idx, int(seed)) for idx, seed in zip(neighborhoods, seeds)]


def count_uncovered(patches: list[Patch], m: int) -> int:
    """How many of a cloud's m points lie in none of `patches`."""
    covered = np.zeros(m, dtype=bool)
    for patch in patches:
        covered[patch.indices] = True
    return m - int(covered.sum())


def _normalize_patch(cloud: PointCloud, indices: np.ndarray, seed: int) -> Patch:
    raw = cloud.points[indices]
    centroid = raw.mean(axis=0)
    centered = raw - centroid
    scale = float(np.linalg.norm(centered, axis=1).max())
    if scale == 0.0:
        scale = 1.0
    normals = cloud.normals[indices].copy() if cloud.normals is not None else None
    return Patch(indices=np.asarray(indices, dtype=np.int64), points=centered / scale,
                 centroid=centroid, scale=scale, seed=seed, normals=normals)


def denormalize(patch: Patch, points) -> np.ndarray:
    """Map patch-local coordinates back to the parent cloud's units."""
    return np.asarray(points, dtype=np.float64) * patch.scale + patch.centroid


# ---------------------------------------------------------------------------
# fusion


def fuse_patches(clouds: list[PointCloud], target_count: int) -> PointCloud:
    """Concatenate upsampled candidate clouds and FPS down to target_count.

    FPS (seeded at index 0) suppresses near-duplicates from overlapping
    candidates because a zero-distance duplicate is never picked before the
    distinct points are exhausted.  If fewer than target_count candidates
    are distinct, every one is kept and the rest of the output repeats
    candidate 0, the lowest index within distance 0 of a kept point.
    """
    points = np.concatenate([c.points for c in clouds], axis=0)
    if len(points) < target_count:
        raise ValueError(f"only {len(points)} points available for target {target_count}")
    have_normals = all(c.normals is not None for c in clouds)
    normals = np.concatenate([c.normals for c in clouds], axis=0) if have_normals else None
    keep = farthest_point_sample(points, target_count, seed_index=0)
    return PointCloud(points[keep], normals[keep] if normals is not None else None)
