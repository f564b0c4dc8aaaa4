"""The vectorized paths against their loop and full-scan references.

FPS must return bitwise the indices of the O(N * count) scan, Poisson
sample elimination the survivors of the loop that queries the tree once per
update, kNN those of a brute-force sort, the network's pruned feature kNN
those of a full stable sort of every distance row, gather's CSR gradient
bitwise that of np.add.at, the one-node dense layer bitwise its matmul,
add and relu nodes, the one-node edge layer and refine input bitwise their
gather, difference, concat and dense nodes, reduce_max bitwise the
np.argmax version, the
point-to-surface distance bitwise the minimum
over every triangle, and its branch-free closest-point kernel bitwise the
one that fills one region at a time.  The batched frame/curvature
kernel must agree with the per-point loop within 1e-9: its least-squares
solves use a batched Householder QR instead of LAPACK gelsd, so the last
digits may differ; the QR must decide ranks and degenerate fits as the
stacked SVD does.  The ``.xyz``, OBJ and PLY readers must return bitwise the arrays
of the per-record parse loops, or raise the same FormatError, and the
block ``.xyz`` writer must write bitwise the bytes of the per-row one.
"""

import itertools
import pathlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

import pugeo.autodiff as ad
import reference
from helpers import (brute_force_knn, cube_mesh, icosphere, ply_face_flags, sphere_cloud,
                     unit_rows)
from pugeo import (PointCloud, PUGeoConfig, PUGeoNet, TriangleMesh,
                   farthest_point_sample, metrics, poisson_disk_sample, sampling,
                   upsample_analytic)
from pugeo import io as pugeo_io
from pugeo.errors import FormatError, ShapeError
from pugeo.geometry import _lstsq_rows, estimate_frames, fit_curvatures, frame_stats
from pugeo.metrics import point_to_mesh_distances
from pugeo.model import _knn_candidates, _knn_indices
from pugeo.sampling import NeighborIndex

TOL = 1e-9


# ---------------------------------------------------------------------------
# farthest point sampling


def _gaussian(seed, n=700):
    return np.random.default_rng(seed).normal(size=(n, 3))


def _overlapping_copies(seed):
    # fusion input: overlapping patches repeat the same points exactly
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, size=(300, 3))
    copies = [base[rng.choice(300, 200, replace=False)] for _ in range(5)]
    return np.concatenate(copies)


def _lattice(side=9):
    axis = np.arange(side, dtype=np.float64)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)


def _line(n):
    points = np.zeros((n, 3))
    points[:, 0] = np.linspace(0.0, 1.0, n)
    return points


def _fewer_distinct_than_count():
    # 40 distinct points, each three times in shuffled order: a count of 100
    # runs out of distinct points after 40 picks
    rng = np.random.default_rng(5)
    base = rng.normal(size=(40, 3))
    return base[rng.permutation(np.repeat(np.arange(40), 3))]


def _fusion_candidates():
    # the upsample-analytic benchmark's fusion input: 500 sphere points, 12 candidates each
    return upsample_analytic(sphere_cloud(500, 1.0, 3), 12).points


FPS_CASES = [
    ("gaussian", _gaussian(0), 250, 0),
    ("gaussian_seed_index", _gaussian(1), 400, 123),
    ("overlapping_copies", _overlapping_copies(2), 300, 0),
    ("overlapping_copies_all", _overlapping_copies(3), 1000, 0),
    ("lattice_ties", _lattice(), 500, 0),
    ("lattice_all", _lattice(6), 216, 17),
    ("gaussian_all", _gaussian(4, 300), 300, 5),
    # past the 256-point ranking pool, a key falls to exactly the pool's
    # last-ranked key at an index above points left out with that key
    ("lattice_past_pool", _lattice(8), 512, 97),
    ("line_all", _line(300), 300, 0),
    ("count_past_distinct_points", _fewer_distinct_than_count(), 100, 7),
    ("fusion_6000_to_2000", _fusion_candidates(), 2000, 0),
]


@pytest.mark.parametrize("name,points,count,seed_index", FPS_CASES,
                         ids=[case[0] for case in FPS_CASES])
def test_fps_matches_full_scan(name, points, count, seed_index):
    fast = farthest_point_sample(points, count, seed_index)
    slow = reference.farthest_point_sample(points, count, seed_index)
    assert np.array_equal(fast, slow)


# small integer coordinates force duplicates, tied distances and degenerate triangles
COORDS = st.one_of(st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
                   st.integers(-2, 2).map(float))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fps_matches_full_scan_property(data):
    n = data.draw(st.integers(1, 80), label="n")
    points = data.draw(arrays(np.float64, (n, 3), elements=COORDS), label="points")
    count = data.draw(st.integers(1, n), label="count")
    seed_index = data.draw(st.integers(0, n - 1), label="seed_index")
    assert np.array_equal(farthest_point_sample(points, count, seed_index),
                          reference.farthest_point_sample(points, count, seed_index))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fps_matches_full_scan_on_clusters_property(data):
    # copies of a few base points, some jittered: duplicates, near-ties and
    # counts past the distinct points, with n past the ranking pool's size
    bases = data.draw(arrays(np.float64, (data.draw(st.integers(1, 6), label="bases"), 3),
                             elements=COORDS), label="base points")
    n = data.draw(st.integers(1, 600), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
    scale = data.draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0]), label="jitter")
    jitter = rng.normal(size=(n, 3)) * scale * (rng.random((n, 1)) < 0.7)
    points = bases[rng.integers(0, len(bases), n)] + jitter
    count = data.draw(st.integers(1, n), label="count")
    seed_index = data.draw(st.integers(0, n - 1), label="seed_index")
    assert np.array_equal(farthest_point_sample(points, count, seed_index),
                          reference.farthest_point_sample(points, count, seed_index))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fps_matches_full_scan_past_the_opening_property(data):
    # counts past the 64 full-scan picks run the rounds and refill the pool;
    # lattice and rounded cluster coordinates tie keys and skip blocked entries
    n = data.draw(st.integers(100, 600), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
    if data.draw(st.booleans(), label="lattice"):
        side = data.draw(st.integers(3, 9), label="side")
        points = rng.integers(0, side, size=(n, 3)).astype(np.float64)
    else:
        centers = rng.integers(-4, 5, size=(data.draw(st.integers(1, 8), label="clusters"), 3))
        spread = data.draw(st.sampled_from([0.05, 0.3, 1.0]), label="spread")
        points = np.round(centers[rng.integers(0, len(centers), n)]
                          + rng.normal(size=(n, 3)) * spread, 2)
    count = data.draw(st.integers(65, n), label="count")
    seed_index = data.draw(st.integers(0, n - 1), label="seed_index")
    assert np.array_equal(farthest_point_sample(points, count, seed_index),
                          reference.farthest_point_sample(points, count, seed_index))


@pytest.mark.parametrize("count", [63, 64, 65])
@pytest.mark.parametrize("points", [_gaussian(6), _lattice(5)], ids=["gaussian", "lattice"])
def test_fps_matches_full_scan_around_the_opening(points, count):
    # the last full-scan pick, and the first round after it
    assert np.array_equal(farthest_point_sample(points, count, 3),
                          reference.farthest_point_sample(points, count, 3))


def test_fps_past_the_distinct_points_repeats_index_zero():
    points = _fewer_distinct_than_count()
    picks = farthest_point_sample(points, len(points), seed_index=7)
    assert len(np.unique(points[picks[:40]], axis=0)) == 40
    assert np.all(picks[40:] == 0)


class _CountingTree(cKDTree):
    builds = ball_queries = 0

    def __init__(self, *args, **kwargs):
        type(self).builds += 1
        super().__init__(*args, **kwargs)

    def query_ball_point(self, *args, **kwargs):
        type(self).ball_queries += 1
        return super().query_ball_point(*args, **kwargs)


def test_fps_picks_many_points_per_ball_query(monkeypatch):
    # a fallback to one pick per loop iteration makes count - 1 queries
    monkeypatch.setattr(sampling, "cKDTree", _CountingTree)
    monkeypatch.setattr(_CountingTree, "ball_queries", 0)
    points = _fusion_candidates()
    picks = farthest_point_sample(points, 2000)
    assert np.array_equal(picks, reference.farthest_point_sample(points, 2000))
    assert _CountingTree.ball_queries < 2000 / 16


@pytest.mark.parametrize("count,builds", [(1, 0), (64, 0), (65, 1)])
def test_fps_opening_builds_no_tree(monkeypatch, count, builds):
    # the first 64 picks are full scans: no kd-tree, no ball query
    monkeypatch.setattr(sampling, "cKDTree", _CountingTree)
    monkeypatch.setattr(_CountingTree, "builds", 0)
    monkeypatch.setattr(_CountingTree, "ball_queries", 0)
    points = _gaussian(8)
    assert np.array_equal(farthest_point_sample(points, count),
                          reference.farthest_point_sample(points, count))
    assert (_CountingTree.builds, _CountingTree.ball_queries > 0) == (builds, builds > 0)


# ---------------------------------------------------------------------------
# Poisson sample elimination


def _duplicates_of_one_point(seed, copies=21):
    # more copies than the tie check's first query returns: it must grow k
    rng = np.random.default_rng(seed)
    return np.concatenate([np.zeros((copies, 3)), rng.uniform(-1.0, 1.0, size=(40, 3))])


ELIMINATION_CASES = [
    ("gaussian", _gaussian(5, 400), 100),
    ("gaussian_n1", _gaussian(6, 50), 1),
    ("gaussian_m_minus_1", _gaussian(7, 50), 49),
    ("overlapping_copies", _overlapping_copies(8), 250),
    ("overlapping_copies_m_minus_1", _overlapping_copies(9), 999),
    ("lattice_ties", _lattice(8), 128),
    ("lattice_n1", _lattice(4), 1),
    ("duplicates_of_one_point", _duplicates_of_one_point(10), 20),
    ("two_points", _gaussian(11, 2), 1),
]


@pytest.mark.parametrize("name,points,n", ELIMINATION_CASES,
                         ids=[case[0] for case in ELIMINATION_CASES])
def test_elimination_matches_query_per_update(name, points, n):
    keep = sampling._eliminate(points, n)
    assert len(keep) == n
    assert np.array_equal(keep, reference.poisson_eliminate(points, n))


def test_elimination_cases_cover_ties_and_swapped_self_columns():
    copies = _overlapping_copies(8)
    nearest = cKDTree(copies).query(copies, k=2)[1]
    assert np.any(nearest[:, 0] != np.arange(len(nearest)))
    lattice = _lattice(8)
    dist = cKDTree(lattice).query(lattice, k=3)[0]
    assert np.any(dist[:, 1] == dist[:, 2])


def test_elimination_row_fallback_is_exact(monkeypatch):
    """The tie check of a duplicate grows k past the refresh's 3; the survivors do not change."""
    calls = []

    class CountingTree(cKDTree):
        def query(self, x, k=1, **kwargs):
            calls.append(k)
            return super().query(x, k=k, **kwargs)

    monkeypatch.setattr(sampling, "cKDTree", CountingTree)
    points = _duplicates_of_one_point(12)
    keep = sampling._eliminate(points, 20)
    assert len({k for k in calls if k > 3}) >= 2  # a first tie query, then a wider one
    assert np.array_equal(keep, reference.poisson_eliminate(points, 20))


@pytest.mark.parametrize("mesh_name,n,seed", [("cube", 300, 0), ("icosphere", 500, 3)])
def test_poisson_sample_matches_query_per_update(mesh_name, n, seed):
    mesh = cube_mesh() if mesh_name == "cube" else icosphere(3)
    cloud = poisson_disk_sample(mesh, n, seed)
    points, normals = sampling._dart_throw(mesh, 4 * n, np.random.default_rng(seed))
    keep = reference.poisson_eliminate(points, n)
    assert np.array_equal(cloud.points, points[keep])
    assert np.array_equal(cloud.normals, normals[keep])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_elimination_matches_query_per_update_property(data):
    m = data.draw(st.integers(2, 120), label="m")
    points = data.draw(arrays(np.float64, (m, 3), elements=COORDS), label="points")
    n = data.draw(st.integers(1, m - 1), label="n")
    assert np.array_equal(sampling._eliminate(points, n),
                          reference.poisson_eliminate(points, n))


@pytest.mark.parametrize("width", [1, 2, 16])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_elimination_matches_query_per_update_on_grid_ties_property(width, data):
    """A 4x4x4 integer grid: many exact duplicates and equal distances.

    width is the tie check's first query k; 1 and 2 make it grow often.
    """
    m = data.draw(st.integers(2, 120), label="m")
    points = data.draw(arrays(np.float64, (m, 3), elements=st.integers(0, 3)), label="points")
    n = data.draw(st.integers(1, m - 1), label="n")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "_TIE_QUERY_K", width)
        keep = sampling._eliminate(points, n)
    assert np.array_equal(keep, reference.poisson_eliminate(points, n))


def test_elimination_round_count_stays_small(monkeypatch):
    """Rounds remove many points each: 8000 sphere candidates down to 2000."""
    rounds = []
    one_round = sampling._elimination_round

    def counting_round(*args):
        rounds.append(args[-1])
        return one_round(*args)

    monkeypatch.setattr(sampling, "_elimination_round", counting_round)
    points, _ = sampling._dart_throw(icosphere(3), 8000, np.random.default_rng(0))
    assert len(sampling._eliminate(points, 2000)) == 2000
    assert rounds[0] == 6000
    assert len(rounds) <= 32


def test_elimination_memory_stays_small():
    """8000 sphere candidates: a 16-wide neighbor table peaked near 13.7x the points."""
    points, _ = sampling._dart_throw(icosphere(3), 8000, np.random.default_rng(0))
    tracemalloc.start()
    try:
        sampling._eliminate(points, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * points.nbytes


# ---------------------------------------------------------------------------
# k nearest neighbors


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_knn_batch_matches_brute_force_property(data):
    n = data.draw(st.integers(1, 60), label="n")
    points = data.draw(arrays(np.float64, (n, 3), elements=COORDS), label="points")
    queries = data.draw(arrays(np.float64, (data.draw(st.integers(1, 20), label="m"), 3),
                               elements=COORDS), label="queries")
    k = data.draw(st.integers(1, n), label="k")
    batch = NeighborIndex(points).knn_batch(queries, k)
    for q, row in zip(queries, batch):
        assert np.array_equal(row, brute_force_knn(points, q, k))


KNN_CLOUDS = [
    ("poisson", lambda: poisson_disk_sample(icosphere(2), 1100, seed=4).points),
    ("gaussian", lambda: np.random.default_rng(5).normal(size=(1100, 3))),
    ("half_integer", lambda: np.random.default_rng(6).integers(-4, 5, size=(1100, 3)) / 2.0),
    ("triplicated", lambda: np.tile(np.random.default_rng(7).normal(size=(370, 3)), (3, 1))),
]


@pytest.mark.parametrize("k", [1, 16, 256, 1024])
@pytest.mark.parametrize("name,make", KNN_CLOUDS, ids=[c[0] for c in KNN_CLOUDS])
def test_knn_batch_at_patch_sizes_matches_brute_force(name, make, k):
    # patch extraction queries the cloud's own points at FPS seeds, all at once
    points = make()
    queries = points[farthest_point_sample(points, 12)]
    batch = NeighborIndex(points).knn_batch(queries, k)
    for q, row in zip(queries, batch):
        assert np.array_equal(row, brute_force_knn(points, q, k))


def test_knn_tie_wider_than_the_widened_query_is_exact(monkeypatch):
    """40 copies tie at the 3rd distance: the query widens past 4 * (k + 1) entries."""
    calls = []

    class CountingTree(cKDTree):
        def query(self, x, k=1, **kwargs):
            calls.append(k)
            return super().query(x, k=k, **kwargs)

    monkeypatch.setattr(sampling, "cKDTree", CountingTree)
    rng = np.random.default_rng(13)
    points = np.concatenate([rng.uniform(-1.0, 1.0, size=(30, 3)), np.full((40, 3), 0.25)])
    queries = np.concatenate([points[[0, 30, 69]], rng.uniform(-1.0, 1.0, size=(5, 3))])
    batch = NeighborIndex(points).knn_batch(queries, 3)
    assert len({k for k in calls if k > 4}) >= 2  # a first widening, then a wider one
    for q, row in zip(queries, batch):
        assert np.array_equal(row, brute_force_knn(points, q, 3))


# ---------------------------------------------------------------------------
# feature kNN inside the network


@pytest.fixture(scope="module")
def level_features():
    """The aligned input and each edge-conv output of the default network on a
    256-point icosphere patch: the values every kNN level of a forward sees."""
    verts = icosphere(3).vertices
    patch = verts[np.argsort(np.linalg.norm(verts - verts[0], axis=1), kind="stable")[:256]]
    net = PUGeoNet(PUGeoConfig(), seed=0)
    aligned, _ = net.stn_forward(ad.constant(patch.astype(np.float32)))
    return [aligned.data] + [level.data for level in net.extract_features(aligned)]


def _assert_knn_matches_full_sort(values, k):
    # inf - inf and nan rows warn in both; the indices are what is compared
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.array_equal(_knn_indices(values, k), reference.knn_indices(values, k))


@pytest.mark.parametrize("level", range(4), ids=["aligned", "edge0", "edge1", "edge2"])
def test_feature_knn_matches_full_sort_on_model_features(level_features, level):
    _assert_knn_matches_full_sort(level_features[level], PUGeoConfig().k)


def test_feature_knn_candidates_stay_near_k(level_features):
    # a bound gone loose would fall back to full rows and still be exact
    k = PUGeoConfig().k
    for values in level_features:
        off_diagonal = _knn_candidates(values, k).sum() - len(values)
        assert off_diagonal / len(values) <= 1.5 * k


def _gaussian_features(seed, n=200, w=32):
    return np.random.default_rng(seed).normal(size=(n, w)).astype(np.float32)


def _near_overflow():
    # a line of points whose squared norms are just over half the float64
    # maximum: two of them sum past it while twice their dot product does not
    top = np.sqrt(np.finfo(np.float64).max / 2)
    while top * top > np.finfo(np.float64).max / 2:
        top = np.nextafter(top, 0.0)
    line = np.stack([np.full(20, top), np.arange(-10, 10) * 1e146], axis=1)
    return np.concatenate([np.random.default_rng(5).normal(size=(40, 2)), line])


FEATURE_CASES = [
    ("half_integer_ties", lambda: (np.random.default_rng(0).integers(-4, 5, size=(200, 16))
                                   / 2.0).astype(np.float32)),
    ("duplicate_rows", lambda: np.tile(_gaussian_features(1, n=50), (4, 1))),
    ("far_from_origin", lambda: _gaussian_features(2) * np.float32(0.01) + np.float32(1e4)),
    ("float64", lambda: np.random.default_rng(3).normal(size=(200, 8))),
    ("float64_far_from_origin", lambda: np.random.default_rng(4).normal(size=(200, 8)) + 1e8),
    ("float64_near_overflow", lambda: _near_overflow()),
]


@pytest.mark.parametrize("name,make", FEATURE_CASES, ids=[c[0] for c in FEATURE_CASES])
@pytest.mark.parametrize("k", [1, 8, 49])
def test_feature_knn_matches_full_sort(name, make, k):
    _assert_knn_matches_full_sort(make(), k)


@pytest.mark.parametrize("scale", [1e-22, 1e19])
def test_feature_knn_matches_full_sort_at_extreme_scales(level_features, scale):
    # squares that underflow to subnormals and squares that overflow
    with np.errstate(over="ignore"):
        values = level_features[2] * np.float32(scale)
    _assert_knn_matches_full_sort(values, 8)


@pytest.mark.parametrize("bad", ["nan_row", "inf_entry"])
def test_feature_knn_non_finite_rows_take_the_full_sort(level_features, bad):
    values = level_features[1].copy()
    if bad == "nan_row":
        values[17] = np.nan
    else:
        values[17, 3] = np.inf
    assert _knn_candidates(values, 8)[17].all()
    _assert_knn_matches_full_sort(values, 8)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_feature_knn_matches_full_sort_property(data):
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    n = data.draw(st.integers(2, 24), label="n")
    w = data.draw(st.integers(1, 8), label="w")
    k = data.draw(st.integers(1, n - 1), label="k")
    scale = data.draw(st.sampled_from([1.0, 1e-22, 1e-40, 1e-300, 1e19, 1e150]), label="scale")
    # any float (nan, inf, subnormal, near the maximum) or scaled small
    # half-integers, which tie
    elements = st.one_of(st.floats(width=np.finfo(dtype).bits),
                         st.integers(-4, 4).map(lambda i: i * scale / 2))
    raw = data.draw(arrays(np.float64, (n, w), elements=elements), label="values")
    with np.errstate(over="ignore"):
        values = raw.astype(dtype)
    _assert_knn_matches_full_sort(values, k)


# ---------------------------------------------------------------------------
# the scatter-add gradient of gather

SCATTER_INDICES = {"repeated": [0, 0, 2, 2, 2], "unsorted": [3, 1, 4, 1, 0, 3],
                   "absent": [4, 4, 1], "empty": [], "negative": [-1, 0, -1],
                   "many_unsorted": np.random.default_rng(3).integers(0, 5, 300).tolist()}


def _gather_grad(gather, a, indices, axis, g):
    return gather(ad.Tensor(a, requires_grad=True), indices, axis=axis)._backward(g)[0]


@pytest.mark.parametrize("name", SCATTER_INDICES)
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gather_backward_matches_add_at(dtype, axis, name):
    rng = np.random.default_rng(13)
    a = rng.normal(size=(5, 6)).astype(dtype)
    indices = np.array(SCATTER_INDICES[name], dtype=np.int64)
    shape = (len(indices), 6) if axis == 0 else (5, len(indices))
    noisy = rng.normal(size=shape).astype(dtype)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0], dtype=dtype)[:noisy.size]
    noisy.flat[:len(specials)] = specials
    # reduce_sum's backward hands down a read-only zero-stride broadcast
    broadcast = np.broadcast_to(dtype(0.1), shape)
    for g in (noisy, broadcast):
        fast = _gather_grad(ad.gather, a, indices, axis, g)
        with np.errstate(invalid="ignore"):  # inf + -inf
            slow = _gather_grad(reference.gather, a, indices, axis, g)
        assert (fast.dtype, fast.shape) == (slow.dtype, slow.shape) == (a.dtype, a.shape)
        assert fast.tobytes() == slow.tobytes()


# ---------------------------------------------------------------------------
# the one-node dense layer's in-place relu and reduce_max's first-hit argmax


def _specials(dtype) -> np.ndarray:
    info = np.finfo(dtype)
    return np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, info.smallest_subnormal,
                     -info.smallest_subnormal, info.tiny, -info.tiny, info.max, -info.max,
                     1.0, -1.0, 1.0, 2.0, 2.0, -3.0], dtype=dtype)


def _op_bytes(op, a, g, **kwargs):
    """Forward and backward bytes of op on a, with upstream gradient g."""
    out = op(ad.Tensor(a, requires_grad=True), **kwargs)
    with np.errstate(invalid="ignore"):  # nan/inf upstream gradients
        grad = out._backward(g)[0]
    assert out.data.dtype == grad.dtype == a.dtype
    return out.data.shape, out.data.tobytes(), grad.shape, grad.tobytes()


def _dense_bytes(op, a, w, b, g, relu):
    """Output bytes and the bytes of the input, weight and bias gradients of a
    dense layer, through `backward`, with upstream gradient g."""
    leaves = [ad.Tensor(v, requires_grad=True) for v in (a, w, b)]
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf * 0, max + max
        out = op(*leaves, relu)
        grads = ad.backward(ad.reduce_sum(ad.mul(out, ad.constant(g))))
    assert out.data.dtype == a.dtype and all(grads[t].dtype == a.dtype for t in leaves)
    return [(t.shape, t.tobytes()) for t in [out.data] + [grads[t] for t in leaves]]


def _with_specials(rng, shape, dtype) -> np.ndarray:
    """Normal draws with as many of the specials as fit at random places."""
    values = rng.normal(size=shape).astype(dtype)
    count = min(len(_specials(dtype)), values.size)
    values.flat[rng.choice(values.size, count, replace=False)] = _specials(dtype)[:count]
    return values


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_matches_where_bitwise(dtype):
    rng = np.random.default_rng(21)
    # a product by a row of ones hands every special but -0.0 (BLAS sums from
    # +0.0) to the bias add, and adding -0.0 keeps them all for the relu
    pre = np.concatenate([_specials(dtype), rng.normal(size=46).astype(dtype)])[:, None]
    ones, minus_zero = np.ones((1, 8), dtype=dtype), np.full(8, -0.0, dtype=dtype)
    g = _with_specials(rng, (64, 8), dtype)
    for relu in (True, False):
        assert _dense_bytes(ad.dense, pre, ones, minus_zero, g, relu) == \
            _dense_bytes(reference.dense, pre, ones, minus_zero, g, relu)
    out = ad.dense(ad.Tensor(pre), ad.Tensor(ones), ad.Tensor(minus_zero), relu=True).data
    # +0.0 for every input <= 0 and for NaN; the input itself above 0
    pre = np.broadcast_to(pre, out.shape)
    zero = ~(pre > 0)
    assert not np.signbit(out[zero]).any() and (out[zero] == 0).all()
    assert out[~zero].tobytes() == pre[~zero].tobytes()
    # specials, -0.0 among them, in the input, the weight and the bias
    a, w, b = (_with_specials(rng, shape, dtype) for shape in ((9, 6), (6, 5), (5,)))
    g = _with_specials(rng, (9, 5), dtype)
    for relu in (True, False):
        assert _dense_bytes(ad.dense, a, w, b, g, relu) == \
            _dense_bytes(reference.dense, a, w, b, g, relu)


def test_relu_of_a_strided_view():
    a = np.arange(-12.0, 12.0, dtype=np.float32).reshape(4, 6)[:, ::2].T
    w = np.random.default_rng(23).normal(size=(4, 5)).astype(np.float32)
    b = np.linspace(-1.0, 1.0, 5, dtype=np.float32)
    g = np.ones((3, 5), dtype=np.float32)
    assert _dense_bytes(ad.dense, a, w, b, g, True) == \
        _dense_bytes(reference.dense, a, w, b, g, True)


def test_dense_bias_shape_error_names_shapes():
    a, w = ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeError, match=r"\(5,\).*\(2, 4\)"):
        ad.dense(a, w, ad.Tensor(np.zeros(5)), relu=True)
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 4\)"):
        ad.dense(a, ad.Tensor(np.zeros((4, 4))), ad.Tensor(np.zeros(4)), relu=False)


@pytest.mark.parametrize("keepdims", [False, True])
@pytest.mark.parametrize("axis", [0, 1, 2, -1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_reduce_max_matches_argmax_bitwise(dtype, axis, keepdims):
    rng = np.random.default_rng(22)
    # small integers tie often; the specials add +-0 ties, NaN, +-inf and subnormals
    a = rng.integers(-2, 3, size=(4, 5, 6)).astype(dtype)
    flat = a.reshape(-1)
    picks = rng.choice(flat.size, size=40, replace=False)
    flat[picks] = np.resize(_specials(dtype), 40)
    a[0, 0, :] = a[0, 1, :] = a[1, :, 0] = np.nan  # whole-NaN slices on each axis
    a[2, :, :] = -np.inf
    a[3, 1, :] = -0.0
    a[3, 2, :] = 0.0
    g = rng.normal(size=np.max(a, axis=axis, keepdims=keepdims).shape).astype(dtype)
    fast = _op_bytes(ad.reduce_max, a, g, axis=axis, keepdims=keepdims)
    assert fast == _op_bytes(reference.reduce_max, a, g, axis=axis, keepdims=keepdims)


def test_reduce_max_routes_ties_to_the_lowest_index():
    a = np.array([[-0.0, 0.0, 0.0], [3.0, np.nan, np.nan], [1.0, 5.0, 5.0],
                  [-np.inf, -np.inf, -np.inf]], dtype=np.float32)
    grad = ad.reduce_max(ad.Tensor(a, requires_grad=True), axis=1)._backward(
        np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32))[0]
    expected = np.zeros_like(a)
    expected[[0, 1, 2, 3], [0, 1, 1, 0]] = [1.0, 2.0, 3.0, 4.0]
    assert grad.tobytes() == expected.tobytes()


def test_reduce_max_over_a_long_axis():
    # 300 entries need a rank wider than uint8
    a = np.zeros((2, 300), dtype=np.float32)
    a[0, 299] = a[1, 256] = a[1, 280] = 1.0
    g = np.array([1.0, 2.0], dtype=np.float32)
    assert _op_bytes(ad.reduce_max, a, g, axis=1) == _op_bytes(reference.reduce_max, a, g, axis=1)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_relu_and_reduce_max_match_oracles_property(data):
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    elements = st.one_of(st.floats(width=np.finfo(dtype).bits),
                         st.integers(-2, 2).map(float),
                         st.sampled_from(_specials(dtype).tolist()))
    rows, k, p = (data.draw(st.integers(1, 5), label=name) for name in ("rows", "k", "p"))
    a, w, b, g = (data.draw(arrays(dtype, shape, elements=elements), label=name)
                  for name, shape in (("a", (rows, k)), ("w", (k, p)), ("b", (p,)),
                                      ("g", (rows, p))))
    relu = data.draw(st.booleans(), label="relu")
    assert _dense_bytes(ad.dense, a, w, b, g, relu) == \
        _dense_bytes(reference.dense, a, w, b, g, relu)
    shape = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3), label="shape")
    a = data.draw(arrays(dtype, tuple(shape), elements=elements), label="a_max")
    g = data.draw(arrays(dtype, tuple(shape), elements=elements), label="g_max")
    axis = data.draw(st.integers(-len(shape), len(shape) - 1), label="axis")
    keepdims = data.draw(st.booleans(), label="keepdims")
    g_max = np.max(g, axis=axis, keepdims=keepdims)
    assert _op_bytes(ad.reduce_max, a, g_max, axis=axis, keepdims=keepdims) == \
        _op_bytes(reference.reduce_max, a, g_max, axis=axis, keepdims=keepdims)


# ---------------------------------------------------------------------------
# the one-node edge layer and refine's one-node input


def _fused_bytes(build, leaves, g, h):
    """Output bytes and the bytes of every leaf's gradient, of a loss that
    takes the first leaf's own term (by h) before the output of build(leaf
    tensors) (by g), so the order in which the first leaf's gradients are
    added shows.

    Where two NaNs meet in a scatter sum, the CSR product keeps the first
    one's sign and np.add.at the last one's, so every NaN of a gradient
    reads as +NaN; -0.0 and every other value keep their bits.
    """
    tensors = [ad.Tensor(v, requires_grad=True) for v in leaves]
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf * 0, max + max
        out = build(*tensors)
        loss = ad.add(ad.reduce_sum(ad.mul(tensors[0], ad.constant(h))),
                      ad.reduce_sum(ad.mul(out, ad.constant(g))))
        grads = ad.backward(loss)
    assert out.data.dtype == leaves[0].dtype
    assert all(grads[t].dtype == t.dtype and grads[t].shape == t.shape for t in tensors)
    return [(out.shape, out.data.tobytes())] + [
        (t.shape, np.where(np.isnan(grads[t]), np.nan, grads[t]).astype(t.dtype).tobytes())
        for t in tensors]


def _edge_bytes(op, a, neighbors, w, b, g, h, relu):
    return _fused_bytes(lambda x, weight, bias: op(x, neighbors, weight, bias, relu),
                        (a, w, b), g, h)


def _edge_case(rng, n, k, width, p, dtype, specials):
    """(a, w, b, g, h) of an edge layer; neighbours are drawn separately."""
    draw = _with_specials if specials else (lambda r, shape, d: r.normal(size=shape).astype(d))
    return [draw(rng, shape, dtype)
            for shape in ((n, width), (2 * width, p), (p,), (n * k, p), (n, width))]


@pytest.mark.parametrize("specials", [False, True])
@pytest.mark.parametrize("n, k, width, p", [(1, 1, 3, 4), (6, 1, 2, 5), (9, 4, 3, 6),
                                            (16, 8, 5, 7)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_edge_dense_matches_the_unfused_layer_bitwise(dtype, n, k, width, p, specials):
    # repeated neighbours and a row's own index among them; the specials put
    # NaN, inf and -0.0 in the features, the weight, the bias and the gradient
    rng = np.random.default_rng(100 * n + k)
    neighbors = rng.integers(0, n, size=(n, k))
    neighbors[0] = 0
    a, w, b, g, h = _edge_case(rng, n, k, width, p, dtype, specials)
    for relu in (True, False):
        assert _edge_bytes(ad.edge_dense, a, neighbors, w, b, g, h, relu) == \
            _edge_bytes(reference.edge_dense, a, neighbors, w, b, g, h, relu)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_edge_dense_matches_the_unfused_layer_property(data):
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    elements = st.one_of(st.floats(width=np.finfo(dtype).bits),
                         st.integers(-2, 2).map(float),
                         st.sampled_from(_specials(dtype).tolist()))
    n, k, width, p = (data.draw(st.integers(1, 6), label=name)
                      for name in ("n", "k", "width", "p"))
    neighbors = data.draw(arrays(np.int64, (n, k), elements=st.integers(0, n - 1)),
                          label="neighbors")
    a, w, b, g, h = (data.draw(arrays(dtype, shape, elements=elements), label=name)
                     for name, shape in (("a", (n, width)), ("w", (2 * width, p)), ("b", (p,)),
                                         ("g", (n * k, p)), ("h", (n, width))))
    relu = data.draw(st.booleans(), label="relu")
    assert _edge_bytes(ad.edge_dense, a, neighbors, w, b, g, h, relu) == \
        _edge_bytes(reference.edge_dense, a, neighbors, w, b, g, h, relu)


@pytest.mark.parametrize("specials", [False, True])
@pytest.mark.parametrize("n, r, p, q", [(1, 1, 3, 2), (5, 1, 3, 4), (7, 4, 3, 6), (12, 16, 2, 5)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_concat_repeat_matches_the_concat_of_a_gather_bitwise(dtype, n, r, p, q, specials):
    rng = np.random.default_rng(10 * n + r)
    draw = _with_specials if specials else (lambda r_, shape, d: r_.normal(size=shape).astype(d))
    a, b, g, h = (draw(rng, shape, dtype)
                  for shape in ((n * r, p), (n, q), (n * r, p + q), (n * r, p)))
    assert _fused_bytes(lambda x, y: ad.concat_repeat(x, y, r), (a, b), g, h) == \
        _fused_bytes(lambda x, y: reference.concat_repeat(x, y, r), (a, b), g, h)
    # b's gradient sums from +0.0, as the scatter into zeros does
    zeros = np.full((n * r, p + q), -0.0, dtype=dtype)
    out = ad.concat_repeat(ad.Tensor(a), ad.Tensor(b, requires_grad=True), r)
    assert not np.signbit(out._backward(zeros)[1]).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_element_output_keeps_the_products_nan(dtype):
    # numpy's in-place add of one element keeps the second operand's NaN
    # where both are NaN; `add` keeps the first, the product's
    nan = np.array([np.nan], dtype=dtype)
    a, g = np.zeros((1, 2), dtype=dtype), np.ones((1, 1), dtype=dtype)
    for w_nan, b_nan in ((nan, -nan), (-nan, nan)):
        w = np.concatenate([np.zeros(3, dtype=dtype), w_nan])[:, None]
        for relu in (True, False):
            assert _dense_bytes(ad.dense, a[:, :1].repeat(4, 1), w, b_nan, g, relu) == \
                _dense_bytes(reference.dense, a[:, :1].repeat(4, 1), w, b_nan, g, relu)
            assert _edge_bytes(ad.edge_dense, a, [[0]], w, b_nan, g, a, relu) == \
                _edge_bytes(reference.edge_dense, a, [[0]], w, b_nan, g, a, relu)


def test_edge_dense_rejects_mismatched_shapes():
    a, w, b = ad.Tensor(np.zeros((4, 3))), ad.Tensor(np.zeros((6, 2))), ad.Tensor(np.zeros(2))
    with pytest.raises(ShapeError, match=r"\(4, 3\), neighbours \(3, 2\) and weight \(6, 2\)"):
        ad.edge_dense(a, np.zeros((3, 2), dtype=np.int64), w, b, relu=True)
    with pytest.raises(ShapeError, match=r"\(4, 3\), neighbours \(4, 2\) and weight \(3, 2\)"):
        ad.edge_dense(a, np.zeros((4, 2), dtype=np.int64), ad.Tensor(np.zeros((3, 2))), b, True)
    with pytest.raises(ShapeError, match=r"bias shape \(5,\) does not fit output \(8, 2\)"):
        ad.edge_dense(a, np.zeros((4, 2), dtype=np.int64), w, ad.Tensor(np.zeros(5)), True)


# ---------------------------------------------------------------------------
# point-to-surface distance


def _assert_p2f_matches_scan(queries, mesh) -> np.ndarray:
    fast = point_to_mesh_distances(queries, mesh)
    slow = np.array([reference.brute_force_mesh_distance(q, mesh) for q in queries])
    assert np.all(np.isfinite(fast))
    assert np.array_equal(fast, slow)
    return fast


def _counting_pairs(monkeypatch) -> list:
    """Record the number of (point, triangle) pairs of each evaluation."""
    sizes = []
    exact = metrics.point_to_triangles

    def counting(p, a, b, c):
        sizes.append(len(a))
        return exact(p, a, b, c)

    monkeypatch.setattr(metrics, "point_to_triangles", counting)
    return sizes


def test_p2f_queries_on_vertices_and_edges():
    mesh = icosphere(1)
    v, t = mesh.vertices, mesh.triangles
    edges = [(t[:, 0], t[:, 1]), (t[:, 1], t[:, 2]), (t[:, 2], t[:, 0])]
    on_edges = [v[i] + s * (v[j] - v[i]) for i, j in edges for s in (0.5, 1.0 / 3.0, 0.9)]
    fast = _assert_p2f_matches_scan(np.concatenate([v, *on_edges]), mesh)
    assert np.all(fast[:len(v)] == 0.0)
    assert np.all(fast < 1e-15)


def test_p2f_zero_area_slivers():
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 0],
                      [1, 1, 0], [0.5, 0.5, 0], [1, 1, 0], [1, 1, 0]], float)
    tris = np.array([[0, 1, 2],   # collinear
                     [0, 3, 4],   # two corners at the same position
                     [0, 4, 3],   # the same, as a zero-length edge AB
                     [5, 7, 8],   # all three corners at one position
                     [1, 5, 6],   # collinear, through the square's diagonal
                     [0, 1, 3]])  # the one triangle with area
    mesh = TriangleMesh(verts, tris)
    rng = np.random.default_rng(1)
    queries = np.concatenate([rng.normal(size=(300, 3)), verts,
                              0.5 * (verts[tris[:, 0]] + verts[tris[:, 1]]),
                              rng.uniform(0.0, 2.0, size=(100, 3)) * [1, 1, 0]])
    _assert_p2f_matches_scan(queries, mesh)


def test_p2f_unreferenced_vertex_does_not_lower_the_bound():
    # a vertex no triangle uses sits right next to the query; bounding by it
    # would prune the only triangle and leave no candidate at all
    verts = np.array([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0], [0, 0, 5.01]])
    mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
    fast = _assert_p2f_matches_scan(np.array([[0.0, 0.0, 5.0], [0.02, 0.03, 5.005]]), mesh)
    assert fast[0] == 5.0


def _grid_with_large_triangle(side=30):
    axis = np.linspace(0.0, 1.0, side + 1)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    verts = np.column_stack([grid, np.zeros(len(grid))])
    i, j = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    corner = (i * (side + 1) + j).ravel()
    small = np.concatenate([np.stack([corner, corner + side + 1, corner + 1], axis=1),
                            np.stack([corner + 1, corner + side + 1, corner + side + 2],
                                     axis=1)])
    large = np.array([[-50.0, -50.0, -1.0], [60.0, -50.0, -1.0], [0.0, 60.0, -1.0]])
    verts = np.concatenate([verts, large])
    big = np.arange(len(verts) - 3, len(verts))[None]
    return TriangleMesh(verts, np.concatenate([small, big]))


def test_p2f_large_triangle_keeps_candidates_local(monkeypatch):
    mesh = _grid_with_large_triangle()
    rng = np.random.default_rng(2)
    near_grid = rng.uniform([0, 0, -0.05], [1, 1, 0.05], size=(300, 3))
    sizes = _counting_pairs(monkeypatch)
    point_to_mesh_distances(near_grid, mesh)
    monkeypatch.undo()
    # searching every triangle at the large one's radius would pair each
    # query with all 1801 triangles; its own radius bucket keeps that to one
    assert sum(sizes) < 20 * len(near_grid)
    # above the grid a small triangle is closest, just above the large one it is
    above_large = rng.uniform([0, 0, -0.99], [1, 1, -0.9], size=(50, 3))
    queries = np.concatenate([near_grid, rng.uniform([0, 0, -0.2], [1, 1, 0.2], size=(100, 3)),
                              above_large])
    fast = _assert_p2f_matches_scan(queries, mesh)
    assert np.all(fast[-50:] < 0.1)
    # bounding by the nearest vertex, 0.9 away on the grid, kept every grid
    # triangle within it (about 210 pairs per query); the large triangle's
    # own distance bounds these queries to it and the grid's underside
    sizes = _counting_pairs(monkeypatch)
    point_to_mesh_distances(above_large, mesh)
    assert sum(sizes) < 10 * len(above_large)


def _recording_queries(monkeypatch) -> list:
    """Record (rows, first rank, last rank) of each nearest-centroid query."""
    queries = []

    class RecordingTree(cKDTree):
        def query(self, x, k=1, **kwargs):
            ranks = np.atleast_1d(k)
            queries.append((len(x), int(ranks[0]), int(ranks[-1])))
            return super().query(x, k, **kwargs)

    monkeypatch.setattr(metrics, "cKDTree", RecordingTree)
    return queries


def test_p2f_pair_budget_chunks_are_exact(monkeypatch):
    mesh = icosphere(2)
    queries = np.random.default_rng(3).normal(size=(200, 3))
    whole = _assert_p2f_matches_scan(queries, mesh)
    monkeypatch.setattr(metrics, "_PAIR_BUDGET", 20)
    sizes = _counting_pairs(monkeypatch)
    tree_queries = _recording_queries(monkeypatch)
    assert np.array_equal(point_to_mesh_distances(queries, mesh), whole)
    assert len(sizes) > 10 and max(sizes) < len(mesh.triangles)
    # points near the centre reach every triangle, so ranks go past the budget
    # while no query returns more than 20 (point, centroid) entries
    assert max(last for _, _, last in tree_queries) > 20
    assert max(rows * (last - first + 1) for rows, first, last in tree_queries) <= 20


@pytest.mark.parametrize("first_k", [1, 2])
def test_p2f_queries_again_past_the_first_ranks(monkeypatch, first_k):
    monkeypatch.setattr(metrics, "_FIRST_K", first_k)
    rng = np.random.default_rng(4)
    fine = icosphere(3)
    far_off = unit_rows(rng.normal(size=(60, 3))) * rng.uniform(1.5, 4.0, size=(60, 1))
    tree_queries = _recording_queries(monkeypatch)
    _assert_p2f_matches_scan(np.concatenate([far_off, rng.normal(scale=0.05, size=(20, 3))]),
                             fine)
    assert max(first for _, first, _ in tree_queries) > 1
    assert max(last for _, _, last in tree_queries) == len(fine.triangles)
    grid = _grid_with_large_triangle()
    _assert_p2f_matches_scan(np.concatenate([rng.uniform([0, 0, -0.2], [1, 1, 0.2], (100, 3)),
                                             rng.uniform([0, 0, -0.99], [1, 1, -0.9], (50, 3)),
                                             rng.uniform([-3, -3, 1], [4, 4, 3], (30, 3))]),
                             grid)


def _tied_centroid_mesh(rng) -> TriangleMesh:
    """30 small triangles whose centroids are the integer points 5 from the origin."""
    centres = {tuple(s * v for s, v in zip(signs, perm))
               for base in ((5, 0, 0), (3, 4, 0)) for perm in itertools.permutations(base)
               for signs in itertools.product((1, -1), repeat=3)}
    steps = [d for d in itertools.product((-1, 0, 1), repeat=3) if any(d)]
    verts = []
    for centre in sorted(centres):
        while True:  # integer corners that sum to 3 * centre, so the centroid is exact
            d1, d2 = (np.array(steps[i]) for i in rng.choice(len(steps), 2, replace=False))
            d3 = -(d1 + d2)
            if np.abs(d3).max() <= 1 and d3.any():
                break
        verts += [np.add(centre, d) for d in (d1, d2, d3)]
    triangles = np.arange(3 * len(centres)).reshape(-1, 3)
    return TriangleMesh(np.array(verts, float), triangles[rng.permutation(len(centres))])


@pytest.mark.parametrize("first_k", [1, 2])
def test_p2f_tied_centroids_across_query_pages(monkeypatch, first_k):
    # from an integer point many centroids are at one distance, and a longer
    # query may rank them in another order than the shorter one before it
    monkeypatch.setattr(metrics, "_FIRST_K", first_k)
    queries = np.array(list(itertools.product(range(-2, 3), repeat=3)), float)
    for seed in range(5):
        _assert_p2f_matches_scan(queries, _tied_centroid_mesh(np.random.default_rng(seed)))


def test_p2f_pairs_per_point_on_an_eval_sized_input(monkeypatch):
    # 2000 points within about 0.002 of the icosphere fixture: one pair per
    # point bounds it and about two more are candidates.  Evaluating the
    # nearest centroid's triangle again as a candidate made it 3.97
    mesh = pugeo_io.read_mesh(FIXTURES / "icosphere.obj")
    sample = poisson_disk_sample(mesh, 2000, 5)
    offset = np.random.default_rng(5).normal(scale=0.002, size=(2000, 1))
    sizes = _counting_pairs(monkeypatch)
    point_to_mesh_distances(sample.points + offset * sample.normals, mesh)
    assert sum(sizes) <= 3.0 * 2000


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_p2f_matches_full_scan_property(data):
    n = data.draw(st.integers(3, 25), label="n")
    verts = data.draw(arrays(np.float64, (n, 3), elements=COORDS), label="vertices")
    tris = data.draw(st.lists(st.permutations(range(n)).map(lambda p: p[:3]),
                              min_size=1, max_size=30), label="triangles")
    queries = data.draw(arrays(np.float64, (data.draw(st.integers(1, 30), label="m"), 3),
                               elements=COORDS), label="queries")
    _assert_p2f_matches_scan(queries, TriangleMesh(verts, np.array(tris)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_p2f_is_unchanged_by_permutations_property(data):
    # a new triangle order rebuilds the centroid trees, and with it the order
    # in which they return centroids at tied distances
    n = data.draw(st.integers(3, 25), label="n")
    verts = data.draw(arrays(np.float64, (n, 3), elements=COORDS), label="vertices")
    tris = np.array(data.draw(st.lists(st.permutations(range(n)).map(lambda p: p[:3]),
                                       min_size=1, max_size=30), label="triangles"))
    queries = data.draw(arrays(np.float64, (data.draw(st.integers(1, 30), label="m"), 3),
                               elements=COORDS), label="queries")
    triangle_order = np.array(data.draw(st.permutations(range(len(tris))), label="tri order"))
    query_order = np.array(data.draw(st.permutations(range(len(queries))), label="q order"))
    first_k = data.draw(st.sampled_from([1, 2, metrics._FIRST_K]), label="first k")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_FIRST_K", first_k)
        whole = _assert_p2f_matches_scan(queries, TriangleMesh(verts, tris))
        shuffled = TriangleMesh(verts, tris[triangle_order])
        assert point_to_mesh_distances(queries, shuffled).tobytes() == whole.tobytes()
        moved = point_to_mesh_distances(queries[query_order], TriangleMesh(verts, tris))
        assert moved.tobytes() == whole[query_order].tobytes()


_TRIANGLE_SHAPES = ("any", "b=a", "c=a", "c=b", "one point", "collinear")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_point_to_triangles_matches_masked_oracle_property(data):
    # the branch-free kernel against the one that fills one region at a time,
    # on triangles with repeated corners and on collinear ones
    n = data.draw(st.integers(1, 12), label="rows")
    p, a, b, c = data.draw(arrays(np.float64, (4, n, 3), elements=COORDS), label="corners")
    for row, shape in enumerate(data.draw(st.lists(st.sampled_from(_TRIANGLE_SHAPES),
                                                   min_size=n, max_size=n), label="shapes")):
        if shape == "b=a" or shape == "one point":
            b[row] = a[row]
        if shape == "c=a" or shape == "one point":
            c[row] = a[row]
        if shape == "c=b":
            c[row] = b[row]
        if shape == "collinear":
            c[row] = a[row] + data.draw(st.sampled_from([-1.0, 0.5, 2.0]), label="s") * (
                b[row] - a[row])
    if data.draw(st.booleans(), label="one query point"):
        p = p[0]
    with np.errstate(divide="raise", over="raise", invalid="raise"):  # unused 0 / 0 is silent
        fast = metrics.point_to_triangles(p, a, b, c)
    with np.errstate(all="ignore"):
        slow = reference.point_to_triangles(p, a, b, c)
    assert fast.tobytes() == slow.tobytes()


# ---------------------------------------------------------------------------
# frame / curvature kernel and analytic upsampling


def _plane(seed=0):
    rng = np.random.default_rng(seed)
    g = np.stack(np.meshgrid(np.linspace(0, 1, 14), np.linspace(0, 1, 14)), -1).reshape(-1, 2)
    g = g + rng.uniform(-0.01, 0.01, g.shape)
    tilt = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    return np.column_stack([g, np.zeros(len(g))]) @ tilt.T + 0.3


def _cylinder(seed=1):
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0, 2 * np.pi, 400)
    z = rng.uniform(-0.5, 0.5, 400)
    return np.column_stack([0.4 * np.cos(phi), 0.4 * np.sin(phi), z])


def _random(seed=2):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(300, 3))


def _cross(jitter=0.0):
    # arms along x and y: collinear frames on the arms, rank-deficient fits
    # (the u*v column vanishes) where the arms meet; an in-plane jitter of
    # 1e-9 keeps those fits at full rank but past the condition limit
    t = np.linspace(-1.0, 1.0, 41)
    zero = np.zeros_like(t)
    arms = np.concatenate([np.column_stack([t, zero, zero]),
                           np.column_stack([zero[t != 0], t[t != 0], zero[t != 0]])])
    return arms + np.random.default_rng(0).normal(scale=jitter, size=arms.shape) * [1, 1, 0]


def _duplicates():
    # every point four times: each 16-neighborhood holds 4 distinct points,
    # so the jet fit has rank 4 and the local radius is zero
    return np.repeat(sphere_cloud(60, 1.0, seed=4).points, 4, axis=0)


KERNEL_CLOUDS = {
    "plane": _plane(),
    "sphere": sphere_cloud(400, 1.0, seed=3).points,
    "cylinder": _cylinder(),
    "random": _random(),
    "cross": _cross(),
    "cross_jittered": _cross(1e-9),
    "duplicates": _duplicates(),
}


def _kernel_curvatures(points, k):
    neighborhoods = points[NeighborIndex(points).knn_batch(points, k)]
    frames, collinear = estimate_frames(neighborhoods, points)
    curvatures, _, flat = fit_curvatures(neighborhoods, points, frames)
    curvatures[collinear | flat] = 0.0
    return curvatures


def _assert_matches_reference(points, fast, slow, factor, k):
    """Agreement within TOL, except where the reference itself is arbitrary.

    Flat or umbilic rows have no principal directions: their sample disk
    may turn within the tangent plane, so only distances compare there.
    Rows whose neighborhood centroid lies in the tangent plane have no
    concave side: t3 is oriented by rounding noise, so normals compare up
    to sign and displacements by magnitude.
    """
    neighborhoods = points[NeighborIndex(points).knn_batch(points, k)]
    reference_dir = neighborhoods.mean(axis=1) - points
    fast_t3, slow_t3 = fast.frames[:, :, 2], slow.frames[:, :, 2]
    unoriented = (np.abs(np.einsum("nd,nd->n", slow_t3, reference_dir))
                  <= TOL * np.linalg.norm(reference_dir, axis=1))
    free = np.abs(slow.metadata["k1"] - slow.metadata["k2"]) < TOL
    each = lambda mask: np.repeat(mask, factor)  # noqa: E731

    def close(a, b):
        np.testing.assert_allclose(a, b, rtol=0, atol=TOL)

    close(fast_t3[~unoriented], slow_t3[~unoriented])
    close(np.abs(np.einsum("nd,nd->n", fast_t3, slow_t3)), 1.0)
    close(fast.deltas[~each(unoriented)], slow.deltas[~each(unoriented)])
    close(np.abs(fast.deltas), np.abs(slow.deltas))
    close(fast.normals[~each(unoriented)], slow.normals[~each(unoriented)])
    close(np.abs(np.einsum("nd,nd->n", fast.normals, slow.normals)), 1.0)
    fixed = ~each(free | unoriented)
    close(fast.points[fixed], slow.points[fixed])
    centers = np.repeat(points, factor, axis=0)
    close(np.linalg.norm(fast.points - centers, axis=1),
          np.linalg.norm(slow.points - centers, axis=1))
    assert fast.frames.shape == slow.frames.shape == (len(points), 3, 3)
    for key in ("degenerate_frames", "degenerate_fits"):
        assert fast.metadata[key] == slow.metadata[key]


@pytest.mark.parametrize("name", list(KERNEL_CLOUDS))
def test_upsample_matches_per_point_loop(name):
    points = KERNEL_CLOUDS[name]
    factor, k = 4, 16
    fast = upsample_analytic(PointCloud(points), factor, k=k)
    slow = reference.upsample_analytic(PointCloud(points), factor, k=k)
    _assert_matches_reference(points, fast, slow, factor, k)
    curvatures = _kernel_curvatures(points, k)
    np.testing.assert_allclose(curvatures[:, 0], slow.metadata["k1"], rtol=0, atol=TOL)
    np.testing.assert_allclose(curvatures[:, 1], slow.metadata["k2"], rtol=0, atol=TOL)


def test_clouds_exercise_every_degeneracy_rule():
    def counts(name):
        return reference.upsample_analytic(PointCloud(KERNEL_CLOUDS[name]), 4, k=16).metadata

    cross = counts("cross")
    assert cross["degenerate_frames"] > 0 and cross["degenerate_fits"] > 0
    assert counts("cross_jittered")["degenerate_fits"] > 0
    points = KERNEL_CLOUDS["duplicates"]
    neighborhoods = points[NeighborIndex(points).knn_batch(points, 16)]
    assert all(len(np.unique(row, axis=0)) == 4 for row in neighborhoods)


def test_tilted_plane_normals_share_one_orientation():
    # every row of the plane has its centroid in the tangent plane, where the
    # per-point loop orients by rounding noise (95 against 101 of 196 rows)
    points = KERNEL_CLOUDS["plane"]
    result = upsample_analytic(PointCloud(points), 4, k=16)
    plane_normal = np.linalg.svd(points - points.mean(axis=0))[2][2]
    for normals in (result.frames[:, :, 2], result.normals):
        side = np.sign(normals @ plane_normal)
        assert np.all(side == side[0])


def test_permuting_input_permutes_output_groups():
    points = KERNEL_CLOUDS["random"]
    perm = np.random.default_rng(5).permutation(len(points))
    factor = 4
    base = upsample_analytic(PointCloud(points), factor, k=16)
    moved = upsample_analytic(PointCloud(points[perm]), factor, k=16)
    groups = lambda a: a.reshape(len(points), factor, -1)  # noqa: E731
    assert np.array_equal(groups(moved.points), groups(base.points)[perm])
    assert np.array_equal(groups(moved.normals), groups(base.normals)[perm])
    assert np.array_equal(groups(moved.deltas), groups(base.deltas)[perm])
    assert np.array_equal(moved.frames[:, :, 2], base.frames[:, :, 2][perm])


# ---------------------------------------------------------------------------
# least-squares kernel

LSTSQ_KINDS = ["well", "kappa_1e6", "kappa_1e8", "kappa_1e9", "repeated_column",
               "zero_column", "identical_rows", "zero", "inf", "nan"]
# a full-rank solution's largest error, relative to its largest |entry|, per
# unit of condition number (observed: below 3e-14)
LSTSQ_RTOL = 1e-12


def _lstsq_design(kind, k, m, rng):
    """One (k, m) design of `kind`, at a random power-of-ten scale."""
    a = rng.normal(size=(k, m))
    if kind.startswith("kappa"):
        u, _, vt = np.linalg.svd(a, full_matrices=False)
        a = (u * np.geomspace(1.0, 1.0 / float(kind[6:]), m)) @ vt
    elif kind == "repeated_column":
        a[:, -1] = a[:, 0]
    elif kind == "zero_column":
        a[:, rng.integers(m)] = 0.0
    elif kind == "identical_rows":
        a[:] = a[0]
    elif kind == "zero":
        a[:] = 0.0
    elif kind in ("inf", "nan"):
        a[rng.integers(k), rng.integers(m)] = float(kind)
    return a * 10.0 ** rng.integers(-30, 31)


def _lstsq(design, rhs):
    """_lstsq_rows of (N, k, m) designs and (N, k) rhs, with an (N, m) solution."""
    solution, rank, condition = _lstsq_rows(np.ascontiguousarray(design.transpose(2, 1, 0)),
                                            np.ascontiguousarray(rhs.T))
    return solution.T, rank, condition


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_lstsq_rows_matches_stacked_svd_property(data):
    m = data.draw(st.sampled_from([3, 5]), label="m")
    k = data.draw(st.integers(m, 16), label="k")
    kinds = data.draw(st.lists(st.sampled_from(LSTSQ_KINDS), min_size=1, max_size=12),
                      label="kinds")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
    design = np.stack([_lstsq_design(kind, k, m, rng) for kind in kinds])
    rhs = rng.normal(size=(len(kinds), k)) * 10.0 ** rng.integers(-30, 31, size=(len(kinds), 1))
    solution, rank, condition = _lstsq(design, rhs)

    finite = np.isfinite(design).all(axis=(1, 2))
    assert np.array_equal(finite, [kind not in ("inf", "nan") for kind in kinds])
    assert np.all(rank[~finite] == 0) and np.all(np.isnan(solution[~finite]))
    slow, slow_rank, singular = reference.lstsq_rows(design[finite], rhs[finite])
    assert np.array_equal(rank[finite], slow_rank)
    # fit_curvatures's degenerate rule, and the stacked SVD's own
    with np.errstate(divide="ignore", invalid="ignore"):
        slow_condition = singular[:, 0] / singular[:, -1]
    slow_degenerate = ((slow_rank < m) | (singular[:, -1] <= 0.0)
                       | (slow_condition > reference._FIT_CONDITION_LIMIT))
    degenerate = (rank < m) | (condition > reference._FIT_CONDITION_LIMIT)
    assert np.array_equal(degenerate[finite], slow_degenerate)
    assert np.all(degenerate[~finite])
    full = slow_rank == m
    scale = np.abs(slow[full]).max(axis=1, keepdims=True)
    assert np.all(np.abs(solution[finite][full] - slow[full])
                  <= LSTSQ_RTOL * slow_condition[full, None] * scale)

    # bitwise the same alone, after a permutation, and among other rows
    out = (solution, rank, condition)
    for i in range(len(kinds)):
        assert _bits(*_lstsq(design[i:i + 1], rhs[i:i + 1])) == _bits(*(a[i:i + 1] for a in out))
    perm = rng.permutation(len(kinds))
    assert _bits(*_lstsq(design[perm], rhs[perm])) == _bits(*(a[perm] for a in out))
    twice = _lstsq(np.concatenate([design[::-1], design]), np.concatenate([rhs[::-1], rhs]))
    assert _bits(*(a[len(kinds):] for a in twice)) == _bits(*out)


def test_lstsq_rows_qr_and_svd_paths_both_run(monkeypatch):
    # the property's batches reach both paths: well-conditioned rows stay with
    # the QR, the others go to the SVD
    rng = np.random.default_rng(0)
    kinds = ["well", "well", "kappa_1e8", "repeated_column", "zero", "nan"]
    design = np.stack([_lstsq_design(kind, 16, 5, rng) for kind in kinds])
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(len(a)) or svd(a, **kw))
    _lstsq(design, rng.normal(size=(len(kinds), 16)))
    assert calls == [3]


# ---------------------------------------------------------------------------
# frame statistics


def _model_like_frames(seed=6, n=400):
    # learned lifts are neither orthonormal nor right-handed; some rows are
    # degenerate (zero t3, or t1 parallel to t2)
    frames = np.random.default_rng(seed).normal(size=(n, 3, 3))
    frames[::17, :, 2] = 0.0
    frames[5::19, :, 1] = frames[5::19, :, 0]
    return frames


@pytest.mark.parametrize("name", ["plane", "sphere", "random", "model_like"])
def test_frame_stats_matches_per_frame_loop(name):
    if name == "model_like":
        frames = _model_like_frames()
        deltas = np.random.default_rng(7).normal(size=4 * len(frames))
    else:
        result = upsample_analytic(PointCloud(KERNEL_CLOUDS[name]), 4, k=16)
        frames, deltas = result.frames, result.deltas
    t1, t2, t3 = frames[:, :, 0], frames[:, :, 1], frames[:, :, 2]
    fast = frame_stats(frames, deltas)
    slow = reference.frame_stats([reference.Frame(np.zeros(3), *row)
                                  for row in zip(t1, t2, t3)], deltas)
    assert fast.to_tsv() == slow.to_tsv()
    assert fast.degenerate == slow.degenerate
    # np.arctan2 and math.atan2 may round differently in the last place
    np.testing.assert_allclose(fast.theta_deg, slow.theta_deg, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# text readers

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
READERS = {".xyz": (pugeo_io.read_xyz, reference.read_xyz),
           ".obj": (pugeo_io._read_obj, reference._read_obj),
           ".ply": (pugeo_io._read_ply, reference._read_ply)}


def _read_outcome(read, path):
    """The arrays a reader returns, as bytes, or the FormatError it raises."""
    try:
        result = read(path)
    except FormatError as exc:
        return type(exc), str(exc)
    arrays = ((result.points, result.normals) if isinstance(result, PointCloud)
              else (result.vertices, result.triangles, result.normals))
    return [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in arrays]


def _assert_readers_match(path):
    new, old = READERS[path.suffix]
    assert _read_outcome(new, path) == _read_outcome(old, path)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
def test_readers_match_reference_on_fixtures(name, tmp_path):
    _assert_readers_match(FIXTURES / name)
    # the same vertices and normals as a 6-column cloud
    mesh = pugeo_io.read_mesh(FIXTURES / name)
    path = tmp_path / "cloud.xyz"
    pugeo_io.write_xyz(PointCloud(mesh.vertices, mesh.normals), path)
    _assert_readers_match(path)


def _obj_with_face(path, face):
    path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 4\nf {face}\nf 4 3 2\n")
    return path


@pytest.mark.parametrize("face", ["1 2 3", "3 -1 1", "1/1 2/2 3/3", "1 2 3 4", "1 2"])
def test_obj_faces_match_reference(face, tmp_path):
    # three distinct indices are one triangle without the fan
    _assert_readers_match(_obj_with_face(tmp_path / "mesh.obj", face))


@pytest.mark.parametrize("face", ["1 1 2", "1 2 1", "2 1 1", "1 2 2", "1 2 3 1"])
def test_obj_face_repeating_an_index_names_its_line(face, tmp_path):
    with pytest.raises(FormatError, match="^line 6: triangle repeats a vertex index$"):
        pugeo_io._read_obj(_obj_with_face(tmp_path / "mesh.obj", face))


_OBJ_HEAD = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\n"


@pytest.mark.parametrize("text,clean", [
    # face tokens
    (_OBJ_HEAD + "f +1 2 3\n", True),
    (_OBJ_HEAD + "f 01 2 3\n", True),
    (_OBJ_HEAD + "f 1.0 2 3\n", False),
    (_OBJ_HEAD + "f 1e0 2 3\n", False),
    (_OBJ_HEAD + "f 1_0 2 3\n", False),
    (_OBJ_HEAD + "f \uff11 \uff12 \uff13\n", False),
    (_OBJ_HEAD + "f 0 2 3\n", False),
    (_OBJ_HEAD + "f -1 1 2\n", False),
    (_OBJ_HEAD + "f 1/2/3 2/2/2 3/1/1\n", False),
    (_OBJ_HEAD + "f 1//1 2//2 3//3\n", False),
    (_OBJ_HEAD + "f 1 2 4 3\n", False),
    (_OBJ_HEAD + "f 1 2 5\n", False),
    ("v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\n", False),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nv 1 1 0\nf 2 4 3\n", False),
    # vertex lines
    (_OBJ_HEAD + "v 1 2 3 4\nf 1 2 5\n", False),
    (_OBJ_HEAD + "v nan 0 0\nf 1 2 3\n", False),
    (_OBJ_HEAD + "v\t1\t2\t3\nf 1 2 5\n", False),
    (_OBJ_HEAD + " v 1 2 3\nf 1 2 5\n", False),
    # other records
    ("# a comment\n" + _OBJ_HEAD + "vt 0 0\no a\ng b\ns 1\nf 1 2 3\n", False),
    (_OBJ_HEAD + "\n\nvn 0 0 1\n" * 4 + "f 1 2 3\n", True),
    # line ends, and separators that split tokens but not lines
    (_OBJ_HEAD.replace("\n", "\r") + "f 1 2 3\r", True),
    (_OBJ_HEAD.replace("\n", "\r\n") + "f 1 2 3\r\n", True),
    *((_OBJ_HEAD + f"f 1{sep}2 3\n", False) for sep in ("\x0b", "\x0c", "\x1c", "\x85", "\u2028")),
    ("", True),
], ids=["plus", "leading_zero", "decimal_point", "exponent", "underscore", "fullwidth_digits",
        "zero", "negative", "slashes", "double_slash", "quad", "past_the_vertices",
        "vertex_after_face", "vertex_between_faces", "four_values", "nan", "tabs",
        "leading_space",
        "comment_and_other_records", "blank_lines_and_normals", "cr", "crlf", "vt", "ff",
        "fs", "nel", "line_separator", "empty"])
def test_obj_reader_matches_reference_on_edge_inputs(text, clean, tmp_path):
    path = tmp_path / "mesh.obj"
    path.write_bytes(text.encode("utf-8"))
    assert (pugeo_io._parse_clean_obj(path.read_bytes()) is not None) == clean
    _assert_readers_match(path)


@pytest.mark.parametrize("data,message", [
    ((_OBJ_HEAD + "v 1 2\nf 1 2 3\n").encode(), "line 5: expected at least 4 fields, got 3"),
    ((_OBJ_HEAD + "v \nf 1 2 3\n").encode(), "line 5: expected at least 4 fields, got 1"),
    (_OBJ_HEAD.encode() + b"f 1 2 \xff3\n", "line 5: not UTF-8 (invalid start byte)"),
], ids=["two_values", "tag_only", "not_utf8"])
def test_obj_reader_names_the_line_where_the_reference_words_it_otherwise(data, message,
                                                                          tmp_path):
    path = tmp_path / "mesh.obj"
    path.write_bytes(data)
    with pytest.raises((FormatError, UnicodeDecodeError)):
        reference._read_obj(path)
    assert pugeo_io._parse_clean_obj(data) is None
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        pugeo_io._read_obj(path)


def test_fixture_and_benchmark_style_obj_take_the_c_path(tmp_path):
    # a C path that always declined would pass every comparison with the reference
    mesh = pugeo_io.read_mesh(FIXTURES / "icosphere.obj")
    rotation = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
    path = tmp_path / "rotated.obj"
    pugeo_io.write_mesh(TriangleMesh(mesh.vertices @ rotation.T, mesh.triangles,
                                     mesh.normals @ rotation.T), path)
    for obj in (FIXTURES / "cube.obj", FIXTURES / "icosphere.obj", path):
        assert pugeo_io._parse_clean_obj(obj.read_bytes()) is not None
        _assert_readers_match(obj)


def test_benchmark_style_xyz_takes_the_c_path(tmp_path, monkeypatch):
    # as for OBJ: a C path that always declined would pass every comparison with the reference
    mesh = pugeo_io.read_mesh(FIXTURES / "icosphere.obj")
    rotation = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
    paths = []
    for scale in (1e-3, 1.0, 1e3):
        for rows in (mesh.vertices @ rotation.T * scale,
                     np.hstack([mesh.vertices @ rotation.T * scale, mesh.normals @ rotation.T])):
            cloud = PointCloud(rows[:, :3], rows[:, 3:] if rows.shape[1] == 6 else None)
            paths += [tmp_path / f"block{len(paths)}.xyz", tmp_path / f"row{len(paths)}.xyz"]
            pugeo_io.write_xyz(cloud, paths[-2])
            # the benchmark's writer: each row's values by repr, joined by spaces
            paths[-1].write_text("".join(" ".join(map(repr, row)) + "\n" for row in rows.tolist()))

    def scanner(path):
        raise AssertionError(f"{path} went to the record scanner")

    monkeypatch.setattr(pugeo_io, "_scan_xyz", scanner)
    for path in paths:
        _assert_readers_match(path)


_VALUES = st.one_of(st.just(0.0), st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150))
_FULLWIDTH = str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17"
                                         "\uff18\uff19")
# the last two are tokens float() accepts and numpy's C parser rejects
_FORMATS = (repr, "{:.17g}".format, "{:.6e}".format, "{:.3f}".format, "{:.1E}".format,
            "{:_.3f}".format, lambda v: repr(v).translate(_FULLWIDTH))


def _text(data, rows):
    """Token rows joined by tabs or runs of spaces, with blank lines and mixed line ends."""
    lines = []
    for row in rows:
        blank = data.draw(st.sampled_from([None, "", " ", "\t  "])) if lines else None
        sep = data.draw(st.sampled_from([" ", "  ", "\t", " \t ", "\t\t", "\x0b", "\x0c",
                                         "\x1c", "\x85", "\xa0", "\u3000"]))
        lines += ([] if blank is None else [blank]) + [sep.join(row)]
    return "".join(line + data.draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_readers_match_reference_property(data, tmp_path_factory):
    n = data.draw(st.integers(1, 12), label="n")
    width = data.draw(st.sampled_from([3, 6]), label="width")
    fmt = data.draw(st.sampled_from(_FORMATS), label="format")
    values = data.draw(st.lists(st.lists(_VALUES, min_size=width, max_size=width),
                                min_size=n, max_size=n), label="values")
    rows = [[fmt(v) for v in row] for row in values]
    faces = [[0, i + 1, i + 2] for i in range(n - 2)]
    obj = [["v", *row[:3]] for row in rows]
    obj += [["vn", *row[3:]] for row in rows if width == 6]
    obj += [["f", *(str(i + 1) for i in face)] for face in faces]
    # (header records, body rows) of each element
    vertices = ([["element", "vertex", str(n)],
                 *(["property", "double", name]
                   for name in ("x", "y", "z", "nx", "ny", "nz")[:width])], rows)
    triangles = ([["element", "face", str(len(faces))],
                  ["property", "list", "uchar", "int", "vertex_indices"]],
                 [["3", *map(str, face)] for face in faces])
    # the body holds each element's rows in header order, whichever comes first
    head, end = [["ply"], ["format", "ascii", "1.0"]], [["end_header"]]
    vertex_first = head + vertices[0] + triangles[0] + end + vertices[1] + triangles[1]
    face_first = head + triangles[0] + vertices[0] + end + triangles[1] + vertices[1]
    for name, records in (("cloud.xyz", rows), ("mesh.obj", obj),
                          ("vertex_first.ply", vertex_first), ("face_first.ply", face_first)):
        path = tmp_path_factory.getbasetemp() / name
        path.write_bytes(_text(data, records).encode("utf-8"))
        _assert_readers_match(path)


# normals whose squared length overflows or is subnormal, between ordinary ones
_RESCALED_NORMALS = ("0 0 1", "1e200 0 0", "1e-170 0 0", "0 -1e-160 0", "1e308 0 1e308",
                     "3e-160 -4e-160 1e-161", "-7e180 2e181 3e170", "0.6 0.8 0")


@pytest.mark.parametrize("suffix", [".xyz", ".obj", ".ply"])
def test_readers_rescale_normals_as_the_reference(suffix, tmp_path):
    points = [f"{i} {i % 3} {i // 3}" for i in range(len(_RESCALED_NORMALS))]
    if suffix == ".xyz":
        lines = [f"{p} {n}" for p, n in zip(points, _RESCALED_NORMALS)]
    elif suffix == ".obj":
        lines = [f"v {p}" for p in points] + [f"vn {n}" for n in _RESCALED_NORMALS]
    else:
        lines = ["ply", "format ascii 1.0", f"element vertex {len(points)}",
                 *(f"property double {name}" for name in ("x", "y", "z", "nx", "ny", "nz")),
                 "end_header", *(f"{p} {n}" for p, n in zip(points, _RESCALED_NORMALS))]
    path = tmp_path / f"normals{suffix}"
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_readers_match(path)


_BAD_TOKENS = ("x", "nan", "inf")
_NONZERO = st.one_of(st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150))


def _corrupt(data, record):
    """The tokens of `record` with one corruption that makes its line bad.

    A record is (tokens, positions of its numbers, positions of its normal,
    first face index past the vertices or None): a number becomes a bad
    token or is dropped, the normal becomes zeros, or a face index passes
    the vertices.
    """
    tokens, numbers, normal, past = record
    kinds = ["token", "drop"] + ["zero"] * bool(normal) + ["index"] * (past is not None)
    kind = data.draw(st.sampled_from(kinds), label="corruption")
    tokens = list(tokens)
    if kind == "zero":
        for i in normal:
            tokens[i] = "0"
        return tokens
    at = data.draw(st.sampled_from(numbers), label="position")
    if kind == "token":
        tokens[at] = data.draw(st.sampled_from(_BAD_TOKENS), label="token")
    elif kind == "drop":
        del tokens[at]
    else:
        tokens[at] = str(past + data.draw(st.integers(0, 2), label="past"))
    return tokens


@pytest.mark.parametrize("suffix", [".xyz", ".obj", ".ply"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_readers_name_the_first_bad_line_property(suffix, data, tmp_path_factory):
    n = data.draw(st.integers(3, 8), label="n")
    with_normals = data.draw(st.booleans(), label="with_normals")
    points = data.draw(st.lists(st.lists(_VALUES, min_size=3, max_size=3), min_size=n,
                                max_size=n), label="points")
    normals = data.draw(st.lists(st.lists(_NONZERO, min_size=3, max_size=3), min_size=n,
                                 max_size=n), label="normals") if with_normals else [[]] * n
    rows = [list(map(repr, p + q)) for p, q in zip(points, normals)]
    faces = [[0, i + 1, i + 2] for i in range(n - 2)]
    width = len(rows[0])
    point_normal = range(3, 6) if with_normals else ()
    if suffix == ".xyz":
        records = [(row, range(width), point_normal, None) for row in rows]
    elif suffix == ".obj":
        records = [(["v", *row[:3]], (1, 2, 3), (), None) for row in rows]
        records += [(["vn", *row[3:]], (1, 2, 3), (1, 2, 3), None) for row in rows
                    if with_normals]
        records += [(["f", *(str(i + 1) for i in face)], (1, 2, 3), (), n + 1)
                    for face in faces]
    else:
        names = ("x", "y", "z", "nx", "ny", "nz")[:width]
        sections = [([["element", "vertex", str(n)],
                      *(["property", "double", name] for name in names)],
                     [(row, range(width), point_normal, None) for row in rows]),
                    ([["element", "face", str(len(faces))],
                      ["property", "list", "uchar", "int", "vertex_indices"]],
                     [(["3", *map(str, face)], (1, 2, 3), (), n) for face in faces])]
        if data.draw(st.booleans(), label="face_first"):
            sections.reverse()
        (head_1, rows_1), (head_2, rows_2) = sections
        head = [["ply"], ["format", "ascii", "1.0"], *head_1, *head_2, ["end_header"]]
        records = [(tokens, None, None, None) for tokens in head] + rows_1 + rows_2
    body = [i for i, record in enumerate(records) if record[1] is not None]
    bad = data.draw(st.lists(st.sampled_from(body), min_size=1, max_size=3, unique=True),
                    label="bad")
    lines = [_corrupt(data, record) if i in bad else record[0]
             for i, record in enumerate(records)]
    path = tmp_path_factory.getbasetemp() / f"first_bad{suffix}"
    path.write_text("".join(" ".join(tokens) + "\n" for tokens in lines))
    first = min(bad) + 1
    read = pugeo_io.read_xyz if suffix == ".xyz" else pugeo_io.read_mesh
    with pytest.raises(FormatError) as raised:
        read(path)
    assert str(raised.value).startswith(f"{path}: line {first}:")
    with pytest.raises(FormatError) as raised:
        READERS[suffix][1](path)
    assert re.match(f"({re.escape(str(path))}: )?line {first}:", str(raised.value))


@pytest.mark.parametrize("position", [0, 1, 3, 6])
@pytest.mark.parametrize("face_first", [False, True])
def test_ply_list_property_in_vertex_element_matches_reference(position, face_first, tmp_path):
    vertex = ["element vertex 3", *(f"property double {name}"
                                    for name in ("x", "y", "z", "nx", "ny", "nz"))]
    vertex.insert(1 + position, "property list uchar double extra")
    face = ["element face 1", "property list uchar int vertex_indices"]
    head = ["ply", "format ascii 1.0", *(face + vertex if face_first else vertex + face),
            "end_header"]
    rows = [f"{p} 0 0 1" for p in ("0 0 0", "1 0 0", "0 1 0")]
    rows = [" ".join(row.split()[:position] + ["2", "9", "9"] + row.split()[position:])
            for row in rows]
    body = ["3 0 1 2", *rows] if face_first else [*rows, "3 0 1 2"]
    path = tmp_path / "list.ply"
    path.write_text("\n".join(head + body) + "\n")
    line = head.index("property list uchar double extra") + 1
    with pytest.raises(FormatError, match=f"^line {line}: list property in the vertex element$"):
        pugeo_io._read_ply(path)
    _assert_readers_match(path)


@pytest.mark.parametrize("flags_first", [False, True])
@pytest.mark.parametrize("face_first", [False, True])
def test_ply_face_property_before_index_list_matches_reference(flags_first, face_first,
                                                               tmp_path):
    path, line = ply_face_flags(tmp_path / "flags.ply", flags_first, face_first)
    if flags_first:
        with pytest.raises(FormatError, match=f"^line {line}: face property before the "
                                              f"index list$"):
            reference._read_ply(path)
    _assert_readers_match(path)


_BLOCK = pugeo_io._WRITE_BLOCK_ROWS
# a signed zero, the smallest subnormal, where repr switches to exponent
# notation on both sides, and the largest double below that switch
_REPR_EDGES = (-0.0, 5e-324, 1e-05, 1e16, 9999999999999998.0)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_write_xyz_matches_reference_property(data, tmp_path_factory):
    width = data.draw(st.sampled_from([3, 6]), label="width")
    n = data.draw(st.sampled_from([0, 1, 2, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]), label="n")
    drawn = data.draw(st.lists(st.floats(), min_size=1, max_size=8), label="values")
    pick_seed = data.draw(st.integers(0, 2**32 - 1), label="pick_seed")
    rows = np.random.default_rng(pick_seed).choice(np.array(_REPR_EDGES + tuple(drawn)),
                                                   size=(n, width))
    head = min(rows.size, len(_REPR_EDGES))
    rows.flat[:head] = _REPR_EDGES[:head]
    cloud = PointCloud(rows[:, :3])
    if width == 6:
        cloud.normals = rows[:, 3:]  # any values, not unit normals: only the text is compared
    base = tmp_path_factory.getbasetemp()
    pugeo_io.write_xyz(cloud, base / "block.xyz")
    reference.write_xyz(cloud, base / "row.xyz")
    assert (base / "block.xyz").read_bytes() == (base / "row.xyz").read_bytes()


def test_write_xyz_repr_edges_text(tmp_path):
    rows = np.array([_REPR_EDGES[:3], _REPR_EDGES[2:]])
    pugeo_io.write_xyz(PointCloud(rows), tmp_path / "block.xyz")
    assert (tmp_path / "block.xyz").read_text() == (
        "-0.0 5e-324 1e-05\n1e-05 1e+16 9999999999999998.0\n")


@pytest.mark.parametrize("data", [
    b"1_0 2 3\n4 5 6_5\n",
    "\uff11 2 3\n4 \uff15.\uff15 6\n".encode(),
    b"\xef\xbb\xbf1 2 3\n",
    b"1\x002 3 4\n",
    b"1 2 3\x00\n",
    b"1\x0b2\x0b3\n",
    b"1 2 3\x0c4 5 6\n",
    "1\x852 3\n".encode(),
    "1\xa02\xa03\n".encode(),
    b"1 2 3\r\r4 5 6\r",
    b"",
    b" \n\t\r\n\n",
], ids=["underscore", "fullwidth_digits", "bom", "nul_in_token", "nul_after_row", "vt_sep",
        "ff_sep", "nel_sep", "nbsp_sep", "lone_cr", "empty", "blank_only"])
def test_xyz_reader_matches_reference_where_float_and_loadtxt_differ(data, tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_bytes(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _assert_readers_match(path)
    assert not caught


@pytest.mark.parametrize("data,line", [
    (b"1 2 3\n4 \xff 6\n", 2),
    (b"1\xa02 3\n", 1),
    (b"1 2 3\r4 5 \xc3\r", 2),
], ids=["bad_byte", "latin1_nbsp", "truncated_sequence"])
def test_xyz_reader_names_the_line_that_is_not_utf8(data, line, tmp_path):
    # the reference decodes the file as a whole and raises UnicodeDecodeError
    path = tmp_path / "cloud.xyz"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError):
        reference.read_xyz(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line {line}: not UTF-8"):
            pugeo_io.read_xyz(path)
    assert not caught
