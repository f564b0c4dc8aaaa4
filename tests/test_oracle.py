"""The vectorized paths against their loop and full-scan references.

FPS must return bitwise the indices of the O(N * count) scan, Poisson
sample elimination the survivors of the loop that queries the tree once per
update, kNN those of a brute-force sort, the network's pruned feature kNN
those of a full stable sort of every distance row, gather's CSR gradient
bitwise that of np.add.at, relu and reduce_max bitwise the np.where and
np.argmax versions, and the point-to-surface distance bitwise the
minimum over every triangle.  The batched frame/curvature
kernel must agree with the per-point loop within 1e-9: its least-squares
solves use a stacked SVD instead of LAPACK gelsd, so the last digits may
differ.  The ``.xyz``, OBJ and PLY readers must return bitwise the arrays
of the per-record parse loops, or raise the same FormatError.
"""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

import pugeo.autodiff as ad
import reference
from helpers import brute_force_knn, cube_mesh, icosphere, sphere_cloud
from pugeo import (PointCloud, PUGeoConfig, PUGeoNet, SamplePattern, TriangleMesh,
                   farthest_point_sample, metrics, poisson_disk_sample, sampling,
                   upsample_analytic)
from pugeo import io as pugeo_io
from pugeo.errors import FormatError
from pugeo.geometry import estimate_frames, fit_curvatures, frame_stats
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


FPS_CASES = [
    ("gaussian", _gaussian(0), 250, 0),
    ("gaussian_seed_index", _gaussian(1), 400, 123),
    ("overlapping_copies", _overlapping_copies(2), 300, 0),
    ("overlapping_copies_all", _overlapping_copies(3), 1000, 0),
    ("lattice_ties", _lattice(), 500, 0),
    ("lattice_all", _lattice(6), 216, 17),
    ("gaussian_all", _gaussian(4, 300), 300, 5),
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


# ---------------------------------------------------------------------------
# Poisson sample elimination


def _duplicates_of_one_point(seed, copies=sampling._NEIGHBOR_TABLE_K + 5):
    # more copies than a table row holds: their rows run out as copies die
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
    """Rows that run out query the tree again; the survivors do not change."""
    calls = []

    class CountingTree(cKDTree):
        def query(self, x, k=1, **kwargs):
            calls.append(k)
            return super().query(x, k=k, **kwargs)

    monkeypatch.setattr(sampling, "cKDTree", CountingTree)
    points = _duplicates_of_one_point(12)
    keep = sampling._eliminate(points, 20)
    assert len(calls) > 1  # the table query, then at least one fallback
    assert np.array_equal(keep, reference.poisson_eliminate(points, 20))


@pytest.mark.parametrize("width", [1, 2, 5])
@pytest.mark.parametrize("name,points,n", ELIMINATION_CASES[:6],
                         ids=[case[0] for case in ELIMINATION_CASES[:6]])
def test_elimination_exact_for_any_table_width(monkeypatch, width, name, points, n):
    monkeypatch.setattr(sampling, "_NEIGHBOR_TABLE_K", width)
    assert np.array_equal(sampling._eliminate(points, n),
                          reference.poisson_eliminate(points, n))


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
# relu's bit-AND forward and reduce_max's first-hit argmax


def _specials(dtype) -> np.ndarray:
    info = np.finfo(dtype)
    return np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, info.smallest_subnormal,
                     -info.smallest_subnormal, info.tiny, -info.tiny, info.max, -info.max,
                     1.0, -1.0, 1.0, 2.0, 2.0, -3.0], dtype=dtype)


def _op_bytes(op, a, g, **kwargs):
    """Forward and backward bytes of op on a, with upstream gradient g."""
    out = op(ad.Tensor(a, requires_grad=True), **kwargs)
    with np.errstate(invalid="ignore"):  # nan/inf gradients times the mask
        grad = out._backward(g)[0]
    assert out.data.dtype == grad.dtype == a.dtype
    return out.data.shape, out.data.tobytes(), grad.shape, grad.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_matches_where_bitwise(dtype):
    rng = np.random.default_rng(21)
    a = np.concatenate([_specials(dtype), rng.normal(size=46).astype(dtype)]).reshape(8, 8)
    g = rng.permutation(np.concatenate([_specials(dtype), rng.normal(size=46)]).astype(dtype))
    g = g.reshape(8, 8)
    assert _op_bytes(ad.relu, a, g) == _op_bytes(reference.relu, a, g)
    out = ad.relu(ad.Tensor(a)).data
    # +0.0 for every input <= 0 and for NaN; the input itself above 0
    zero = ~(a > 0)
    assert not np.signbit(out[zero]).any() and (out[zero] == 0).all()
    assert out[~zero].tobytes() == a[~zero].tobytes()


def test_relu_of_a_strided_view():
    a = np.arange(-12.0, 12.0, dtype=np.float32).reshape(4, 6)[:, ::2].T
    g = np.ones_like(a)
    assert _op_bytes(ad.relu, a, g) == _op_bytes(reference.relu, a, g)


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
    shape = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3), label="shape")
    elements = st.one_of(st.floats(width=np.finfo(dtype).bits),
                         st.integers(-2, 2).map(float),
                         st.sampled_from(_specials(dtype).tolist()))
    a = data.draw(arrays(dtype, tuple(shape), elements=elements), label="a")
    g = data.draw(arrays(dtype, tuple(shape), elements=elements), label="g")
    assert _op_bytes(ad.relu, a, g) == _op_bytes(reference.relu, a, g)
    axis = data.draw(st.integers(-len(shape), len(shape) - 1), label="axis")
    keepdims = data.draw(st.booleans(), label="keepdims")
    g_max = np.max(g, axis=axis, keepdims=keepdims)
    assert _op_bytes(ad.reduce_max, a, g_max, axis=axis, keepdims=keepdims) == \
        _op_bytes(reference.reduce_max, a, g_max, axis=axis, keepdims=keepdims)


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
    queries = np.concatenate([near_grid, rng.uniform([0, 0, -0.2], [1, 1, 0.2], size=(100, 3)),
                              rng.uniform([0, 0, -0.99], [1, 1, -0.9], size=(50, 3))])
    fast = _assert_p2f_matches_scan(queries, mesh)
    assert np.all(fast[-50:] < 0.1)


def test_p2f_pair_budget_chunks_are_exact(monkeypatch):
    mesh = icosphere(2)
    queries = np.random.default_rng(3).normal(size=(200, 3))
    whole = _assert_p2f_matches_scan(queries, mesh)
    monkeypatch.setattr(metrics, "_PAIR_BUDGET", 20)
    sizes = _counting_pairs(monkeypatch)
    assert np.array_equal(point_to_mesh_distances(queries, mesh), whole)
    assert len(sizes) > 10 and max(sizes) < len(mesh.triangles)


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
    unoriented = (np.abs(np.einsum("nd,nd->n", slow.coarse_normals, reference_dir))
                  <= TOL * np.linalg.norm(reference_dir, axis=1))
    free = np.abs(slow.metadata["k1"] - slow.metadata["k2"]) < TOL
    each = lambda mask: np.repeat(mask, factor)  # noqa: E731

    def close(a, b):
        np.testing.assert_allclose(a, b, rtol=0, atol=TOL)

    close(fast.coarse_normals[~unoriented], slow.coarse_normals[~unoriented])
    close(np.abs(np.einsum("nd,nd->n", fast.coarse_normals, slow.coarse_normals)), 1.0)
    close(fast.deltas[~each(unoriented)], slow.deltas[~each(unoriented)])
    close(np.abs(fast.deltas), np.abs(slow.deltas))
    close(fast.normals[~each(unoriented)], slow.normals[~each(unoriented)])
    close(np.abs(np.einsum("nd,nd->n", fast.normals, slow.normals)), 1.0)
    fixed = ~each(free | unoriented)
    close(fast.points[fixed], slow.points[fixed])
    centers = np.repeat(points, factor, axis=0)
    close(np.linalg.norm(fast.points - centers, axis=1),
          np.linalg.norm(slow.points - centers, axis=1))
    assert np.array_equal(fast.parent, slow.parent)
    for key in ("degenerate_frames", "degenerate_fits"):
        assert fast.metadata[key] == slow.metadata[key]


@pytest.mark.parametrize("name", list(KERNEL_CLOUDS))
@pytest.mark.parametrize("displacement", [True, False])
def test_upsample_matches_per_point_loop(name, displacement):
    points = KERNEL_CLOUDS[name]
    factor, k = 4, 16
    fast = upsample_analytic(PointCloud(points), factor, k=k, displacement=displacement)
    slow = reference.upsample_analytic(PointCloud(points), factor, k=k,
                                       displacement=displacement)
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
    for normals in (result.coarse_normals, result.normals):
        side = np.sign(normals @ plane_normal)
        assert np.all(side == side[0])


@pytest.mark.parametrize("name", ["sphere", "random"])
def test_jittered_grid_consumes_rng_in_loop_order(name):
    points = KERNEL_CLOUDS[name]
    pattern = SamplePattern("jittered_grid", radius_scale=0.7)
    rng_fast = np.random.default_rng(9)
    rng_slow = np.random.default_rng(9)
    fast = upsample_analytic(PointCloud(points), 5, k=12, pattern=pattern, rng=rng_fast)
    slow = reference.upsample_analytic(PointCloud(points), 5, k=12, pattern=pattern,
                                       rng=rng_slow)
    _assert_matches_reference(points, fast, slow, 5, 12)
    assert rng_fast.random() == rng_slow.random()


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
    assert np.array_equal(moved.coarse_normals, base.coarse_normals[perm])


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
        frames, deltas = result.metadata["frames"], result.deltas
    t1, t2, t3 = frames[:, :, 0], frames[:, :, 1], frames[:, :, 2]
    fast = frame_stats(t1, t2, t3, deltas)
    slow = reference.frame_stats([reference.Frame(np.zeros(3), *row)
                                  for row in zip(t1, t2, t3)], deltas)
    assert fast.to_tsv() == slow.to_tsv()
    assert fast.degenerate == slow.degenerate
    # np.arccos and math.acos may round differently in the last place
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


_VALUES = st.one_of(st.just(0.0), st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150))
_FORMATS = (repr, "{:.17g}".format, "{:.6e}".format, "{:.3f}".format, "{:.1E}".format)


def _text(data, rows):
    """Token rows joined by tabs or runs of spaces, with blank lines and mixed line ends."""
    lines = []
    for row in rows:
        blank = data.draw(st.sampled_from([None, "", " ", "\t  "])) if lines else None
        sep = data.draw(st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"]))
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
    ply = [["ply"], ["format", "ascii", "1.0"], ["element", "vertex", str(n)]]
    ply += [["property", "double", name] for name in ("x", "y", "z", "nx", "ny", "nz")[:width]]
    ply += [["element", "face", str(len(faces))],
            ["property", "list", "uchar", "int", "vertex_indices"], ["end_header"]]
    ply += rows + [["3", *map(str, face)] for face in faces]
    for name, records in (("cloud.xyz", rows), ("mesh.obj", obj), ("mesh.ply", ply)):
        path = tmp_path_factory.getbasetemp() / name
        path.write_bytes(_text(data, records).encode("utf-8"))
        _assert_readers_match(path)
