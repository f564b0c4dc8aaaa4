"""The vectorized FPS and analytic upsampling against their loop references.

FPS must return bitwise the indices of the O(N * count) scan.  The batched
frame/curvature kernel must agree with the per-point loop within 1e-9:
its least-squares solves use a stacked SVD instead of LAPACK gelsd, so the
last digits may differ.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from helpers import sphere_cloud
from pugeo import PointCloud, SamplePattern, farthest_point_sample, upsample_analytic
from pugeo.geometry import estimate_frames, fit_curvatures
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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fps_matches_full_scan_property(data):
    n = data.draw(st.integers(1, 80), label="n")
    # small integer coordinates force duplicates and tied distances
    coords = st.one_of(st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
                       st.integers(-2, 2).map(float))
    points = data.draw(arrays(np.float64, (n, 3), elements=coords), label="points")
    count = data.draw(st.integers(1, n), label="count")
    seed_index = data.draw(st.integers(0, n - 1), label="seed_index")
    assert np.array_equal(farthest_point_sample(points, count, seed_index),
                          reference.farthest_point_sample(points, count, seed_index))


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
