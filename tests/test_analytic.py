import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from pugeo import PointCloud, param_samples, upsample_analytic
from pugeo.analytic import DISK_SCALE

from helpers import sphere_cloud, tangent_points


def test_fibonacci_single_sample_radius():
    uv = param_samples(1, 2.0)
    assert abs(np.linalg.norm(uv[0]) - 2.0 * np.sqrt(0.5)) < 1e-12


@pytest.mark.parametrize("factor", [1, 4, 7, 16])
def test_samples_inside_disk(factor):
    uv = param_samples(factor, 0.7 * 1.5)
    assert uv.shape == (factor, 2)
    assert (np.linalg.norm(uv, axis=1) <= 0.7 * 1.5 + 1e-12).all()


def test_fibonacci_16_min_spacing():
    uv = param_samples(16, 1.0)
    assert pdist(uv).min() >= 0.3 / np.sqrt(16)


# a subnormal radius rounds each coordinate to a multiple of 5e-324, which can
# put a sample a unit outside its disk or out of order (seen up to 9e-322)
RADII = st.floats(min_value=0.0, allow_infinity=False, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(factor=st.integers(1, 64), radius=RADII, radii=st.lists(RADII, min_size=1, max_size=6))
def test_fibonacci_disk_property(factor, radius, radii):
    # the one layout: inside its disk, |uv_j| non-decreasing in j, and one
    # disk per radius of an array, each bitwise its scalar call
    uv = param_samples(factor, radius)
    batch = param_samples(factor, np.array(radii))
    assert uv.shape == (factor, 2) and batch.shape == (len(radii), factor, 2)
    for samples, disk in ((uv, radius), (batch, np.array(radii)[:, None])):
        lengths = np.hypot(samples[..., 0], samples[..., 1])
        assert np.all(lengths <= disk)
        assert np.all(np.diff(lengths, axis=-1) >= 0.0)
    for row, r in zip(batch, radii):
        assert np.array_equal(row, param_samples(factor, r))


def test_plane_cloud_stays_planar():
    g = np.stack(np.meshgrid(np.linspace(0, 1, 12), np.linspace(0, 1, 12)), -1)
    pts = np.column_stack([g.reshape(-1, 2), np.zeros(144)])
    result = upsample_analytic(PointCloud(pts), 4, k=16)
    assert np.abs(result.points[:, 2]).max() < 1e-6
    assert np.abs(np.abs(result.normals[:, 2]) - 1.0).max() < 1e-6


def test_output_counts():
    cloud = sphere_cloud(1000, 2.0, seed=1)
    result = upsample_analytic(cloud, 4, k=16)
    assert result.points.shape == (4000, 3)
    assert result.normals.shape == (4000, 3)
    assert result.frames[:, :, 2].shape == (1000, 3)
    assert result.deltas.shape == (4000,)


def test_second_order_beats_tangent_plane_on_sphere():
    cloud = sphere_cloud(1000, 2.0, seed=1)
    with_d = upsample_analytic(cloud, 4, k=16)
    without = tangent_points(with_d)
    err_with = np.median(np.abs(np.linalg.norm(with_d.points, axis=1) - 2.0))
    err_without = np.median(np.abs(np.linalg.norm(without, axis=1) - 2.0))
    assert err_with <= 0.5 * err_without


def test_reconstruction_identity():
    # x = xhat + delta * t3 exactly, so subtracting delta*t3 lands on the plane
    cloud = sphere_cloud(300, 1.0, seed=3)
    result = upsample_analytic(cloud, 4, k=16)
    for i in (0, 57, 123):
        t3 = result.frames[i, :, 2]
        for r in range(4):
            j = i * 4 + r
            xhat = result.points[j] - result.deltas[j] * t3
            residual = (xhat - cloud.points[i]) @ t3
            assert abs(residual) < 1e-7


def test_identity_when_factor_one_radius_zero():
    assert not param_samples(1, 0.0).any()
    # four copies of each point: the median 4-NN spacing, so the disk radius, is zero
    cloud = PointCloud(np.repeat(sphere_cloud(300, 1.0, seed=4).points, 4, axis=0))
    result = upsample_analytic(cloud, 1, k=16)
    assert np.abs(result.points - cloud.points).max() < 1e-7


def test_output_normals_unit():
    cloud = sphere_cloud(500, 1.5, seed=5)
    result = upsample_analytic(cloud, 4, k=16)
    np.testing.assert_allclose(np.linalg.norm(result.normals, axis=1), 1.0, atol=1e-6)


def test_samples_stay_near_source():
    cloud = sphere_cloud(400, 1.0, seed=6)
    result = upsample_analytic(cloud, 4, k=16)
    from pugeo.sampling import NeighborIndex

    idx = NeighborIndex(cloud.points).knn_batch(cloud.points, 16)
    for i in range(0, 400, 37):
        d = np.sort(np.linalg.norm(cloud.points[idx[i]] - cloud.points[i], axis=1))
        local_radius = np.median(d[1:5])
        group = result.points[i * 4:(i + 1) * 4]
        deltas = result.deltas[i * 4:(i + 1) * 4]
        bound = DISK_SCALE * local_radius + np.abs(deltas).max() + 1e-9
        assert np.linalg.norm(group - cloud.points[i], axis=1).max() <= bound


def test_requires_enough_points():
    with pytest.raises(ValueError):
        upsample_analytic(PointCloud(np.random.default_rng(0).normal(size=(10, 3))),
                          2, k=16)


def test_displacement_clamped_by_local_radius():
    cloud = sphere_cloud(300, 0.05, seed=7)  # tiny sphere: huge curvature
    result = upsample_analytic(cloud, 4, k=16)
    from pugeo.sampling import NeighborIndex

    idx = NeighborIndex(cloud.points).knn_batch(cloud.points, 16)
    for i in range(0, 300, 29):
        d = np.sort(np.linalg.norm(cloud.points[idx[i]] - cloud.points[i], axis=1))
        local_radius = np.median(d[1:5])
        assert np.abs(result.deltas[i * 4:(i + 1) * 4]).max() <= local_radius + 1e-12


def test_degenerate_line_fallback_counts():
    # collinear cloud: every frame degenerates, but the run completes
    line = np.column_stack([np.linspace(0, 1, 40), np.zeros(40), np.zeros(40)])
    result = upsample_analytic(PointCloud(line), 2, k=8)
    assert result.metadata["degenerate_frames"] == 40
    assert np.all(result.deltas == 0.0)
    np.testing.assert_allclose(result.frames[:, :, 2], np.tile([0, 0, 1.0], (40, 1)))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(9, 200), factor=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_permutation_equivariance_property(n, factor, seed):
    # Gaussian points tie in no distance, so every kNN row is the same set
    # in the same order whichever way the cloud is listed
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3))
    perm = rng.permutation(n)
    k = min(16, n - 1)
    a = upsample_analytic(PointCloud(points), factor, k=k)
    b = upsample_analytic(PointCloud(points[perm]), factor, k=k)
    for group_a, group_b in ((a.points, b.points), (a.normals, b.normals),
                             (a.deltas, b.deltas)):
        assert np.array_equal(group_a.reshape(n, factor, -1)[perm],
                              group_b.reshape(n, factor, -1))
    assert np.array_equal(a.frames[:, :, 2][perm], b.frames[:, :, 2])
