import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from pugeo import (PointCloud, estimate_frames, fit_curvatures, frame_stats,
                   upsample_analytic)
from pugeo.sampling import NeighborIndex

from helpers import sphere_cloud, tangent_points


def _plane_neighborhood(seed=0, n=8):
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), np.zeros(n)])
    return pts


def _sphere_cap(seed=0, n=24, radius=0.2):
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0, 2 * np.pi, n)
    theta = rng.uniform(0.02, radius, n)
    return np.column_stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                            np.cos(theta)])


NORTH = np.array([0.0, 0.0, 1.0])


def _frame(neighborhood, center):
    """One row of estimate_frames: the (3, 3) frame [t1 t2 t3] and its collinear flag."""
    frames, collinear = estimate_frames(np.asarray(neighborhood, float)[None],
                                        np.asarray(center, float)[None])
    return frames[0], bool(collinear[0])


def _fit(neighborhood, center, frame):
    """One row of fit_curvatures: (k1, k2), the (2, 2) directions and the degenerate flag."""
    curvatures, directions, degenerate = fit_curvatures(
        np.asarray(neighborhood, float)[None], np.asarray(center, float)[None], frame[None])
    return curvatures[0], directions[0], bool(degenerate[0])


def _knn_curvatures(points, count, k=16):
    """Curvatures (count, 2) at the first `count` points from their kNN neighborhoods."""
    neighborhoods = points[NeighborIndex(points).knn_batch(points[:count], k)]
    frames, _ = estimate_frames(neighborhoods, points[:count])
    return fit_curvatures(neighborhoods, points[:count], frames)[0]


# ---------------------------------------------------------------------------
# estimate_frames


def test_frame_planar_pca():
    frame, _ = _frame(_plane_neighborhood(), np.zeros(3))
    assert abs(abs(frame[2, 2]) - 1.0) < 1e-6


def test_frame_plane_lift_stays_in_plane():
    frame, _ = _frame(_plane_neighborhood(1), np.zeros(3))
    lifted = 0.3 * frame[:, 0] - 0.7 * frame[:, 1]
    assert abs(lifted[2]) < 1e-9


def test_frame_sphere_normal_within_3_degrees():
    frame, _ = _frame(_sphere_cap(2), NORTH)
    angle = np.degrees(np.arccos(min(1.0, abs(frame[2, 2]))))
    assert angle < 3.0


def test_frame_orthonormality_invariants():
    frame, _ = _frame(_sphere_cap(3), NORTH)
    t1, t2, t3 = frame.T
    assert abs(t1 @ t2) < 1e-6
    assert abs(np.linalg.norm(t1) - 1) < 1e-6
    assert abs(np.linalg.norm(t2) - 1) < 1e-6
    assert np.linalg.norm(np.cross(t1, t2) - t3) < 1e-7
    assert abs(np.linalg.det(frame)) > 0.5


def test_frame_orients_toward_concave_side():
    # sphere cap: the neighborhood centroid sits inward of the cap center
    frame, _ = _frame(_sphere_cap(4), NORTH)
    assert frame[2, 2] < 0  # points inward


def test_frame_collinear_flagged_identity():
    line = np.column_stack([np.linspace(0, 1, 8), np.zeros(8), np.zeros(8)])
    frame, collinear = _frame(line, np.zeros(3))
    assert collinear
    assert np.array_equal(frame, np.eye(3))


def test_frame_too_few_points():
    with pytest.raises(ValueError):
        _frame(np.zeros((5, 3)), np.zeros(3))


@functools.lru_cache(maxsize=None)
def _sphere_neighborhoods():
    points = sphere_cloud(300, 1.0, seed=5).points
    return points[NeighborIndex(points).knn_batch(points, 16)], points


UNIT = st.floats(-1.0, 1.0, allow_nan=False)
SHIFT = st.floats(-100.0, 100.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(quaternion=st.tuples(UNIT, UNIT, UNIT, UNIT).filter(lambda q: np.linalg.norm(q) > 0.1),
       shift=st.tuples(SHIFT, SHIFT, SHIFT))
def test_frame_rigid_motion_equivariance(quaternion, shift):
    rot = Rotation.from_quat(quaternion).as_matrix()
    neighborhoods, centers = _sphere_neighborhoods()
    frames, collinear = estimate_frames(neighborhoods, centers)
    curvatures, _, degenerate = fit_curvatures(neighborhoods, centers, frames)
    moved, moved_centers = neighborhoods @ rot.T + shift, centers @ rot.T + shift
    moved_frames, moved_collinear = estimate_frames(moved, moved_centers)
    moved_curvatures, _, moved_degenerate = fit_curvatures(moved, moved_centers, moved_frames)
    assert np.array_equal(collinear, moved_collinear)
    assert np.array_equal(degenerate, moved_degenerate)
    assert np.abs(curvatures - moved_curvatures).max() < 1e-6
    assert np.abs(frames[:, :, 2] @ rot.T - moved_frames[:, :, 2]).max() < 1e-6


# ---------------------------------------------------------------------------
# fit_curvatures


def test_fit_plane_zero_curvature():
    nbhd = _plane_neighborhood(7, 16)
    frame, _ = _frame(nbhd, np.zeros(3))
    (k1, k2), _, _ = _fit(nbhd, np.zeros(3), frame)
    assert abs(k1) < 1e-6 and abs(k2) < 1e-6


def test_fit_unit_sphere_curvature():
    curvatures = _knn_curvatures(sphere_cloud(1500, 1.0, seed=0).points, 50)
    assert np.abs(curvatures - 1.0).max() <= 0.1


def test_fit_cylinder_curvatures():
    # cylinder radius 2 along z: k1 = 0.5, k2 = 0
    rng = np.random.default_rng(8)
    phi = rng.uniform(-0.15, 0.15, 40)
    z = rng.uniform(-0.3, 0.3, 40)
    pts = np.column_stack([2 * np.cos(phi), 2 * np.sin(phi), z])
    center = np.array([2.0, 0.0, 0.0])
    frame, _ = _frame(pts, center)
    (k1, k2), _, _ = _fit(pts, center, frame)
    assert abs(k1 - 0.5) <= 0.05
    assert abs(k2) <= 0.05


def test_fit_exact_quadric_recovery():
    # data generated exactly from w = (e u^2 + 2 f u v + g v^2) / 2
    e, f, g = 0.8, -0.3, 0.25
    rng = np.random.default_rng(9)
    u = rng.uniform(-1, 1, 30)
    v = rng.uniform(-1, 1, 30)
    w = 0.5 * (e * u * u + 2 * f * u * v + g * v * v)
    (k1, k2), directions, _ = _fit(np.column_stack([u, v, w]), np.zeros(3), np.eye(3))
    m = np.array([[e, f], [f, g]])
    eig = np.linalg.eigvalsh(m)
    assert abs(k2 - eig[0]) < 1e-8
    assert abs(k1 - eig[1]) < 1e-8
    assert k1 >= k2
    assert abs(directions[:, 0] @ directions[:, 1]) < 1e-6


def test_fit_degenerate_returns_flag():
    # all points on a line in the tangent plane: rank-deficient normal matrix
    u = np.linspace(-1, 1, 10)
    pts = np.column_stack([u, np.zeros(10), np.zeros(10)])
    (k1, k2), _, degenerate = _fit(pts, np.zeros(3), np.eye(3))
    assert degenerate
    assert k1 == 0.0 and k2 == 0.0


def test_fit_scaling_halves_curvature():
    a = sphere_cloud(1000, 1.0, seed=1).points
    ratios = _knn_curvatures(a, 30)[:, 0] / _knn_curvatures(a * 2.0, 30)[:, 0]
    assert abs(np.median(ratios) - 2.0) < 0.1


# ---------------------------------------------------------------------------
# lift and quadric normal, as applied by upsample_analytic


@pytest.mark.parametrize("seed", range(5))
def test_lift_tangent_residual(seed):
    cap = _sphere_cap(seed + 20)
    result = upsample_analytic(PointCloud(cap), 4, k=16)
    parent = np.repeat(np.arange(len(cap)), 4)
    frames = result.frames[parent]
    normal = np.cross(frames[:, :, 0], frames[:, :, 1])
    residual = np.einsum("nd,nd->n", tangent_points(result) - cap[parent], normal)
    assert np.abs(residual).max() < 1e-6


def test_quadric_normal_at_origin_is_t3():
    # four copies of each point give a zero-radius disk, which puts every
    # sample at the origin of its frame; 32 neighbours still hold 8 distinct
    # points, enough for a curved fit
    cap = np.repeat(_sphere_cap(30), 4, axis=0)
    at_origin = upsample_analytic(PointCloud(cap), 4, k=32)
    assert at_origin.metadata["degenerate_fits"] == 0
    assert np.array_equal(at_origin.points, np.repeat(cap, 4, axis=0))
    coarse = np.repeat(at_origin.frames[:, :, 2], 4, axis=0)
    assert np.linalg.norm(at_origin.normals - coarse, axis=1).max() < 1e-9
    # a plane fits a flat quadric, whose normal is t3 everywhere
    g = np.stack(np.meshgrid(np.linspace(0, 1, 8), np.linspace(0, 1, 8)), -1)
    plane = np.column_stack([g.reshape(-1, 2), np.zeros(64)])
    flat = upsample_analytic(PointCloud(plane), 4, k=16)
    coarse = np.repeat(flat.frames[:, :, 2], 4, axis=0)
    assert np.linalg.norm(flat.normals - coarse, axis=1).max() < 1e-9


def test_quadric_normal_matches_sphere():
    # unit sphere cap: every output normal is radial, up to orientation
    result = upsample_analytic(PointCloud(_sphere_cap(31, n=40)), 4, k=16)
    truth = result.points / np.linalg.norm(result.points, axis=1, keepdims=True)
    cos = np.abs(np.einsum("nd,nd->n", result.normals, truth))
    assert np.degrees(np.arccos(np.minimum(1.0, cos))).max() < 2.0


# ---------------------------------------------------------------------------
# frame statistics


def test_frame_stats_analytic_theta_zero():
    caps = np.stack([_sphere_cap(s + 40) for s in range(10)])
    frames, _ = estimate_frames(caps, np.tile(NORTH, (10, 1)))
    stats = frame_stats(frames, np.zeros(10))
    assert stats.theta_deg.max() < 1e-6
    assert stats.theta_counts[0] == 10


def test_frame_stats_swapped_axis_is_90_degrees():
    # columns t1, t2, t3
    stats = frame_stats(np.array([[1.0, 0, 0], [0, 1, 0], [0, 1, 0]]).T, [0.0])
    assert abs(stats.theta_deg[0] - 90.0) < 1e-9


def test_frame_stats_degenerate_bucket():
    stats = frame_stats(np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 0]]).T, [])
    assert stats.degenerate == 1


def test_frame_stats_plane_deltas_concentrate_at_zero():
    planes = np.stack([_plane_neighborhood(s) for s in range(5)])
    frames, _ = estimate_frames(planes, np.zeros((5, 3)))
    deltas = np.zeros(50)
    stats = frame_stats(frames, deltas)
    assert stats.delta_counts.argmax() == np.nonzero(stats.delta_counts)[0][0]
    tsv = stats.to_tsv()
    assert "theta_deg" in tsv and "delta" in tsv
    assert len(tsv.strip().split("\n")) >= 30 + 50 + 4
