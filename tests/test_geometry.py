import numpy as np
import pytest

from pugeo import (AugmentedJacobian, ParamSample, estimate_frame, fit_fundamental_forms,
                   frame_stats, lift_to_tangent, normal_displacement, normal_from_T,
                   quadric_normal)
from pugeo.errors import GeometryError
from pugeo.sampling import NeighborIndex

from helpers import sphere_cloud, unit_rows


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


def _identity_frame(origin=(0.0, 0.0, 0.0)):
    return AugmentedJacobian(origin=np.asarray(origin, float),
                             t1=np.array([1.0, 0, 0]), t2=np.array([0, 1.0, 0]),
                             t3=np.array([0, 0, 1.0]))


# ---------------------------------------------------------------------------
# estimate_frame


def test_frame_planar_pca():
    frame = estimate_frame(_plane_neighborhood(), np.zeros(3))
    assert abs(abs(frame.t3[2]) - 1.0) < 1e-6


def test_frame_plane_lift_stays_in_plane():
    frame = estimate_frame(_plane_neighborhood(1), np.zeros(3))
    lifted = lift_to_tangent(frame, ParamSample(0.3, -0.7))
    assert abs(lifted[2]) < 1e-9


def test_frame_sphere_normal_within_3_degrees():
    cap = _sphere_cap(2)
    frame = estimate_frame(cap, np.array([0.0, 0.0, 1.0]))
    angle = np.degrees(np.arccos(min(1.0, abs(frame.t3[2]))))
    assert angle < 3.0


def test_frame_orthonormality_invariants():
    cap = _sphere_cap(3)
    frame = estimate_frame(cap, np.array([0.0, 0.0, 1.0]))
    assert abs(frame.t1 @ frame.t2) < 1e-6
    assert abs(np.linalg.norm(frame.t1) - 1) < 1e-6
    assert abs(np.linalg.norm(frame.t2) - 1) < 1e-6
    assert np.linalg.norm(np.cross(frame.t1, frame.t2) - frame.t3) < 1e-7
    assert abs(np.linalg.det(frame.matrix())) > 0.5


def test_frame_orients_toward_concave_side():
    # sphere cap: the neighborhood centroid sits inward of the cap center
    frame = estimate_frame(_sphere_cap(4), np.array([0.0, 0.0, 1.0]))
    assert frame.t3[2] < 0  # points inward


def test_frame_collinear_raises():
    line = np.column_stack([np.linspace(0, 1, 8), np.zeros(8), np.zeros(8)])
    with pytest.raises(GeometryError):
        estimate_frame(line, np.zeros(3))


def test_frame_too_few_points():
    with pytest.raises(ValueError):
        estimate_frame(np.zeros((5, 3)), np.zeros(3))


def test_frame_rigid_motion_equivariance():
    rng = np.random.default_rng(5)
    cap = _sphere_cap(6)
    center = np.array([0.0, 0.0, 1.0])
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    rot = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                    [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                    [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
    shift = np.array([3.0, -1.0, 2.0])
    before = estimate_frame(cap, center)
    after = estimate_frame(cap @ rot.T + shift, rot @ center + shift)
    assert abs((rot @ before.t3) @ after.t3) >= 1.0 - 1e-6
    f_before = fit_fundamental_forms(cap, before)
    f_after = fit_fundamental_forms(cap @ rot.T + shift, after)
    assert abs(f_before.k1 - f_after.k1) < 1e-6
    assert abs(f_before.k2 - f_after.k2) < 1e-6


# ---------------------------------------------------------------------------
# fit_fundamental_forms


def test_fit_plane_zero_curvature():
    nbhd = _plane_neighborhood(7, 16)
    frame = estimate_frame(nbhd, np.zeros(3))
    forms = fit_fundamental_forms(nbhd, frame)
    assert abs(forms.k1) < 1e-6 and abs(forms.k2) < 1e-6


def test_fit_unit_sphere_curvature():
    cloud = sphere_cloud(1500, 1.0, seed=0)
    idx = NeighborIndex(cloud.points).knn_batch(cloud.points[:50], 16)
    for row, i in zip(idx, range(50)):
        nbhd = cloud.points[row]
        frame = estimate_frame(nbhd, cloud.points[i])
        forms = fit_fundamental_forms(nbhd, frame)
        assert abs(forms.k1 - 1.0) <= 0.1
        assert abs(forms.k2 - 1.0) <= 0.1


def test_fit_cylinder_curvatures():
    # cylinder radius 2 along z: k1 = 0.5, k2 = 0
    rng = np.random.default_rng(8)
    phi = rng.uniform(-0.15, 0.15, 40)
    z = rng.uniform(-0.3, 0.3, 40)
    pts = np.column_stack([2 * np.cos(phi), 2 * np.sin(phi), z])
    center = np.array([2.0, 0.0, 0.0])
    frame = estimate_frame(pts, center)
    forms = fit_fundamental_forms(pts, frame)
    assert abs(forms.k1 - 0.5) <= 0.05
    assert abs(forms.k2) <= 0.05


def test_fit_exact_quadric_recovery():
    # data generated exactly from w = (e u^2 + 2 f u v + g v^2) / 2
    e, f, g = 0.8, -0.3, 0.25
    rng = np.random.default_rng(9)
    u = rng.uniform(-1, 1, 30)
    v = rng.uniform(-1, 1, 30)
    w = 0.5 * (e * u * u + 2 * f * u * v + g * v * v)
    frame = _identity_frame()
    forms = fit_fundamental_forms(np.column_stack([u, v, w]), frame)
    m = np.array([[e, f], [f, g]])
    eig = np.linalg.eigvalsh(m)
    assert abs(forms.k2 - eig[0]) < 1e-8
    assert abs(forms.k1 - eig[1]) < 1e-8
    assert forms.k1 >= forms.k2
    assert abs(forms.dir1 @ forms.dir2) < 1e-6


def test_fit_degenerate_returns_flag():
    # all points on a line in the tangent plane: rank-deficient normal matrix
    u = np.linspace(-1, 1, 10)
    pts = np.column_stack([u, np.zeros(10), np.zeros(10)])
    forms = fit_fundamental_forms(pts, _identity_frame())
    assert forms.degenerate
    assert forms.k1 == 0.0 and forms.k2 == 0.0


def test_fit_scaling_halves_curvature():
    a = sphere_cloud(1000, 1.0, seed=1)
    idx = NeighborIndex(a.points).knn_batch(a.points[:30], 16)
    ratios = []
    for i, row in enumerate(idx):
        f1 = fit_fundamental_forms(a.points[row], estimate_frame(a.points[row], a.points[i]))
        scaled = a.points * 2.0
        f2 = fit_fundamental_forms(scaled[row], estimate_frame(scaled[row], scaled[i]))
        ratios.append(f1.k1 / f2.k1)
    assert abs(np.median(ratios) - 2.0) < 0.1


# ---------------------------------------------------------------------------
# small ops


def test_normal_from_T():
    assert normal_from_T(_identity_frame()).tolist() == [0, 0, 1]
    frame = AugmentedJacobian(np.zeros(3), np.array([1.0, 0, 0]),
                              np.array([0.0, 0, -1.0]), np.array([0.0, 1.0, 0]))
    assert normal_from_T(frame).tolist() == [0, 1, 0]


def test_lift_identity_frame():
    lifted = lift_to_tangent(_identity_frame(), ParamSample(0.2, 0.5))
    np.testing.assert_allclose(lifted, [0.2, 0.5, 0.0])


def test_lift_zero_sample_is_origin():
    frame = estimate_frame(_sphere_cap(10), np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(lift_to_tangent(frame, ParamSample(0, 0)), frame.origin)


@pytest.mark.parametrize("seed", range(5))
def test_lift_tangent_residual(seed):
    rng = np.random.default_rng(seed)
    frame = estimate_frame(_sphere_cap(seed + 20), np.array([0.0, 0.0, 1.0]))
    sample = ParamSample(*rng.uniform(-2, 2, 2))
    lifted = lift_to_tangent(frame, sample)
    residual = (lifted - frame.origin) @ np.cross(frame.t1, frame.t2)
    assert abs(residual) < 1e-6


def test_normal_displacement_values():
    from pugeo import FundamentalForms

    flat = FundamentalForms(0.0, 0.0)
    assert normal_displacement(flat, ParamSample(3.0, -2.0)) == 0.0
    forms = FundamentalForms(2.0, 0.0)
    assert abs(normal_displacement(forms, ParamSample(0.1, 0.3)) - 0.01) < 1e-12
    sphere = FundamentalForms(1.0, 1.0)
    u = np.sqrt(0.01 / 2)
    assert abs(normal_displacement(sphere, ParamSample(u, u)) - 0.005) < 1e-12


def test_quadric_normal_at_origin_is_t3():
    from pugeo import FundamentalForms

    frame = estimate_frame(_sphere_cap(30), np.array([0.0, 0.0, 1.0]))
    forms = fit_fundamental_forms(_sphere_cap(30), frame)
    n = quadric_normal(forms, ParamSample(0, 0), frame)
    assert np.linalg.norm(n - frame.t3) < 1e-9
    flat = FundamentalForms(0.0, 0.0)
    n2 = quadric_normal(flat, ParamSample(0.4, -0.2), frame)
    assert np.linalg.norm(n2 - frame.t3) < 1e-9


def test_quadric_normal_matches_sphere():
    # unit sphere, frame at the north pole, sample (0.1, 0)
    cap = _sphere_cap(31, n=40)
    center = np.array([0.0, 0.0, 1.0])
    frame = estimate_frame(cap, center)
    forms = fit_fundamental_forms(cap, frame)
    u, v = 0.1, 0.0
    p1 = forms.dir1[0] * frame.t1 + forms.dir1[1] * frame.t2
    p2 = forms.dir2[0] * frame.t1 + forms.dir2[1] * frame.t2
    displaced = (center + u * p1 + v * p2
                 + normal_displacement(forms, ParamSample(u, v)) * frame.t3)
    n = quadric_normal(forms, ParamSample(u, v), frame)
    truth = displaced / np.linalg.norm(displaced)
    angle = np.degrees(np.arccos(min(1.0, abs(n @ truth))))
    assert angle < 2.0


# ---------------------------------------------------------------------------
# frame statistics


def _columns(frames):
    """Stacked (N, 3) t1, t2, t3 of a list of frames."""
    return [np.array([getattr(f, name) for f in frames]) for name in ("t1", "t2", "t3")]


def test_frame_stats_analytic_theta_zero():
    frames = [estimate_frame(_sphere_cap(s + 40), np.array([0.0, 0.0, 1.0]))
              for s in range(10)]
    stats = frame_stats(*_columns(frames), np.zeros(10))
    assert stats.theta_deg.max() < 1e-6
    assert stats.theta_counts[0] == 10


def test_frame_stats_swapped_axis_is_90_degrees():
    frame = AugmentedJacobian(np.zeros(3), np.array([1.0, 0, 0]),
                              np.array([0.0, 1.0, 0]), np.array([0.0, 1.0, 0]))
    stats = frame_stats(*_columns([frame]), [0.0])
    assert abs(stats.theta_deg[0] - 90.0) < 1e-9


def test_frame_stats_degenerate_bucket():
    frame = AugmentedJacobian(np.zeros(3), np.array([1.0, 0, 0]),
                              np.array([0.0, 1.0, 0]), np.zeros(3))
    stats = frame_stats(*_columns([frame]), [])
    assert stats.degenerate == 1


def test_frame_stats_plane_deltas_concentrate_at_zero():
    frames = [estimate_frame(_plane_neighborhood(s), np.zeros(3)) for s in range(5)]
    deltas = np.zeros(50)
    stats = frame_stats(*_columns(frames), deltas)
    assert stats.delta_counts.argmax() == np.nonzero(stats.delta_counts)[0][0]
    tsv = stats.to_tsv()
    assert "theta_deg" in tsv and "delta" in tsv
    assert len(tsv.strip().split("\n")) >= 30 + 50 + 4
