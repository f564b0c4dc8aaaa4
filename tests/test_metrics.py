import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pugeo import (TriangleMesh, chamfer, metric_hd, metric_jsd, metric_p2f,
                   poisson_disk_sample, surface_compare)
from pugeo import PointCloud, metrics, read_mesh
from pugeo.metrics import (MetricReport, _chamfer_hausdorff, point_to_mesh_distances,
                           point_to_triangles, report_metrics)

from helpers import count_index_builds, cube_mesh, force_workers, icosphere, unit_square_mesh
from reference import brute_force_mesh_distance


# ---------------------------------------------------------------------------
# Hausdorff


def test_hd_identical_zero():
    pts = np.random.default_rng(0).normal(size=(25, 3))
    assert metric_hd(pts, pts) == 0.0


def test_hd_hand_value():
    x = np.array([[0, 0, 0], [1, 0, 0]], float)
    y = np.array([[0, 0, 0], [0, 1, 0]], float)
    assert abs(metric_hd(x, y) - 1.0) < 1e-12


def test_hd_outlier_dominates():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 0.1, size=(30, 3))
    y = x.copy()
    x = np.concatenate([x, [[10.0, 0, 0]]])
    d = metric_hd(x, y)
    assert abs(d - np.linalg.norm(y - [10.0, 0, 0], axis=1).min()) < 1e-12
    assert d > 9.5


def test_hd_symmetric():
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(20, 3)), rng.normal(size=(25, 3))
    assert metric_hd(x, y) == metric_hd(y, x)


# ---------------------------------------------------------------------------
# JSD


def test_jsd_identical_zero():
    pts = np.random.default_rng(3).normal(size=(100, 3))
    assert metric_jsd(pts, pts) == 0.0


def test_jsd_disjoint_is_ln2():
    x = np.random.default_rng(4).uniform(0, 1, size=(200, 3))
    y = x + 50.0  # far apart: no shared voxels
    assert abs(metric_jsd(x, y) - np.log(2.0)) < 1e-9


def test_jsd_symmetric():
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(80, 3)), rng.normal(size=(90, 3))
    assert abs(metric_jsd(x, y) - metric_jsd(y, x)) < 1e-12


def test_jsd_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(5):
        x, y = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
        assert metric_jsd(x, y) >= 0.0


# ---------------------------------------------------------------------------
# point-to-triangle and point-to-mesh distance


def test_point_on_surface_zero_distance():
    mesh = unit_square_mesh()
    assert brute_force_mesh_distance([0.25, 0.25, 0.0], mesh) < 1e-12


def test_point_above_triangle_interior():
    mesh = unit_square_mesh()
    assert abs(brute_force_mesh_distance([0.25, 0.25, 1.0], mesh) - 1.0) < 1e-12


def test_point_beyond_edge_uses_segment():
    mesh = unit_square_mesh()
    # beyond the x=1 edge: closest point is (1, 0.5, 0)
    d = brute_force_mesh_distance([2.0, 0.5, 0.3], mesh)
    assert abs(d - np.sqrt(1.0 + 0.09)) < 1e-12


def test_point_beyond_vertex_uses_vertex():
    mesh = unit_square_mesh()
    d = brute_force_mesh_distance([-1.0, -1.0, 0.0], mesh)
    assert abs(d - np.sqrt(2.0)) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_bvh_equals_brute_force_bitwise(seed):
    """The pruned batched distances equal the full scan over every triangle."""
    rng = np.random.default_rng(seed)
    verts = rng.normal(size=(60, 3))
    tris = rng.integers(0, 60, size=(50, 3))
    keep = (tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2]) & (tris[:, 0] != tris[:, 2])
    mesh = TriangleMesh(verts, tris[keep])
    queries = rng.normal(size=(40, 3)) * 2
    for q, d in zip(queries, point_to_mesh_distances(queries, mesh)):
        assert d == brute_force_mesh_distance(q, mesh)


def test_point_to_triangles_vectorized_consistency():
    rng = np.random.default_rng(11)
    a, b, c = rng.normal(size=(3, 16, 3))
    p = rng.normal(size=3)
    batch = point_to_triangles(p, a, b, c)
    singles = [point_to_triangles(p, a[i:i + 1], b[i:i + 1], c[i:i + 1])[0]
               for i in range(16)]
    np.testing.assert_array_equal(batch, singles)


# ---------------------------------------------------------------------------
# P2F


def test_p2f_points_on_mesh():
    mesh = cube_mesh()
    cloud = poisson_disk_sample(mesh, 60, seed=0)
    mean, std = metric_p2f(cloud.points, mesh)
    assert mean < 1e-9
    assert std < 1e-9


def test_p2f_constant_offset():
    mesh = unit_square_mesh()
    pts = np.array([[0.3, 0.3, 0.5], [0.6, 0.2, 0.5], [0.5, 0.8, 0.5]])
    mean, std = metric_p2f(pts, mesh)
    assert abs(mean - 0.5) < 1e-12
    assert std < 1e-12


def test_p2f_empty_mesh_raises():
    mesh = TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int))
    with pytest.raises(ValueError):
        metric_p2f(np.zeros((1, 3)), mesh)


def test_p2f_overflowing_distance_names_the_point():
    # the squared distance to 1e300 overflows: the kd-tree returns inf and
    # no centroid, which once indexed past the end of the triangles
    mesh = read_mesh(os.path.join(os.path.dirname(__file__), "fixtures", "icosphere.obj"))
    queries = np.array([[0.0, 0.0, 0.5], [1e300, 0.0, 0.0]])
    with pytest.raises(ValueError, match="^query point 1: its squared distance to the "
                                         "nearest triangle centroid overflows float64$"):
        point_to_mesh_distances(queries, mesh)


@pytest.mark.parametrize("first_k", [1, 8])
def test_p2f_skips_a_farther_centroid_whose_distance_overflows(monkeypatch, first_k):
    # two point triangles share the radius-0 bucket; the squared distance to
    # the far one overflows, in the first query (k=8) or a later one (k=1),
    # but it lies beyond the near one's reach
    verts = np.array([[0.0, 0.0, 0.0]] * 3 + [[1e300, 0.0, 0.0]] * 3)
    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
    monkeypatch.setattr(metrics, "_FIRST_K", first_k)
    distances = point_to_mesh_distances([[0.0, 0.0, 1.0], [0.5, 0.0, 0.0]], mesh)
    assert distances.tolist() == [1.0, 0.5]


# ---------------------------------------------------------------------------
# surface comparison


def test_surface_compare_same_mesh_noise_floor():
    mesh = icosphere(2)
    cd, hd, jsd = surface_compare(mesh, mesh, n=400, seed=0)
    # independent samplings: nonzero, but below twice the mean sample spacing
    areas = 0.5 * np.linalg.norm(
        np.cross(mesh.vertices[mesh.triangles[:, 1]] - mesh.vertices[mesh.triangles[:, 0]],
                 mesh.vertices[mesh.triangles[:, 2]] - mesh.vertices[mesh.triangles[:, 0]]),
        axis=1)
    spacing = np.sqrt(areas.sum() / 400)
    assert 0.0 < cd < 2.0 * spacing
    assert jsd >= 0.0


def test_identical_sampler_state_gives_zero_cd():
    mesh = icosphere(2)
    a = poisson_disk_sample(mesh, 200, seed=5)
    b = poisson_disk_sample(mesh, 200, seed=5)
    assert chamfer(a.points, b.points) == 0.0


def test_surface_compare_translation_lower_bound():
    mesh = icosphere(2)
    shift = np.array([3.0, 0.0, 0.0])
    moved = TriangleMesh(mesh.vertices + shift, mesh.triangles.copy(),
                         mesh.normals.copy())
    cd, hd, jsd = surface_compare(mesh, moved, n=300, seed=1)
    areas = 0.5 * np.linalg.norm(
        np.cross(mesh.vertices[mesh.triangles[:, 1]] - mesh.vertices[mesh.triangles[:, 0]],
                 mesh.vertices[mesh.triangles[:, 2]] - mesh.vertices[mesh.triangles[:, 0]]),
        axis=1)
    spacing = np.sqrt(areas.sum() / 300)
    assert hd >= np.linalg.norm(shift) - 2.0 * spacing


@pytest.mark.parametrize("workers", [1, 2])
def test_surface_compare_samples_both_meshes_on_workers(monkeypatch, workers):
    # with two workers the samplings wait for each other: they run at once,
    # and the samples are bitwise the serial ones
    mesh_a, mesh_b = icosphere(2), cube_mesh()
    seq_a, seq_b = np.random.SeedSequence(7).spawn(2)
    a = poisson_disk_sample(mesh_a, 300, int(seq_a.generate_state(1)[0]))
    b = poisson_disk_sample(mesh_b, 300, int(seq_b.generate_state(1)[0]))
    expected = (*_chamfer_hausdorff(a.points, b.points), metric_jsd(a.points, b.points))
    force_workers(monkeypatch, workers)
    barrier, seen, drawn = threading.Barrier(workers, timeout=30), set(), {}

    def meeting(mesh, n, seed):
        seen.add(threading.current_thread())
        barrier.wait()
        drawn[id(mesh)] = poisson_disk_sample(mesh, n, seed)
        return drawn[id(mesh)]

    monkeypatch.setattr(metrics, "poisson_disk_sample", meeting)
    assert surface_compare(mesh_a, mesh_b, n=300, seed=7) == expected
    assert len(seen) == workers and threading.main_thread() in seen
    for mesh, sample in ((mesh_a, a), (mesh_b, b)):
        assert drawn[id(mesh)].points.tobytes() == sample.points.tobytes()
        assert drawn[id(mesh)].normals.tobytes() == sample.normals.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_surface_compare_raises_the_first_mesh_error(monkeypatch, workers):
    # with two workers mesh_b fails first in time; mesh_a's error still wins
    force_workers(monkeypatch, workers)
    failed_b = threading.Event()
    mesh_a, mesh_b = icosphere(1), cube_mesh()

    def failing(mesh, n, seed):
        if mesh is mesh_b:
            failed_b.set()
            raise ValueError("mesh_b")
        failed_b.wait(timeout=30 if workers > 1 else 0)
        raise ValueError("mesh_a")

    monkeypatch.setattr(metrics, "poisson_disk_sample", failing)
    with pytest.raises(ValueError, match="^mesh_a$"):
        surface_compare(mesh_a, mesh_b, n=10)
    assert failed_b.is_set() == (workers > 1)


def test_report_metrics_fields():
    mesh = icosphere(2)
    dense = poisson_disk_sample(mesh, 300, seed=2)
    report = report_metrics(dense, dense, mesh, factor=4, inputs={"pred": "x.xyz"})
    data = report.to_dict()
    for key in ("cd", "hd", "jsd", "p2f_mean", "p2f_std"):
        assert key in data
    assert data["cd"] == 0.0 and data["hd"] == 0.0 and data["jsd"] == 0.0
    assert data["factor"] == 4
    assert report.pred_count == 300


def test_report_metrics_pairs_the_sets_once(monkeypatch):
    # CD and HD reduce one nearest-point pairing: one tree per set
    mesh = icosphere(2)
    pred = poisson_disk_sample(mesh, 120, seed=3)
    gt = poisson_disk_sample(mesh, 200, seed=4)
    builds = count_index_builds(monkeypatch)
    report = report_metrics(pred, gt, mesh)
    assert builds == [200, 120]
    assert report.cd == chamfer(pred.points, gt.points)
    assert report.hd == metric_hd(pred.points, gt.points)


# ---------------------------------------------------------------------------
# P2F beside the pairing metrics on worker threads


@settings(max_examples=25, deadline=None)
@given(workers=st.integers(1, 3), pred_count=st.integers(1, 200),
       gt_count=st.integers(1, 300), seed=st.integers(0, 2**16), subdiv=st.integers(0, 2))
def test_report_metrics_equals_the_serial_metrics_property(workers, pred_count, gt_count, seed,
                                                           subdiv):
    rng = np.random.default_rng(seed)
    mesh = icosphere(subdiv)
    pred = PointCloud(rng.normal(size=(pred_count, 3)))
    gt = PointCloud(rng.normal(size=(gt_count, 3)))
    cd, hd = _chamfer_hausdorff(pred.points, gt.points)
    p2f_mean, p2f_std = metric_p2f(pred.points, mesh)
    expected = MetricReport(cd=cd, hd=hd, jsd=metric_jsd(pred.points, gt.points),
                            p2f_mean=p2f_mean, p2f_std=p2f_std, pred_count=pred_count,
                            gt_count=gt_count, factor=2, inputs={"pred": "p.xyz"})
    with pytest.MonkeyPatch.context() as patch:
        force_workers(patch, workers)
        report = report_metrics(pred, gt, mesh, factor=2, inputs={"pred": "p.xyz"})
    assert report == expected


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("empty", ["pred", "gt_dense"])
def test_report_metrics_raises_the_pairing_error_first(monkeypatch, workers, empty):
    # an empty pred fails CD/HD (task 0) and P2F (task 1): the serial order wins
    force_workers(monkeypatch, workers)
    cloud = PointCloud(np.random.default_rng(0).normal(size=(10, 3)))
    none = PointCloud(np.zeros((0, 3)))
    pred, gt = (none, cloud) if empty == "pred" else (cloud, none)
    with pytest.raises(ValueError, match="^chamfer and hausdorff require non-empty point sets$"):
        report_metrics(pred, gt, icosphere(1))


@pytest.mark.parametrize("workers", [1, 2])
def test_report_metrics_raises_a_p2f_error_after_the_pairing(monkeypatch, workers):
    force_workers(monkeypatch, workers)
    cloud = PointCloud(np.random.default_rng(0).normal(size=(10, 3)))
    flat = TriangleMesh(np.eye(3), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="^mesh has no triangles$"):
        report_metrics(cloud, cloud, flat)


def test_report_metrics_one_worker_starts_no_thread(monkeypatch):
    mesh = icosphere(2)
    pred = poisson_disk_sample(mesh, 120, seed=3)
    gt = poisson_disk_sample(cube_mesh(), 200, seed=4)
    force_workers(monkeypatch, 2)
    expected = report_metrics(pred, gt, mesh)
    force_workers(monkeypatch, 1)

    def refuse(self):
        raise AssertionError("one worker must not start a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert report_metrics(pred, gt, mesh) == expected


def test_report_metrics_scores_p2f_beside_the_pairing_metrics(monkeypatch):
    # JSD and P2F each wait until the other has started: they run at once
    force_workers(monkeypatch, 2)
    barrier = threading.Barrier(2, timeout=30)
    seen = set()

    def meeting(real):
        def wrapped(*args):
            seen.add(threading.current_thread())
            barrier.wait()
            return real(*args)
        return wrapped

    monkeypatch.setattr(metrics, "metric_jsd", meeting(metric_jsd))
    monkeypatch.setattr(metrics, "metric_p2f", meeting(metric_p2f))
    mesh = icosphere(1)
    cloud = poisson_disk_sample(mesh, 100, seed=5)
    report = report_metrics(cloud, cloud, mesh)
    assert len(seen) == 2 and threading.main_thread() in seen
    assert report.cd == 0.0 and report.jsd == 0.0
