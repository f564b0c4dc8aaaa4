import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from pugeo import (PointCloud, denormalize, extract_patches, farthest_point_sample,
                   fuse_patches, poisson_disk_sample)
from pugeo import sampling, trainer
from pugeo.errors import GeometryError
from pugeo.io import TriangleMesh
from pugeo.sampling import NeighborIndex, count_uncovered, nearest_pairs, patch_count
from pugeo.trainer import TrainExample, _random_rotation, augment_example

from helpers import (brute_force_knn, brute_force_nearest, clustered_cloud, cube_mesh,
                     icosphere, unit_rows, unit_square_mesh)


# ---------------------------------------------------------------------------
# farthest point sampling


def test_fps_single_point():
    pts = np.random.default_rng(0).normal(size=(10, 3))
    assert farthest_point_sample(pts, 1, seed_index=0).tolist() == [0]


def test_fps_hand_example():
    # after 0 and 10, min-dists are 1 and 2, so index 2 wins
    pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [10, 0, 0]], float)
    assert farthest_point_sample(pts, 3, seed_index=0).tolist() == [0, 3, 2]


def test_fps_full_count_is_permutation():
    pts = np.random.default_rng(1).normal(size=(17, 3))
    idx = farthest_point_sample(pts, 17)
    assert sorted(idx.tolist()) == list(range(17))


def test_fps_count_too_large():
    with pytest.raises(ValueError):
        farthest_point_sample(np.zeros((3, 3)), 4)
    with pytest.raises(ValueError, match="requested 0 samples"):
        farthest_point_sample(np.zeros((3, 3)), 0)


@pytest.mark.parametrize("seed", range(3))
def test_fps_greedy_property(seed):
    # recompute: every selected index maximizes the min distance at its step
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(48, 3))
    order = farthest_point_sample(pts, 20, seed_index=0)
    for step in range(1, 20):
        chosen = order[:step]
        min_dists = np.min(
            np.linalg.norm(pts[:, None, :] - pts[chosen][None, :, :], axis=2), axis=1)
        best = np.max(min_dists)
        assert min_dists[order[step]] == best
        # tie rule: no smaller index achieves the same max
        winners = np.nonzero(min_dists == best)[0]
        assert order[step] == winners.min()


# ---------------------------------------------------------------------------
# k nearest neighbors


def _knn(points, query, k):
    """The k nearest neighbors of one query, through a one-row batch."""
    return NeighborIndex(points).knn_batch(query, k)[0]


def test_knn_query_on_cloud_point():
    pts = np.random.default_rng(2).normal(size=(30, 3))
    assert _knn(pts, pts[7], 1).tolist() == [7]


def test_knn_hand_example():
    pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [10, 0, 0]], float)
    assert _knn(pts, [0.9, 0, 0], 2).tolist() == [1, 0]


def test_knn_tie_lowest_index_first():
    pts = np.array([[1, 0, 0], [-1, 0, 0], [5, 5, 5]], float)
    assert _knn(pts, [0, 0, 0], 2).tolist() == [0, 1]


def test_knn_k_too_large():
    with pytest.raises(ValueError):
        _knn(np.zeros((3, 3)), [0, 0, 0], 4)


@pytest.mark.parametrize("seed", range(10))
def test_knn_equals_brute_force(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(200, 3))
    index = NeighborIndex(pts)
    queries = rng.normal(size=(20, 3))
    for k in (1, 5, 17):
        batch = index.knn_batch(queries, k)
        for qi, q in enumerate(queries):
            expected = brute_force_knn(pts, q, k)
            assert index.knn_batch(q, k)[0].tolist() == expected.tolist()
            assert batch[qi].tolist() == expected.tolist()


def test_knn_brute_force_with_duplicates():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(40, 3))
    pts = np.concatenate([base, base[:10]], axis=0)  # exact duplicates
    index = NeighborIndex(pts)
    for q in base[:5]:
        for k in (1, 3, 12):
            assert index.knn_batch(q, k)[0].tolist() == brute_force_knn(pts, q, k).tolist()


def test_nearest_pairs_matches_brute_force():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=(100, 3))
    phi, psi = nearest_pairs(x, y)
    assert np.array_equal(phi, brute_force_nearest(x, y))
    assert np.array_equal(psi, brute_force_nearest(y, x))


def test_nearest_pairs_tie_lowest():
    pair = np.array([[1, 0, 0], [-1, 0, 0]], float)
    origin = np.zeros((1, 3))  # equidistant from both rows of `pair`
    phi, psi = nearest_pairs(origin, pair)
    assert phi.tolist() == [0] and psi.tolist() == [0, 0]
    phi, psi = nearest_pairs(pair, origin)
    assert phi.tolist() == [0, 0] and psi.tolist() == [0]
    assert psi.tolist() == brute_force_nearest(origin, pair).tolist()


# ---------------------------------------------------------------------------
# Poisson-disk sampling


def test_poisson_single_point_on_surface():
    mesh = unit_square_mesh()
    cloud = poisson_disk_sample(mesh, 1, seed=0)
    assert len(cloud) == 1
    p = cloud.points[0]
    assert abs(p[2]) < 1e-9
    assert 0 - 1e-9 <= p[0] <= 1 + 1e-9 and 0 - 1e-9 <= p[1] <= 1 + 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_poisson_square_spacing_bound(seed):
    # hexagonal-packing bound: 0.5 * sqrt(2*area / (sqrt(3)*n))
    cloud = poisson_disk_sample(unit_square_mesh(), 100, seed)
    assert len(cloud) == 100
    bound = 0.5 * np.sqrt(2.0 * 1.0 / (np.sqrt(3) * 100))
    assert pdist(cloud.points).min() >= bound


def test_poisson_deterministic():
    mesh = icosphere(2)
    a = poisson_disk_sample(mesh, 64, seed=9)
    b = poisson_disk_sample(mesh, 64, seed=9)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.normals, b.normals)


def test_poisson_points_on_triangle_planes():
    mesh = cube_mesh()
    cloud = poisson_disk_sample(mesh, 50, seed=1)
    v, t = mesh.vertices, mesh.triangles
    normals = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    for p in cloud.points:
        plane_dist = np.abs(np.einsum("ij,ij->i", p - v[t[:, 0]], normals))
        assert plane_dist.min() < 1e-6


def test_poisson_zero_area_mesh():
    import pugeo

    degenerate = pugeo.TriangleMesh(np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0.0]]),
                                    np.array([[0, 1, 2]]))
    with pytest.raises(GeometryError):
        poisson_disk_sample(degenerate, 5, seed=0)


def test_poisson_tiny_mesh_samples_its_scaled_copy_exactly():
    # a 2^-300 cube's triangle areas underflow unless taken at an exact scale
    cube = cube_mesh()
    tiny = TriangleMesh(np.ldexp(cube.vertices, -300), cube.triangles)
    ordinary, scaled = poisson_disk_sample(cube, 64, seed=2), poisson_disk_sample(tiny, 64, seed=2)
    assert np.array_equal(scaled.points, np.ldexp(ordinary.points, -300))
    assert np.array_equal(scaled.normals, ordinary.normals)


def test_poisson_normals_unit_and_interpolated():
    cloud = poisson_disk_sample(icosphere(2), 128, seed=4)
    lengths = np.linalg.norm(cloud.normals, axis=1)
    np.testing.assert_allclose(lengths, 1.0, atol=1e-12)
    # icosphere normals are radial; interpolation stays close to radial
    radial = cloud.points / np.linalg.norm(cloud.points, axis=1, keepdims=True)
    dots = np.einsum("ij,ij->i", cloud.normals, radial)
    assert dots.min() > 0.99


# ---------------------------------------------------------------------------
# patches


def test_dart_throw_zero_vertex_normals_fall_back_to_face_normals():
    # two triangles, in the planes z = 0 and x = 5, with all-zero vertex normals
    mesh = TriangleMesh([[0, 0, 0], [2, 0, 0], [0, 3, 0], [5, 0, 0], [5, 1, 0], [5, 0, 1]],
                        [[0, 1, 2], [3, 4, 5]], np.zeros((6, 3)))
    points, normals = sampling._dart_throw(mesh, 200, np.random.default_rng(0))
    on_z0 = points[:, 2] == 0.0  # the other triangle's samples have z > 0
    assert 0 < on_z0.sum() < 200
    assert np.array_equal(normals[on_z0], np.tile([0.0, 0.0, 1.0], (on_z0.sum(), 1)))
    assert np.array_equal(normals[~on_z0], np.tile([1.0, 0.0, 0.0], ((~on_z0).sum(), 1)))


def test_extract_patches_whole_cloud():
    pts = np.random.default_rng(5).normal(size=(64, 3))
    patches = extract_patches(PointCloud(pts), 64, coverage=1.0)
    assert len(patches) == 1
    assert sorted(patches[0].indices.tolist()) == list(range(64))


def test_extract_patches_count():
    pts = np.random.default_rng(6).normal(size=(512, 3))
    patches = extract_patches(PointCloud(pts), 256, coverage=3.0)
    assert len(patches) == 6
    assert all(len(p.indices) == 256 for p in patches)


def test_patch_normalization_contract():
    pts = np.random.default_rng(7).normal(size=(128, 3)) * 5 + 2
    for patch in extract_patches(PointCloud(pts), 32, coverage=2.0):
        assert np.abs(patch.points.mean(axis=0)).max() < 1e-6
        assert abs(np.linalg.norm(patch.points, axis=1).max() - 1.0) < 1e-6
        np.testing.assert_allclose(
            patch.points * patch.scale + patch.centroid, pts[patch.indices])


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 10**6), patch_size=st.integers(1, 10**6),
       coverage=st.floats(1e-300, 1e308, allow_nan=False, allow_infinity=False))
def test_patch_count_is_the_clamped_ceil(m, patch_size, coverage):
    # ceil(coverage*M/N) capped at M; a product that overflows to inf is
    # clamped before the ceil, so it is one patch per point, not an error
    per = coverage * m / patch_size
    expected = m if per == math.inf else min(m, math.ceil(per))
    assert patch_count(m, patch_size, coverage) == expected


@pytest.mark.parametrize("patch_size,coverage,message", [
    (0, 1.0, "patch size must be >= 1, got 0"),
    (4, 0.0, "coverage must be finite and > 0, got 0.0"),
    (4, math.inf, "coverage must be finite and > 0, got inf"),
    (4, math.nan, "coverage must be finite and > 0, got nan"),
])
def test_patch_count_rejects_bad_settings(patch_size, coverage, message):
    with pytest.raises(ValueError) as info:
        patch_count(10, patch_size, coverage)
    assert str(info.value) == message


def test_patch_seed_is_the_chosen_seed_not_a_lower_duplicate():
    # rows 20-39 repeat rows 0-19, so the kNN of a seed s >= 20 lists its
    # duplicate s-20 first, at distance 0
    pts = np.random.default_rng(10).normal(size=(20, 3))
    cloud = PointCloud(np.vstack([pts, pts]))
    patches = extract_patches(cloud, 8, coverage=4.0, rng=np.random.default_rng(3))
    seeds = np.random.default_rng(3).choice(40, 20, replace=False).tolist()
    assert [patch.seed for patch in patches] == seeds
    assert [patch.indices[0] for patch in patches] == [s % 20 for s in seeds]
    assert any(s >= 20 for s in seeds)
    fps = extract_patches(cloud, 8, coverage=4.0)
    assert [patch.seed for patch in fps] == farthest_point_sample(cloud, 20).tolist()


def test_patch_size_too_large():
    with pytest.raises(ValueError):
        extract_patches(PointCloud(np.zeros((4, 3))), 5)


def test_uncovered_points_counted_when_coverage_promises_full():
    # kNN patches around FPS seeds can miss points even though coverage >= 1
    # promises each point lands somewhere
    cloud = clustered_cloud()
    patches = extract_patches(cloud, 64, coverage=1.0)
    covered = set(np.concatenate([p.indices for p in patches]).tolist())
    assert count_uncovered(patches, len(cloud)) == len(cloud) - len(covered) > 0
    full = extract_patches(cloud, 64, coverage=3.0)
    assert count_uncovered(full, len(cloud)) == 0


def test_denormalize_identity_and_affine():
    patch = extract_patches(PointCloud(np.random.default_rng(8).normal(size=(16, 3))),
                            16, coverage=1.0)[0]
    np.testing.assert_allclose(denormalize(patch, patch.points),
                               patch.points * patch.scale + patch.centroid)
    import pugeo

    simple = pugeo.Patch(indices=np.arange(1), points=np.zeros((1, 3)),
                         centroid=np.array([1.0, 1.0, 1.0]), scale=2.0, seed=0)
    np.testing.assert_allclose(denormalize(simple, np.zeros((1, 3))), [[1, 1, 1]])


def test_denormalize_inverts_normalization():
    pts = np.random.default_rng(9).normal(size=(40, 3)) * 3 + 1
    patch = extract_patches(PointCloud(pts), 40, coverage=1.0)[0]
    assert np.abs(denormalize(patch, patch.points) - pts[patch.indices]).max() < 1e-6


# ---------------------------------------------------------------------------
# augmentation of training patches (trainer.augment_example)


def _random_example(seed):
    rng = np.random.default_rng(seed)
    return TrainExample(sparse_points=rng.normal(size=(32, 3)),
                        sparse_normals=unit_rows(rng.normal(size=(32, 3))),
                        dense_points=rng.normal(size=(128, 3)),
                        dense_normals=unit_rows(rng.normal(size=(128, 3))))


def test_augment_keeps_normals_unit():
    out = augment_example(_random_example(1), np.random.default_rng(5))
    for normals in (out.sparse_normals, out.dense_normals):
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-9)


def test_augment_preserves_distance_ratios_without_jitter(monkeypatch):
    monkeypatch.setattr(trainer, "_JITTER_SIGMA", 0.0)
    example = _random_example(2)
    out = augment_example(example, np.random.default_rng(3))
    # the scale is the draw that follows the rotation quaternion
    replay = np.random.default_rng(3)
    replay.normal(size=4)
    scale = replay.uniform(0.8, 1.2)
    for before, after in ((example.sparse_points, out.sparse_points),
                          (example.dense_points, out.dense_points)):
        np.testing.assert_allclose(pdist(after) / pdist(before), scale, rtol=1e-9)


def test_augment_deterministic_given_rng_state():
    example = _random_example(4)
    a = augment_example(example, np.random.default_rng(11))
    b = augment_example(example, np.random.default_rng(11))
    assert np.array_equal(a.sparse_points, b.sparse_points)
    assert np.array_equal(a.dense_points, b.dense_points)


def test_augment_params_rotation_validated():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        rot = _random_rotation(rng)
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), rtol=0, atol=1e-12)
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# fusion


def test_fuse_exact_count_and_dedup():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(50, 3))
    normals = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    a = PointCloud(pts, normals)
    b = PointCloud(pts.copy(), normals.copy())  # exact duplicates
    fused = fuse_patches([a, b], 50)
    assert len(fused) == 50
    # FPS never picks a duplicate before distinct points are exhausted
    assert pdist(fused.points).min() > 0


def test_fuse_single_patch_identity_up_to_order():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(20, 3))
    fused = fuse_patches([PointCloud(pts)], 20)
    assert sorted(map(tuple, fused.points)) == sorted(map(tuple, pts))


def test_fuse_insufficient_points():
    with pytest.raises(ValueError):
        fuse_patches([PointCloud(np.zeros((3, 3)))], 5)
