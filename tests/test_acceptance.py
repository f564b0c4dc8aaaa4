"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import os
import shutil
import time

import numpy as np
import pytest

import pugeo.autodiff as ad
from pugeo import (PointCloud, PUGeoConfig, PUGeoNet, LossWeights, chamfer, load_model,
                   metric_hd, metric_jsd, metric_p2f, poisson_disk_sample, read_xyz,
                   save_model, upsample_analytic, write_xyz)
from pugeo.cli import main
from pugeo.geometry import estimate_frames, fit_curvatures, frame_stats
from pugeo.io import TriangleMesh
from pugeo.losses import chamfer_loss, normal_loss_graph
from pugeo.metrics import point_to_mesh_distances
from pugeo.model import _knn_indices
from pugeo.sampling import NeighborIndex, nearest_pairs
from pugeo.trainer import TrainExample, _example_losses

from helpers import (brute_force_knn, cast_model, cube_mesh, icosphere, max_rel_err,
                     numeric_gradient, sphere_cloud, tangent_points, unit_rows)
from reference import brute_force_mesh_distance, normal_loss_unoriented, total_loss

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. curvature oracle


def _knn_curvatures(points, k=16):
    """(N, 2) curvatures of every point's kNN neighborhood and the collinear flags."""
    neighborhoods = points[NeighborIndex(points).knn_batch(points, k)]
    frames, collinear = estimate_frames(neighborhoods, points)
    return fit_curvatures(neighborhoods, points, frames)[0], collinear


def test_criterion_1_curvature_oracle():
    start = time.monotonic()
    cloud = sphere_cloud(5000, 1.0, seed=0)
    curvatures, collinear = _knn_curvatures(cloud.points)
    good = ~collinear & (np.abs(curvatures - 1.0) <= 0.1).all(axis=1)
    fraction = np.count_nonzero(good) / len(cloud)

    g = np.stack(np.meshgrid(np.linspace(0, 1, 16), np.linspace(0, 1, 16)), -1)
    plane = np.column_stack([g.reshape(-1, 2), np.zeros(256)])
    curvatures, collinear = _knn_curvatures(plane)
    plane_worst = np.inf if collinear.any() else float(np.abs(curvatures).max())
    elapsed = time.monotonic() - start
    _report(1, "curvature oracle", fraction >= 0.9 and plane_worst < 1e-6 and elapsed < 10.0,
            f"sphere pass {fraction:.3f}, plane worst {plane_worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. second-order benefit


def test_criterion_2_second_order_benefit():
    start = time.monotonic()
    cloud = sphere_cloud(1000, 2.0, seed=1)
    with_delta = upsample_analytic(cloud, 4, k=16)
    without = tangent_points(with_delta)
    err_with = np.median(np.abs(np.linalg.norm(with_delta.points, axis=1) - 2.0))
    err_without = np.median(np.abs(np.linalg.norm(without, axis=1) - 2.0))
    elapsed = time.monotonic() - start
    _report(2, "second-order benefit", err_with <= 0.5 * err_without and elapsed < 10.0,
            f"median radial error {err_with:.2e} vs {err_without:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. frame identity and displacement histograms


def _delta_table(tsv: str) -> list[tuple[float, float, int]]:
    rows = []
    in_delta = False
    for line in tsv.strip().split("\n"):
        if line.startswith("# delta"):
            in_delta = True
            continue
        if in_delta and line and not line.startswith(("#", "lo")):
            lo, hi, count = line.split("\t")
            rows.append((float(lo), float(hi), int(count)))
    return rows


def test_criterion_3_frame_identity(tmp_path, capsys):
    sphere = sphere_cloud(1500, 1.0, seed=2)
    result = upsample_analytic(sphere, 4, k=16)
    stats = frame_stats(result.frames, result.deltas)
    theta_ok = stats.degenerate == 0 and float(stats.theta_deg.max()) < 1e-6

    # sphere displacements sit in a narrow positive band
    deltas = result.deltas
    positive = float(np.mean(deltas > 0))
    narrow = float(np.percentile(deltas, 95)) <= 3.0 * float(np.median(deltas))

    # cube displacements concentrate at zero (faces are flat)
    cube_cloud = poisson_disk_sample(cube_mesh(), 1500, seed=3)
    cube_path = tmp_path / "cube.xyz"
    write_xyz(cube_cloud, cube_path)
    rc = main(["inspect", "frames", "--input", str(cube_path), "--method", "analytic",
               "--k", "16", "--factor", "4"])
    tsv = capsys.readouterr().out
    assert rc == 0
    table = _delta_table(tsv)
    lo, hi, _ = max(table, key=lambda row: row[2])
    cube_mode_at_zero = lo <= 0.0 <= hi or (lo <= 1e-12 and hi >= -1e-12)

    _report(3, "frame identity",
            theta_ok and positive >= 0.99 and narrow and cube_mode_at_zero,
            f"theta max {stats.theta_deg.max():.2e} deg, sphere positive {positive:.3f}, "
            f"cube mode bin [{lo:.2e},{hi:.2e}]")


# ---------------------------------------------------------------------------
# 4. metric oracles and accelerated-path equality


def test_criterion_4_metric_oracles():
    x = np.array([[0, 0, 0], [1, 0, 0]], float)
    y = np.array([[0, 0, 0], [0, 1, 0]], float)
    hand_ok = (chamfer(x, y) == 1.0 and metric_hd(x, y) == 1.0
               and normal_loss_unoriented([1, 0, 0], [0, 1, 0]) == 2.0
               and abs(total_loss(0.01, 0.5, 0.2) - 1.7) < 1e-12)
    disjoint = metric_jsd(np.random.default_rng(0).uniform(0, 1, (100, 3)),
                          np.random.default_rng(1).uniform(50, 51, (100, 3)))
    jsd_ok = abs(disjoint - np.log(2.0)) < 1e-12
    square = TriangleMesh(np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float),
                          np.array([[0, 1, 2], [0, 2, 3]]))
    mean, std = metric_p2f(np.array([[0.25, 0.25, 1.0]]), square)
    p2f_ok = mean == 1.0 and std == 0.0

    knn_ok = True
    exact_ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(200, 3))
        index = NeighborIndex(pts)
        queries = rng.normal(size=(25, 3))
        for k in (1, 7, 31):
            batch = index.knn_batch(queries, k)
            for qi, q in enumerate(queries):
                expected = brute_force_knn(pts, q, k)
                if (batch[qi] != expected).any() or (index.knn_batch(q, k)[0] != expected).any():
                    knn_ok = False
        verts = rng.normal(size=(60, 3))
        tris = rng.integers(0, 60, size=(50, 3))
        keep = ((tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
                & (tris[:, 0] != tris[:, 2]))
        mesh = TriangleMesh(verts, tris[keep])
        queries = rng.normal(size=(30, 3)) * 2
        for q, d in zip(queries, point_to_mesh_distances(queries, mesh)):
            if d != brute_force_mesh_distance(q, mesh):
                exact_ok = False
    _report(4, "metric oracles", hand_ok and jsd_ok and p2f_ok and knn_ok and exact_ok,
            f"hand {hand_ok}, jsd {jsd_ok}, p2f {p2f_ok}, knn {knn_ok}, exact p2f {exact_ok}")


# ---------------------------------------------------------------------------
# 5. gradient integrity


def test_criterion_5_gradient_integrity():
    start = time.monotonic()
    cfg = PUGeoConfig(factor=2, patch_size=8, k=3, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    # checks rerun the training-precision model's graph in wide float
    net = cast_model(PUGeoNet(cfg, seed=3, dtype=np.float32), np.float64)
    rng = np.random.default_rng(5)
    example = TrainExample(
        sparse_points=rng.normal(size=(8, 3)),
        sparse_normals=unit_rows(rng.normal(size=(8, 3))),
        dense_points=rng.normal(size=(16, 3)),
        dense_normals=unit_rows(rng.normal(size=(16, 3))))
    weights = LossWeights()

    def loss_value():
        total, *_ = _example_losses(net, example, weights)
        return total

    grads = ad.backward(loss_value())
    worst = 0.0
    worst_name = ""
    for name, p in net.named_params():
        analytic = grads[p] if p in grads else np.zeros_like(p.data)
        numeric = numeric_gradient(lambda: loss_value().item(), p)
        err = max_rel_err(analytic, numeric)
        if err > worst:
            worst, worst_name = err, name

    # the three loss terms, checked against their input tensors
    pred_pts = ad.Tensor(rng.normal(size=(10, 3)), requires_grad=True)
    pred_n = ad.Tensor(unit_rows(rng.normal(size=(10, 3))), requires_grad=True)
    gt_pts = rng.normal(size=(14, 3))
    gt_n = unit_rows(rng.normal(size=(14, 3)))
    # the pairing is taken once, outside the perturbed functions, as training does
    phi, psi = nearest_pairs(pred_pts.data, gt_pts)
    checks = []
    for build, target in (
            (lambda: chamfer_loss(pred_pts, gt_pts, phi, psi), pred_pts),
            (lambda: normal_loss_graph(pred_n, gt_n[:10]), pred_n),
            (lambda: normal_loss_graph(pred_n, gt_n[phi]), pred_n)):
        grads = ad.backward(build())
        checks.append(max_rel_err(grads[target], numeric_gradient(lambda: build().item(),
                                                                  target)))
    elapsed = time.monotonic() - start
    loss_worst = max(checks)
    _report(5, "gradient integrity", worst < 1e-4 and loss_worst < 1e-4 and elapsed < 60.0,
            f"model worst {worst:.2e} ({worst_name}), losses worst {loss_worst:.2e}, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. overfit sanity


def _overfit_run():
    rng = np.random.default_rng(7)
    xy = rng.uniform(-1, 1, (64, 2))
    z = 0.3 * xy[:, 0] ** 2 + 0.2 * xy[:, 1] ** 2
    sparse = np.column_stack([xy, z])
    sparse_n = unit_rows(np.column_stack([-0.6 * xy[:, 0], -0.4 * xy[:, 1], np.ones(64)]))
    xy2 = rng.uniform(-1, 1, (256, 2))
    z2 = 0.3 * xy2[:, 0] ** 2 + 0.2 * xy2[:, 1] ** 2
    dense = np.column_stack([xy2, z2])
    dense_n = unit_rows(np.column_stack([-0.6 * xy2[:, 0], -0.4 * xy2[:, 1], np.ones(256)]))
    example = TrainExample(sparse_points=sparse, sparse_normals=sparse_n,
                           dense_points=dense, dense_normals=dense_n)
    cfg = PUGeoConfig(factor=4, patch_size=64, k=6, feature_widths=(16, 32),
                      hr_hidden=16, f1_hidden=32, f2_hidden=32, f3_hidden=16,
                      f4_hidden=16)
    net = PUGeoNet(cfg, seed=0)
    weights = LossWeights(100.0, 1.0, 1.0)
    optimizer = ad.Adam(net.parameters(), lr=0.001)
    totals, cds = [], []
    for _ in range(300):
        total, cd, _, _ = _example_losses(net, example, weights)
        totals.append(total.item())
        cds.append(cd.item())
        optimizer.step(ad.backward(total))
    return totals, cds, [t.data.copy() for _, t in net.named_params()]


def test_criterion_6_overfit_sanity():
    start = time.monotonic()
    totals, cds, params_a = _overfit_run()
    ratio = totals[-1] / totals[0]
    windows = [float(np.mean(cds[i:i + 50])) for i in range(0, 300, 50)]
    monotone = all(b < a for a, b in zip(windows, windows[1:]))
    _, _, params_b = _overfit_run()
    deterministic = all(np.array_equal(a, b) for a, b in zip(params_a, params_b))
    elapsed = time.monotonic() - start
    _report(6, "overfit sanity",
            ratio < 0.3 and monotone and deterministic and elapsed < 300.0,
            f"loss ratio {ratio:.3f}, cd windows {['%.4f' % w for w in windows]}, "
            f"deterministic {deterministic}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. pipeline determinism and shape contract


def _run_pipeline(workdir: str, seed: int) -> dict:
    mesh_dir = os.path.join(workdir, "meshes")
    os.makedirs(mesh_dir)
    for name in ("cube.obj", "icosphere.obj"):
        shutil.copy(os.path.join(FIXTURES, name), os.path.join(mesh_dir, name))
    data_dir = os.path.join(workdir, "data")
    ckpt = os.path.join(workdir, "model.pugeo")
    up_out = os.path.join(workdir, "upsampled.xyz")

    assert main(["--seed", str(seed), "dataset", "build", "--mesh-dir", mesh_dir,
                 "--out", data_dir, "--points", "128", "--factor", "4",
                 "--patch-size", "64", "--coverage", "1.0"]) == 0
    assert main(["--seed", str(seed), "train", "--data", data_dir, "--out", ckpt,
                 "--epochs", "1", "--batch", "4", "--k-feature", "6"]) == 0

    from pugeo import read_mesh
    from pugeo.trainer import scale_to_unit_cube

    mesh = scale_to_unit_cube(read_mesh(os.path.join(mesh_dir, "icosphere.obj")))
    in_path = os.path.join(workdir, "input.xyz")
    gt_path = os.path.join(workdir, "gt_dense.xyz")
    gt_mesh_path = os.path.join(workdir, "gt_mesh.obj")
    from pugeo import write_mesh

    write_mesh(mesh, gt_mesh_path)
    write_xyz(poisson_disk_sample(mesh, 128, seed=seed), in_path)
    write_xyz(poisson_disk_sample(mesh, 512, seed=seed + 1), gt_path)
    assert main(["--seed", str(seed), "upsample", "--input", in_path, "--output", up_out,
                 "--factor", "4", "--method", "model", "--model", ckpt,
                 "--coverage", "2.0"]) == 0
    assert main(["--seed", str(seed), "eval", "--pred", up_out, "--gt-dense", gt_path,
                 "--gt-mesh", gt_mesh_path]) == 0

    digest = {}
    for root, _, files in os.walk(workdir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                digest[os.path.relpath(path, workdir)] = handle.read()
    return digest


def test_criterion_7_pipeline_determinism(tmp_path, capsys):
    start = time.monotonic()
    run_a = _run_pipeline(str(tmp_path / "a"), seed=42)
    out_a = capsys.readouterr().out
    run_b = _run_pipeline(str(tmp_path / "b"), seed=42)
    out_b = capsys.readouterr().out

    lines = [ln for ln in out_a.strip().split("\n") if ln]
    report = json.loads(lines[-1])
    upsampled = read_xyz(tmp_path / "a" / "upsampled.xyz")
    count_ok = len(upsampled) == 4 * 128 and report["pred_count"] == 512
    same_files = set(run_a) == set(run_b) and all(run_a[k] == run_b[k] for k in run_a)
    # stdout embeds file paths (provenance); normalize the workdir prefix
    same_stdout = (out_a.replace(str(tmp_path / "a"), "WORK")
                   == out_b.replace(str(tmp_path / "b"), "WORK"))
    elapsed = time.monotonic() - start
    _report(7, "pipeline determinism",
            count_ok and same_files and same_stdout,
            f"RM {len(upsampled)}, files {len(run_a)}, byte-identical {same_files}, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. permutation equivariance


def test_criterion_8_permutation_equivariance():
    cfg = PUGeoConfig(factor=4, patch_size=64, k=6, feature_widths=(16, 32),
                      hr_hidden=16, f1_hidden=32, f2_hidden=32, f3_hidden=16,
                      f4_hidden=16)
    net = PUGeoNet(cfg, seed=0)
    rng = np.random.default_rng(11)
    patch = rng.normal(size=(64, 3))
    perm = rng.permutation(64)
    res_a = net.forward(patch)
    res_b = net.forward(patch[perm])

    def sort_rows(a):
        return a[np.lexsort(a.T[::-1])]

    ok = (np.array_equal(sort_rows(res_a.points.data), sort_rows(res_b.points.data))
          and np.array_equal(sort_rows(res_a.normals.data), sort_rows(res_b.normals.data))
          and np.array_equal(sort_rows(res_a.coarse_normals.data),
                             sort_rows(res_b.coarse_normals.data)))
    _report(8, "permutation equivariance", ok, "sorted outputs bitwise equal")


# ---------------------------------------------------------------------------
# 9. ablation switches


def test_criterion_9_ablation_switches(tmp_path):
    flags = ["recalibration", "learned_sampling", "linear_transform", "coarse_to_fine",
             "predict_normals"]
    base = dict(factor=4, patch_size=32, k=6, feature_widths=(8, 16), hr_hidden=8,
                f1_hidden=16, f2_hidden=16, f3_hidden=8, f4_hidden=8)
    rng = np.random.default_rng(13)
    patch = rng.normal(size=(32, 3))
    all_ok = True
    for flag in flags:
        cfg = PUGeoConfig(**base, **{flag: False})
        net = PUGeoNet(cfg, seed=1)
        out = net.forward(patch)
        runnable = out.points.shape == (128, 3)
        path = tmp_path / f"{flag}.pugeo"
        save_model(net, path)
        recorded = getattr(load_model(path).config, flag) is False
        all_ok = all_ok and runnable and recorded

    # linear-transform path at zero init: T = I and coarse normal = (0,0,1) exactly
    net = PUGeoNet(PUGeoConfig(**base), seed=2)
    out = net.forward(patch)
    exact_t = np.array_equal(out.t_matrices, np.broadcast_to(np.eye(3), (32, 3, 3)))
    exact_n = np.array_equal(out.coarse_normals.data,
                             np.tile(np.array([0, 0, 1], dtype=np.float32), (32, 1)))
    _report(9, "ablation switches", all_ok and exact_t and exact_n,
            f"flags ok {all_ok}, T==I {exact_t}, n==e3 {exact_n}")
