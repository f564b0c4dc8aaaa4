import argparse
import contextlib
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
import weakref
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pugeo import (PointCloud, PUGeoConfig, PUGeoNet, frame_stats, fuse_patches, load_model,
                   poisson_disk_sample, read_mesh, read_xyz, save_model, upsample_analytic,
                   upsample_cloud, write_xyz)
from pugeo import cli, sampling, trainer, upsample
from pugeo import io as pugeo_io
from pugeo.cli import main
from pugeo.errors import CheckpointError

import reference
from helpers import (clustered_cloud, force_workers, set_checkpoint_config_entry, sphere_cloud,
                     unit_rows)


@pytest.fixture()
def mesh_dir(tmp_path):
    import shutil

    src = os.path.join(os.path.dirname(__file__), "fixtures")
    dst = tmp_path / "meshes"
    dst.mkdir()
    for name in ("cube.obj", "icosphere.obj"):
        shutil.copy(os.path.join(src, name), dst / name)
    return dst


def _write_cloud(path, cloud):
    write_xyz(cloud, path)
    return str(path)


def _run_dataset(tmp_path, mesh_dir, out_name="data", seed=42, extra=()):
    out = tmp_path / out_name
    rc = main(["--seed", str(seed), "dataset", "build", "--mesh-dir", str(mesh_dir),
               "--out", str(out), "--points", "128", "--factor", "4",
               "--patch-size", "64", "--coverage", "1.0", *extra])
    assert rc == 0
    return out


def test_python_m_pugeo_runs_the_cli():
    root = pathlib.Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "pugeo", "--help"], cwd=root,
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: pugeo ")


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as info:
        main(["upsample"])  # missing required flags
    assert info.value.code == 2


def test_dataset_build_manifest_schema(tmp_path, mesh_dir, capsys):
    out = _run_dataset(tmp_path, mesh_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"meshes", "patches", "config"}
    assert manifest["meshes"] == ["cube.obj", "icosphere.obj"]
    assert len(manifest["patches"]) == 4  # ceil(1.0*128/64) = 2 per mesh
    for entry in manifest["patches"]:
        assert set(entry) == {"sparse", "dense", "seed_index"}
        assert (out / entry["sparse"]).exists()
        assert (out / entry["dense"]).exists()
        sparse_lines = (out / entry["sparse"]).read_text().strip().split("\n")
        dense_lines = (out / entry["dense"]).read_text().strip().split("\n")
        assert len(sparse_lines) == 64
        assert len(dense_lines) == 256
        assert len(sparse_lines[0].split()) == 6


def test_dataset_build_huge_mesh_writes_unit_normals(tmp_path):
    # its cross products overflow float64 unless the vertices are scaled first
    meshes = tmp_path / "meshes"
    meshes.mkdir()
    (meshes / "huge.obj").write_text("v 0 0 0\nv 1e200 0 0\nv 0 1e200 0\nf 1 2 3\n")
    out = _run_dataset(tmp_path, meshes)
    for path in sorted(out.glob("patch_*.xyz")):
        normals = read_xyz(path).normals
        assert np.array_equal(normals, np.tile([0.0, 0.0, 1.0], (len(normals), 1)))


def test_dataset_build_empty_dir_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["dataset", "build", "--mesh-dir", str(empty), "--out",
               str(tmp_path / "d")])
    assert rc == 2
    assert "no meshes" in capsys.readouterr().err


def test_dataset_rerun_byte_identical(tmp_path, mesh_dir):
    a = _run_dataset(tmp_path, mesh_dir, "a")
    b = _run_dataset(tmp_path, mesh_dir, "b")
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_dataset_noise_sigma_zero_identical(tmp_path, mesh_dir):
    a = _run_dataset(tmp_path, mesh_dir, "a")
    b = _run_dataset(tmp_path, mesh_dir, "b", extra=("--noise-sigma", "0"))
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("block_rows", [pugeo_io._WRITE_BLOCK_ROWS, 48],
                         ids=["block_default", "block_48"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("options", [{}, {"noise_sigma": 0.01}, {"random_patches": True}],
                         ids=["fps", "noise", "random_patches"])
def test_dataset_build_writes_the_reference_files(tmp_path, mesh_dir, monkeypatch, options,
                                                  workers, block_rows):
    # a sampled normal's text is formatted once and shared by the (about 3)
    # patches that hold its row; each file must still be the one the serial
    # builder's example gives through the per-row writer.  48-row blocks split
    # every patch and cloud.
    force_workers(monkeypatch, workers)
    monkeypatch.setattr(pugeo_io, "_WRITE_BLOCK_ROWS", block_rows)
    flags = [("--noise-sigma", "0.01")] * ("noise_sigma" in options)
    flags += [("--random-patches",)] * ("random_patches" in options)
    out = tmp_path / "data"
    assert main(["--seed", "3", "dataset", "build", "--mesh-dir", str(mesh_dir),
                 "--out", str(out), "--points", "128", "--factor", "4", "--patch-size", "64",
                 "--coverage", "3", *(flag for group in flags for flag in group)]) == 0

    names = ["cube.obj", "icosphere.obj"]
    examples = reference.build_dataset([read_mesh(mesh_dir / name) for name in names], 128, 4,
                                       64, seed=3, coverage=3.0, **options)
    expected = tmp_path / "expected"
    expected.mkdir()
    patches = []
    for i, example in enumerate(examples):
        entry = {"sparse": f"patch_{i:04d}_sparse.xyz", "dense": f"patch_{i:04d}_dense.xyz",
                 "seed_index": example.seed_index}
        reference.write_xyz(PointCloud(example.sparse_points, example.sparse_normals),
                            expected / entry["sparse"])
        reference.write_xyz(PointCloud(example.dense_points, example.dense_normals),
                            expected / entry["dense"])
        patches.append(entry)
    config = {"points": 128, "factor": 4, "patch_size": 64, "coverage": 3.0, "seed": 3,
              "noise_sigma": options.get("noise_sigma", 0.0),
              "random_patches": options.get("random_patches", False)}
    (expected / "manifest.json").write_text(json.dumps(
        {"meshes": names, "patches": patches, "config": config}, sort_keys=True, indent=2) + "\n")
    assert len(patches) == 12  # ceil(3 * 128 / 64) = 6 per mesh
    assert sorted(os.listdir(out)) == sorted(os.listdir(expected))
    for name in sorted(os.listdir(expected)):
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name


def test_dataset_random_patches(tmp_path, mesh_dir):
    """Random patch seeds: fixed by --seed, recorded, distinct and not the FPS ones."""
    a = _run_dataset(tmp_path, mesh_dir, "a", extra=("--random-patches",))
    b = _run_dataset(tmp_path, mesh_dir, "b", extra=("--random-patches",))
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["config"]["random_patches"] is True
    fps = json.loads((_run_dataset(tmp_path, mesh_dir, "fps") / "manifest.json").read_text())
    assert fps["config"]["random_patches"] is False
    seeds = [entry["seed_index"] for entry in manifest["patches"]]
    fps_seeds = [entry["seed_index"] for entry in fps["patches"]]
    per_mesh = len(seeds) // 2  # two fixture meshes, the same seed count each
    assert len(seeds) == len(fps_seeds) == 2 * per_mesh
    for start in (0, per_mesh):
        mesh_seeds = seeds[start:start + per_mesh]
        assert len(set(mesh_seeds)) == per_mesh
        assert mesh_seeds != fps_seeds[start:start + per_mesh]


def test_upsample_missing_model_exit_2(tmp_path, capsys):
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    rc = main(["upsample", "--input", cloud_path, "--output", str(tmp_path / "o.xyz"),
               "--method", "model"])
    assert rc == 2
    assert "--model" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["upsample", "inspect"])
def test_model_without_method_model_exit_2(tmp_path, capsys, command):
    # --model was silently ignored on the analytic path, even for a missing file
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    out = tmp_path / "o.xyz"
    argv = (["upsample", "--input", cloud_path, "--output", str(out)] if command == "upsample"
            else ["inspect", "frames", "--input", cloud_path])
    rc = main(argv + ["--model", str(tmp_path / "missing.pugeo")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err == "--model is read only with --method model, got --method analytic\n"


def test_upsample_factor_mismatch_exit_2(tmp_path, capsys):
    cfg = PUGeoConfig(factor=8, patch_size=32, k=4, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    ckpt = tmp_path / "m.pugeo"
    save_model(PUGeoNet(cfg, seed=0), ckpt)
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    rc = main(["upsample", "--input", cloud_path, "--output", str(tmp_path / "o.xyz"),
               "--method", "model", "--model", str(ckpt), "--factor", "4"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "4" in err and "8" in err


def test_upsample_static_graph_checkpoint_exit_2(tmp_path, capsys):
    cfg = PUGeoConfig(factor=4, patch_size=32, k=4, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    ckpt = tmp_path / "m.pugeo"
    save_model(PUGeoNet(cfg, seed=0), ckpt)
    set_checkpoint_config_entry(ckpt, "dynamic_graph", False)
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    rc = main(["upsample", "--input", cloud_path, "--output", str(tmp_path / "o.xyz"),
               "--method", "model", "--model", str(ckpt), "--factor", "4"])
    assert rc == 2
    assert "dynamic_graph" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("factor", 4.0), ("k", 2.5), ("patch_size", True), ("recalibration", "no"),
    ("feature_widths", [8.5, 8]), ("grid_radius", math.nan), ("grid_radius", "0.25"),
], ids=["factor_float", "k_fraction", "patch_size_true", "switch_string",
        "feature_width_fraction", "grid_radius_nan", "grid_radius_string"])
def test_upsample_mistyped_checkpoint_config_exit_2(tmp_path, capsys, key, value):
    cfg = PUGeoConfig(factor=4, patch_size=32, k=4, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    ckpt = tmp_path / "m.pugeo"
    save_model(PUGeoNet(cfg, seed=0), ckpt)
    set_checkpoint_config_entry(ckpt, key, value)
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    rc = main(["upsample", "--input", cloud_path, "--output", str(tmp_path / "o.xyz"),
               "--method", "model", "--model", str(ckpt)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{ckpt}: ") and repr(key) in err


def test_upsample_checkpoint_with_k_at_patch_size_exit_2(tmp_path, capsys):
    # such a header used to load, then fail at the first forward naming no file
    cfg = PUGeoConfig(factor=4, patch_size=32, k=4, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    ckpt = tmp_path / "m.pugeo"
    save_model(PUGeoNet(cfg, seed=0), ckpt)
    set_checkpoint_config_entry(ckpt, "k", 32)
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    rc = main(["upsample", "--input", cloud_path, "--output", str(tmp_path / "o.xyz"),
               "--method", "model", "--model", str(ckpt)])
    assert rc == 2
    assert capsys.readouterr().err == (f"{ckpt}: malformed header: config 'k' must be < "
                                       f"'patch_size' 32, got 32\n")
    assert not (tmp_path / "o.xyz").exists()


def test_upsample_bad_checkpoint_error_names_the_file(tmp_path, capsys):
    ckpt = tmp_path / "bad.pugeo"
    ckpt.write_bytes(b"PUGEO1\x00")
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    rc = main(["upsample", "--input", cloud_path, "--output", str(tmp_path / "o.xyz"),
               "--method", "model", "--model", str(ckpt)])
    assert rc == 2
    assert capsys.readouterr().err == f"{ckpt}: truncated header length\n"


def test_upsample_oversized_checkpoint_header_exit_2(tmp_path):
    # the header alone asks for a 10**12-wide layer (terabytes of weights);
    # under a 4 GB address-space limit the run still exits 2 and names the file
    import resource

    cfg = PUGeoConfig(factor=4, patch_size=32, k=4, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    ckpt = tmp_path / "m.pugeo"
    save_model(PUGeoNet(cfg, seed=0), ckpt)
    set_checkpoint_config_entry(ckpt, "hr_hidden", 10**12)
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    root = pathlib.Path(__file__).resolve().parents[1]
    limit = 4 * 10**9
    done = subprocess.run(
        [sys.executable, "-m", "pugeo", "upsample", "--input", cloud_path,
         "--output", str(tmp_path / "o.xyz"), "--method", "model", "--model", str(ckpt)],
        env={**os.environ, "PYTHONPATH": str(root / "src")}, capture_output=True, text=True,
        timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"{ckpt}: header weight list does not match the declared config\n"
    assert not (tmp_path / "o.xyz").exists()


@pytest.mark.parametrize("factor,message", [
    (10**12, "cannot build the declared config: Unable to allocate"),
    (2**59, "malformed header: config 'factor' must be at most 576460752303423487"),
], ids=["terabytes", "past_numpy_limit"])
def test_upsample_huge_factor_without_learned_sampling_exit_2(tmp_path, factor, message):
    # no weight shape depends on the factor here, so the header checks pass and
    # the fixed sample grid is what the header sizes; under a 4 GB address-space
    # limit 10**12 exited 1 with numpy's allocation traceback, and a factor past
    # numpy's array limit exited 2 without naming the file
    import resource

    cfg = PUGeoConfig(factor=4, patch_size=32, k=4, feature_widths=(8, 8), hr_hidden=8,
                      f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8,
                      learned_sampling=False)
    ckpt = tmp_path / "m.pugeo"
    save_model(PUGeoNet(cfg, seed=0), ckpt)
    set_checkpoint_config_entry(ckpt, "factor", factor)
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    root = pathlib.Path(__file__).resolve().parents[1]
    limit = 4 * 10**9
    done = subprocess.run(
        [sys.executable, "-m", "pugeo", "upsample", "--input", cloud_path,
         "--output", str(tmp_path / "o.xyz"), "--method", "model", "--model", str(ckpt)],
        env={**os.environ, "PYTHONPATH": str(root / "src")}, capture_output=True, text=True,
        timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"{ckpt}: {message}")
    assert done.stderr.count("\n") == 1
    assert not (tmp_path / "o.xyz").exists()


def test_upsample_analytic_plane_normals(tmp_path, capsys):
    g = np.stack(np.meshgrid(np.linspace(0, 1, 12), np.linspace(0, 1, 12)), -1)
    pts = np.column_stack([g.reshape(-1, 2), np.zeros(144)])
    cloud_path = _write_cloud(tmp_path / "plane.xyz", PointCloud(pts))
    out = tmp_path / "up.xyz"
    rc = main(["upsample", "--input", cloud_path, "--output", str(out),
               "--factor", "4", "--method", "analytic", "--k", "16",
               "--patch-size", "72", "--coverage", "2.0"])
    assert rc == 0
    from pugeo import read_xyz

    result = read_xyz(out)
    assert len(result) == 4 * 144
    assert np.abs(np.abs(result.normals[:, 2]) - 1.0).max() < 1e-6


def test_upsample_deterministic(tmp_path, capsys):
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(120, 1.0, 1))
    out_a, out_b = tmp_path / "a.xyz", tmp_path / "b.xyz"
    args = ["--seed", "7", "upsample", "--input", cloud_path, "--factor", "4",
            "--method", "analytic", "--k", "12", "--patch-size", "60",
            "--coverage", "2.0"]
    assert main(args + ["--output", str(out_a)]) == 0
    assert main(args + ["--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("method", ["analytic", "model"])
def test_seed_does_not_change_the_draw(tmp_path, capsys, method):
    # the analytic candidates lie on Fibonacci disks and the model's come from
    # the checkpoint's forwards: neither command reads --seed
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(120, 1.0, 1))
    out = tmp_path / "out.xyz"
    extra = ["--model", _model_checkpoint(tmp_path / "m.pugeo", 32)] if method == "model" else []

    def run(seed, command):
        out.unlink(missing_ok=True)
        assert main(["--seed", seed, *command, "--input", cloud_path, "--method", method,
                     *extra]) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err, out.read_bytes() if out.exists() else None

    for command in (["upsample", "--output", str(out)], ["inspect", "frames"]):
        assert run("1", command) == run("2", command)


def test_upsample_collinear_reports_degenerate_frames(tmp_path, capsys):
    # a straight line beside a flat grid: only the line's frames are degenerate
    t = np.linspace(0.0, 1.0, 300)
    u, v = np.meshgrid(np.arange(20.0), np.arange(15.0))
    grid = np.column_stack([u.ravel(), v.ravel(), np.zeros(300)]) / 20.0
    cloud = PointCloud(np.concatenate([grid, np.column_stack([t, 2.0 * t, -t]) + 5.0]))
    cloud_path = _write_cloud(tmp_path / "mixed.xyz", cloud)
    out = tmp_path / "up.xyz"
    assert main(["upsample", "--input", cloud_path, "--output", str(out),
                 "--method", "analytic"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"points": 2400, "output": str(out)}
    # each input point is fit once; the 300 on the line are collinear
    assert captured.err.splitlines() == [
        "warning: 300 degenerate frames and 0 degenerate curvature fits in 600 input "
        "points; those points were upsampled on a flat disk"]
    expected = tmp_path / "expected.xyz"
    write_xyz(upsample_cloud(cloud, 4), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_upsample_all_degenerate_exit_3(tmp_path, capsys):
    t = np.linspace(0.0, 1.0, 300)
    cloud_path = _write_cloud(tmp_path / "line.xyz",
                              PointCloud(np.column_stack([t, 2.0 * t, -t])))
    out = tmp_path / "up.xyz"
    assert main(["upsample", "--input", cloud_path, "--output", str(out),
                 "--method", "analytic"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # every input point's neighborhood is collinear
    assert captured.err.splitlines() == [
        "numerical failure: all 300 input points have degenerate frames "
        "(0 degenerate curvature fits); no output written"]
    assert not out.exists()


def test_upsample_clean_input_prints_no_warning(tmp_path, capsys):
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(120, 1.0, 1))
    assert main(["upsample", "--input", cloud_path, "--output", str(tmp_path / "o.xyz"),
                 "--k", "12", "--patch-size", "60", "--coverage", "2.0"]) == 0
    assert capsys.readouterr().err == ""


def test_upsample_non_finite_input_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 0\n1 nan 0\n")
    assert main(["upsample", "--input", str(path), "--output", str(tmp_path / "o.xyz")]) == 2
    assert "line 2: non-finite" in capsys.readouterr().err


def test_upsample_analytic_cloud_smaller_than_patch_size(tmp_path, capsys):
    cloud_path = _write_cloud(tmp_path / "small.xyz", sphere_cloud(100, 1.0, 4))
    out_path = tmp_path / "out.xyz"
    assert main(["upsample", "--input", cloud_path, "--output", str(out_path)]) == 0
    assert json.loads(capsys.readouterr().out)["points"] == 400
    assert len(read_xyz(out_path)) == 400
    counts = {}
    upsample_cloud(read_xyz(cloud_path), 4, counts=counts)
    assert counts["points"] == 100  # each input point counted once


def test_upsample_benchmark_argv(tmp_path, capsys):
    # the exact flag set of the committed benchmark's upsample-analytic workload
    cloud_path = _write_cloud(tmp_path / "sparse.xyz", sphere_cloud(500, 1.0, 3))
    out = tmp_path / "dense.xyz"
    assert main(["--seed", "1", "upsample", "--method", "analytic", "--input", cloud_path,
                 "--output", str(out), "--factor", "4", "--k", "16", "--patch-size", "256",
                 "--coverage", "3"]) == 0
    result = read_xyz(out)
    assert len(result) == 2000 and result.normals is not None
    np.testing.assert_allclose(np.linalg.norm(result.normals, axis=1), 1.0, atol=1e-12)


def test_upsample_analytic_ignores_patch_size(tmp_path, capsys):
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(120, 1.0, 1))
    outputs = []
    for extra in ([], ["--patch-size", "0"], ["--patch-size", "10"], ["--patch-size", "500"]):
        out = tmp_path / f"out{len(outputs)}.xyz"
        assert main(["upsample", "--input", cloud_path, "--output", str(out), *extra]) == 0
        outputs.append(out.read_bytes())
    assert all(output == outputs[0] for output in outputs)


def test_upsample_model_patch_size_must_match_checkpoint(tmp_path, capsys):
    cfg = PUGeoConfig(factor=4, patch_size=32, k=6, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    ckpt = tmp_path / "m.pugeo"
    save_model(PUGeoNet(cfg, seed=0), ckpt)
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    argv = ["upsample", "--input", cloud_path, "--method", "model", "--model", str(ckpt)]
    bad = tmp_path / "bad.xyz"
    assert main(argv + ["--output", str(bad), "--patch-size", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "--patch-size 64 does not match checkpoint patch size 32\n"
    assert captured.out == "" and not bad.exists()
    same, omitted = tmp_path / "same.xyz", tmp_path / "omitted.xyz"
    assert main(argv + ["--output", str(same), "--patch-size", "32"]) == 0
    assert main(argv + ["--output", str(omitted)]) == 0
    assert same.read_bytes() == omitted.read_bytes()


@pytest.mark.parametrize("coverage,factor", [(0.5, 4), (0.75, 4), (0.1, 2)])
def test_upsample_coverage_below_factor_exit_2(tmp_path, capsys, coverage, factor):
    # ceil(coverage*R) < R candidates per input point cannot fill R*M outputs
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    out = tmp_path / "out.xyz"
    assert main(["upsample", "--input", cloud_path, "--output", str(out),
                 "--coverage", str(coverage), "--factor", str(factor)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"--coverage {coverage} draws fewer than --factor {factor} "
                            f"candidates per input point\n")
    assert captured.out == "" and not out.exists()


def test_upsample_coverage_just_enough(tmp_path, capsys):
    # ceil(0.76*4) = 4: exactly R candidates per point, and FPS keeps them all
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    out = tmp_path / "out.xyz"
    assert main(["upsample", "--input", cloud_path, "--output", str(out),
                 "--coverage", "0.76"]) == 0
    assert len(read_xyz(out)) == 400


@pytest.mark.parametrize("method", ["analytic", "model"])
def test_upsample_factor_below_1_exit_2(tmp_path, capsys, method):
    out = tmp_path / "out.xyz"
    assert main(["upsample", "--input", str(tmp_path / "missing.xyz"), "--output", str(out),
                 "--method", method, "--factor", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "--factor must be >= 1, got 0\n" and captured.out == ""
    assert not out.exists()


def test_eval_bad_mesh_names_the_mesh(tmp_path, capsys):
    pred_path = _write_cloud(tmp_path / "pred.xyz", sphere_cloud(50, 1.0, 5))
    mesh_path = tmp_path / "gt.obj"
    mesh_path.write_text("v 0 0 0\nv 1 nan 0\nv 0 1 0\nf 1 2 3\n")
    rc = main(["eval", "--pred", pred_path, "--gt-dense", pred_path,
               "--gt-mesh", str(mesh_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"{mesh_path}: line 2: non-finite")


# vertices on file lines 10-12, the face on line 13
_PLY_HEAD = ("ply\nformat ascii 1.0\nelement vertex 3\n"
             "property float x\nproperty float y\nproperty float z\n"
             "element face 1\nproperty list uchar int vertex_indices\nend_header\n")


@pytest.mark.parametrize("name,data,line", [
    ("bad.xyz", b"0 0 0\n1 \xff 0\n", 2),
    ("gt.obj", b"v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0\nf 1 2 3\n", 4),
    ("gt.obj", b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 1\n", 5),
    ("gt.ply", (_PLY_HEAD.replace("vertex 3", "vertex abc")
                + "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n").encode(), 3),
    ("gt.ply", (_PLY_HEAD + "0 0 0\n1 0 0\n0 1 0\n3 0 1\n").encode(), 13),
    ("gt.ply", (_PLY_HEAD + "0 0 0\n1 x 0\n0 1 0\n3 0 1 2\n").encode(), 11),
    ("gt.ply", (_PLY_HEAD.replace("vertex 3\n", "vertex 3\nproperty list uchar float extra\n")
                + "2 9 9 0 0 0\n2 9 9 1 0 0\n2 9 9 0 1 0\n3 0 1 2\n").encode(), 4),
], ids=["xyz_not_utf8", "obj_short_normal", "obj_repeated_index", "ply_bad_count",
        "ply_short_face", "ply_bad_vertex", "ply_list_in_vertex_element"])
def test_bad_input_names_file_and_line(tmp_path, capsys, name, data, line):
    path = tmp_path / name
    path.write_bytes(data)
    if name.endswith(".xyz"):
        argv = ["upsample", "--input", str(path), "--output", str(tmp_path / "o.xyz")]
    else:
        pred_path = _write_cloud(tmp_path / "pred.xyz", sphere_cloud(50, 1.0, 5))
        argv = ["eval", "--pred", pred_path, "--gt-dense", pred_path, "--gt-mesh", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"{path}: line {line}: ")


@pytest.mark.parametrize("case", ["upsample_empty_input", "eval_empty_pred",
                                  "eval_empty_gt_dense", "eval_mesh_without_triangles",
                                  "eval_recon_mesh_without_triangles", "eval_recon_samples_0",
                                  "eval_factor_0", "eval_far_pred", "eval_far_gt_dense",
                                  "eval_far_gt_mesh", "eval_far_gt_mesh_without_normals",
                                  "eval_far_recon_mesh", "upsample_far_input",
                                  "upsample_model_far_input", "inspect_far_input"])
def test_bad_input_names_the_file_or_flag(tmp_path, mesh_dir, capsys, case):
    cloud = _write_cloud(tmp_path / "cloud.xyz", sphere_cloud(50, 1.0, 5))
    empty = tmp_path / "empty.xyz"
    empty.write_text("\n")
    flat = tmp_path / "flat.obj"
    flat.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
    mesh = str(mesh_dir / "icosphere.obj")
    out = tmp_path / "out.xyz"
    # 1e300 passes the readers, but squared distances to it overflow float64
    far_points = sphere_cloud(50, 1.0, 5).points
    far_points[2] = [0.0, -1e300, 0.0]
    far = _write_cloud(tmp_path / "far.xyz", PointCloud(far_points))
    far_mesh = tmp_path / "far.obj"
    far_mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1e300\n" + "vn 0 0 1\n" * 4
                        + "f 1 2 3\nf 1 2 4\n")
    # its vertex normals are computed, from cross products that reach 1e300
    far_bare = tmp_path / "far_bare.obj"
    far_bare.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1e300\nf 1 2 3\nf 1 2 4\n")
    beyond = (f"exceeds {cli.COORD_LIMIT:.4g} in magnitude, past which distances can "
              f"overflow float64")
    far_row = f"{far}: row 3: coordinate -1e+300 {beyond}"
    far_vertex = f"{far_mesh}: vertex 4: coordinate 1e+300 {beyond}"
    argv, message = {
        "upsample_empty_input": (["upsample", "--input", str(empty), "--output", str(out)],
                                 f"{empty}: no points"),
        "eval_empty_pred": (["eval", "--pred", str(empty), "--gt-dense", cloud,
                             "--gt-mesh", mesh], f"{empty}: no points"),
        "eval_empty_gt_dense": (["eval", "--pred", cloud, "--gt-dense", str(empty),
                                 "--gt-mesh", mesh], f"{empty}: no points"),
        "eval_mesh_without_triangles": (["eval", "--pred", cloud, "--gt-dense", cloud,
                                         "--gt-mesh", str(flat)],
                                        f"{flat}: mesh has no triangles"),
        "eval_recon_mesh_without_triangles": (
            ["eval", "--pred", cloud, "--gt-dense", cloud, "--gt-mesh", mesh,
             "--recon-mesh", str(flat)], f"{flat}: mesh has no triangles"),
        "eval_recon_samples_0": (["eval", "--pred", cloud, "--gt-dense", cloud,
                                  "--gt-mesh", mesh, "--recon-mesh", mesh,
                                  "--recon-samples", "0"],
                                 "--recon-samples must be >= 1, got 0"),
        "eval_factor_0": (["eval", "--pred", cloud, "--gt-dense", cloud, "--gt-mesh", mesh,
                           "--factor", "0"], "--factor must be >= 1, got 0"),
        "eval_far_pred": (["eval", "--pred", far, "--gt-dense", cloud, "--gt-mesh", mesh],
                          far_row),
        "eval_far_gt_dense": (["eval", "--pred", cloud, "--gt-dense", far, "--gt-mesh", mesh],
                              far_row),
        "eval_far_gt_mesh": (["eval", "--pred", cloud, "--gt-dense", cloud,
                              "--gt-mesh", str(far_mesh)], far_vertex),
        "eval_far_gt_mesh_without_normals": (["eval", "--pred", cloud, "--gt-dense", cloud,
                                              "--gt-mesh", str(far_bare)],
                                             f"{far_bare}: vertex 4: coordinate 1e+300 {beyond}"),
        "eval_far_recon_mesh": (["eval", "--pred", cloud, "--gt-dense", cloud, "--gt-mesh", mesh,
                                 "--recon-mesh", str(far_mesh)], far_vertex),
        "upsample_far_input": (["upsample", "--input", far, "--output", str(out)], far_row),
        "upsample_model_far_input": (["upsample", "--method", "model", "--input", far,
                                      "--output", str(out)], far_row),
        "inspect_far_input": (["inspect", "frames", "--input", far], far_row),
    }[case]
    # outside pytest a float warning would be printed on stderr before the message
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert captured.err == message + "\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("beyond", [False, True])
def test_eval_at_the_coordinate_limit_scores_finite_metrics(tmp_path, mesh_dir, capsys, beyond):
    # a cube and clouds whose corners reach ±COORD_LIMIT score finite metrics
    # with no float warning; one vertex a step beyond it is refused
    limit = cli.COORD_LIMIT
    cube = read_mesh(str(mesh_dir / "cube.obj"))
    verts = (cube.vertices * 2.0 - 1.0) * limit
    if beyond:
        verts[0, 0] = np.nextafter(verts[0, 0], -np.inf)
    mesh = tmp_path / "edge.obj"
    mesh.write_text("".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in verts.tolist())
                    + "".join(f"f {i + 1} {j + 1} {k + 1}\n" for i, j, k in cube.triangles))
    sphere = sphere_cloud(50, 1.0, 5)
    corners = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)])
    cloud = _write_cloud(tmp_path / "edge.xyz",
                         PointCloud(np.vstack([sphere.points, corners]) * limit,
                                    np.vstack([sphere.normals, unit_rows(corners)])))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["eval", "--pred", cloud, "--gt-dense", cloud, "--gt-mesh", str(mesh),
                   "--recon-mesh", str(mesh)])
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    if beyond:
        assert rc == 2
        assert captured.err.startswith(f"{mesh}: vertex 1: coordinate -1.0000000000000002e+76 ")
    else:
        assert rc == 0
        report = json.loads(captured.out)
        assert all(np.isfinite(report[key]) for key in ("cd", "hd", "jsd", "p2f_mean",
                                                         "p2f_std", "cd#", "hd#", "jsd#"))


_K_CASES = ["k_0", "k_3", "fewer_than_k_plus_1", "empty_input"]


@pytest.mark.parametrize("command,case",
                         [(command, case) for command in ("upsample", "inspect")
                          for case in _K_CASES])
def test_bad_k_names_the_flag_or_file(tmp_path, capsys, command, case):
    cloud = _write_cloud(tmp_path / "cloud.xyz", sphere_cloud(50, 1.0, 5))
    four = _write_cloud(tmp_path / "four.xyz", PointCloud(np.eye(4, 3)))
    empty = tmp_path / "empty.xyz"
    empty.write_text("\n")
    out = tmp_path / "out.xyz"
    path, extra, message = {
        "k_0": (cloud, ["--k", "0"], "--k must be >= 6, got 0"),
        "k_3": (cloud, ["--k", "3"], "--k must be >= 6, got 3"),
        "fewer_than_k_plus_1": (four, [], f"{four}: need at least k+1=17 points for --k 16, got 4"),
        "empty_input": (str(empty), [], f"{empty}: no points"),
    }[case]
    if command == "upsample":
        argv = ["upsample", "--input", path, "--output", str(out)]
    else:
        argv = ["inspect", "frames", "--input", path]
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("extra,message", [
    (["--points", "0"], "--points must be >= 1, got 0"),
    (["--factor", "0"], "--factor must be >= 1, got 0"),
    (["--points", "100"], "--patch-size 256 exceeds --points 100"),
    (["--noise-sigma", "nan"], "--noise-sigma must be finite and >= 0, got nan"),
    (["--noise-sigma", "-0.5"], "--noise-sigma must be finite and >= 0, got -0.5"),
    (["--noise-sigma", "inf"], "--noise-sigma must be finite and >= 0, got inf"),
], ids=["points_0", "factor_0", "patch_size_above_points", "noise_sigma_nan",
        "noise_sigma_negative", "noise_sigma_inf"])
def test_dataset_build_checks_flags_before_writing(tmp_path, mesh_dir, capsys, extra, message):
    out = tmp_path / "data"
    argv = ["dataset", "build", "--mesh-dir", str(mesh_dir), "--out", str(out)]
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert not out.exists()


def test_dataset_build_zero_area_mesh_names_it(tmp_path, mesh_dir, capsys):
    flat = mesh_dir / "flat.obj"  # one collinear triangle, sorted between the fixtures
    flat.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
    out = tmp_path / "data"
    argv = ["dataset", "build", "--mesh-dir", str(mesh_dir), "--out", str(out),
            "--points", "128", "--patch-size", "64"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{flat}: mesh has zero surface area\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("option", ["--input", "--mesh-dir"])
def test_unreadable_path_exit_2(tmp_path, capsys, option):
    if option == "--input":  # a directory where a file belongs
        path = tmp_path
        argv = ["upsample", "--input", str(path), "--output", str(tmp_path / "o.xyz")]
    else:  # a file where a directory belongs
        path = tmp_path / "cube.obj"
        path.write_text("v 0 0 0\n")
        argv = ["dataset", "build", "--mesh-dir", str(path), "--out", str(tmp_path / "d")]
    assert main(argv) == 2
    assert str(path) in capsys.readouterr().err


def test_threads_flag_removed():
    with pytest.raises(SystemExit) as info:
        main(["--threads", "2", "upsample", "--input", "a.xyz", "--output", "b.xyz"])
    assert info.value.code == 2


def test_inspect_frames_patch_size_removed():
    with pytest.raises(SystemExit) as info:
        main(["inspect", "frames", "--input", "a.xyz", "--patch-size", "64"])
    assert info.value.code == 2


@pytest.mark.parametrize("command", [["upsample", "--output", "b.xyz"], ["inspect", "frames"]])
def test_pattern_flag_removed(command):
    with pytest.raises(SystemExit) as info:
        main([*command, "--input", "a.xyz", "--pattern", "grid"])
    assert info.value.code == 2


def test_one_parser_serves_every_call_as_a_fresh_one_would(tmp_path, mesh_dir, capsys,
                                                           monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    icosphere = str(mesh_dir / "icosphere.obj")
    dense = _write_cloud(tmp_path / "dense.xyz", poisson_disk_sample(read_mesh(icosphere), 256,
                                                                     seed=0))
    sparse = _write_cloud(tmp_path / "sparse.xyz", sphere_cloud(50, 1.0, 5))
    evaluate = ["eval", "--pred", dense, "--gt-dense", dense, "--gt-mesh", icosphere]
    upsample = ["upsample", "--input", sparse, "--output", str(tmp_path / "up.xyz")]
    calls = [evaluate, upsample + ["--factor", "8"], upsample, ["eval", "--no-such-flag"],
             evaluate]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shared = [run(argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run(argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0]
    # --factor 8 does not carry over to the next upsample, which takes the default
    assert [json.loads(shared[i][1])["points"] for i in (1, 2)] == [400, 200]


def _leaf_parsers(parser, path=()):
    """(subcommand path, parser) for every leaf subcommand under `parser`."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
        return
    for name, child in groups[0].choices.items():
        yield from _leaf_parsers(child, path + (name,))


def _unread_options(parser, source):
    return [action.option_strings[0] for action in parser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)
            and f"args.{action.dest}" not in source]


def test_every_option_is_read_by_its_handler():
    parser = cli.build_parser()
    unread = [f"(global) {option}" for option in _unread_options(parser, inspect.getsource(cli))]
    for path, leaf in _leaf_parsers(parser):
        handler = getattr(cli, "cmd_" + "_".join(path))
        unread += [f"{' '.join(path)} {option}"
                   for option in _unread_options(leaf, inspect.getsource(handler))]
    assert not unread, f"options parsed but never read: {unread}"


# numeric options with no cli.RANGES entry: (command, flag) -> where they are checked
UNRANGED = {
    ("upsample", "--k"): "MIN_NEIGHBORS, with --method analytic only",
    ("inspect", "--k"): "MIN_NEIGHBORS, with --method analytic only",
    ("upsample", "--patch-size"): "must match the checkpoint",
}


def _numeric_options(parser):
    return {action.option_strings[0] for action in parser._actions
            if action.option_strings and action.type in (int, float)}


def test_every_numeric_option_has_a_range():
    parser = cli.build_parser()
    leaves = list(_leaf_parsers(parser))
    numeric = {("", option) for option in _numeric_options(parser)}
    numeric |= {(path[0], option) for path, leaf in leaves for option in _numeric_options(leaf)}
    ranged = {(command, flag) for command, entries in cli.RANGES.items()
              for flag, _, _ in entries}
    assert set(cli.RANGES) == {""} | {path[0] for path, _ in leaves}  # "": global options
    assert numeric - ranged - set(UNRANGED) == set()  # options with no range
    assert ranged - numeric == set()  # ranges of options no subcommand has
    assert set(UNRANGED) - numeric == set() and set(UNRANGED) & ranged == set()


def test_train_epochs_zero_checkpoint_is_init(tmp_path, mesh_dir, capsys):
    data = _run_dataset(tmp_path, mesh_dir)
    ckpt = tmp_path / "model.pugeo"
    rc = main(["--seed", "5", "train", "--data", str(data), "--out", str(ckpt),
               "--epochs", "0", "--k-feature", "6"])
    assert rc == 0
    trained = load_model(ckpt)
    fresh = PUGeoNet(trained.config, seed=5)
    for (_, a), (_, b) in zip(trained.named_params(), fresh.named_params()):
        assert np.array_equal(a.data, b.data)


def test_train_checkpoint_dir_is_created_and_holds_every_checkpoint(tmp_path, mesh_dir,
                                                                    capsys):
    data = _run_dataset(tmp_path, mesh_dir)
    out, checkpoints = tmp_path / "model.pugeo", tmp_path / "new" / "dir"
    rc = main(["--seed", "5", "train", "--data", str(data), "--out", str(out),
               "--epochs", "2", "--batch", "4", "--k-feature", "6",
               "--checkpoint-dir", str(checkpoints), "--checkpoint-every", "1"])
    assert rc == 0
    assert sorted(p.name for p in checkpoints.iterdir()) == [
        "checkpoint_epoch0001.pugeo", "checkpoint_epoch0002.pugeo", "checkpoint_final.pugeo"]
    assert (checkpoints / "checkpoint_final.pugeo").read_bytes() == out.read_bytes()


def test_train_on_built_files_matches_train_on_built_examples(tmp_path, mesh_dir, capsys):
    # read_xyz rescales the unit normals `dataset build` writes, which can move
    # their last bit, but the losses read normals in float32: `pugeo train` on
    # the files and `train` on build_dataset's examples write one checkpoint
    data = _run_dataset(tmp_path, mesh_dir, seed=3)
    ckpt = tmp_path / "cli.pugeo"
    assert main(["--seed", "3", "train", "--data", str(data), "--out", str(ckpt),
                 "--epochs", "2", "--batch", "4", "--k-feature", "6"]) == 0
    meshes = [read_mesh(mesh_dir / name) for name in ("cube.obj", "icosphere.obj")]
    model = PUGeoNet(PUGeoConfig(factor=4, patch_size=64, k=6), seed=3)
    trainer.train(trainer.TrainConfig(batch_size=4, epochs=2, seed=3),
                  trainer.build_dataset(meshes, 128, 4, 64, seed=3, coverage=1.0), model)
    save_model(model, tmp_path / "library.pugeo")
    assert (tmp_path / "library.pugeo").read_bytes() == ckpt.read_bytes()


def test_train_logs_json_per_epoch_and_ablation_flag(tmp_path, mesh_dir, capsys):
    data = _run_dataset(tmp_path, mesh_dir)
    capsys.readouterr()  # drop the dataset-build summary line
    ckpt = tmp_path / "model.pugeo"
    rc = main(["--seed", "5", "train", "--data", str(data), "--out", str(ckpt),
               "--epochs", "2", "--batch", "4", "--k-feature", "6",
               "--no-recalibration"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.strip().split("\n") if ln]
    records = [json.loads(ln) for ln in lines]
    assert len(records) == 2
    assert all({"epoch", "l_total", "l_cd", "l_coarse", "l_refined"} == set(r)
               for r in records)
    assert load_model(ckpt).config.recalibration is False


@pytest.mark.parametrize("command,extra,message", [
    ("upsample", ["--coverage", "0"], "--coverage must be finite and > 0, got 0.0"),
    ("upsample", ["--coverage", "-1"], "--coverage must be finite and > 0, got -1.0"),
    ("upsample", ["--coverage", "nan"], "--coverage must be finite and > 0, got nan"),
    ("upsample", ["--coverage", "inf"], "--coverage must be finite and > 0, got inf"),
    ("upsample", ["--patch-size", "256", "--coverage", "0"],
     "--coverage must be finite and > 0, got 0.0"),
    ("dataset", ["--coverage", "0"], "--coverage must be finite and > 0, got 0.0"),
    ("dataset", ["--patch-size", "0"], "--patch-size must be >= 1, got 0"),
    ("train", ["--checkpoint-every", "0"], "--checkpoint-every must be >= 1, got 0"),
    ("inspect", ["--coverage", "nan"], "--coverage must be finite and > 0, got nan"),
    ("inspect", ["--method", "model", "--model", "missing.pugeo", "--coverage", "0"],
     "--coverage must be finite and > 0, got 0.0"),
], ids=["upsample_coverage_0", "upsample_coverage_negative", "upsample_coverage_nan",
        "upsample_coverage_inf", "upsample_one_patch_coverage_0",
        "dataset_coverage_0", "dataset_patch_size_0", "train_checkpoint_every_0",
        "inspect_analytic_coverage_nan", "inspect_model_coverage_0"])
def test_bad_patch_or_checkpoint_setting_exit_2(tmp_path, mesh_dir, capsys, command, extra,
                                                message):
    out = tmp_path / "out"
    checkpoints = tmp_path / "checkpoints"
    if command == "upsample":
        cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
        argv = ["upsample", "--input", cloud_path, "--output", str(out)]
    elif command == "inspect":
        argv = ["inspect", "frames", "--input", _write_cloud(tmp_path / "in.xyz",
                                                             sphere_cloud(100, 1.0, 0))]
    elif command == "dataset":
        argv = ["dataset", "build", "--mesh-dir", str(mesh_dir), "--out", str(out),
                "--points", "128", "--patch-size", "64"]
    else:
        data = _run_dataset(tmp_path, mesh_dir)
        capsys.readouterr()
        argv = ["train", "--data", str(data), "--out", str(out), "--epochs", "1",
                "--checkpoint-dir", str(checkpoints)]
    rc = main(argv + extra)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == message + "\n" and captured.out == ""
    assert not out.exists() and not checkpoints.exists()


@pytest.mark.parametrize("extra,message", [
    (["--lr", "nan"], "--lr must be finite and > 0, got nan"),
    (["--lr", "0"], "--lr must be finite and > 0, got 0.0"),
    (["--alpha", "nan"], "--alpha must be finite and >= 0, got nan"),
    (["--beta", "-1"], "--beta must be finite and >= 0, got -1.0"),
    (["--gamma", "inf"], "--gamma must be finite and >= 0, got inf"),
    (["--batch", "0"], "--batch must be >= 1, got 0"),
    (["--k-feature", "0"], "--k-feature must be >= 1, got 0"),
    (["--epochs", "-1"], "--epochs must be >= 0, got -1"),
    (["--checkpoint-every", "-2"], "--checkpoint-every must be >= 1, got -2"),
], ids=["lr_nan", "lr_0", "alpha_nan", "beta_negative", "gamma_inf", "batch_0",
        "k_feature_0", "epochs_negative", "checkpoint_every_negative"])
def test_train_checks_flags_before_reading_data(tmp_path, capsys, extra, message):
    # the data path does not exist: a flag checked after reading would say so instead
    out = tmp_path / "m.pugeo"
    rc = main(["train", "--data", str(tmp_path / "missing"), "--out", str(out), *extra])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == message + "\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("k", [64, 65])
def test_train_k_feature_checked_before_reading_patches(tmp_path, mesh_dir, capsys,
                                                        monkeypatch, k):
    data = _run_dataset(tmp_path, mesh_dir)  # patch size 64
    capsys.readouterr()
    read = []
    monkeypatch.setattr(cli, "read_xyz", lambda path: read.append(path))
    out = tmp_path / "m.pugeo"
    rc = main(["train", "--data", str(data), "--out", str(out), "--k-feature", str(k)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (f"{data / 'manifest.json'}: config 'k' must be < 'patch_size' 64, "
                            f"got {k}\n")
    assert captured.out == "" and read == [] and not out.exists()


def test_train_factor_mismatch_exit_2(tmp_path, mesh_dir, capsys):
    data = _run_dataset(tmp_path, mesh_dir)
    # R comes from the manifest alone: train has no --factor
    with pytest.raises(SystemExit) as info:
        main(["train", "--data", str(data), "--out", str(tmp_path / "m.pugeo"),
              "--factor", "8", "--epochs", "0"])
    assert info.value.code == 2


@pytest.mark.parametrize("text", [
    json.dumps({"config": {"factor": 4, "patch_size": 64},
                "patches": [{"sparse": "a.xyz", "dense": "b.xyz"}]}),
    json.dumps({"config": {"factor": 4, "patch_size": 64},
                "patches": [{"sparse": "a.xyz", "dense": "b.xyz", "seed_index": True}]}),
    json.dumps({"config": {"factor": 4, "patch_size": 64},
                "patches": [{"sparse": "a.xyz", "dense": "b.xyz", "seed_index": -1}]}),
    json.dumps({"patches": [{"sparse": "a.xyz", "dense": "b.xyz", "seed_index": 0}]}),
    json.dumps({"config": {"factor": 4, "patch_size": 64}, "patches": []}),
    "[]",
    "{",
    b"\xff",
], ids=["entry_without_seed_index", "seed_index_true", "seed_index_negative", "no_config",
        "no_patches", "top_level_list", "not_json", "not_utf8"])
def test_train_malformed_manifest_exit_2(tmp_path, capsys, text):
    # no_patches and not_utf8 used to exit 2 with a message naming no file
    path = tmp_path / "manifest.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.pugeo"),
               "--epochs", "0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"{path}: ")


@pytest.mark.parametrize("patches", [None, {"sparse": "a.xyz", "dense": "b.xyz"}],
                         ids=["no_manifest", "patches_not_a_list"])
def test_train_manifest_missing_or_without_patch_list_exit_2(tmp_path, capsys, patches):
    path = tmp_path / "manifest.json"
    if patches is not None:
        path.write_text(json.dumps({"config": {"factor": 4, "patch_size": 64},
                                    "patches": patches}))
    out = tmp_path / "m.pugeo"
    rc = main(["train", "--data", str(tmp_path), "--out", str(out), "--epochs", "0"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err == (f"manifest not found: {path}\n" if patches is None
                            else f"{path}: manifest needs a 'patches' list\n")


@pytest.mark.parametrize("key,value,culprit", [
    ("factor", True, "manifest"), ("factor", 0, "manifest"), ("factor", 4.0, "manifest"),
    ("patch_size", False, "manifest"), ("patch_size", -64, "manifest"),
    ("patch_size", 32, "sparse"), ("factor", 2, "dense"),
], ids=["factor_true", "factor_0", "factor_float", "patch_size_false", "patch_size_negative",
        "patch_size_below_sparse_rows", "factor_below_dense_rows"])
def test_train_manifest_config_must_fit_its_patches(tmp_path, mesh_dir, capsys, key, value,
                                                    culprit):
    # a bool factor raised a TypeError, 0 and a wrong patch size failed in the
    # model naming no file
    data = _run_dataset(tmp_path, mesh_dir)  # factor 4, patch size 64
    capsys.readouterr()
    path = data / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"][key] = value
    path.write_text(json.dumps(manifest))
    out = tmp_path / "m.pugeo"
    rc = main(["train", "--data", str(data), "--out", str(out), "--epochs", "0",
               "--k-feature", "6"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err == {
        "manifest": f"{path}: config {key!r} must be an integer >= 1, got {value!r}\n",
        "sparse": f"{data / 'patch_0000_sparse.xyz'}: 64 points, but {path} gives patch "
                  f"size 32 and factor 4: 32 expected\n",
        "dense": f"{data / 'patch_0000_dense.xyz'}: 256 points, but {path} gives patch "
                 f"size 64 and factor 2: 128 expected\n",
    }[culprit]


def test_train_patch_without_normals_names_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    sparse = tmp_path / "sparse.xyz"
    dense = tmp_path / "dense.xyz"
    np.savetxt(sparse, rng.normal(size=(16, 3)))
    np.savetxt(dense, rng.normal(size=(64, 6)))
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"config": {"factor": 4, "patch_size": 16},
         "patches": [{"sparse": "sparse.xyz", "dense": "dense.xyz", "seed_index": 0}]}))
    rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.pugeo"),
               "--epochs", "0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"{sparse}: ")


@pytest.mark.parametrize("out_name,message", [
    ("missing/m.pugeo", "--out {out}: directory {parent} does not exist"),
    ("data", "--out {out} is a directory"),
], ids=["no_directory", "directory"])
def test_train_checks_out_before_reading_patches(tmp_path, mesh_dir, capsys, monkeypatch,
                                                 out_name, message):
    # a missing directory used to fail only after the last epoch
    data = _run_dataset(tmp_path, mesh_dir)
    capsys.readouterr()
    read = []
    monkeypatch.setattr(cli, "read_xyz", lambda path: read.append(path))
    out = tmp_path / out_name
    rc = main(["train", "--data", str(data), "--out", str(out), "--epochs", "2",
               "--k-feature", "6"])
    captured = capsys.readouterr()
    assert rc == 2 and read == []
    assert captured.err == message.format(out=out, parent=out.parent) + "\n"
    assert captured.out == ""  # no epoch log line


@pytest.mark.parametrize("out_name,message", [
    ("missing/up.xyz", "--output {out}: directory {parent} does not exist"),
    ("taken", "--output {out} is a directory"),
    (None, "--output must name a file, got ''"),
], ids=["no_directory", "directory", "empty"])
def test_upsample_checks_output_before_reading_input(tmp_path, capsys, monkeypatch, out_name,
                                                     message):
    # each used to fail only at the write, after every candidate was drawn and
    # fused, with an OSError naming no flag
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    (tmp_path / "taken").mkdir()
    ran = []
    monkeypatch.setattr(cli, "read_xyz", lambda path: ran.append(path))
    monkeypatch.setattr(cli, "upsample_cloud", lambda *a, **kw: ran.append("draw"))
    out = "" if out_name is None else str(tmp_path / out_name)
    rc = main(["upsample", "--input", cloud_path, "--output", out])
    captured = capsys.readouterr()
    assert rc == 2 and ran == []
    assert captured.err == message.format(out=out, parent=os.path.dirname(out)) + "\n"
    assert captured.out == ""


@pytest.mark.parametrize("out_name,message", [
    ("in.xyz", "--out {out}: {taken} is not a directory"),
    ("in.xyz/data", "--out {out}: {taken} is not a directory"),
    (None, "--out must name a directory, got ''"),
], ids=["file", "under_file", "empty"])
def test_dataset_build_checks_out_before_reading_meshes(tmp_path, mesh_dir, capsys,
                                                        monkeypatch, out_name, message):
    # each used to fail at os.makedirs, after every mesh was sampled
    taken = tmp_path / "in.xyz"
    taken.write_text("0 0 0\n")
    ran = []
    monkeypatch.setattr(cli, "read_mesh", lambda path: ran.append(path))
    monkeypatch.setattr(cli, "build_dataset", lambda *a, **kw: ran.append("build"))
    out = "" if out_name is None else str(tmp_path / out_name)
    rc = main(["dataset", "build", "--mesh-dir", str(mesh_dir), "--out", out])
    captured = capsys.readouterr()
    assert rc == 2 and ran == []
    assert captured.err == message.format(out=out, taken=taken) + "\n"
    assert captured.out == ""
    assert taken.read_text() == "0 0 0\n"


def test_train_checks_checkpoint_dir_before_reading_the_manifest(tmp_path, capsys, monkeypatch):
    # a file in the way used to fail at os.makedirs, after every patch was read
    taken = tmp_path / "ck"
    taken.write_text("")
    read = []
    monkeypatch.setattr(cli, "_read_manifest", lambda path: read.append(path))
    rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.pugeo"),
               "--checkpoint-dir", str(taken)])
    assert rc == 2 and read == []
    assert capsys.readouterr().err == f"--checkpoint-dir {taken}: {taken} is not a directory\n"


def test_dataset_build_makes_missing_out_parents(tmp_path, mesh_dir):
    out = _run_dataset(tmp_path, mesh_dir, out_name="a/b/data")
    assert (out / "manifest.json").is_file()


@pytest.mark.parametrize("argv", [
    ["dataset", "build", "--mesh-dir", "meshes", "--out", "data"],
    ["train", "--data", "data", "--out", "m.pugeo"],
    ["upsample", "--input", "a.xyz", "--output", "b.xyz"],
    ["eval", "--pred", "a.xyz", "--gt-dense", "b.xyz", "--gt-mesh", "c.obj"],
    ["inspect", "frames", "--input", "a.xyz"],
], ids=["dataset", "train", "upsample", "eval", "inspect"])
def test_negative_seed_exit_2_naming_the_flag(capsys, argv):
    # numpy used to refuse it with a bare "expected non-negative integer"
    rc = main(["--seed", "-1", *argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "--seed must be >= 0, got -1\n" and captured.out == ""


class _PatchRead(Exception):
    """Raised in place of reading a patch file."""


def _refuse_read(path):
    raise _PatchRead(path)


# what a manifest's or a checkpoint header's factor, patch_size and k may hold
_CONFIG_VALUE = st.one_of(st.integers(-1, 70), st.sampled_from([0, -1, 2**62]), st.booleans(),
                          st.floats(), st.text(max_size=3), st.none())


@settings(max_examples=60, deadline=None)
@given(factor=_CONFIG_VALUE, patch_size=_CONFIG_VALUE, k=_CONFIG_VALUE)
def test_manifest_and_checkpoint_configs_meet_one_rule_property(factor, patch_size, k):
    try:
        PUGeoConfig(factor=factor, patch_size=patch_size, k=k)
        message = None
    except ValueError as exc:
        message = str(exc)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        if type(k) is int:  # the only k --k-feature can pass
            manifest = os.path.join(tmp, "manifest.json")
            with open(manifest, "w", encoding="utf-8") as handle:
                json.dump({"config": {"factor": factor, "patch_size": patch_size},
                           "patches": [{"sparse": "a.xyz", "dense": "b.xyz",
                                        "seed_index": 0}]}, handle)
            patch.setattr(cli, "read_xyz", _refuse_read)
            err = StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    rc = main(["train", "--data", tmp, "--out", os.path.join(tmp, "m.pugeo"),
                               "--k-feature", str(k)])
                except _PatchRead:
                    rc = None
            if k < 1:  # cli.RANGES checks --k-feature before the manifest is read
                assert (rc, err.getvalue()) == (2, f"--k-feature must be >= 1, got {k}\n")
            elif message is not None:
                assert (rc, err.getvalue()) == (2, f"{manifest}: {message}\n")
            else:
                assert (rc, err.getvalue()) == (None, "")
        ckpt = pathlib.Path(tmp) / "m.pugeo"
        save_model(PUGeoNet(PUGeoConfig(factor=4, patch_size=32, k=4, feature_widths=(8, 8),
                                        hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8,
                                        f4_hidden=8), seed=0), ckpt)
        for key, value in (("factor", factor), ("patch_size", patch_size), ("k", k)):
            set_checkpoint_config_entry(ckpt, key, value)
        try:
            load_model(ckpt)
            error = None
        except CheckpointError as exc:
            error = str(exc)
        if message is not None:
            assert error == f"{ckpt}: malformed header: {message}"
        else:  # a factor other than 4 changes the weight shapes
            assert error in (None, f"{ckpt}: header weight list does not match the declared "
                                   f"config")


def test_eval_pred_equals_gt(tmp_path, mesh_dir, capsys):
    from pugeo import poisson_disk_sample, read_mesh

    mesh = read_mesh(mesh_dir / "icosphere.obj")
    dense = poisson_disk_sample(mesh, 256, seed=0)
    pred_path = _write_cloud(tmp_path / "pred.xyz", dense)
    rc = main(["eval", "--pred", pred_path, "--gt-dense", pred_path,
               "--gt-mesh", str(mesh_dir / "icosphere.obj")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["cd"] == 0.0 and report["hd"] == 0.0 and report["jsd"] == 0.0
    assert "cd#" not in report


def test_eval_missing_file_exit_2(tmp_path, mesh_dir, capsys):
    rc = main(["eval", "--pred", str(tmp_path / "nope.xyz"),
               "--gt-dense", str(tmp_path / "nope.xyz"),
               "--gt-mesh", str(mesh_dir / "cube.obj")])
    assert rc == 2


def test_eval_recon_mesh_adds_three_fields(tmp_path, mesh_dir, capsys):
    from pugeo import poisson_disk_sample, read_mesh

    mesh = read_mesh(mesh_dir / "icosphere.obj")
    dense = poisson_disk_sample(mesh, 200, seed=0)
    pred_path = _write_cloud(tmp_path / "pred.xyz", dense)
    base_args = ["eval", "--pred", pred_path, "--gt-dense", pred_path,
                 "--gt-mesh", str(mesh_dir / "icosphere.obj")]
    assert main(base_args) == 0
    without = json.loads(capsys.readouterr().out.strip())
    assert main(base_args + ["--recon-mesh", str(mesh_dir / "icosphere.obj"),
                             "--recon-samples", "200"]) == 0
    with_recon = json.loads(capsys.readouterr().out.strip())
    added = set(with_recon) - set(without)
    assert added == {"cd#", "hd#", "jsd#"}


def test_eval_recon_mesh_samples_a_tiny_mesh(tmp_path, mesh_dir, capsys):
    # a cube scaled by 2^-300: its triangle areas would underflow to zero
    cube = read_mesh(str(mesh_dir / "cube.obj"))
    tiny = tmp_path / "tiny.obj"
    tiny.write_text("".join(f"v {x!r} {y!r} {z!r}\n"
                            for x, y, z in np.ldexp(cube.vertices, -300).tolist())
                    + "".join(f"f {i + 1} {j + 1} {k + 1}\n" for i, j, k in cube.triangles))
    cloud = _write_cloud(tmp_path / "cloud.xyz", sphere_cloud(50, 1.0, 5))
    assert main(["eval", "--pred", cloud, "--gt-dense", cloud, "--gt-mesh",
                 str(mesh_dir / "cube.obj"), "--recon-mesh", str(tiny),
                 "--recon-samples", "100"]) == 0
    assert {"cd#", "hd#", "jsd#"} <= set(json.loads(capsys.readouterr().out))


@pytest.mark.parametrize("flat_flag", ["--recon-mesh", "--gt-mesh"])
def test_eval_recon_mesh_names_the_zero_area_mesh(tmp_path, mesh_dir, capsys, flat_flag):
    flat = tmp_path / "flat.obj"  # every triangle collinear
    flat.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nv 3 0 0\nf 1 2 3\nf 2 3 4\n")
    cloud = _write_cloud(tmp_path / "cloud.xyz", sphere_cloud(50, 1.0, 5))
    meshes = {"--recon-mesh": str(mesh_dir / "icosphere.obj"),
              "--gt-mesh": str(mesh_dir / "icosphere.obj"), flat_flag: str(flat)}
    argv = ["eval", "--pred", cloud, "--gt-dense", cloud, "--recon-samples", "100"]
    assert main(argv + [item for pair in meshes.items() for item in pair]) == 2
    assert capsys.readouterr().err.startswith(f"{flat}: ")


def test_eval_stdout_is_the_same_for_one_and_two_workers(tmp_path, mesh_dir, capsys,
                                                          monkeypatch):
    # with two workers P2F runs beside the pairing metrics
    from pugeo import poisson_disk_sample, read_mesh

    pred = poisson_disk_sample(read_mesh(mesh_dir / "cube.obj"), 300, seed=1)
    gt = poisson_disk_sample(read_mesh(mesh_dir / "icosphere.obj"), 500, seed=2)
    argv = ["eval", "--pred", _write_cloud(tmp_path / "pred.xyz", pred),
            "--gt-dense", _write_cloud(tmp_path / "gt.xyz", gt),
            "--gt-mesh", str(mesh_dir / "icosphere.obj")]
    outputs = []
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["p2f_mean"] > 0.0


def test_inspect_frames_analytic_theta_zero(tmp_path, capsys):
    cloud_path = _write_cloud(tmp_path / "s.xyz", sphere_cloud(150, 1.0, 2))
    rc = main(["inspect", "frames", "--input", cloud_path, "--method", "analytic",
               "--k", "16", "--factor", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("# theta_deg")
    # all angle mass in the first bin [0, 3)
    first_bin = lines[2].split("\t")
    assert first_bin[0] == "0" and int(first_bin[2]) == 150


def test_train_divergence_exit_3(tmp_path, mesh_dir, capsys):
    data = _run_dataset(tmp_path, mesh_dir)
    with np.errstate(all="ignore"):
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m.pugeo"),
                   "--epochs", "50", "--batch", "4", "--k-feature", "6",
                   "--lr", "1e8"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_train_mean_normal_loss_changes_balance(tmp_path, mesh_dir, capsys):
    data = _run_dataset(tmp_path, mesh_dir)
    capsys.readouterr()
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "sum.pugeo"),
               "--epochs", "1", "--batch", "4", "--k-feature", "6"])
    assert rc == 0
    sum_log = json.loads(capsys.readouterr().out.strip().split("\n")[0])
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "mean.pugeo"),
               "--epochs", "1", "--batch", "4", "--k-feature", "6",
               "--mean-normal-loss"])
    assert rc == 0
    mean_log = json.loads(capsys.readouterr().out.strip().split("\n")[0])
    # mean reduction divides the coarse term by the patch size
    assert mean_log["l_coarse"] < sum_log["l_coarse"] / 10


def test_inspect_frames_model_method(tmp_path, capsys):
    cfg = PUGeoConfig(factor=2, patch_size=32, k=6, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    ckpt = tmp_path / "m.pugeo"
    save_model(PUGeoNet(cfg, seed=0), ckpt)
    cloud_path = _write_cloud(tmp_path / "s.xyz", sphere_cloud(100, 1.0, 3))
    rc = main(["inspect", "frames", "--input", cloud_path, "--method", "model",
               "--model", str(ckpt), "--coverage", "1.0"])
    assert rc == 0
    assert "# delta" in capsys.readouterr().out


def _model_checkpoint(path, patch_size):
    cfg = PUGeoConfig(factor=4, patch_size=patch_size, k=4, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    save_model(PUGeoNet(cfg, seed=0), path)
    return str(path)


@pytest.mark.parametrize("coverage,patches", [(0.5, 2), (0.9, 3)])
def test_upsample_model_coverage_below_input_exit_2(tmp_path, capsys, monkeypatch, coverage,
                                                    patches):
    # ceil(coverage*M/N) patches of N points hold fewer than M points, so
    # fusion cannot fill R*M outputs: rejected before any forward pass
    ckpt = _model_checkpoint(tmp_path / "m.pugeo", 32)
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    out = tmp_path / "out.xyz"

    def refuse(*args):
        raise AssertionError("forward pass")

    monkeypatch.setattr(PUGeoNet, "forward", refuse)
    assert main(["upsample", "--input", cloud_path, "--output", str(out), "--method", "model",
                 "--model", ckpt, "--coverage", str(coverage)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"--coverage {coverage} cuts {patches} patches of 32 points, "
                            f"{32 * patches} in all, fewer than the 100 input points\n")
    assert captured.out == "" and not out.exists()


def test_upsample_model_coverage_just_enough(tmp_path, capsys):
    # ceil(0.97*100/32) = 4 patches of 32 points: 128 >= 100
    ckpt = _model_checkpoint(tmp_path / "m.pugeo", 32)
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    out = tmp_path / "out.xyz"
    assert main(["upsample", "--input", cloud_path, "--output", str(out), "--method", "model",
                 "--model", ckpt, "--coverage", "0.97"]) == 0
    assert len(read_xyz(out)) == 400


def _forwards_with_no_earlier_output_alive(monkeypatch, argv, workers=1) -> int:
    """How many forward passes `main(argv)` runs on `workers` threads, each
    asserting that no earlier patch's output (and so its arrays) is still
    alive but those of the other workers' forward passes."""
    outputs, forward = [], PUGeoNet.forward

    def tracked(self, points):
        alive = sum(ref() is not None for ref in outputs)
        assert alive < workers, "an earlier patch's output is alive"
        out = forward(self, points)
        outputs.append(weakref.ref(out))
        return out

    with monkeypatch.context() as patched:
        force_workers(patched, workers)
        patched.setattr(PUGeoNet, "forward", tracked)
        assert main(argv) == 0
    return len(outputs)


def test_inspect_frames_model_drops_each_output_before_the_next_forward(tmp_path, capsys,
                                                                        monkeypatch):
    # every patch's output holds its autodiff graph; keeping them all grew
    # peak memory with the patch count
    ckpt = _model_checkpoint(tmp_path / "m.pugeo", 32)
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    argv = ["inspect", "frames", "--input", cloud_path, "--method", "model", "--model", ckpt]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert _forwards_with_no_earlier_output_alive(monkeypatch, argv) == 10  # ceil(3*100/32)
    assert capsys.readouterr().out == expected


def test_upsample_model_drops_each_output_before_the_next_forward(tmp_path, capsys,
                                                                  monkeypatch):
    ckpt = _model_checkpoint(tmp_path / "m.pugeo", 32)
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    out = tmp_path / "out.xyz"
    argv = ["upsample", "--input", cloud_path, "--output", str(out), "--method", "model",
            "--model", ckpt]
    assert main(argv) == 0
    expected = out.read_bytes(), capsys.readouterr()
    assert _forwards_with_no_earlier_output_alive(monkeypatch, argv) == 10
    assert (out.read_bytes(), capsys.readouterr()) == expected
    # each worker holds at most its own patch's output
    assert _forwards_with_no_earlier_output_alive(monkeypatch, argv, workers=2) == 10
    assert (out.read_bytes(), capsys.readouterr()) == expected


@pytest.mark.parametrize("coverage", ["1.0", "3.0"])
def test_inspect_frames_model_reports_the_candidates_upsample_fuses(tmp_path, capsys,
                                                                    coverage):
    # the frames and displacements of the per-patch loop inspect ran on its
    # own, and upsample's output the FPS fusion of that loop's candidates
    ckpt = _model_checkpoint(tmp_path / "m.pugeo", 32)
    path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    pieces, frames, deltas = reference.patch_forwards(read_xyz(path), load_model(ckpt),
                                                      float(coverage))
    model = ["--method", "model", "--model", ckpt, "--coverage", coverage]
    assert main(["inspect", "frames", "--input", path, *model]) == 0
    assert capsys.readouterr().out == frame_stats(frames, deltas).to_tsv()
    out, expected = tmp_path / "out.xyz", tmp_path / "expected.xyz"
    assert main(["upsample", "--input", path, "--output", str(out), *model]) == 0
    write_xyz(fuse_patches(pieces, 4 * 100), expected)
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("coverage", ["0.5", "1", "2.5", "5"])
def test_inspect_frames_analytic_draws_upsample_candidates(tmp_path, capsys, coverage):
    # ceil(coverage*R) samples per point, as upsample draws: the frames (the
    # theta table) are those of R=4, the delta table counts every candidate
    path = _write_cloud(tmp_path / "s.xyz", sphere_cloud(150, 1.0, 2))

    def tsv(per_point):
        result = upsample_analytic(read_xyz(path), per_point, k=16)
        return frame_stats(result.frames, result.deltas).to_tsv()

    assert main(["inspect", "frames", "--input", path, "--coverage", coverage]) == 0
    out = capsys.readouterr().out
    per_point = math.ceil(float(coverage) * 4)
    assert out == tsv(per_point)
    theta, delta = out.split("\n\n")
    fixed_theta, fixed_delta = tsv(4).split("\n\n")  # R samples whatever --coverage said
    assert theta == fixed_theta
    assert (delta == fixed_delta) == (per_point == 4)
    assert sum(int(line.split("\t")[2]) for line in delta.splitlines()[2:]) == 150 * per_point


def test_inspect_frames_warns_as_upsample_does(tmp_path, capsys):
    # a straight line beside a flat grid: only the line's frames are degenerate
    t = np.linspace(0.0, 1.0, 300)
    u, v = np.meshgrid(np.arange(20.0), np.arange(15.0))
    grid = np.column_stack([u.ravel(), v.ravel(), np.zeros(300)]) / 20.0
    path = _write_cloud(tmp_path / "mixed.xyz", PointCloud(
        np.concatenate([grid, np.column_stack([t, 2.0 * t, -t]) + 5.0])))
    errors = []
    for argv in (["upsample", "--output", str(tmp_path / "up.xyz")], ["inspect", "frames"]):
        assert main(argv + ["--input", path]) == 0
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        "warning: 300 degenerate frames and 0 degenerate curvature fits in 600 input "
        "points; those points were upsampled on a flat disk\n")


def test_upsample_analytic_coverage_past_one_array_exit_2(tmp_path, capsys):
    path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(200, 1.0, 0))
    out = tmp_path / "out.xyz"
    assert main(["upsample", "--input", path, "--output", str(out), "--coverage", "1e20"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("--coverage 1e+20 asks for 80000000000000000000000 candidates, "
                            "400000000000000000000 per input point: more than numpy can hold "
                            "in one array\n")
    assert captured.out == "" and not out.exists()


def test_upsample_analytic_coverage_out_of_memory_exit_2(tmp_path, capsys, monkeypatch):
    # 4e12 candidates per point ask numpy for 29.1 TiB; stand in for its refusal
    def refuse(cloud, factor, **kwargs):
        raise MemoryError(f"Unable to allocate {factor * len(cloud) * 24} bytes")

    monkeypatch.setattr(upsample, "upsample_analytic", refuse)
    path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(200, 1.0, 0))
    out = tmp_path / "out.xyz"
    assert main(["upsample", "--input", path, "--output", str(out), "--coverage", "1e12"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("--coverage 1000000000000.0 asks for 800000000000000 candidates, "
                            "4000000000000 per input point: out of memory\n")
    assert captured.out == "" and not out.exists()


def _sample_count_argv(command, count, tmp_path, mesh_dir):
    """(argv, flags as the error names them, output path) of a command sampling `count`."""
    cloud = _write_cloud(tmp_path / "in.xyz", sphere_cloud(50, 1.0, 0))
    out = tmp_path / "out"
    if command == "eval":
        mesh = str(mesh_dir / "icosphere.obj")
        return (["eval", "--pred", cloud, "--gt-dense", cloud, "--gt-mesh", mesh,
                 "--recon-mesh", mesh, "--recon-samples", str(count)],
                f"--recon-samples {count}", out)
    return (["dataset", "build", "--mesh-dir", str(mesh_dir), "--out", str(out),
             "--points", str(count)], f"--points {count} and --factor 4", out)


@pytest.mark.parametrize("command", ["eval", "dataset"])
def test_sample_count_out_of_memory_exit_2(tmp_path, mesh_dir, capsys, monkeypatch, command):
    # 1e12 samples per mesh ask numpy for 29.1 TiB; stand in for its refusal
    def refuse(mesh, count, rng):
        raise MemoryError(f"Unable to allocate {count * 24} bytes")

    argv, flags, out = _sample_count_argv(command, 1000000000000, tmp_path, mesh_dir)
    monkeypatch.setattr(sampling, "_dart_throw", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{flags}: out of memory\n" and captured.out == "" and not out.exists()


@pytest.mark.parametrize("count", [10000000000000000000, 1000000000000000000])
@pytest.mark.parametrize("command", ["eval", "dataset"])
def test_sample_count_past_one_array_exit_2(tmp_path, mesh_dir, capsys, command, count):
    # 1e19 does not fit a C long and 1e18 samples' darts pass numpy's size limit:
    # both are refused before sampling, naming the flag
    argv, flags, out = _sample_count_argv(command, count, tmp_path, mesh_dir)
    darts = count * (4 if command == "eval" else 16)  # 4 darts per sample, factor 4
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"{flags}: {darts} Poisson candidates: more than numpy can hold "
                            f"in one array\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["eval", "dataset"])
def test_sample_count_limit_is_the_darts_float64_bytes(tmp_path, mesh_dir, capsys, monkeypatch,
                                                       command):
    # the largest count whose darts' float64 coordinates fit in np.intp bytes is
    # sampled (numpy's refusal stood in for), and one more is refused up front
    def refuse(mesh, count, rng):
        raise MemoryError(f"Unable to allocate {count * 24} bytes")

    largest = np.iinfo(np.intp).max // (24 * (4 if command == "eval" else 16))
    runs = [(_sample_count_argv(command, count, tmp_path, mesh_dir), message)
            for count, message in ((largest, "out of memory"),
                                   (largest + 1, "more than numpy can hold in one array"))]
    monkeypatch.setattr(sampling, "_dart_throw", refuse)
    for (argv, _, out), message in runs:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith(f": {message}\n") and not out.exists()


@pytest.mark.parametrize("command", ["upsample", "inspect"])
def test_uncovered_points_one_warning_line(tmp_path, capsys, command):
    # two patches of 64 around FPS seeds miss part of the 120-point cluster;
    # the count comes from the CLI as one line, not as a Python warning
    cloud = clustered_cloud()
    counts = {}
    ckpt = _model_checkpoint(tmp_path / "m.pugeo", 64)
    upsample_cloud(cloud, 4, model=load_model(ckpt), coverage=1.0, counts=counts)
    assert counts["uncovered"] > 0
    path = _write_cloud(tmp_path / "in.xyz", cloud)
    if command == "upsample":
        argv = ["upsample", "--input", path, "--output", str(tmp_path / "o.xyz")]
    else:
        argv = ["inspect", "frames", "--input", path]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--method", "model", "--model", ckpt, "--coverage", "1.0"]) == 0
    assert capsys.readouterr().err == (f"warning: {counts['uncovered']} of 128 input points "
                                       f"are in no patch\n")


@pytest.mark.parametrize("command,method,factor,message", [
    ("upsample", "model", None, None),
    ("upsample", "model", "2", None),
    ("upsample", "model", "8", "--factor 8 does not match checkpoint factor 2"),
    ("upsample", "model", "0", "--factor must be >= 1, got 0"),
    ("inspect", "model", None, None),
    ("inspect", "model", "2", None),
    ("inspect", "model", "8", "--factor 8 does not match checkpoint factor 2"),
    ("inspect", "model", "0", "--factor must be >= 1, got 0"),
    ("inspect", "analytic", "0", "--factor must be >= 1, got 0"),
], ids=["upsample_default", "upsample_2", "upsample_8", "upsample_0", "inspect_default",
        "inspect_2", "inspect_8", "inspect_0", "inspect_analytic_0"])
def test_factor_defaults_to_and_must_match_the_checkpoint(tmp_path, capsys, command, method,
                                                          factor, message):
    cfg = PUGeoConfig(factor=2, patch_size=32, k=6, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    ckpt = tmp_path / "m.pugeo"
    save_model(PUGeoNet(cfg, seed=0), ckpt)
    path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    out = tmp_path / "o.xyz"
    if command == "upsample":
        argv = ["upsample", "--input", path, "--output", str(out)]
    else:
        argv = ["inspect", "frames", "--input", path]
    argv += ["--method", method, "--model", str(ckpt)]
    if factor is not None:
        argv += ["--factor", factor]
    rc = main(argv)
    captured = capsys.readouterr()
    if message is not None:
        assert rc == 2 and captured.err == message + "\n" and captured.out == ""
        assert not out.exists()
    elif command == "upsample":
        assert rc == 0 and len(read_xyz(out)) == 200
    else:
        assert rc == 0 and "# delta" in captured.out


@pytest.mark.parametrize("command", ["upsample_analytic", "upsample_model", "inspect_model",
                                     "dataset"])
def test_huge_finite_coverage(tmp_path, mesh_dir, capsys, command):
    # 1e308*M/N overflows to inf; clamped, it is one patch per point, as from
    # any coverage >= N
    path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(40, 1.0, 0))
    ckpt = _model_checkpoint(tmp_path / "m.pugeo", 32)

    def run(coverage):
        out = tmp_path / f"out_{coverage}"
        argv = {
            "upsample_analytic": ["upsample", "--input", path, "--output", str(out)],
            "upsample_model": ["upsample", "--input", path, "--output", str(out),
                               "--method", "model", "--model", ckpt],
            "inspect_model": ["inspect", "frames", "--input", path, "--method", "model",
                              "--model", ckpt],
            "dataset": ["dataset", "build", "--mesh-dir", str(mesh_dir), "--out", str(out),
                        "--points", "32", "--patch-size", "16", "--factor", "2"],
        }[command]
        rc = main(argv + ["--coverage", coverage])
        captured = capsys.readouterr()
        return rc, captured, out

    rc, captured, out = run("1e308")
    if command == "upsample_analytic":
        assert rc == 2 and captured.out == "" and not out.exists()
        assert captured.err == ("--coverage 1e+308 times --factor 4 overflows the candidates "
                                "per input point\n")
        return
    assert rc == 0
    finite = run("40" if command != "dataset" else "32")
    if command == "upsample_model":
        assert out.read_bytes() == finite[2].read_bytes()
    elif command == "inspect_model":
        assert captured.out == finite[1].out
    else:
        assert json.loads(captured.out)["patches"] == 64  # 32 per mesh
        assert all((out / name).read_bytes() == (finite[2] / name).read_bytes()
                   for name in os.listdir(out) if name.endswith(".xyz"))


@pytest.mark.parametrize("command", ["upsample", "inspect"])
def test_model_input_smaller_than_patch_names_the_file(tmp_path, capsys, command):
    cfg = PUGeoConfig(factor=4, patch_size=64, k=6, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    ckpt = tmp_path / "m.pugeo"
    save_model(PUGeoNet(cfg, seed=0), ckpt)
    path = _write_cloud(tmp_path / "small.xyz", sphere_cloud(40, 1.0, 0))
    out = tmp_path / "o.xyz"
    if command == "upsample":
        argv = ["upsample", "--input", path, "--output", str(out)]
    else:
        argv = ["inspect", "frames", "--input", path]
    assert main(argv + ["--method", "model", "--model", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"{path}: need at least 64 points for the checkpoint's "
                            f"patch size, got 40\n")
    assert captured.out == "" and not out.exists()


# ---------------------------------------------------------------------------
# robustness of analytic upsampling to noisy and non-uniform input


def _upsample_checked(tmp_path, name, cloud, capsys):
    """CLI analytic upsampling: exit 0, finite output, the counts on stderr."""
    path = _write_cloud(tmp_path / f"{name}.xyz", cloud)
    out = tmp_path / f"{name}_up.xyz"
    capsys.readouterr()
    assert main(["upsample", "--input", path, "--output", str(out)]) == 0
    err = capsys.readouterr().err
    counts = {}
    upsample_cloud(read_xyz(path), 4, counts=counts)
    expected = []
    if counts["degenerate_frames"] or counts["degenerate_fits"]:
        expected = [f"warning: {counts['degenerate_frames']} degenerate frames and "
                    f"{counts['degenerate_fits']} degenerate curvature fits in "
                    f"{counts['points']} input points; those points were upsampled "
                    f"on a flat disk"]
    assert err.splitlines() == expected
    result = read_xyz(out)
    assert len(result) == 4 * len(cloud) and np.isfinite(result.points).all()
    return result.points


def test_upsample_robust_to_noise_and_density_skew(tmp_path, mesh_dir, capsys):
    # P2F (point-to-surface distance) against the icosphere fixture, clean
    # against noisy and density-skewed input of the same size.  At seeds 1-5
    # (this test runs 3): noise sigma 0.005 raised it 2.67-3.05x, to
    # 0.73-0.81 of the noisy input's own P2F plus the clean output's
    # (upsampling smooths the noise, it does not amplify it); a 20:1
    # density skew moved it 0.93-1.02x.
    from pugeo import poisson_disk_sample, read_mesh
    from pugeo.metrics import metric_p2f
    from pugeo.trainer import scale_to_unit_cube

    (mesh_dir / "cube.obj").unlink()
    mesh = scale_to_unit_cube(read_mesh(mesh_dir / "icosphere.obj"))
    m, seed = 400, 3
    p2f = {}
    for sigma in (0.0, 0.005):
        # patch size = points: one patch holds the whole sparse cloud, and its
        # dense patch the whole dense cloud under the same normalization
        out = tmp_path / f"data{sigma}"
        assert main(["--seed", str(seed), "dataset", "build", "--mesh-dir", str(mesh_dir),
                     "--out", str(out), "--points", str(m), "--factor", "4",
                     "--patch-size", str(m), "--coverage", "1.0",
                     "--noise-sigma", str(sigma)]) == 0
        sparse = read_xyz(out / "patch_0000_sparse.xyz")
        dense = read_xyz(out / "patch_0000_dense.xyz").points
        # the dense cloud is sampled from seed + 1 whatever the noise; its
        # mean and spread undo the patch normalization
        truth = poisson_disk_sample(mesh, 4 * m, seed + 1).points
        scale = truth.std() / dense.std()
        center = truth.mean(axis=0) - scale * dense.mean(axis=0)
        np.testing.assert_allclose(np.sort(dense * scale + center, axis=0),
                                   np.sort(truth, axis=0), atol=1e-4)
        up = _upsample_checked(tmp_path, f"noise{sigma}", sparse, capsys)
        p2f[sigma] = metric_p2f(up * scale + center, mesh)[0]
        p2f[sigma, "input"] = metric_p2f(sparse.points * scale + center, mesh)[0]
    assert p2f[0.005] < 4.0 * p2f[0.0]
    assert p2f[0.005] < p2f[0.005, "input"] + p2f[0.0]

    # keep 20x more points at the top of the sphere than at the bottom
    pool = poisson_disk_sample(mesh, 4 * m, seed + 100)
    z = pool.points[:, 2]
    weight = 0.05 + 0.95 * (z - z.min()) / (z.max() - z.min())
    keep = np.sort(np.random.default_rng(seed).choice(4 * m, size=m, replace=False,
                                                      p=weight / weight.sum()))
    skewed = _upsample_checked(tmp_path, "skewed", PointCloud(pool.points[keep]), capsys)
    uniform = _upsample_checked(tmp_path, "uniform",
                                PointCloud(poisson_disk_sample(mesh, m, seed + 200).points),
                                capsys)
    assert metric_p2f(skewed, mesh)[0] < 1.25 * metric_p2f(uniform, mesh)[0]
