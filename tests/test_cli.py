import argparse
import inspect
import json
import os

import numpy as np
import pytest

from pugeo import (PointCloud, PUGeoConfig, PUGeoNet, load_model, read_xyz, save_model,
                   upsample_cloud, write_xyz)
from pugeo import cli
from pugeo.cli import main

from helpers import set_checkpoint_config_entry, sphere_cloud, unit_rows


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


def test_upsample_missing_model_exit_2(tmp_path, capsys):
    cloud_path = _write_cloud(tmp_path / "in.xyz", sphere_cloud(100, 1.0, 0))
    rc = main(["upsample", "--input", cloud_path, "--output", str(tmp_path / "o.xyz"),
               "--method", "model"])
    assert rc == 2
    assert "--model" in capsys.readouterr().err


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
    # 8 patches of 256 points, the 4 on the line collinear
    assert captured.err.splitlines() == [
        "warning: 1024 degenerate frames and 0 degenerate curvature fits in 2048 patch "
        "points; those points were upsampled on a flat disk"]
    expected = tmp_path / "expected.xyz"
    write_xyz(upsample_cloud(cloud, 4, seed=42), expected)
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
    # 4 patches of 256 points, every neighborhood collinear
    assert captured.err.splitlines() == [
        "numerical failure: all 1024 patch points have degenerate frames "
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
    assert counts["patch_points"] == 100  # the whole cloud as one patch


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
], ids=["xyz_not_utf8", "obj_short_normal", "obj_repeated_index", "ply_bad_count",
        "ply_short_face", "ply_bad_vertex"])
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


def test_train_factor_mismatch_exit_2(tmp_path, mesh_dir, capsys):
    data = _run_dataset(tmp_path, mesh_dir)
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "m.pugeo"),
               "--factor", "8", "--epochs", "0"])
    assert rc == 2


@pytest.mark.parametrize("text", [
    json.dumps({"config": {"factor": 4, "patch_size": 64},
                "patches": [{"sparse": "a.xyz", "dense": "b.xyz"}]}),
    json.dumps({"patches": [{"sparse": "a.xyz", "dense": "b.xyz", "seed_index": 0}]}),
    "[]",
    "{",
], ids=["entry_without_seed_index", "no_config", "top_level_list", "not_json"])
def test_train_malformed_manifest_exit_2(tmp_path, capsys, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.pugeo"),
               "--epochs", "0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"{path}: ")


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


@pytest.mark.filterwarnings("ignore:.*not covered.*")
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
    upsample_cloud(read_xyz(path), 4, seed=42, counts=counts)
    expected = []
    if counts["degenerate_frames"] or counts["degenerate_fits"]:
        expected = [f"warning: {counts['degenerate_frames']} degenerate frames and "
                    f"{counts['degenerate_fits']} degenerate curvature fits in "
                    f"{counts['patch_points']} patch points; those points were upsampled "
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
