import io
import json
import math

import numpy as np
import pytest

import pugeo.autodiff as ad
from pugeo import (LossWeights, PointCloud, PUGeoConfig, PUGeoNet, TrainConfig, chamfer,
                   poisson_disk_sample, upsample_analytic)
from pugeo import model, trainer
from pugeo.errors import TrainingDiverged
from pugeo.metrics import report_metrics
from pugeo.trainer import (TrainExample, augment_example, build_dataset,
                           scale_to_unit_cube, train, upsample_cloud)

import reference
from helpers import count_index_builds, cube_mesh, icosphere, sphere_cloud, unit_rows

TINY_MODEL = dict(factor=4, patch_size=64, k=6, feature_widths=(16, 32),
                  hr_hidden=16, f1_hidden=32, f2_hidden=32, f3_hidden=16, f4_hidden=16)


def _toy_example(seed=0, n=16, factor=2):
    rng = np.random.default_rng(seed)
    return TrainExample(
        sparse_points=rng.normal(size=(n, 3)),
        sparse_normals=unit_rows(rng.normal(size=(n, 3))),
        dense_points=rng.normal(size=(factor * n, 3)),
        dense_normals=unit_rows(rng.normal(size=(factor * n, 3))))


# ---------------------------------------------------------------------------
# dataset construction


def test_scale_to_unit_cube():
    mesh = scale_to_unit_cube(cube_mesh(side=7.0))
    extent = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
    assert abs(extent.max() - 1.0) < 1e-12
    center = 0.5 * (mesh.vertices.max(axis=0) + mesh.vertices.min(axis=0))
    assert np.abs(center).max() < 1e-12


def test_build_dataset_counts():
    examples = build_dataset([icosphere(2)], m=512, factor=4, patch_size=256, seed=0,
                             coverage=3.0)
    assert len(examples) == math.ceil(3.0 * 512 / 256)
    for ex in examples:
        assert ex.sparse_points.shape == (256, 3)
        assert ex.dense_points.shape == (1024, 3)
        assert ex.sparse_normals.shape == (256, 3)
        assert ex.dense_normals.shape == (1024, 3)


def test_build_dataset_normalization_shared():
    examples = build_dataset([icosphere(2)], m=256, factor=2, patch_size=128, seed=1,
                             coverage=1.0)
    for ex in examples:
        # sparse patch is unit-radius by construction; dense shares the transform
        assert abs(np.linalg.norm(ex.sparse_points, axis=1).max() - 1.0) < 1e-6
        assert np.abs(ex.sparse_points.mean(axis=0)).max() < 1e-6
        assert np.linalg.norm(ex.dense_points, axis=1).max() < 2.0


def test_build_dataset_deterministic():
    a = build_dataset([icosphere(2)], m=128, factor=2, patch_size=64, seed=7)
    b = build_dataset([icosphere(2)], m=128, factor=2, patch_size=64, seed=7)
    assert len(a) == len(b)
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.sparse_points, eb.sparse_points)
        assert np.array_equal(ea.dense_points, eb.dense_points)


def test_build_dataset_noise_only_on_sparse():
    clean = build_dataset([icosphere(2)], m=128, factor=2, patch_size=64, seed=3)
    noisy = build_dataset([icosphere(2)], m=128, factor=2, patch_size=64, seed=3,
                          noise_sigma=0.01)
    assert not np.array_equal(clean[0].sparse_points, noisy[0].sparse_points)


# ---------------------------------------------------------------------------
# augmentation of paired examples


def test_augment_example_consistent_rotation(monkeypatch):
    monkeypatch.setattr(trainer, "_JITTER_SIGMA", 0.0)
    ex = _toy_example(1)
    rng = np.random.default_rng(5)
    out = augment_example(ex, rng)
    # pairwise distances between dense points scale uniformly
    from scipy.spatial.distance import pdist

    ratio = pdist(out.dense_points) / pdist(ex.dense_points)
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)
    # normals stay unit and follow the same rotation as the points
    np.testing.assert_allclose(np.linalg.norm(out.sparse_normals, axis=1), 1.0,
                               atol=1e-9)
    dots_before = np.einsum("ij,ij->i", ex.sparse_normals, ex.sparse_points)
    dots_after = np.einsum("ij,ij->i", out.sparse_normals,
                           out.sparse_points / ratio[0])
    np.testing.assert_allclose(dots_before, dots_after, atol=1e-9)


# ---------------------------------------------------------------------------
# training loop


def test_train_zero_epochs_keeps_parameters():
    cfg = PUGeoConfig(factor=2, patch_size=16, k=4, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    net = PUGeoNet(cfg, seed=0)
    before = [t.data.copy() for _, t in net.named_params()]
    train(TrainConfig(epochs=0, seed=0), [_toy_example()], net)
    for old, (_, t) in zip(before, net.named_params()):
        assert np.array_equal(old, t.data)


def test_train_deterministic_bitwise():
    def run():
        cfg = PUGeoConfig(factor=2, patch_size=16, k=4, feature_widths=(8, 8),
                          hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8,
                          f4_hidden=8)
        net = PUGeoNet(cfg, seed=1)
        dataset = [_toy_example(s) for s in range(3)]
        train(TrainConfig(batch_size=2, epochs=3, seed=9), dataset, net)
        return [t.data.copy() for _, t in net.named_params()]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_train_steps_match_full_sort_knn_and_add_at_gather(monkeypatch):
    # the pruned kNN and the CSR scatter change no bit of training
    def two_steps():
        net = PUGeoNet(PUGeoConfig(**TINY_MODEL), seed=4)
        dataset = [_toy_example(s, n=64, factor=4) for s in range(4)]
        train(TrainConfig(batch_size=2, epochs=1, seed=5), dataset, net)
        return [t.data.tobytes() for _, t in net.named_params()]

    fast = two_steps()
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(model, "_knn_indices", counted("knn", reference.knn_indices))
    monkeypatch.setattr(ad, "gather", counted("gather", reference.gather))
    assert two_steps() == fast
    assert {"knn", "gather"} <= set(calls)


def test_train_emits_json_log_per_epoch():
    cfg = PUGeoConfig(factor=2, patch_size=16, k=4, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    net = PUGeoNet(cfg, seed=2)
    stream = io.StringIO()
    _, history = train(TrainConfig(epochs=4, seed=0), [_toy_example()], net,
                       log_stream=stream)
    lines = [json.loads(line) for line in stream.getvalue().strip().split("\n")]
    assert len(lines) == 4 == len(history)
    for record in lines:
        assert set(record) == {"epoch", "l_total", "l_cd", "l_coarse", "l_refined"}
        assert np.isfinite(record["l_total"])


def test_train_loss_decreases_on_toy_patch():
    cfg = PUGeoConfig(factor=2, patch_size=16, k=4, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    net = PUGeoNet(cfg, seed=3)
    _, history = train(TrainConfig(epochs=60, seed=0, augment=False, lr=0.003),
                       [_toy_example(4)], net)
    assert history[-1]["l_total"] < history[0]["l_total"]


def test_train_diverges_with_absurd_lr():
    cfg = PUGeoConfig(factor=2, patch_size=16, k=4, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    net = PUGeoNet(cfg, seed=0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
        train(TrainConfig(batch_size=1, epochs=50, lr=1e8, seed=0), [_toy_example(5)], net)
    assert "step" in info.value.diagnostics
    assert "grad_norms" in info.value.diagnostics


@pytest.mark.parametrize("fail_at,step,examples", [(1, 0, 0), (4, 1, 1)],
                         ids=["first_example_of_step_0", "second_example_of_step_1"])
def test_train_divergence_diagnostics_name_their_step(monkeypatch, fail_at, step, examples):
    cfg = PUGeoConfig(factor=2, patch_size=16, k=4, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    net = PUGeoNet(cfg, seed=0)
    real = trainer._example_losses
    evaluated = []

    def diverging(*args):
        if len(evaluated) + 1 == fail_at:
            raise TrainingDiverged("non-finite model output")
        result = real(*args)
        evaluated.append([t.item() for t in result[1:]])
        return result

    monkeypatch.setattr(trainer, "_example_losses", diverging)
    with pytest.raises(TrainingDiverged) as info:
        train(TrainConfig(batch_size=2, epochs=2, seed=0, augment=False),
              [_toy_example(1), _toy_example(2)], net)
    diag = info.value.diagnostics
    assert diag["step"] == step and diag["examples"] == examples
    # the mean over the examples of the failing step evaluated before it failed
    assert diag["components"] == (evaluated[2] if examples else None)
    if step == 0:  # no backward pass has run yet
        assert diag["grad_step"] is None and diag["grad_norms"] == {}
    else:
        assert diag["grad_step"] == 0
        assert set(diag["grad_norms"]) == {name for name, _ in net.named_params()}
        assert all(math.isfinite(v) for v in diag["grad_norms"].values())
        assert any(v > 0.0 for v in diag["grad_norms"].values())


def test_example_losses_pair_output_and_dense_once(monkeypatch):
    # Chamfer and the refined normal term share one pairing: one tree per set
    net = PUGeoNet(PUGeoConfig(**TINY_MODEL), seed=0)
    example = _toy_example(n=64, factor=4)
    builds = count_index_builds(monkeypatch)
    trainer._example_losses(net, example, LossWeights())
    assert builds == [256, 256]


def test_train_checkpoints_written(tmp_path):
    cfg = PUGeoConfig(factor=2, patch_size=16, k=4, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    net = PUGeoNet(cfg, seed=0)
    train(TrainConfig(epochs=4, seed=0, checkpoint_every=2),
          [_toy_example()], net, checkpoint_dir=str(tmp_path))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["checkpoint_epoch0002.pugeo", "checkpoint_epoch0004.pugeo",
                     "checkpoint_final.pugeo"]


# ---------------------------------------------------------------------------
# evaluation pipeline


def test_evaluate_ground_truth_against_itself():
    mesh = icosphere(2)
    dense = poisson_disk_sample(mesh, 256, seed=0)
    report = report_metrics(dense, dense, mesh)
    assert report.cd == 0.0 and report.hd == 0.0 and report.jsd == 0.0


def test_upsample_cloud_exact_count_and_determinism():
    cloud = sphere_cloud(300, 1.0, seed=0)
    a = upsample_cloud(cloud, 4, method="analytic", k=16, patch_size=100, coverage=2.0)
    b = upsample_cloud(cloud, 4, method="analytic", k=16, patch_size=100, coverage=2.0)
    assert len(a) == 1200
    assert np.array_equal(a.points, b.points)


def test_evaluate_analytic_beats_zero_displacement_on_sphere():
    mesh = icosphere(3, radius=2.0)
    cloud = sphere_cloud(600, 2.0, seed=1)
    gt_dense = sphere_cloud(2400, 2.0, seed=2)
    reports = []
    for displacement in (True, False):
        result = upsample_analytic(cloud, 4, k=16, displacement=displacement)
        reports.append(report_metrics(PointCloud(result.points, result.normals),
                                      gt_dense, mesh, factor=4))
    with_d, without = reports
    assert with_d.cd < without.cd


def test_evaluate_report_schema():
    mesh = icosphere(2)
    cloud = PointCloud(*(lambda c: (c.points, c.normals))(poisson_disk_sample(mesh, 128, 3)))
    gt_dense = poisson_disk_sample(mesh, 256, seed=4)
    pred = upsample_cloud(cloud, 2, method="analytic", k=12, patch_size=64, coverage=2.0)
    report = report_metrics(pred, gt_dense, mesh, factor=2)
    data = report.to_dict()
    assert {"cd", "hd", "jsd", "p2f_mean", "p2f_std"} <= set(data)
    assert data["pred_count"] == 256


def test_model_method_through_pipeline():
    cfg = PUGeoConfig(factor=2, patch_size=32, k=6, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    net = PUGeoNet(cfg, seed=0)
    cloud = sphere_cloud(128, 1.0, seed=5)
    fused = upsample_cloud(cloud, 2, method="model", model=net, coverage=2.0)
    assert len(fused) == 256
    assert fused.normals is not None
