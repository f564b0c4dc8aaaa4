import io
import json
import math
import os
import sys
import threading

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


@pytest.mark.parametrize("fail_step,fail_position,examples", [(0, 0, 0), (1, 1, 1)],
                         ids=["first_example_of_step_0", "second_example_of_step_1"])
def test_train_divergence_diagnostics_name_their_step(monkeypatch, fail_step, fail_position,
                                                      examples):
    # the failing example is picked by identity and by how often it was
    # evaluated, which threads do not reorder: one batch holds the whole
    # dataset, so each step evaluates every example once
    dataset = [_toy_example(1), _toy_example(2)]
    rng = np.random.default_rng(0)  # train's draws: one permutation per epoch
    orders = [rng.permutation(len(dataset)) for _ in range(2)]
    failing = dataset[orders[fail_step][fail_position]]
    real = trainer._example_losses
    for workers in (1, 2):
        monkeypatch.setattr(trainer, "_worker_count", lambda batch_size, n=workers: n)
        cfg = PUGeoConfig(factor=2, patch_size=16, k=4, feature_widths=(8, 8),
                          hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
        net = PUGeoNet(cfg, seed=0)
        calls = {id(ex): 0 for ex in dataset}
        evaluated = {}  # (example id, its step) -> loss components

        def diverging(model_, example, *args):
            example_step = calls[id(example)]
            calls[id(example)] += 1
            if example is failing and example_step == fail_step:
                raise TrainingDiverged("non-finite model output")
            result = real(model_, example, *args)
            evaluated[id(example), example_step] = [t.item() for t in result[1:]]
            return result

        monkeypatch.setattr(trainer, "_example_losses", diverging)
        with pytest.raises(TrainingDiverged) as info:
            train(TrainConfig(batch_size=2, epochs=2, seed=0, augment=False), dataset, net)
        diag = info.value.diagnostics
        assert diag["step"] == fail_step and diag["examples"] == examples
        # the mean over the examples of the failing step evaluated before it failed
        before = dataset[orders[fail_step][0]]
        assert diag["components"] == (evaluated[id(before), fail_step] if examples else None)
        if fail_step == 0:  # no backward pass has run yet
            assert diag["grad_step"] is None and diag["grad_norms"] == {}
        else:
            assert diag["grad_step"] == 0
            assert set(diag["grad_norms"]) == {name for name, _ in net.named_params()}
            assert all(math.isfinite(v) for v in diag["grad_norms"].values())
            assert any(v > 0.0 for v in diag["grad_norms"].values())


# ---------------------------------------------------------------------------
# examples of a batch on worker threads


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(trainer, "_worker_count", lambda batch_size: min(batch_size, workers))


@pytest.mark.parametrize("batch_size", [2, 3])
@pytest.mark.parametrize("config", [{}, {"normal_reduction": "mean"}, {"coarse_to_fine": False}],
                         ids=["default", "mean_normal_loss", "no_coarse_to_fine"])
def test_threaded_steps_match_joint_graph_reference(monkeypatch, tmp_path, config, batch_size):
    # per-example backward passes added in batch order give the joint graph's
    # gradients bit for bit; 5 examples end on a short batch, and a batch of
    # 3 makes the order of the additions matter
    model_config = dict(TINY_MODEL, coarse_to_fine=config.get("coarse_to_fine", True))
    reduction = config.get("normal_reduction", "sum")
    dataset = [_toy_example(s, n=64, factor=4) for s in range(5)]

    def run(name, train_fn, workers=1):
        _force_workers(monkeypatch, workers)
        net = PUGeoNet(PUGeoConfig(**model_config), seed=4)
        out = tmp_path / name
        out.mkdir()
        _, history = train_fn(TrainConfig(batch_size=batch_size, epochs=2, seed=5,
                                          normal_reduction=reduction),
                              dataset, net, checkpoint_dir=str(out))
        return (out / "checkpoint_final.pugeo").read_bytes(), history

    expected = run("reference", reference.train)
    assert run("one_worker", train, 1) == expected
    assert run("two_workers", train, 2) == expected
    initial = PUGeoNet(PUGeoConfig(**model_config), seed=4)
    model.save_model(initial, str(tmp_path / "initial.pugeo"))
    assert (tmp_path / "initial.pugeo").read_bytes() != expected[0]


def test_threaded_steps_under_thread_switch_stress(monkeypatch):
    # more workers than cores and a thread switch every microsecond: a
    # shared write or a lost gradient would change the parameters
    dataset = [_toy_example(s, n=64, factor=4) for s in range(6)]

    def params_after(train_fn):
        net = PUGeoNet(PUGeoConfig(**TINY_MODEL), seed=7)
        train_fn(TrainConfig(batch_size=6, epochs=2, seed=3), dataset, net)
        return [t.data.tobytes() for _, t in net.named_params()]

    expected = params_after(reference.train)
    _force_workers(monkeypatch, 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert params_after(train) == expected
    finally:
        sys.setswitchinterval(interval)


def test_threaded_train_runs_examples_on_workers_and_joins_them(monkeypatch):
    _force_workers(monkeypatch, 2)
    real = trainer._example_losses
    seen = set()

    def recording(*args):
        seen.add(threading.current_thread())
        return real(*args)

    monkeypatch.setattr(trainer, "_example_losses", recording)
    before = set(threading.enumerate())
    net = PUGeoNet(PUGeoConfig(**TINY_MODEL), seed=0)
    train(TrainConfig(batch_size=2, epochs=1, seed=0),
          [_toy_example(s, n=64, factor=4) for s in range(4)], net)
    workers = seen - {threading.main_thread()}
    assert len(workers) == 2
    assert not any(t.is_alive() for t in workers)
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("workers", [1, 2])
def test_caller_errstate_applies_inside_workers(monkeypatch, workers):
    _force_workers(monkeypatch, workers)
    real = trainer._example_losses

    def dividing_by_zero(*args):
        np.ones(1) / np.zeros(1)
        return real(*args)

    monkeypatch.setattr(trainer, "_example_losses", dividing_by_zero)
    net = PUGeoNet(PUGeoConfig(**TINY_MODEL), seed=0)
    before = set(threading.enumerate())
    examples = [_toy_example(s, n=64, factor=4) for s in range(2)]
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        train(TrainConfig(batch_size=2, epochs=1, seed=0), examples, net)
    assert set(threading.enumerate()) == before  # no worker outlives a failed step
    calls = []
    with np.errstate(divide="call", call=lambda kind, flag: calls.append(kind)):
        train(TrainConfig(batch_size=2, epochs=1, seed=0), examples, net)
    assert calls == ["divide by zero", "divide by zero"]


@pytest.mark.parametrize("workers", [1, 2])
def test_non_finite_example_loss_diverges_without_a_backward_pass(monkeypatch, workers):
    # as with one joint graph, a non-finite loss stops the step before any
    # backward pass, so an inf gradient cannot raise under the caller's errstate
    _force_workers(monkeypatch, workers)
    real = trainer._example_losses

    def infinite(*args):
        total, *parts = real(*args)
        return (ad.mul(total, np.inf), *parts)

    monkeypatch.setattr(trainer, "_example_losses", infinite)
    net = PUGeoNet(PUGeoConfig(**TINY_MODEL), seed=0)
    with np.errstate(all="raise"), pytest.raises(TrainingDiverged) as info:
        train(TrainConfig(batch_size=2, epochs=1, seed=0),
              [_toy_example(s, n=64, factor=4) for s in range(2)], net)
    assert str(info.value).startswith("non-finite loss at step 0")
    assert info.value.diagnostics["examples"] == 2


@pytest.mark.parametrize("env,cpus,batch,expected", [
    ({}, 4, 8, 1),                                        # absent: BLAS may use every CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 3, 3),             # never more than the batch
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, 8, 2),
    ({"OPENBLAS_NUM_THREADS": "8"}, 4, 8, 1),             # more BLAS threads than CPUs
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, 8, 1),  # first one set wins
    ({"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 2, 8, 2),
    ({"OMP_NUM_THREADS": "1"}, 2, 8, 2),
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 2, 8, 2),  # unset: skipped
    ({"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "x"}, 2, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "-1"}, 2, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, 8, 1),
])
def test_worker_count_rule(monkeypatch, env, cpus, batch, expected):
    for var in trainer._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert trainer._worker_count(batch) == expected


def test_worker_count_without_affinity_uses_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert trainer._worker_count(8) == 3


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
