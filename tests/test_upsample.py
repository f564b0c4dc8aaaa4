import math
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pugeo
from pugeo import PUGeoConfig, PUGeoNet, trainer, upsample, upsample_analytic
from pugeo.upsample import draw_candidates, upsample_cloud

import reference
from helpers import force_workers, sphere_cloud


def test_trainer_binds_only_the_re_exported_pipeline():
    assert trainer.upsample_cloud is upsample.upsample_cloud is pugeo.upsample_cloud
    for name in ("draw_candidates", "upsample_analytic", "fuse_patches", "copy"):
        assert not hasattr(trainer, name), name


def test_upsample_cloud_exact_count_and_determinism():
    cloud = sphere_cloud(300, 1.0, seed=0)
    a = upsample_cloud(cloud, 4, k=16, coverage=2.0)
    b = upsample_cloud(cloud, 4, k=16, coverage=2.0)
    assert len(a) == 1200
    assert np.array_equal(a.points, b.points)


def test_upsample_cloud_analytic_fits_the_cloud_once(monkeypatch):
    calls = []

    def spy(cloud, factor, **kwargs):
        calls.append((len(cloud), factor))
        return upsample_analytic(cloud, factor, **kwargs)

    def no_patches(*args, **kwargs):
        raise AssertionError("the analytic path cut patches")

    monkeypatch.setattr(upsample, "upsample_analytic", spy)
    monkeypatch.setattr(upsample, "extract_patches", no_patches)
    counts = {}
    result = upsample_cloud(sphere_cloud(300, 1.0, seed=0), 4, coverage=2.5, counts=counts)
    assert calls == [(300, 10)]  # ceil(2.5*4) candidates per input point
    assert len(result) == 1200
    assert counts == {"points": 300, "uncovered": 0, "degenerate_frames": 0,
                      "degenerate_fits": 0}


@settings(max_examples=20, deadline=None)
@given(m=st.integers(16, 120), factor=st.integers(1, 5), coverage=st.floats(0.5, 4.0),
       seed=st.integers(0, 2**16))
def test_upsample_cloud_analytic_property(m, factor, coverage, seed):
    # R*M distinct rows: the (point, normal) rows that the FPS oracle keeps of
    # one whole-cloud draw of ceil(coverage*R) candidates per point on
    # Fibonacci disks, the same on every call
    per_point = math.ceil(coverage * factor)
    assume(per_point >= factor)
    cloud = sphere_cloud(m, 1.0, seed)
    a, b = (upsample_cloud(cloud, factor, k=12, coverage=coverage) for _ in range(2))
    assert np.array_equal(a.points, b.points) and np.array_equal(a.normals, b.normals)
    rows = np.hstack([a.points, a.normals])
    assert len(rows) == factor * m
    assert len(np.unique(a.points, axis=0)) == factor * m
    drawn = upsample_analytic(cloud, per_point, k=12)
    keep = reference.farthest_point_sample(drawn.points, factor * m, seed_index=0)
    assert np.array_equal(rows, np.hstack([drawn.points, drawn.normals])[keep])


def test_model_draw_is_one_record_of_its_patch_forwards():
    # row i*R+r of the record is sample r of frame i, patch after patch; the
    # frames are the patches' lifts T and R must be the model's
    cfg = PUGeoConfig(factor=2, patch_size=32, k=6, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    net = PUGeoNet(cfg, seed=0)
    cloud = sphere_cloud(128, 1.0, seed=5)
    drawn = draw_candidates(cloud, 2, model=net, coverage=2.0)
    pieces, frames, deltas = reference.patch_forwards(cloud, net, 2.0)
    assert np.array_equal(drawn.points, np.concatenate([p.points for p in pieces]))
    assert np.array_equal(drawn.normals, np.concatenate([p.normals for p in pieces]))
    assert np.array_equal(drawn.frames, frames) and np.array_equal(drawn.deltas, deltas)
    assert len(drawn.points) == len(drawn.deltas) == 2 * len(drawn.frames) == 2 * 8 * 32
    assert drawn.metadata == {"points": 128, "uncovered": 0, "degenerate_frames": 0,
                              "degenerate_fits": 0}
    for call in (draw_candidates, upsample_cloud):
        with pytest.raises(ValueError, match="^factor 4 does not match the model's factor 2$"):
            call(cloud, 4, model=net)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_model_draw_runs_its_patch_forwards_on_workers(monkeypatch, workers):
    # the first `workers` forwards wait until all have started: they run at
    # once, record no graph, and the draw is bitwise the per-patch loop's for
    # any thread count
    cfg = PUGeoConfig(factor=2, patch_size=32, k=6, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    net = PUGeoNet(cfg, seed=0)
    cloud = sphere_cloud(128, 1.0, seed=5)
    pieces, frames, deltas = reference.patch_forwards(cloud, net, 2.0)
    force_workers(monkeypatch, workers)
    barrier, seen, forward = threading.Barrier(workers, timeout=30), [], PUGeoNet.forward

    def meeting(self, points):
        seen.append(threading.current_thread())
        if len(seen) <= workers:
            barrier.wait()
        out = forward(self, points)
        assert not out.points.requires_grad  # no graph recorded
        return out

    monkeypatch.setattr(PUGeoNet, "forward", meeting)
    drawn = draw_candidates(cloud, 2, model=net, coverage=2.0)
    assert len(seen) == 8 and len(set(seen[:workers])) == workers
    assert all(t.requires_grad for t in net.parameters())
    for got, want in ((drawn.points, np.concatenate([p.points for p in pieces])),
                      (drawn.normals, np.concatenate([p.normals for p in pieces])),
                      (drawn.frames, frames), (drawn.deltas, deltas)):
        # a PointCloud holds float64 copies of the float32 outputs
        assert np.array_equal(got, want) and got.tobytes() == want.astype(got.dtype).tobytes()


def test_model_method_through_pipeline():
    cfg = PUGeoConfig(factor=2, patch_size=32, k=6, feature_widths=(8, 8),
                      hr_hidden=8, f1_hidden=8, f2_hidden=8, f3_hidden=8, f4_hidden=8)
    net = PUGeoNet(cfg, seed=0)
    cloud = sphere_cloud(128, 1.0, seed=5)
    fused = upsample_cloud(cloud, 2, model=net, coverage=2.0)
    assert len(fused) == 256
    assert fused.normals is not None
