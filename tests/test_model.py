import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pugeo.autodiff as ad
import pugeo.model
from pugeo import PUGeoConfig, PUGeoNet, load_model, param_samples, save_model
from pugeo.errors import CheckpointError
from pugeo.model import _knn_indices

from helpers import edit_checkpoint_header, set_checkpoint_config_entry, unit_rows

TINY = dict(factor=4, patch_size=32, k=6, feature_widths=(8, 16),
            hr_hidden=8, f1_hidden=16, f2_hidden=16, f3_hidden=8, f4_hidden=8)


def _patch(seed=0, n=32):
    return np.random.default_rng(seed).normal(size=(n, 3))


def _sorted_rows(a):
    return a[np.lexsort(a.T[::-1])]


# ---------------------------------------------------------------------------
# config


def test_config_roundtrip():
    cfg = PUGeoConfig(**TINY, recalibration=False, learned_sampling=False)
    back = PUGeoConfig(**cfg.to_dict())
    assert back == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        PUGeoConfig(factor=0)
    with pytest.raises(ValueError):
        PUGeoConfig(feature_widths=())


@pytest.mark.parametrize("k", [8, 9])
def test_config_k_must_be_below_patch_size(k):
    with pytest.raises(ValueError) as info:
        PUGeoConfig(**{**TINY, "patch_size": 8, "k": k})
    assert str(info.value) == f"config 'k' must be < 'patch_size' 8, got {k}"


def test_checkpoint_with_k_at_patch_size_fails_to_load_naming_the_file(tmp_path):
    # k does not shape any weight, so such a header used to load and then fail
    # at the first forward pass with a message naming no file
    path = tmp_path / "m.pugeo"
    save_model(PUGeoNet(PUGeoConfig(**TINY), seed=0), path)
    set_checkpoint_config_entry(path, "k", TINY["patch_size"])
    with pytest.raises(CheckpointError) as info:
        load_model(path)
    assert str(info.value) == (f"{path}: malformed header: config 'k' must be < 'patch_size' "
                               f"32, got 32")


# ---------------------------------------------------------------------------
# STN


@pytest.mark.parametrize("key,value,message", [
    ("factor", 4.0, "config 'factor' must be an integer >= 1, got 4.0"),
    ("feature_widths", [8.5, 8], "config 'feature_widths' must be a non-empty list of "
                                 "integers >= 1, got [8.5, 8]"),
    ("recalibration", "no", "config 'recalibration' must be true or false, got 'no'"),
    ("grid_radius", math.nan, "config 'grid_radius' must be a finite number, got nan"),
    ("patch_size", True, "config 'patch_size' must be an integer >= 1, got True"),
    ("factor", 2**59, "config 'factor' must be at most 576460752303423487, "
                      "got 576460752303423488"),
    ("grid_radius", -0.5, "config 'grid_radius' must be between 0 and the float32 maximum, "
                          "got -0.5"),
    ("grid_radius", 1e39, "config 'grid_radius' must be between 0 and the float32 maximum, "
                          "got 1e+39"),
], ids=["factor_float", "feature_width_fraction", "switch_string", "grid_radius_nan",
        "patch_size_true", "factor_past_numpy_limit", "grid_radius_negative",
        "grid_radius_past_float32"])
def test_config_built_in_code_rejects_what_a_checkpoint_would(tmp_path, key, value, message):
    # 4.0 used to build, train and save a checkpoint that load_model refused,
    # and [8.5, 8] was cut to (8, 8)
    with pytest.raises(ValueError) as info:
        PUGeoConfig(**{**TINY, key: value})
    assert str(info.value) == message
    path = tmp_path / "m.pugeo"
    save_model(PUGeoNet(PUGeoConfig(**TINY), seed=0), path)
    set_checkpoint_config_entry(path, key, value)
    with pytest.raises(CheckpointError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: malformed header: {message}"


_SIZES = ("factor", "patch_size", "k", "hr_hidden", "f1_hidden", "f2_hidden", "f3_hidden",
          "f4_hidden")
_SWITCHES = ("recalibration", "learned_sampling", "linear_transform", "coarse_to_fine",
             "predict_normals")
# integral floats, bools, numeric strings, non-positive and non-finite values
_ANY = st.one_of(st.integers(-1, 3),
                 st.sampled_from([0.0, 2.0, 0.25, True, False, "2", None, math.nan, math.inf,
                                  (2, 2), [2.0], (True,)]))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_config_built_in_code_raises_or_round_trips_property(data):
    fields = {key: data.draw(st.integers(1, 3), label=key) for key in _SIZES}
    fields["feature_widths"] = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                                         .map(data.draw(st.sampled_from([list, tuple]))),
                                         label="feature_widths")
    fields.update({key: data.draw(st.booleans(), label=key) for key in _SWITCHES})
    # grid radii around 0, the float32 maximum and the float64 range
    fields["grid_radius"] = data.draw(st.one_of(st.floats(-1.0, 1.0), st.integers(-1, 2),
                                                st.floats(3e38, 4e38),
                                                st.integers(10**308, 10**309)),
                                      label="grid_radius")
    # then up to two fields take any value
    for key in data.draw(st.lists(st.sampled_from(sorted(fields)), max_size=2), label="mixed"):
        fields[key] = data.draw(_ANY, label=key)
    try:
        cfg = PUGeoConfig(**fields)
    except ValueError:
        return
    model = PUGeoNet(cfg, seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.pugeo")
        save_model(model, path)
        back = load_model(path)
    assert back.config == cfg
    for (name, a), (name_back, b) in zip(model.named_params(), back.named_params(),
                                         strict=True):
        assert name == name_back and a.data.tobytes() == b.data.tobytes()


def test_stn_identity_at_init():
    net = PUGeoNet(PUGeoConfig(**TINY), seed=0)
    pts = ad.constant(_patch().astype(np.float32))
    aligned, a = net.stn_forward(pts)
    np.testing.assert_array_equal(a.data, np.eye(3, dtype=np.float32))
    np.testing.assert_array_equal(aligned.data, pts.data)


def test_stn_permutation_invariant_transform():
    net = PUGeoNet(PUGeoConfig(**TINY), seed=3)
    # give the STN a non-trivial transform by nudging its last layer
    net.stn_reg.layers[-1] = (ad.parameter(np.random.default_rng(0).normal(
        scale=0.05, size=(16, 9)).astype(np.float32)),
        ad.parameter(np.zeros(9, dtype=np.float32)))
    patch = _patch(1)
    perm = np.random.default_rng(2).permutation(len(patch))
    _, a1 = net.stn_forward(ad.constant(patch.astype(np.float32)))
    _, a2 = net.stn_forward(ad.constant(patch[perm].astype(np.float32)))
    np.testing.assert_array_equal(a1.data, a2.data)


def test_stn_shapes():
    net = PUGeoNet(PUGeoConfig(**TINY), seed=0)
    aligned, a = net.stn_forward(ad.constant(_patch().astype(np.float32)))
    assert aligned.shape == (32, 3)
    assert a.shape == (3, 3)


# ---------------------------------------------------------------------------
# feature extraction


def test_knn_indices_two_points():
    idx = _knn_indices(np.array([[0.0, 0, 0], [1.0, 0, 0]]), 1)
    assert idx.tolist() == [[1], [0]]


def test_knn_indices_excludes_self_and_requires_small_k():
    values = np.random.default_rng(0).normal(size=(10, 3))
    idx = _knn_indices(values, 4)
    for i in range(10):
        assert i not in idx[i]
    with pytest.raises(ValueError):
        _knn_indices(values, 10)


def test_feature_shapes():
    net = PUGeoNet(PUGeoConfig(**TINY), seed=1)
    levels = net.extract_features(ad.constant(_patch().astype(np.float32)))
    assert [lvl.shape for lvl in levels] == [(32, 8), (32, 16)]


def test_features_permutation_equivariant():
    net = PUGeoNet(PUGeoConfig(**TINY), seed=1)
    patch = _patch(5).astype(np.float32)
    perm = np.random.default_rng(6).permutation(len(patch))
    base = net.extract_features(ad.constant(patch))
    shuffled = net.extract_features(ad.constant(patch[perm]))
    for lvl_a, lvl_b in zip(base, shuffled):
        np.testing.assert_array_equal(lvl_a.data[perm], lvl_b.data)


# ---------------------------------------------------------------------------
# recalibration


def test_recalibrate_uniform_weights_for_equal_logits():
    net = PUGeoNet(PUGeoConfig(**TINY), seed=2)
    # force zero logits -> softmax uniform -> each block scaled by 1/L
    net.h_r.layers[-1] = (ad.parameter(np.zeros((8, 2), dtype=np.float32)),
                          ad.parameter(np.zeros(2, dtype=np.float32)))
    levels = [ad.constant(np.random.default_rng(7).normal(size=(32, 8)).astype(np.float32)),
              ad.constant(np.random.default_rng(8).normal(size=(32, 16)).astype(np.float32))]
    out = net.recalibrate(levels)
    expected = np.concatenate([levels[0].data * 0.5, levels[1].data * 0.5], axis=1)
    np.testing.assert_allclose(out.data, expected, rtol=1e-6)


def test_recalibrate_single_level_softmax_is_one():
    cfg = PUGeoConfig(**{**TINY, "feature_widths": (12,)})
    net = PUGeoNet(cfg, seed=0)
    level = ad.constant(np.random.default_rng(9).normal(size=(32, 12)).astype(np.float32))
    out = net.recalibrate([level])
    np.testing.assert_allclose(out.data, level.data, rtol=1e-6)


def test_recalibrate_hand_softmax_blocks():
    net = PUGeoNet(PUGeoConfig(**{**TINY, "feature_widths": (4, 4, 4)}), seed=0)
    levels = [ad.constant(np.ones((2, 4), dtype=np.float32) * (l + 1)) for l in range(3)]

    class FixedLogits:
        def __call__(self, x):
            row = np.array([np.log(2.0), 0.0, 0.0], dtype=np.float32)
            return ad.constant(np.tile(row, (x.shape[0], 1)))

    net.h_r = FixedLogits()
    out = net.recalibrate(levels)
    expected = np.concatenate([np.ones((2, 4)) * 0.5, np.ones((2, 4)) * 2 * 0.25,
                               np.ones((2, 4)) * 3 * 0.25], axis=1)
    np.testing.assert_allclose(out.data, expected, rtol=1e-6)


def test_recalibration_off_is_plain_concat():
    cfg = PUGeoConfig(**TINY, recalibration=False)
    net = PUGeoNet(cfg, seed=0)
    levels = [ad.constant(np.random.default_rng(1).normal(size=(32, w)).astype(np.float32))
              for w in (8, 16)]
    out = net.recalibrate(levels)
    np.testing.assert_array_equal(out.data,
                                  np.concatenate([l.data for l in levels], axis=1))


# ---------------------------------------------------------------------------
# expansion and refinement


def test_expand_init_identity_transform():
    net = PUGeoNet(PUGeoConfig(**TINY), seed=4)
    patch = _patch(10).astype(np.float32)
    aligned = ad.constant(patch)
    c = net.recalibrate(net.extract_features(aligned))
    uv, t, xhat, coarse = net.expand(c, aligned)
    assert uv.shape == (32, 4, 2)
    assert t.shape == (32, 3, 3)
    assert xhat.shape == (32, 4, 3)
    assert coarse.shape == (32, 3)
    np.testing.assert_array_equal(t.data, np.broadcast_to(np.eye(3, dtype=np.float32),
                                                          (32, 3, 3)))
    np.testing.assert_array_equal(coarse.data,
                                  np.tile([0, 0, 1.0], (32, 1)).astype(np.float32))
    # xhat = x + (u, v, 0) through T = I
    expected = patch[:, None, :] + np.concatenate(
        [uv.data, np.zeros((32, 4, 1), dtype=np.float32)], axis=2)
    np.testing.assert_allclose(xhat.data, expected, atol=1e-6)


def test_expand_zero_uv_keeps_source():
    cfg = PUGeoConfig(**TINY, learned_sampling=False, grid_radius=0.0)
    net = PUGeoNet(cfg, seed=0)
    patch = _patch(11).astype(np.float32)
    aligned = ad.constant(patch)
    c = net.recalibrate(net.extract_features(aligned))
    uv, t, xhat, coarse = net.expand(c, aligned)
    np.testing.assert_array_equal(uv.data, np.zeros((32, 4, 2), dtype=np.float32))
    for r in range(4):
        np.testing.assert_allclose(xhat.data[:, r, :], patch, atol=1e-7)


def test_refine_zero_residuals_pass_through():
    net = PUGeoNet(PUGeoConfig(**TINY), seed=5)
    patch = _patch(12).astype(np.float32)
    out = net.forward(patch)
    # f3, f4 start at zero: deltas are zero and normals equal coarse normals
    assert np.all(out.deltas == 0.0)
    reshaped = out.normals.data.reshape(32, 4, 3)
    for r in range(4):
        np.testing.assert_allclose(reshaped[:, r, :], out.coarse_normals.data, atol=1e-6)


def test_refine_reconstruction_identity_exact():
    net = PUGeoNet(PUGeoConfig(**TINY), seed=6)
    # non-trivial f3 so deltas are not zero
    rng = np.random.default_rng(13)
    net.f3.layers[-1] = (ad.parameter(rng.normal(scale=0.3, size=(8, 1)).astype(np.float32)),
                         ad.parameter(np.array([0.05], dtype=np.float32)))
    patch = _patch(13).astype(np.float32)
    aligned = ad.constant(patch)
    c = net.recalibrate(net.extract_features(aligned))
    uv, t, xhat, coarse = net.expand(c, aligned)
    points, normals, deltas = net.refine(xhat, c, t, coarse, uv, aligned)
    # x was built as xhat + T (0,0,delta): recomputing that sum reproduces it bitwise
    step = np.einsum("nab,nrb->nra", t.data,
                     np.concatenate([np.zeros((32, 4, 2), dtype=np.float32),
                                     deltas[..., None].astype(np.float32)], axis=2))
    np.testing.assert_array_equal(points.data, xhat.data + step)
    assert np.abs(deltas).max() > 0


def test_forward_counts_and_unit_normals():
    cfg = PUGeoConfig(**{**TINY, "patch_size": 256, "factor": 4, "k": 8})
    net = PUGeoNet(cfg, seed=7)
    out = net.forward(_patch(14, 256))
    assert out.points.shape == (1024, 3)
    assert out.normals.shape == (1024, 3)
    assert out.coarse_normals.shape == (256, 3)
    np.testing.assert_allclose(np.linalg.norm(out.normals.data, axis=1), 1.0, atol=1e-6)


def test_forward_wrong_patch_size():
    net = PUGeoNet(PUGeoConfig(**TINY), seed=0)
    with pytest.raises(ValueError):
        net.forward(_patch(0, 33))


def test_forward_permutation_equivariance_bitwise():
    net = PUGeoNet(PUGeoConfig(**TINY), seed=8)
    patch = _patch(15)
    perm = np.random.default_rng(16).permutation(len(patch))
    res_a = net.forward(patch)
    res_b = net.forward(patch[perm])
    assert np.array_equal(_sorted_rows(res_a.points.data), _sorted_rows(res_b.points.data))
    assert np.array_equal(_sorted_rows(res_a.normals.data), _sorted_rows(res_b.normals.data))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 64), seed=st.integers(0, 2**32 - 1))
def test_forward_permutation_equivariance_property(n, seed):
    net = PUGeoNet(PUGeoConfig(**{**TINY, "patch_size": n, "k": 4}), seed=seed % 1000)
    rng = np.random.default_rng(seed)
    patch = rng.normal(size=(n, 3))
    perm = rng.permutation(n)
    a = net.forward(patch)
    b = net.forward(patch[perm])
    r = TINY["factor"]
    for group_a, group_b in ((a.points.data, b.points.data), (a.normals.data, b.normals.data)):
        assert np.array_equal(group_a.reshape(n, r, 3)[perm], group_b.reshape(n, r, 3))
    assert np.array_equal(a.coarse_normals.data[perm], b.coarse_normals.data)
    assert np.array_equal(a.deltas[perm], b.deltas)


def test_forward_det_t_unity_at_init():
    net = PUGeoNet(PUGeoConfig(**TINY), seed=9)
    out = net.forward(_patch(17))
    np.testing.assert_allclose(np.linalg.det(out.t_matrices), 1.0, atol=1e-6)


def test_fresh_model_fixed_grid_replicates_inputs():
    cfg = PUGeoConfig(**TINY, learned_sampling=False)
    net = PUGeoNet(cfg, seed=10)
    patch = _patch(18).astype(np.float32)
    out = net.forward(patch)
    grid = net._fixed_grid  # (R, 2), same for every point
    reshaped = out.points.data.reshape(32, 4, 3)
    for r in range(4):
        expected = patch + np.concatenate([grid[r], [0.0]]).astype(np.float32)
        np.testing.assert_allclose(reshaped[:, r, :], expected, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(factor=st.integers(1, 64), grid_radius=st.floats(0.0, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_fixed_grid_is_the_fibonacci_disk(factor, grid_radius, seed):
    # the ablation's fixed samples are the one layout, whatever the weight seed
    cfg = PUGeoConfig(**dict(TINY, factor=factor), learned_sampling=False,
                      grid_radius=grid_radius)
    grid = PUGeoNet(cfg, seed=seed)._fixed_grid
    assert grid.dtype == np.float32
    assert np.array_equal(grid, param_samples(factor, grid_radius).astype(np.float32))


# ---------------------------------------------------------------------------
# ablation switches


@pytest.mark.parametrize("flag", ["recalibration", "learned_sampling", "linear_transform",
                                  "coarse_to_fine", "predict_normals"])
def test_ablation_runs_and_checkpoint_records_flag(flag, tmp_path):
    cfg = PUGeoConfig(**TINY, **{flag: False})
    net = PUGeoNet(cfg, seed=11)
    out = net.forward(_patch(19))
    assert out.points.shape == (128, 3)
    path = tmp_path / "ablate.pugeo"
    save_model(net, path)
    back = load_model(path)
    assert getattr(back.config, flag) is False


# ---------------------------------------------------------------------------
# checkpoint format


def test_checkpoint_roundtrip_bitwise(tmp_path):
    net = PUGeoNet(PUGeoConfig(**TINY), seed=12)
    path = tmp_path / "m.pugeo"
    save_model(net, path)
    back = load_model(path)
    assert back.config == net.config
    for (na, ta), (nb, tb) in zip(net.named_params(), back.named_params()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)


def test_checkpoint_magic(tmp_path):
    path = tmp_path / "bad.pugeo"
    path.write_bytes(b"NOTAModel")
    with pytest.raises(CheckpointError, match="magic"):
        load_model(path)


def test_checkpoint_truncated(tmp_path):
    net = PUGeoNet(PUGeoConfig(**TINY), seed=13)
    path = tmp_path / "m.pugeo"
    save_model(net, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 40])
    with pytest.raises(CheckpointError, match="truncated"):
        load_model(path)


def test_checkpoint_config_honored_from_file(tmp_path):
    cfg = PUGeoConfig(**{**TINY, "factor": 8})
    net = PUGeoNet(cfg, seed=14)
    path = tmp_path / "m.pugeo"
    save_model(net, path)
    assert load_model(path).config.factor == 8


def test_checkpoint_with_dynamic_graph_false_rejected(tmp_path):
    net = PUGeoNet(PUGeoConfig(**TINY), seed=17)
    path = tmp_path / "m.pugeo"
    save_model(net, path)
    set_checkpoint_config_entry(path, "dynamic_graph", False)
    with pytest.raises(CheckpointError, match="dynamic_graph"):
        load_model(path)


def test_checkpoint_trailing_bytes(tmp_path):
    net = PUGeoNet(PUGeoConfig(**TINY), seed=15)
    path = tmp_path / "m.pugeo"
    save_model(net, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_model(path)


@pytest.mark.parametrize("flags", [(), ("recalibration",), ("learned_sampling",),
                                   ("linear_transform",), ("coarse_to_fine",),
                                   ("predict_normals",),
                                   ("linear_transform", "coarse_to_fine", "predict_normals")],
                         ids=lambda flags: "-".join(f"no_{flag}" for flag in flags) or "full")
def test_weight_table_lists_the_built_weights(flags):
    cfg = PUGeoConfig(**TINY, **{flag: False for flag in flags})
    built = [(name, t.shape) for name, t in PUGeoNet(cfg, seed=0).named_params()]
    assert pugeo.model._weight_shapes(cfg) == built


def _refuse_to_build(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the model was built before the checkpoint was checked")
    monkeypatch.setattr(pugeo.model, "PUGeoNet", refuse)


def _grow_h_r(header, width):
    header["config"]["hr_hidden"] = width
    for weight in header["weights"]:
        if weight["name"] in ("h_r.w0", "h_r.b0"):
            weight["shape"][-1] = width
        elif weight["name"] == "h_r.w1":
            weight["shape"][0] = width


@pytest.mark.parametrize("header_too", [False, True], ids=["config_only", "config_and_weights"])
def test_checkpoint_oversized_header_builds_nothing(tmp_path, monkeypatch, header_too):
    # a 10**12-wide h_r would need terabytes; the header and the payload
    # size refuse it before any weight is allocated
    path = tmp_path / "m.pugeo"
    save_model(PUGeoNet(PUGeoConfig(**TINY), seed=0), path)
    if header_too:
        edit_checkpoint_header(path, lambda header: _grow_h_r(header, 10**12))
        message = "truncated weight data at 'h_r.w0'"
    else:
        set_checkpoint_config_entry(path, "hr_hidden", 10**12)
        message = "header weight list does not match the declared config"
    _refuse_to_build(monkeypatch)
    with pytest.raises(CheckpointError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("edit", ["rename", "reorder", "drop"])
def test_checkpoint_weight_list_must_match_its_config(tmp_path, monkeypatch, edit):
    path = tmp_path / "m.pugeo"
    save_model(PUGeoNet(PUGeoConfig(**TINY), seed=0), path)

    def spoil(header):
        weights = header["weights"]
        if edit == "rename":
            weights[3]["name"] = "stn.point.w9"
        elif edit == "reorder":
            weights[0], weights[2] = weights[2], weights[0]
        else:
            del weights[-1]

    edit_checkpoint_header(path, spoil)
    _refuse_to_build(monkeypatch)
    with pytest.raises(CheckpointError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: header weight list does not match the declared config"
