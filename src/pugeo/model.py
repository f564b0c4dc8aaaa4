"""The learned upsampler.

A patch of N points is aligned by a small STN, encoded by hierarchical
edge-convolution features with softmax recalibration, expanded R-fold by
predicting per-point parametric samples and a 3x3 linear lift, then
refined by a scalar displacement along the predicted normal direction and
a residual normal update.  Every stage has an ablation switch recorded in
the config.  The alignment is inverted on the way out, so outputs live in
the input's coordinates.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .analytic import param_samples
from .autodiff import Mlp, Tensor
from .errors import CheckpointError
from .io import _naming

CHECKPOINT_MAGIC = b"PUGEO1"


@dataclass
class PUGeoConfig:
    """Architecture, upsampling factor and ablation switches; ValueError names a mistyped key."""

    factor: int = 4
    patch_size: int = 256
    k: int = 8
    feature_widths: tuple = (32, 64, 128)
    hr_hidden: int = 64
    f1_hidden: int = 128
    f2_hidden: int = 128
    f3_hidden: int = 64
    f4_hidden: int = 64
    recalibration: bool = True
    learned_sampling: bool = True
    linear_transform: bool = True
    coarse_to_fine: bool = True
    predict_normals: bool = True
    grid_radius: float = 0.25

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "bool":
                ok, want = type(value) is bool, "true or false"
            elif field.type == "float":
                # compared exactly: an int past the float range is not a finite number either
                ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
                want = "a finite number"
            elif field.type == "tuple":
                ok = (isinstance(value, (list, tuple)) and len(value) > 0
                      and all(type(w) is int and w >= 1 for w in value))
                want = "a non-empty list of integers >= 1"
            else:
                ok, want = type(value) is int and value >= 1, "an integer >= 1"
            if not ok:
                raise ValueError(f"config {field.name!r} must be {want}, got {value!r}")
        self.feature_widths = tuple(self.feature_widths)
        if self.k >= self.patch_size:
            raise ValueError(f"config 'k' must be < 'patch_size' {self.patch_size}, got {self.k}")
        # the fixed sample grid is 2*factor float64s in one numpy array, cast to float32
        if self.factor > np.iinfo(np.intp).max // 16:
            raise ValueError(f"config 'factor' must be at most {np.iinfo(np.intp).max // 16}, "
                             f"got {self.factor}")
        if not 0.0 <= self.grid_radius <= float(np.finfo(np.float32).max):
            raise ValueError("config 'grid_radius' must be between 0 and the float32 maximum, "
                             f"got {self.grid_radius!r}")

    @property
    def levels(self) -> int:
        return len(self.feature_widths)

    @property
    def total_width(self) -> int:
        return sum(self.feature_widths)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["feature_widths"] = list(self.feature_widths)
        return out


@dataclass
class ModelOutput:
    """Graph-connected forward results, in the input patch's coordinates."""

    points: Tensor          # (N*R, 3)
    normals: Tensor         # (N*R, 3) unit
    coarse_normals: Tensor  # (N, 3) unit
    deltas: np.ndarray      # (N, R)
    t_matrices: np.ndarray  # (N, 3, 3) linear lift values, aligned space


def _knn_candidates(values: np.ndarray, k: int) -> np.ndarray:
    """(n, n) mask of the columns that can be among each row's k nearest.

    The ranking distance is the diff-square-sum in values.dtype; it is
    within a relative gamma plus an absolute underflow floor of the exact
    squared distance.  The float64 Gram distance |a_i|^2 + |a_j|^2 - 2 a_i.a_j
    is within slack_i + slack_j of the exact one, where slack_i is a rounding
    bound proportional to |a_i|^2.  The k columns with the smallest Gram upper
    bound bound the row's k-th ranking distance from above, and a column
    whose lower bound exceeds that cannot be among the k nearest.  A row
    whose bound is not finite or could overflow values.dtype (non-finite
    values, squares out of range) keeps every column: the full sort.  So
    does a column whose bounds are NaN.  The diagonal is always kept.
    """
    w = values.shape[1]
    info = np.finfo(values.dtype)
    gamma = (w + 4) * info.eps
    floor = 4 * (w + 2) * info.smallest_subnormal
    wide = values.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", wide, wide)
        # a row whose squared norm could overflow the Gram sum is unbounded
        sq[~(sq <= np.finfo(np.float64).max / 4)] = np.inf
        slack = 2 * (w + 4) * np.finfo(np.float64).eps * sq
        gram = sq[:, None] + sq[None, :] - 2.0 * (wide @ wide.T)
        upper = gram + slack[None, :]
        np.fill_diagonal(upper, np.inf)
        # each row adds its own slack_i to the column's slack_j already in upper
        kth = np.partition(upper, k - 1, axis=1)[:, k - 1] + slack
        bound = kth * (1 + gamma) + floor
        bound[~(bound <= info.max)] = np.inf
        cut = (bound + floor) / (1 - gamma) + slack
        keep = ~(gram - slack[None, :] > cut[:, None])
    np.fill_diagonal(keep, True)
    return keep


def _knn_indices(values: np.ndarray, k: int) -> np.ndarray:
    """k nearest rows for each row, self excluded, ties by ascending index.

    Distances are the diff-square-sum in values.dtype, computed pair by pair
    so each pair's arithmetic is independent of row order (the
    permutation-equivariance contract), and only for `_knn_candidates`.
    The result is that of sorting every row in full.
    """
    n = len(values)
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the point count {n}")
    rows, cols = np.nonzero(_knn_candidates(values, k))
    diff = values[rows] - values[cols]
    d2 = np.einsum("ij,ij->i", diff, diff)
    d2[rows == cols] = np.inf
    # by row, then distance; stable, so ties keep ascending column order
    order = np.lexsort((d2, rows))
    starts = np.searchsorted(rows, np.arange(n))
    return cols[order[starts[:, None] + np.arange(k)]]


def _mlp_table(c: PUGeoConfig) -> list[tuple[str, tuple, bool]]:
    """(name, widths, zero_init_last) of each MLP of `PUGeoNet(c)`, in init and checkpoint order."""
    width = c.total_width
    table = [("stn.point", (3, 16, 32), False), ("stn.reg", (32, 16, 9), True)]
    fan_in = 3
    for level, f_l in enumerate(c.feature_widths):
        table.append((f"edge{level}", (2 * fan_in, f_l, f_l), False))
        fan_in = f_l
    if c.recalibration:
        table.append(("h_r", (width, c.hr_hidden, c.levels), False))
    if c.learned_sampling:
        table.append(("f1", (width, c.f1_hidden, 2 * c.factor), False))
    if c.linear_transform:
        table.append(("f2", (width, c.f2_hidden, 9), True))
    else:
        table.append(("f2x", (width, c.f2_hidden, 3 * c.factor), True))
        if c.predict_normals or c.coarse_to_fine:
            table.append(("f2n", (width, c.f2_hidden, 3), False))
    if c.coarse_to_fine:
        table.append(("f3", (width + 3, c.f3_hidden, 1), True))
        if c.predict_normals:
            table.append(("f4", (width + 3, c.f4_hidden, 3), True))
    else:
        table.append(("one_shot", (width + 2, c.f3_hidden, 6 if c.predict_normals else 3), True))
    return table


def _weight_shapes(c: PUGeoConfig) -> list[tuple[str, tuple]]:
    """(name, shape) of each weight `PUGeoNet(c).named_params()` holds, allocating none."""
    return [(f"{name}.{kind}{i}", shape)
            for name, widths, _ in _mlp_table(c)
            for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:]))
            for kind, shape in (("w", (fan_in, fan_out)), ("b", (fan_out,)))]


class PUGeoNet:
    """Patch upsampler; weights initialize deterministically from `seed`."""

    def __init__(self, config: PUGeoConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        c = config
        self._modules = [Mlp(rng, widths, name, zero_init_last=zero_last, dtype=dtype)
                         for name, widths, zero_last in _mlp_table(c)]
        for mlp in self._modules:
            setattr(self, mlp.name.replace(".", "_"), mlp)
        self.edge_mlps = self._modules[2:2 + c.levels]

        if not c.learned_sampling:
            self._fixed_grid = param_samples(c.factor, c.grid_radius).astype(dtype)

    # -- parameters ---------------------------------------------------------

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = []
        for module in self._modules:
            out.extend(module.named_params())
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]

    # -- stages -------------------------------------------------------------

    def stn_forward(self, points: Tensor):
        """Global alignment A = I + residual; returns (aligned points, A)."""
        per_point = self.stn_point(points)
        pooled = ad.reduce_max(per_point, axis=0, keepdims=True)
        residual = ad.reshape(self.stn_reg(pooled), (3, 3))
        a = ad.add(residual, ad.constant(np.eye(3, dtype=self.dtype)))
        return ad.matmul(points, ad.transpose(a)), a

    def extract_features(self, aligned: Tensor) -> list[Tensor]:
        """Hierarchical edge features, max-pooled over k neighbors per level.

        Each level's kNN graph is built from that level's input features,
        and its MLP's first layer is one `edge_dense` node over that graph.
        """
        n = aligned.shape[0]
        k = self.config.k
        levels = []
        current = aligned
        for mlp, width in zip(self.edge_mlps, self.config.feature_widths):
            edges = mlp(current, _knn_indices(current.data, k))
            current = ad.reduce_max(ad.reshape(edges, (n, k, width)), axis=1)
            levels.append(current)
        return levels

    def recalibrate(self, levels: list[Tensor]) -> Tensor:
        """Softmax-gated weighted concatenation of the per-level features."""
        stacked = ad.concat(levels, axis=-1)
        if not self.config.recalibration:
            return stacked
        weights = ad.softmax(self.h_r(stacked), axis=-1)
        blocks = [ad.mul(feat, ad.gather(weights, np.array([l]), axis=1))
                  for l, feat in enumerate(levels)]
        return ad.concat(blocks, axis=-1)

    def expand(self, c: Tensor, aligned: Tensor):
        """Parametric samples, linear lift T, tangent points and coarse normals."""
        cfg = self.config
        n, r = cfg.patch_size, cfg.factor
        if cfg.learned_sampling:
            uv = ad.reshape(self.f1(c), (n, r, 2))
        else:
            uv = ad.constant(np.broadcast_to(self._fixed_grid, (n, r, 2)).copy())
        source = ad.reshape(aligned, (n, 1, 3))
        if cfg.linear_transform:
            residual = ad.reshape(self.f2(c), (n, 3, 3))
            t = ad.add(residual, ad.constant(np.eye(3, dtype=self.dtype)))
            uv0 = ad.concat([uv, ad.constant(np.zeros((n, r, 1), dtype=self.dtype))], axis=-1)
            xhat = ad.add(ad.apply_linear_maps(t, uv0), source)
            e3 = ad.constant(np.broadcast_to(
                np.array([0.0, 0.0, 1.0], dtype=self.dtype), (n, 1, 3)).copy())
            coarse = ad.unit_rows(ad.reshape(ad.apply_linear_maps(t, e3), (n, 3)))
        else:
            offsets = ad.reshape(self.f2x(c), (n, r, 3))
            xhat = ad.add(offsets, source)
            t = ad.constant(np.broadcast_to(np.eye(3, dtype=self.dtype), (n, 3, 3)).copy())
            if hasattr(self, "f2n"):
                coarse = ad.unit_rows(self.f2n(c))
            else:
                coarse = ad.constant(np.broadcast_to(
                    np.array([0.0, 0.0, 1.0], dtype=self.dtype), (n, 3)).copy())
        return uv, t, xhat, coarse

    def refine(self, xhat: Tensor, c: Tensor, t: Tensor, coarse: Tensor,
               uv: Tensor, aligned: Tensor):
        """Displace tangent samples and update normals; returns (x, n, deltas)."""
        cfg = self.config
        n, r = cfg.patch_size, cfg.factor
        repeat_idx = np.repeat(np.arange(n), r)
        if cfg.coarse_to_fine:
            inp = ad.concat_repeat(ad.reshape(xhat, (n * r, 3)), c, r)
            delta = self.f3(inp)  # (N*R, 1)
            if cfg.linear_transform:
                disp = ad.concat([ad.constant(np.zeros((n * r, 2), dtype=self.dtype)), delta],
                                 axis=-1)
                step = ad.apply_linear_maps(t, ad.reshape(disp, (n, r, 3)))
            else:
                n_rep = ad.gather(coarse, repeat_idx, axis=0)
                step = ad.reshape(ad.mul(delta, n_rep), (n, r, 3))
            points = ad.add(xhat, step)
            if cfg.predict_normals:
                update = ad.add(self.f4(inp), ad.gather(coarse, repeat_idx, axis=0))
                normals = ad.reshape(ad.unit_rows(update), (n, r, 3))
            else:
                normals = ad.reshape(ad.gather(coarse, repeat_idx, axis=0), (n, r, 3))
            deltas = delta.data.reshape(n, r).copy()
        else:
            uv_flat = ad.reshape(uv, (n * r, 2))
            c_rep = ad.gather(c, repeat_idx, axis=0)
            raw = self.one_shot(ad.concat([c_rep, uv_flat], axis=-1))
            offsets = ad.gather(raw, np.array([0, 1, 2]), axis=1)
            points = ad.add(ad.reshape(offsets, (n, r, 3)), ad.reshape(aligned, (n, 1, 3)))
            if cfg.predict_normals:
                n_raw = ad.gather(raw, np.array([3, 4, 5]), axis=1)
                up = ad.constant(np.array([0.0, 0.0, 1.0], dtype=self.dtype))
                normals = ad.reshape(ad.unit_rows(ad.add(n_raw, up)), (n, r, 3))
            else:
                normals = ad.constant(np.broadcast_to(
                    np.array([0.0, 0.0, 1.0], dtype=self.dtype), (n, r, 3)).copy())
            deltas = np.zeros((n, r), dtype=self.dtype)
        return points, normals, deltas

    # -- full forward ---------------------------------------------------------

    def forward(self, points) -> ModelOutput:
        """Run the full pipeline on an (N, 3) patch."""
        cfg = self.config
        pts = np.asarray(points, dtype=self.dtype).reshape(-1, 3)
        if len(pts) != cfg.patch_size:
            raise ValueError(f"patch has {len(pts)} points, model expects {cfg.patch_size}")
        n, r = cfg.patch_size, cfg.factor

        x = ad.constant(pts)
        aligned, a = self.stn_forward(x)
        levels = self.extract_features(aligned)
        c = self.recalibrate(levels)
        uv, t, xhat, coarse = self.expand(c, aligned)
        refined, normals, deltas = self.refine(xhat, c, t, coarse, uv, aligned)

        a_inv = ad.inverse(a)
        points_out = ad.matmul(ad.reshape(refined, (n * r, 3)), ad.transpose(a_inv))
        normals_out = ad.unit_rows(ad.matmul(ad.reshape(normals, (n * r, 3)), a))
        coarse_out = ad.unit_rows(ad.matmul(coarse, a))
        return ModelOutput(points=points_out, normals=normals_out, coarse_normals=coarse_out,
                           deltas=deltas, t_matrices=t.data.astype(np.float64))


# ---------------------------------------------------------------------------
# checkpoint serialization: magic, length-prefixed JSON header, raw <f4 data


def save_model(model: PUGeoNet, path) -> None:
    named = model.named_params()
    header = {
        "config": model.config.to_dict(),
        "weights": [{"name": name, "shape": list(t.shape)} for name, t in named],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<I", len(blob)))
        handle.write(blob)
        for _, tensor in named:
            handle.write(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())


def load_model(path) -> PUGeoNet:
    """The model a checkpoint file holds; a CheckpointError message starts with the path."""
    with open(path, "rb") as handle:
        payload = handle.read()
    with _naming(path):
        if not payload.startswith(CHECKPOINT_MAGIC):
            raise CheckpointError("bad magic: not a model checkpoint")
        offset = len(CHECKPOINT_MAGIC)
        if len(payload) < offset + 4:
            raise CheckpointError("truncated header length")
        (header_len,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        if len(payload) < offset + header_len:
            raise CheckpointError("truncated header")
        try:
            header = json.loads(payload[offset:offset + header_len].decode("utf-8"))
            config = PUGeoConfig(**header["config"])
            declared = [(w["name"], tuple(w["shape"])) for w in header["weights"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"malformed header: {exc}") from None
        offset += header_len

        # the header and the payload size are checked before the model allocates anything
        expected = _weight_shapes(config)
        if declared != expected:
            raise CheckpointError("header weight list does not match the declared config")
        end = offset
        for name, shape in expected:
            end += 4 * math.prod(shape)
            if end > len(payload):
                raise CheckpointError(f"truncated weight data at {name!r}")
        if end != len(payload):
            raise CheckpointError("trailing bytes after weight data")
        try:  # factor also sizes the fixed grid, which no weight shape shows
            model = PUGeoNet(config, seed=0)
        except MemoryError as exc:
            raise CheckpointError(f"cannot build the declared config: {exc}") from None
        for (_, shape), (_, tensor) in zip(expected, model.named_params()):
            count = math.prod(shape)
            tensor.data = np.frombuffer(payload, dtype="<f4", count=count,
                                        offset=offset).reshape(shape).astype(np.float32)
            offset += 4 * count
        return model
