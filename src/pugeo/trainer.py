"""Dataset construction from meshes and the end-to-end training loop.

A training example pairs a sparse patch (network input, with ground-truth
normals as supervision) with the dense patch covering the same region,
both normalized by the sparse patch's transform.  Training minimizes
alpha*CD + beta*coarse-normal + gamma*refined-normal with Adam.  Meshes and
batch examples are independent tasks; `_map_tasks` runs them on worker
threads.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import TrainingDiverged
from .io import PointCloud, TriangleMesh, _naming
from .losses import LossWeights, chamfer_loss, normal_loss_graph, total_loss_graph
from .model import PUGeoNet, save_model
from .sampling import (NeighborIndex, extract_patches, nearest_pairs, patch_count,
                       poisson_disk_sample)
# re-exported: perfbench/spans.py wraps pugeo.trainer.upsample_cloud by name
from .upsample import upsample_cloud  # noqa: F401
from .workers import _map_tasks


@dataclass
class TrainExample:
    """A sparse/dense patch pair sharing one normalization transform."""

    sparse_points: np.ndarray    # (N, 3)
    sparse_normals: np.ndarray   # (N, 3)
    dense_points: np.ndarray     # (R*N, 3)
    dense_normals: np.ndarray    # (R*N, 3)
    seed_index: int = 0
    sparse_rows: np.ndarray | None = None  # (N,) rows of its mesh's sparse Poisson cloud
    dense_rows: np.ndarray | None = None   # (R*N,) and of the dense one; set by build_dataset


@dataclass
class TrainConfig:
    batch_size: int = 8
    epochs: int = 800
    lr: float = 0.001
    seed: int = 42
    weights: LossWeights = field(default_factory=LossWeights)
    augment: bool = True
    checkpoint_every: int = 50
    normal_reduction: str = "sum"  # "mean" rebalances beta/gamma against alpha

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.checkpoint_every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {self.checkpoint_every}")
        if self.normal_reduction not in ("sum", "mean"):
            raise ValueError("normal_reduction must be 'sum' or 'mean'")


def scale_to_unit_cube(mesh: TriangleMesh) -> TriangleMesh:
    """Center the bounding box at the origin and scale its longest side to 1."""
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    center = 0.5 * (lo + hi)
    extent = float((hi - lo).max())
    scale = 1.0 / extent if extent > 0 else 1.0
    return TriangleMesh((mesh.vertices - center) * scale, mesh.triangles.copy(),
                        mesh.normals.copy() if mesh.normals is not None else None)


def build_dataset(meshes: list[TriangleMesh], m: int, factor: int, patch_size: int,
                  seed: int, coverage: float = 3.0, noise_sigma: float = 0.0,
                  random_patches: bool = False,
                  names: list[str] | None = None) -> list[TrainExample]:
    """Sample each mesh into sparse/dense clouds and cut matched patches.

    Each mesh is one task: scale it into the unit cube, Poisson-disk sample
    m sparse and factor*m dense points (with mesh normals), add Gaussian
    noise of noise_sigma (unit-cube units) to the sparse cloud only, cut
    its `extract_patches` (seeds by FPS, or uniformly at random with
    random_patches), and take the dense kNN(R*N) around each patch's seed,
    normalized by the sparse patch's centroid and scale.

    `_map_tasks` runs the meshes concurrently, under the caller's
    np.errstate, and returns their examples in mesh order.  Each mesh draws
    from its own seeds, so the examples are bitwise the same for any thread
    count.  A failing mesh raises the error of the lowest-index failing
    mesh, as a serial loop would; a GeometryError is prefixed with that
    mesh's entry in `names` when given.
    """
    patch_count(m, patch_size, coverage)  # bad settings fail before any mesh is sampled
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")

    def mesh_examples(i: int) -> list[TrainExample]:
        base = seed + 7919 * i
        mesh = scale_to_unit_cube(meshes[i])
        with contextlib.nullcontext() if names is None else _naming(names[i]):
            sparse = poisson_disk_sample(mesh, m, base)
            dense = poisson_disk_sample(mesh, factor * m, base + 1)
        rng = np.random.default_rng(base + 2)
        if noise_sigma > 0.0:
            sparse = PointCloud(sparse.points + rng.normal(scale=noise_sigma,
                                                           size=sparse.points.shape),
                                sparse.normals)
        patches = extract_patches(sparse, patch_size, coverage, rng if random_patches else None)
        anchors = sparse.points[[patch.seed for patch in patches]]
        dense_patches = NeighborIndex(dense.points).knn_batch(anchors, factor * patch_size)
        return [TrainExample(sparse_points=patch.points, sparse_normals=patch.normals,
                             dense_points=(dense.points[idx] - patch.centroid) / patch.scale,
                             dense_normals=dense.normals[idx], seed_index=patch.seed,
                             sparse_rows=patch.indices, dense_rows=idx)
                for patch, idx in zip(patches, dense_patches)]

    return [example for examples in _map_tasks(mesh_examples, len(meshes))
            for example in examples]


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform rotation from a normalized 4D Gaussian quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


_SCALE_RANGE = (0.8, 1.2)  # uniform scale drawn per augmented example
_JITTER_SIGMA = 0.005      # sparse-input jitter, fraction of the patch radius


def augment_example(example: TrainExample, rng: np.random.Generator) -> TrainExample:
    """Shared rotation+scale on both patches; jitter on the sparse input only.

    Draws from `rng` in a fixed order: the rotation quaternion, the scale,
    then the jitter.  The jitter sigma is _JITTER_SIGMA times the scaled
    sparse patch's radius, clipped at 3 sigma; normals only rotate.
    """
    rot = _random_rotation(rng).T
    scale = float(rng.uniform(*_SCALE_RANGE))
    sparse = example.sparse_points @ rot * scale
    dense = example.dense_points @ rot * scale
    sigma = _JITTER_SIGMA * float(np.linalg.norm(sparse, axis=1).max())
    noise = rng.normal(scale=sigma, size=sparse.shape)
    sparse = sparse + np.clip(noise, -3.0 * sigma, 3.0 * sigma)
    return TrainExample(sparse_points=sparse,
                        sparse_normals=example.sparse_normals @ rot,
                        dense_points=dense,
                        dense_normals=example.dense_normals @ rot,
                        seed_index=example.seed_index)


def _example_losses(model: PUGeoNet, example: TrainExample, weights: LossWeights,
                    reduction: str = "sum"):
    out = model.forward(example.sparse_points)
    if not np.isfinite(out.points.data).all():
        raise TrainingDiverged("non-finite model output")
    # one pairing of the output with the dense patch serves both the Chamfer
    # term and the refined term's nearest ground-truth normals
    phi, psi = nearest_pairs(out.points.data, example.dense_points)
    cd = chamfer_loss(out.points, example.dense_points, phi, psi)
    coarse = normal_loss_graph(out.coarse_normals, example.sparse_normals, reduction)
    refined = normal_loss_graph(out.normals, example.dense_normals[phi], reduction)
    # ablations drop the matching supervision terms
    beta = weights.beta if (model.config.coarse_to_fine and model.config.predict_normals) else 0.0
    gamma = weights.gamma if model.config.predict_normals else 0.0
    effective = LossWeights(weights.alpha, beta, gamma)
    return total_loss_graph(cd, coarse, refined, effective), cd, coarse, refined


def _example_gradients(model: PUGeoNet, example: TrainExample, config: TrainConfig,
                       scale: float):
    """One example's forward pass, losses and backward pass of scale * total.

    Returns the total loss (a 0-d array), the (cd, coarse, refined) values
    and the {parameter: gradient} dict of `ad.backward`.  A non-finite
    total gets no backward pass: its batch diverges before a step.
    """
    total, cd, coarse, refined = _example_losses(model, example, config.weights,
                                                 config.normal_reduction)
    grads = None
    if np.isfinite(total.data):
        grads = ad.backward(ad.mul(total, scale))
    return total.data, (cd.item(), coarse.item(), refined.item()), grads


def train(config: TrainConfig, dataset: list[TrainExample], model: PUGeoNet,
          log_stream=None, checkpoint_dir=None):
    """Run the optimization loop; returns (model, per-epoch history).

    Emits one JSON line per epoch to log_stream with the mean loss
    components.  A non-finite output or loss aborts with TrainingDiverged;
    its diagnostics hold the failing step, how many of its examples were
    evaluated and their mean loss components, and the gradient norms of the
    last backward pass with the step they come from (`grad_step`).

    Each example of a batch runs its forward and backward pass on its own
    graph, through `_map_tasks` under the caller's np.errstate.  The
    gradient dicts, the batch loss and the diagnostics are combined in batch
    order, and the first example to fail in batch order raises.  Each
    parameter feeds one node of an example's graph, so its gradient in the
    joint graph of a batch is the per-example gradients added in batch
    order, and the parameters are bitwise those of one joint graph per
    batch for any thread count.  A parameter used twice in one forward pass
    would break this: the joint graph would add its four contributions as
    ((a0+b0)+a1)+b1, not (a0+b0)+(a1+b1).  Deterministic given config.seed.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(config.seed)
    optimizer = ad.Adam(model.parameters(), lr=config.lr)
    history = []
    step = 0
    step_grads = {}
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        sums = np.zeros(4)
        batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = [dataset[i] for i in order[start:start + config.batch_size]]
            if config.augment:
                batch = [augment_example(ex, rng) for ex in batch]
            scale = 1.0 / len(batch)
            totals = []
            grads = []
            components = np.zeros(3)
            try:
                for total, parts, example_grads in _map_tasks(
                        lambda i: _example_gradients(model, batch[i], config, scale), len(batch)):
                    totals.append(total)
                    grads.append(example_grads)
                    components += parts
                batch_loss = totals[0]
                for extra in totals[1:]:
                    batch_loss = batch_loss + extra
                batch_loss = float(batch_loss * np.asarray(scale, dtype=batch_loss.dtype))
                if not np.isfinite(batch_loss):
                    raise TrainingDiverged("non-finite loss")
            except TrainingDiverged as exc:
                # the gradients in hand are the previous step's; step 0 has none
                grad_norms = {name: float(np.linalg.norm(step_grads[t]))
                              for name, t in model.named_params() if t in step_grads}
                raise TrainingDiverged(
                    f"{exc} at step {step}",
                    {"step": step, "examples": len(totals),
                     "components": (components / len(totals)).tolist() if totals else None,
                     "grad_step": step - 1 if grad_norms else None,
                     "grad_norms": grad_norms}) from None
            step_grads = {}
            for example_grads in grads:
                for param, g in example_grads.items():
                    step_grads[param] = step_grads[param] + g if param in step_grads else g
            optimizer.step(step_grads)
            sums += [batch_loss, *(components / len(batch))]
            batches += 1
            step += 1
        record = {"epoch": epoch, "l_total": sums[0] / batches, "l_cd": sums[1] / batches,
                  "l_coarse": sums[2] / batches, "l_refined": sums[3] / batches}
        history.append(record)
        if log_stream is not None:
            log_stream.write(json.dumps(record, sort_keys=True) + "\n")
            log_stream.flush()
        if checkpoint_dir is not None and (epoch + 1) % config.checkpoint_every == 0:
            save_model(model, f"{checkpoint_dir}/checkpoint_epoch{epoch + 1:04d}.pugeo")
    if checkpoint_dir is not None:
        save_model(model, f"{checkpoint_dir}/checkpoint_final.pugeo")
    return model, history
