"""Dataset construction from meshes and the end-to-end training loop.

A training example pairs a sparse patch (network input, with ground-truth
normals as supervision) with the dense patch covering the same region,
both normalized by the sparse patch's transform.  Training minimizes
alpha*CD + beta*coarse-normal + gamma*refined-normal with Adam.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .analytic import SamplePattern, upsample_analytic
from .errors import TrainingDiverged
from .io import PointCloud, TriangleMesh
from .losses import LossWeights, chamfer_loss, normal_loss_graph, total_loss_graph
from .model import PUGeoNet, save_model
from .sampling import (NeighborIndex, _normalize_patch, denormalize, extract_patches,
                       farthest_point_sample, fuse_patches, nearest_pairs, poisson_disk_sample)


@dataclass
class TrainExample:
    """A sparse/dense patch pair sharing one normalization transform."""

    sparse_points: np.ndarray    # (N, 3)
    sparse_normals: np.ndarray   # (N, 3)
    dense_points: np.ndarray     # (R*N, 3)
    dense_normals: np.ndarray    # (R*N, 3)
    seed_index: int = 0


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
                  random_patches: bool = False) -> list[TrainExample]:
    """Sample each mesh into sparse/dense clouds and cut matched patches.

    Per mesh: scale into the unit cube, Poisson-disk sample m sparse and
    factor*m dense points (with mesh normals), pick ceil(coverage*m/N)
    patch seeds by FPS (or uniformly at random with random_patches), and
    cut the sparse kNN(N) and dense kNN(R*N) patches around each seed,
    both normalized by the sparse patch's centroid and scale.  noise_sigma
    adds Gaussian noise (unit-cube units) to the sparse cloud only.
    """
    examples: list[TrainExample] = []
    for mesh_index, mesh in enumerate(meshes):
        mesh = scale_to_unit_cube(mesh)
        base = seed + 7919 * mesh_index
        sparse = poisson_disk_sample(mesh, m, base)
        dense = poisson_disk_sample(mesh, factor * m, base + 1)
        rng = np.random.default_rng(base + 2)
        if noise_sigma > 0.0:
            sparse = PointCloud(sparse.points + rng.normal(scale=noise_sigma,
                                                           size=sparse.points.shape),
                                sparse.normals)
        n_seeds = min(m, math.ceil(coverage * m / patch_size))
        if random_patches:
            seeds = rng.choice(m, size=n_seeds, replace=False)
        else:
            seeds = farthest_point_sample(sparse, n_seeds, seed_index=0)
        anchors = sparse.points[seeds]
        sparse_patches = NeighborIndex(sparse.points).knn_batch(anchors, patch_size)
        dense_patches = NeighborIndex(dense.points).knn_batch(anchors, factor * patch_size)
        for s, sp_idx, dn_idx in zip(seeds, sparse_patches, dense_patches):
            patch = _normalize_patch(sparse, sp_idx)
            examples.append(TrainExample(
                sparse_points=patch.points, sparse_normals=patch.normals,
                dense_points=(dense.points[dn_idx] - patch.centroid) / patch.scale,
                dense_normals=dense.normals[dn_idx].copy(), seed_index=int(s)))
    return examples


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


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _worker_count(batch_size: int) -> int:
    """Threads that train one batch's examples: min(batch, CPUs // BLAS threads).

    CPUs are the ones this process may run on.  BLAS threads come from the
    first of _BLAS_THREAD_VARS set to a positive integer, else the CPU
    count, so an unpinned BLAS, which may use every core, keeps one worker.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    blas = cpus
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(1, min(batch_size, cpus // blas))


def _example_gradients(model: PUGeoNet, example: TrainExample, config: TrainConfig,
                       scale: float, params: list, err: dict):
    """One example's forward pass, losses and backward pass of scale * total.

    Runs under np.errstate(**err), the calling thread's settings, which a
    worker thread does not inherit.  Returns the total loss (a 0-d array),
    the (cd, coarse, refined) values and the gradients of `params`, without
    touching any .grad they hold.  A non-finite total gets no backward
    pass: its batch diverges before a step.
    """
    with np.errstate(**err):
        total, cd, coarse, refined = _example_losses(model, example, config.weights,
                                                     config.normal_reduction)
        grads = None
        if np.isfinite(total.data):
            grads = ad.backward(ad.mul(total, scale), leaves=params)
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
    graph, on `_worker_count` threads under the caller's np.errstate.  The
    gradients, the batch loss and the diagnostics are combined in batch
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
    params = optimizer.params
    err = np.geterr()
    err["call"] = np.geterrcall()
    pool = ThreadPoolExecutor(_worker_count(config.batch_size))
    history = []
    step = 0
    try:
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
                    futures = [pool.submit(_example_gradients, model, ex, config, scale,
                                           params, err) for ex in batch]
                    for future in futures:
                        total, parts, example_grads = future.result()
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
                    grad_norms = {name: float(np.linalg.norm(t.grad))
                                  for name, t in model.named_params() if t.grad is not None}
                    raise TrainingDiverged(
                        f"{exc} at step {step}",
                        {"step": step, "examples": len(totals),
                         "components": (components / len(totals)).tolist() if totals else None,
                         "grad_step": step - 1 if grad_norms else None,
                         "grad_norms": grad_norms}) from None
                for i, param in enumerate(params):
                    param.grad = None
                    for example_grads in grads:
                        g = example_grads[i]
                        if g is not None:
                            param.grad = g if param.grad is None else param.grad + g
                optimizer.step()
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
    finally:
        pool.shutdown(cancel_futures=True)
    if checkpoint_dir is not None:
        save_model(model, f"{checkpoint_dir}/checkpoint_final.pugeo")
    return model, history


# ---------------------------------------------------------------------------
# whole-cloud upsampling pipeline


def upsample_cloud(cloud: PointCloud, factor: int, method: str = "analytic",
                   model: PUGeoNet | None = None, k: int = 16,
                   pattern: SamplePattern | None = None, patch_size: int = 256,
                   coverage: float = 3.0, seed: int = 0,
                   counts: dict | None = None) -> PointCloud:
    """Patch-extract, upsample each patch, denormalize and fuse to R*M points.

    When `counts` is given it receives the patch points processed and the
    degenerate frames and fits summed over all patches.
    """
    if method == "model":
        if model is None:
            raise ValueError("method 'model' requires a model")
        patch_size = model.config.patch_size
        factor = model.config.factor
    elif method == "analytic" and patch_size > len(cloud):
        # analytic upsampling has no fixed input size: a small cloud is one patch
        patch_size, coverage = len(cloud), 1.0
    rng = np.random.default_rng(seed)
    patches = extract_patches(cloud, patch_size, coverage)
    pieces = []
    totals = dict.fromkeys(("patch_points", "degenerate_frames", "degenerate_fits"), 0)
    for patch in patches:
        if method == "analytic":
            result = upsample_analytic(PointCloud(patch.points), factor, k=k,
                                       pattern=pattern, rng=rng)
        elif method == "model":
            result = model.upsample_patch(patch.points)
        else:
            raise ValueError(f"unknown method {method!r}")
        totals["patch_points"] += len(patch.points)
        for key in ("degenerate_frames", "degenerate_fits"):
            totals[key] += result.metadata.get(key, 0)
        pieces.append(PointCloud(denormalize(patch, result.points), result.normals))
    if counts is not None:
        counts.update(totals)
    return fuse_patches(pieces, factor * len(cloud))
