"""Whole-cloud upsampling: draw candidates around every input point, then fuse.

The draw is the analytic fit of each point (`upsample_analytic`) or the
model's forwards on FPS-seeded patches; one exact FPS (`fuse_patches`)
keeps R*M of the candidates.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .analytic import UpsampleResult, upsample_analytic
from .io import PointCloud
from .model import PUGeoNet
from .sampling import _check_coverage, count_uncovered, denormalize, extract_patches, fuse_patches
from .workers import _map_tasks


def draw_candidates(cloud: PointCloud, factor: int, model: PUGeoNet | None = None,
                    k: int = 16, coverage: float = 3.0) -> UpsampleResult:
    """Draw about coverage*R*M candidates around the M points of `cloud`.

    Without a model, fit each input point once and draw ceil(coverage*R)
    on its Fibonacci disk, with no RNG.  With one, upsample ceil(coverage*M/N)
    patches of the checkpoint's N points; its frames are the patches' lifts
    T, which stay in the STN-aligned patch space, and R must be the model's;
    the forwards run on `_map_tasks`, in patch order, and record no graph.
    Only the analytic path has degenerate frames and fits, and only the
    model path points in no patch.
    """
    if model is None:
        _check_coverage(coverage)
        return upsample_analytic(cloud, math.ceil(coverage * factor), k=k)
    if factor != model.config.factor:
        raise ValueError(f"factor {factor} does not match the model's factor "
                         f"{model.config.factor}")
    patches = extract_patches(cloud, model.config.patch_size, coverage)
    # with constant parameters no forward records a graph, so concurrent
    # forwards hold only the arrays they still need
    frozen = copy.deepcopy(model)
    for param in frozen.parameters():
        param.requires_grad = False

    def forward(i: int):
        out = frozen.forward(patches[i].points)
        return (denormalize(patches[i], out.points.data), out.normals.data,
                out.deltas.reshape(-1), out.t_matrices)

    parts = zip(*_map_tasks(forward, len(patches)))
    points, normals, deltas, frames = (np.concatenate(part) for part in parts)
    return UpsampleResult(points, normals, deltas, frames, {
        "points": len(cloud), "uncovered": count_uncovered(patches, len(cloud)),
        "degenerate_frames": 0, "degenerate_fits": 0})


def upsample_cloud(cloud: PointCloud, factor: int, model: PUGeoNet | None = None,
                   k: int = 16, coverage: float = 3.0,
                   counts: dict | None = None) -> PointCloud:
    """FPS-fuse the `draw_candidates` of `cloud` to exactly R*M points.

    `counts`, if given, receives the draw's metadata: the input points, the
    points in no patch and the degenerate frames and fits.
    """
    drawn = draw_candidates(cloud, factor, model, k, coverage)
    if counts is not None:
        counts.update(drawn.metadata)
    return fuse_patches([PointCloud(drawn.points, drawn.normals)], factor * len(cloud))
