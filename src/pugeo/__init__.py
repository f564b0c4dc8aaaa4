"""Geometry-centric point cloud upsampling.

Sparse clouds are densified by learning (or analytically estimating) a
local parameterization per point: a 3x3 linear lift maps 2D parametric
samples onto each tangent plane, and a curvature-driven displacement along
the normal bends them onto the surface.  The package bundles the text IO,
sampling, differential-geometry, autodiff, model, loss/metric and training
machinery for the whole pipeline at desk scale.
"""

from .analytic import UpsampleResult, param_samples, upsample_analytic
from .geometry import estimate_frames, fit_curvatures, frame_stats
from .io import PointCloud, TriangleMesh, read_mesh, read_xyz, write_mesh, write_xyz
from .losses import LossWeights
from .metrics import MetricReport, chamfer, metric_hd, metric_jsd, metric_p2f, surface_compare
from .model import PUGeoConfig, PUGeoNet, load_model, save_model
from .sampling import (Patch, denormalize, extract_patches, farthest_point_sample,
                       fuse_patches, poisson_disk_sample)
from .trainer import TrainConfig, TrainExample, build_dataset, train
from .upsample import upsample_cloud

__version__ = "0.1.0"

__all__ = [
    "LossWeights", "MetricReport", "Patch", "PointCloud", "PUGeoConfig", "PUGeoNet",
    "TrainConfig", "TrainExample", "TriangleMesh", "UpsampleResult",
    "build_dataset", "chamfer", "denormalize", "estimate_frames", "extract_patches",
    "farthest_point_sample", "fit_curvatures", "frame_stats", "fuse_patches",
    "load_model", "metric_hd", "metric_jsd", "metric_p2f", "param_samples",
    "poisson_disk_sample", "read_mesh", "read_xyz", "save_model", "surface_compare",
    "train", "upsample_analytic", "upsample_cloud", "write_mesh", "write_xyz",
]
