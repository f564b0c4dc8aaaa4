"""Estimate principal curvatures on shapes whose exact answers are known.

A unit sphere has k1 = k2 = 1 everywhere; a radius-2 cylinder has
k1 = 0.5 along the bending direction and k2 = 0 along the axis; a plane
has both at zero.  The per-point recipe is PCA frame -> jet tilt fix ->
least-squares quadric height fit.
"""

import numpy as np

from pugeo import estimate_frames, fit_curvatures
from pugeo.sampling import NeighborIndex

rng = np.random.default_rng(1)


def report(name, points, true_k1, true_k2, k=16):
    neighborhoods = points[NeighborIndex(points).knn_batch(points, k)]
    frames, _ = estimate_frames(neighborhoods, points)
    curvatures, _, _ = fit_curvatures(neighborhoods, points, frames)
    k1_median, k2_median = np.median(curvatures, axis=0)
    print(f"{name:10s} k1 median {k1_median:+.4f} (true {true_k1:+.2f})   "
          f"k2 median {k2_median:+.4f} (true {true_k2:+.2f})")


n = 2000
directions = rng.normal(size=(n, 3))
directions /= np.linalg.norm(directions, axis=1, keepdims=True)
report("sphere", directions, 1.0, 1.0)

phi = rng.uniform(0, 2 * np.pi, n)
z = rng.uniform(-2, 2, n)
cylinder = np.column_stack([2 * np.cos(phi), 2 * np.sin(phi), z])
report("cylinder", cylinder, 0.5, 0.0)

plane = np.column_stack([rng.uniform(-1, 1, (n, 2)), np.zeros(n)])
report("plane", plane, 0.0, 0.0)

saddle_xy = rng.uniform(-0.5, 0.5, (n, 2))
saddle = np.column_stack([saddle_xy, 0.5 * (saddle_xy[:, 0] ** 2 - saddle_xy[:, 1] ** 2)])
report("saddle", saddle, 1.0, -1.0)
