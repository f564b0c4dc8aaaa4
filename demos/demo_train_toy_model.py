"""Train the network on one synthetic patch until it overfits.

Builds a curved patch (an anisotropic paraboloid), instantiates a small
model, and runs a few hundred Adam steps of the joint loss
100*CD + coarse-normal + refined-normal.  Prints the loss trajectory and
the final Chamfer distance of the upsampled patch.
"""

import numpy as np

import pugeo.autodiff as ad
from pugeo import LossWeights, PUGeoConfig, PUGeoNet, chamfer
from pugeo.trainer import TrainExample, _example_losses

rng = np.random.default_rng(7)


def paraboloid(n):
    xy = rng.uniform(-1, 1, (n, 2))
    z = 0.3 * xy[:, 0] ** 2 + 0.2 * xy[:, 1] ** 2
    points = np.column_stack([xy, z])
    normals = np.column_stack([-0.6 * xy[:, 0], -0.4 * xy[:, 1], np.ones(n)])
    return points, normals / np.linalg.norm(normals, axis=1, keepdims=True)


sparse, sparse_n = paraboloid(64)
dense, dense_n = paraboloid(256)
example = TrainExample(sparse_points=sparse, sparse_normals=sparse_n,
                       dense_points=dense, dense_normals=dense_n)

config = PUGeoConfig(factor=4, patch_size=64, k=6, feature_widths=(16, 32),
                     hr_hidden=16, f1_hidden=32, f2_hidden=32, f3_hidden=16,
                     f4_hidden=16)
model = PUGeoNet(config, seed=0)
optimizer = ad.Adam(model.parameters(), lr=0.001)
weights = LossWeights(alpha=100.0, beta=1.0, gamma=1.0)

for step in range(301):
    total, cd, coarse, refined = _example_losses(model, example, weights)
    if step % 50 == 0:
        print(f"step {step:3d}  total {total.item():8.3f}  cd {cd.item():.4f}  "
              f"coarse {coarse.item():7.2f}  refined {refined.item():7.2f}")
    optimizer.step(ad.backward(total))

out = model.forward(sparse)
print(f"\nfinal Chamfer distance to the dense ground truth: "
      f"{chamfer(out.points.data, dense):.5f}")
print(f"upsampled {len(sparse)} -> {len(out.points.data)} points, "
      f"normals unit within {np.abs(np.linalg.norm(out.normals.data, axis=1) - 1).max():.1e}")
