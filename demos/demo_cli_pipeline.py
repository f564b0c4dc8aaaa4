"""Drive the whole pipeline through the command-line interface.

Builds a small dataset from the bundled test meshes, trains for a few
epochs, upsamples a fresh sparse cloud with the trained model, evaluates
it against dense ground truth, and prints the frame-statistics table.
Everything lands in ./out_demo.
"""

import json
import os
import shutil

from pugeo import poisson_disk_sample, read_mesh, write_mesh, write_xyz
from pugeo.cli import main
from pugeo.trainer import scale_to_unit_cube

OUT = "out_demo"
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures")

shutil.rmtree(OUT, ignore_errors=True)
mesh_dir = os.path.join(OUT, "meshes")
os.makedirs(mesh_dir)
for name in ("cube.obj", "icosphere.obj"):
    shutil.copy(os.path.join(FIXTURES, name), os.path.join(mesh_dir, name))

print("== dataset build ==")
main(["--seed", "42", "dataset", "build", "--mesh-dir", mesh_dir,
      "--out", os.path.join(OUT, "data"), "--points", "256", "--factor", "4",
      "--patch-size", "64", "--coverage", "2.0"])

print("\n== train (10 epochs, toy scale) ==")
main(["--seed", "42", "train", "--data", os.path.join(OUT, "data"),
      "--out", os.path.join(OUT, "model.pugeo"), "--epochs", "10", "--batch", "8",
      "--k-feature", "6"])

print("\n== upsample a fresh sparse cloud ==")
mesh = scale_to_unit_cube(read_mesh(os.path.join(mesh_dir, "icosphere.obj")))
write_mesh(mesh, os.path.join(OUT, "gt_mesh.obj"))
write_xyz(poisson_disk_sample(mesh, 256, seed=7), os.path.join(OUT, "input.xyz"))
write_xyz(poisson_disk_sample(mesh, 1024, seed=8), os.path.join(OUT, "gt_dense.xyz"))
main(["--seed", "42", "upsample", "--input", os.path.join(OUT, "input.xyz"),
      "--output", os.path.join(OUT, "upsampled_model.xyz"), "--factor", "4",
      "--method", "model", "--model", os.path.join(OUT, "model.pugeo"),
      "--coverage", "2.0"])
main(["--seed", "42", "upsample", "--input", os.path.join(OUT, "input.xyz"),
      "--output", os.path.join(OUT, "upsampled_analytic.xyz"), "--factor", "4",
      "--method", "analytic", "--k", "16", "--coverage", "2.0"])

print("\n== evaluate both against the ground truth ==")
for method in ("model", "analytic"):
    main(["eval", "--pred", os.path.join(OUT, f"upsampled_{method}.xyz"),
          "--gt-dense", os.path.join(OUT, "gt_dense.xyz"),
          "--gt-mesh", os.path.join(OUT, "gt_mesh.obj"), "--factor", "4"])

print("\n== inspect frames (analytic) ==")
main(["inspect", "frames", "--input", os.path.join(OUT, "input.xyz"),
      "--method", "analytic", "--k", "16", "--factor", "4"])

print(f"\nartifacts in {OUT}/: {sorted(os.listdir(OUT))}")
