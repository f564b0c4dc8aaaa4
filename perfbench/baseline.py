"""Full-size stage timings, for comparison with the ROADMAP baseline table.

    python3 perfbench/baseline.py

Runs once at the paper's size (icosphere, M=5000 -> 20000, R=4, k=16,
patch 256, coverage 3) with the benchmark's spans installed, and prints
one JSON object per stage with the ROADMAP figure beside the measured
one.  Inputs come from seed 1.  Takes about a minute on a 2-core machine; it is not part of the
timed benchmark, whose workloads are scaled down to fit its run budget.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time

import run  # pins BLAS threads before numpy loads

SEED = 1
ROADMAP_S = {
    "upsample_cloud analytic, M=5000, end to end": 43.8,
    "FPS fusion 60k -> 20k (fuse_patches)": 36.0,
    "per-point frame/curvature fits, 3x patch overlap": 6.0,
    "upsample_analytic on the whole cloud, no patches": 1.7,
    "metric_p2f, 20k points": 6.1,
    "poisson_disk_sample n=20000": 3.8,
    "network forward, patch 256": 0.13,
    "network forward+Chamfer+backward, patch 256": 0.50,
}


def inclusive(tracer, name: str) -> float:
    """Total time inside spans called `name`, not counting nested repeats."""
    spans = tracer.spans
    return sum(end - start for span, start, end, parent in spans
               if span == name and (parent < 0 or spans[parent][0] != name))


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))

    import numpy as np

    import spans
    import workloads as wl
    from pugeo import autodiff as ad
    from pugeo.analytic import upsample_analytic
    from pugeo.io import PointCloud
    from pugeo.losses import chamfer_loss
    from pugeo.model import PUGeoConfig, PUGeoNet
    from pugeo.sampling import extract_patches

    measured = {}
    probe_before = run.speed_probe()
    rot_seed, sparse_seed, dense_seed = wl.sub_seeds(SEED, 3)
    mesh = wl.fixture_mesh(run.ROOT, "icosphere", np.random.default_rng(rot_seed))
    sparse, _ = wl.poisson(mesh, 5000, sparse_seed)
    start = time.perf_counter()
    dense, dense_n = wl.poisson(mesh, 20000, dense_seed)
    measured["poisson_disk_sample n=20000"] = time.perf_counter() - start

    scratch = os.path.join(run.ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        paths = {name: os.path.join(tmp, name)
                 for name in ("sparse.xyz", "up.xyz", "gt.xyz", "mesh.obj")}
        wl.write_points(paths["sparse.xyz"], sparse)
        wl.write_points(paths["gt.xyz"], dense, dense_n)
        wl.write_obj(mesh, paths["mesh.obj"])

        def traced(argv):
            tracer = spans.Tracer()
            with spans.traced_cli(tracer):
                code, _ = wl.run_cli(wl.PROGRAM_SEED + argv)
            if code != 0:
                raise SystemExit(f"pugeo {argv[0]} exited {code}")
            return tracer

        tracer = traced(["upsample", "--method", "analytic", "--input", paths["sparse.xyz"],
                         "--output", paths["up.xyz"], "--factor", "4", "--k", "16",
                         "--patch-size", "256", "--coverage", "3"])
        measured["upsample_cloud analytic, M=5000, end to end"] = inclusive(tracer, "cli")
        measured["FPS fusion 60k -> 20k (fuse_patches)"] = inclusive(tracer, "sampling.fuse")
        measured["per-point frame/curvature fits, 3x patch overlap"] = inclusive(
            tracer, "analytic.upsample")

        start = time.perf_counter()
        upsample_analytic(PointCloud(sparse), 4, k=16)
        measured["upsample_analytic on the whole cloud, no patches"] = (
            time.perf_counter() - start)

        tracer = traced(["eval", "--pred", paths["up.xyz"], "--gt-dense", paths["gt.xyz"],
                         "--gt-mesh", paths["mesh.obj"], "--factor", "4"])
        measured["metric_p2f, 20k points"] = inclusive(tracer, "metrics.p2f")
    try:
        os.rmdir(scratch)
    except OSError:
        pass

    model = PUGeoNet(PUGeoConfig(), seed=1)
    patch = extract_patches(PointCloud(sparse), 256, 3.0)[0]
    target = dense[wl.oracle.nearest(patch.points * patch.scale + patch.centroid, dense)[1]]
    forward, full = [], []
    for _ in range(3):
        start = time.perf_counter()
        model.forward(patch.points)
        forward.append(time.perf_counter() - start)
        start = time.perf_counter()
        out = model.forward(patch.points)
        loss = chamfer_loss(out.points, np.repeat((target - patch.centroid) / patch.scale, 4,
                                                  axis=0))
        ad.backward(loss)
        full.append(time.perf_counter() - start)
    measured["network forward, patch 256"] = statistics.median(forward)
    measured["network forward+Chamfer+backward, patch 256"] = statistics.median(full)

    for stage, roadmap in ROADMAP_S.items():
        print(json.dumps({"stage": stage, "roadmap_s": roadmap,
                          "measured_s": round(measured[stage], 3),
                          "ratio": round(measured[stage] / roadmap, 3)}))
    # slowness relative to the probe's nominal speed (see run.speed_probe)
    print(json.dumps({"machine": run.machine_info(), "seed": SEED,
                      "speed_probe": [probe_before, run.speed_probe()]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
