"""The four workloads: input generation, the CLI call, output checks, quality.

Each operation is one in-process call of ``pugeo.cli.main(argv)``.  Inputs
are generated from the workload seed: the fixture meshes under a random
rotation, scaled to the unit cube, and Poisson-disk samples of them.  The
program always gets ``--seed 1``; only its inputs depend on the workload
seed.  Sizes are scaled down from the paper's 5000 -> 20000 setting so a
run with repeated set-up and several timed operations fits the time
budget of one benchmark run on a 2-core machine (perfbench/baseline.py
runs the full-size stages once).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

import oracle

FACTOR = 4
PATCH = 256
COVERAGE = 3.0
K = 16
PROGRAM_SEED = ["--seed", "1"]


class CheckFailed(Exception):
    """An operation's output is wrong."""


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``pugeo`` invocation; returns (exit code, captured stdout)."""
    from pugeo import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


# ---------------------------------------------------------------------------
# input generation helpers


def rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def fixture_mesh(root: str, name: str, rng: np.random.Generator, stretch: bool = False):
    """A fixture mesh under a random rotation, bounding box scaled to the unit cube.

    With `stretch`, each axis is first scaled by a random factor in
    [0.6, 1], so the seed changes the shape and not only its orientation.
    """
    from pugeo.io import TriangleMesh, read_mesh, vertex_normals

    mesh = read_mesh(os.path.join(root, "tests", "fixtures", f"{name}.obj"))
    vertices = mesh.vertices
    if stretch:
        vertices = vertices * rng.uniform(0.6, 1.0, size=3)
    rot = rotation(rng)
    vertices = vertices @ rot.T
    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    vertices = (vertices - 0.5 * (lo + hi)) / float((hi - lo).max())
    if stretch:  # a non-uniform scale does not carry normals along; recompute them
        return TriangleMesh(vertices, mesh.triangles,
                            vertex_normals(TriangleMesh(vertices, mesh.triangles)))
    return TriangleMesh(vertices, mesh.triangles, mesh.normals @ rot.T)


def write_obj(mesh, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for v in mesh.vertices.tolist():
            handle.write(f"v {v[0]!r} {v[1]!r} {v[2]!r}\n")
        for n in mesh.normals.tolist():
            handle.write(f"vn {n[0]!r} {n[1]!r} {n[2]!r}\n")
        for t in (mesh.triangles + 1).tolist():
            handle.write(f"f {t[0]} {t[1]} {t[2]}\n")


def write_points(path: str, points: np.ndarray, normals: np.ndarray | None = None) -> None:
    rows = points if normals is None else np.hstack([points, normals])
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows.tolist():
            handle.write(" ".join(repr(v) for v in row) + "\n")


def load_points(path: str) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, dtype=np.float64))


def poisson(mesh, n: int, seed: int):
    from pugeo.sampling import poisson_disk_sample

    cloud = poisson_disk_sample(mesh, n, seed)
    return cloud.points, cloud.normals


def sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def digest_path(path: str) -> str:
    """sha256 of a file, or of a directory's sorted names and contents."""
    h = hashlib.sha256()
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            h.update(name.encode() + b"\0")
            h.update(digest_path(os.path.join(path, name)).encode())
    else:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def check_cloud(rows: np.ndarray, count: int, what: str) -> None:
    if rows.shape != (count, 6):
        raise CheckFailed(f"{what}: expected ({count}, 6) rows, got {rows.shape}")
    if not np.isfinite(rows).all():
        raise CheckFailed(f"{what}: non-finite values")
    worst = float(np.abs(np.linalg.norm(rows[:, 3:], axis=1) - 1.0).max())
    if worst > 1e-6:
        raise CheckFailed(f"{what}: normal length off by {worst:.3g}")


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b)) + 1e-15


def expected_patches(points: int, meshes: int) -> int:
    return meshes * min(points, math.ceil(COVERAGE * points / PATCH))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One input set under `inputs/`; each call writes its outputs to `out`."""

    name = ""
    work_unit = ""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.inputs = os.path.join(workdir, "inputs")
        self.out = os.path.join(workdir, "out")
        self.truth: dict = {}  # what the oracle scores outputs against
        self.digest: str | None = None  # output digest every call must reproduce

    def generate(self, seed: int) -> dict[str, str]:
        """Write the inputs; returns name -> sha256 of every generated input."""
        raise NotImplementedError

    def argv(self) -> list[str]:
        raise NotImplementedError

    def work(self) -> float:
        """Work items one operation completes (the throughput numerator)."""
        raise NotImplementedError

    def output_digest(self, stdout: str) -> str:
        raise NotImplementedError

    def check(self, stdout: str) -> None:
        """Full check of one operation's outputs; raises CheckFailed."""
        raise NotImplementedError

    def quality(self, stdout: str) -> dict:
        """Oracle quality of the checked outputs (all end-to-end quality metrics)."""
        raise NotImplementedError

    def _path(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def _arrays_digest(self, *arrays) -> str:
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()


class UpsampleAnalytic(Workload):
    name = "upsample-analytic"
    work_unit = "output points"
    M = 500

    def generate(self, seed):
        rot_seed, sparse_seed, dense_seed = sub_seeds(seed, 3)
        mesh = fixture_mesh(self.root, "icosphere", np.random.default_rng(rot_seed))
        sparse, _ = poisson(mesh, self.M, sparse_seed)
        dense, dense_n = poisson(mesh, FACTOR * self.M, dense_seed)
        write_points(self._path("sparse.xyz"), sparse)
        self.truth = {"mesh": (mesh.vertices, mesh.triangles), "gt": (dense, dense_n)}
        return {"sparse.xyz": digest_path(self._path("sparse.xyz")),
                "gt_dense": self._arrays_digest(dense, dense_n),
                "mesh": self._arrays_digest(mesh.vertices, mesh.triangles)}

    def argv(self):
        return PROGRAM_SEED + ["upsample", "--method", "analytic",
                               "--input", self._path("sparse.xyz"), "--output", self.out,
                               "--factor", str(FACTOR), "--k", str(K),
                               "--patch-size", str(PATCH), "--coverage", str(COVERAGE)]

    def work(self):
        return FACTOR * self.M

    def output_digest(self, stdout):
        return digest_path(self.out) + hashlib.sha256(stdout.encode()).hexdigest()

    def check(self, stdout):
        check_cloud(load_points(self.out), FACTOR * self.M, "upsampled cloud")

    def quality(self, stdout):
        rows = load_points(self.out)
        return oracle.score(rows[:, :3], rows[:, 3:], *self.truth["gt"],
                            self.truth["mesh"])


class Eval(Workload):
    name = "eval"
    work_unit = "scored points"
    N = 2000
    SIGMA = 0.002

    def generate(self, seed):
        rot_seed, gt_seed, pred_seed, noise_seed = sub_seeds(seed, 4)
        mesh = fixture_mesh(self.root, "icosphere", np.random.default_rng(rot_seed))
        gt, gt_n = poisson(mesh, self.N, gt_seed)
        pred, pred_n = poisson(mesh, self.N, pred_seed)
        offset = np.random.default_rng(noise_seed).normal(scale=self.SIGMA, size=(self.N, 1))
        pred = pred + offset * pred_n
        write_obj(mesh, self._path("mesh.obj"))
        write_points(self._path("gt.xyz"), gt, gt_n)
        write_points(self._path("pred.xyz"), pred, pred_n)
        self.truth = {"arrays": (pred, pred_n, gt, gt_n, (mesh.vertices, mesh.triangles))}
        return {name: digest_path(self._path(name)) for name in ("mesh.obj", "gt.xyz", "pred.xyz")}

    def argv(self):
        return PROGRAM_SEED + ["eval", "--pred", self._path("pred.xyz"),
                               "--gt-dense", self._path("gt.xyz"),
                               "--gt-mesh", self._path("mesh.obj"), "--factor", str(FACTOR)]

    def work(self):
        return self.N

    def output_digest(self, stdout):
        return hashlib.sha256(stdout.encode()).hexdigest()

    def check(self, stdout):
        report = json.loads(stdout.strip().splitlines()[-1])
        if report.get("pred_count") != self.N or report.get("gt_count") != self.N:
            raise CheckFailed(f"eval counted {report.get('pred_count')}/{report.get('gt_count')}")
        expected = self.quality(stdout)
        for key in ("cd", "hd", "jsd", "p2f_mean", "p2f_std"):
            if not close(float(report[key]), expected[key]):
                raise CheckFailed(f"eval {key}={report[key]!r}, oracle {expected[key]!r}")

    def quality(self, stdout):
        """Oracle scores of the prediction; the call must have printed the same."""
        if "scores" not in self.truth:
            self.truth["scores"] = oracle.score(*self.truth["arrays"])
        return dict(self.truth["scores"])


class Train(Workload):
    name = "train"
    work_unit = "examples"
    POINTS = 500
    PROBE = 512

    def generate(self, seed):
        rot_seed, probe_seed, probe_gt_seed = sub_seeds(seed, 3)
        rng = np.random.default_rng(rot_seed)
        meshes = os.path.join(self.inputs, "meshes")
        os.makedirs(meshes)
        built = {name: fixture_mesh(self.root, name, rng) for name in ("cube", "icosphere")}
        for name, mesh in built.items():
            write_obj(mesh, os.path.join(meshes, f"{name}.obj"))
        data = self._path("data")
        # the dataset is built the way users build it
        code, _ = run_cli(PROGRAM_SEED + ["dataset", "build", "--mesh-dir", meshes,
                                          "--out", data, "--points", str(self.POINTS),
                                          "--factor", str(FACTOR), "--patch-size", str(PATCH),
                                          "--coverage", str(COVERAGE)])
        if code != 0:
            raise RuntimeError(f"dataset build for the train workload exited {code}")
        mesh = built["icosphere"]
        probe, _ = poisson(mesh, self.PROBE, probe_seed)
        probe_gt, probe_gt_n = poisson(mesh, FACTOR * self.PROBE, probe_gt_seed)
        write_points(self._path("probe.xyz"), probe)
        self.truth = {"mesh": (mesh.vertices, mesh.triangles), "gt": (probe_gt, probe_gt_n)}
        return {"meshes": digest_path(meshes), "data": digest_path(data),
                "probe.xyz": digest_path(self._path("probe.xyz")),
                "probe_gt": self._arrays_digest(probe_gt, probe_gt_n)}

    def argv(self):
        return PROGRAM_SEED + ["train", "--data", self._path("data"), "--out", self.out,
                               "--epochs", "1", "--batch", "8"]

    def work(self):
        return expected_patches(self.POINTS, 2)

    def output_digest(self, stdout):
        return digest_path(self.out) + hashlib.sha256(stdout.encode()).hexdigest()

    def _log(self, stdout) -> dict:
        lines = stdout.strip().splitlines()
        if len(lines) != 1:
            raise CheckFailed(f"expected one epoch log line, got {len(lines)}")
        return json.loads(lines[0])

    def check(self, stdout):
        from pugeo.model import load_model

        if not math.isfinite(self._log(stdout)["l_total"]):
            raise CheckFailed("non-finite training loss")
        model = load_model(self.out)
        if not all(np.isfinite(t.data).all() for t in model.parameters()):
            raise CheckFailed("checkpoint holds non-finite weights")

    def quality(self, stdout):
        """The trained checkpoint upsamples a probe cloud; loss_final is the epoch loss."""
        probe_out = self.out + ".probe.xyz"
        code, _ = run_cli(PROGRAM_SEED + ["upsample", "--method", "model", "--model", self.out,
                                          "--input", self._path("probe.xyz"),
                                          "--output", probe_out, "--factor", str(FACTOR)])
        if code != 0:
            raise CheckFailed(f"probe upsample with the checkpoint exited {code}")
        rows = load_points(probe_out)
        check_cloud(rows, FACTOR * self.PROBE, "probe upsample")
        scores = oracle.score(rows[:, :3], rows[:, 3:], *self.truth["gt"],
                              self.truth["mesh"])
        scores["loss_final"] = float(self._log(stdout)["l_total"])
        return scores


class DatasetBuild(Workload):
    name = "dataset-build"
    work_unit = "sparse+dense samples"
    POINTS = 500
    MESHES = ("cube", "icosphere")

    def generate(self, seed):
        (rot_seed,) = sub_seeds(seed, 1)
        rng = np.random.default_rng(rot_seed)
        meshes = self._path("meshes")
        os.makedirs(meshes)
        for name in self.MESHES:
            write_obj(fixture_mesh(self.root, name, rng, stretch=True),
                      os.path.join(meshes, f"{name}.obj"))
        return {"meshes": digest_path(meshes)}

    def argv(self):
        return PROGRAM_SEED + ["dataset", "build", "--mesh-dir", self._path("meshes"),
                               "--out", self.out, "--points", str(self.POINTS),
                               "--factor", str(FACTOR), "--patch-size", str(PATCH),
                               "--coverage", str(COVERAGE)]

    def work(self):
        return len(self.MESHES) * (1 + FACTOR) * self.POINTS

    def output_digest(self, stdout):
        return digest_path(self.out) + hashlib.sha256(stdout.encode()).hexdigest()

    def _patches(self) -> list[tuple[np.ndarray, np.ndarray]]:
        with open(os.path.join(self.out, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        config = manifest["config"]
        wanted = {"points": self.POINTS, "factor": FACTOR, "patch_size": PATCH,
                  "coverage": COVERAGE}
        if any(config.get(k) != v for k, v in wanted.items()):
            raise CheckFailed(f"manifest config {config} does not match {wanted}")
        expected = expected_patches(self.POINTS, len(self.MESHES))
        if len(manifest["patches"]) != expected:
            raise CheckFailed(f"manifest lists {len(manifest['patches'])} patches, "
                              f"expected {expected}")
        listed = {"manifest.json"}
        pairs = []
        for entry in manifest["patches"]:
            listed |= {entry["sparse"], entry["dense"]}
            sparse = load_points(os.path.join(self.out, entry["sparse"]))
            dense = load_points(os.path.join(self.out, entry["dense"]))
            check_cloud(sparse, PATCH, entry["sparse"])
            check_cloud(dense, FACTOR * PATCH, entry["dense"])
            pairs.append((sparse, dense))
        if set(os.listdir(self.out)) != listed:
            raise CheckFailed("output directory does not match the manifest")
        return pairs

    def check(self, stdout):
        printed = json.loads(stdout.strip().splitlines()[-1])
        if printed.get("patches") != expected_patches(self.POINTS, len(self.MESHES)):
            raise CheckFailed(f"printed patch count {printed.get('patches')}")
        self._patches()

    def quality(self, stdout):
        """Each sparse patch scored against its dense patch (no mesh frame in patches)."""
        scores = [oracle.score(s[:, :3], s[:, 3:], d[:, :3], d[:, 3:], None)
                  for s, d in self._patches()]
        return {key: float(np.mean([s[key] for s in scores])) for key in scores[0]}


WORKLOADS = {w.name: w for w in (UpsampleAnalytic, Eval, Train, DatasetBuild)}


def clear(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)
