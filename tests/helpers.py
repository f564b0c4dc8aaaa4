"""Shared test utilities: synthetic geometry and independent oracles."""

import json
import struct

import numpy as np

from pugeo import PointCloud, PUGeoNet, TriangleMesh, poisson_disk_sample, workers
from pugeo.model import CHECKPOINT_MAGIC
from pugeo.sampling import NeighborIndex

ICO_FACES = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
             (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
             (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
             (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]


def icosphere(subdiv: int, radius: float = 1.0) -> TriangleMesh:
    phi = (1 + 5 ** 0.5) / 2
    verts = [(-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
             (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
             (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1)]
    verts = [np.asarray(v, float) / np.linalg.norm(v) for v in verts]
    faces = list(ICO_FACES)
    for _ in range(subdiv):
        cache = {}
        out = []

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in cache:
                m = verts[a] + verts[b]
                m /= np.linalg.norm(m)
                verts.append(m)
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            out += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = out
    v = np.asarray(verts) * radius
    return TriangleMesh(v, np.asarray(faces), v / np.linalg.norm(v, axis=1, keepdims=True))


def cube_mesh(side: float = 1.0) -> TriangleMesh:
    v = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float) * side
    f = np.array([[0, 1, 3], [0, 3, 2], [4, 6, 7], [4, 7, 5], [0, 4, 5], [0, 5, 1],
                  [2, 3, 7], [2, 7, 6], [0, 2, 6], [0, 6, 4], [1, 5, 7], [1, 7, 3]])
    return TriangleMesh(v, f)


def unit_square_mesh() -> TriangleMesh:
    v = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float)
    return TriangleMesh(v, np.array([[0, 1, 2], [0, 2, 3]]))


def sphere_cloud(n: int, radius: float, seed: int) -> PointCloud:
    """Blue-noise points exactly on a sphere: mesh Poisson samples projected."""
    raw = poisson_disk_sample(icosphere(4), n, seed).points
    directions = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return PointCloud(directions * radius, directions)


def clustered_cloud() -> PointCloud:
    """128 points in clusters of 120 and 8: two patches of 64 miss part of the big one."""
    rng = np.random.default_rng(21)
    cluster_a = rng.normal(size=(120, 3)) * 0.01
    cluster_b = rng.normal(size=(8, 3)) * 0.01 + 10.0
    return PointCloud(np.concatenate([cluster_a, cluster_b]))


def unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def tangent_points(result) -> np.ndarray:
    """An analytic draw's first-order points: each sample less its displacement along t3."""
    factor = len(result.points) // len(result.frames)
    t3 = np.repeat(result.frames[:, :, 2], factor, axis=0)
    return result.points - result.deltas[:, None] * t3


# ---------------------------------------------------------------------------
# independent oracles


def brute_force_knn(points: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    """Full scan sorted by (distance, index)."""
    dists = np.linalg.norm(points - query, axis=1)
    order = np.lexsort((np.arange(len(points)), dists))
    return order[:k]


def brute_force_nearest(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    out = np.empty(len(queries), dtype=np.int64)
    for i, q in enumerate(queries):
        d = np.linalg.norm(targets - q, axis=1)
        out[i] = int(np.argmin(d))  # first minimum = lowest index
    return out


def count_index_builds(monkeypatch) -> list[int]:
    """Record the size of every NeighborIndex built from now on, in order."""
    builds = []
    init = NeighborIndex.__init__

    def counting(self, points):
        init(self, points)
        builds.append(len(self.points))

    monkeypatch.setattr(NeighborIndex, "__init__", counting)
    return builds


def force_workers(monkeypatch, count: int) -> None:
    """Run every `workers._map_tasks` call on min(tasks, count) threads."""
    monkeypatch.setattr(workers, "_worker_count", lambda tasks: min(tasks, count))


def numeric_gradient(fn, tensor, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of scalar fn() w.r.t. tensor.data."""
    flat = tensor.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = fn()
        flat[i] = orig - h
        f_minus = fn()
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad.reshape(tensor.data.shape)


def cast_model(net: PUGeoNet, dtype) -> PUGeoNet:
    """A copy of `net` with its weights cast to `dtype`."""
    clone = PUGeoNet(net.config, seed=0, dtype=dtype)
    for (_, src), (_, dst) in zip(net.named_params(), clone.named_params()):
        dst.data = src.data.astype(dtype)
    return clone


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-4) -> float:
    """Relative error with an absolute floor so near-zero entries compare sanely."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def edit_checkpoint_header(path, edit) -> None:
    """Rewrite a saved checkpoint's header as edit(header) leaves it; the weights stay."""
    blob = path.read_bytes()
    offset = len(CHECKPOINT_MAGIC)
    (length,) = struct.unpack_from("<I", blob, offset)
    header = json.loads(blob[offset + 4:offset + 4 + length])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:offset] + struct.pack("<I", len(new)) + new
                     + blob[offset + 4 + length:])


def set_checkpoint_config_entry(path, key, value) -> None:
    """Rewrite a saved checkpoint's header so that config[key] = value."""
    edit_checkpoint_header(path, lambda header: header["config"].__setitem__(key, value))


def ply_face_flags(path, flags_first, face_first=False):
    """(path, line of the flags property) of a 4-vertex PLY whose two faces carry a
    `flags` byte before or after their index list."""
    vertex = ["element vertex 4", "property float x", "property float y", "property float z"]
    face = ["element face 2", "property list uchar int vertex_indices", "property uchar flags"]
    vertices = ["0 0 0", "1 0 0", "0 1 0", "1 1 0"]
    faces = ["3 0 1 2 3", "3 1 3 2 4"]
    if flags_first:
        face = [face[0], face[2], face[1]]
        faces = ["3 3 0 1 2", "4 3 1 3 2"]
    head = face + vertex if face_first else vertex + face
    body = faces + vertices if face_first else vertices + faces
    path.write_text("\n".join(["ply", "format ascii 1.0", *head, "end_header", *body]) + "\n")
    return path, 3 + head.index("property uchar flags")

