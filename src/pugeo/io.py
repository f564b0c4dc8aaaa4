"""Text-format readers and writers for point clouds and triangle meshes.

Supported formats: ``.xyz`` (3 or 6 whitespace-separated columns per line),
Wavefront OBJ (``v``/``vn``/``f`` records, polygons fan-triangulated) and
ASCII PLY.  Binary PLY is rejected.  Coordinates are written as shortest
round-trippable decimals, so read(write(cloud)) reproduces them exactly.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, UnsupportedFormatError

_UNIT_TOL = 1e-5


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Normalize rows of (n, 3); zero rows are left as-is."""
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return v / safe


@dataclass
class PointCloud:
    """Points in model units with optional per-point unit normals."""

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64).reshape(-1, 3)
        if self.normals is not None:
            self.normals = np.ascontiguousarray(self.normals, dtype=np.float64).reshape(-1, 3)
            if len(self.normals) != len(self.points):
                raise ValueError(
                    f"normal count {len(self.normals)} != point count {len(self.points)}"
                )
            lengths = np.linalg.norm(self.normals, axis=1)
            if np.any(np.abs(lengths - 1.0) > _UNIT_TOL):
                worst = float(np.max(np.abs(lengths - 1.0)))
                raise ValueError(f"normals must be unit length (worst deviation {worst:.3g})")

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class TriangleMesh:
    """Indexed triangle mesh with optional per-vertex unit normals."""

    vertices: np.ndarray
    triangles: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.triangles.size:
            if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
                raise FormatError(
                    f"triangle index out of range (vertex count {len(self.vertices)})"
                )
            t = self.triangles
            if np.any((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])):
                raise FormatError("triangle repeats a vertex index")
        if self.normals is not None:
            self.normals = np.ascontiguousarray(self.normals, dtype=np.float64).reshape(-1, 3)
            if len(self.normals) != len(self.vertices):
                raise ValueError("per-vertex normal count mismatch")


def _check_finite(values: list[float], lineno: int) -> None:
    """FormatError citing the line if any parsed value is nan or inf."""
    if not all(map(math.isfinite, values)):
        raise FormatError(f"line {lineno}: non-finite value")


@contextlib.contextmanager
def _naming(path):
    """Prefix the message of a FormatError raised inside with the file path."""
    try:
        yield
    except FormatError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def vertex_normals(mesh: TriangleMesh) -> np.ndarray:
    """Area-weighted average of incident triangle normals, normalized.

    Raw cross products carry the 2*area factor, so summing them per vertex
    is the area weighting.  Vertices without incident faces get +z.
    """
    v, t = mesh.vertices, mesh.triangles
    cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    acc = np.zeros_like(v)
    for col in range(3):
        np.add.at(acc, t[:, col], cross)
    lengths = np.linalg.norm(acc, axis=1)
    out = np.where(lengths[:, None] > 0, acc / np.where(lengths == 0, 1.0, lengths)[:, None],
                   np.array([0.0, 0.0, 1.0]))
    return out


def read_xyz(path: str | os.PathLike) -> PointCloud:
    """Read an .xyz file: 3 columns (points) or 6 (points + normals).

    Normals are normalized on load.  Mixed arity, non-numeric tokens or
    non-finite values raise FormatError citing the path and the 1-based
    line number.
    """
    points, normals = [], []
    arity = None
    with _naming(path), open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            tokens = raw.split()
            if not tokens:
                continue
            if len(tokens) not in (3, 6):
                raise FormatError(f"line {lineno}: expected 3 or 6 columns, got {len(tokens)}")
            if arity is None:
                arity = len(tokens)
            elif len(tokens) != arity:
                raise FormatError(
                    f"line {lineno}: mixed column counts ({len(tokens)} after {arity})"
                )
            try:
                values = [float(tok) for tok in tokens]
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-numeric token ({exc})") from None
            _check_finite(values, lineno)
            points.append(values[:3])
            if arity == 6:
                n = np.asarray(values[3:], dtype=np.float64)
                length = np.linalg.norm(n)
                if length == 0.0:
                    raise FormatError(f"line {lineno}: zero-length normal")
                normals.append(n / length)
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return PointCloud(pts, np.asarray(normals) if normals else None)


def write_xyz(cloud: PointCloud, path: str | os.PathLike) -> None:
    """Write a cloud as .xyz; 6 columns when normals are present.

    Each value is printed with repr (shortest decimal that round-trips
    exactly), which keeps fixtures diffable and the round trip lossless.
    """
    with open(path, "w", encoding="utf-8") as handle:
        if cloud.normals is None:
            for p in cloud.points.tolist():
                handle.write(f"{p[0]!r} {p[1]!r} {p[2]!r}\n")
        else:
            for p, n in zip(cloud.points.tolist(), cloud.normals.tolist()):
                handle.write(f"{p[0]!r} {p[1]!r} {p[2]!r} {n[0]!r} {n[1]!r} {n[2]!r}\n")


def _fan(indices: list[int], lineno: int) -> list[tuple[int, int, int]]:
    if len(indices) < 3:
        raise FormatError(f"line {lineno}: face with {len(indices)} vertices")
    return [(indices[0], indices[i], indices[i + 1]) for i in range(1, len(indices) - 1)]


def _read_obj(path) -> TriangleMesh:
    verts: list[list[float]] = []
    vnormals: list[list[float]] = []
    faces: list[tuple[int, int, int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            tokens = raw.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            tag = tokens[0]
            if tag == "v":
                if len(tokens) < 4:
                    raise FormatError(f"line {lineno}: vertex needs 3 coordinates")
                try:
                    coords = [float(t) for t in tokens[1:4]]
                except ValueError:
                    raise FormatError(f"line {lineno}: non-numeric vertex coordinate") from None
                _check_finite(coords, lineno)
                verts.append(coords)
            elif tag == "vn":
                try:
                    normal = [float(t) for t in tokens[1:4]]
                except ValueError:
                    raise FormatError(f"line {lineno}: non-numeric normal") from None
                _check_finite(normal, lineno)
                vnormals.append(normal)
            elif tag == "f":
                idx = []
                for tok in tokens[1:]:
                    head = tok.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError:
                        raise FormatError(f"line {lineno}: bad face index {head!r}") from None
                    # OBJ is 1-based; negative indices count from the end
                    i = i - 1 if i > 0 else len(verts) + i
                    if not 0 <= i < len(verts):
                        raise FormatError(f"line {lineno}: face index {head} out of range")
                    idx.append(i)
                faces.extend(_fan(idx, lineno))
    normals = None
    if len(vnormals) == len(verts) and verts:
        normals = _unit_rows(np.asarray(vnormals, dtype=np.float64))
    return TriangleMesh(np.asarray(verts, dtype=np.float64).reshape(-1, 3),
                        np.asarray(faces, dtype=np.int64).reshape(-1, 3), normals)


def _read_ply(path) -> TriangleMesh:
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        lines = [ln.rstrip("\n") for ln in handle]
    if not lines or lines[0].strip() != "ply":
        raise FormatError("not a PLY file (missing 'ply' header)")
    n_vertex = n_face = 0
    vertex_props: list[str] = []
    current = None
    cursor = 1
    while cursor < len(lines):
        tokens = lines[cursor].split()
        cursor += 1
        if not tokens:
            continue
        if tokens[0] == "format":
            if tokens[1] != "ascii":
                raise UnsupportedFormatError(f"unsupported PLY format {tokens[1]!r}")
        elif tokens[0] == "element":
            current = tokens[1]
            if current == "vertex":
                n_vertex = int(tokens[2])
            elif current == "face":
                n_face = int(tokens[2])
        elif tokens[0] == "property" and current == "vertex":
            vertex_props.append(tokens[-1])
        elif tokens[0] == "end_header":
            break
    else:
        raise FormatError("PLY header is missing end_header")

    for name in ("x", "y", "z"):
        if name not in vertex_props:
            raise FormatError(f"PLY vertex element lacks property {name!r}")
    col = {name: vertex_props.index(name) for name in vertex_props}
    has_normals = all(n in vertex_props for n in ("nx", "ny", "nz"))

    body = [(lineno, ln) for lineno, ln in enumerate(lines[cursor:], start=cursor + 1)
            if ln.split()]
    if len(body) < n_vertex + n_face:
        raise FormatError(f"PLY body has {len(body)} rows, header declares {n_vertex + n_face}")
    verts = np.empty((n_vertex, 3), dtype=np.float64)
    normals = np.empty((n_vertex, 3), dtype=np.float64) if has_normals else None
    for i in range(n_vertex):
        tokens = body[i][1].split()
        try:
            verts[i] = [float(tokens[col["x"]]), float(tokens[col["y"]]), float(tokens[col["z"]])]
            if has_normals:
                normals[i] = [float(tokens[col["nx"]]), float(tokens[col["ny"]]),
                              float(tokens[col["nz"]])]
        except (ValueError, IndexError):
            raise FormatError(f"PLY vertex row {i + 1} is malformed") from None
    finite = np.isfinite(verts).all(axis=1)
    if has_normals:
        finite &= np.isfinite(normals).all(axis=1)
    if not finite.all():
        raise FormatError(f"line {body[int(np.argmin(finite))][0]}: non-finite value")
    faces: list[tuple[int, int, int]] = []
    for i in range(n_face):
        tokens = body[n_vertex + i][1].split()
        try:
            count = int(tokens[0])
            idx = [int(t) for t in tokens[1:1 + count]]
        except (ValueError, IndexError):
            raise FormatError(f"PLY face row {i + 1} is malformed") from None
        if any(not 0 <= j < n_vertex for j in idx):
            raise FormatError(f"PLY face row {i + 1}: index out of range")
        faces.extend(_fan(idx, i + 1))
    if normals is not None:
        normals = _unit_rows(normals)
    return TriangleMesh(verts, np.asarray(faces, dtype=np.int64).reshape(-1, 3), normals)


def read_mesh(path: str | os.PathLike) -> TriangleMesh:
    """Read an OBJ or ASCII-PLY mesh.

    Vertex normals are computed (area-weighted) when the file has none.
    A FormatError message starts with the path.
    """
    text = str(path).lower()
    with _naming(path):
        if text.endswith(".ply"):
            mesh = _read_ply(path)
        elif text.endswith(".obj"):
            mesh = _read_obj(path)
        else:
            # sniff: PLY files start with the literal "ply"
            with open(path, "rb") as handle:
                head = handle.read(3)
            mesh = _read_ply(path) if head == b"ply" else _read_obj(path)
    if mesh.normals is None:
        mesh.normals = vertex_normals(mesh)
    return mesh


def write_mesh(mesh: TriangleMesh, path: str | os.PathLike) -> None:
    """Write a mesh as OBJ (v/vn/f records, 1-based indices)."""
    with open(path, "w", encoding="utf-8") as handle:
        for v in mesh.vertices.tolist():
            handle.write(f"v {v[0]!r} {v[1]!r} {v[2]!r}\n")
        if mesh.normals is not None:
            for n in mesh.normals.tolist():
                handle.write(f"vn {n[0]!r} {n[1]!r} {n[2]!r}\n")
        for t in mesh.triangles.tolist():
            handle.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")
