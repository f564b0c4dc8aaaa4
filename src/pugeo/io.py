"""Text-format readers and writers for point clouds and triangle meshes.

Supported formats: ``.xyz`` (3 or 6 whitespace-separated columns per line),
Wavefront OBJ (``v``/``vn``/``f`` records, polygons fan-triangulated) and
ASCII PLY.  Binary PLY is rejected.  Coordinates are written as shortest
round-trippable decimals, so read(write(cloud)) reproduces them exactly.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, FormatError, GeometryError, UnsupportedFormatError
from .geometry import _face_cross, _unit_rows

_UNIT_TOL = 1e-5


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
            finite = np.isfinite(self.normals).all(axis=1)
            if not finite.all():
                raise ValueError(f"normals must be unit length (row {int(np.argmin(finite)) + 1} "
                                 f"is not finite)")
            deviation = np.abs(np.linalg.norm(self.normals, axis=1) - 1.0)
            if not np.all(deviation <= _UNIT_TOL):
                raise ValueError(f"normals must be unit length "
                                 f"(worst deviation {float(np.max(deviation)):.3g})")

    def __len__(self) -> int:
        return len(self.points)


def _repeats_an_index(t: np.ndarray) -> np.ndarray:
    """Which rows of an (n, 3) index array name one vertex more than once."""
    return (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])


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
            if _repeats_an_index(self.triangles).any():
                raise FormatError("triangle repeats a vertex index")
        if self.normals is not None:
            self.normals = np.ascontiguousarray(self.normals, dtype=np.float64).reshape(-1, 3)
            if len(self.normals) != len(self.vertices):
                raise ValueError("per-vertex normal count mismatch")


def _records(handle):
    r"""Yield (1-based line number, tokens) for each non-blank line of binary chunks.

    `handle` is a file opened in binary mode or a list of bytes objects.

    Lines end at ``\n``, ``\r\n`` or a lone ``\r``, as in text mode, and are
    decoded one at a time, so a reader that stops early never decodes the rest.
    """
    lineno = 0
    for chunk in handle:
        for raw in chunk.splitlines():
            lineno += 1
            try:
                tokens = raw.decode("utf-8").split()
            except UnicodeDecodeError as exc:
                raise FormatError(f"line {lineno}: not UTF-8 ({exc.reason})") from None
            if tokens:
                yield lineno, tokens


def _row(lineno: int, tokens: list[str], columns) -> list[float]:
    """The given token columns of the record at `lineno` as floats.

    Six columns are a point and its normal.  A record too short for
    `columns`, a non-numeric token, a nan/inf or an all-zero normal raises
    FormatError naming the line, checked in that order.
    """
    if len(tokens) <= max(columns):
        raise FormatError(f"line {lineno}: expected at least {max(columns) + 1} fields, "
                          f"got {len(tokens)}")
    try:
        values = [float(tokens[c]) for c in columns]
    except ValueError as exc:
        raise FormatError(f"line {lineno}: non-numeric token ({exc})") from None
    if not all(map(math.isfinite, values)):
        raise FormatError(f"line {lineno}: non-finite value")
    if len(values) == 6 and not any(values[3:]):
        raise FormatError(f"line {lineno}: zero-length normal")
    return values


@contextlib.contextmanager
def _naming(path):
    """Prefix `path` to the message of a FormatError, CheckpointError or GeometryError inside."""
    try:
        yield
    except (FormatError, CheckpointError, GeometryError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def vertex_normals(mesh: TriangleMesh) -> np.ndarray:
    """Area-weighted average of incident triangle normals, normalized.

    Raw cross products carry the 2*area factor, so summing them per vertex
    is the area weighting.  Vertices whose sum is all zero (no incident
    faces, or faces that cancel) get +z.  `_face_cross` scales the vertices
    by a power of two first, so the normals do not depend on the mesh's
    scale.  A sum small enough that its squared length underflows keeps its
    direction through `_unit_rows`.
    """
    v, t = mesh.vertices, mesh.triangles
    cross = _face_cross(v, t)
    acc = np.zeros_like(v)
    for col in range(3):
        np.add.at(acc, t[:, col], cross)
    acc[~acc.any(axis=1)] = (0.0, 0.0, 1.0)
    return _unit_rows(acc)


def _loadtxt(source, dtype, widths) -> np.ndarray | None:
    """The rows of `source` parsed by numpy's C reader, or None if they are not clean.

    `source` is a text handle or a list of lines; blank lines hold no row.
    Its number parsers give what float() and int() give.  None (the record
    scanner then decides) covers what it rejects and float() or int() may
    accept, such as ``1_0`` or non-ASCII digits, bytes that are not UTF-8, a
    column count not in `widths` (mixed counts, or no rows) and non-finite
    values.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            values = np.loadtxt(source, dtype=dtype, comments=None, ndmin=2)
        except ValueError:
            return None
    if values.shape[1] not in widths or not np.isfinite(values).all():
        return None
    return values


def _scan_xyz(path) -> np.ndarray:
    """The float rows of an .xyz file read record by record.

    A FormatError names the first bad line: a column count that is not 3
    or 6 or not the first line's, a non-numeric token, a non-finite value
    or an all-zero normal, checked in that order.
    """
    arity, values = 3, []
    with open(path, "rb") as handle:
        for lineno, tokens in _records(handle):
            if len(tokens) not in (3, 6):
                raise FormatError(f"line {lineno}: expected 3 or 6 columns, got {len(tokens)}")
            if values and len(tokens) != arity:
                raise FormatError(
                    f"line {lineno}: mixed column counts ({len(tokens)} after {arity})"
                )
            arity = len(tokens)
            values += _row(lineno, tokens, range(arity))
    return np.array(values, dtype=np.float64).reshape(-1, arity)


def read_xyz(path: str | os.PathLike) -> PointCloud:
    """Read an .xyz file: 3 columns (points) or 6 (points + normals).

    Normals are normalized on load.  Mixed arity, non-numeric tokens,
    non-finite values or zero-length normals raise FormatError citing the
    path and the 1-based number of the first bad line.  Clean files are
    parsed in C; any other file goes through the record scanner, which gives
    the values float() gives or the error naming the line.
    """
    with _naming(path):
        # opened here: given a path, numpy would also try a compressed sibling
        # (x.xyz.gz) of a missing file, or fetch a URL
        with open(path, encoding="utf-8") as handle:
            values = _loadtxt(handle, np.float64, (3, 6))
        # the scanner also names the line of an all-zero normal
        if values is None or (values.shape[1] == 6 and not values[:, 3:].any(axis=1).all()):
            values = _scan_xyz(path)
        normals = None
        if values.shape[1] == 6:
            normals = _unit_rows(values[:, 3:])
    return PointCloud(values[:, :3], normals)


_WRITE_BLOCK_ROWS = 4096  # rows formatted by one %-operation in _xyz_blocks


def _xyz_blocks(rows: np.ndarray, tails: list[str] | None = None):
    """Yield the .xyz lines of a float array, _WRITE_BLOCK_ROWS rows per string.

    A line is its row's values by repr (the shortest decimal that
    round-trips exactly, which keeps fixtures diffable and the round trip
    lossless), joined by spaces, then a space and the row's entry of `tails`
    when given.  A block is formatted by one %-format, whose %r is repr.
    """
    line = " ".join(["%r"] * rows.shape[1] + ["%s"] * (tails is not None)) + "\n"
    for start in range(0, len(rows), _WRITE_BLOCK_ROWS):
        block = rows[start:start + _WRITE_BLOCK_ROWS]
        yield (line * len(block)) % tuple(
            block.ravel().tolist() if tails is None else itertools.chain.from_iterable(
                zip(*block.T.tolist(), tails[start:start + _WRITE_BLOCK_ROWS])))


def _write_rows(path, rows: np.ndarray, tails: list[str] | None = None) -> None:
    """Write the `_xyz_blocks` lines of `rows` and `tails` to an .xyz file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_xyz_blocks(rows, tails))


def write_xyz(cloud: PointCloud, path: str | os.PathLike) -> None:
    """Write a cloud as .xyz, values by repr (`_xyz_blocks`); 6 columns with normals."""
    _write_rows(path, cloud.points if cloud.normals is None
                else np.hstack([cloud.points, cloud.normals]))


def _fan(indices: list[int], lineno: int) -> list[tuple[int, int, int]]:
    if len(indices) < 3:
        raise FormatError(f"line {lineno}: face with {len(indices)} vertices")
    if len(indices) == 3:
        fan = [tuple(indices)]
    else:
        fan = [(indices[0], indices[i], indices[i + 1]) for i in range(1, len(indices) - 1)]
    if not all(i != j != k != i for i, j, k in fan):
        raise FormatError(f"line {lineno}: triangle repeats a vertex index")
    return fan


#: every byte a clean OBJ file holds: tags, decimal numbers, spaces and line ends
_CLEAN_OBJ_BYTES = b"vnf 0123456789+-.eE\r\n"


def _parse_clean_obj(data: bytes):
    """(vertices, vertex normals, 0-based faces) of OBJ bytes parsed in C, or None.

    The C path takes only clean files: bytes of _CLEAN_OBJ_BYTES whose
    non-blank lines are each ``v x y z``, ``vn x y z`` or ``f a b c`` with one
    space after the tag, every vertex before the first face, no ``vn`` all
    zeros, and each face's indices positive, distinct and at most the vertex
    count.  Any other file gives None and is left to the record scanner; on a
    clean file both give the same arrays.
    """
    if data.translate(None, _CLEAN_OBJ_BYTES):
        return None
    rows = {"v": [], "vn": [], "f": []}
    for line in data.decode("ascii").splitlines():
        if line:
            tag, _, rest = line.partition(" ")
            group = rows.get(tag)
            if group is None or (tag == "v" and rows["f"]):
                return None
            group.append(rest)
    arrays = []
    for tag, dtype in (("v", np.float64), ("vn", np.float64), ("f", np.int64)):
        lines = rows[tag]
        values = _loadtxt(lines, dtype, (3,)) if lines else np.empty((0, 3), dtype)
        # a line that is only its tag and spaces is a blank line to numpy
        if values is None or len(values) != len(lines):
            return None
        arrays.append(values)
    vertices, normals, faces = arrays
    if not normals.any(axis=1).all():
        return None
    if faces.size and not (faces.min() >= 1 and faces.max() <= len(vertices)
                           and not _repeats_an_index(faces).any()):
        return None
    return vertices, normals, faces - 1


def _named_normals(vnormals: list, vertex_count: int, named: list,
                   partial: bool) -> np.ndarray | list:
    """The ``vn`` row each vertex's face corners name, or [] if that is not one per vertex.

    `named` holds (line number, ``vn`` count before it, vertex indices, ``vn``
    tokens) of each face naming a normal.  An index resolves like a vertex
    index, against the ``vn`` records before its face; one that is not an
    integer or out of range raises FormatError naming its line.  A corner
    naming no normal (`partial`), a vertex in no face or one named with two
    different normals gives [], and the mesh its computed normals.
    """
    corners, picks = [], []
    for lineno, count, idx, tokens in named:
        for tok in filter(None, tokens):
            try:
                j = int(tok)
            except ValueError:
                raise FormatError(f"line {lineno}: bad normal index {tok!r}") from None
            j = j - 1 if j > 0 else count + j
            if not 0 <= j < count:
                raise FormatError(f"line {lineno}: normal index {tok} out of range")
            picks.append(j)
        corners += idx
    if partial:
        return []
    rows = np.asarray(vnormals, dtype=np.float64)[picks]
    out = np.zeros((vertex_count, 3))
    out[corners] = rows
    if len(np.unique(corners)) < vertex_count or (out[corners] != rows).any():
        return []
    return out


def _scan_obj(data: bytes):
    """(vertex, vertex normal, 0-based face) rows of OBJ bytes read record by record.

    Polygons are fan-triangulated.  A FormatError names the first bad line,
    but a bad ``vn`` index of a face is found after the scan.  The normal rows
    are the ``vn`` records in file order, or, when the file has some and its
    faces name ``vn`` indices, the `_named_normals` of its vertices.
    """
    verts, vnormals = [], []
    faces: list[tuple[int, int, int]] = []
    named, partial = [], False
    for lineno, tokens in _records([data]):
        tag = tokens[0]
        if tag == "v":
            verts.append(_row(lineno, tokens, (1, 2, 3)))
        elif tag == "vn":
            vnormals.append(_row(lineno, tokens, (1, 2, 3)))
            if not any(vnormals[-1]):
                raise FormatError(f"line {lineno}: zero-length normal")
        elif tag == "f":
            idx, normal_tokens = [], []
            for tok in tokens[1:]:
                head, *rest = tok.split("/")
                try:
                    i = int(head)
                except ValueError:
                    raise FormatError(f"line {lineno}: bad face index {head!r}") from None
                # OBJ is 1-based; negative indices count from the end
                i = i - 1 if i > 0 else len(verts) + i
                if not 0 <= i < len(verts):
                    raise FormatError(f"line {lineno}: face index {head} out of range")
                idx.append(i)
                normal_tokens.append(rest[1] if len(rest) > 1 else "")
            faces.extend(_fan(idx, lineno))
            if any(normal_tokens):
                named.append((lineno, len(vnormals), idx, normal_tokens))
            partial |= not all(normal_tokens)
    if vnormals and named:
        vnormals = _named_normals(vnormals, len(verts), named, partial)
    return verts, vnormals, faces


def _read_obj(path) -> TriangleMesh:
    with open(path, "rb") as handle:
        data = handle.read()
    parsed = _parse_clean_obj(data)
    verts, vnormals, faces = _scan_obj(data) if parsed is None else parsed
    normals = None
    if len(vnormals) == len(verts) and len(verts):
        normals = _unit_rows(np.asarray(vnormals, dtype=np.float64))
    return TriangleMesh(verts, faces, normals)


def _read_ply(path) -> TriangleMesh:
    with open(path, "rb") as handle:
        records = _records(handle)
        if next(records, None) != (1, ["ply"]):
            raise FormatError("not a PLY file (missing 'ply' header)")
        elements: list[tuple[str, int, list[str]]] = []  # (name, count, properties)
        for lineno, tokens in records:
            if tokens[0] == "format":
                if tokens[1:2] != ["ascii"]:
                    raise UnsupportedFormatError(
                        f"line {lineno}: unsupported PLY format {' '.join(tokens[1:])!r}")
            elif tokens[0] == "element":
                if len(tokens) < 3 or not tokens[2].isdecimal():
                    raise FormatError(f"line {lineno}: expected 'element <name> <count>'")
                elements.append((tokens[1], int(tokens[2]), []))
            elif tokens[0] == "property" and elements:
                name, _, props = elements[-1]
                # a list's row holds its count and entries: the columns after it would
                # shift, and a face row is read as its index list from the first column
                if tokens[1:2] == ["list"] and name == "vertex":
                    raise FormatError(f"line {lineno}: list property in the vertex element")
                if tokens[1:2] != ["list"] and name == "face" and not props:
                    raise FormatError(f"line {lineno}: face property before the index list")
                props.append(tokens[-1])
            elif tokens[0] == "end_header":
                break
        else:
            raise FormatError("PLY header is missing end_header")
        body = list(records)

    declared = sum(count for _, count, _ in elements)
    if len(body) < declared:
        raise FormatError(f"PLY body has {len(body)} rows, header declares {declared}")
    last = {name: i for i, (name, _, _) in enumerate(elements)}
    _, n_vertex, vertex_props = elements[last["vertex"]] if "vertex" in last else ("", 0, [])
    for name in ("x", "y", "z"):
        if name not in vertex_props:
            raise FormatError(f"PLY vertex element lacks property {name!r}")
    names = ("x", "y", "z", "nx", "ny", "nz")
    if not all(n in vertex_props for n in names[3:]):
        names = names[:3]
    columns = [vertex_props.index(n) for n in names]
    rows: list[float] = []
    faces: list[tuple[int, int, int]] = []
    # each element's rows follow in header order, which is file order; rows of
    # other elements, and of all but the last element of a name, are skipped
    owner = [i for i, (_, count, _) in enumerate(elements) for _ in range(count)]
    for i, (lineno, tokens) in zip(owner, body):
        if i == last["vertex"]:
            rows += _row(lineno, tokens, columns)
        elif i == last.get("face"):
            try:
                count = int(tokens[0])
                idx = [int(t) for t in tokens[1:1 + count]]
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer face entry") from None
            if len(idx) != count:
                raise FormatError(f"line {lineno}: face declares {count} indices, has {len(idx)}")
            if any(not 0 <= j < n_vertex for j in idx):
                raise FormatError(f"line {lineno}: face index out of range")
            faces.extend(_fan(idx, lineno))
    values = np.array(rows, dtype=np.float64).reshape(-1, len(names))
    normals = _unit_rows(values[:, 3:]) if len(names) == 6 else None
    return TriangleMesh(values[:, :3], np.asarray(faces, dtype=np.int64).reshape(-1, 3), normals)


def read_mesh(path: str | os.PathLike) -> TriangleMesh:
    """Read an OBJ or ASCII-PLY mesh.

    Vertex normals are computed (area-weighted) when the file has none, or
    when an OBJ's faces name ``vn`` indices that do not give each vertex one
    normal (`_named_normals`).
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
