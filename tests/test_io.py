import pathlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pugeo import PointCloud, read_mesh, read_xyz, write_mesh, write_xyz
from pugeo.errors import FormatError, UnsupportedFormatError
from pugeo.io import TriangleMesh, vertex_normals

from helpers import cube_mesh, ply_face_flags

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_read_xyz_three_columns(tmp_path):
    path = tmp_path / "a.xyz"
    path.write_text("0 0 0\n")
    cloud = read_xyz(path)
    assert len(cloud) == 1
    assert cloud.normals is None
    np.testing.assert_allclose(cloud.points[0], [0, 0, 0])


def test_read_xyz_normalizes_normals(tmp_path):
    path = tmp_path / "a.xyz"
    path.write_text("1 2 3 0 0 2\n")
    cloud = read_xyz(path)
    np.testing.assert_allclose(cloud.points[0], [1, 2, 3])
    np.testing.assert_allclose(cloud.normals[0], [0, 0, 1])


def test_read_xyz_bad_arity_cites_line(tmp_path):
    path = tmp_path / "a.xyz"
    path.write_text("1 2\n")
    with pytest.raises(FormatError, match="line 1"):
        read_xyz(path)


def test_read_xyz_mixed_columns(tmp_path):
    path = tmp_path / "a.xyz"
    path.write_text("1 2 3\n1 2 3 0 0 1\n")
    with pytest.raises(FormatError, match="line 2"):
        read_xyz(path)


def test_read_xyz_non_numeric_cites_line(tmp_path):
    path = tmp_path / "a.xyz"
    path.write_text("1 2 3\n1 x 3\n")
    with pytest.raises(FormatError, match="line 2"):
        read_xyz(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_read_xyz_non_finite_cites_line(tmp_path, token):
    path = tmp_path / "a.xyz"
    path.write_text(f"1 2 3\n\n1 {token} 3\n")
    with pytest.raises(FormatError, match="line 3: non-finite"):
        read_xyz(path)


@pytest.mark.parametrize("normal,expected", [
    ("1e200 0 0", [1, 0, 0]),          # squared length overflows
    ("1e-170 0 0", [1, 0, 0]),         # squared length underflows to 0
    ("0 -1e-160 0", [0, -1, 0]),       # squared length is subnormal
    ("1e308 0 1e308", [0.5 ** 0.5, 0, 0.5 ** 0.5]),
])
def test_read_xyz_normals_outside_squared_range(tmp_path, normal, expected):
    path = tmp_path / "a.xyz"
    path.write_text(f"1 2 3 0 0 1\n1 2 3 {normal}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cloud = read_xyz(path)
    np.testing.assert_allclose(cloud.normals, [[0, 0, 1], expected], rtol=0, atol=1e-15)


def test_read_xyz_zero_normal_cites_line(tmp_path):
    path = tmp_path / "a.xyz"
    path.write_text("0 0 0 0 0 1\n0 0 0 0 0 0\n")
    with pytest.raises(FormatError, match="a.xyz: line 2: zero-length normal"):
        read_xyz(path)


def test_read_xyz_zero_normal_after_blank_lines_cites_its_line(tmp_path):
    path = tmp_path / "a.xyz"
    path.write_bytes(b"\n0 0 0 0 0 1\r\n \n\r0 0 0 -0 0 0\n")
    with pytest.raises(FormatError, match="a.xyz: line 5: zero-length normal"):
        read_xyz(path)


def _mesh_with_normals(path, normals):
    """A one-triangle OBJ or PLY at `path` whose vertices carry `normals` (text rows)."""
    vertices = ["0 0 0", "1 0 0", "0 1 0"]
    if path.suffix == ".obj":
        rows = [f"v {v}" for v in vertices] + [f"vn {n}" for n in normals] + ["f 1 2 3"]
    else:
        rows = ["ply", "format ascii 1.0", "element vertex 3",
                *(f"property double {name}" for name in ("x", "y", "z", "nx", "ny", "nz")),
                "element face 1", "property list uchar int vertex_indices", "end_header",
                *(f"{v} {n}" for v, n in zip(vertices, normals)), "3 0 1 2"]
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("name", ["m.obj", "m.ply"])
@pytest.mark.parametrize("normal,expected", [
    ("1e200 0 0", [1, 0, 0]),
    ("1e-170 0 0", [1, 0, 0]),
    ("0 -1e-160 0", [0, -1, 0]),
    ("1e308 0 1e308", [0.5 ** 0.5, 0, 0.5 ** 0.5]),
])
def test_read_mesh_normals_outside_squared_range(tmp_path, name, normal, expected):
    path = _mesh_with_normals(tmp_path / name, ["0 0 1", normal, "0 0 2"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh = read_mesh(path)
    np.testing.assert_allclose(mesh.normals, [[0, 0, 1], expected, [0, 0, 1]],
                               rtol=0, atol=1e-15)


_NORMAL = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3).filter(any)


@settings(max_examples=100, deadline=None)
@given(normals=st.lists(_NORMAL, min_size=3, max_size=3))
def test_one_normal_rule_for_every_reader_property(normals, tmp_path_factory):
    # the same normal text gives the same unit normals, bit for bit, from
    # .xyz columns 4-6, OBJ `vn` and PLY `nx ny nz`
    text = [" ".join(map(repr, normal)) for normal in normals]
    base = tmp_path_factory.getbasetemp()
    (base / "n.xyz").write_text("".join(f"{i} 0 0 {row}\n" for i, row in enumerate(text)))
    expected = read_xyz(base / "n.xyz").normals
    for name in ("n.obj", "n.ply"):
        assert read_mesh(_mesh_with_normals(base / name, text)).normals.tobytes() == (
            expected.tobytes()), name


@pytest.mark.parametrize("name,normals,line", [
    ("m.obj", ["0 0 1", "0 0 0", "0 0 1"], 5),     # clean: the C path hands it to the scanner
    ("m.obj", ["0 0 1", "0 -0 0", "0\t0 1"], 5),
    ("m.ply", ["0 0 1", "0 0 1", "-0 0 0"], 15),
])
def test_read_mesh_zero_normal_cites_line(tmp_path, name, normals, line):
    path = _mesh_with_normals(tmp_path / name, normals)
    message = f"{path}: line {line}: zero-length normal"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read_mesh(path)


def test_read_xyz_peak_memory_stays_near_its_arrays(tmp_path):
    rng = np.random.default_rng(0)
    normals = rng.normal(size=(20000, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    path = tmp_path / "a.xyz"
    write_xyz(PointCloud(rng.normal(size=(20000, 3)), normals), path)
    tracemalloc.start()
    try:
        cloud = read_xyz(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a list of token lists per record peaked near 18x the arrays
    assert peak < 5 * (cloud.points.nbytes + cloud.normals.nbytes)


def test_write_xyz_single_point(tmp_path):
    path = tmp_path / "a.xyz"
    write_xyz(PointCloud(np.array([[1.5, -2.0, 3.25]])), path)
    assert len(path.read_text().strip().split("\n")) == 1
    assert len(path.read_text().split()) == 3


def test_write_xyz_with_normals_six_columns(tmp_path):
    path = tmp_path / "a.xyz"
    write_xyz(PointCloud(np.zeros((2, 3)), np.tile([0.0, 0.0, 1.0], (2, 1))), path)
    for line in path.read_text().strip().split("\n"):
        assert len(line.split()) == 6


def test_xyz_roundtrip_random_points(tmp_path):
    rng = np.random.default_rng(42)
    pts = rng.uniform(-10, 10, size=(100, 3))
    normals = rng.normal(size=(100, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    path = tmp_path / "a.xyz"
    write_xyz(PointCloud(pts, normals), path)
    back = read_xyz(path)
    assert np.abs(back.points - pts).max() < 1e-6
    assert np.abs(back.normals - normals).max() < 1e-6


def test_cloud_normal_count_mismatch():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 3)), np.array([[0.0, 0.0, 1.0]]))


def test_cloud_rejects_non_unit_normals():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((1, 3)), np.array([[0.0, 0.0, 2.0]]))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_cloud_rejects_non_finite_normals(value):
    # a NaN length is not within the tolerance of 1, though it is not beyond it either
    normals = np.array([[0.0, 0.0, 1.0], [value, 0.0, 0.0]])
    with pytest.raises(ValueError, match=r"^normals must be unit length \(row 2 is not finite\)$"):
        PointCloud(np.zeros((2, 3)), normals)


def test_read_obj_basic(tmp_path):
    path = tmp_path / "m.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    mesh = read_mesh(path)
    assert len(mesh.triangles) == 1
    assert mesh.normals is not None
    np.testing.assert_allclose(np.abs(mesh.normals[:, 2]), 1.0)


def test_read_obj_quad_fan(tmp_path):
    path = tmp_path / "m.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    mesh = read_mesh(path)
    assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]


def test_read_obj_index_out_of_range(tmp_path):
    path = tmp_path / "m.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 5\n")
    with pytest.raises(FormatError):
        read_mesh(path)


_OBJ_TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 1 0 0\nvn 0 1 0\nvn 0 0 1\n"


def test_read_obj_takes_the_normals_its_faces_name(tmp_path):
    path = tmp_path / "m.obj"
    path.write_text(_OBJ_TRIANGLE + "f 1//3 2//3 3//3\n")
    assert read_mesh(path).normals.tolist() == [[0.0, 0.0, 1.0]] * 3


def test_read_obj_named_normals_of_a_permuted_list_are_the_fixtures(tmp_path):
    lines = (FIXTURES / "icosphere.obj").read_text().splitlines()
    verts = [line for line in lines if line.startswith("v ")]
    normals = [line for line in lines if line.startswith("vn ")]
    faces = [line.split()[1:] for line in lines if line.startswith("f ")]
    order = np.random.default_rng(0).permutation(len(normals))
    slot = np.argsort(order)  # vertex a's normal is record slot[a] of the permuted list
    path = tmp_path / "m.obj"
    path.write_text("\n".join(verts + [normals[i] for i in order] + [
        "f " + " ".join(f"{a}//{slot[int(a) - 1] + 1}" for a in face) for face in faces]) + "\n")
    want = read_mesh(FIXTURES / "icosphere.obj")
    got = read_mesh(path)
    assert np.array_equal(got.triangles, want.triangles)
    assert got.normals.tobytes() == want.normals.tobytes()


def test_read_obj_split_normals_are_computed(tmp_path):
    # each quad of the cube names its own four records: three normals meet at every vertex
    cube = cube_mesh()
    records, faces = [], []
    for quad in cube.triangles.reshape(6, 2, 3):
        corners = list(dict.fromkeys(quad.ravel().tolist()))
        first = len(records) + 1
        a, b, c = cube.vertices[quad[0]]
        records += [np.cross(b - a, c - a).tolist()] * 4
        faces += ["f " + " ".join(f"{v + 1}//{first + corners.index(v)}" for v in tri)
                  for tri in quad.tolist()]
    assert len(records) == 24
    path = tmp_path / "m.obj"
    path.write_text("".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in cube.vertices.tolist())
                    + "".join(f"vn {x!r} {y!r} {z!r}\n" for x, y, z in records)
                    + "\n".join(faces) + "\n")
    assert np.array_equal(read_mesh(path).normals, vertex_normals(cube))


@pytest.mark.parametrize("text", [_OBJ_TRIANGLE + "f 1//1 2//1 3\n",
                                  _OBJ_TRIANGLE + "v 5 5 5\nf 1//1 2//1 3//1\n"],
                         ids=["partial", "vertex_in_no_face"])
def test_read_obj_normals_not_named_for_every_vertex_are_computed(text, tmp_path):
    path = tmp_path / "m.obj"
    path.write_text(text)
    mesh = read_mesh(path)
    assert np.array_equal(mesh.normals, vertex_normals(mesh))


@pytest.mark.parametrize("face,message", [("f 1//9 2//3 3//3", "normal index 9 out of range"),
                                          ("f 1//3 2//x 3//3", "bad normal index 'x'")])
def test_read_obj_bad_normal_index_names_its_line(face, message, tmp_path):
    path = tmp_path / "m.obj"
    path.write_text(_OBJ_TRIANGLE + "# a comment\n" + face + "\n")
    with pytest.raises(FormatError, match=f"m.obj: line 8: {message}$"):
        read_mesh(path)


def test_read_ply_ascii(tmp_path):
    path = tmp_path / "m.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
        "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    mesh = read_mesh(path)
    assert len(mesh.vertices) == 3
    assert len(mesh.triangles) == 1


_SNIFF_MESHES = {
    ".obj": "v 0 0 0\nv 1 0 0\nv 1 1 0.5\nv 0 1 0\nvn 0 0 2\nvn 0 0 1\nvn 0 1 1\nvn 1 0 1\n"
            "f 1 2 3 4\n",
    ".ply": "ply\nformat ascii 1.0\nelement vertex 4\nproperty float x\nproperty float y\n"
            "property float z\nelement face 2\nproperty list uchar int vertex_indices\n"
            "end_header\n0 0 0\n1 0 0\n1 1 0.5\n0 1 0\n3 0 1 2\n3 0 2 3\n",
}


@pytest.mark.parametrize("ext", list(_SNIFF_MESHES))
def test_read_mesh_sniffs_other_extensions(tmp_path, ext):
    # a path ending in neither .obj nor .ply is read as PLY when it starts
    # with "ply", else as OBJ
    named, other = tmp_path / f"m{ext}", tmp_path / "x.mesh"
    for path in (named, other):
        path.write_text(_SNIFF_MESHES[ext])
    expected, sniffed = read_mesh(named), read_mesh(other)
    for field in ("vertices", "triangles", "normals"):
        assert np.array_equal(getattr(sniffed, field), getattr(expected, field))
    assert len(sniffed.triangles) == 2


_PLY_VERTEX = "element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
_PLY_FACE = "element face 1\nproperty list uchar int vertex_indices\n"
_PLY_EDGE = "element edge 2\nproperty int vertex1\nproperty int vertex2\n"


@pytest.mark.parametrize("elements,rows", [
    (_PLY_FACE + _PLY_VERTEX, "3 0 1 2\n0 0 0\n1 0 0\n0 1 0\n"),
    (_PLY_VERTEX + _PLY_EDGE + _PLY_FACE, "0 0 0\n1 0 0\n0 1 0\n0 1\n1 2\n3 0 1 2\n"),
], ids=["face_before_vertex", "edge_between_vertex_and_face"])
def test_read_ply_elements_in_header_order(tmp_path, elements, rows):
    path = tmp_path / "m.ply"
    path.write_text("ply\nformat ascii 1.0\n" + elements + "end_header\n" + rows)
    mesh = read_mesh(path)
    assert mesh.vertices.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert mesh.triangles.tolist() == [[0, 1, 2]]


@pytest.mark.parametrize("position", [0, 3], ids=["before_xyz", "after_xyz"])
def test_read_ply_list_property_in_vertex_element_cites_line(tmp_path, position):
    # its rows would otherwise be read as if the list were one column: x, y
    # and z shift onto the list's entries without an error
    props = ["property float x", "property float y", "property float z"]
    props.insert(position, "property list uchar float extra")
    rows = (["2 9 9 0 0 0", "2 9 9 1 0 0", "2 9 9 0 1 0"] if position == 0
            else ["0 0 0 2 9 9", "1 0 0 2 9 9", "0 1 0 2 9 9"])
    path = tmp_path / "m.ply"
    path.write_text("\n".join(["ply", "format ascii 1.0", "element vertex 3", *props,
                               "element face 1", "property list uchar int vertex_indices",
                               "end_header", *rows, "3 0 1 2"]) + "\n")
    with pytest.raises(FormatError,
                       match=f"line {4 + position}: list property in the vertex element$"):
        read_mesh(path)


@pytest.mark.parametrize("flags_first", [True, False], ids=["flags_first", "flags_last"])
def test_read_ply_face_property_before_index_list_cites_line(tmp_path, flags_first):
    # a face row was read as its index list from the first column on: with
    # the flags first, "3 3 0 1 2" became triangle (3, 0, 1) without an error
    path, line = ply_face_flags(tmp_path / "m.ply", flags_first)
    if flags_first:
        with pytest.raises(FormatError, match=f"line {line}: face property before the index "
                                              f"list$"):
            read_mesh(path)
    else:
        assert read_mesh(path).triangles.tolist() == [[0, 1, 2], [1, 3, 2]]


def test_read_ply_counts_rows_of_every_element(tmp_path):
    path = tmp_path / "m.ply"
    path.write_text("ply\nformat ascii 1.0\n" + _PLY_VERTEX + _PLY_FACE + _PLY_EDGE
                    + "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n0 1\n")
    with pytest.raises(FormatError, match="PLY body has 5 rows, header declares 6"):
        read_mesh(path)


@pytest.mark.parametrize("text,message", [
    ("format ascii 1.0\n" + _PLY_VERTEX + "end_header\n0 0 0\n1 0 0\n0 1 0\n",
     "not a PLY file (missing 'ply' header)"),
    ("ply\nformat ascii 1.0\n" + _PLY_VERTEX + _PLY_FACE, "PLY header is missing end_header"),
    ("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
     + _PLY_FACE + "end_header\n0 0\n1 0\n0 1\n3 0 1 2\n",
     "PLY vertex element lacks property 'z'"),
], ids=["no_ply_line", "no_end_header", "vertex_without_z"])
def test_read_ply_header_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "m.ply"
    path.write_text(text)
    with pytest.raises(FormatError) as info:
        read_mesh(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("record,line", [("v 0 nan 0", 2), ("vn 0 0 inf", 5)])
def test_read_obj_non_finite_cites_line(tmp_path, record, line):
    path = tmp_path / "m.obj"
    rows = ["v 0 0 0", "v 1 0 0", "v 0 1 0", "vn 0 0 1", "vn 0 0 1", "vn 0 0 1", "f 1 2 3"]
    rows[line - 1] = record
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(FormatError, match=f"line {line}: non-finite"):
        read_mesh(path)


def test_read_ply_non_finite_cites_line(tmp_path):
    path = tmp_path / "m.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
        "0 0 0\n\n1 0 0\n0 NaN 0\n3 0 1 2\n")
    with pytest.raises(FormatError, match="line 13: non-finite"):
        read_mesh(path)


def test_read_ply_binary_rejected(tmp_path):
    path = tmp_path / "m.ply"
    path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
    with pytest.raises(UnsupportedFormatError):
        read_mesh(path)


def test_read_ply_binary_body_rejected(tmp_path):
    body = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype="<f4").tobytes()
    with pytest.raises(UnicodeDecodeError):
        body.decode("utf-8")  # the reader must reject the header before reaching it
    path = tmp_path / "m.ply"
    path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
                     b"property float x\nproperty float y\nproperty float z\nend_header\n"
                     + body)
    with pytest.raises(UnsupportedFormatError):
        read_mesh(path)


def test_mesh_roundtrip_obj(tmp_path):
    mesh = cube_mesh()
    path = tmp_path / "c.obj"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.abs(back.vertices - mesh.vertices).max() < 1e-6
    assert np.array_equal(back.triangles, mesh.triangles)


def test_vertex_normals_unit(tmp_path):
    mesh = cube_mesh()
    path = tmp_path / "c.obj"
    write_mesh(mesh, path)
    back = read_mesh(path)
    lengths = np.linalg.norm(back.normals, axis=1)
    np.testing.assert_allclose(lengths, 1.0, atol=1e-12)


@pytest.mark.parametrize("exponent", [600, -600, 1000, -1000])
def test_vertex_normals_do_not_depend_on_scale(exponent):
    mesh = cube_mesh()
    scaled = TriangleMesh(np.ldexp(mesh.vertices, exponent), mesh.triangles)
    with np.errstate(all="raise"):
        normals = vertex_normals(scaled)
    assert normals.tobytes() == vertex_normals(mesh).tobytes()


def test_vertex_normals_keep_the_direction_of_an_underflowing_sum():
    # the small triangle's cross product is subnormal, so its squared length
    # underflows to zero; its vertices still get its normal, not +z
    mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                         [0.5, 0, 0], [0.5, 1e-160, 0], [0.5, 0, 1e-160]],
                        [[0, 1, 2], [3, 4, 5]])
    normals = vertex_normals(mesh)
    assert np.array_equal(normals, [[0.0, 0, 1]] * 3 + [[1.0, 0, 0]] * 3)


def test_triangle_repeats_vertex_rejected():
    import pugeo

    with pytest.raises(FormatError):
        pugeo.TriangleMesh(np.eye(3), np.array([[0, 0, 1]]))
