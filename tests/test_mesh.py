import numpy as np
import pytest

from meshseg.mesh import (
    DEFAULT_PALETTE,
    DegenerateFaceWarning,
    LabelRangeError,
    MeshFormatError,
    TriangleMesh,
    build_cell_features,
    class_colors,
    compute_normals,
    export_colored_mesh,
    load_labels,
    load_mesh,
    save_labels,
    save_obj,
    transform_mesh,
)


def single_triangle():
    return TriangleMesh(
        vertices=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        faces=np.array([[0, 1, 2]]),
    )


def tetrahedron():
    # regular tetrahedron with outward-oriented faces
    v = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                  [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    f = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return TriangleMesh(vertices=v, faces=f)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_load_minimal_obj(tmp_path):
    p = tmp_path / "tri.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    mesh = load_mesh(p)
    assert mesh.num_vertices == 3 and mesh.num_cells == 1


def test_obj_quad_face_error_names_line(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(MeshFormatError) as exc:
        load_mesh(p)
    assert ":5" in str(exc.value)


def test_obj_non_finite_coordinate(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 nan\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(MeshFormatError) as exc:
        load_mesh(p)
    assert ":1" in str(exc.value)


def test_obj_non_finite_vertex_before_a_malformed_face_is_reported(tmp_path):
    # the earlier line's error wins, though the vertices are checked at once
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 inf 0\nv 0 1 0\nf 1 2 3\nf 1 2 x\n")
    with pytest.raises(MeshFormatError) as exc:
        load_mesh(p)
    assert f"{p}:2: non-finite coordinate" in str(exc.value)


def test_ply_non_finite_coordinate_names_its_line(tmp_path):
    p = tmp_path / "bad.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
        "0 0 0\n1 0 0\n0 nan 0\n3 0 1 2\n"
    )
    with pytest.raises(MeshFormatError) as exc:
        load_mesh(p)
    assert f"{p}:12: non-finite coordinate" in str(exc.value)


def test_obj_slash_indices(tmp_path):
    p = tmp_path / "t.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//1 2//1 3//1\n")
    mesh = load_mesh(p)
    assert mesh.faces.tolist() == [[0, 1, 2]]


def test_obj_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    mesh = TriangleMesh(
        vertices=rng.normal(size=(30, 3)) * 17.3,
        faces=np.array([[i, i + 1, i + 2] for i in range(28)]),
    )
    p = tmp_path / "rt.obj"
    save_obj(mesh, p)
    back = load_mesh(p)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


def test_labels_round_trip(tmp_path):
    p = tmp_path / "x.labels"
    save_labels(np.array([0, 3, 1, 2]), p)
    assert load_labels(p).tolist() == [0, 3, 1, 2]


def test_ply_quad_face_error(tmp_path):
    p = tmp_path / "q.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 4\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
        "0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    )
    with pytest.raises(MeshFormatError):
        load_mesh(p)


# ---------------------------------------------------------------------------
# normals
# ---------------------------------------------------------------------------

def test_face_normal_unit_right_triangle():
    fn, _ = compute_normals(single_triangle())
    assert np.allclose(fn[0], [0.0, 0.0, 1.0])


def test_vertex_normal_of_coplanar_faces():
    mesh = TriangleMesh(
        vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]]),
        faces=np.array([[0, 1, 2], [0, 2, 3]]),
    )
    _, vn = compute_normals(mesh)
    assert np.allclose(vn[0], [0, 0, 1])


def test_tetrahedron_vertex_normals_point_outward():
    # by symmetry the vertex normal lies on the centroid->vertex axis
    mesh = tetrahedron()
    _, vn = compute_normals(mesh)
    expected = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
    assert np.allclose(vn, expected, atol=1e-6)


def test_normals_unit_length_and_orientation_flip():
    rng = np.random.default_rng(3)
    mesh = TriangleMesh(
        vertices=rng.normal(size=(12, 3)),
        faces=np.array([[i, i + 1, i + 2] for i in range(10)]),
    )
    fn, vn = compute_normals(mesh)
    assert np.allclose(np.linalg.norm(fn, axis=1), 1.0, atol=1e-4)
    assert np.allclose(np.linalg.norm(vn, axis=1), 1.0, atol=1e-4)
    flipped = TriangleMesh(mesh.vertices, mesh.faces[:, [0, 2, 1]])
    fn2, _ = compute_normals(flipped)
    assert np.allclose(fn2, -fn, atol=1e-12)


def test_zero_area_face_warns_and_substitutes():
    mesh = TriangleMesh(
        vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [0.0, 1, 0]]),
        faces=np.array([[0, 1, 2], [0, 1, 3]]),  # first face is collinear
    )
    with pytest.warns(DegenerateFaceWarning):
        fn, _ = compute_normals(mesh)
    assert np.allclose(fn[0], [0, 0, 1])


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def test_feature_layout_uncentered():
    mesh = single_triangle()
    feats = build_cell_features(mesh, center=False)
    centroid = mesh.vertices.mean(axis=0)
    expected = np.concatenate([mesh.vertices.reshape(-1), centroid])
    assert np.allclose(feats.coords[0], expected)
    assert np.allclose(feats.normals[0, 9:], [0, 0, 1])
    assert feats.as_array().shape == (1, 24)


def test_centering_zeroes_mean_centroid():
    mesh = tetrahedron()
    feats = build_cell_features(TriangleMesh(mesh.vertices + 5.0, mesh.faces),
                                center=True)
    centroids = feats.coords[:, 9:]
    assert np.allclose(centroids.mean(axis=0), 0.0, atol=1e-6)


def test_translation_invariance_when_centered():
    rng = np.random.default_rng(9)
    mesh = TriangleMesh(rng.normal(size=(15, 3)) * 4,
                        np.array([[i, i + 1, i + 2] for i in range(13)]))
    a = build_cell_features(mesh, center=True)
    b = build_cell_features(transform_mesh(mesh, translation=[7.0, -3.0, 11.0]),
                            center=True)
    assert np.allclose(a.coords, b.coords, atol=1e-6)
    assert np.allclose(a.normals, b.normals, atol=1e-12)


def test_translation_equivariance_when_uncentered():
    rng = np.random.default_rng(10)
    mesh = TriangleMesh(rng.normal(size=(10, 3)),
                        np.array([[i, i + 1, i + 2] for i in range(8)]))
    t = np.array([1.5, 0.25, -2.0])
    a = build_cell_features(mesh, center=False)
    b = build_cell_features(transform_mesh(mesh, translation=t), center=False)
    assert np.allclose(b.coords, a.coords + np.tile(t, 4), atol=1e-9)
    assert np.allclose(b.normals, a.normals, atol=1e-12)


def test_rotation_equivariance_about_centroid():
    rng = np.random.default_rng(11)
    mesh = TriangleMesh(rng.normal(size=(20, 3)) * 3,
                        np.array([[i, i + 1, i + 2] for i in range(18)]))
    theta = 0.7
    rot = np.array([[np.cos(theta), 0, np.sin(theta)],
                    [0, 1, 0],
                    [-np.sin(theta), 0, np.cos(theta)]])
    a = build_cell_features(mesh, center=True)
    pivot = mesh.vertices[mesh.faces].mean(axis=1).mean(axis=0)
    b = build_cell_features(transform_mesh(mesh, rotation=rot, pivot=pivot),
                            center=True)
    for block, (got, want) in (("coords", (b.coords, a.coords)),
                               ("normals", (b.normals, a.normals))):
        for k in range(4):
            sl = slice(3 * k, 3 * k + 3)
            assert np.allclose(got[:, sl], want[:, sl] @ rot.T, atol=1e-5), block


# ---------------------------------------------------------------------------
# colored export
# ---------------------------------------------------------------------------

def test_export_single_face_color(tmp_path):
    p = tmp_path / "one.ply"
    export_colored_mesh(single_triangle(), [0], [(255, 0, 0)], p)
    face_line = p.read_text().splitlines()[-1]
    assert face_line == "3 0 1 2 255 0 0"


def test_export_reimport_recovers_labels(tmp_path):
    rng = np.random.default_rng(6)
    mesh = TriangleMesh(rng.normal(size=(30, 3)),
                        np.array([[i, i + 1, i + 2] for i in range(28)]))
    classes = rng.integers(0, len(DEFAULT_PALETTE), size=28)
    p = tmp_path / "colored.ply"
    export_colored_mesh(mesh, classes, DEFAULT_PALETTE, p)
    back = load_mesh(p)
    assert np.array_equal(back.faces, mesh.faces)
    assert np.array_equal(back.vertices, mesh.vertices)
    face_lines = p.read_text().splitlines()[-28:]
    assert face_lines == [f"3 {a} {b} {c} " + " ".join(map(str, DEFAULT_PALETTE[k]))
                          for (a, b, c), k in zip(mesh.faces, classes)]


def test_class_colors_are_distinct_and_start_with_the_default_palette():
    colors = class_colors(1024)
    assert colors[:len(DEFAULT_PALETTE)] == DEFAULT_PALETTE
    assert class_colors(3) == DEFAULT_PALETTE[:3]
    assert len(set(colors)) == 1024
    assert all(0 <= v <= 255 for rgb in colors for v in rgb)
    assert len(set(class_colors(len(DEFAULT_PALETTE) + 4096))) == len(DEFAULT_PALETTE) + 4096
    with pytest.raises(LabelRangeError):
        class_colors(len(DEFAULT_PALETTE) + 4097)


def test_export_errors():
    mesh = single_triangle()
    with pytest.raises(LabelRangeError):
        export_colored_mesh(mesh, [0], [], "/tmp/never.ply")
    with pytest.raises(LabelRangeError):
        export_colored_mesh(mesh, [3], [(1, 2, 3)], "/tmp/never.ply")
