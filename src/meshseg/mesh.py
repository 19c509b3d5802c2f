"""Triangle meshes: parsing, normals, per-cell features, labeled export.

Cells are triangular faces; cell index equals face order in the source
file so label files (one integer per line) stay aligned through load,
rigid transforms and export.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


class MeshFormatError(ValueError):
    """Unparseable or unsupported mesh file content."""


class LabelRangeError(ValueError):
    """A class id falls outside [0, C)."""


class DegenerateFaceWarning(UserWarning):
    """A zero-area face received the sentinel +z normal."""


# Distinct, high-contrast colors; index = class id, 0 is the background.
DEFAULT_PALETTE = (
    (160, 160, 160),
    (230, 60, 60),
    (60, 170, 60),
    (60, 90, 230),
    (230, 180, 40),
    (170, 60, 200),
    (40, 200, 200),
    (240, 120, 180),
    (120, 90, 40),
    (40, 120, 90),
)


def class_colors(num_classes):
    """A distinct color for each class id below `num_classes`, at most 4106:
    DEFAULT_PALETTE, then the 4096 colors whose channels are multiples of 17
    (none of DEFAULT_PALETTE's), in the scattered order i = 1597 j mod 4096."""
    if num_classes > len(DEFAULT_PALETTE) + 4096:
        raise LabelRangeError(f"no {num_classes} distinct colors")
    extra = []
    for j in range(num_classes - len(DEFAULT_PALETTE)):
        i = 1597 * j % 4096  # 1597 is odd, so j < 4096 visits each i once
        extra.append(((i >> 8) * 17, (i >> 4 & 15) * 17, (i & 15) * 17))
    return (DEFAULT_PALETTE + tuple(extra))[:num_classes]


@dataclass
class TriangleMesh:
    """Vertex positions, triangular faces, optional per-cell labels."""

    vertices: np.ndarray  # (V, 3) float64
    faces: np.ndarray  # (M, 3) int64
    labels: np.ndarray | None = None  # (M,) int64

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int64)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.faces.shape[0]

    def validate(self):
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshFormatError(f"vertices must be (V, 3), got {self.vertices.shape}")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshFormatError(f"faces must be (M, 3), got {self.faces.shape}")
        if not np.isfinite(self.vertices).all():
            raise MeshFormatError("non-finite vertex coordinate")
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= self.num_vertices):
            raise MeshFormatError("face references a vertex outside [0, V)")
        if self.faces.size:
            a, b, c = self.faces.T
            if ((a == b) | (b == c) | (a == c)).any():
                raise MeshFormatError("face repeats a vertex")
        if self.labels is not None and len(self.labels) != self.num_cells:
            raise MeshFormatError(
                f"{len(self.labels)} labels for {self.num_cells} cells"
            )
        return self


@dataclass
class CellFeatureMatrix:
    """Per-cell 24-D input features, split into coordinate and normal blocks.

    Row i of `coords` holds the three vertex positions of face i followed by
    its centroid (12 values); `normals` holds the three vertex normals
    followed by the face normal, in the same order.
    """

    coords: np.ndarray  # (M, 12)
    normals: np.ndarray  # (M, 12)

    @property
    def num_cells(self):
        return self.coords.shape[0]

    def as_array(self):
        """The full M x 24 network input: coords block then normals block."""
        return np.concatenate([self.coords, self.normals], axis=1)


# ---------------------------------------------------------------------------
# Parsing and writing
# ---------------------------------------------------------------------------

def load_mesh(path, labels_path=None):
    """Read an ascii obj or ply mesh; only triangular faces are accepted.

    Faces keep file order so that sibling label files stay aligned.  Any
    malformed content raises MeshFormatError naming the file and, where
    there is one, the line.
    """
    path = str(path)
    if path.endswith(".obj"):
        reader = _load_obj
    elif path.endswith(".ply"):
        reader = _load_ply
    else:
        raise MeshFormatError(f"unsupported mesh extension: {path}")
    try:
        mesh = reader(path)
    except OverflowError:
        raise MeshFormatError(f"{path}: a vertex index does not fit int64") from None
    if mesh.num_cells == 0:
        raise MeshFormatError(f"{path}: mesh has no faces")
    if labels_path is not None:
        mesh.labels = load_labels(labels_path)
    try:
        return mesh.validate()
    except MeshFormatError as exc:
        raise MeshFormatError(f"{path}: {exc}") from None


def read_lines(path, error):
    """The lines of the UTF-8 text file `path`, as str.splitlines() splits
    them: every text input is read here.

    A byte that does not decode raises `error`, the caller's exception
    class, as `path:line: not UTF-8 text`, with lines numbered from 1 as in
    the returned list.  An OSError passes through.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode().splitlines()
    except UnicodeDecodeError as exc:  # raw[:exc.start] decodes
        line = len((raw[:exc.start] + b".").decode().splitlines())
        raise error(f"{path}:{line}: not UTF-8 text") from None


def read_table(path, columns, error):
    """The rows of the tab-separated file `path` as tuples typed by
    `columns`, a tuple of (name, int | float | str) pairs.

    Blank lines, lines starting with `#` and the header (the names joined
    by tabs) are skipped.  Only spaces are stripped from a line's ends, so
    an empty first or last field still counts.  A row with the wrong field
    count, or a field its type cannot read, raises `error` as
    `path:line: ...`.
    """
    names = [name for name, _ in columns]
    header = "\t".join(names)
    rows = []
    for lineno, line in enumerate(read_lines(path, error), start=1):
        line = line.strip(" ")
        if not line or line.startswith("#") or line == header:
            continue
        fields = line.split("\t")
        if len(fields) != len(columns):
            raise error(f"{path}:{lineno}: expected {len(columns)} tab-separated "
                        f"fields ({', '.join(names)}), got {len(fields)}")
        row = []
        for (name, kind), text in zip(columns, fields):
            try:
                row.append(kind(text))
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise error(f"{path}:{lineno}: {name} {text!r} is not {what}") from None
        rows.append(tuple(row))
    return rows


def _load_obj(path):
    verts, vert_lines, faces = [], [], []
    try:
        for lineno, raw in enumerate(read_lines(path, MeshFormatError), start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            key = parts[0]
            if key == "v":
                if len(parts) < 4:
                    raise MeshFormatError(f"{path}:{lineno}: malformed vertex")
                try:
                    verts.append([float(p) for p in parts[1:4]])
                except ValueError:
                    raise MeshFormatError(
                        f"{path}:{lineno}: malformed vertex {raw!r}") from None
                vert_lines.append(lineno)
            elif key == "f":
                idx = parts[1:]
                if len(idx) != 3:
                    raise MeshFormatError(
                        f"{path}:{lineno}: face with {len(idx)} vertices; only triangles supported"
                    )
                try:
                    faces.append([int(tok.split("/")[0]) - 1 for tok in idx])
                except ValueError:
                    raise MeshFormatError(
                        f"{path}:{lineno}: malformed face {raw!r}") from None
    except MeshFormatError:
        _finite_vertices(path, verts, vert_lines)  # an earlier line's error wins
        raise
    return TriangleMesh(_finite_vertices(path, verts, vert_lines),
                        np.array(faces, dtype=np.int64).reshape(-1, 3))


def _finite_vertices(path, verts, lines):
    """The parsed vertices as a (V, 3) float64 array, checked once:
    MeshFormatError naming lines[i] of the first non-finite vertex i."""
    verts = np.array(verts, dtype=np.float64).reshape(-1, 3)
    bad = ~np.isfinite(verts).all(axis=1)
    if bad.any():
        raise MeshFormatError(f"{path}:{lines[bad.argmax()]}: non-finite coordinate")
    return verts


HEADER_FIELDS = {"format": 2, "element": 3, "property": 2}  # fewest words per line


def _load_ply(path):
    lines = read_lines(path, MeshFormatError)
    if not lines or lines[0].strip() != "ply":
        raise MeshFormatError(f"{path}: missing ply magic")

    n_vert = n_face = 0
    vert_props = []
    current = None
    body_start = None
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < HEADER_FIELDS.get(parts[0], 1) or (
                parts[0] == "element" and not parts[2].isdecimal()):
            raise MeshFormatError(f"{path}:{i}: malformed header line {line!r}")
        if parts[0] == "format":
            if parts[1] != "ascii":
                raise MeshFormatError(f"{path}:{i}: only ascii ply supported")
        elif parts[0] == "element":
            current = parts[1]
            if current == "vertex":
                n_vert = int(parts[2])
            elif current == "face":
                n_face = int(parts[2])
        elif parts[0] == "property":
            if current == "vertex":
                vert_props.append(parts[-1])
        elif parts[0] == "end_header":
            body_start = i
            break
    if body_start is None:
        raise MeshFormatError(f"{path}: unterminated ply header")
    if len(lines) < body_start + n_vert + n_face:
        raise MeshFormatError(
            f"{path}:{len(lines)}: file ends after {len(lines) - body_start} body lines; "
            f"the header declares {n_vert} vertices and {n_face} faces")

    try:
        xi, yi, zi = (vert_props.index(k) for k in ("x", "y", "z"))
    except ValueError:
        raise MeshFormatError(f"{path}: vertex element lacks x/y/z properties")

    verts = np.empty((n_vert, 3), dtype=np.float64)
    for v in range(n_vert):
        lineno = body_start + v + 1
        parts = lines[lineno - 1].split()
        try:
            verts[v] = [float(parts[xi]), float(parts[yi]), float(parts[zi])]
        except (ValueError, IndexError):
            raise MeshFormatError(
                f"{path}:{lineno}: malformed vertex {lines[lineno - 1]!r}") from None
    _finite_vertices(path, verts, range(body_start + 1, body_start + n_vert + 1))

    faces = np.empty((n_face, 3), dtype=np.int64)
    for f in range(n_face):
        lineno = body_start + n_vert + f + 1
        parts = lines[lineno - 1].split()
        try:
            count = int(parts[0])
            if count == 3:
                faces[f] = [int(parts[1]), int(parts[2]), int(parts[3])]
        except (ValueError, IndexError, OverflowError):
            raise MeshFormatError(
                f"{path}:{lineno}: malformed face {lines[lineno - 1]!r}") from None
        if count != 3:
            raise MeshFormatError(
                f"{path}:{lineno}: face with {count} vertices; only triangles supported"
            )
    return TriangleMesh(verts, faces)


def save_obj(mesh, path):
    """Write vertices and faces as ascii obj (floats keep full precision)."""
    with open(path, "w") as fh:
        for v in mesh.vertices:
            # python float repr is the shortest exact round-trip form
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def load_labels(path):
    """One integer class id per cell, whitespace separated, in face order."""
    labels = []
    for lineno, line in enumerate(read_lines(path, MeshFormatError), start=1):
        try:
            labels += [int(tok) for tok in line.split()]
        except ValueError:
            raise MeshFormatError(
                f"{path}:{lineno}: malformed label line {line!r}") from None
    try:
        return np.array(labels, dtype=np.int64)
    except OverflowError:
        raise MeshFormatError(f"{path}: a label does not fit int64") from None


def save_labels(labels, path):
    with open(path, "w") as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")


def export_colored_mesh(mesh, per_cell_class, palette, path):
    """Write an ascii ply with per-face red/green/blue from a class palette."""
    per_cell_class = np.asarray(per_cell_class, dtype=np.int64)
    palette = list(palette)
    if len(palette) == 0:
        raise LabelRangeError("empty palette")
    if per_cell_class.shape != (mesh.num_cells,):
        raise LabelRangeError(
            f"{per_cell_class.shape[0]} classes for {mesh.num_cells} cells"
        )
    if per_cell_class.min() < 0 or per_cell_class.max() >= len(palette):
        raise LabelRangeError(
            f"class {per_cell_class.max()} outside palette of {len(palette)} entries"
        )
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {mesh.num_vertices}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write(f"element face {mesh.num_cells}\n")
        fh.write("property list uchar int vertex_indices\n")
        fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        fh.write("end_header\n")
        for v in mesh.vertices:
            fh.write(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f, c in zip(mesh.faces, per_cell_class):
            r, g, b = palette[c]
            fh.write(f"3 {f[0]} {f[1]} {f[2]} {r} {g} {b}\n")


# ---------------------------------------------------------------------------
# Normals and features
# ---------------------------------------------------------------------------

def compute_normals(mesh):
    """Unit face normals (CCW cross product) and area-weighted vertex normals.

    Zero-area faces get a sentinel +z normal and a DegenerateFaceWarning.
    """
    v = mesh.vertices
    f = mesh.faces
    e1 = v[f[:, 1]] - v[f[:, 0]]
    e2 = v[f[:, 2]] - v[f[:, 0]]
    cross = np.cross(e1, e2)  # magnitude = 2 * area
    norms = np.linalg.norm(cross, axis=1)
    degenerate = norms < 1e-12
    if degenerate.any():
        for i in np.nonzero(degenerate)[0]:
            warnings.warn(
                f"face {i} has zero area; using +z normal", DegenerateFaceWarning
            )
    safe = np.where(degenerate, 1.0, norms)
    face_normals = cross / safe[:, None]
    face_normals[degenerate] = (0.0, 0.0, 1.0)

    # Area weighting falls out of accumulating the raw cross products.
    vertex_acc = np.zeros_like(v)
    for k in range(3):
        np.add.at(vertex_acc, f[:, k], cross)
    vnorms = np.linalg.norm(vertex_acc, axis=1)
    vdegen = vnorms < 1e-12
    vertex_normals = vertex_acc / np.where(vdegen, 1.0, vnorms)[:, None]
    vertex_normals[vdegen] = (0.0, 0.0, 1.0)
    return face_normals, vertex_normals


def build_cell_features(mesh, center=True):
    """Assemble the M x 24 feature matrix (coords block + normals block).

    With center=True all positions are shifted so the mean cell centroid
    lands at the origin; normals are unaffected by centering.
    """
    face_normals, vertex_normals = compute_normals(mesh)
    v, f = mesh.vertices, mesh.faces
    centroids = v[f].mean(axis=1)  # (M, 3)
    offset = centroids.mean(axis=0) if center else np.zeros(3)

    coords = np.concatenate(
        [v[f[:, 0]], v[f[:, 1]], v[f[:, 2]], centroids], axis=1
    ) - np.tile(offset, 4)
    normals = np.concatenate(
        [vertex_normals[f[:, 0]], vertex_normals[f[:, 1]], vertex_normals[f[:, 2]],
         face_normals],
        axis=1,
    )
    return CellFeatureMatrix(coords=coords, normals=normals)


def transform_mesh(mesh, rotation=None, translation=None, pivot=None):
    """Rigid transform returning a new mesh: rotate about pivot, then translate."""
    v = mesh.vertices
    if rotation is not None:
        pivot = np.zeros(3) if pivot is None else np.asarray(pivot, dtype=np.float64)
        v = (v - pivot) @ np.asarray(rotation, dtype=np.float64).T + pivot
    if translation is not None:
        v = v + np.asarray(translation, dtype=np.float64)
    return TriangleMesh(vertices=v, faces=mesh.faces.copy(),
                        labels=None if mesh.labels is None else mesh.labels.copy())


def cell_centroid_mean(mesh):
    """Mean of all cell centroids; the pivot used for centering."""
    return mesh.vertices[mesh.faces].mean(axis=1).mean(axis=0)
