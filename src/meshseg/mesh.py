"""Triangle meshes: parsing, normals, per-cell features, labeled export.

Cells are triangular faces; cell index equals face order in the source
file so label files (one integer per cell) stay aligned through load,
rigid transforms and export.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from itertools import chain

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

    def validate(self, face_at=lambda i: f"face {i}"):
        """Self, after checking shapes, values and labels; the first face that
        references a vertex outside [0, V) or repeats one is named by
        `face_at(index)` (a loader passes its `path:line`)."""
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshFormatError(f"vertices must be (V, 3), got {self.vertices.shape}")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshFormatError(f"faces must be (M, 3), got {self.faces.shape}")
        if not np.isfinite(self.vertices).all():
            raise MeshFormatError("non-finite vertex coordinate")
        f = self.faces
        outside = ((f < 0) | (f >= self.num_vertices)).any(axis=1)
        bad = np.flatnonzero(outside | (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2])
                             | (f[:, 0] == f[:, 2]))
        if bad.size:
            what = f"references a vertex outside [0, {self.num_vertices})" \
                if outside[bad[0]] else "repeats a vertex"
            raise MeshFormatError(f"{face_at(bad[0])}: face {what}")
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
    reader = {".obj": _load_obj, ".ply": _load_ply}.get(path[-4:])
    if reader is None:
        raise MeshFormatError(f"unsupported mesh extension: {path}")
    mesh, face_lines = reader(path)
    if mesh.num_cells == 0:
        raise MeshFormatError(f"{path}: mesh has no faces")
    mesh.validate(lambda i: f"{path}:{face_lines[i] + 1}")
    if labels_path is not None:
        labels = load_labels(labels_path)
        if len(labels) != mesh.num_cells:
            raise MeshFormatError(f"{labels_path}: {len(labels)} labels for the "
                                  f"{mesh.num_cells} cells of {path}")
        mesh.labels = labels
    return mesh


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


def replace_file(path, data):
    """Write the bytes `data` to `path` whole, as `<path>.tmp` renamed over it,
    so a kill leaves the old file or the new one.  A symlink's target is
    replaced; any other path that is not a regular file is written in place."""
    path = os.path.realpath(path) if os.path.islink(path) else path
    if os.path.lexists(path) and not os.path.isfile(path):  # a directory, FIFO or device
        with open(path, "wb") as fh:
            fh.write(data)
        return
    tmp = f"{path}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:  # a failed write or rename leaves no temp file
        os.remove(tmp)
        raise


def write_lines(path, lines):
    """Write each str of `lines`, then a newline, to `path` through replace_file."""
    replace_file(path, "".join(f"{line}\n" for line in lines).encode())


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
    lines = read_lines(path, MeshFormatError)
    split = [line.split() for line in lines]
    verts, faces = ([i for i, parts in enumerate(split) if parts[:1] == [key]] for key in "vf")
    return TriangleMesh(*_numbers(path, lines, split, (verts, (1, 2, 3), _OBJ_VERTEX),
                                  (faces, (1, 2, 3), _OBJ_FACE))), faces


# A kind of line: how its fields convert, the range of their values, its exact
# number of fields (None: any with the picked columns), and the messages of the
# _CHECKS it can fail: its number of fields, a field's text, a field's value.
_CHECKS = (IndexError, ValueError, OverflowError)
_FINITE, _INT64 = (-np.finfo(float).max, np.finfo(float).max), (-2 ** 63, 2 ** 63 - 1)
_BAD_VERTEX, _BAD_FACE = "malformed vertex {line!r}", "malformed face {line!r}"
_OBJ_VERTEX = (float, _FINITE, None, "malformed vertex", _BAD_VERTEX, "non-finite coordinate")
_OBJ_FACE = (lambda token: int(token.split("/")[0]) - 1, _INT64, 4,  # v, v/vt or v//vn
             "face with {n} vertices; only triangles supported", _BAD_FACE,
             "a vertex index does not fit int64")
_PLY_VERTEX = (float, _FINITE, None, _BAD_VERTEX, _BAD_VERTEX, "non-finite coordinate")
_PLY_COUNT = (int, (3, 3), None, _BAD_FACE, _BAD_FACE,
              "face with {values[0]} vertices; only triangles supported")
_PLY_FACE = (int, _INT64, None, _BAD_FACE, _BAD_FACE, _BAD_FACE)
_LABELS = (int, _INT64, None, None, "malformed label line {line!r}",
           "a label does not fit int64")


def _numbers(path, lines, split, *groups):
    """One array per (line indices, columns, kind) group: the fields in
    `columns` (None: all) of those lines of `split`, the split `lines`, read
    as `kind` says, as float64 or int64 with one row per line for `columns`.

    The first bad line in file order (a tie goes to the earlier group) raises
    MeshFormatError as `path:line: <message>`, where a message may name the
    {line}, its number {n} of fields after the first and its {values}.
    """
    arrays, errors = [], []
    for rank, (indices, columns, (convert, (low, high), count, *messages)) in enumerate(groups):
        # all lines at once; if that fails, one at a time to find the bad one
        for batch in chain([indices], ([i] for i in indices)):
            rows, values = [split[i] for i in batch], []
            try:
                if count is not None and set(map(len, rows)) - {count}:
                    raise IndexError
                fields = [t for parts in rows for t in parts] if columns is None else \
                    [parts[c] for parts in rows for c in columns]
                values = list(map(convert, fields))
                array = np.array(values, np.float64 if convert is float else np.int64)
                if not ((array >= low) & (array <= high)).all():
                    raise OverflowError
            except _CHECKS as exc:
                if batch is not indices:
                    message = messages[_CHECKS.index(type(exc))].format(
                        line=lines[batch[0]], n=len(rows[0]) - 1, values=values)
                    errors.append((batch[0], rank, f"{path}:{batch[0] + 1}: {message}"))
                    break
                continue
            if batch is indices:
                arrays.append(array if columns is None else array.reshape(-1, len(columns)))
                break
    if errors:
        raise MeshFormatError(min(errors)[2])
    return arrays


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

    body = range(body_start, body_start + n_vert + n_face)
    verts, _, faces = _numbers(path, lines, [line.split() for line in lines],
                               (body[:n_vert], (xi, yi, zi), _PLY_VERTEX),
                               (body[n_vert:], (0,), _PLY_COUNT),
                               (body[n_vert:], (1, 2, 3), _PLY_FACE))
    return TriangleMesh(verts, faces), body[n_vert:]


def save_obj(mesh, path):
    """Write vertices and faces as ascii obj (floats keep full precision)."""
    # float repr is the shortest exact round-trip form; tolist() rows format faster
    write_lines(path, chain((f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}"
                             for v in mesh.vertices.tolist()),
                            (f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}" for f in mesh.faces.tolist())))


def load_labels(path):
    """Integer class ids, whitespace separated, one per cell in face order."""
    lines = read_lines(path, MeshFormatError)
    return _numbers(path, lines, [line.split() for line in lines],
                    (range(len(lines)), None, _LABELS))[0]


def save_labels(labels, path):
    write_lines(path, (f"{int(v)}" for v in labels))


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
    header = ("ply\nformat ascii 1.0", f"element vertex {mesh.num_vertices}",
              "property float x\nproperty float y\nproperty float z",
              f"element face {mesh.num_cells}", "property list uchar int vertex_indices",
              "property uchar red\nproperty uchar green\nproperty uchar blue", "end_header")
    colours = (palette[c] for c in per_cell_class.tolist())
    write_lines(path, chain(header, (f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}"
                                     for v in mesh.vertices.tolist()),
                            (f"3 {f[0]} {f[1]} {f[2]} {r} {g} {b}"
                             for f, (r, g, b) in zip(mesh.faces.tolist(), colours))))


# ---------------------------------------------------------------------------
# Normals and features
# ---------------------------------------------------------------------------

def compute_normals(mesh):
    """Unit face normals (CCW cross product) and area-weighted vertex normals.

    Zero-area faces get a sentinel +z normal; a call that finds any warns
    once, with their count and the first one, as a DegenerateFaceWarning.
    """
    v = mesh.vertices
    f = mesh.faces
    e1 = v[f[:, 1]] - v[f[:, 0]]
    e2 = v[f[:, 2]] - v[f[:, 0]]
    cross = np.cross(e1, e2)  # magnitude = 2 * area
    norms = np.linalg.norm(cross, axis=1)
    degenerate = norms < 1e-12
    if degenerate.any():
        bad = np.flatnonzero(degenerate)
        warnings.warn(f"{len(bad)} face{'s have' if len(bad) > 1 else ' has'} zero area "
                      f"(first: face {bad[0]}); using +z normals", DegenerateFaceWarning)
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
