"""Synthetic labeled dental-arch-like meshes for desk-scale experiments.

A swept parabolic strip stands in for the gingiva; teeth are steep
superellipse-profile bumps placed along the arch, mirrored across the
midline so left/right pairs share a class (class 0 is the strip).  The
steep bump rims put a sharp normal crease exactly on the label boundary,
which is the signal the normal stream exists to exploit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from meshseg.mesh import TriangleMesh, read_table, save_labels, save_obj
from meshseg.model import DataError


MAX_CELLS = 1 << 20  # largest cells_target: 65 times the paper's 16,000-cell meshes
TOOTH_HEIGHT = 2.4  # model units (mm-scale)
HEIGHT_JITTER = 0.2  # fractional ranges, uniform
RADIUS_JITTER = 0.12
ARCH_HALF_WIDTH = 24.0
ARCH_CURVATURE = 0.9  # parabola depth / half width
STRIP_HALF_WIDTH = 5.5
GUM_BULGE = 0.6
BUMP_EXPONENT = 3.0  # superellipse profile; higher = steeper rim


class GenerationError(ValueError):
    """Infeasible arch geometry (teeth would overlap) or spec out of range."""


@dataclass
class ArchSpec:
    num_teeth: int = 7  # per half-arch; mirrored, so classes = num_teeth + 1
    cells_target: int = 1200
    tooth_radius: float = 2.1
    crowding: float = 0.0  # 0..1 grows teeth into the inter-tooth gaps
    seed: int = 0

    @property
    def num_classes(self):
        return self.num_teeth + 1


def _arc_length_table(samples=2048):
    # cumulative arc length of the parabola c(t) = (A t, 0, B (1 - t^2))
    a = ARCH_HALF_WIDTH
    b = ARCH_CURVATURE * a
    t = np.linspace(-1.0, 1.0, samples)
    speed = np.sqrt(a * a + 4.0 * b * b * t * t)
    u = np.concatenate([[0.0], np.cumsum((speed[1:] + speed[:-1]) * 0.5 * np.diff(t))])
    return t, u


def _grid_shape(spec, arc_length):
    quads = max(spec.cells_target // 2, 8)
    aspect = arc_length / (2.0 * STRIP_HALF_WIDTH)
    ns = max(int(round(np.sqrt(quads / aspect))), 4)
    nt = max(int(round(quads / ns)), 8)
    return nt + 1, ns + 1


def _tooth_layout(spec, rng, arc_length):
    """Per-tooth (arc center, radius, height, class id), mirrored pairs."""
    count = 2 * spec.num_teeth
    slot = arc_length / count
    # crowding interpolates the base radius toward the packing limit slot/2,
    # shrinking inter-tooth gaps; jitter can then push neighbors into overlap
    packing = slot / 2.0
    radius_base = spec.tooth_radius + spec.crowding * max(0.0, packing - spec.tooth_radius)
    centers = (np.arange(count) + 0.5) * slot
    radii = radius_base * (1.0 + rng.uniform(-RADIUS_JITTER, RADIUS_JITTER, size=count))
    heights = TOOTH_HEIGHT * (1.0 + rng.uniform(-HEIGHT_JITTER, HEIGHT_JITTER, size=count))
    # mirrored class layout: T_n ... T_1 | T_1 ... T_n along the arch
    classes = np.concatenate([
        np.arange(spec.num_teeth, 0, -1), np.arange(1, spec.num_teeth + 1)
    ])
    for k in range(count - 1):
        if radii[k] + radii[k + 1] > slot:
            raise GenerationError(
                f"teeth {k} and {k + 1} overlap (radius sum "
                f"{radii[k] + radii[k + 1]:.2f} > spacing {slot:.2f}); "
                "reduce crowding, radius, or tooth count"
            )
    if radii.max() >= STRIP_HALF_WIDTH:
        raise GenerationError("tooth radius exceeds the strip half-width")
    return centers, radii, heights, classes


def _height_field(u, s, layout):
    """Strip profile plus tooth bumps at param points (u, s)."""
    centers, radii, heights, _ = layout
    y = GUM_BULGE * (1.0 - (s / STRIP_HALF_WIDTH) ** 2)
    m = BUMP_EXPONENT
    for ck, rk, hk in zip(centers, radii, heights):
        d2 = ((u - ck) ** 2 + s ** 2) / (rk * rk)
        inside = d2 < 1.0
        if inside.any():
            d = np.sqrt(d2[inside])
            y[inside] += hk * (1.0 - d ** m) ** (1.0 / m)
    return y


def _classify_faces(faces, u_flat, s_flat, layout):
    """Tooth class of each face (0 = strip).

    A face belongs to a tooth when any of its vertices sits inside the
    tooth's bump support, so the label boundary lands exactly on the rim
    crease where the normals break.
    """
    centers, radii, _, classes = layout
    vclass = np.zeros(u_flat.shape, dtype=np.int64)
    for ck, rk, cls in zip(centers, radii, classes):
        vclass[((u_flat - ck) ** 2 + s_flat ** 2) < rk * rk] = cls
    return vclass[faces].max(axis=1)


def _check_spec(spec):
    if spec.num_teeth < 1:
        raise GenerationError("num_teeth must be >= 1")
    if spec.cells_target > MAX_CELLS:
        raise GenerationError(
            f"cells_target must be at most {MAX_CELLS}, got {spec.cells_target}")
    if spec.seed < 0:  # numpy's seeding rejects it
        raise GenerationError(f"seed must be >= 0, got {spec.seed}")


def generate(spec):
    """Deterministic labeled arch mesh; cell count within ~10% of target."""
    _check_spec(spec)
    rng = np.random.default_rng(spec.seed)
    t_tab, u_tab = _arc_length_table()
    arc_length = u_tab[-1]
    nt, ns = _grid_shape(spec, arc_length)
    layout = _tooth_layout(spec, rng, arc_length)

    a = ARCH_HALF_WIDTH
    b = ARCH_CURVATURE * a
    t = np.linspace(-1.0, 1.0, nt)
    s = np.linspace(-STRIP_HALF_WIDTH, STRIP_HALF_WIDTH, ns)

    tt, ss = np.meshgrid(t, s, indexing="ij")  # (nt, ns)
    uu = np.interp(tt, t_tab, u_tab)
    y = _height_field(uu, ss, layout)

    # swept frame: curve point + lateral offset along the horizontal normal
    cx, cz = a * tt, b * (1.0 - tt * tt)
    tangent = np.stack([np.full_like(tt, a), -2.0 * b * tt], axis=-1)
    tangent /= np.linalg.norm(tangent, axis=-1, keepdims=True)
    lateral = np.stack([tangent[..., 1], -tangent[..., 0]], axis=-1)
    px = cx + ss * lateral[..., 0]
    pz = cz + ss * lateral[..., 1]
    vertices = np.stack([px, y, pz], axis=-1).reshape(-1, 3)

    # two triangles per grid quad, interleaved in quad order, up-facing
    ii, jj = np.meshgrid(np.arange(nt - 1), np.arange(ns - 1), indexing="ij")
    v00 = (ii * ns + jj).ravel()
    v10 = ((ii + 1) * ns + jj).ravel()
    v01 = (ii * ns + jj + 1).ravel()
    v11 = ((ii + 1) * ns + jj + 1).ravel()
    faces = np.empty((2 * v00.size, 3), dtype=np.int64)
    faces[0::2] = np.stack([v00, v10, v11], axis=1)
    faces[1::2] = np.stack([v00, v11, v01], axis=1)

    labels = _classify_faces(faces, uu.reshape(-1), ss.reshape(-1), layout)
    mesh = TriangleMesh(vertices=vertices, faces=faces, labels=labels).validate()
    missing = set(range(spec.num_classes)) - set(np.unique(mesh.labels).tolist())
    if missing:
        raise GenerationError(
            f"classes {sorted(missing)} empty; raise cells_target or tooth_radius"
        )
    return mesh


# ---------------------------------------------------------------------------
# Datasets on disk
# ---------------------------------------------------------------------------

@dataclass
class ManifestEntry:
    mesh_path: str
    labels_path: str
    split: str
    seed: int


MANIFEST_COLUMNS = (("mesh", str), ("labels", str), ("split", str), ("seed", int))


def _derived_seed(seed, split_id, index):
    return int(np.random.SeedSequence([seed, split_id, index]).generate_state(1)[0])


def make_dataset(spec, n_train, n_test, out_dir):
    """Write train/test obj + .labels pairs and a manifest; each mesh's
    seed, recorded in the manifest, is derived from `spec.seed`.  A call
    that fails removes every file and directory it made."""
    if n_train < 1 or n_test < 1:
        raise GenerationError(
            f"n_train and n_test must be >= 1, got {n_train} and {n_test}")
    _check_spec(spec)
    out_dir = str(out_dir)
    manifest_path = os.path.join(out_dir, "manifest.tsv")
    if os.path.exists(manifest_path):
        raise FileExistsError(f"{manifest_path} already exists")
    made = []  # paths this call created, each after its directory
    try:
        entries = []
        for split_id, (split, count) in enumerate((("train", n_train), ("test", n_test))):
            _make_dirs(os.path.join(out_dir, split), made)
            for i in range(count):
                mesh_seed = _derived_seed(spec.seed, split_id, i)
                mesh = generate(replace(spec, seed=mesh_seed))
                rel_mesh = os.path.join(split, f"arch_{i:03d}.obj")
                rel_labels = os.path.join(split, f"arch_{i:03d}.labels")
                mesh_path, labels_path = (os.path.join(out_dir, rel)
                                          for rel in (rel_mesh, rel_labels))
                made += [p for p in (mesh_path, labels_path) if not os.path.exists(p)]
                save_obj(mesh, mesh_path)
                save_labels(mesh.labels, labels_path)
                entries.append(ManifestEntry(rel_mesh, rel_labels, split, mesh_seed))
        made.append(manifest_path)
        with open(manifest_path, "w") as fh:
            fh.write("# " + "\t".join(name for name, _ in MANIFEST_COLUMNS) + "\n")
            for e in entries:
                fh.write(f"{e.mesh_path}\t{e.labels_path}\t{e.split}\t{e.seed}\n")
    except BaseException:
        for path in reversed(made):
            if os.path.isdir(path):
                os.rmdir(path)
            elif os.path.exists(path):
                os.remove(path)
        raise
    return manifest_path, entries


def _make_dirs(path, made):
    """os.makedirs(path), appending each directory it creates to `made`."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.isdir(path):
        missing.append(path)
        path = os.path.dirname(path)
    for path in reversed(missing):
        os.mkdir(path)
        made.append(path)


def read_manifest(path):
    """Manifest entries with mesh/label paths resolved against its directory."""
    base = os.path.dirname(os.path.abspath(path))
    return [ManifestEntry(os.path.join(base, mesh), os.path.join(base, labels), split, seed)
            for mesh, labels, split, seed in read_table(path, MANIFEST_COLUMNS, DataError)]
