import numpy as np
import pytest
import warnings

from meshseg.mesh import compute_normals, load_mesh, save_obj
from meshseg.synth import (
    ArchSpec,
    GenerationError,
    generate,
    make_dataset,
    read_manifest,
)


def small_spec(**overrides):
    base = dict(num_teeth=2, cells_target=400, seed=5)
    base.update(overrides)
    return ArchSpec(**base)


def test_single_tooth_two_labels():
    mesh = generate(ArchSpec(num_teeth=1, cells_target=400, crowding=0.0, seed=1))
    assert set(np.unique(mesh.labels).tolist()) == {0, 1}


def test_equal_seeds_bit_identical():
    a = generate(small_spec())
    b = generate(small_spec())
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, b.faces)
    assert np.array_equal(a.labels, b.labels)
    c = generate(small_spec(seed=6))
    assert not np.array_equal(a.vertices, c.vertices)


def test_default_spec_histogram():
    spec = ArchSpec()
    mesh = generate(spec)
    hist = np.bincount(mesh.labels, minlength=spec.num_classes)
    assert hist.argmax() == 0  # background dominates
    assert (hist > 0).all()
    assert abs(mesh.num_cells - spec.cells_target) <= 0.1 * spec.cells_target


def test_generated_mesh_is_clean():
    mesh = generate(small_spec())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no degenerate faces allowed
        fn, vn = compute_normals(mesh)
    assert np.allclose(np.linalg.norm(fn, axis=1), 1.0, atol=1e-4)
    assert fn[:, 1].mean() > 0.5  # predominantly up-facing strip


def test_label_boundaries_sit_on_normal_creases():
    mesh = generate(ArchSpec(num_teeth=3, cells_target=1600, seed=9))
    fn, _ = compute_normals(mesh)
    edges = {}
    for fi, face in enumerate(mesh.faces):
        for k in range(3):
            e = tuple(sorted((face[k], face[(k + 1) % 3])))
            edges.setdefault(e, []).append(fi)
    angles = []
    for pair in edges.values():
        if len(pair) != 2:
            continue
        a, b = pair
        la, lb = mesh.labels[a], mesh.labels[b]
        if (la == 0) != (lb == 0):  # tooth/strip junction
            cosang = np.clip(np.dot(fn[a], fn[b]), -1.0, 1.0)
            angles.append(np.degrees(np.arccos(cosang)))
    angles = np.array(angles)
    assert len(angles) > 0
    crease_threshold = 15.0
    assert angles.min() > crease_threshold
    assert np.median(angles) > 30.0


def test_arch_obj_round_trip_exact(tmp_path):
    mesh = generate(small_spec())
    path = tmp_path / "arch.obj"
    save_obj(mesh, path)
    back = load_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


def test_teeth_overlap_raises():
    with pytest.raises(GenerationError):
        generate(ArchSpec(num_teeth=7, tooth_radius=2.6, seed=0))


def test_make_dataset_and_reload(tmp_path):
    spec = small_spec(seed=77)
    manifest_path, entries = make_dataset(spec, n_train=3, n_test=2, out_dir=tmp_path)
    assert len(entries) == 5
    loaded = read_manifest(manifest_path)
    assert [e.split for e in loaded] == ["train"] * 3 + ["test"] * 2
    train_seeds = {e.seed for e in loaded if e.split == "train"}
    test_seeds = {e.seed for e in loaded if e.split == "test"}
    assert not (train_seeds & test_seeds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in loaded:
            mesh = load_mesh(e.mesh_path, labels_path=e.labels_path)
            assert mesh.labels is not None and len(mesh.labels) == mesh.num_cells
            compute_normals(mesh)


def test_make_dataset_regeneration_byte_identical(tmp_path):
    make_dataset(small_spec(seed=3), 2, 1, tmp_path / "a")
    make_dataset(small_spec(seed=3), 2, 1, tmp_path / "b")
    make_dataset(small_spec(seed=4), 2, 1, tmp_path / "c")  # differs only in seed
    for rel in ("manifest.tsv", "train/arch_000.obj", "train/arch_001.labels",
                "test/arch_000.obj"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    for rel in ("manifest.tsv", "train/arch_000.obj", "train/arch_001.obj",
                "test/arch_000.obj"):
        assert (tmp_path / "a" / rel).read_bytes() != (tmp_path / "c" / rel).read_bytes()


def test_make_dataset_collision(tmp_path):
    make_dataset(small_spec(seed=1), 1, 1, tmp_path)
    with pytest.raises(FileExistsError):
        make_dataset(small_spec(seed=2), 1, 1, tmp_path)


@pytest.mark.parametrize("into", ["new-dir", "existing-dir"])
def test_failed_make_dataset_removes_what_it_made(monkeypatch, tmp_path, into):
    # the third mesh, the first test mesh, fails after two were written
    import meshseg.synth as synth_mod

    (tmp_path / "keep.txt").write_text("mine")
    out = tmp_path / "data" / "run" if into == "new-dir" else tmp_path
    calls, real = [], synth_mod.generate

    def failing(spec):
        calls.append(spec)
        if len(calls) == 3:
            raise GenerationError("third mesh")
        return real(spec)

    monkeypatch.setattr(synth_mod, "generate", failing)
    with pytest.raises(GenerationError, match="third mesh"):
        make_dataset(small_spec(seed=5), 2, 1, out)
    assert len(calls) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.txt"]
    assert (tmp_path / "keep.txt").read_text() == "mine"
