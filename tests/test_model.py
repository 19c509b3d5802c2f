import numpy as np
import pytest

from meshseg.model import (
    CheckpointError,
    ConfigError,
    DataError,
    VARIANT_OVERRIDES,
    ModelConfig,
    build_variant,
    cross_entropy,
    load_checkpoint,
    _record_table,
    load_model,
    restore_state,
    save_checkpoint,
    variant_config,
)
from meshseg.tensor import BN_EPS, Tensor, _toposort, gradient_check
from meshseg.training import Adam
from reference import composed_cross_entropy, softmax_axis


def tiny_config(**overrides):
    base = dict(num_classes=5, k_neighbors=4, stream_widths=(8, 16, 32),
                fusion_width=32, head_widths=(32, 16), seed=3)
    base.update(overrides)
    return ModelConfig(**base).validate()


def random_features(m=40, seed=0):
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=(m, 12)) * 5
    normals = rng.normal(size=(m, 12))
    normals /= np.linalg.norm(normals.reshape(-1, 3), axis=1).reshape(m, 4).repeat(3, 1).reshape(m, 12)
    return np.concatenate([coords, normals], axis=1)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_shape_contract():
    model = build_variant(tiny_config())
    out = model.forward(random_features(40))
    assert out.data.shape == (40, 5)
    assert np.isfinite(out.data).all()


def test_forward_rejects_small_meshes():
    # a mesh too small for k is bad input data, not a bad configuration
    model = build_variant(tiny_config(k_neighbors=16))
    with pytest.raises(DataError) as exc:
        model.forward(random_features(10))
    assert "k=16" in str(exc.value)


def test_softmax_rows_sum_to_one():
    model = build_variant(tiny_config())
    logits = model.forward(random_features(25, seed=4))
    probs = softmax_axis(logits, axis=1).data
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_coords_only_ignores_normals_bit_exact():
    model = build_variant(tiny_config(streams="coords_only"))
    feats = random_features(30, seed=1)
    out = model.forward(feats).data
    perturbed = feats.copy()
    perturbed[:, 12:] = np.random.default_rng(9).normal(size=(30, 12))
    out2 = model.forward(perturbed).data
    assert np.array_equal(out, out2)


def test_normals_only_ignores_coords_bit_exact():
    model = build_variant(tiny_config(streams="normals_only"))
    feats = random_features(30, seed=2)
    out = model.forward(feats).data
    perturbed = feats.copy()
    perturbed[:, :12] += 3.7
    out2 = model.forward(perturbed).data
    assert np.array_equal(out, out2)


def test_batch_matches_single_mesh_in_eval_mode():
    model = build_variant(tiny_config())
    feats = random_features(35, seed=5)
    single = model.forward(feats).data
    pair = model.forward([feats, feats]).data
    assert pair.shape == (70, 5)
    assert np.allclose(pair[:35], single, atol=1e-5)
    assert np.allclose(pair[35:], single, atol=1e-5)


def test_batch_requires_homogeneous_cell_count():
    from meshseg.tensor import DimensionError

    model = build_variant(tiny_config())
    with pytest.raises(DimensionError):
        model.forward([random_features(30), random_features(25)])
    with pytest.raises(DimensionError, match="^empty batch$"):
        model.forward([])


def test_batch_entries_are_shape_checked_before_their_cell_counts():
    from meshseg.tensor import DimensionError

    model = build_variant(tiny_config())
    for bad in ([np.float32(1)], [random_features(30), np.zeros(30)],
                [random_features(30)[:, :20]]):
        with pytest.raises(DimensionError, match=r"expected \(M, 24\) features"):
            model.forward(bad)


def test_forward_rejects_what_is_neither_an_array_nor_a_list():
    from meshseg.tensor import DimensionError

    model = build_variant(tiny_config())
    for bad in (np.float32(1), 5, None):
        with pytest.raises(DimensionError, match="array or a list of them"):
            model.forward(bad)


def test_both_streams_share_one_graph_per_layer(monkeypatch):
    import meshseg.model as model_mod

    calls = []
    real = model_mod.build_block_knn_graph

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(model_mod, "build_block_knn_graph", counting)
    model = build_variant(tiny_config())
    model.forward(random_features(30, seed=12))
    assert len(calls) == 3  # one graph per layer, consumed by both streams


def counting_graphs(monkeypatch):
    """(built, scattered): every graph the model builds, and each graph
    once per build of its scatter levels, while the patch is in place."""
    from functools import cached_property

    import meshseg.knn as knn_mod
    import meshseg.model as model_mod

    built, scattered = [], []
    real = model_mod.build_block_knn_graph

    class CountingGraph(knn_mod.KnnGraph):
        @cached_property
        def scatter(self):
            scattered.append(self)
            return super().scatter

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(knn_mod, "KnnGraph", CountingGraph)
    monkeypatch.setattr(model_mod, "build_block_knn_graph", recording)
    return built, scattered


def test_both_streams_share_one_scatter_sort_per_layer(monkeypatch):
    built, scattered = counting_graphs(monkeypatch)
    model = build_variant(tiny_config())
    logits = model.forward(random_features(30, seed=12))
    assert len(built) == 3
    assert not scattered  # the first scatter_sum, in backward, builds them
    logits.sum().backward()
    # c1 n1 c2 n2 c3 n3 and the attention scores all scatter over their
    # layer's graph, whose levels are built once
    assert sorted(id(g) for g in scattered) == sorted(id(g) for g in built)


def test_gradients_have_one_owner_after_desk_step():
    from meshseg.verify import desk_model_config

    model = build_variant(desk_model_config())
    feats = [random_features(40, seed=s) for s in (20, 21)]
    labels = np.random.default_rng(22).integers(0, 8, size=80)
    cross_entropy(model.forward(feats, train=True), labels, reduction="mean").backward()
    grads = [p.tensor.grad for p in model.parameters()]
    for g in grads:
        assert g.dtype == np.float32
        assert g.flags.writeable and g.flags.c_contiguous
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


def capture_outputs(monkeypatch):
    """{block name: output tensor} of every aggregation layer and SharedMLP
    call the model makes while the patch is in place."""
    import meshseg.layers as layers_mod

    outputs = {}
    for owner, attr in ((layers_mod.GraphAttentionLayer, "forward"),
                        (layers_mod.GraphMaxPoolLayer, "forward"),
                        (layers_mod.SharedMLP, "__call__")):
        def recording(block, *args, _real=owner.__dict__[attr], **kwargs):
            outputs[block.name] = _real(block, *args, **kwargs)
            return outputs[block.name]

        monkeypatch.setattr(owner, attr, recording)
    return outputs


def ancestors(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return seen


def test_stream_independence_dataflow(monkeypatch):
    # no normal-stream tensor may be an ancestor of the fused coord features
    outputs = capture_outputs(monkeypatch)
    model = build_variant(tiny_config())
    model.forward(random_features(30, seed=7))
    n_param_ids = {id(p.tensor) for p in model.parameters() if p.name.startswith("n")}
    assert not (ancestors(outputs["fuse_c"]) & n_param_ids)
    # ... while the normal fusion output does depend on them
    assert ancestors(outputs["fuse_n"]) & n_param_ids


def test_train_step_builds_one_scatter_per_graph(monkeypatch):
    # every edge op over a graph, in both streams, shares its scatter; the
    # depth-0 graph needs one too, for the first layers' weight gradients
    built, scattered = counting_graphs(monkeypatch)
    model = build_variant(tiny_config())
    feats = [random_features(30, seed=1), random_features(30, seed=2)]
    logits = model.forward(feats, train=True)
    cross_entropy(logits, np.arange(60) % 5).backward()
    assert len(built) == 3
    assert sorted(id(g) for g in scattered) == sorted(id(g) for g in built)
    assert all(p.tensor.grad is not None for p in model.parameters())


def test_desk_train_step_runs_no_per_edge_product(monkeypatch):
    # edge affines project cells, then gather: no operand of a product is
    # 3-D or has the M * K rows of the edges
    import meshseg.tensor as tensor_mod
    from meshseg.verify import desk_model_config

    shapes = []
    real = tensor_mod._matmul

    def recording(a, b):
        shapes.append((a.shape, b.shape))
        return real(a, b)

    monkeypatch.setattr(tensor_mod, "_matmul", recording)
    cfg = desk_model_config()
    model = build_variant(cfg)
    feats = [random_features(60, seed=s) for s in (30, 31)]
    edges = 2 * 60 * cfg.k_neighbors
    cross_entropy(model.forward(feats, train=True), np.arange(120) % 8).backward()
    assert len(shapes) > 50
    for a, b in shapes:
        assert len(a) == 2 and len(b) == 2, (a, b)
        assert edges not in a + b, (a, b)


@pytest.mark.parametrize("variant", sorted(VARIANT_OVERRIDES))
def test_fusion_composition_matches_scripted_pipeline(variant, monkeypatch):
    # Eq-style composition oracle: recompute fusion + head from the captured
    # per-layer stream outputs with plain numpy and compare to the logits.
    outputs = capture_outputs(monkeypatch)
    model = build_variant(variant_config(tiny_config(), variant))
    logits = model.forward(random_features(28, seed=8))

    def shared_mlp_eval(block, x):
        y = x @ block.weight.data + block.bias.data
        y = block.bn.gamma.data * (y - block.bn.running_mean) / np.sqrt(
            block.bn.running_var + BN_EPS) + block.bn.beta.data
        return np.where(y >= 0, y, 0.2 * y)

    fused = []
    for _, stack, fuse in model.streams:
        prefix = fuse.name.removeprefix("fuse_")
        assert [layer.name for layer in stack] == [f"{prefix}{i}" for i in (1, 2, 3)]
        taps = [outputs[layer.name].data for layer in stack]
        fused.append(shared_mlp_eval(fuse, np.concatenate(taps, axis=1)))
        assert np.allclose(fused[-1], outputs[fuse.name].data, atol=1e-6)
    h = np.concatenate(fused, axis=1)
    for block in model.head:
        h = shared_mlp_eval(block, h)
    expected = h @ model.out_weight.data + model.out_bias.data
    assert np.allclose(expected, logits.data, atol=1e-6)


# ---------------------------------------------------------------------------
# tape-free, row-chunked inference
# ---------------------------------------------------------------------------

def predict_logits(model, features, monkeypatch):
    """(labels, logits) of model.predict, the logits captured from forward."""
    import meshseg.model as model_mod

    captured = []
    real = model_mod.TwoStreamNet.forward

    def recording(net, *args, **kwargs):
        captured.append(real(net, *args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(model_mod.TwoStreamNet, "forward", recording)
    labels = model.predict(features)
    monkeypatch.setattr(model_mod.TwoStreamNet, "forward", real)
    (logits,) = captured
    return labels, logits


def test_predict_logits_carry_no_tape(monkeypatch):
    model = build_variant(tiny_config())
    labels, logits = predict_logits(model, random_features(30, seed=9), monkeypatch)
    assert not logits.requires_grad
    assert logits._parents == () and logits._backward is None
    assert np.array_equal(labels, np.argmax(logits.data, axis=1))


def test_train_forward_without_tape_updates_bn_like_the_taped_one(monkeypatch):
    import meshseg.layers as layers_mod
    from meshseg.tensor import no_tape

    monkeypatch.setattr(layers_mod, "_CHUNK_ELEMS", 64)  # train mode must not chunk
    feats = random_features(40, seed=10)
    taped, free = build_variant(tiny_config()), build_variant(tiny_config())
    ref = taped.forward(feats, train=True)
    with no_tape():
        out = free.forward(feats, train=True)
    assert np.array_equal(out.data, ref.data) and not out.requires_grad
    for (name, a), b in zip(taped.bn_states().items(), free.bn_states().values()):
        assert np.array_equal(a.running_mean, b.running_mean), name
        assert np.array_equal(a.running_var, b.running_var), name


def trained_looking(model, dtype):
    """`model` with what training leaves in batch norm, which eval mode must
    read: gamma of both signs and running statistics away from (0, 1)."""
    rng = np.random.default_rng(11)
    for st in model.bn_states().values():
        st.gamma.data = (rng.uniform(0.5, 1.5, size=st.channels)
                         * rng.choice([-1, 1], size=st.channels)).astype(dtype)
        st.beta.data = rng.normal(scale=0.3, size=st.channels).astype(dtype)
        st.running_mean = rng.normal(size=st.channels).astype(dtype)
        st.running_var = rng.uniform(0.5, 2.0, size=st.channels).astype(dtype)
    return model


def chunked_predict(model, feats, monkeypatch):
    """Tape-free logits of `feats` with every graph layer in >= 3 chunks."""
    import meshseg.layers as layers_mod

    chunks = {}
    real = layers_mod.SharedMLP.__call__

    def counting(block, x, train=False, graph=None, chunk=None, pool=False):
        if graph is not None:  # one calibration per chunk of a graph layer
            chunks[block.name] = chunks.get(block.name, 0) + 1
        return real(block, x, train, graph, chunk, pool)

    monkeypatch.setattr(layers_mod.SharedMLP, "__call__", counting)
    monkeypatch.setattr(layers_mod, "_CHUNK_ELEMS", 512)
    _, logits = predict_logits(model, feats, monkeypatch)
    assert len(chunks) == 3 * len(model.streams)
    assert min(chunks.values()) >= 3, chunks
    return logits.data


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", sorted(VARIANT_OVERRIDES))
def test_chunked_predict_matches_one_chunk_bit_for_bit(variant, dtype, monkeypatch):
    import meshseg.layers as layers_mod

    model = trained_looking(build_variant(variant_config(tiny_config(), variant),
                                          dtype=dtype), dtype)
    feats = [random_features(60, seed=s) for s in (12, 13)]
    monkeypatch.setattr(layers_mod, "_CHUNK_ELEMS", 1 << 30)
    _, one = predict_logits(model, feats, monkeypatch)
    logits = chunked_predict(model, feats, monkeypatch)
    assert logits.dtype == dtype
    assert np.array_equal(logits, one.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", sorted(VARIANT_OVERRIDES))
def test_chunked_predict_matches_taped_eval_bit_for_bit(variant, dtype, monkeypatch):
    # taped and tape-free eval both fold batch norm into the affine
    model = trained_looking(build_variant(variant_config(tiny_config(), variant),
                                          dtype=dtype), dtype)
    assert all((st.gamma.data < 0).any() and (st.gamma.data > 0).any()
               for st in model.bn_states().values())
    feats = [random_features(60, seed=s) for s in (12, 13)]
    taped = model.forward(feats, train=False)
    assert taped.requires_grad
    logits = chunked_predict(model, feats, monkeypatch)
    assert logits.dtype == dtype
    assert np.array_equal(logits, taped.data)


def test_chunks_are_balanced_and_never_one_row(monkeypatch):
    import meshseg.layers as layers_mod
    from meshseg.knn import KnnGraph
    from meshseg.tensor import Tensor, no_tape

    sizes = []

    class Recorder(layers_mod.GraphMaxPoolLayer):
        def _aggregate(self, features, graph, train, chunk=None):
            rows = chunk[0] if chunk else slice(None)
            sizes.append(len(range(graph.num_cells)[rows]))
            return super()._aggregate(features, graph, train, chunk)

    layer = Recorder("n1", 2, 3, np.random.default_rng(0))
    for m in (2, 3, 5, 17, 64, 101):
        graph = KnnGraph(np.zeros((m, 1), dtype=np.int64))
        x = Tensor(np.random.default_rng(m).normal(size=(m, 2)).astype(np.float32))
        taped = layer.forward(x, graph).data
        for budget in (1 << 30, 1, 7, 20, 64, 1 << 21):
            monkeypatch.setattr(layers_mod, "_CHUNK_ELEMS", budget)
            sizes.clear()
            with no_tape():
                out = layer.forward(x, graph)
            assert sum(sizes) == m and min(sizes) >= 2, (m, budget, sizes)
            assert max(sizes) - min(sizes) <= 1
            if budget == 1 << 30:
                one = out.data
                assert len(sizes) == 1
            assert np.array_equal(out.data, one)
            assert np.array_equal(out.data, taped)


def test_predict_holds_less_than_half_the_taped_peak_and_never_sorts(monkeypatch):
    import tracemalloc
    from dataclasses import replace
    from functools import cached_property

    import meshseg.knn as knn_mod
    from meshseg.synth import generate
    from meshseg.training import inference_features
    from meshseg.verify import desk_arch_spec, desk_model_config

    feats = inference_features(generate(replace(desk_arch_spec(), cells_target=2400)))
    assert feats.shape[0] >= 2400
    model = build_variant(desk_model_config())
    sorts = []

    class CountingGraph(knn_mod.KnnGraph):
        @cached_property
        def scatter(self):
            sorts.append(1)
            return super().scatter

    monkeypatch.setattr(knn_mod, "KnnGraph", CountingGraph)

    def peak(run):
        tracemalloc.start()
        try:
            result = run()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    logits, eval_peak = peak(lambda: model.forward(feats, train=False))
    del logits
    logits, taped_peak = peak(lambda: model.forward(feats, train=True))
    logits.sum().backward()
    assert sorts  # the taped path's backward builds its scatter
    del logits
    assert eval_peak < taped_peak, (eval_peak, taped_peak)
    sorts.clear()
    labels, predict_peak = peak(lambda: model.predict(feats))
    assert not sorts
    assert labels.shape == (feats.shape[0],)
    assert predict_peak < taped_peak / 2, (predict_peak, taped_peak)


# ---------------------------------------------------------------------------
# variants
# ---------------------------------------------------------------------------

def test_default_config_is_attention_plus_maxpool():
    cfg = ModelConfig().validate()
    assert cfg.c_stream_agg == "attention"
    assert cfg.n_stream_agg == "maxpool"
    assert cfg.streams == "both" and cfg.fusion_level == "high"
    assert cfg.stream_widths == (64, 128, 256)
    assert cfg.k_neighbors == 32 and cfg.fusion_width == 512
    assert cfg.head_widths == (512, 256, 128)


def test_variant_vocabulary():
    base = tiny_config()
    assert variant_config(base, "full").streams == "both"
    assert variant_config(base, "coords-only").streams == "coords_only"
    assert variant_config(base, "max-max").c_stream_agg == "maxpool"
    assert variant_config(base, "low-fusion").fusion_level == "low"
    with pytest.raises(ConfigError) as exc:
        variant_config(base, "bogus")
    assert "coords-only" in str(exc.value)


def test_att_max_alias_is_gone():
    with pytest.raises(ConfigError) as exc:
        variant_config(tiny_config(), "att-max")
    for name in VARIANT_OVERRIDES:
        assert name in str(exc.value)


def _attention_names(layer):
    return [f"{layer}.calibrate.weight", f"{layer}.calibrate.bias",
            f"{layer}.calibrate.bn.gamma", f"{layer}.calibrate.bn.beta",
            f"{layer}.att.weight", f"{layer}.att.bias"]


def _maxpool_names(layer):
    return [f"{layer}.calibrate.weight", f"{layer}.calibrate.bias",
            f"{layer}.calibrate.bn.gamma", f"{layer}.calibrate.bn.beta"]


def _mlp_names(block):
    return [f"{block}.weight", f"{block}.bias", f"{block}.bn.gamma", f"{block}.bn.beta"]


_HEAD_AND_OUT = _mlp_names("head1") + _mlp_names("head2") + ["out.weight", "out.bias"]
_TWO_STREAM_NAMES = (_attention_names("c1") + _attention_names("c2") + _attention_names("c3")
                     + _maxpool_names("n1") + _maxpool_names("n2") + _maxpool_names("n3")
                     + _mlp_names("fuse_c") + _mlp_names("fuse_n") + _HEAD_AND_OUT)


@pytest.mark.parametrize("variant, names", [
    ("full", _TWO_STREAM_NAMES),
    ("low-fusion", _TWO_STREAM_NAMES),
    ("normals-only", _maxpool_names("n1") + _maxpool_names("n2") + _maxpool_names("n3")
     + _mlp_names("fuse_n") + _HEAD_AND_OUT),
    ("single-stream", _attention_names("c1") + _attention_names("c2")
     + _attention_names("c3") + _mlp_names("fuse_c") + _HEAD_AND_OUT),
])
def test_checkpoint_parameter_layout_is_pinned(variant, names):
    # parameter names and their order are the checkpoint's record layout
    model = build_variant(variant_config(tiny_config(), variant))
    assert [p.name for p in model.parameters()] == names


def test_single_stream_uses_halved_head_and_runs():
    model = build_variant(tiny_config(streams="single_concat"))
    assert model.head[0].in_dim == model.config.fusion_width
    out = model.forward(random_features(30, seed=3))
    assert out.data.shape == (30, 5)


def test_coords_only_has_fewer_parameters():
    both = build_variant(tiny_config())
    solo = build_variant(tiny_config(streams="coords_only"))
    assert solo.num_parameters() < both.num_parameters()


def test_low_fusion_layer_widths():
    model = build_variant(tiny_config(fusion_level="low", stream_widths=(64, 128, 256)))
    c_layers, n_layers = (stack for _, stack, _ in model.streams)
    assert c_layers[1].in_dim == 2 * 64
    assert n_layers[1].in_dim == 2 * 64
    assert c_layers[2].in_dim == 2 * 128
    out = model.forward(random_features(30, seed=6))
    assert out.data.shape == (30, 5)


def test_contradictory_flags_rejected():
    with pytest.raises(ConfigError):
        tiny_config(streams="normals_only", c_stream_agg="maxpool")
    with pytest.raises(ConfigError):
        tiny_config(streams="coords_only", n_stream_agg="attention")
    with pytest.raises(ConfigError):
        tiny_config(streams="coords_only", fusion_level="low")
    with pytest.raises(ConfigError):
        tiny_config(streams="single_concat", n_stream_agg="attention")
    # overriding the aggregation of a stream that exists is no contradiction
    assert tiny_config(streams="coords_only", c_stream_agg="maxpool").c_stream_agg == "maxpool"
    assert tiny_config(streams="normals_only", n_stream_agg="attention").n_stream_agg == "attention"


def test_deterministic_initialization():
    a = build_variant(tiny_config(seed=11))
    b = build_variant(tiny_config(seed=11))
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.name == pb.name
        assert np.array_equal(pa.tensor.data, pb.tensor.data)
    c = build_variant(tiny_config(seed=12))
    assert any(not np.array_equal(pa.tensor.data, pc.tensor.data)
               for pa, pc in zip(a.parameters(), c.parameters()))


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_loss_forced_one_hot_is_zero():
    logits = Tensor(np.array([[1000.0, 0.0], [0.0, 1000.0]]))
    loss = cross_entropy(logits, np.array([0, 1]))
    assert loss.item() <= 1e-6


def test_loss_uniform_logits_is_m_log_c():
    m, c = 7, 8
    logits = Tensor(np.zeros((m, c)))
    loss = cross_entropy(logits, np.zeros(m, dtype=int))
    assert loss.item() == pytest.approx(m * np.log(8), rel=1e-6)
    mean = cross_entropy(logits, np.zeros(m, dtype=int), reduction="mean")
    assert mean.item() == pytest.approx(np.log(8), abs=1e-5)


def test_loss_matches_scripted_oracle():
    rng = np.random.default_rng(13)
    logits = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    # independent -sum(log p) evaluation
    e = np.exp(logits)
    p = e / e.sum(axis=1, keepdims=True)
    expected = -np.sum(np.log(p[np.arange(6), labels]))
    loss = cross_entropy(Tensor(logits, dtype=np.float64), labels)
    assert loss.item() == pytest.approx(expected, abs=1e-6)


def test_loss_label_out_of_range_names_cell():
    logits = Tensor(np.zeros((3, 2)))
    with pytest.raises(DataError) as exc:
        cross_entropy(logits, np.array([0, 5, 1]))
    assert "cell 1" in str(exc.value)


def test_loss_gradient_matches_fd():
    rng = np.random.default_rng(14)
    logits = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)
    err = gradient_check(
        lambda t: cross_entropy(t, labels),
        [Tensor(logits, requires_grad=True, dtype=np.float64)],
    )
    assert err <= 1e-6


def same_bits(got, want):
    return (got.dtype == want.dtype and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


# (cells, classes, logits) -> logits; "confident" puts 1e4 on every label,
# so each cell's loss is exactly zero, and spreads of 1e4 underflow exp
LOSS_CASES = {
    "one-cell": (1, 2, lambda rng, labels: rng.normal(size=(1, 2))),
    "two-classes": (50, 2, lambda rng, labels: rng.normal(size=(50, 2)) * 5),
    "desk-batch": (4800, 8, lambda rng, labels: rng.normal(size=(4800, 8)) * 3),
    "underflow": (4800, 8, lambda rng, labels: rng.normal(size=(4800, 8)) * 1e4),
    "one-cell-underflow": (1, 2, lambda rng, labels: np.array([[0.0, 1e4]])),
    "confident": (30, 4, lambda rng, labels: 1e4 * np.eye(4)[labels]),
}


@pytest.mark.parametrize("reduction", ["sum", "mean"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(LOSS_CASES))
def test_loss_is_the_composed_loss_bit_for_bit(case, dtype, reduction):
    m, c, make = LOSS_CASES[case]
    rng = np.random.default_rng(17)
    labels = rng.integers(0, c, size=m)
    raw = make(rng, labels)
    got_x, want_x = (Tensor(raw, requires_grad=True, dtype=dtype) for _ in range(2))
    got = cross_entropy(got_x, labels, reduction)
    want = composed_cross_entropy(want_x, labels, reduction)
    assert same_bits(got.data, want.data), (got.data, want.data)
    got.backward()
    want.backward()
    assert same_bits(got_x.grad, want_x.grad)
    if case == "confident":
        assert got.data == 0 and not np.signbit(got.data)
    if "underflow" in case:  # some softmax entry is exactly zero
        assert (got_x.grad == 0).any()


def test_loss_puts_one_node_on_the_tape():
    logits = Tensor(np.random.default_rng(18).normal(size=(6, 3)), requires_grad=True)
    for reduction in ("sum", "mean"):
        loss = cross_entropy(logits, np.arange(6) % 3, reduction)
        nodes = [n for n in _toposort(loss) if n._backward is not None]
        assert nodes == [loss]
        assert loss._parents == (logits,)  # no one-hot leaf
    with pytest.raises(ValueError, match="unknown reduction 'max'"):
        cross_entropy(logits, np.arange(6) % 3, "max")


# ---------------------------------------------------------------------------
# end-to-end gradient check
# ---------------------------------------------------------------------------

def test_end_to_end_gradient_check_tiny_model():
    cfg = ModelConfig(num_classes=3, k_neighbors=3, stream_widths=(4, 8, 8),
                      fusion_width=8, head_widths=(8, 4), seed=5).validate()
    model = build_variant(cfg, dtype=np.float64)
    feats = random_features(16, seed=15)
    labels = np.random.default_rng(16).integers(0, 3, size=16)
    params = [p.tensor for p in model.parameters()]

    def f(*_):
        return cross_entropy(model.forward(feats, train=False), labels)

    err = gradient_check(f, params)
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_byte_exact(tmp_path):
    model = build_variant(tiny_config(seed=21))
    model.forward(random_features(30, seed=20), train=True)  # move BN stats
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    restored = load_model(p1)
    save_checkpoint(restored, p2)
    assert p1.read_bytes() == p2.read_bytes()

    feats = random_features(30, seed=22)
    assert np.array_equal(model.forward(feats).data, restored.forward(feats).data)


def test_checkpoint_preserves_names_shapes_values(tmp_path):
    model = build_variant(tiny_config(seed=23))
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    config, arrays = load_checkpoint(path)
    assert config == model.config
    for p in model.parameters():
        assert p.name in arrays
        assert arrays[p.name].shape == p.tensor.data.shape
        assert np.array_equal(arrays[p.name], p.tensor.data)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert "TSGC" in str(exc.value)


def _corrupt_config(data):
    return data[:10] + b"X" + data[11:]  # first byte of the config JSON


def _empty_shape(ndim, first_dim):
    def damage(data):
        # the first record's rank byte follows its length-prefixed name; an
        # empty shape (last dim 0) needs no value bytes
        at = 10 + int.from_bytes(data[6:10], "little") + 4
        at += 2 + int.from_bytes(data[at:at + 2], "little")
        dims = [first_dim] * (ndim - 1) + [0]
        return (data[:at] + bytes([ndim]) + b"".join(d.to_bytes(4, "little") for d in dims)
                + data[at + 1:])
    return damage


_CHECKPOINT_DAMAGE = {
    "cut-header": lambda data: data[:5],
    "cut-config": lambda data: data[:10 + int.from_bytes(data[6:10], "little") // 2],
    "cut-record": lambda data: data[:len(data) // 2],
    "3-bytes-short": lambda data: data[:-3],
    "corrupt-config": _corrupt_config,
    "empty-huge-rank": _empty_shape(200, 1),
    "empty-huge-dims": _empty_shape(8, 2 ** 31),
    "unsupported-version": lambda data: data[:4] + b"\xff\xff" + data[6:],
    "trailing-byte": lambda data: data + b"\x00",
}


@pytest.mark.parametrize("damage", sorted(_CHECKPOINT_DAMAGE))
def test_damaged_checkpoint_raises_checkpoint_error(tmp_path, damage):
    path = tmp_path / "m.ckpt"
    save_checkpoint(build_variant(tiny_config()), path)
    path.write_bytes(_CHECKPOINT_DAMAGE[damage](path.read_bytes()))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


# damage -> (record, its value in the loaded arrays, what the refusal names)
_RESTORE_REFUSALS = {
    "extra-record": ("bogus", np.zeros(1, np.float32), "unexpected array 'bogus'"),
    "fractional-counters": ("optimizer.counters", np.array([1.5, 0], np.float32),
                            "are not step and epoch counts"),
    "nan-record": ("out.bias", np.full(5, np.nan, np.float32),  # tiny_config's 5 classes
                   "non-finite values"),
}


@pytest.mark.parametrize("damage", sorted(_RESTORE_REFUSALS))
def test_refused_restore_changes_no_live_array(tmp_path, damage):
    record, value, fragment = _RESTORE_REFUSALS[damage]
    model, path = build_variant(tiny_config()), tmp_path / "run.ckpt"
    adam = Adam(model.parameters())
    adam.state.step, adam.state.epoch = 3, 1
    for moments in (adam.state.m, adam.state.v):
        for m in moments.values():
            m[...] = 0.5
    save_checkpoint(model, path, adam)
    _, arrays = load_checkpoint(path)
    arrays[record] = value
    live = build_variant(tiny_config(seed=4))
    live_adam = Adam(live.parameters())
    before = {name: arr.copy() for name, arr in _record_table(live, live_adam).items()}
    with pytest.raises(CheckpointError) as exc:
        restore_state(path, arrays, live, live_adam)
    assert str(path) in str(exc.value)
    assert record in str(exc.value) and fragment in str(exc.value)
    after = _record_table(live, live_adam)
    assert after.keys() == before.keys()
    for name, arr in before.items():
        assert np.array_equal(after[name], arr), name


def test_zero_layer_width_rejected():
    for field in ("stream_widths", "fusion_width", "head_widths"):
        width = (4, 0) if field != "fusion_width" else 0
        with pytest.raises(ConfigError):
            tiny_config(**{field: width}).validate()


def test_out_of_range_slope_or_seed_rejected():
    for bad in ({"leaky_slope": 1.0}, {"leaky_slope": float("inf")},
                {"leaky_slope": -0.1}, {"leaky_slope": float("nan")}, {"seed": -1}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            tiny_config(**bad)
    assert tiny_config(leaky_slope=0.0).leaky_slope == 0.0


def test_config_json_round_trip():
    cfg = tiny_config(streams="single_concat")
    back = ModelConfig.from_json(cfg.to_json())
    assert back == cfg
    with pytest.raises(ConfigError):
        ModelConfig.from_json('{"not_a_field": 1}')
