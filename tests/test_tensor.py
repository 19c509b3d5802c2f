import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import meshseg
import meshseg.tensor as tensor_mod
from meshseg.knn import GatherIndexError, KnnGraph
from meshseg.tensor import (
    BatchNormState,
    DimensionError,
    StatisticsError,
    Tensor,
    UsageError,
    _leaky_factor,
    _leaky_relu,
    _linear,
    _product_sum,
    _subtract_product,
    affine,
    attend,
    concat_channels,
    gradient_check,
    log_softmax_nll,
    no_tape,
    shared_mlp,
    taping,
)
from reference import (
    EmptyReductionError,
    batch_norm,
    folded_mlp,
    gather_neighbors,
    leaky_relu,
    log_softmax_axis,
    max_axis,
    mul,
    normalize,
    softmax_axis,
    sub,
    sum_axis,
)


def t64(a, grad=True):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)


def gather(src, idx):
    return gather_neighbors(src, KnnGraph(idx))


# ---------------------------------------------------------------------------
# elementwise / linear
# ---------------------------------------------------------------------------

def test_concat_channels_values():
    out = concat_channels([t64([1.0, 2.0]), t64([3.0])])
    assert out.data.tolist() == [1.0, 2.0, 3.0]


def test_concat_shape_mismatch():
    with pytest.raises(DimensionError):
        concat_channels([t64([[1.0]]), t64([[1.0], [2.0]])])


def test_leaky_relu_negative_slope():
    out = leaky_relu(t64([-1.0]), slope=0.2)
    assert out.data[0] == pytest.approx(-0.2)


def test_mul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        mul(t64([1.0, 2.0]), t64([[1.0]]))
    assert "(2,)" in str(exc.value) and "(1, 1)" in str(exc.value)


def test_affine_backward_hand_example():
    # x=[1,2], W=[[1],[1]], b=[0], upstream grad 1.
    # Frozen expectation dL/dx=[1,1], dL/dW=[[1],[2]] agrees with central
    # finite differences at step 1e-5 (checked below via gradient_check).
    x = t64([[1.0, 2.0]])
    w = t64([[1.0], [1.0]])
    b = t64([0.0])
    out = affine(x, w, b).sum()
    out.backward()
    assert np.allclose(x.grad, [[1.0, 1.0]])
    assert np.allclose(w.grad, [[1.0], [2.0]])
    assert np.allclose(b.grad, [1.0])

    err = gradient_check(lambda x_, w_, b_: affine(x_, w_, b_).sum(),
                         [t64([[1.0, 2.0]]), t64([[1.0], [1.0]]), t64([0.0])])
    assert err <= 1e-7


def test_affine_shape_errors():
    with pytest.raises(DimensionError):
        affine(t64([[1.0, 2.0]]), t64([[1.0]]), t64([0.0]))
    with pytest.raises(DimensionError):
        affine(t64([[1.0]]), t64([[1.0, 2.0]]), t64([0.0]))


# ---------------------------------------------------------------------------
# every op has a caller
# ---------------------------------------------------------------------------

def top_level_names(node):
    """Names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return {t.id for t in targets if isinstance(t, ast.Name)}


def public_definitions(tree):
    """(name, node) for each public module-level name of a module and each
    public method of its classes; node is the statement that defines it."""
    for stmt in tree.body:
        yield from ((name, stmt) for name in top_level_names(stmt) if not name.startswith("_"))
        if isinstance(stmt, ast.ClassDef):
            yield from ((node.name, node) for node in stmt.body
                        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))


def named(node):
    """How many times each name appears as a name or an attribute in `node`."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unused_public_names(modules=None):
    """`module: name` for each public name or method of the src/ `modules`
    (None: all) that no src/ code names outside its own definition."""
    src = Path(meshseg.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = sum(map(named, trees.values()), Counter())
    return [f"{module}: {name}" for module in modules or trees
            for name, node in public_definitions(trees[module])
            if used[name] == named(node)[name]]


def test_every_public_tensor_name_has_a_src_caller():
    # an op that only tests call belongs in tests/reference.py
    tensor = ast.parse(Path(tensor_mod.__file__).read_text())
    public = {name for name, _ in public_definitions(tensor)}
    assert "shared_mlp" in public and "Tensor" in public
    unused = unused_public_names(["tensor.py"])
    assert not unused, f"tensor.py names no src/ code uses: {unused}"


def test_every_public_src_name_has_a_src_caller():
    # a name only tests, demos or the benchmark call is dead weight in src/
    unused = unused_public_names()
    assert not unused, f"public src/ names no src/ code uses: {unused}"


def test_every_public_reference_name_has_a_test_caller():
    # a reference helper whose last test is gone goes with it
    tests = Path(__file__).parent
    reference = ast.parse((tests / "reference.py").read_text())
    public = {n for stmt in reference.body for n in top_level_names(stmt)
              if not n.startswith("_")}
    used = set()
    for path in sorted(tests.glob("test_*.py")):
        used.update(named(ast.parse(path.read_text())))
    assert "folded_mlp" in public and "mul" in public
    assert not public - used, f"reference.py names no test uses: {sorted(public - used)}"


# ---------------------------------------------------------------------------
# the tape switch
# ---------------------------------------------------------------------------

def test_no_tape_nests_and_restores_after_an_exception():
    assert taping()
    with no_tape():
        assert not taping()
        with no_tape():
            assert not taping()
        assert not taping()  # the inner exit restores the outer state
    assert taping()
    with pytest.raises(RuntimeError):
        with no_tape():
            raise RuntimeError("boom")
    assert taping()


def test_ops_inside_no_tape_record_nothing():
    x, w, b = t64([[1.0, -2.0]]), t64([[0.5], [1.0]]), t64([0.25])
    with no_tape():
        out = sum_axis(affine(x, w, b), axis=1)
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    assert out.data.tolist() == [-1.25]
    taped = sum_axis(affine(x, w, b), axis=1)  # same op, tape back on
    assert taped.requires_grad and taped._parents


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def test_softmax_uniform_symmetry():
    out = softmax_axis(t64([0.0, 0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_frozen_values():
    # Direct 64-bit evaluation of exp/sum(exp) for [1,2,3].
    out = softmax_axis(t64([1.0, 2.0, 3.0]), axis=0)
    assert np.allclose(out.data, [0.09003057, 0.24472847, 0.66524096], atol=1e-5)


def test_softmax_normalization_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = t64(rng.normal(size=(5, 4, 3)) * 10)
        y = softmax_axis(x, axis=1).data
        assert (y >= 0).all()
        assert np.allclose(y.sum(axis=1), 1.0, atol=1e-6)


def test_max_axis_over_rows():
    out = max_axis(t64([[1.0, 5.0], [7.0, 2.0]]), axis=0)
    assert out.data.tolist() == [7.0, 5.0]


def test_max_axis_tie_routes_to_lowest_index():
    x = t64([[3.0, 3.0, 1.0]])
    out = max_axis(x, axis=1).sum()
    out.backward()
    assert x.grad.tolist() == [[1.0, 0.0, 0.0]]


def test_empty_reduction_error():
    with pytest.raises(EmptyReductionError):
        sum_axis(t64(np.zeros((3, 0))), axis=1)


def test_reduction_gradients_match_fd():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5))
    w = Tensor(rng.normal(size=(4, 5)), dtype=np.float64)  # non-trivial upstream
    for op in (lambda t: sum_axis(t, 1).sum(),
               lambda t: mul(softmax_axis(t, 1), w).sum(),
               lambda t: mul(log_softmax_axis(t, 1), w).sum()):
        assert gradient_check(op, [t64(x)]) <= 1e-6


def test_max_axis_gradient_matches_fd_away_from_ties():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 5)) * 3  # continuous draws, no ties
    err = gradient_check(lambda t: max_axis(t, 1).sum(), [t64(x)])
    assert err <= 1e-6


# ---------------------------------------------------------------------------
# gather / scatter: the reference gather_neighbors over a KnnGraph, which
# checks its table when built
# ---------------------------------------------------------------------------

def test_gather_rows_permutation():
    src = t64([[10.0], [20.0], [30.0]])
    out = gather(src, np.array([[1], [2], [0]]))
    assert out.data.reshape(-1).tolist() == [20.0, 30.0, 10.0]


def test_gather_rows_scatter_add_counting():
    m, k = 4, 3
    src = t64(np.zeros((m, 2)))
    out = gather(src, np.zeros((m, k), dtype=int)).sum()
    out.backward()
    assert src.grad[0].tolist() == [m * k, m * k]
    assert np.all(src.grad[1:] == 0)


def test_gather_rows_out_of_range_names_position():
    src = t64(np.zeros((3, 2)))
    idx = np.array([[0, 1], [0, 5], [2, 0]])
    with pytest.raises(GatherIndexError) as exc:
        gather(src, idx)
    assert "5" in str(exc.value) and "(1, 1)" in str(exc.value)


def test_gather_rows_rejects_float_index():
    src = t64(np.zeros((3, 2)))
    with pytest.raises(GatherIndexError) as exc:
        gather(src, np.array([[0.0, 1.0], [2.0, 0.0]]))
    assert "float64" in str(exc.value)


def test_gather_rows_rejects_bool_index():
    # a bool table is within [0, M) and would otherwise index as a mask
    src = t64(np.zeros((3, 2)))
    with pytest.raises(GatherIndexError) as exc:
        gather(src, np.array([[True, False], [False, True]]))
    assert "bool" in str(exc.value)


def test_gather_rows_gradient_matches_fd():
    rng = np.random.default_rng(11)
    src = rng.normal(size=(5, 3))
    idx = rng.integers(0, 5, size=(5, 2))
    weights = rng.normal(size=(5, 2, 3))  # non-uniform upstream

    def f(s):
        return mul(gather(s, idx), Tensor(weights, dtype=np.float64)).sum()

    assert gradient_check(f, [t64(src)]) <= 1e-6


def test_gather_scatter_conserves_gradient_mass():
    rng = np.random.default_rng(12)
    src = t64(rng.normal(size=(6, 4)))
    idx = rng.integers(0, 6, size=(6, 3))
    out = gather(src, idx).sum()
    out.backward()
    upstream_total = 6 * 3 * 4  # all-ones upstream through sum
    assert abs(src.grad.sum() - upstream_total) <= 1e-6


# ---------------------------------------------------------------------------
# batch norm (the composed reference in tests/reference.py)
# ---------------------------------------------------------------------------

def test_batch_norm_hand_example():
    # mean=2, biased std=1 -> [[-1],[1]] up to the epsilon perturbation
    state = BatchNormState(1, dtype=np.float64)
    out = batch_norm(t64([[1.0], [3.0]]), state, train=True)
    assert np.allclose(out.data, [[-1.0], [1.0]], atol=1e-4)


def test_batch_norm_zero_variance_channel():
    state = BatchNormState(2, dtype=np.float64)
    x = t64([[5.0, 1.0], [5.0, 3.0]])
    out = batch_norm(x, state, train=True)
    assert np.allclose(out.data[:, 0], 0.0)


def test_batch_norm_train_needs_two_rows():
    state = BatchNormState(2, dtype=np.float64)
    with pytest.raises(StatisticsError):
        batch_norm(t64([[1.0, 2.0]]), state, train=True)


def test_batch_norm_eval_deterministic_and_frozen():
    state = BatchNormState(3, dtype=np.float64)
    rng = np.random.default_rng(0)
    batch_norm(t64(rng.normal(size=(8, 3))), state, train=True)
    rm, rv = state.running_mean.copy(), state.running_var.copy()
    x = t64(rng.normal(size=(4, 3)), grad=False)
    a = batch_norm(x, state, train=False).data
    b = batch_norm(x, state, train=False).data
    assert np.array_equal(a, b)
    assert np.array_equal(state.running_mean, rm)
    assert np.array_equal(state.running_var, rv)


def test_batch_norm_train_gradient_matches_fd():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 3))
    weights = rng.normal(size=(6, 3))

    def f(xt, g, b):
        state = BatchNormState(3, dtype=np.float64)
        state.gamma, state.beta = g, b
        return mul(batch_norm(xt, state, train=True), Tensor(weights, dtype=np.float64)).sum()

    err = gradient_check(
        f, [t64(x), t64(np.array([1.0, 0.7, 1.3])), t64(np.array([0.0, 0.2, -0.1]))]
    )
    assert err <= 1e-6


def test_batch_norm_eval_gradient_matches_fd():
    rng = np.random.default_rng(6)
    state = BatchNormState(3, dtype=np.float64)
    batch_norm(t64(rng.normal(size=(10, 3))), state, train=True)
    x = rng.normal(size=(4, 3))

    def f(xt):
        return batch_norm(xt, state, train=False).sum()

    assert gradient_check(f, [t64(x)]) <= 1e-6


def test_batch_norm_3d_input_flattens_leading_axes():
    state = BatchNormState(2, dtype=np.float64)
    x3 = np.arange(12, dtype=np.float64).reshape(2, 3, 2)
    out3 = batch_norm(t64(x3), state, train=True).data
    state2 = BatchNormState(2, dtype=np.float64)
    out2 = batch_norm(t64(x3.reshape(6, 2)), state2, train=True).data
    assert np.allclose(out3.reshape(6, 2), out2)


# ---------------------------------------------------------------------------
# gradient_check harness and determinism
# ---------------------------------------------------------------------------

def test_gradient_check_polynomial():
    x = t64([1.0, 2.0])
    err = gradient_check(lambda t: mul(t, t).sum(), [x])
    assert err <= 1e-7
    out = mul(x, x).sum()
    x.grad = None
    out2 = mul(x, x).sum()
    out2.backward()
    assert np.allclose(x.grad, [2.0, 4.0])


def test_gradient_check_rejects_non_scalar():
    with pytest.raises(UsageError):
        gradient_check(lambda t: mul(t, t), [t64([1.0, 2.0])])


def test_gradient_check_rejects_float32():
    x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(UsageError):
        gradient_check(lambda t: t.sum(), [x])


def test_randomized_op_chain_gradients():
    # chained ops: affine -> leaky_relu -> softmax -> mul -> sum
    rng = np.random.default_rng(21)
    x = rng.normal(size=(5, 3)) + 0.1
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=4)

    def f(xt, wt, bt):
        h = leaky_relu(affine(xt, wt, bt), slope=0.2)
        return mul(softmax_axis(h, 1), h).sum()

    assert gradient_check(f, [t64(x), t64(w), t64(b)]) <= 1e-4


def test_forward_determinism():
    rng = np.random.default_rng(30)
    x = Tensor(rng.normal(size=(6, 4)).astype(np.float32))
    w = Tensor(rng.normal(size=(4, 3)).astype(np.float32))
    b = Tensor(np.zeros(3, dtype=np.float32))
    a = leaky_relu(affine(x, w, b)).data
    bb = leaky_relu(affine(x, w, b)).data
    assert np.array_equal(a, bb)


def test_sub_and_scalar_mul():
    a, b = t64([3.0, 5.0]), t64([1.0, 2.0])
    out = mul(sub(a, b), 2.0)
    out.sum().backward()
    assert out.data.tolist() == [4.0, 6.0]
    assert a.grad.tolist() == [2.0, 2.0]
    assert b.grad.tolist() == [-2.0, -2.0]


# ---------------------------------------------------------------------------
# gradient ownership
# ---------------------------------------------------------------------------

def assert_one_owner(tensors):
    grads = [t.grad for t in tensors]
    for g in grads:
        assert g.flags.writeable and g.flags.c_contiguous
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


def test_sub_gives_each_input_its_own_gradient():
    # sub hands its upstream gradient itself to `a`, which must copy it
    a, b = t64([[1.0, 2.0]]), t64([[3.0, 4.0]])
    diff = sub(a, b)
    mul(diff, t64([[1.0, 2.0]], grad=False)).sum().backward()
    assert_one_owner([a, b, diff])
    a.grad[0, 0] = 9.0  # later in-place accumulation must not leak into diff
    assert diff.grad.tolist() == [[1.0, 2.0]]


def test_concat_channels_gradients_are_owned_copies():
    a, b = t64([[1.0], [2.0]]), t64([[3.0, 4.0], [5.0, 6.0]])
    out = concat_channels([a, b])
    mul(out, t64(np.arange(6.0).reshape(2, 3), grad=False)).sum().backward()
    assert_one_owner([a, b, out])
    assert a.grad.tolist() == [[0.0], [3.0]]


def test_sum_axis_gradient_is_writeable_not_a_broadcast():
    x = t64(np.ones((2, 3)))
    out = sum_axis(x, axis=1)
    mul(out, t64([2.0, 5.0], grad=False)).sum().backward()
    assert_one_owner([x, out])
    assert x.grad.tolist() == [[2.0] * 3, [5.0] * 3]


def test_repeated_input_accumulates_in_place_correctly():
    # concat hands both inputs views of one upstream array
    x = t64([1.0, 2.0])
    concat_channels([x, x]).sum().backward()
    assert x.grad.tolist() == [2.0, 2.0]


@pytest.mark.parametrize("op, frozen", [
    ("concat", {"wide"}),
    ("affine", {"x"}),
    ("affine", {"w", "b"}),
    ("attend", {"values"}),
    *[(f"mlp-{mode}-{form}", {"gamma", "beta"})
      for mode in ("train", "eval") for form in ("rows", "edges", "pool")],
], ids=lambda v: "+".join(sorted(v)) if isinstance(v, set) else v)
def test_an_input_that_needs_no_gradient_gets_none(op, frozen):
    # _accumulate keeps a gradient only for a tensor that requires grad, so
    # a frozen input's .grad stays None and every other gradient is bit for
    # bit that of the run where nothing is frozen
    rng = np.random.default_rng(60)
    m, k, d, c = 12, 3, 4, 5
    graph = KnnGraph(np.array([(np.arange(1, k + 1) + i) % m for i in range(m)]))
    shapes = {"x": (m, d), "wide": (m, 2), "w": (d, c), "ew": (2 * d, c), "b": (c,),
              "values": (m, k, c), "gamma": (c,), "beta": (c,)}
    data = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    running = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)

    def run(t):
        if op == "concat":
            return concat_channels([t["x"], t["wide"]])
        if op == "affine":
            return affine(t["x"], t["w"], t["b"])
        if op == "attend":
            return attend(t["x"], graph, t["ew"], t["b"], t["values"])
        _, mode, form = op.split("-")
        st = BatchNormState(c, dtype=np.float64)
        st.gamma, st.beta = t["gamma"], t["beta"]
        st.running_mean, st.running_var = (a.copy() for a in running)
        if form == "rows":
            return shared_mlp(t["x"], t["w"], t["b"], st, mode == "train")
        return shared_mlp(t["x"], t["ew"], t["b"], st, mode == "train",
                          graph=graph, pool=form == "pool")

    upstream, grads = None, []
    for freeze in (set(), frozen):
        t = {name: Tensor(a.copy(), requires_grad=name not in freeze)
             for name, a in data.items()}
        out = run(t)
        if upstream is None:
            upstream = Tensor(rng.normal(size=out.shape))
        mul(out, upstream).sum().backward()
        grads.append({name: v.grad for name, v in t.items()})
    full, part = grads
    assert all(full[name] is not None for name in frozen)
    for name in data:
        if name in frozen:
            assert part[name] is None, name
        elif full[name] is None:
            assert part[name] is None, name
        else:
            assert part[name].tobytes() == full[name].tobytes(), name


# ---------------------------------------------------------------------------
# one-node shared MLP against the composed ops
# ---------------------------------------------------------------------------

def composed_mlp(x, w, b, state, train):
    return leaky_relu(batch_norm(affine(x, w, b), state, train), 0.2)


def mlp_inputs(shape, out_dim, seed):
    rng = np.random.default_rng(seed)
    x = t64(rng.normal(size=shape))
    w = t64(rng.normal(size=(shape[-1], out_dim)))
    b = t64(rng.normal(size=out_dim))
    state = BatchNormState(out_dim, dtype=np.float64)
    state.gamma.data = rng.uniform(0.5, 1.5, size=out_dim)
    state.beta.data = rng.normal(size=out_dim) * 0.3
    state.running_mean = rng.normal(size=out_dim) * 0.2
    state.running_var = rng.uniform(0.5, 2.0, size=out_dim)
    return x, w, b, state


def clone(x, w, b, state):
    twin = BatchNormState(state.channels, dtype=np.float64)
    twin.gamma, twin.beta = t64(state.gamma.data.copy()), t64(state.beta.data.copy())
    twin.running_mean = state.running_mean.copy()
    twin.running_var = state.running_var.copy()
    return t64(x.data.copy()), t64(w.data.copy()), t64(b.data.copy()), twin


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("shape", [(9, 4), (15, 4)])
def test_shared_mlp_matches_composed_ops(train, shape):
    x, w, b, state = mlp_inputs(shape, 3, seed=40)
    x2, w2, b2, state2 = clone(x, w, b, state)
    upstream = t64(np.random.default_rng(41).normal(size=shape[:-1] + (3,)), grad=False)

    fused = shared_mlp(x, w, b, state, train)
    ref = composed_mlp(x2, w2, b2, state2, train)
    assert np.abs(fused.data - ref.data).max() <= 1e-10
    mul(fused, upstream).sum().backward()
    mul(ref, upstream).sum().backward()
    for got, want in ((x, x2), (w, w2), (b, b2), (state.gamma, state2.gamma),
                      (state.beta, state2.beta)):
        assert np.abs(got.grad - want.grad).max() <= 1e-10
    assert np.abs(state.running_mean - state2.running_mean).max() <= 1e-10
    assert np.abs(state.running_var - state2.running_var).max() <= 1e-10


@pytest.mark.parametrize("train", [True, False])
def test_shared_mlp_gradient_matches_fd(train):
    x, w, b, state = mlp_inputs((10, 3), 4, seed=42)
    upstream = t64(np.random.default_rng(43).normal(size=(10, 4)), grad=False)

    def f(x_, w_, b_, gamma, beta):
        state.gamma, state.beta = gamma, beta
        return mul(shared_mlp(x_, w_, b_, state, train), upstream).sum()

    err = gradient_check(f, [x, w, b, state.gamma, state.beta])
    assert err <= 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.0, 0.2, 0.99])
def test_shared_mlp_leaky_relu_is_bit_identical_to_the_factor_product(slope, dtype):
    # the forward takes max(y, slope * y); backward keeps the factor form
    rng = np.random.default_rng(46)
    x = Tensor(rng.normal(size=(40, 3)), dtype=dtype)
    w = Tensor(rng.normal(size=(3, 4)), dtype=dtype)
    b = Tensor(np.zeros(4), dtype=dtype)
    state = BatchNormState(4, dtype=dtype)
    # channel 1 is +0.0 or -0.0 by the sign of xhat; channel 2 is subnormal
    # in float32
    state.gamma.data = np.array([1.3, 0.0, 1e-39, 0.7], dtype=dtype)
    state.beta.data = np.array([0.1, -0.0, 0.0, -0.2], dtype=dtype)
    out = shared_mlp(x, w, b, state, train=True, slope=slope).data
    xhat, _ = normalize(_linear(x.data, w.data, b.data), state, True)
    y = xhat * state.gamma.data
    y += state.beta.data
    want = y * _leaky_factor(y < 0, y.dtype.type(slope))
    assert out.dtype == dtype and out.tobytes() == want.tobytes()
    assert np.signbit(out[:, 1]).any() and not np.signbit(out[:, 1]).all()
    # eval mode is the fold written out, on the running statistics just made
    out = shared_mlp(x, w, b, state, train=False, slope=slope).data
    assert out.dtype == dtype and out.tobytes() == folded_mlp(x, w, b, state, slope).tobytes()


def test_shared_mlp_train_needs_two_rows():
    x, w, b, state = mlp_inputs((1, 3), 2, seed=45)
    with pytest.raises(StatisticsError):
        shared_mlp(x, w, b, state, train=True)


# ---------------------------------------------------------------------------
# row blocks and array ownership
# ---------------------------------------------------------------------------

def special_values(shape, dtype, seed):
    """Normal values with +-0.0, NaN, +-inf and float32 subnormals mixed in."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape)
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-40, -3e-42])
    mask = rng.random(shape) < 0.3
    a[mask] = rng.choice(specials, size=int(mask.sum()))
    return a.astype(dtype)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("block, m, k, c", [
    (96, 3, 3, 4),  # below one block (8 rows)
    (96, 8, 3, 4),  # exactly one block
    (96, 21, 3, 4),  # not a multiple of the block
    (96, 21, 1, 4),  # one edge per row
    (None, 1100, 4, 64),  # the module's own block: 512 rows
])
def test_row_block_helpers_are_bit_identical_to_whole_array_expressions(
        block, m, k, c, dtype, monkeypatch):
    if block is not None:
        monkeypatch.setattr(tensor_mod, "_BLOCK", block)
    a = special_values((m, k, c), dtype, 1)
    b = special_values((m, k, c), dtype, 2)
    v = special_values((c,), dtype, 3)
    assert _product_sum(a, b).tobytes() == (a * b).sum(axis=1).tobytes()
    out = a.copy()
    _subtract_product(out, b, v)
    assert out.tobytes() == (a - b * v).tobytes()
    negative = a < 0
    for slope in (dtype(0.0), dtype(0.2), dtype(0.99)):
        y = a.copy()
        _leaky_relu(y, slope)
        assert y.tobytes() == np.maximum(a, a * slope).tobytes()
        want = negative * slope
        want += ~negative
        assert _leaky_factor(negative, slope).tobytes() == want.tobytes()


def test_no_op_mutates_an_array_it_does_not_own():
    # train-mode batch norm centres its affine's fresh output in place; no
    # op may write into a tensor's .data, forward or backward
    rng = np.random.default_rng(50)
    m, k, d, c = 12, 3, 4, 5
    graph = KnnGraph(np.array([(np.arange(1, k + 1) + i) % m for i in range(m)]))

    def leaf(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    def state():
        st = BatchNormState(c, dtype=np.float64)
        st.gamma.data = rng.uniform(-1.5, 1.5, size=c)
        st.beta.data = rng.normal(size=c)
        st.running_mean = rng.normal(size=c)
        st.running_var = rng.uniform(0.5, 2.0, size=c)
        return st

    def check(run, *inputs):
        kept = [t.data.tobytes() for t in inputs]
        out = run()
        mul(out, Tensor(rng.normal(size=out.data.shape))).sum().backward()
        assert [t.data.tobytes() for t in inputs] == kept

    x, edge_w, w, b = leaf(m, d), leaf(2 * d, c), leaf(d, c), leaf(c)
    values, logits, wide, x3 = leaf(m, k, c), leaf(m, c), leaf(m, 2), leaf(m, k, c)
    labels = rng.integers(0, c, size=m)
    check(lambda: affine(x, w, b), x, w, b)
    check(lambda: concat_channels([x, wide]), x, wide)
    check(lambda: attend(x, graph, edge_w, b, values), x, edge_w, b, values)
    check(lambda: log_softmax_nll(logits, labels, 0.5), logits)
    for train in (True, False):
        st = state()
        check(lambda: batch_norm(x3, st, train), x3, st.gamma, st.beta)
        for wt, kwargs in ((w, {}), (edge_w, {"graph": graph}),
                           (edge_w, {"graph": graph, "pool": True})):
            st = state()
            check(lambda: shared_mlp(x, wt, b, st, train, **kwargs),
                  x, wt, b, st.gamma, st.beta)
        a = rng.normal(size=(m, k, c))
        kept = a.tobytes()
        normalize(a, state(), train)
        assert a.tobytes() == kept
