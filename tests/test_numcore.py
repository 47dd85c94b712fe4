"""Forward semantics and gradient checks for the autodiff core."""

import ctypes
import resource
import tracemalloc
import zlib

import numpy as np
import pytest

import oracles
from stmae import numcore as nc
from stmae.numcore import ShapeError, Tensor

SEEDS = range(20)


# ---------------------------------------------------------------------------
# Gradient suite: every registered op against central finite differences.
# Each case builds the op output from Tensor inputs; the scalarizer is a
# fixed random weighting of the output.
# ---------------------------------------------------------------------------

def _case(build, *shapes, transform=None):
    def make(rng):
        arrays = [rng.standard_normal(s) for s in shapes]
        if transform:
            arrays = transform(rng, arrays)
        return build, arrays
    return make


def _away_from(value, margin):
    def fix(rng, arrays):
        out = []
        for a in arrays:
            bad = np.abs(np.abs(a) - value) < margin
            a = np.where(bad, a + 4 * margin, a)
            out.append(a)
        return out
    return fix


OP_CASES = {
    "add": _case(nc.add, (3, 4), (4,)),
    "sub": _case(nc.sub, (3, 4), (3, 1)),
    "mul": _case(nc.mul, (2, 3, 4), (4,)),
    "neg": _case(nc.neg, (3, 4)),
    "affine": _case(nc.affine, (2, 3, 4), (4, 5), (5,)),
    "concat": _case(lambda a, b: nc.concat([a, b], axis=1), (3, 2), (3, 4)),
    "slice": _case(lambda a: a[1:3, ::2], (4, 6)),
    "gather": _case(lambda a: nc.gather(a, np.array([0, 2, 2, 1]), axis=0), (4, 5)),
    "transpose": _case(lambda a: nc.transpose(a, (2, 0, 1)), (2, 3, 4)),
    "reshape": _case(lambda a: nc.reshape(a, (2, 6)), (3, 4)),
    "layer_norm": _case(nc.layer_norm, (4, 8)),
    "attention": _case(lambda q, k, v: nc.attention(q, k, v, heads=2), (2, 3, 4), (2, 5, 4), (2, 5, 4)),
    "log_softmax": _case(nc.log_softmax, (3, 5)),
    "gelu": _case(nc.gelu, (3, 4)),
    "sigmoid": _case(nc.sigmoid, (3, 4)),
    "softplus": _case(nc.softplus, (3, 4)),
    "huber": _case(lambda a: nc.huber(a, delta=1.0), (3, 4), transform=_away_from(1.0, 1e-3)),
    "sum": _case(lambda a: nc.sum_(a, axis=1), (3, 4)),
    "mean": _case(lambda a: nc.mean(a, axis=0, keepdims=True), (3, 4)),
}

# More inputs for ops whose shape rule has more than one path: one learned
# query set attending to a batch of features reduces its gradient over the batch.
VARIANT_CASES = {
    "attention-broadcast": _case(lambda q, k, v: nc.attention(q, k, v, heads=2),
                                 (1, 3, 4), (2, 5, 4), (2, 5, 4)),
}
ALL_CASES = {**OP_CASES, **VARIANT_CASES}


def test_every_registered_op_has_a_gradient_case():
    assert set(OP_CASES) == set(nc.OPS)


@pytest.mark.parametrize("name", sorted(ALL_CASES))
def test_op_gradients_match_finite_differences(name):
    key = zlib.crc32(name.encode())      # stable across processes, unlike hash(str)
    for seed in SEEDS:
        rng = np.random.default_rng([seed, key])
        build, arrays = ALL_CASES[name](rng)
        probe_rng = np.random.default_rng([seed + 1000, key])

        tensors = [nc.parameter(a) for a in arrays]
        out = build(*tensors)
        weights = probe_rng.standard_normal(out.shape)
        loss = nc.sum_(out * Tensor(weights))
        nc.backward(loss)

        def scalar(*arrs):
            with nc.no_grad():
                return float((build(*[Tensor(a) for a in arrs]).data * weights).sum())

        for i, t in enumerate(tensors):
            fd = oracles.finite_diff_grad(scalar, arrays, i)
            assert oracles.rel_err(t.grad, fd) < 1e-4, f"{name} input {i} seed {seed}"


@pytest.mark.parametrize("name", sorted(ALL_CASES))
def test_op_keeps_float32(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    build, arrays = ALL_CASES[name](rng)
    tensors = [nc.parameter(a.astype(np.float32)) for a in arrays]
    out = build(*tensors)
    assert out.dtype == np.float32
    nc.backward(nc.sum_(out * Tensor(rng.standard_normal(out.shape).astype(np.float32))))
    assert [t.grad.dtype for t in tensors] == [np.float32] * len(tensors)


# ---------------------------------------------------------------------------
# Forward semantics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtypes", [(np.float32,) * 3, (np.float64,) * 3,
                                    (np.float32, np.float32, np.float64)])
def test_affine_matches_matmul_then_add_bitwise(dtypes):
    rng = np.random.default_rng(4)
    arrays = [rng.standard_normal(s).astype(d) for s, d in zip([(2, 7, 16), (16, 24), (24,)], dtypes)]
    weights = rng.standard_normal((2, 7, 24)).astype(dtypes[0])
    fused = [nc.parameter(a) for a in arrays]
    out = nc.affine(*fused)
    x, w, b = arrays
    ref = x @ w + b
    assert out.dtype == ref.dtype
    np.testing.assert_array_equal(out.data, ref)
    assert len(out._parents) == 3 and all(p in fused for p, _ in out._parents)
    nc.backward(nc.sum_(out * Tensor(weights)))
    # the VJPs of the product, its leading axis summed for w, and of the broadcast add
    g = np.ones(ref.shape, ref.dtype) * weights
    expected = [g @ w.T, (x.swapaxes(-1, -2) @ g).sum(axis=0), g.sum(axis=(0, 1))]
    for t, e in zip(fused, expected):
        assert t.grad.dtype == e.dtype
        np.testing.assert_array_equal(t.grad, e)


def test_gelu_matches_scalar_reference():
    xs = np.array([v * s for v in (0.1, 0.5, 1.0, 1.7, 2.4, 3.0) for s in (1, -1)])
    out = nc.gelu(Tensor(xs))
    expected = [oracles.gelu_scalar(float(x)) for x in xs]
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-14)


def test_gelu_float32_accuracy():
    x = np.linspace(-12.0, 12.0, 2_000_001, dtype=np.float32)
    ref, ref_grad = oracles.gelu_float64(x)
    t = nc.parameter(x)
    out = nc.gelu(t)
    nc.backward(nc.sum_(out))
    y = out.data
    assert y.dtype == np.float32 and t.grad.dtype == np.float32
    err = np.abs(y.astype(np.float64) - ref)
    ulps = err / np.spacing(np.abs(ref).astype(np.float32))
    assert err.max() <= 3e-7
    assert ulps[np.abs(ref) >= 1e-2].max() <= 16
    assert ulps[np.abs(ref) >= 1e-6].max() <= 64
    assert np.all(y[x < 0] <= 0)
    assert np.abs(t.grad - ref_grad).max() <= 5e-7
    with nc.no_grad():
        again = nc.gelu(Tensor(x)).data
    np.testing.assert_array_equal(again, y)
    infinite = nc.gelu(Tensor(np.array([np.inf, -np.inf], dtype=np.float32))).data
    np.testing.assert_array_equal(infinite, [np.inf, 0.0])


def test_gelu_float32_elementwise_bits():
    # chunk boundaries fall on other elements for a transposed layout and
    # an odd length; no element's bits may depend on where it sits
    x = np.random.default_rng(4).standard_normal((301, 257)).astype(np.float32) * 4
    y = nc.gelu(Tensor(x)).data
    np.testing.assert_array_equal(nc.gelu(Tensor(x.T)).data, y.T)
    np.testing.assert_array_equal(nc.gelu(Tensor(x.reshape(-1)[5:])).data, y.reshape(-1)[5:])


def test_gelu_float32_no_grad_allocates_only_its_output():
    x = np.random.default_rng(5).standard_normal(1 << 22).astype(np.float32)
    tracemalloc.start()
    try:
        with nc.no_grad():
            nc.gelu(Tensor(x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes + (1 << 20)


# shapes spanning several query blocks once ATTENTION_BLOCK is shrunk to 600
# score elements; the last block is ragged, one row long in some cases
ATTENTION_BLOCK_CASES = [
    ((2, 37, 16), (2, 11, 16), 4),      # 6 rows a block, last block 1 row
    ((2, 40, 16), (2, 11, 16), 4),      # last block 4 rows
    ((1, 29, 16), (3, 11, 16), 2),      # one query set against a batch: 9 rows, last 2
    ((23, 8), (45, 8), 2),              # no leading axes: 6 rows, last 5
    ((1, 16), (5, 16), 4),              # a single query row
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("q_shape, kv_shape, heads", ATTENTION_BLOCK_CASES)
def test_attention_blocks_match_unblocked_formula(q_shape, kv_shape, heads, dtype, monkeypatch):
    rng = np.random.default_rng(len(q_shape) * 100 + q_shape[-2])
    q, k, v = (rng.standard_normal(s).astype(dtype) for s in (q_shape, kv_shape, kv_shape))
    g = rng.standard_normal(oracles.attention_unblocked(q, k, v, heads).shape).astype(dtype)

    def run(block):
        monkeypatch.setattr(nc, "ATTENTION_BLOCK", block)
        with nc.no_grad():
            frozen = nc.attention(Tensor(q), Tensor(k), Tensor(v), heads).data
        tensors = [nc.parameter(a) for a in (q, k, v)]
        out = nc.attention(*tensors, heads)
        nc.backward(nc.sum_(out * Tensor(g)))
        return frozen, out.data, [t.grad for t in tensors]

    expected = oracles.attention_unblocked(q, k, v, heads)
    frozen, tracked, grads = run(600)
    np.testing.assert_array_equal(frozen, expected)
    np.testing.assert_array_equal(tracked, expected)
    assert frozen.dtype == tracked.dtype == dtype
    for a, b in zip(grads, run(1 << 40)[2]):
        np.testing.assert_array_equal(a, b)


def test_attention_no_grad_memory_is_bounded():
    # the depth readout at eval geometry: 16 heads x 2048 queries x 1024 keys
    # make a 128 MB float32 score tensor
    rng = np.random.default_rng(6)
    q = Tensor(rng.standard_normal((1, 2048, 1024), dtype=np.float32))
    k = Tensor(rng.standard_normal((1, 1024, 1024), dtype=np.float32))
    v = Tensor(rng.standard_normal((1, 1024, 1024), dtype=np.float32))
    scores_bytes = 16 * 2048 * 1024 * 4
    tracemalloc.start()
    try:
        with nc.no_grad():
            nc.attention(q, k, v, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < scores_bytes / 4


def test_layer_norm_moments():
    # rows need variance well above eps=1e-6 for unit output variance
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 64)) * 15.0
    out = nc.layer_norm(Tensor(x)).data
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-10
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-8


def test_sigmoid_extreme_logits_finite():
    out = nc.sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
    np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)


@pytest.mark.parametrize("build, shapes", [
    (nc.add, [(3, 4), (5,)]),
    (nc.mul, [(3, 4), (5,)]),
    (lambda a, b: nc.concat([a, b], axis=0), [(3, 4), (3, 5)]),
    (lambda a: nc.reshape(a, (7, 2)), [(3, 4)]),
    (lambda a: nc.transpose(a, (0, 0, 1)), [(2, 3, 4)]),
    (lambda q, k, v: nc.attention(q, k, v, heads=2), [(3, 4), (5, 6), (5, 6)]),
    (nc.affine, [(3, 4), (4, 6), (4,)]),
])
def test_shape_mismatch_raises_descriptive_error(build, shapes):
    tensors = [Tensor(np.zeros(s)) for s in shapes]
    with pytest.raises(ShapeError) as err:
        build(*tensors)
    assert str(shapes[0]).replace(" ", "") in str(err.value).replace(" ", "")


def test_backward_rejects_non_scalar_loss():
    t = nc.parameter(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        nc.backward(t * t)


# ---------------------------------------------------------------------------
# Graph behaviour
# ---------------------------------------------------------------------------

def test_simple_square_gradient():
    x = nc.parameter(np.array([3.0]))
    loss = nc.sum_(x * x)
    nc.backward(loss)
    np.testing.assert_allclose(x.grad, [6.0])


def test_gradient_accumulates_across_reuse():
    x = nc.parameter(np.array([2.0]))
    loss = nc.sum_(x * x + x)        # d/dx = 2x + 1 = 5
    nc.backward(loss)
    np.testing.assert_allclose(x.grad, [5.0])


def test_diamond_graph_gradient():
    x = nc.parameter(np.array([1.5]))
    y = x * x
    loss = nc.sum_(y * x + y)        # x^3 + x^2 -> 3x^2 + 2x
    nc.backward(loss)
    np.testing.assert_allclose(x.grad, [3 * 1.5**2 + 2 * 1.5], rtol=1e-12)


def test_no_grad_skips_graph():
    x = nc.parameter(np.ones(3))
    with nc.no_grad():
        y = x * 2.0
    assert not y.requires_grad and y._parents == ()


def test_scalar_operand_preserves_float32():
    x = Tensor(np.ones(3, dtype=np.float32))
    assert (x * 0.5).dtype == np.float32
    assert (x + 1.0).dtype == np.float32


def test_deterministic_outputs_bitwise():
    def run():
        rng = np.random.default_rng(77)
        a = Tensor(rng.standard_normal((16, 16)))
        b = Tensor(rng.standard_normal((16, 16)))
        out = nc.attention(a, b, nc.affine(a, b, np.zeros(16)), heads=4)
        return nc.mean(nc.gelu(out)).data.copy()
    assert np.array_equal(run(), run())


def test_layer_norm_gradient_on_4x8_random():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 8))
    w = rng.standard_normal((4, 8))
    t = nc.parameter(x)
    loss = nc.sum_(nc.layer_norm(t) * Tensor(w))
    nc.backward(loss)

    def scalar(a):
        with nc.no_grad():
            return float((nc.layer_norm(Tensor(a)).data * w).sum())

    fd = oracles.finite_diff_grad(scalar, [x], 0)
    assert oracles.rel_err(t.grad, fd) < 1e-4


# ---------------------------------------------------------------------------
# Backward consumes the graph: leaves keep their gradients, op results drop
# theirs, and first contributions are kept without a copy when nothing else
# can see them.
# ---------------------------------------------------------------------------

def test_backward_keeps_leaf_grads_and_drops_op_result_grads():
    x = nc.parameter(np.array([1.5, -2.0]))
    y = x * x
    loss = nc.sum_(y * x + y)
    nc.backward(loss)
    np.testing.assert_allclose(x.grad, 3 * x.data ** 2 + 2 * x.data, rtol=1e-12)
    assert y.grad is None and loss.grad is None


def test_backward_twice_through_the_same_loss_raises():
    x = nc.parameter(np.array([3.0, 4.0]))
    loss = nc.sum_(x * x)
    nc.backward(loss)
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="backward: the graph was already consumed"):
        nc.backward(loss)
    np.testing.assert_array_equal(x.grad, first)


def test_backward_through_a_consumed_intermediate_raises_before_any_gradient_moves():
    x = nc.parameter(np.array([1.0, 2.0]))
    w = nc.parameter(np.array([0.5, -1.0]))
    shared = nc.gelu(x)
    nc.backward(nc.sum_(shared * shared))
    first = x.grad.copy()
    # w is reached before the consumed node, but the walk checks the whole graph first
    with pytest.raises(RuntimeError, match="consumed"):
        nc.backward(nc.sum_(shared * w))
    np.testing.assert_array_equal(x.grad, first)
    assert w.grad is None


def test_fresh_forward_on_the_same_parameters_accumulates():
    x = nc.parameter(np.array([0.3, -1.2, 2.0]))
    nc.backward(nc.sum_(nc.sigmoid(x) * x))
    once = x.grad.copy()
    nc.backward(nc.sum_(nc.sigmoid(x) * x))
    np.testing.assert_array_equal(x.grad, once + once)


def test_backward_memory_follows_the_walk_not_the_graph():
    # a walk that kept every op result's gradient would hold 32 of 4 MB here
    rng = np.random.default_rng(9)
    x = nc.parameter(rng.standard_normal(1 << 20, dtype=np.float32))
    c = Tensor(np.full(1 << 20, 0.5, dtype=np.float32))
    y = x
    for i in range(32):
        y = (y * c, y + c, nc.sigmoid(y), nc.gelu(y))[i % 4]
    loss = nc.sum_(y)
    tracemalloc.start()
    try:
        nc.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x.shape
    assert peak < 4 * x.data.nbytes


def _libc_has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    return True


@pytest.mark.skipif(not _libc_has_mallopt(), reason="the C library has no mallopt")
def test_a_repeated_step_reuses_the_memory_it_freed():
    # importing stmae keeps freed memory in the process, so the second run of a
    # graph reuses the first run's pages; returned to the kernel, every array of
    # the run would be faulted back in (tens of thousands of pages here)
    x = nc.parameter(np.random.default_rng(9).standard_normal(1 << 20, dtype=np.float32))

    def step():
        y = x
        for _ in range(16):
            y = nc.gelu(y * 0.5 + 1.0)
        nc.backward(nc.sum_(y))
        x.grad = None

    step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < x.data.nbytes // resource.getpagesize()


def test_backward_hands_pass_through_gradients_over():
    # each add hands its gradient to the reshape branch, and each reshape hands
    # its gradient on as a view: a walk that copied them held 3 arrays here
    x = nc.parameter(np.random.default_rng(9).standard_normal(1 << 20, dtype=np.float32))
    y = x
    for _ in range(8):
        y = y + nc.reshape(nc.reshape(y, (1024, 1024)), (1 << 20,))
    loss = nc.sum_(y)
    tracemalloc.start()
    try:
        nc.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(x.grad, np.full(x.shape, 2.0 ** 8, dtype=np.float32))
    assert peak < 2.5 * x.data.nbytes


def _residual_chain(x, w):
    """Residual blocks: pass-through adds and subs around reshape views."""
    y = x
    for _ in range(3):
        y = y + nc.reshape(nc.affine(nc.reshape(y, (2, 2, 6)), w, np.zeros(6, w.dtype)), (4, 6))
        y = nc.gelu(y) - y
    return y


# Graphs that hand one array to two parents, or hand over views of the
# incoming gradient; each maps leaf shapes to an output.
ALIASING_CASES = {
    "x+x": (lambda x: x + x, [(3, 4)]),
    "add": (nc.add, [(3, 4), (3, 4)]),
    "sub": (nc.sub, [(3, 4), (3, 4)]),
    "add-broadcast-self": (lambda x: x + nc.sum_(x, axis=0), [(4, 4)]),
    "reshape-transpose-slice": (lambda x: nc.transpose(nc.reshape(x, (4, 6)), (1, 0))[1:5, ::2],
                                [(2, 12)]),
    "reshape-of-self": (lambda x: nc.reshape(x, (3, 4)) * nc.reshape(x, (3, 4)), [(12,)]),
    "concat-self": (lambda x: nc.concat([x, x], axis=1), [(3, 2)]),
    "concat-self-rows": (lambda x: nc.concat([x, x, x], axis=0), [(2, 3)]),
    "attention-self": (lambda x: nc.attention(x, x, x, heads=2), [(2, 5, 4)]),
    "affine-shared": (lambda x, b: nc.affine(x, x, b), [(4, 4), (4,)]),
    # attention's k gradient comes out column-major; summed for the bias in that
    # layout it would take other bits than the row-major copy gives
    "attention-affine-keys": (lambda x, w, b: nc.attention(x, nc.affine(x, w, b), x, heads=2),
                              [(24, 8), (8, 8), (8,)]),
    "affine-shared-bias": (lambda x, w, b: nc.affine(x, w, b) + b, [(2, 3, 4), (4, 5), (5,)]),
    "mean-sum": (lambda x: nc.mean(x, axis=0, keepdims=True) * nc.sum_(x, axis=1, keepdims=True),
                 [(3, 4)]),
    "mean-sum-all": (lambda x: nc.mean(x) * nc.sum_(x) + x, [(3, 4)]),
    "sum-axis": (lambda x: nc.sum_(x, axis=1), [(3, 4)]),
    "residual-chain": (_residual_chain, [(4, 6), (6, 6)]),
}


@pytest.mark.parametrize("weighted", [False, True], ids=["sum", "weighted"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(ALIASING_CASES))
def test_backward_owns_each_leaf_gradient(name, dtype, weighted):
    build, shapes = ALIASING_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]

    def run(walk):
        leaves = [nc.parameter(a.copy()) for a in arrays]
        out = build(*leaves)
        weights = np.random.default_rng(1).standard_normal(out.shape).astype(dtype)
        walk(nc.sum_(out * Tensor(weights)) if weighted else nc.sum_(out))
        return leaves

    leaves = run(nc.backward)
    reference = run(oracles.backward_copying)
    for leaf, ref in zip(leaves, reference):
        assert leaf.grad.dtype == ref.grad.dtype and leaf.grad.shape == ref.grad.shape
        np.testing.assert_array_equal(leaf.grad, ref.grad)
        assert leaf.grad.flags.writeable
    held = [leaf.grad for leaf in leaves] + [leaf.data for leaf in leaves]
    for i, grad in enumerate(held[:len(leaves)]):
        for other in held[i + 1:]:
            assert not np.shares_memory(grad, other), name
