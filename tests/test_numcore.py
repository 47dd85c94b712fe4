"""Forward semantics and gradient checks for the autodiff core."""

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
    "matmul": _case(nc.matmul, (2, 3, 4), (4, 5)),
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

def test_matmul_identity():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 5))
    out = nc.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


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
    (nc.matmul, [(3, 4), (5, 6)]),
    (lambda a, b: nc.concat([a, b], axis=0), [(3, 4), (3, 5)]),
    (lambda a: nc.reshape(a, (7, 2)), [(3, 4)]),
    (lambda a: nc.transpose(a, (0, 0, 1)), [(2, 3, 4)]),
    (lambda q, k, v: nc.attention(q, k, v, heads=2), [(3, 4), (5, 6), (5, 6)]),
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
        out = nc.attention(a, b, nc.matmul(a, b), heads=4)
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
