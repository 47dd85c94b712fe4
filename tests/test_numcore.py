"""Forward semantics and gradient checks for the autodiff core."""

import ctypes
import math
import operator
import os
import resource
import subprocess
import sys
import tracemalloc
import types
import weakref
import zlib

import numpy as np
import pytest

import oracles
from stmae import numcore as nc
from stmae.numcore import ShapeError, Tensor

SEEDS = range(20)
F32, F64 = np.float32, np.float64


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


# the constant target of the squared-error case, taken at the input's dtype
SQUARED_ERROR_TARGET = np.random.default_rng(0).standard_normal((3, 4))

OP_CASES = {
    "add": _case(nc.add, (3, 4), (4,)),
    "sub": _case(nc.sub, (3, 4), (3, 1)),
    "mul": _case(nc.mul, (2, 3, 4), (4,)),
    "squared_error": _case(lambda a: nc.squared_error(a, SQUARED_ERROR_TARGET.astype(a.dtype)),
                           (3, 4)),
    "neg": _case(nc.neg, (3, 4)),
    "affine": _case(nc.affine, (2, 3, 4), (4, 5), (5,)),
    "concat": _case(lambda a, b: nc.concat([a, b], axis=1), (3, 2), (3, 4)),
    "slice": _case(lambda a: a[1:3, ::2], (4, 6)),
    "gather": _case(lambda a: nc.gather(a, np.array([0, 2, 2, 1])), (4, 5)),
    "transpose": _case(lambda a: nc.transpose(a, (2, 0, 1)), (2, 3, 4)),
    "reshape": _case(lambda a: nc.reshape(a, (2, 6)), (3, 4)),
    "layer_norm": _case(nc.layer_norm, (4, 8), (8,), (8,)),
    "attention": _case(lambda q, k, v: nc.attention(q, k, v, heads=2), (2, 3, 4), (2, 5, 4), (2, 5, 4)),
    "log_softmax": _case(nc.log_softmax, (3, 5)),
    "mlp": _case(nc.mlp, (2, 3, 4), (4, 6), (6,), (6, 5), (5,)),
    "sigmoid": _case(nc.sigmoid, (3, 4)),
    "softplus": _case(nc.softplus, (3, 4)),
    "huber": _case(lambda a: nc.huber(a, delta=1.0), (3, 4), transform=_away_from(1.0, 1e-3)),
    "sum": _case(lambda a: nc.sum_(a, axis=1), (3, 4)),
    "mean": _case(nc.mean, (3, 4)),
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

@pytest.mark.parametrize("dtypes", [(np.float32,) * 3, (np.float64,) * 3])
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
    assert len(out._node.edges) == 3 and all(t in fused for t, _ in out._node.edges)
    nc.backward(nc.sum_(out * Tensor(weights)))
    # the VJPs of the product, its leading axis summed for w, and of the broadcast add
    g = np.ones(ref.shape, ref.dtype) * weights
    expected = [g @ w.T, (x.swapaxes(-1, -2) @ g).sum(axis=0), g.sum(axis=(0, 1))]
    for t, e in zip(fused, expected):
        assert t.grad.dtype == e.dtype
        np.testing.assert_array_equal(t.grad, e)


def _gelu(x, slope=False):
    """GELU(x) through the kernel into a fresh output, and its slope if asked."""
    y = np.empty(x.shape, x.dtype)
    s = np.empty(x.shape, x.dtype) if slope else None
    nc._gelu_into(x, y, s)
    return (y, s) if slope else y


def test_gelu_matches_scalar_reference():
    xs = np.array([v * s for v in (0.1, 0.5, 1.0, 1.7, 2.4, 3.0) for s in (1, -1)])
    expected = [oracles.gelu_scalar(float(x)) for x in xs]
    np.testing.assert_allclose(_gelu(xs), expected, rtol=0, atol=1e-14)


def test_gelu_float32_accuracy():
    x = np.linspace(-12.0, 12.0, 2_000_001, dtype=np.float32)
    ref, ref_grad = oracles.gelu_float64(x)
    y, slope = _gelu(x, slope=True)
    assert y.dtype == np.float32 and slope.dtype == np.float32
    err = np.abs(y.astype(np.float64) - ref)
    ulps = err / np.spacing(np.abs(ref).astype(np.float32))
    assert err.max() <= 3e-7
    assert ulps[np.abs(ref) >= 1e-2].max() <= 16
    assert ulps[np.abs(ref) >= 1e-6].max() <= 64
    assert np.all(y[x < 0] <= 0)
    assert np.abs(slope - ref_grad).max() <= 5e-7
    np.testing.assert_array_equal(_gelu(x), y)
    infinite = _gelu(np.array([np.inf, -np.inf], dtype=np.float32))
    np.testing.assert_array_equal(infinite, [np.inf, 0.0])


def test_gelu_float32_elementwise_bits():
    # chunk boundaries fall on other elements for a transposed layout and
    # an odd length; no element's bits may depend on where it sits
    x = np.random.default_rng(4).standard_normal((301, 257)).astype(np.float32) * 4
    y = _gelu(x)
    np.testing.assert_array_equal(_gelu(x.T), y.T)
    np.testing.assert_array_equal(_gelu(x.reshape(-1)[5:]), y.reshape(-1)[5:])


@pytest.mark.parametrize("in_place", [False, True], ids=["out-of-place", "in-place"])
def test_gelu_float32_allocates_only_chunk_scratch(in_place):
    x = np.random.default_rng(5).standard_normal(1 << 22).astype(np.float32)
    tracemalloc.start()
    try:
        nc._gelu_into(x, x if in_place else np.empty_like(x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (0 if in_place else x.nbytes) + (1 << 20)


@pytest.mark.parametrize("with_slope", [False, True], ids=["value", "value-and-slope"])
@pytest.mark.parametrize("dtype", [F32, F64])
def test_gelu_in_place_has_the_out_of_place_bits(dtype, with_slope):
    # three chunks and a ragged fourth, with ±inf, ±0 and both tails in the last
    x = np.random.default_rng(6).standard_normal(3 * nc._CHUNK + 777).astype(dtype) * 6
    x[-6:] = [np.inf, -np.inf, 0.0, -0.0, 70.0, -70.0]
    y, slope = _gelu(x, slope=True)
    inplace = x.copy()
    inplace_slope = np.empty_like(x) if with_slope else None
    nc._gelu_into(inplace, inplace, inplace_slope)
    np.testing.assert_array_equal(inplace.view(np.uint8), y.view(np.uint8))
    if with_slope:
        np.testing.assert_array_equal(inplace_slope.view(np.uint8), slope.view(np.uint8))


# (rows n, elements a row, BLOCK, block sizes): rows a block are
# max(8, BLOCK // row size), and a last block under 8 rows joins the one before
ROW_BLOCK_CASES = [
    (0, 8, 64, [0]),                    # no rows: one empty block
    (1, 8, 64, [1]),                    # a single row
    (7, 8, 8, [7]),                     # under 8 rows: one block
    (9, 8, 16, [9]),                    # 8 rows a block, the last row joins the first
    (37, 96, 600, [8, 8, 8, 13]),       # at least 8 rows a block, last 5 rows joined
    (40, 96, 600, [8, 8, 8, 8, 8]),
    (2049, 1024, 1 << 21, [2049]),      # 2048 rows a block, the last row joined
    (1030, 64, 1 << 14, [256, 256, 256, 262]),
    (538, 1, 1 << 40, [538]),           # one block
    (5, 0, 64, [5]),                    # empty rows count as one element
]


@pytest.mark.parametrize("n, row_size, block, sizes", ROW_BLOCK_CASES)
def test_row_blocks_are_disjoint_and_none_is_under_eight_rows(n, row_size, block, sizes,
                                                               monkeypatch):
    monkeypatch.setattr(nc, "BLOCK", block)
    blocks = nc._row_blocks(n, row_size)
    assert [b.stop - b.start for b in blocks] == sizes
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(b.start == a.stop for a, b in zip(blocks, blocks[1:]))


# shapes spanning several query blocks once BLOCK is shrunk to 600 score
# elements; blocks are at least 8 rows, and a shorter last block joins the one before
ATTENTION_BLOCK_CASES = [
    ((2, 37, 16), (2, 11, 16), 4),      # 8 rows a block, the last 5 rows joined
    ((2, 40, 16), (2, 11, 16), 4),      # five blocks of 8 rows
    ((1, 29, 16), (3, 11, 16), 2),      # one query set against a batch: 9 rows, last 2 joined
    ((23, 8), (45, 8), 2),              # no leading axes: 8 rows, last 7 joined
    ((1, 16), (5, 16), 4),              # a single query row
]
# score elements up to which attention runs all heads in one pass: 0 runs
# one head at a time, as at the larger workload shapes, and 2**16 every head at once
GROUP_SCORES = [0, 1 << 16]


@pytest.mark.parametrize("group_scores", GROUP_SCORES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("q_shape, kv_shape, heads", ATTENTION_BLOCK_CASES)
def test_attention_blocks_match_unblocked_formula(q_shape, kv_shape, heads, dtype, group_scores,
                                                  monkeypatch):
    monkeypatch.setattr(nc, "_GROUP_SCORES", group_scores)
    rng = np.random.default_rng(len(q_shape) * 100 + q_shape[-2])
    q, k, v = (rng.standard_normal(s).astype(dtype) for s in (q_shape, kv_shape, kv_shape))
    g = rng.standard_normal(oracles.attention_unblocked(q, k, v, heads).shape).astype(dtype)

    def run(block):
        monkeypatch.setattr(nc, "BLOCK", block)
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
    # make a 128 MB float32 score tensor; one head's row block takes 512 KB
    rng = np.random.default_rng(6)
    q = Tensor(rng.standard_normal((1, 2048, 1024), dtype=np.float32))
    k = Tensor(rng.standard_normal((1, 1024, 1024), dtype=np.float32))
    v = Tensor(rng.standard_normal((1, 1024, 1024), dtype=np.float32))
    tracemalloc.start()
    try:
        with nc.no_grad():
            out = nc.attention(q, k, v, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.data.nbytes + 2 ** 21


# (q shape, k and v shape, heads) with a gradient: the pretrain latent
# tokens, the probe depth head over two clips, the depth head at eval size
HELD_BACKWARD_CASES = {
    "pretrain-latent": ((538, 256), (538, 256), 8),
    "probe-depth": ((1, 512, 384), (2, 256, 384), 16),
    "eval-depth": ((1, 2048, 1024), (1, 1024, 1024), 16),
}


@pytest.mark.parametrize("q_shape, kv_shape, heads", HELD_BACKWARD_CASES.values(),
                         ids=HELD_BACKWARD_CASES)
def test_attention_backward_holds_one_head_at_a_time(q_shape, kv_shape, heads):
    # every head's weights and score gradient would take 2 x 8.8, 2 x 16 and
    # 2 x 128 MB during backward. The bound is one head's two (..., nq, nk)
    # arrays, the q gradient at full leading shape before its reduction
    # (larger than q when q broadcasts) and 1 MB
    rng = np.random.default_rng(8)
    q, k, v = (nc.parameter(rng.standard_normal(s, dtype=np.float32))
               for s in (q_shape, kv_shape, kv_shape))
    out = nc.attention(q, k, v, heads)
    loss = nc.sum_(out * Tensor(rng.standard_normal(out.shape, dtype=np.float32)))
    head_scores_bytes = out.data.nbytes // q_shape[-1] * kv_shape[-2]
    tracemalloc.start()
    try:
        nc.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the walk holds the output's gradient while attention's VJPs run
    held = peak - sum(t.grad.nbytes for t in (q, k, v)) - out.data.nbytes
    assert held < 2 * head_scores_bytes + (out.data.nbytes - q.data.nbytes) + (1 << 20)


def test_attention_backward_holds_one_group_of_small_scores():
    # 4 clips x 4 heads x 64 queries x 64 keys make 2**16 score elements, so
    # every head runs in one pass: backward holds all heads' weights and score
    # gradient, two 2**16-element float64 arrays of 512 KB, besides the gradients
    rng = np.random.default_rng(9)
    q, k, v = (nc.parameter(rng.standard_normal((4, 64, 32))) for _ in range(3))
    out = nc.attention(q, k, v, 4)
    loss = nc.sum_(out * Tensor(rng.standard_normal(out.shape)))
    tracemalloc.start()
    try:
        nc.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = peak - sum(t.grad.nbytes for t in (q, k, v)) - out.data.nbytes
    assert held < 2 * nc._GROUP_SCORES * 8 + (1 << 20)


# dtypes of (q, k, v)
ATTENTION_DTYPES = [(F32,) * 3, (F64,) * 3]
ATTENTION_GRAD_SUBSETS = [(0, 1, 2), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize("group_scores", GROUP_SCORES)
@pytest.mark.parametrize("block", [600, 1 << 40])
@pytest.mark.parametrize("dtypes", ATTENTION_DTYPES)
@pytest.mark.parametrize("q_shape, kv_shape, heads", ATTENTION_BLOCK_CASES)
def test_attention_is_the_kept_weights_attention_bitwise(q_shape, kv_shape, heads, dtypes, block,
                                                          group_scores, monkeypatch):
    rng = np.random.default_rng(len(q_shape) * 100 + q_shape[-2])
    shapes = (q_shape, kv_shape, kv_shape)
    q, k, v = (rng.standard_normal(s).astype(d) for s, d in zip(shapes, dtypes))
    monkeypatch.setattr(nc, "BLOCK", block)
    monkeypatch.setattr(nc, "_GROUP_SCORES", group_scores)
    expected, _ = oracles.attention_kept_weights(q, k, v, heads, None, ())
    g = rng.standard_normal(expected.shape).astype(expected.dtype)
    for subset in ATTENTION_GRAD_SUBSETS:
        _, ref_grads = oracles.attention_kept_weights(q, k, v, heads, g, subset)
        tensors = [nc.parameter(a) if i in subset else Tensor(a) for i, a in enumerate((q, k, v))]
        out = nc.attention(*tensors, heads)
        assert out.dtype == expected.dtype
        np.testing.assert_array_equal(out.data, expected)
        nc.backward(nc.sum_(out * Tensor(g)))
        for i in subset:
            where = f"input {i} of {subset}"
            assert tensors[i].grad.dtype == ref_grads[i].dtype, where
            np.testing.assert_array_equal(tensors[i].grad, ref_grads[i], err_msg=where)


# self-attention inputs (x shape, heads) spanning several blocks at BLOCK 600
SELF_ATTENTION_CASES = [((2, 37, 16), 4), ((23, 8), 2), ((1, 16), 4)]


@pytest.mark.parametrize("block", [600, 1 << 40])
@pytest.mark.parametrize("x_shape, heads", SELF_ATTENTION_CASES)
def test_attention_of_one_tensor_sums_its_three_gradients_bitwise(x_shape, heads, block,
                                                                   monkeypatch):
    # q, k and v share one leaf: its gradient adds the three the op writes, in
    # order, and no gradient array of the op is another's view
    rng = np.random.default_rng(x_shape[-2])
    a = rng.standard_normal(x_shape, dtype=np.float32)
    monkeypatch.setattr(nc, "BLOCK", block)
    g = rng.standard_normal(x_shape, dtype=np.float32)
    apart = [nc.parameter(a) for _ in range(3)]
    nc.backward(nc.sum_(nc.attention(*apart, heads) * Tensor(g)))
    x = nc.parameter(a)
    nc.backward(nc.sum_(nc.attention(x, x, x, heads) * Tensor(g)))
    np.testing.assert_array_equal(x.grad, apart[0].grad + apart[1].grad + apart[2].grad)


# every attention call the three benchmark workloads make (q shape, k and v
# shape, heads, whether a gradient is taken), float32; a product's bits can
# depend on its row count, so each runs with the production row plan
ATTENTION_BENCH_CASES = {
    "pretrain-visible": ((26, 256), (26, 256), 8, True),            # encoder on visible tokens
    "pretrain-latent": ((538, 256), (538, 256), 8, True),           # encoder with the mask tokens
    "probe-class": ((1, 1, 384), (2, 256, 384), 12, True),          # learned query over two clips
    "probe-pose": ((1, 1, 256), (2, 16, 256), 8, True),
    "probe-point": ((2, 96, 384), (2, 256, 384), 8, True),          # query MLP over coordinates
    "probe-box": ((2, 3, 384), (2, 256, 384), 4, True),
    "probe-depth": ((1, 512, 384), (2, 256, 384), 16, True),
    "probe-features": ((256, 256), (256, 256), 8, False),           # frozen encoder
    "eval-features": ((1024, 256), (1024, 256), 8, False),
    "eval-class": ((1, 1, 768), (1, 1024, 768), 12, False),         # published head sizes
    "eval-pose": ((1, 1, 256), (1, 64, 256), 8, False),
    "eval-point": ((1, 96, 1024), (1, 1024, 1024), 8, False),
    "eval-box": ((1, 3, 1024), (1, 1024, 1024), 4, False),
    "eval-depth": ((1, 2048, 1024), (1, 1024, 1024), 16, False),
}


@pytest.mark.parametrize("q_shape, kv_shape, heads, grad", ATTENTION_BENCH_CASES.values(),
                         ids=ATTENTION_BENCH_CASES)
def test_attention_keeps_the_row_blocks_bits_at_bench_shapes(q_shape, kv_shape, heads, grad):
    rng = np.random.default_rng(q_shape[-2])
    q, k, v = (rng.standard_normal(s, dtype=np.float32) for s in (q_shape, kv_shape, kv_shape))
    lead = np.broadcast_shapes(q_shape[:-2], kv_shape[:-2])
    rows = max(8, nc.BLOCK // (math.prod(lead) * heads * kv_shape[-2]))
    if not grad:
        expected, _ = oracles.attention_kept_weights(q, k, v, heads, None, (), rows)
        with nc.no_grad():
            np.testing.assert_array_equal(nc.attention(q, k, v, heads).data, expected)
        return
    g = rng.standard_normal(lead + q_shape[-2:], dtype=np.float32)
    expected, ref_grads = oracles.attention_kept_weights(q, k, v, heads, g, (0, 1, 2), rows)
    tensors = [nc.parameter(a) for a in (q, k, v)]
    out = nc.attention(*tensors, heads)
    np.testing.assert_array_equal(out.data, expected)
    nc.backward(nc.sum_(out * Tensor(g)))
    for i, t in enumerate(tensors):
        np.testing.assert_array_equal(t.grad, ref_grads[i], err_msg=f"input {i}")


ATTENTION_GRAD_CASES = {name: case[:3] for name, case in ATTENTION_BENCH_CASES.items()
                        if case[3]}


@pytest.mark.parametrize("q_shape, kv_shape, heads", ATTENTION_GRAD_CASES.values(),
                         ids=ATTENTION_GRAD_CASES)
def test_attention_row_term_from_the_output_is_the_weights_sum_float64(q_shape, kv_shape, heads):
    # each row's D = g · o is rowsum(gs * s) in exact arithmetic, o being s v
    # and gs = g vᵀ; in float64 the two forms' gradients agree to 1e-12
    rng = np.random.default_rng(q_shape[-2])
    q, k, v = (rng.standard_normal(s) for s in (q_shape, kv_shape, kv_shape))
    lead = np.broadcast_shapes(q_shape[:-2], kv_shape[:-2])
    g = rng.standard_normal(lead + q_shape[-2:])
    _, from_output = oracles.attention_kept_weights(q, k, v, heads, g, (0, 1, 2))
    _, from_weights = oracles.attention_kept_weights(q, k, v, heads, g, (0, 1, 2),
                                                     weights_row_term=True)
    for i in range(3):
        error = np.abs(from_output[i] - from_weights[i]).max()
        assert error <= 1e-12 * np.abs(from_weights[i]).max(), f"input {i}"


def test_attention_with_grad_keeps_row_statistics_and_output():
    # the depth readout at eval geometry with a gradient to take: its weights
    # would be a 128 MB float32 array; each row's max and sum take 256 KB, and
    # the output backward reads is the one the caller holds
    rng = np.random.default_rng(7)
    q = nc.parameter(rng.standard_normal((1, 2048, 1024), dtype=np.float32))
    k = nc.parameter(rng.standard_normal((1, 1024, 1024), dtype=np.float32))
    v = nc.parameter(rng.standard_normal((1, 1024, 1024), dtype=np.float32))
    tracemalloc.start()
    try:
        out = nc.attention(q, k, v, 16)
        held = tracemalloc.get_traced_memory()[0] - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert held < 2 ** 20


def test_float32_model_code_loads_no_scipy_special():
    # scipy.special (and its own BLAS) is imported only by a float64 GELU
    code = ("import sys, numpy as np, stmae.mae, stmae.readout, stmae.metrics; "
            "from stmae import numcore as nc; x = np.ones(3, np.float32); nc._gelu_into(x, x); "
            "print('scipy.special' in sys.modules, end=' '); "
            "x = np.ones(3); nc._gelu_into(x, x); print('scipy.special' in sys.modules)")
    src = os.path.dirname(os.path.dirname(nc.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.stdout.split() == ["False", "True"]


# inputs that take a gradient, by index into (x, w1, b1, w2, b2)
MLP_GRAD_SUBSETS = [(0, 1, 2, 3, 4), (0,), (1, 2), (3, 4), (4,), (0, 3), (2,),
                    (1, 2, 3, 4)]     # a constant x: the readouts' query MLPs
# (x shape, hidden, output width, BLOCK, gradient subsets): 2-d and batched
# inputs whose rows span several blocks once BLOCK is shrunk, and inputs a
# few rows past one default block of 2048 rows at hidden 1024, where a last
# block of 2 or 3 rows would take other OpenBLAS kernels than the single pass
MLP_BLOCK_CASES = [
    ((37, 8), 12, 5, 96, MLP_GRAD_SUBSETS),             # 8 rows a block, last 5 joined
    ((2, 37, 8), 12, 5, 240, MLP_GRAD_SUBSETS),         # 10 rows over both leading rows, last 7
    ((2, 40, 8), 12, 5, 192, MLP_GRAD_SUBSETS),         # five blocks of 8 rows
    ((1, 29, 8), 12, 5, 36, MLP_GRAD_SUBSETS),          # at least 8 rows a block, last 5
    ((2, 1, 8), 12, 5, 144, MLP_GRAD_SUBSETS),          # a single row
    ((2, 3, 37, 8), 12, 5, 1 << 40, MLP_GRAD_SUBSETS),  # two leading axes, one block
    ((1, 2049, 256), 1024, 256, nc.BLOCK, MLP_GRAD_SUBSETS[:1]),
    ((1, 2049, 128), 1024, 128, nc.BLOCK, MLP_GRAD_SUBSETS[:1]),
    ((1, 2050, 128), 1024, 128, nc.BLOCK, MLP_GRAD_SUBSETS[:1]),
    ((1, 2051, 128), 1024, 128, nc.BLOCK, MLP_GRAD_SUBSETS[:1]),
]


# dtypes of (x, w1, b1, w2, b2)
@pytest.mark.parametrize("dtypes", [(F32,) * 5, (F64,) * 5])
@pytest.mark.parametrize("x_shape, hidden, width, block, subsets", MLP_BLOCK_CASES)
def test_mlp_is_the_chain_bitwise(x_shape, hidden, width, block, subsets, dtypes, monkeypatch):
    rng = np.random.default_rng(x_shape[-2] * 10 + len(x_shape))
    k = x_shape[-1]
    shapes = [x_shape, (k, hidden), (hidden,), (hidden, width), (width,)]
    arrays = [(rng.standard_normal(s) * 2).astype(d) for s, d in zip(shapes, dtypes)]
    monkeypatch.setattr(nc, "BLOCK", block)
    with nc.no_grad():
        expected = oracles.mlp_chain(*arrays).data
        frozen = nc.mlp(*arrays).data
    assert frozen.dtype == expected.dtype
    np.testing.assert_array_equal(frozen, expected)
    g = rng.standard_normal(expected.shape).astype(expected.dtype)
    for subset in subsets:
        runs = []
        for build in (nc.mlp, oracles.mlp_chain):
            tensors = [nc.parameter(a) if i in subset else Tensor(a) for i, a in enumerate(arrays)]
            out = build(*tensors)
            nc.backward(nc.sum_(out * Tensor(g)))
            runs.append((out.data, [tensors[i].grad for i in subset]))
        (out, grads), (ref, ref_grads) = runs
        np.testing.assert_array_equal(out, ref)
        for i, a, b in zip(subset, grads, ref_grads):
            assert a.dtype == b.dtype, f"input {i} of {subset}"
            np.testing.assert_array_equal(a, b, err_msg=f"input {i} of {subset}")


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
def test_mlp_matches_float64_reference(dtype, tol):
    rng = np.random.default_rng(8)
    arrays = [rng.standard_normal(s) for s in [(2, 9, 6), (6, 16), (16,), (16, 4), (4,)]]
    out = nc.mlp(*[Tensor(a.astype(dtype)) for a in arrays]).data
    ref = oracles.mlp_float64(*[a.astype(dtype) for a in arrays])
    np.testing.assert_allclose(out, ref, rtol=tol, atol=tol)


def test_mlp_is_one_node_with_an_edge_per_input():
    rng = np.random.default_rng(9)
    tensors = [nc.parameter(rng.standard_normal(s)) for s in [(3, 4), (4, 6), (6,), (6, 2), (2,)]]
    out = nc.mlp(*tensors)
    assert [t for t, _ in out._node.edges] == tensors


def test_mlp_no_grad_memory_is_bounded():
    # the depth readout's MLP at eval geometry: 2048 queries, width 1024,
    # hidden 4096; one float32 hidden tensor is 32 MB and the chain peaks
    # at about 72 MB above its inputs. The op holds its 8 MB output and one
    # 8 MB scratch block of 512 hidden rows, plus GELU's chunk scratch
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((1, 2048, 1024), dtype=np.float32))
    w1 = Tensor(rng.standard_normal((1024, 4096), dtype=np.float32) * 0.02)
    b1 = Tensor(np.zeros(4096, np.float32))
    w2 = Tensor(rng.standard_normal((4096, 1024), dtype=np.float32) * 0.02)
    b2 = Tensor(np.zeros(1024, np.float32))
    block_bytes = max(8, nc.BLOCK // 4096) * 4096 * 4
    tracemalloc.start()
    try:
        with nc.no_grad():
            out = nc.mlp(x, w1, b1, w2, b2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.data.nbytes + block_bytes + (1 << 20)


def test_mlp_backward_reuses_the_activation_and_stacks_no_weight_gradients():
    # the probe depth head's MLP, (2, 512, 384) -> 1536 -> 384 in float32: the
    # hidden gradient goes over the kept activation, and each weight gradient
    # is two (k, m) arrays, the sum and one leading index's product. The
    # bound is what backward hands out (the loss's output gradient and the
    # five input gradients) plus one w-sized product and 1 MB; a 6 MB
    # (2, 512, 1536) hidden gradient or a 4.5 MB (2, k, m) stack breaks it
    rng = np.random.default_rng(11)
    shapes = [(2, 512, 384), (384, 1536), (1536,), (1536, 384), (384,)]
    params = [nc.parameter(rng.standard_normal(s, dtype=np.float32) * 0.05) for s in shapes]
    out = nc.mlp(*params)
    loss = nc.sum_(out * Tensor(rng.standard_normal(out.shape, dtype=np.float32)))
    handed_out = out.data.nbytes + sum(p.data.nbytes for p in params)
    tracemalloc.start()
    try:
        nc.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [p.grad.shape for p in params] == shapes
    assert peak < handed_out + params[1].data.nbytes + (1 << 20)


@pytest.mark.parametrize("dtype", [F32, F64])
@pytest.mark.parametrize("lead", [(), (1,), (2,), (2, 3)], ids=str)
def test_weight_grad_is_the_summed_stack_bitwise(lead, dtype):
    rng = np.random.default_rng(len(lead) * 10 + sum(lead))
    for rows in (13, 1):                # one row per index: the class and pose heads' MLP
        a = rng.standard_normal(lead + (rows, 6)).astype(dtype)
        g = np.abs(rng.standard_normal(lead + (rows, 5))).astype(dtype)
        a[..., 0] = -0.0                # a row of -0.0 products: summing from zero gives +0.0
        stack = a.swapaxes(-1, -2) @ g
        expected = stack.sum(axis=tuple(range(len(lead)))) if lead else stack
        got = nc._weight_grad(a, g)
        assert got.shape == (6, 5) and got.dtype == dtype
        np.testing.assert_array_equal(got.view(np.uint8), expected.view(np.uint8),
                                      err_msg=f"{rows} rows")


def _assert_each_clip_is_its_lone_run(build, batched, fixed, g):
    """build(*batched, *fixed) with the (B, n, k) `batched` arrays taking a
    gradient, against build on each clip's (n, k) slices alone: each clip's
    output and gradients have the lone run's bits."""
    def run(arrays, grad):
        tensors = [nc.parameter(a) for a in arrays]
        out = build(*tensors, *fixed)
        nc.backward(nc.sum_(out * Tensor(grad)))
        return [out.data] + [t.grad for t in tensors]

    together = run(batched, g)
    for b in range(len(g)):
        alone = run([a[b] for a in batched], g[b])
        for i, (x, y) in enumerate(zip(together, alone)):
            np.testing.assert_array_equal(x[b], y, err_msg=f"clip {b}, array {i}")


# Batched clips (ROADMAP C) need each clip of a stacked (B, n, k) input to get
# the bits of that clip run alone: the kept-token counts of the workloads and
# nano, at the widths of nano, the encoder and the probe readouts
@pytest.mark.parametrize("clips", [2, 3])
@pytest.mark.parametrize("width", [64, 256, 384])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 96, 256])
@pytest.mark.parametrize("op", ["affine", "mlp"])
def test_linear_ops_give_each_clip_its_lone_bits(op, n, width, clips):
    rng = np.random.default_rng(n * 1000 + width + clips)
    x = rng.standard_normal((clips, n, width), dtype=F32)
    dims = [(width, width), (width,)] if op == "affine" else [
        (width, 4 * width), (4 * width,), (4 * width, width), (width,)]
    fixed = [Tensor(rng.standard_normal(s, dtype=F32) / math.sqrt(s[0])) for s in dims]
    g = rng.standard_normal((clips, n, width), dtype=F32)
    _assert_each_clip_is_its_lone_run(getattr(nc, op), [x], fixed, g)


# the one-block self-attention shapes: nano's 16 and 80 tokens at width 64,
# the pretrain encoder's 26 visible tokens at width 256
@pytest.mark.parametrize("clips", [2, 3])
@pytest.mark.parametrize("n, width, heads", [(16, 64, 4), (26, 256, 8), (80, 64, 4)])
def test_attention_gives_each_clip_its_lone_bits(n, width, heads, clips):
    rng = np.random.default_rng(n * 10 + clips)
    q, k, v, g = (rng.standard_normal((clips, n, width), dtype=F32) for _ in range(4))
    _assert_each_clip_is_its_lone_run(lambda q, k, v: nc.attention(q, k, v, heads),
                                      [q, k, v], [], g)


def test_layer_norm_moments():
    # rows need variance well above eps=1e-6 for unit output variance
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 64)) * 15.0
    out = nc.layer_norm(Tensor(x), np.ones(64), np.zeros(64)).data
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-10
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-8


def test_sigmoid_extreme_logits_finite():
    out = nc.sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
    np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)


@pytest.mark.parametrize("dtype, far", [(np.float32, 100.0), (np.float64, 1000.0)])
def test_softplus_slope_is_finite_at_extreme_inputs(dtype, far):
    # exp(-x) overflows below -far; the slope there is 0, without a warning
    t = nc.parameter(np.array([-far, 0.0, far], dtype))
    nc.backward(nc.sum_(nc.softplus(t)))
    np.testing.assert_array_equal(t.grad, [0.0, 0.5, 1.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_at_infinity_is_relu_with_its_slope(dtype):
    y, slope = _gelu(np.array([np.inf, -np.inf, 100.0, -100.0], dtype), slope=True)
    np.testing.assert_array_equal(y, [np.inf, 0.0, 100.0, 0.0])
    np.testing.assert_array_equal(slope, [1.0, 0.0, 1.0, 0.0])


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


ONE_DTYPE_OPS = {
    "affine": (nc.affine, [(2, 3, 4), (4, 5), (5,)]),
    "attention": (lambda q, k, v: nc.attention(q, k, v, heads=2), [(3, 4), (5, 4), (5, 4)]),
    "mlp": (nc.mlp, [(3, 4), (4, 6), (6,), (6, 2), (2,)]),
    "add": (nc.add, [(3, 4), (4,)]),
    "sub": (nc.sub, [(3, 4), (4,)]),
    "mul": (nc.mul, [(3, 4), (4,)]),
    "concat": (lambda *parts: nc.concat(parts, axis=0), [(3, 4), (1, 4), (2, 4)]),
}


# one float64 operand among float32 ones, in each position: no silent promotion
@pytest.mark.parametrize("name, odd", [(name, i) for name, (_, shapes) in ONE_DTYPE_OPS.items()
                                       for i in range(len(shapes))])
def test_op_rejects_mixed_dtypes(name, odd):
    build, shapes = ONE_DTYPE_OPS[name]
    tensors = [Tensor(np.zeros(s, F64 if i == odd else F32)) for i, s in enumerate(shapes)]
    with pytest.raises(ValueError, match=f"^{name}: ") as err:
        build(*tensors)
    assert "float32" in str(err.value) and "float64" in str(err.value)


# the operator sugar wraps only python scalars at the tensor's dtype; an array keeps its own
@pytest.mark.parametrize("name, sugar", [("add", operator.add), ("sub", operator.sub),
                                         ("mul", operator.mul)])
def test_sugar_rejects_an_array_of_another_dtype(name, sugar):
    with pytest.raises(ValueError, match=f"^{name}: operands must share one dtype, "
                                         "got a float32, b float64$"):
        sugar(Tensor(np.zeros(3, F32)), np.zeros(3, F64))
    assert sugar(Tensor(np.zeros(3, F32)), np.zeros(3, F32)).dtype == F32


@pytest.mark.parametrize("key", [np.array([0, 0, 2]), [0, 2], (slice(None), np.array([1])),
                                 np.array([True, False, True]), True])
def test_slice_rejects_advanced_keys_and_points_to_gather(key):
    x = nc.parameter(np.arange(6.0).reshape(3, 2))
    with pytest.raises(ShapeError, match=r"slice: key .* select rows with gather"):
        x[key]


def test_slice_takes_every_basic_key():
    y = nc.parameter(np.zeros((2, 3)))
    nc.backward(nc.sum_(y[np.int64(1), ..., None, 1:]))
    np.testing.assert_array_equal(y.grad, [[0.0, 0.0, 0.0], [0.0, 1.0, 1.0]])


def test_backward_rejects_non_scalar_loss():
    t = nc.parameter(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        nc.backward(t * t)


def test_backward_rejects_a_loss_without_a_graph():
    w = nc.parameter(np.ones(3, np.float32))
    with nc.no_grad():
        under_no_grad = nc.sum_(w * w)
    from_constants = nc.sum_(Tensor(np.ones(3, np.float32)) * 2.0)
    for loss in (under_no_grad, from_constants):
        with pytest.raises(ValueError, match="built under no_grad or from constants"):
            nc.backward(loss)
    assert w.grad is None
    leaf = nc.parameter(np.array(2.0, np.float32))
    nc.backward(leaf)
    nc.backward(leaf)
    assert leaf.grad == 2.0 and leaf.grad.dtype == np.float32


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


def _held(fn):
    """Everything a VJP closure holds: its cells and defaults, walked through
    nested functions and containers."""
    held, stack, seen = [], [fn], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        held.append(obj)
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
    return held


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_no_vjp_closure_holds_a_tensor(name):
    # a Tensor held by a VJP or by a rebuild pins its data until backward,
    # read or not
    build, arrays = OP_CASES[name](np.random.default_rng(0))
    out = build(*[nc.parameter(a) for a in arrays])
    assert out._node.edges
    kept = [vjp for _, vjp in out._node.edges]
    if out._rebuild is not None:
        kept.append(out._rebuild)
    for fn in kept:
        assert not [h for h in _held(fn) if isinstance(h, Tensor)], name


@pytest.mark.parametrize("consume", [
    lambda y: nc.sum_(y),
    lambda y: nc.mean(oracles.gelu_op(y)),
    lambda y: nc.sum_(nc.reshape(y, (2, 2)) + nc.transpose(nc.reshape(y, (2, 2)), (1, 0))),
], ids=["sum", "gelu-mean", "reshape-transpose-add"])
def test_an_op_result_no_vjp_reads_is_freed_when_dropped(consume):
    x = nc.parameter(np.arange(4.0))
    y = nc.add(x, Tensor(np.full(4, 0.5)))
    data = weakref.ref(y.data)
    loss = consume(y)
    del y
    assert data() is None
    nc.backward(loss)
    assert x.grad.shape == (4,)


def test_no_grad_skips_graph():
    x = nc.parameter(np.ones(3))
    with nc.no_grad():
        y = x * 2.0
    assert not y.requires_grad and y._node is None


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
        return nc.mean(oracles.gelu_op(out)).data.copy()
    assert np.array_equal(run(), run())


def test_layer_norm_gradient_on_4x8_random():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 8))
    w = rng.standard_normal((4, 8))
    scale, bias = rng.standard_normal(8), rng.standard_normal(8)
    t = nc.parameter(x)
    loss = nc.sum_(nc.layer_norm(t, scale, bias) * Tensor(w))
    nc.backward(loss)

    def scalar(a):
        with nc.no_grad():
            return float((nc.layer_norm(Tensor(a), scale, bias).data * w).sum())

    fd = oracles.finite_diff_grad(scalar, [x], 0)
    assert oracles.rel_err(t.grad, fd) < 1e-4


# ---------------------------------------------------------------------------
# The layer norm is one node, and the layers that read it rebuild its output
# ---------------------------------------------------------------------------

# an encoder block's rows at the pretrain latent geometry, the probe depth
# head's batch, and a small odd shape
@pytest.mark.parametrize("dtype", [F32, F64])
@pytest.mark.parametrize("shape", [(538, 256), (2, 512, 384), (3, 5, 7)], ids=str)
def test_layer_norm_is_the_chain_bitwise(shape, dtype):
    rng = np.random.default_rng(shape[-1])
    d = shape[-1]
    x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
    scale = (1 + rng.standard_normal(d) * 0.5).astype(dtype)
    bias = rng.standard_normal(d).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    for x_grad in (True, False):
        runs = []
        for build in (nc.layer_norm, oracles.layer_norm_chain):
            tensors = [nc.parameter(x) if x_grad else Tensor(x)] + [
                nc.parameter(a) for a in (scale, bias)]
            out = build(*tensors)
            nc.backward(nc.sum_(out * Tensor(g)))
            runs.append([out.data] + [t.grad for t in tensors if t.requires_grad])
            if build is nc.layer_norm:
                np.testing.assert_array_equal(out._rebuild(), out.data)
        names = ["output"] + ["x"] * x_grad + ["scale", "bias"]
        for name, a, b in zip(names, *runs):
            assert a.dtype == b.dtype == dtype, name
            np.testing.assert_array_equal(a, b, err_msg=f"{name}, x takes a gradient: {x_grad}")


def test_layer_norm_is_one_node_with_an_edge_per_input():
    rng = np.random.default_rng(14)
    tensors = [nc.parameter(rng.standard_normal(s)) for s in [(3, 4), (4,), (4,)]]
    out = nc.layer_norm(*tensors)
    assert [t for t, _ in out._node.edges] == tensors
    with pytest.raises(ShapeError, match="layer_norm"):
        nc.layer_norm(tensors[0], np.ones(3), np.zeros(4))
    with pytest.raises(ValueError, match="layer_norm: operands must share one dtype"):
        nc.layer_norm(tensors[0], np.ones(4, F32), np.zeros(4))


# the parameters after x of each layer that reads a norm
READER_SHAPES = {"affine": [(16, 24), (24,)], "mlp": [(16, 48), (48,), (48, 16), (16,)]}


@pytest.mark.parametrize("op", sorted(READER_SHAPES))
def test_weight_gradients_through_a_rebuilt_input_are_those_through_a_kept_copy(op):
    # the layer keeps the norm's rebuild, not its output, which is freed as
    # soon as the caller drops it; a plain input is kept as it is
    rng = np.random.default_rng(15)
    x = rng.standard_normal((2, 37, 16)).astype(F32)
    scale, bias = (rng.standard_normal(16).astype(F32) for _ in range(2))
    weights = [(rng.standard_normal(s) * 0.1).astype(F32) for s in READER_SHAPES[op]]
    g = rng.standard_normal((2, 37, weights[-1].shape[0])).astype(F32)
    runs = []
    for rebuilt in (True, False):
        normed = nc.layer_norm(nc.parameter(x), scale, bias)
        given = normed if rebuilt else Tensor(normed.data.copy())
        assert (given._rebuild is not None) == rebuilt
        data = weakref.ref(given.data)
        params = [nc.parameter(w) for w in weights]
        out = getattr(nc, op)(given, *params)
        del normed, given
        assert (data() is None) == rebuilt
        nc.backward(nc.sum_(out * Tensor(g)))
        runs.append([out.data] + [p.grad for p in params])
    for i, (a, b) in enumerate(zip(*runs)):
        np.testing.assert_array_equal(a, b, err_msg=f"{op} output or parameter {i - 1}")


def test_a_norm_read_by_an_mlp_is_held_once():
    # an encoder block's second norm and its MLP at the pretrain latent rows,
    # (538, 256) -> 1024 in float32. The MLP keeps its activation and GELU
    # slope and the norm its normalized y; the MLP rebuilds the norm's output
    # for its w1 gradient, so the graph holds one (538, 256) array for the
    # norm, where keeping the output would make two
    rng = np.random.default_rng(16)
    x = nc.parameter(rng.standard_normal((538, 256), dtype=F32))
    scale, bias = nc.parameter(np.ones(256, F32)), nc.parameter(np.zeros(256, F32))
    params = [nc.parameter(rng.standard_normal(s, dtype=F32) * 0.05)
              for s in [(256, 1024), (1024,), (1024, 256), (256,)]]
    tracemalloc.start()
    try:
        out = nc.mlp(nc.layer_norm(x, scale, bias), *params)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    hidden = 538 * 1024 * 4                 # the activation, and again the slope
    assert held < out.data.nbytes + 2 * hidden + 1.5 * x.data.nbytes
    nc.backward(nc.sum_(out))
    assert x.grad.shape == x.data.shape


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
    shared = oracles.gelu_op(x)
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
        y = (y * c, y + c, nc.sigmoid(y), oracles.gelu_op(y))[i % 4]
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
            y = oracles.gelu_op(y * 0.5 + 1.0)
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
        y = oracles.gelu_op(y) - y
    return y


def _squared_error_read_thrice(x):
    """A squared error read by two `mean`s and a `sum_`: it holds the first
    mean's read-only broadcast as its gradient, and the other two
    contributions are added to that out of place and then in place."""
    y = nc.squared_error(x, np.linspace(-1.0, 1.0, x.data.size, dtype=x.dtype).reshape(x.shape))
    return nc.mean(y) * nc.mean(y) + nc.sum_(y, axis=1)


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
    "mean-sum": (lambda x: nc.mean(x) * nc.sum_(x, axis=1), [(3, 4)]),
    "mean-sum-all": (lambda x: nc.mean(x) * nc.sum_(x) + x, [(3, 4)]),
    "sum-axis": (lambda x: nc.sum_(x, axis=1), [(3, 4)]),
    "squared-error-read-thrice": (_squared_error_read_thrice, [(3, 4)]),
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
