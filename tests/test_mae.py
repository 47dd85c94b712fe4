"""Patch/mask arithmetic, model contracts, and trainedness-free model checks."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from stmae import numcore as nc
from stmae import mae, synthworld
from stmae.checkpoint import save_tensors
from stmae.mae import (FEATURE_FRACTIONS, MaskedVideoModel, ModelConfig, count_parameters,
                       feature_block_index, mae_loss, patchify, preset, sample_mask, unpatchify)
from stmae.readout import CrossAttentionReadout, DepthHead


def small_nano(dtype=np.float32, seed=0):
    cfg = preset("nano", input_size=(4, 32, 32))
    return MaskedVideoModel(cfg, seed=seed, dtype=dtype)


def deep_narrow(dtype=np.float32, seed=0):
    """Eight narrow blocks: the feature fractions pick blocks 2, 4, 6, 6, 7 and
    8, before and after the latents join at block 7."""
    cfg = ModelConfig(width=32, depth=8, mlp=64, heads=4, input_size=(4, 32, 32),
                      latent_layers=2)
    return MaskedVideoModel(cfg, seed=seed, dtype=dtype)


def random_clip(rng, size):
    t, h, w = size
    return rng.random((t, h, w, 3))


# ---------------------------------------------------------------------------
# Token arithmetic
# ---------------------------------------------------------------------------

def test_published_token_count():
    frames = np.zeros((16, 224, 224, 3), dtype=np.float32)
    tokens = patchify(frames, (2, 16, 16))
    assert tokens.shape == (1568, 2 * 16 * 16 * 3)


def test_small_clip_token_count():
    frames = np.zeros((4, 32, 32, 3))
    assert patchify(frames, (2, 16, 16)).shape[0] == 8


def test_patchify_rejects_non_divisible():
    with pytest.raises(ValueError):
        patchify(np.zeros((5, 32, 32, 3)), (2, 16, 16))


@pytest.mark.parametrize("size,patch", [
    ((4, 32, 32), (2, 16, 16)),
    ((8, 64, 64), (2, 16, 16)),
    ((4, 32, 32), (1, 8, 8)),
    ((6, 48, 32), (3, 16, 8)),
    ((2, 4, 16, 16, 1), (2, 8, 8)),         # a batch of one-channel maps, as depth is assembled
])
def test_unpatchify_roundtrip_identity(size, patch):
    rng = np.random.default_rng(0)
    frames = rng.random(size if len(size) > 3 else size + (3,))
    grid = tuple(s // p for s, p in zip(frames.shape[-4:-1], patch))
    np.testing.assert_array_equal(unpatchify(patchify(frames, patch), grid, patch).data, frames)


def test_mask_plan_partition_and_counts():
    kept = sample_mask(1568, 0.95, seed=3)
    assert kept.shape == (79,) and kept.dtype.kind == "i"
    np.testing.assert_array_equal(kept, np.unique(kept))           # sorted and distinct
    assert 0 <= kept[0] and kept[-1] < 1568


@pytest.mark.parametrize("ratio", [0.0, 1.0, -0.2, 1.4])
def test_mask_ratio_bounds(ratio):
    with pytest.raises(ValueError):
        sample_mask(100, ratio, seed=0)


@pytest.mark.parametrize("total, message", [
    (0, "total 0 must be >= 1"), (-4, "total -4 must be >= 1"),
    (1.5, "total 1.5 must be an integer"), (100.0, "total 100.0 must be an integer"),
    (True, "total True must be an integer")])
def test_mask_total_is_an_integer_of_at_least_one(total, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        sample_mask(total, 0.5, seed=0)


@pytest.mark.parametrize("total, ratio", [(512, 1 - 1e-12), (1, 1 - 1e-10)])
def test_mask_that_would_keep_no_token_raises(total, ratio):
    # the 1e-9 nudge floors ratio * total up to total
    with pytest.raises(ValueError, match=f"^mask ratio {re.escape(str(ratio))} keeps no token "
                                         f"of {total}$"):
        sample_mask(total, ratio, seed=0)


def test_mask_of_one_token_keeps_it():
    np.testing.assert_array_equal(sample_mask(1, 0.95, seed=0), [0])
    assert sample_mask(np.int64(4), 0.5, seed=0).shape == (2,)


def test_mask_is_uniform_without_replacement():
    # Monte-Carlo oracle: every index kept with frequency 0.05 +/- 0.01
    rng = np.random.default_rng(2024)
    counts = np.zeros(100)
    draws = 100_000
    for _ in range(draws):
        counts[sample_mask(100, 0.95, rng)] += 1
    freq = counts / draws
    assert np.all(np.abs(freq - 0.05) < 0.01)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def test_trunc_normal_matches_full_scan_reference():
    # (300, 500) spans three draw chunks, the last one ragged
    shapes = [(1,), (7,), (3, 5), (64, 64), (2, 3, 4, 5), (5000,), (300, 500)]
    for shape, seed, dtype in itertools.product(shapes, range(5), (np.float64, np.float32)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out = mae.trunc_normal(rng, shape, dtype)
        assert out.dtype == dtype
        np.testing.assert_array_equal(
            out, oracles.trunc_normal_full_scan(ref_rng, shape).astype(dtype))
        assert rng.standard_normal() == ref_rng.standard_normal()   # same draws consumed


def test_trunc_normal_makes_no_full_size_float64_array():
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        out = mae.trunc_normal(rng, (1024, 4096), np.float32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes


# ---------------------------------------------------------------------------
# Parameter accounting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,published_total", [("S", 24e6), ("B", 91e6), ("L", 310e6)])
def test_published_parameter_totals(name, published_total):
    total = count_parameters(preset(name))["total"]
    assert abs(total - published_total) / published_total < 0.05


def test_analytic_count_matches_instantiation():
    # nano, micro, and the benchmark's pretrain and probe geometries
    bench = dict(width=256, depth=4, mlp=1024, heads=8, latent_layers=2)
    for cfg in (preset("nano"), preset("micro"),
                ModelConfig(**bench, input_size=(16, 128, 128), input_patch=(2, 16, 16)),
                ModelConfig(**bench, input_size=(16, 64, 64), input_patch=(1, 16, 16))):
        assert count_parameters(cfg)["total"] == MaskedVideoModel(cfg, seed=0).num_parameters()


# a field of the wrong kind or value, as a checkpoint's JSON config could carry it
BAD_CONFIG_FIELDS = [
    ("latent_layers", 0), ("heads", 0), ("width", 0), ("input_size", (0, 64, 64)),
    ("width", "x"), ("width", True), ("width", 8.0), ("depth", None), ("latent_layers", 2.0),
    ("input_size", None), ("input_size", (16, 16)), ("input_size", [8, 64, 64, 1]),
    ("input_patch", (2, 16.0, 16)), ("input_patch", "2x16x16"),
    ("mask_ratio", True), ("mask_ratio", "0.9"), ("mask_ratio", None),
]


def test_config_invariants():
    assert preset("j").token_grid == (8, 16, 16) and preset("nano").token_grid == (4, 4, 4)
    with pytest.raises(ValueError):
        ModelConfig(width=65, depth=4, mlp=256, heads=4, input_size=(8, 64, 64))
    with pytest.raises(ValueError):
        ModelConfig(width=64, depth=4, mlp=256, heads=4, input_size=(8, 64, 64), latent_layers=5)
    with pytest.raises(ValueError, match="input_patch"):
        ModelConfig(width=64, depth=4, mlp=256, heads=4, input_size=(8, 64, 64),
                    input_patch=(3, 16, 16))
    with pytest.raises(ValueError, match="mask_ratio"):
        ModelConfig(width=64, depth=4, mlp=256, heads=4, input_size=(8, 64, 64), mask_ratio=0.0)
    for field, bad in BAD_CONFIG_FIELDS + [("input_patch", (2, 0, 16)), ("mlp", 0)]:
        with pytest.raises(ValueError, match=field):
            preset("nano", **{field: bad})
    for field, bad, message in [("width", True, "width True must be an integer"),
                                ("heads", 0, "heads 0 must be >= 1"),
                                ("input_size", [16, 16], r"input_size \[16, 16\] must be three integers")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            preset("nano", **{field: bad})


# ---------------------------------------------------------------------------
# Forward contracts
# ---------------------------------------------------------------------------

def test_reconstruction_shape_matches_clip():
    model = small_nano()
    rng = np.random.default_rng(1)
    frames = random_clip(rng, (4, 32, 32))
    kept = sample_mask(model.config.num_tokens, 0.5, seed=0)
    recon, tokens = model.reconstruct(frames, kept)
    assert tuple(recon.shape) == frames.shape
    assert tokens.shape == (len(kept) + model.config.num_tokens, model.config.width)


def test_masked_pixels_do_not_enter_forward():
    model = small_nano()
    rng = np.random.default_rng(2)
    frames = random_clip(rng, (4, 32, 32)).astype(np.float32)
    kept = sample_mask(model.config.num_tokens, 0.5, seed=1)
    masked = np.setdiff1d(np.arange(model.config.num_tokens), kept)
    with nc.no_grad():
        recon_a, _ = model.reconstruct(frames, kept)
    # scribble over every masked patch; forward output must be bit-identical
    tokens = patchify(frames, model.config.input_patch)
    tokens[masked] = rng.random(tokens[masked].shape)
    scribbled = unpatchify(tokens, model.config.token_grid, model.config.input_patch).data
    with nc.no_grad():
        recon_b, _ = model.reconstruct(scribbled, kept)
    np.testing.assert_array_equal(recon_a.data, recon_b.data)
    assert mae_loss(recon_a, frames).data != mae_loss(recon_b, scribbled).data


def test_kept_token_order_is_irrelevant():
    model = small_nano(dtype=np.float64)
    rng = np.random.default_rng(3)
    frames = random_clip(rng, (4, 32, 32))
    kept = sample_mask(model.config.num_tokens, 0.5, seed=2)
    with nc.no_grad():
        recon_a, _ = model.reconstruct(frames, kept)
        recon_b, _ = model.reconstruct(frames, rng.permutation(kept))
    np.testing.assert_allclose(recon_a.data, recon_b.data, atol=1e-10)


def test_forward_deterministic_bitwise():
    frames = random_clip(np.random.default_rng(4), (4, 32, 32))
    kept = sample_mask(8, 0.5, seed=3)

    def run():
        model = small_nano(seed=9)
        with nc.no_grad():
            recon, _ = model.reconstruct(frames, kept)
        return recon.data

    assert np.array_equal(run(), run())


def test_float32_model_keeps_float32():
    model = small_nano(dtype=np.float32)
    frames = random_clip(np.random.default_rng(16), (4, 32, 32))
    recon, _ = model.reconstruct(frames, sample_mask(8, 0.5, seed=6))
    loss = mae_loss(recon, frames)
    nc.backward(loss)
    assert recon.dtype == np.float32 and loss.dtype == np.float32
    assert {name: t.grad.dtype for name, t in model.params.items()} == {
        name: np.float32 for name in model.params}


def test_encoder_rows_track_kept_count(monkeypatch):
    # at the benchmark's pretrain geometry (26 of 512 tokens kept) only the
    # kept rows are embedded and run through the visible blocks, the latents
    # join for the last two, and only the latents are decoded
    cfg = ModelConfig(width=256, depth=4, mlp=1024, heads=8,
                      input_size=(16, 128, 128), latent_layers=2)
    model = MaskedVideoModel(cfg, seed=0)
    frames = random_clip(np.random.default_rng(5), cfg.input_size).astype(np.float32)
    kept = sample_mask(cfg.num_tokens, 0.95, seed=0)
    names = {id(t): name for name, t in model.params.items()}
    seen = []
    for op in ("affine", "attention", "mlp"):
        def spy(x, w, *rest, _real=getattr(nc, op), _op=op):
            seen.append((names.get(id(w), _op), x.shape[0]))
            return _real(x, w, *rest)
        monkeypatch.setattr(nc, op, spy)
    with nc.no_grad():
        model.reconstruct(frames, kept)
    n = len(kept)
    expected = [("patch_embed.weight", n)]
    for i in range(cfg.depth):
        rows = n if i < cfg.depth - cfg.latent_layers else n + cfg.num_tokens
        expected += [(f"blocks.{i}.attn.qkv.weight", rows), ("attention", rows),
                     (f"blocks.{i}.attn.proj.weight", rows), (f"blocks.{i}.mlp.fc1.weight", rows)]
    assert n == 26 and seen == expected + [("decode.weight", cfg.num_tokens)]


def test_a_pretrain_clip_graph_holds_only_what_backward_reads():
    # the benchmark's pretrain geometry: 26 kept tokens, 512 latents joining
    # for the last two blocks. A graph that kept every op result it reached
    # held 60.7 MB here, and one whose attention kept its weights 39.6 MB, of
    # which the latent blocks' weights were 17.7 MB. One whose layers kept
    # each norm's output held 22.9 MB; they rebuild it, and it holds 20.2 MB
    cfg = ModelConfig(width=256, depth=4, mlp=1024, heads=8, input_size=(16, 128, 128),
                      input_patch=(2, 16, 16), latent_layers=2, mask_ratio=0.95)
    model = MaskedVideoModel(cfg, seed=0)
    rng = np.random.default_rng(3)
    frames = random_clip(rng, cfg.input_size).astype(np.float32)
    kept = sample_mask(cfg.num_tokens, cfg.mask_ratio, rng)
    tracemalloc.start()
    try:
        loss = mae_loss(model.reconstruct(frames, kept)[0], frames)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    nc.backward(loss)
    assert held < 21.5 * 2 ** 20


def _graph_nodes(out):
    """The nodes reachable from an op result's node."""
    seen, stack = {}, [out._node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(t for t, _ in node.edges if isinstance(t, nc._Node))
    return list(seen.values())


def test_every_norm_is_one_node(monkeypatch):
    # an encoder block's two norms, the final norm, and a readout's feature
    # and MLP norms: each node's edges end at its input, when that takes a
    # gradient, and its layer's scale and bias
    built = []
    real = mae.Layers.norm

    def spy(layers, name, x):
        out = real(layers, name, x)
        built.append((layers, name, x, out))
        return out

    monkeypatch.setattr(mae.Layers, "norm", spy)
    model = small_nano()
    frames = random_clip(np.random.default_rng(0), model.config.input_size).astype(np.float32)
    model.reconstruct(frames, np.arange(model.config.num_tokens))
    head = DepthHead(8, (4, 16, 16), qkv_size=16, heads=2)
    head.forward(nc.parameter(np.zeros((1, 16, 4, 8), np.float32)))
    head.forward(np.zeros((1, 16, 4, 8), np.float32))       # constant features
    depth = model.config.depth
    assert [name for _, name, _, _ in built] == [
        f"blocks.{i}.ln{j}" for i in range(depth) for j in (1, 2)] + [
        "final_norm"] + ["feat_norm", "mlp_norm"] * 2
    for layers, name, x, out in built:
        source = [x if x._node is None else x._node] if x.requires_grad else []
        targets = [t for t, _ in out._node.edges]
        assert targets == source + [layers[f"{name}.scale"], layers[f"{name}.bias"]], name
    assert not built[-2][2].requires_grad               # the constant features' norm


def test_a_pretrain_clip_graph_has_56_nodes():
    # the benchmark's pretrain geometry: 11 nodes a block (two norms, the qkv
    # affine and its three slices, attention, the projection, the MLP and two
    # residual adds), 4 for the embedding and the latents' join, 6 for the
    # latents' slice, the final norm, the decoder and unpatchify, and 2 for
    # the loss. With a norm of three nodes, its nine norms made it 74
    cfg = ModelConfig(width=256, depth=4, mlp=1024, heads=8, input_size=(16, 128, 128),
                      input_patch=(2, 16, 16), latent_layers=2, mask_ratio=0.95)
    model = MaskedVideoModel(cfg, seed=0)
    rng = np.random.default_rng(3)
    frames = random_clip(rng, cfg.input_size).astype(np.float32)
    loss = mae_loss(model.reconstruct(frames, sample_mask(cfg.num_tokens, 0.95, rng))[0], frames)
    assert len(_graph_nodes(loss)) == 56


def test_every_mlp_is_one_node(monkeypatch):
    # an encoder block's MLP, a readout's and its query MLP: each node's
    # edges end at its layer's four parameters
    built = []
    real = mae.Layers.mlp

    def spy(layers, name, x):
        out = real(layers, name, x)
        built.append((layers, name, x, out))
        return out

    monkeypatch.setattr(mae.Layers, "mlp", spy)
    model = small_nano()
    frames = random_clip(np.random.default_rng(0), model.config.input_size).astype(np.float32)
    model.reconstruct(frames, np.arange(model.config.num_tokens))
    head = DepthHead(8, (4, 16, 16), qkv_size=16, heads=2)
    head.forward(nc.parameter(np.zeros((1, 16, 4, 8), np.float32)))
    names = [name for _, name, _, _ in built]
    assert names == [f"blocks.{i}.mlp" for i in range(model.config.depth)] + ["query_mlp", "mlp"]
    for layers, name, x, out in built:
        params = [layers[f"{name}.{p}"] for p in ("fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias")]
        targets = [t for t, _ in out._node.edges]
        assert targets == ([x._node] if x.requires_grad else []) + params, name
    assert [len(out._node.edges) for *_, out in built].count(5) == model.config.depth + 1


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def test_mae_loss_zero_iff_equal():
    rng = np.random.default_rng(6)
    frames = random_clip(rng, (4, 32, 32))
    assert mae_loss(nc.Tensor(frames), frames).data == 0.0
    assert mae_loss(nc.Tensor(frames + 1e-3), frames).data > 0.0


def test_mae_loss_constant_offset():
    rng = np.random.default_rng(7)
    frames = random_clip(rng, (4, 32, 32))
    delta = 0.37
    loss = mae_loss(nc.Tensor(frames + delta), frames)
    np.testing.assert_allclose(loss.data, delta**2, rtol=1e-12)


def test_mae_loss_matches_scalar_oracle():
    rng = np.random.default_rng(8)
    a, b = rng.random((2, 8, 8, 3)), rng.random((2, 8, 8, 3))
    np.testing.assert_allclose(mae_loss(nc.Tensor(a), b).data, oracles.mse_loop(a, b), rtol=1e-12)


def test_mae_loss_shape_mismatch():
    with pytest.raises(ValueError):
        mae_loss(nc.Tensor(np.zeros((2, 8, 8, 3))), np.zeros((2, 8, 16, 3)))


def test_mae_loss_keeps_no_difference_and_its_backward_makes_one_clip_sized_array():
    # a bench clip, 16 x 128 x 128 RGB in float32, is 3 MB. The loss keeps no
    # difference for backward, and the mean hands its gradient on as one value,
    # so backward makes only the reconstruction's gradient; a kept difference,
    # a full array of the mean's gradient and the square's would make three
    rng = np.random.default_rng(13)
    frames = rng.random((16, 128, 128, 3), dtype=np.float32)
    recon = nc.parameter(rng.random((16, 128, 128, 3), dtype=np.float32))
    tracemalloc.start()
    try:
        loss = mae_loss(recon, frames)
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        nc.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert recon.grad.shape == frames.shape
    assert kept < 1 << 20
    assert peak < frames.nbytes + (1 << 20)


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def test_feature_block_indices():
    assert feature_block_index(100, 4) == 4
    assert feature_block_index(50, 4) == 2
    assert feature_block_index(95, 64) == 60
    assert feature_block_index(75, 56) == 42
    assert feature_block_index(25, 4) == 1
    for bad in (60, 50.0, True, np.float32(25)):
        with pytest.raises(ValueError, match=rf"^layer fraction {bad}% unsupported; use "
                                             r"\(25, 50, 75, 85, 95, 100\)$"):
            feature_block_index(bad, 4)
    with pytest.raises(ValueError, match=r"^layer fraction 50.0% unsupported"):
        small_nano().features(random_clip(np.random.default_rng(9), (4, 32, 32)), 50.0)


def test_features_shape_and_latent_exclusion():
    model = small_nano()
    frames = random_clip(np.random.default_rng(9), (4, 32, 32))
    for pct in (50, 100):
        fmap = model.features(frames, pct)
        assert fmap.shape == (2, 4, 64)    # (T/2, 2x2 tokens, width)


def test_features_match_block_activations(monkeypatch):
    # features stop at their block; a full-depth pass records the same bits,
    # and they are one frozen (T, K, C) Tensor even where a graph would be built
    frames = random_clip(np.random.default_rng(10), (4, 32, 32))
    for dtype in (np.float32, np.float64):
        model = deep_narrow(dtype)
        depth = model.config.depth
        outputs, run_block = [], MaskedVideoModel._block
        with monkeypatch.context() as patch, nc.no_grad():
            patch.setattr(MaskedVideoModel, "_block",
                          lambda self, x, i: outputs.append(run_block(self, x, i)) or outputs[-1])
            model.encode(frames, np.arange(8))
        assert len(outputs) == depth
        for pct in FEATURE_FRACTIONS:
            block = outputs[feature_block_index(pct, depth) - 1].data[:8]
            fmap = model.features(frames, pct)
            assert fmap.shape == (2, 4, 32) and fmap.dtype == dtype
            assert not fmap.requires_grad
            np.testing.assert_array_equal(fmap.data.reshape(8, 32), block)


@pytest.mark.parametrize("pct", FEATURE_FRACTIONS)
def test_features_run_only_the_requested_blocks(pct, monkeypatch):
    model = deep_narrow()
    run, block = [], MaskedVideoModel._block
    monkeypatch.setattr(MaskedVideoModel, "_block",
                        lambda self, x, i: run.append(i) or block(self, x, i))
    model.features(random_clip(np.random.default_rng(18), (4, 32, 32)), pct)
    assert run == list(range(feature_block_index(pct, model.config.depth)))


def test_encode_rejects_blocks_outside_depth():
    model = small_nano()
    frames = random_clip(np.random.default_rng(19), (4, 32, 32))
    for blocks in (0, 5):
        with pytest.raises(ValueError, match="blocks"):
            model.encode(frames, np.arange(8), blocks=blocks)
    with pytest.raises(ValueError, match=r"clip has shape \(8, 32, 32, 3\), expected config\.input_size"):
        model.encode(random_clip(np.random.default_rng(19), (8, 32, 32)), np.arange(8))
    for kept in (np.array([], dtype=int), np.arange(8).reshape(2, 4), np.array([0.0, 1.0]),
                 np.array([True, False]), np.array([0, 8]), np.array([-1, 2]), np.array([3, 3])):
        with pytest.raises(ValueError, match=r"^kept .* distinct indices in 0\.\.7$"):
            model.encode(frames, kept)


# ---------------------------------------------------------------------------
# Whole-model gradient vs finite differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tensor_name", ["patch_embed.weight", "blocks.1.attn.qkv.weight",
                                          "latent_tokens", "decode.weight"])
def test_model_gradient_matches_finite_differences(tensor_name):
    model = small_nano(dtype=np.float64, seed=11)
    rng = np.random.default_rng(12)
    frames = random_clip(rng, (4, 32, 32))
    kept = sample_mask(8, 0.5, seed=4)

    for t in model.params.values():
        t.grad = None
    recon, _ = model.reconstruct(frames, kept)
    nc.backward(mae_loss(recon, frames))
    target = model.params[tensor_name]
    entries = rng.choice(target.data.size, size=6, replace=False)

    def loss_value():
        with nc.no_grad():
            r, _ = model.reconstruct(frames, kept)
            return float(mae_loss(r, frames).data)

    fd = oracles.finite_diff_entries(loss_value, target.data, entries)
    ad = target.grad.reshape(-1)[entries]
    assert oracles.rel_err(ad, fd) < 1e-4


def test_heads_sharing_features_cannot_backprop_a_consumed_encoder():
    model = small_nano(dtype=np.float64, seed=5)
    frames = random_clip(np.random.default_rng(21), (4, 32, 32))
    cfg = model.config
    nt, nh, nw = cfg.token_grid

    class Readout(CrossAttentionReadout):
        TIME_STEPS = nt

    heads = [Readout(cfg.width, 3, qkv_size=16, heads=2, seed=s, dtype=np.float64) for s in (1, 2)]

    def head_losses():
        tokens = model.encode(frames, np.arange(cfg.num_tokens),
                              blocks=feature_block_index(50, cfg.depth))
        feats = nc.reshape(tokens[:cfg.num_tokens], (1, nt, nh * nw, cfg.width))
        outs = [head.forward(feats, head.learned_queries()) for head in heads]
        return [nc.mean(out * out) for out in outs]

    first, second = head_losses()
    nc.backward(first)
    encoder = {name: t.grad.copy() for name, t in model.params.items() if t.grad is not None}
    assert encoder
    with pytest.raises(RuntimeError, match="backward: the graph was already consumed"):
        nc.backward(second)
    assert all(t.grad is None for t in heads[1].params.values())
    for name, grad in encoder.items():
        np.testing.assert_array_equal(model.params[name].grad, grad)

    # a fresh forward on the same parameters backprops as the copying walk does
    every = [*model.params.values(), *heads[0].params.values(), *heads[1].params.values()]
    for t in every:
        t.grad = None
    nc.backward(head_losses()[1])
    fresh = [t.grad for t in every]
    for t in every:
        t.grad = None
    oracles.backward_copying(head_losses()[1])
    assert [g is None for g in fresh] == [t.grad is None for t in every]
    assert all(g is not None for g in fresh[-len(heads[1].params):])
    for g, t in zip(fresh, every):
        if g is not None:
            np.testing.assert_array_equal(g, t.grad)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    model = small_nano(seed=13)
    path = tmp_path / "model.ckpt"
    mae.save_model(path, model)
    loaded = mae.load_model(path)
    assert loaded.config == model.config
    for name, t in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, t.data)
    frames = random_clip(np.random.default_rng(14), (4, 32, 32))
    kept = sample_mask(8, 0.5, seed=5)
    with nc.no_grad():
        a, _ = model.reconstruct(frames, kept)
        b, _ = loaded.reconstruct(frames, kept)
    np.testing.assert_array_equal(a.data, b.data)


def test_config_from_lists_round_trips_through_checkpoint(tmp_path):
    # JSON gives lists back; the config must equal (and hash like) the tuple one
    cfg = ModelConfig(width=32, depth=2, mlp=64, heads=4, input_size=[4, 32, 32],
                      input_patch=[2, 16, 16], latent_layers=1)
    assert cfg == ModelConfig(**{k: tuple(v) if isinstance(v, list) else v
                                 for k, v in cfg.to_dict().items()})
    assert hash(cfg) and all(isinstance(getattr(cfg, f), tuple) for f in
                             ("input_size", "input_patch"))
    model = MaskedVideoModel(cfg, seed=3)
    mae.save_model(tmp_path / "model.ckpt", model)
    loaded = mae.load_model(tmp_path / "model.ckpt")
    assert loaded.config == cfg
    assert list(loaded.params) == list(model.params)
    for name, t in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, t.data)


@pytest.mark.parametrize("overrides", [
    dict(width=np.int64(64), input_size=(4, 32, 32)),
    dict(input_size=(np.int32(4), 32, np.int64(32)), input_patch=(np.int64(2), 16, 16)),
    dict(depth=np.int16(2), latent_layers=np.uint8(1), input_size=(4, 32, 32)),
    dict(input_size=(4, 32, 32), mask_ratio=np.float32(0.75)),
], ids=["width", "input_size", "depth-latent_layers", "mask_ratio"])
def test_a_config_of_numpy_scalars_saves_and_reloads(tmp_path, overrides):
    cfg = preset("nano", **overrides)
    assert all(type(v) in (int, float, tuple) for v in cfg.to_dict().values())
    assert all(type(e) is int for f in ("input_size", "input_patch") for e in getattr(cfg, f))
    model = MaskedVideoModel(cfg, seed=4)
    mae.save_model(tmp_path / "model.ckpt", model)
    loaded = mae.load_model(tmp_path / "model.ckpt")
    assert loaded.config == cfg
    for name, t in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, t.data)


def test_load_model_on_a_clip_file_names_the_config_keys(tmp_path):
    clip, labels = next(synthworld.generate(0, 1, 16, 2))
    synthworld.save_clip(tmp_path / "clip.stm", clip, labels)
    with pytest.raises(ValueError, match=r"clip\.stm: config is not a ModelConfig: unexpected keys "
                                         r"\['class_id'\], missing keys \['depth', 'heads', 'mlp', 'width'\]"):
        mae.load_model(tmp_path / "clip.stm")


@pytest.mark.parametrize("field, bad", BAD_CONFIG_FIELDS, ids=repr)
def test_load_model_names_the_path_and_a_bad_config_field(tmp_path, field, bad):
    model = small_nano(seed=16)
    config = {**model.config.to_dict(), field: bad}
    save_tensors(tmp_path / "model.ckpt", model.state(), config=config)
    with pytest.raises(ValueError, match=rf"^\S*model\.ckpt: {field} "):
        mae.load_model(tmp_path / "model.ckpt")


def test_load_model_names_the_path_and_every_missing_tensor(tmp_path):
    model = small_nano(seed=16)
    state = model.state()
    del state["decode.bias"], state["pos_embed"]
    save_tensors(tmp_path / "model.ckpt", state, config=model.config.to_dict())
    with pytest.raises(ValueError, match=r"model\.ckpt: checkpoint lacks tensors "
                                         r"\['pos_embed', 'decode\.bias'\]"):
        mae.load_model(tmp_path / "model.ckpt")
    stray = {**model.state(), "blocks.9.attn.qkv.weight": np.zeros((64, 192))}
    save_tensors(tmp_path / "stray.ckpt", stray, config=model.config.to_dict())
    with pytest.raises(ValueError, match=r"stray\.ckpt: checkpoint has tensors the model lacks "
                                         r"\['blocks\.9\.attn\.qkv\.weight'\]"):
        mae.load_model(tmp_path / "stray.ckpt")


def test_params_digest_tracks_changes():
    model = small_nano(seed=15)
    before = mae.params_digest(model.params)
    assert before == mae.params_digest(model.params)
    model.params["decode.bias"].data[0] += 1.0
    assert mae.params_digest(model.params) != before
    # equal names and bytes, another shape or dtype
    for x, y in [(np.arange(6.0).reshape(2, 3), np.arange(6.0).reshape(3, 2)),
                 (np.arange(6.0), np.arange(6.0).reshape(1, 6)),
                 (np.zeros(2, np.float32), np.zeros(2, np.int32))]:
        assert x.tobytes() == y.tobytes()
        assert mae.params_digest({"w": x}) != mae.params_digest({"w": y})
