"""Patch/mask arithmetic, model contracts, and trainedness-free model checks."""

import time

import numpy as np
import pytest

import oracles
from stmae import numcore as nc
from stmae import mae, synthworld
from stmae.checkpoint import save_tensors
from stmae.mae import (FEATURE_FRACTIONS, MaskPlan, MaskedVideoModel, ModelConfig,
                       count_parameters, feature_block_index, full_plan, mae_loss, patchify,
                       preset, sample_mask, unpatchify)
from stmae.readout import CrossAttentionReadout, ReadoutConfig


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
])
def test_unpatchify_roundtrip_identity(size, patch):
    rng = np.random.default_rng(0)
    frames = random_clip(rng, size)
    grid = tuple(s // p for s, p in zip(size, patch))
    np.testing.assert_array_equal(unpatchify(patchify(frames, patch), grid, patch), frames)


def test_mask_plan_partition_and_counts():
    plan = sample_mask(1568, 0.95, seed=3)
    assert len(plan.kept) == 79 and len(plan.masked) == 1489
    union = np.union1d(plan.kept, plan.masked)
    np.testing.assert_array_equal(union, np.arange(1568))
    assert np.intersect1d(plan.kept, plan.masked).size == 0


@pytest.mark.parametrize("ratio", [0.0, 1.0, -0.2, 1.4])
def test_mask_ratio_bounds(ratio):
    with pytest.raises(ValueError):
        sample_mask(100, ratio, seed=0)


def test_mask_is_uniform_without_replacement():
    # Monte-Carlo oracle: every index kept with frequency 0.05 +/- 0.01
    rng = np.random.default_rng(2024)
    counts = np.zeros(100)
    draws = 100_000
    for _ in range(draws):
        counts[sample_mask(100, 0.95, rng).kept] += 1
    freq = counts / draws
    assert np.all(np.abs(freq - 0.05) < 0.01)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def test_trunc_normal_matches_full_scan_reference():
    for shape in [(1,), (7,), (3, 5), (64, 64), (2, 3, 4, 5), (5000,)]:
        for seed in range(5):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            np.testing.assert_array_equal(mae.trunc_normal(rng, shape),
                                          oracles.trunc_normal_full_scan(ref_rng, shape))
            assert rng.standard_normal() == ref_rng.standard_normal()   # same draws consumed


# ---------------------------------------------------------------------------
# Parameter accounting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,published_total", [("S", 24e6), ("B", 91e6), ("L", 310e6)])
def test_published_parameter_totals(name, published_total):
    total = count_parameters(preset(name))["total"]
    assert abs(total - published_total) / published_total < 0.05


def test_analytic_count_matches_instantiation():
    for name in ("nano", "micro"):
        cfg = preset(name)
        assert count_parameters(cfg)["total"] == MaskedVideoModel(cfg, seed=0).num_parameters()


def test_config_invariants():
    with pytest.raises(ValueError):
        ModelConfig(width=65, depth=4, mlp=256, heads=4, input_size=(8, 64, 64))
    with pytest.raises(ValueError):
        ModelConfig(width=64, depth=4, mlp=256, heads=4, input_size=(8, 64, 64), latent_layers=5)
    with pytest.raises(ValueError):
        ModelConfig(width=64, depth=4, mlp=256, heads=4, input_size=(8, 64, 64),
                    decode_grid=(4, 4, 4), output_patch=(2, 8, 8))
    with pytest.raises(ValueError, match="mask_ratio"):
        ModelConfig(width=64, depth=4, mlp=256, heads=4, input_size=(8, 64, 64), mask_ratio=0.0)


# ---------------------------------------------------------------------------
# Forward contracts
# ---------------------------------------------------------------------------

def test_reconstruction_shape_matches_clip():
    model = small_nano()
    rng = np.random.default_rng(1)
    frames = random_clip(rng, (4, 32, 32))
    plan = sample_mask(model.config.num_tokens, 0.5, seed=0)
    recon, _ = model.reconstruct(frames, plan)
    assert tuple(recon.shape) == frames.shape


def test_masked_pixels_do_not_enter_forward():
    model = small_nano()
    rng = np.random.default_rng(2)
    frames = random_clip(rng, (4, 32, 32)).astype(np.float32)
    plan = sample_mask(model.config.num_tokens, 0.5, seed=1)
    with nc.no_grad():
        recon_a, _ = model.reconstruct(frames, plan)
    # scribble over every masked patch; forward output must be bit-identical
    tokens = patchify(frames, model.config.input_patch)
    tokens[plan.masked] = rng.random(tokens[plan.masked].shape)
    scribbled = unpatchify(tokens, model.config.token_grid, model.config.input_patch)
    with nc.no_grad():
        recon_b, _ = model.reconstruct(scribbled, plan)
    np.testing.assert_array_equal(recon_a.data, recon_b.data)
    assert mae_loss(recon_a, frames).data != mae_loss(recon_b, scribbled).data


def test_kept_token_order_is_irrelevant():
    model = small_nano(dtype=np.float64)
    rng = np.random.default_rng(3)
    frames = random_clip(rng, (4, 32, 32))
    plan = sample_mask(model.config.num_tokens, 0.5, seed=2)
    shuffled = MaskPlan(kept=rng.permutation(plan.kept), masked=plan.masked, total=plan.total)
    with nc.no_grad():
        recon_a, _ = model.reconstruct(frames, plan)
        recon_b, _ = model.reconstruct(frames, shuffled)
    np.testing.assert_allclose(recon_a.data, recon_b.data, atol=1e-10)


def test_forward_deterministic_bitwise():
    frames = random_clip(np.random.default_rng(4), (4, 32, 32))
    plan = sample_mask(8, 0.5, seed=3)

    def run():
        model = small_nano(seed=9)
        with nc.no_grad():
            recon, _ = model.reconstruct(frames, plan)
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


def test_encoder_cost_tracks_kept_count():
    # coarse performance property: 95% masking beats no masking on wall clock
    cfg = ModelConfig(width=256, depth=4, mlp=1024, heads=8,
                      input_size=(16, 128, 128), latent_layers=2)
    model = MaskedVideoModel(cfg, seed=0)
    frames = random_clip(np.random.default_rng(5), (16, 128, 128)).astype(np.float32)
    fast_plan = sample_mask(cfg.num_tokens, 0.95, seed=0)
    slow_plan = full_plan(cfg.num_tokens)

    def clock(plan):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            with nc.no_grad():
                model.reconstruct(frames, plan)
            times.append(time.perf_counter() - start)
        return min(times)

    clock(fast_plan)  # warm-up
    assert clock(fast_plan) < clock(slow_plan)


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


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def test_feature_block_indices():
    assert feature_block_index(100, 4) == 4
    assert feature_block_index(50, 4) == 2
    assert feature_block_index(95, 64) == 60
    assert feature_block_index(75, 56) == 42
    assert feature_block_index(25, 4) == 1
    with pytest.raises(ValueError, match=r"^layer fraction 60% unsupported; use \(25, 50, 75, 85, 95, 100\)$"):
        feature_block_index(60, 4)


def test_features_shape_and_latent_exclusion():
    model = small_nano()
    frames = random_clip(np.random.default_rng(9), (4, 32, 32))
    for pct in (50, 100):
        fmap = model.features(frames, pct)
        assert fmap.shape == (2, 4, 64)    # (T/2, 2x2 tokens, width)


def test_features_match_block_activations():
    # features stop at their block; a full-depth pass collects the same bits,
    # and with or without a graph they are one (T, K, C) Tensor
    frames = random_clip(np.random.default_rng(10), (4, 32, 32))
    for dtype in (np.float32, np.float64):
        model = deep_narrow(dtype)
        depth = model.config.depth
        with nc.no_grad():
            _, collected = model.encode(frames, full_plan(8), collect=tuple(range(1, depth + 1)))
        for pct in FEATURE_FRACTIONS:
            block = collected[feature_block_index(pct, depth)].data
            fmap = model.features(frames, pct)
            tracked = model.features(frames, pct, grad=True)
            assert fmap.shape == tracked.shape == (2, 4, 32)
            assert fmap.dtype == tracked.dtype == dtype
            assert tracked.requires_grad and not fmap.requires_grad
            np.testing.assert_array_equal(fmap.data.reshape(8, 32), block)
            np.testing.assert_array_equal(tracked.data, fmap.data)


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
    for kw in (dict(blocks=0), dict(blocks=5), dict(blocks=2, collect=(3,))):
        with pytest.raises(ValueError, match="blocks"):
            model.encode(frames, full_plan(8), **kw)


# ---------------------------------------------------------------------------
# Whole-model gradient vs finite differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tensor_name", ["patch_embed.weight", "blocks.1.attn.qkv.weight",
                                          "latent_tokens", "decode.weight"])
def test_model_gradient_matches_finite_differences(tensor_name):
    model = small_nano(dtype=np.float64, seed=11)
    rng = np.random.default_rng(12)
    frames = random_clip(rng, (4, 32, 32))
    plan = sample_mask(8, 0.5, seed=4)

    for t in model.params.values():
        t.grad = None
    recon, _ = model.reconstruct(frames, plan)
    nc.backward(mae_loss(recon, frames))
    target = model.params[tensor_name]
    entries = rng.choice(target.data.size, size=6, replace=False)

    def loss_value():
        with nc.no_grad():
            r, _ = model.reconstruct(frames, plan)
            return float(mae_loss(r, frames).data)

    fd = oracles.finite_diff_entries(loss_value, target.data, entries)
    ad = target.grad.reshape(-1)[entries]
    assert oracles.rel_err(ad, fd) < 1e-4


def test_heads_sharing_features_cannot_backprop_a_consumed_encoder():
    model = small_nano(dtype=np.float64, seed=5)
    frames = random_clip(np.random.default_rng(21), (4, 32, 32))
    nt, nh, nw = model.config.token_grid
    config = ReadoutConfig(qkv_size=16, heads=2, query_kind="learned", num_queries=1,
                           output_size=3, feature_channels=model.config.width, time_steps=nt)
    heads = [CrossAttentionReadout(config, seed=s, dtype=np.float64) for s in (1, 2)]

    def head_losses():
        feats = model.features(frames, 50, grad=True)
        feats = nc.reshape(feats, (1, nt, nh * nw, model.config.width))
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
    plan = sample_mask(8, 0.5, seed=5)
    with nc.no_grad():
        a, _ = model.reconstruct(frames, plan)
        b, _ = loaded.reconstruct(frames, plan)
    np.testing.assert_array_equal(a.data, b.data)


def test_config_from_lists_round_trips_through_checkpoint(tmp_path):
    # JSON gives lists back; the config must equal (and hash like) the tuple one
    cfg = ModelConfig(width=32, depth=2, mlp=64, heads=4, input_size=[4, 32, 32],
                      input_patch=[2, 16, 16], latent_layers=1, decode_grid=[2, 2, 2],
                      output_patch=[2, 16, 16])
    assert cfg == ModelConfig(**{k: tuple(v) if isinstance(v, list) else v
                                 for k, v in cfg.to_dict().items()})
    assert hash(cfg) and all(isinstance(getattr(cfg, f), tuple) for f in
                             ("input_size", "input_patch", "decode_grid", "output_patch"))
    model = MaskedVideoModel(cfg, seed=3)
    mae.save_model(tmp_path / "model.ckpt", model)
    loaded = mae.load_model(tmp_path / "model.ckpt")
    assert loaded.config == cfg
    assert list(loaded.params) == list(model.params)
    for name, t in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, t.data)


def test_load_model_on_a_clip_file_names_the_config_keys(tmp_path):
    clip, labels = next(synthworld.generate(0, 1, 16, 2))
    synthworld.save_clip(tmp_path / "clip.stm", clip, labels)
    with pytest.raises(ValueError, match=r"clip\.stm: config is not a ModelConfig: unexpected keys "
                                         r"\['class_id'\], missing keys \['depth', 'heads', 'mlp', 'width'\]"):
        mae.load_model(tmp_path / "clip.stm")


def test_load_model_names_the_path_and_every_missing_tensor(tmp_path):
    model = small_nano(seed=16)
    state = model.state()
    del state["decode.bias"], state["pos_embed"]
    save_tensors(tmp_path / "model.ckpt", state, config=model.config.to_dict())
    with pytest.raises(ValueError, match=r"model\.ckpt: checkpoint lacks tensors "
                                         r"\['pos_embed', 'decode\.bias'\]"):
        mae.load_model(tmp_path / "model.ckpt")


def test_params_digest_tracks_changes():
    model = small_nano(seed=15)
    before = mae.params_digest(model.params)
    assert before == mae.params_digest(model.params)
    model.params["decode.bias"].data[0] += 1.0
    assert mae.params_digest(model.params) != before
