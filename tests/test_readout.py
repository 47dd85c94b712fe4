"""Readout heads: published parameter counts, pipeline order, head contracts."""

import numpy as np
import pytest

import oracles
from stmae import metrics, numcore as nc
from stmae.numcore import Tensor
from stmae.readout import (FOURIER_MLP_SIZE, BoxTrackHead, ClassHead, CrossAttentionReadout,
                           DepthHead, PointTrackHead, PoseHead, ReadoutConfig, SE3Pose,
                           fourier_features, procrustes_so3)


def random_features(rng, b=2, t=16, k=6, c=32):
    return rng.standard_normal((b, t, k, c))


# ---------------------------------------------------------------------------
# Parameter accounting against the published readout table (ViT-L features,
# 1024 channels).
# ---------------------------------------------------------------------------

def test_published_class_readout_param_count():
    r = CrossAttentionReadout(ReadoutConfig(
        qkv_size=768, heads=12, query_kind="learned", num_queries=1,
        output_size=174, feature_channels=1024))
    assert r.num_parameters() == 7_041_966


def test_published_large_class_readout_param_count():
    r = CrossAttentionReadout(ReadoutConfig(
        qkv_size=1024, heads=16, query_kind="learned", num_queries=1,
        output_size=700, feature_channels=1024))
    assert r.num_parameters() == 12_281_532


def test_published_pose_readout_param_count():
    head = PoseHead(feature_channels=1024)
    assert head.readout.num_parameters() == 1_650_444


def test_published_depth_readout_param_count_learned_variant():
    # the published table counts one learned query per (2,8,8) patch
    r = CrossAttentionReadout(ReadoutConfig(
        qkv_size=1024, heads=16, query_kind="learned", num_queries=8 * 28 * 28,
        output_size=128, feature_channels=1024))
    assert r.num_parameters() == 18_116_736


def test_published_box_readout_param_count():
    head = BoxTrackHead(feature_channels=1024, num_frames=16)
    assert head.readout.num_parameters() == 12_482_624


def test_published_point_readout_param_count():
    head = PointTrackHead(feature_channels=1024, num_frames=16)
    assert head.readout.num_parameters() == 12_396_552


# ---------------------------------------------------------------------------
# Pipeline against an independent numpy reimplementation
# ---------------------------------------------------------------------------

def readout_numpy(params, cfg, features, queries):
    """Plain-numpy reference of the readout pipeline."""
    g = {k: np.asarray(v.data, dtype=np.float64) for k, v in params.items()}

    def ln(x):
        mu = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-6)

    x = ln(features) * g["feat_norm.scale"] + g["feat_norm.bias"]
    x = x + g["temporal_embed"][:, None, :]
    b, t, k, c = features.shape
    x = x.reshape(b, t * k, c)
    q = queries @ g["attn.q.weight"] + g["attn.q.bias"]
    key = x @ g["attn.k.weight"] + g["attn.k.bias"]
    val = x @ g["attn.v.weight"] + g["attn.v.bias"]
    heads, dh = cfg.heads, cfg.qkv_size // cfg.heads

    def split(z):
        return z.reshape(*z.shape[:-1], heads, dh).swapaxes(-3, -2)

    qh, kh, vh = split(q), split(key), split(val)
    scores = qh @ kh.swapaxes(-1, -2) / np.sqrt(dh)
    e = np.exp(scores - scores.max(-1, keepdims=True))
    attn = e / e.sum(-1, keepdims=True)
    mix = (attn @ vh).swapaxes(-3, -2).reshape(b, -1, cfg.qkv_size)
    if cfg.attn_out_proj:
        mix = mix @ g["attn.out.weight"] + g["attn.out.bias"]
    z = ln(mix) * g["mlp_norm.scale"] + g["mlp_norm.bias"]
    from scipy.special import erf
    gelu = lambda v: v * 0.5 * (1 + erf(v / np.sqrt(2)))
    z = gelu(z @ g["mlp.fc1.weight"] + g["mlp.fc1.bias"])
    mix = mix + z @ g["mlp.fc2.weight"] + g["mlp.fc2.bias"]
    return mix @ g["head.weight"] + g["head.bias"]


def test_forward_matches_numpy_reference():
    rng = np.random.default_rng(0)
    cfg = ReadoutConfig(qkv_size=32, heads=4, query_kind="learned", num_queries=3,
                        output_size=5, feature_channels=24)
    r = CrossAttentionReadout(cfg, seed=1, dtype=np.float64)
    feats = random_features(rng, b=2, t=16, k=4, c=24)
    with nc.no_grad():
        out = r.forward(Tensor(feats), r.learned_queries())
    queries_np = r.params["queries"].data[None]
    expected = readout_numpy(r.params, cfg, feats, queries_np)
    np.testing.assert_allclose(out.data, np.broadcast_to(expected, out.shape), rtol=1e-10)


def test_zero_final_linear_gives_zero_outputs():
    rng = np.random.default_rng(1)
    cfg = ReadoutConfig(qkv_size=16, heads=2, query_kind="learned", num_queries=2,
                        output_size=7, feature_channels=8)
    r = CrossAttentionReadout(cfg, seed=2)
    r.params["head.weight"].data[:] = 0.0
    r.params["head.bias"].data[:] = 0.0
    with nc.no_grad():
        out = r.forward(Tensor(random_features(rng, c=8)), r.learned_queries())
    assert np.all(out.data == 0.0)


def test_query_permutation_equivariance():
    rng = np.random.default_rng(2)
    cfg = ReadoutConfig(qkv_size=16, heads=2, query_kind="learned", num_queries=5,
                        output_size=3, feature_channels=8)
    r = CrossAttentionReadout(cfg, seed=3, dtype=np.float64)
    feats = Tensor(random_features(rng, b=1, c=8))
    perm = rng.permutation(5)
    with nc.no_grad():
        out = r.forward(feats, r.learned_queries())
        out_perm = r.forward(feats, Tensor(r.params["queries"].data[perm][None]))
    np.testing.assert_allclose(out_perm.data[0], out.data[0][perm], atol=1e-12)


def test_config_derives_the_query_path_from_the_kind():
    common = dict(qkv_size=16, heads=2, output_size=3, feature_channels=8)
    learned = ReadoutConfig(query_kind="learned", **common)
    box = ReadoutConfig(query_kind="fourier-box", **common)
    assert (learned.num_queries, learned.query_channels, learned.attn_out_proj) == (1, 16, False)
    assert (box.query_channels, box.attn_out_proj) == (FOURIER_MLP_SIZE, True)
    with pytest.raises(TypeError):
        ReadoutConfig(query_kind="learned", query_channels=8, **common)


def test_forward_rejects_channel_mismatch():
    cfg = ReadoutConfig(qkv_size=16, heads=2, query_kind="learned", num_queries=1,
                        output_size=3, feature_channels=8)
    r = CrossAttentionReadout(cfg, seed=0)
    with pytest.raises(ValueError):
        r.forward(Tensor(np.zeros((1, 16, 4, 9))), r.learned_queries())


def test_forward_is_pure():
    rng = np.random.default_rng(3)
    cfg = ReadoutConfig(qkv_size=16, heads=2, query_kind="learned", num_queries=2,
                        output_size=3, feature_channels=8)
    r = CrossAttentionReadout(cfg, seed=4)
    feats = Tensor(random_features(rng, c=8).astype(np.float32))
    with nc.no_grad():
        a = r.forward(feats, r.learned_queries()).data
        b = r.forward(feats, r.learned_queries()).data
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Fourier query encoding
# ---------------------------------------------------------------------------

def test_fourier_at_origin():
    out = fourier_features(np.zeros((1, 2)))
    sin_part = out.reshape(2, 2, 16)[:, 0]
    cos_part = out.reshape(2, 2, 16)[:, 1]
    np.testing.assert_array_equal(sin_part, 0.0)
    np.testing.assert_array_equal(cos_part, 1.0)


def test_fourier_raw_width_2d():
    out = fourier_features(np.random.default_rng(4).random((5, 2)))
    assert out.shape == (5, 2 * 2 * 16)


def test_fourier_rejects_out_of_range():
    with pytest.raises(ValueError):
        fourier_features(np.array([[0.5, 1.2]]))
    with pytest.raises(ValueError):
        fourier_features(np.array([[-0.1, 0.5]]))


def test_fourier_injective_on_grid():
    xs = (np.arange(32) + 0.5) / 32
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    emb = fourier_features(grid)
    # all 1024 grid points map to distinct encodings
    assert len(np.unique(np.round(emb, 12), axis=0)) == len(grid)


# ---------------------------------------------------------------------------
# Procrustes projection
# ---------------------------------------------------------------------------

def test_procrustes_fixes_rotations():
    rng = np.random.default_rng(5)
    for r in oracles.random_rotations(rng, 20):
        np.testing.assert_allclose(procrustes_so3(r), r, atol=1e-6)


def test_procrustes_positive_scaling():
    np.testing.assert_allclose(procrustes_so3(2.0 * np.eye(3)), np.eye(3), atol=1e-12)


def test_procrustes_beats_random_rotations():
    rng = np.random.default_rng(6)
    candidates = oracles.random_rotations(rng, 100_000)
    for _ in range(20):
        m = rng.standard_normal((3, 3))
        r = procrustes_so3(m)
        best_random = np.linalg.norm(candidates - m, axis=(1, 2)).min()
        assert np.linalg.norm(r - m) <= best_random + 1e-12


def test_procrustes_output_is_rotation_and_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.standard_normal((3, 3)) * rng.uniform(0.1, 5)
        r = procrustes_so3(m)
        SE3Pose(r=r, t=np.zeros(3)).validate()
        np.testing.assert_allclose(procrustes_so3(r), r, atol=1e-12)


def test_procrustes_flags_degeneracy():
    # rank deficiency, or a reflection with tied singular values, leaves the
    # minimizer non-unique; one valid rotation still comes back
    for m in (np.zeros((3, 3)), np.diag([1.0, 1.0, -1.0])):
        SE3Pose(r=procrustes_so3(m), t=np.zeros(3)).validate()


def test_procrustes_rejects_non_finite():
    m = np.eye(3)
    m[0, 0] = np.nan
    with pytest.raises(ValueError):
        procrustes_so3(m)


# ---------------------------------------------------------------------------
# Task heads
# ---------------------------------------------------------------------------

def test_pose_head_untrained_outputs_identity():
    head = PoseHead(feature_channels=8, qkv_size=16, heads=2)
    feats = Tensor(random_features(np.random.default_rng(8), b=3, c=8).astype(np.float32))
    with nc.no_grad():
        out = head.forward(feats).data
    for row in out:
        pose = PoseHead.to_pose(row).validate()
        np.testing.assert_allclose(pose.r, np.eye(3), atol=1e-6)
        np.testing.assert_allclose(pose.t, 0.0, atol=1e-6)


def test_pose_head_random_params_produce_valid_poses():
    head = PoseHead(feature_channels=8, qkv_size=16, heads=2, seed=9)
    rng = np.random.default_rng(9)
    head.readout.params["head.weight"].data[:] = rng.standard_normal((16, 12)).astype(np.float32)
    feats = Tensor(random_features(rng, b=4, c=8).astype(np.float32))
    with nc.no_grad():
        out = head.forward(feats).data
    for row in out:
        PoseHead.to_pose(row).validate()


def test_point_head_prediction_grid():
    head = PointTrackHead(feature_channels=8, num_frames=16, qkv_size=16, heads=2)
    feats = Tensor(random_features(np.random.default_rng(10), b=2, c=8).astype(np.float32))
    points = np.random.default_rng(11).random((2, 3, 2))
    with nc.no_grad():
        pos, vis, unc = head.forward(feats, points)
    assert head.replicas == 8
    assert tuple(pos.shape) == (2, 3, 16, 2)
    assert tuple(vis.shape) == (2, 3, 16)
    assert np.all(pos.data >= 0.0) and np.all(pos.data <= 1.0)


def test_point_head_rejects_too_many_tracks():
    head = PointTrackHead(feature_channels=8, qkv_size=16, heads=2, max_tracks=2)
    feats = Tensor(np.zeros((1, 16, 4, 8), dtype=np.float32))
    with pytest.raises(ValueError):
        head.forward(feats, np.zeros((1, 3, 2)))


def test_box_head_shape_and_limit():
    head = BoxTrackHead(feature_channels=8, num_frames=16, qkv_size=16, heads=2)
    feats = Tensor(random_features(np.random.default_rng(12), b=1, c=8).astype(np.float32))
    boxes = np.array([[[0.1, 0.4, 0.2, 0.5], [0.5, 0.9, 0.1, 0.3]]])
    with nc.no_grad():
        out = head.forward(feats, boxes)
    assert tuple(out.shape) == (1, 2, 16, 4)
    with pytest.raises(ValueError):
        head.forward(feats, np.zeros((1, 26, 4)))


def test_depth_head_query_grid_and_positivity():
    head = DepthHead(feature_channels=8, clip_size=(4, 16, 16), qkv_size=16, heads=2)
    assert len(head.query_positions) == 2 * 2 * 2
    feats = Tensor(random_features(np.random.default_rng(13), b=2, c=8).astype(np.float32))
    with nc.no_grad():
        depth = head.forward(feats).data
    assert depth.shape == (2, 4, 16, 16)
    assert np.all(depth > 0.0)


def test_depth_head_full_resolution_query_count():
    head = DepthHead(feature_channels=8, clip_size=(16, 224, 224), qkv_size=16, heads=2)
    assert len(head.query_positions) == 8 * 28 * 28
    assert head.readout.config.output_size == 128


def test_depth_head_assembly_matches_reference():
    head = DepthHead(feature_channels=8, clip_size=(4, 16, 16), qkv_size=16, heads=2,
                     dtype=np.float64)
    rng = np.random.default_rng(14)
    feats = random_features(rng, b=1, t=16, k=4, c=8)
    with nc.no_grad():
        depth = head.forward(Tensor(feats)).data
        raw_queries = head.readout.encode_queries(head.query_positions[None]).data
    out = readout_numpy(head.readout.params, head.readout.config, feats, raw_queries)
    out = np.log1p(np.exp(-np.abs(out))) + np.maximum(out, 0)      # softplus
    expected = out.reshape(2, 2, 2, 2, 8, 8).transpose(0, 3, 1, 4, 2, 5).reshape(4, 16, 16)
    np.testing.assert_allclose(depth[0], expected, rtol=1e-10)


def test_class_head_logits_and_softmax():
    head = ClassHead(feature_channels=8, num_classes=174, qkv_size=16, heads=2)
    feats = Tensor(random_features(np.random.default_rng(15), b=2, c=8).astype(np.float32))
    with nc.no_grad():
        logits = head.forward(feats)
        probs = np.exp(nc.log_softmax(logits).data)
    assert tuple(logits.shape) == (2, 174)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


def test_gradients_reach_every_head_parameter():
    head = PointTrackHead(feature_channels=8, num_frames=4, qkv_size=16, heads=2)
    feats = Tensor(random_features(np.random.default_rng(16), b=1, c=8).astype(np.float32))
    pos, vis, unc = head.forward(feats, np.full((1, 2, 2), 0.5))
    loss = nc.mean(pos * pos) + nc.mean(vis * vis) + nc.mean(unc * unc)
    nc.backward(loss)
    missing = [k for k, v in head.params.items() if v.grad is None]
    assert missing == []


def test_point_head_accepts_generator_seed():
    head = PointTrackHead(feature_channels=8, num_frames=4, qkv_size=16, heads=2,
                          seed=np.random.default_rng(0))
    assert head.params["point.query_time_embed"].shape == (2, 512)
    feats = Tensor(random_features(np.random.default_rng(17), b=1, c=8).astype(np.float32))
    with nc.no_grad():
        pos, _, _ = head.forward(feats, np.full((1, 2, 2), 0.5))
    assert tuple(pos.shape) == (1, 2, 4, 2)


def _task_loss_float32(name):
    """One float32 head of each kind, its forward and its task loss from `metrics`."""
    rng = np.random.default_rng(18)
    kw = dict(qkv_size=16, heads=2, dtype=np.float32)
    feats = Tensor(random_features(rng, b=2, t=16, k=4, c=8).astype(np.float32))
    if name == "class":
        head = ClassHead(8, num_classes=5, **kw)
        return head, metrics.cross_entropy(head.forward(feats), [1, 3])
    if name == "pose":
        head = PoseHead(8, **kw)
        return head, metrics.pose_loss(head.forward(feats), rng.standard_normal((2, 12)))
    if name == "point":
        head = PointTrackHead(8, num_frames=16, **kw)
        pos, vis, unc = head.forward(feats, rng.random((2, 3, 2)))
        return head, metrics.point_track_loss(pos * 32.0, vis, unc, rng.random((2, 3, 16, 2)) * 32,
                                              rng.random((2, 3, 16)) > 0.3)
    if name == "box":
        head = BoxTrackHead(8, num_frames=16, **kw)
        return head, metrics.box_track_loss(head.forward(feats, rng.random((2, 3, 4))),
                                            rng.random((2, 3, 16, 4)))
    head = DepthHead(8, clip_size=(16, 16, 16), **kw)
    return head, metrics.depth_loss(head.forward(feats), rng.uniform(0.5, 20.0, (2, 16, 16, 16)))


@pytest.mark.parametrize("name", ["class", "pose", "point", "box", "depth"])
def test_float32_head_and_task_loss_keep_float32(name):
    head, loss = _task_loss_float32(name)
    nc.backward(loss)
    assert loss.dtype == np.float32
    assert {k: v.grad.dtype for k, v in head.params.items()} == {
        k: np.float32 for k in head.params}
