"""Readout heads: published parameter counts, pipeline order, head contracts."""

import re
import tracemalloc

import numpy as np
import pytest

import oracles
from stmae import metrics, numcore as nc
from stmae.mae import unpatchify
from stmae.numcore import Tensor
from stmae.readout import (FOURIER_MLP_SIZE, BoxTrackHead, ClassHead, CrossAttentionReadout,
                           DepthHead, PointTrackHead, PoseHead, SE3Pose, fourier_features,
                           procrustes_so3)


def random_features(rng, b=2, t=16, k=6, c=32):
    return rng.standard_normal((b, t, k, c))


# ---------------------------------------------------------------------------
# Parameter accounting against the published readout table (ViT-L features,
# 1024 channels).
# ---------------------------------------------------------------------------

def test_published_class_readout_param_count():
    r = CrossAttentionReadout(1024, 174, qkv_size=768, heads=12)
    assert r.num_parameters() == 7_041_966


def test_published_large_class_readout_param_count():
    r = CrossAttentionReadout(1024, 700, qkv_size=1024, heads=16)
    assert r.num_parameters() == 12_281_532


def test_published_pose_readout_param_count():
    head = PoseHead(feature_channels=1024)
    assert head.num_parameters() == 1_650_444


def test_published_depth_readout_param_count_learned_variant():
    # the published table counts one learned query per (2,8,8) patch; a bare
    # readout has one, so add the other 8*28*28 - 1 of 1024 channels each
    r = CrossAttentionReadout(1024, 128, qkv_size=1024, heads=16)
    assert r.num_parameters() + (8 * 28 * 28 - 1) * 1024 == 18_116_736


def test_published_box_readout_param_count():
    head = BoxTrackHead(feature_channels=1024, num_frames=16)
    assert head.num_parameters() == 12_482_624


def test_published_point_readout_param_count():
    head = PointTrackHead(feature_channels=1024, num_frames=16)
    assert head.num_parameters() == 12_396_552


# ---------------------------------------------------------------------------
# Pipeline against an independent numpy reimplementation
# ---------------------------------------------------------------------------

def readout_numpy(params, heads, features, queries, prefix=""):
    """Plain-numpy reference of the readout pipeline; `prefix` is stripped from the names.

    The attention has an output projection when the params hold `attn.out.weight`.
    """
    g = {k.removeprefix(prefix): np.asarray(v.data, dtype=np.float64) for k, v in params.items()}

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
    qkv_size = q.shape[-1]
    dh = qkv_size // heads

    def split(z):
        return z.reshape(*z.shape[:-1], heads, dh).swapaxes(-3, -2)

    qh, kh, vh = split(q), split(key), split(val)
    scores = qh @ kh.swapaxes(-1, -2) / np.sqrt(dh)
    e = np.exp(scores - scores.max(-1, keepdims=True))
    attn = e / e.sum(-1, keepdims=True)
    mix = (attn @ vh).swapaxes(-3, -2).reshape(b, -1, qkv_size)
    if "attn.out.weight" in g:
        mix = mix @ g["attn.out.weight"] + g["attn.out.bias"]
    z = ln(mix) * g["mlp_norm.scale"] + g["mlp_norm.bias"]
    from scipy.special import erf
    gelu = lambda v: v * 0.5 * (1 + erf(v / np.sqrt(2)))
    z = gelu(z @ g["mlp.fc1.weight"] + g["mlp.fc1.bias"])
    mix = mix + z @ g["mlp.fc2.weight"] + g["mlp.fc2.bias"]
    return mix @ g["head.weight"] + g["head.bias"]


def test_forward_matches_numpy_reference():
    rng = np.random.default_rng(0)
    r = CrossAttentionReadout(24, 5, qkv_size=32, heads=4, seed=1, dtype=np.float64)
    feats = random_features(rng, b=2, t=16, k=4, c=24)
    queries = rng.standard_normal((1, 3, 32))
    with nc.no_grad():
        out = r.forward(Tensor(feats), Tensor(queries))
        learned = r.forward(Tensor(feats), r.learned_queries())
    expected = readout_numpy(r.params, 4, feats, queries)
    np.testing.assert_allclose(out.data, np.broadcast_to(expected, out.shape), rtol=1e-10)
    expected = readout_numpy(r.params, 4, feats, r.params["queries"].data[None])
    np.testing.assert_allclose(learned.data, np.broadcast_to(expected, learned.shape), rtol=1e-10)


def test_zero_final_linear_gives_zero_outputs():
    rng = np.random.default_rng(1)
    r = CrossAttentionReadout(8, 7, qkv_size=16, heads=2, seed=2)
    r.params["head.weight"].data[:] = 0.0
    r.params["head.bias"].data[:] = 0.0
    queries = Tensor(rng.standard_normal((1, 2, 16)).astype(np.float32))
    with nc.no_grad():
        out = r.forward(Tensor(random_features(rng, c=8).astype(np.float32)), queries)
    assert np.all(out.data == 0.0)


def test_query_permutation_equivariance():
    rng = np.random.default_rng(2)
    r = CrossAttentionReadout(8, 3, qkv_size=16, heads=2, seed=3, dtype=np.float64)
    feats = Tensor(random_features(rng, b=1, c=8))
    queries = rng.standard_normal((1, 5, 16))
    perm = rng.permutation(5)
    with nc.no_grad():
        out = r.forward(feats, Tensor(queries))
        out_perm = r.forward(feats, Tensor(queries[:, perm]))
    np.testing.assert_allclose(out_perm.data[0], out.data[0][perm], atol=1e-12)


def test_class_constants_fix_the_query_path():
    heads = (CrossAttentionReadout, ClassHead, PoseHead, PointTrackHead, BoxTrackHead, DepthHead)
    assert [h.COORDS for h in heads] == [0, 0, 0, 2, 4, 3]
    assert [h.TIME_STEPS for h in heads] == [16, 16, 1, 16, 16, 16]
    learned = CrossAttentionReadout(8, 3, qkv_size=16, heads=2)
    assert learned.query_channels == 16 and learned.params["queries"].shape == (1, 16)
    assert "attn.out.weight" not in learned.params
    box = BoxTrackHead(8, qkv_size=16, heads=2)
    assert box.query_channels == FOURIER_MLP_SIZE and "box.queries" not in box.params
    assert box.params["box.query_mlp.fc1.weight"].shape == (4 * 2 * 16, FOURIER_MLP_SIZE)
    assert box.params["box.attn.out.weight"].shape == (16, 16)
    assert PoseHead(8, qkv_size=16, heads=2).params["pose.temporal_embed"].shape == (1, 16)
    common = dict(feature_channels=8, output_size=3, qkv_size=16, heads=2)
    for name in common:
        with pytest.raises(ValueError, match=f"^{name} 0 must be >= 1$"):
            CrossAttentionReadout(**{**common, name: 0})
        for bad in (True, float(common[name])):
            with pytest.raises(ValueError, match=f"^{name} {bad!r} must be an integer$"):
                CrossAttentionReadout(**{**common, name: bad})
    with pytest.raises(ValueError, match="^heads True must be an integer$"):
        ClassHead(8, 3, qkv_size=16, heads=True)
    with pytest.raises(ValueError, match="qkv_size 16 not divisible by heads 3"):
        CrossAttentionReadout(**{**common, "heads": 3})


@pytest.mark.parametrize("head", [PointTrackHead, BoxTrackHead])
@pytest.mark.parametrize("num_frames, message", [
    (0, "num_frames 0 must be >= 1"), (-2, "num_frames -2 must be >= 1"),
    (16.0, "num_frames 16.0 must be an integer"), (2.0, "num_frames 2.0 must be an integer"),
    (True, "num_frames True must be an integer")])
def test_track_heads_check_num_frames(head, num_frames, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        head(8, num_frames=num_frames, qkv_size=16, heads=2)


def test_point_head_needs_an_even_frame_count():
    with pytest.raises(ValueError, match="^num_frames 3 must be even: the point head predicts "
                                         "2 frames per query$"):
        PointTrackHead(8, num_frames=3, qkv_size=16, heads=2)
    assert BoxTrackHead(8, num_frames=3, qkv_size=16, heads=2).num_frames == 3


def test_forward_rejects_channel_mismatch():
    r = CrossAttentionReadout(8, 3, qkv_size=16, heads=2)
    with pytest.raises(ValueError):
        r.forward(Tensor(np.zeros((1, 16, 4, 9))), r.learned_queries())


def test_forward_rejects_features_without_a_batch_axis():
    r = CrossAttentionReadout(8, 3, qkv_size=16, heads=2)
    message = r"^features have shape \(16, 4, 8\), readout expects \(B, T, K, C\)$"
    with pytest.raises(ValueError, match=message):
        r.forward(np.zeros((16, 4, 8)), r.learned_queries())
    with pytest.raises(ValueError, match=message):
        PoseHead(feature_channels=8, qkv_size=16, heads=2).forward(np.zeros((16, 4, 8)))


def test_forward_is_pure():
    rng = np.random.default_rng(3)
    r = CrossAttentionReadout(8, 3, qkv_size=16, heads=2, seed=4)
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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"^coordinates must lie in \[0, 1\], got range "):
            fourier_features(np.array([[bad, 0.5]]))


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
    head.params["pose.head.weight"].data[:] = rng.standard_normal((16, 12)).astype(np.float32)
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
    head = PointTrackHead(feature_channels=8, qkv_size=16, heads=2)
    feats = Tensor(np.zeros((1, 16, 4, 8), dtype=np.float32))
    with pytest.raises(ValueError, match="65 tracks exceed the maximum 64"):
        head.forward(feats, np.zeros((1, PointTrackHead.MAX_TRACKS + 1, 2)))


def test_box_head_shape_and_limit():
    head = BoxTrackHead(feature_channels=8, num_frames=16, qkv_size=16, heads=2)
    feats = Tensor(random_features(np.random.default_rng(12), b=1, c=8).astype(np.float32))
    boxes = np.array([[[0.1, 0.4, 0.2, 0.5], [0.5, 0.9, 0.1, 0.3]]])
    with nc.no_grad():
        out = head.forward(feats, boxes)
    assert tuple(out.shape) == (1, 2, 16, 4)
    with pytest.raises(ValueError):
        head.forward(feats, np.zeros((1, 26, 4)))


QUERY_SHAPE_CASES = [
    ("point", (5, 2)),                  # no batch axis
    ("point", (2, 5, 2)),               # two clips' queries for one clip's features
    ("point", (1, 5, 3)),
    ("box", (2, 5, 4)),
    ("box", (5, 4)),
    ("box", (1, 5, 2)),
]


@pytest.mark.parametrize("name, shape", QUERY_SHAPE_CASES)
def test_point_and_box_heads_reject_queries_of_another_shape(name, shape):
    head = {"point": PointTrackHead, "box": BoxTrackHead}[name](8, qkv_size=16, heads=2)
    what, coords = {"point": ("query_points", 2), "box": ("query_boxes", 4)}[name]
    feats = Tensor(np.zeros((1, 16, 4, 8), dtype=np.float32))
    message = (f"{what} have shape {shape}, expected (1, n, {coords}) "
               f"for features of shape (1, 16, 4, 8)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        head.forward(feats, np.zeros(shape))


def test_depth_head_query_grid_and_positivity():
    head = DepthHead(feature_channels=8, clip_size=(4, 16, 16), qkv_size=16, heads=2)
    assert len(head.query_positions) == 2 * 2 * 2
    feats = Tensor(random_features(np.random.default_rng(13), b=2, c=8).astype(np.float32))
    with nc.no_grad():
        depth = head.forward(feats).data
    assert depth.shape == (2, 4, 16, 16)
    assert np.all(depth > 0.0)


@pytest.mark.parametrize("clip_size, message", [
    ((16.0, 64, 64), "clip_size (16.0, 64, 64) must be three integers"),
    ((True, 64, 64), "clip_size (True, 64, 64) must be three integers"),
    ((16, 64), "clip_size (16, 64) must be three integers"),
    ((16, 64, 64, 1), "clip_size (16, 64, 64, 1) must be three integers"),
    (16, "clip_size 16 must be three integers"),
    ((0, 64, 64), "clip_size (0, 64, 64) must be >= 1 in each extent"),
    ((16, -8, 64), "clip_size (16, -8, 64) must be >= 1 in each extent"),
    ((16, 64, 60), "clip_size (16, 64, 60) not divisible by depth patch (2, 8, 8)")])
def test_depth_head_checks_clip_size(clip_size, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DepthHead(8, clip_size=clip_size, qkv_size=16, heads=2)


def test_depth_head_takes_a_clip_size_of_numpy_integers_as_a_list():
    head = DepthHead(8, clip_size=[np.int64(4), 16, np.uint8(16)], qkv_size=16, heads=2)
    assert head.grid == (2, 2, 2) and all(type(g) is int for g in head.grid)


def test_depth_head_full_resolution_query_count():
    head = DepthHead(feature_channels=8, clip_size=(16, 224, 224), qkv_size=16, heads=2)
    assert len(head.query_positions) == 8 * 28 * 28
    assert head.params["depth.head.bias"].shape == (128,)


def test_depth_head_assembly_matches_reference():
    head = DepthHead(feature_channels=8, clip_size=(4, 16, 16), qkv_size=16, heads=2,
                     dtype=np.float64)
    rng = np.random.default_rng(14)
    feats = random_features(rng, b=1, t=16, k=4, c=8)
    with nc.no_grad():
        depth = head.forward(Tensor(feats)).data
        raw_queries = head.encode_queries(head.query_positions[None]).data
    out = readout_numpy(head.params, head.heads, feats, raw_queries, prefix="depth.")
    out = np.log1p(np.exp(-np.abs(out))) + np.maximum(out, 0)      # softplus
    expected = out.reshape(2, 2, 2, 2, 8, 8).transpose(0, 3, 1, 4, 2, 5).reshape(4, 16, 16)
    np.testing.assert_allclose(depth[0], expected, rtol=1e-10)


def depth_single_pass(head, features):
    """The depth of one readout pass over the whole query grid, assembled as
    `DepthHead.forward` assembles its blocks."""
    queries = head.encode_queries(head.query_positions[None])
    out = nc.softplus(CrossAttentionReadout.forward(head, features, queries))
    depth = unpatchify(out, head.grid, head.PATCH)
    return nc.reshape(depth, depth.shape[:-1])


def query_blocks(head, batch):
    """The row blocks of the residual MLP's input, (B, Q, qkv_size)."""
    d = head.params["depth.attn.q.weight"].shape[1]
    return list(nc._row_blocks(len(head.query_positions), batch * 4 * d))


@pytest.fixture(scope="module")
def eval_depth_head():
    """The eval workload's depth head (128 px, 256 feature channels, qkv 1024
    over 16 heads) and a batch of one clip's features on its 16 x 64 tokens."""
    head = DepthHead(256, clip_size=(16, 128, 128), qkv_size=1024, heads=16, seed=21)
    feats = Tensor(random_features(np.random.default_rng(22), b=1, t=16, k=64, c=256)
                   .astype(np.float32))
    return head, feats


def test_depth_head_holds_one_query_block_at_a_time(eval_depth_head):
    head, feats = eval_depth_head
    b, q, d, tokens = 1, len(head.query_positions), 1024, 16 * 64
    blocks = query_blocks(head, b)
    rows = blocks[0].stop
    assert (q, len(blocks), rows) == (2048, 4, 512)
    bound = 4 * (2 * b * tokens * d         # keys and values
                 + nc.BLOCK                 # one block of the MLP's hidden activation
                 + 6 * b * rows * d         # about six activations of one query block
                 + b * q * 128) + (1 << 20)  # the output, and 1 MB of slack
    with nc.no_grad():
        tracemalloc.start()
        try:
            head.forward(feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < bound, f"peak {peak / 2 ** 20:.1f} MB, bound {bound / 2 ** 20:.1f} MB"


def test_depth_head_blocks_keep_the_single_pass_bits_at_eval_size(eval_depth_head):
    head, feats = eval_depth_head
    with nc.no_grad():
        np.testing.assert_array_equal(head.forward(feats).data,
                                      depth_single_pass(head, feats).data)


# (clip size, qkv size, heads, clips): query grids a few rows past one block
# of the residual MLP, whose short last block joins the one before
SHORT_TAIL_DEPTH_CASES = {
    "513-queries": ((6, 72, 152), 1024, 16, 1),     # 3 x 9 x 19 queries, blocks of 512
    "258-queries": ((2, 16, 1032), 512, 8, 4),      # 1 x 2 x 129 queries, blocks of 256
}


@pytest.mark.parametrize("clip_size, qkv_size, heads, clips", SHORT_TAIL_DEPTH_CASES.values(),
                         ids=SHORT_TAIL_DEPTH_CASES)
def test_depth_head_joins_a_short_last_block_to_the_one_before(clip_size, qkv_size, heads, clips):
    head = DepthHead(32, clip_size=clip_size, qkv_size=qkv_size, heads=heads, seed=23)
    feats = Tensor(random_features(np.random.default_rng(24), b=clips, t=16, k=4, c=32)
                   .astype(np.float32))
    assert query_blocks(head, clips) == [slice(0, len(head.query_positions))]
    with nc.no_grad():
        np.testing.assert_array_equal(head.forward(feats).data,
                                      depth_single_pass(head, feats).data)


def test_depth_head_blocks_keep_the_single_pass_gradients():
    # (16, 96, 96) gives 8 x 12 x 12 = 1152 queries, read in blocks of 682
    # rows for two clips at qkv_size 384, as the probe's head would be
    head = DepthHead(32, clip_size=(16, 96, 96), qkv_size=384, heads=8, seed=25)
    rng = np.random.default_rng(26)
    feats = random_features(rng, b=2, t=16, k=4, c=32).astype(np.float32)
    g = rng.standard_normal((2, 16, 96, 96)).astype(np.float32)
    assert len(query_blocks(head, 2)) == 2

    def run(forward):
        for p in head.params.values():
            p.grad = None
        out = forward(head, Tensor(feats))
        nc.backward(nc.sum_(out * Tensor(g)))
        return out.data, {name: p.grad for name, p in head.params.items()}

    blocked, blocked_grads = run(DepthHead.forward)
    single, single_grads = run(depth_single_pass)
    np.testing.assert_array_equal(blocked, single)
    # attn.k.bias shifts every score of a row alike: its gradient is 0 up to
    # rounding, of about 1e-8 here, which the 1e-7 floor admits
    for name, grad in single_grads.items():
        np.testing.assert_allclose(blocked_grads[name], grad, rtol=1e-4,
                                   atol=1e-5 * np.abs(grad).max() + 1e-7, err_msg=name)


def test_class_head_logits_and_softmax():
    head = ClassHead(feature_channels=8, num_classes=174, qkv_size=16, heads=2)
    feats = Tensor(random_features(np.random.default_rng(15), b=2, c=8).astype(np.float32))
    with nc.no_grad():
        logits = head.forward(feats)
        probs = np.exp(nc.log_softmax(logits).data)
    assert tuple(logits.shape) == (2, 174)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


@pytest.mark.parametrize("name", ["class", "pose", "point", "box", "depth"])
def test_gradients_reach_every_head_parameter(name):
    head, loss = _task_loss_float32(name)
    nc.backward(loss)
    missing = [k for k, v in head.params.items() if v.grad is None]
    assert missing == [] and all(k.startswith(f"{name}.") for k in head.params)


def test_head_parameter_names_are_disjoint():
    # a probe trains the five heads from one merged dict of their parameters
    kw = dict(qkv_size=16, heads=2)
    heads = [ClassHead(8, num_classes=5, **kw), PoseHead(8, **kw), PointTrackHead(8, **kw),
             BoxTrackHead(8, **kw), DepthHead(8, clip_size=(16, 16, 16), **kw)]
    names = [k for head in heads for k in head.params]
    assert len(names) == len(set(names))


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


def _small_head(name, rng):
    """A float32 head on 8 feature channels and its extra forward arguments."""
    kw = dict(qkv_size=16, heads=2)
    return {
        "class": lambda: (ClassHead(8, num_classes=5, **kw), ()),
        "pose": lambda: (PoseHead(8, **kw), ()),
        "point": lambda: (PointTrackHead(8, num_frames=16, **kw), (rng.random((2, 3, 2)),)),
        "box": lambda: (BoxTrackHead(8, num_frames=16, **kw), (rng.random((2, 3, 4)),)),
        "depth": lambda: (DepthHead(8, clip_size=(16, 16, 16), **kw), ()),
    }[name]()


@pytest.mark.parametrize("name", ["class", "pose", "point", "box", "depth"])
def test_float64_array_features_are_cast_to_the_head_dtype(name):
    rng = np.random.default_rng(19)
    feats = random_features(rng, b=2, t=16, k=4, c=8)
    head, extra = _small_head(name, rng)
    with nc.no_grad():
        outs = head.forward(feats, *extra)
        refs = head.forward(Tensor(feats.astype(np.float32)), *extra)
    for out, ref in zip(*(o if isinstance(o, tuple) else (o,) for o in (outs, refs))):
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.data, ref.data)


@pytest.mark.parametrize("name", ["class", "pose", "point", "box", "depth"])
def test_every_head_rejects_features_without_a_batch_axis(name):
    # every head reads its features through one rank check, arrays and Tensors alike
    rng = np.random.default_rng(20)
    head, extra = _small_head(name, rng)
    message = r"^features have shape \(16, 4, 8\), readout expects \(B, T, K, C\)$"
    for feats in (np.zeros((16, 4, 8)), Tensor(np.zeros((16, 4, 8), np.float32))):
        with pytest.raises(ValueError, match=message):
            head.forward(feats, *extra)
