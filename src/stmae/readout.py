"""Cross-attention readout heads shared by every downstream task.

The shared pipeline: layer-normalize the T x K x C backbone features, add
learned per-time embeddings, let task queries cross-attend to all T*K
tokens, run a residual MLP (hidden 4x the attention width), then a final
linear to the task output size.

A `ReadoutConfig`'s query kind fixes the rest of the query path. "learned"
queries are `num_queries` vectors of `qkv_size` channels (the class and
pose heads use one), and the attention has no output projection. The
Fourier kinds ("fourier-point", "fourier-box", "spatial-patch") encode
geometry (points, boxes, space-time patch centers) with FOURIER_BASES
frequencies per coordinate and pass it through a query MLP to
FOURIER_MLP_SIZE channels; their attention keeps an output projection.
Their query count is set by each call's geometry, so the point, box and
depth heads leave `num_queries` unset. `query_channels` and
`attn_out_proj` are read-only properties derived from the query kind.

Attention is `numcore.attention`, the op the encoder's blocks use, and
every layer is declared and applied through `mae.Layers`, so heads and
encoder share one naming and init scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .mae import Layers
from .numcore import Tensor
from .synthworld import SE3Pose

FOURIER_BASES = 16
FOURIER_MLP_SIZE = 512
QUERY_KINDS = ("learned", "fourier-point", "fourier-box", "spatial-patch")
_COORD_DIMS = {"fourier-point": 2, "fourier-box": 4, "spatial-patch": 3}


@dataclass(frozen=True)
class ReadoutConfig:
    qkv_size: int
    heads: int
    query_kind: str
    output_size: int
    feature_channels: int
    time_steps: int = 16
    num_queries: int = 1             # read by learned queries only

    def __post_init__(self):
        if self.query_kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind '{self.query_kind}'")
        if self.qkv_size % self.heads != 0:
            raise ValueError(f"qkv_size {self.qkv_size} not divisible by heads {self.heads}")
        if self.output_size < 1:
            raise ValueError("output_size must be >= 1")

    @property
    def query_channels(self):
        return self.qkv_size if self.query_kind == "learned" else FOURIER_MLP_SIZE

    @property
    def attn_out_proj(self):
        return self.query_kind != "learned"


# ---------------------------------------------------------------------------
# Query encodings
# ---------------------------------------------------------------------------

def fourier_features(positions):
    """sin/cos at geometric frequencies pi * 2^0..2^(FOURIER_BASES-1) per coordinate.

    positions: (..., d) in [0, 1] -> (..., d * 2 * FOURIER_BASES).
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.size and (pos.min() < 0.0 or pos.max() > 1.0):
        raise ValueError(f"coordinates must lie in [0, 1], got range "
                         f"[{pos.min():.4f}, {pos.max():.4f}]")
    freqs = np.pi * (2.0 ** np.arange(FOURIER_BASES))
    angles = pos[..., None] * freqs                      # (..., d, bases)
    feats = np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)
    return feats.reshape(*pos.shape[:-1], pos.shape[-1] * 2 * FOURIER_BASES)


def procrustes_so3(m):
    """Nearest rotation (Frobenius norm) to a 3x3 matrix via SVD.

    R = U diag(1, 1, det(U V^T)) V^T. Degenerate inputs (rank deficiency
    making the minimizer non-unique) still return a valid minimizer.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    u, _, vt = np.linalg.svd(m)
    sign = 1.0 if np.linalg.det(u @ vt) >= 0 else -1.0
    return (u * np.array([1.0, 1.0, sign])) @ vt


# ---------------------------------------------------------------------------
# Shared cross-attention readout
# ---------------------------------------------------------------------------

class CrossAttentionReadout:
    """LayerNorm -> temporal embeddings -> cross-attention -> residual MLP -> linear."""

    def __init__(self, config, seed=0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        c, d, cq = config.feature_channels, config.qkv_size, config.query_channels
        L = self.layers = Layers(np.random.default_rng(seed), dtype)
        L.add_norm("feat_norm", c)
        L.add_weight("temporal_embed", (config.time_steps, c))
        if config.query_kind == "learned":
            L.add_weight("queries", (config.num_queries, cq))
        else:
            raw = _COORD_DIMS[config.query_kind] * 2 * FOURIER_BASES
            L.add_linear("query_mlp.fc1", raw, FOURIER_MLP_SIZE)
            L.add_linear("query_mlp.fc2", FOURIER_MLP_SIZE, cq)
        L.add_linear("attn.q", cq, d)
        L.add_linear("attn.k", c, d)
        L.add_linear("attn.v", c, d)
        if config.attn_out_proj:
            L.add_linear("attn.out", d, d)
        L.add_norm("mlp_norm", d)
        L.add_linear("mlp.fc1", d, 4 * d)
        L.add_linear("mlp.fc2", 4 * d, d)
        L.add_linear("head", d, config.output_size)
        self.params = L.params

    def num_parameters(self):
        return sum(t.data.size for t in self.params.values())

    def encode_queries(self, positions):
        """Fourier-encode (B, n, d) coordinates and run the query MLP."""
        raw = Tensor(fourier_features(positions).astype(self.dtype))
        return self.layers.linear("query_mlp.fc2", nc.gelu(self.layers.linear("query_mlp.fc1", raw)))

    def learned_queries(self):
        q = self.params["queries"]
        return nc.reshape(q, (1,) + tuple(q.shape))      # broadcasts over batch

    def forward(self, features, queries):
        """features: (B, T, K, C) Tensor or array; queries: (B?, Q, Cq) Tensor."""
        cfg, L = self.config, self.layers
        x = features if isinstance(features, Tensor) else Tensor(np.asarray(features, dtype=self.dtype))
        b, t, k, c = x.shape
        if c != cfg.feature_channels:
            raise ValueError(f"features have {c} channels, readout expects {cfg.feature_channels}")
        if t != cfg.time_steps:
            raise ValueError(f"features have {t} time steps, readout expects {cfg.time_steps}")
        if queries.shape[-1] != cfg.query_channels:
            raise ValueError(f"queries have {queries.shape[-1]} channels, "
                             f"readout expects {cfg.query_channels}")
        x = L.norm("feat_norm", x)
        x = x + nc.reshape(self.params["temporal_embed"], (t, 1, c))
        x = nc.reshape(x, (b, t * k, c))
        y = nc.attention(L.linear("attn.q", queries), L.linear("attn.k", x),
                         L.linear("attn.v", x), cfg.heads)          # (B, Q, qkv_size)
        if cfg.attn_out_proj:
            y = L.linear("attn.out", y)
        z = nc.gelu(L.linear("mlp.fc1", L.norm("mlp_norm", y)))
        y = y + L.linear("mlp.fc2", z)
        return L.linear("head", y)


# ---------------------------------------------------------------------------
# Task heads
# ---------------------------------------------------------------------------

class ClassHead:
    """Single learned query -> class logits."""

    def __init__(self, feature_channels, num_classes, qkv_size=768, heads=12,
                 seed=0, dtype=np.float32):
        self.readout = CrossAttentionReadout(ReadoutConfig(
            qkv_size=qkv_size, heads=heads, query_kind="learned",
            output_size=num_classes, feature_channels=feature_channels,
        ), seed=seed, dtype=dtype)
        self.params = {f"class.{k}": v for k, v in self.readout.params.items()}

    def forward(self, features):
        out = self.readout.forward(features, self.readout.learned_queries())
        return nc.reshape(out, (out.shape[0], out.shape[-1]))


class PoseHead:
    """First/last-frame features, channel-concatenated, -> 12-d pose vector.

    The final linear starts at zero weights with an identity-pose bias, so
    the untrained head predicts the identity transform.
    """

    def __init__(self, feature_channels, qkv_size=256, heads=8, seed=0, dtype=np.float32):
        self.readout = CrossAttentionReadout(ReadoutConfig(
            qkv_size=qkv_size, heads=heads, query_kind="learned",
            output_size=12, feature_channels=2 * feature_channels, time_steps=1,
        ), seed=seed, dtype=dtype)
        self.readout.params["head.weight"].data[:] = 0.0
        self.readout.params["head.bias"].data[:] = np.array(
            [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0], dtype=dtype)
        self.params = {f"pose.{k}": v for k, v in self.readout.params.items()}

    def forward(self, features):
        """features: (B, T, K, C) -> (B, 12) raw pose vectors."""
        first = features[:, :1]
        last = features[:, features.shape[1] - 1:]
        both = nc.concat([first, last], axis=-1)         # (B, 1, K, 2C)
        out = self.readout.forward(both, self.readout.learned_queries())
        return nc.reshape(out, (out.shape[0], 12))

    @staticmethod
    def to_pose(vec12):
        """Project one 12-vector to a valid SE3Pose via Procrustes."""
        vec12 = np.asarray(vec12, dtype=np.float64)
        return SE3Pose(r=procrustes_so3(vec12[:9].reshape(3, 3)), t=vec12[9:].copy())


class PointTrackHead:
    """Fourier point queries, replicated per 2-frame chunk, -> (x,y,vis,unc)."""

    def __init__(self, feature_channels, num_frames=16, qkv_size=1024, heads=8,
                 max_tracks=64, seed=0, dtype=np.float32):
        if num_frames % 2:
            raise ValueError("point head predicts 2 frames per query; frames must be even")
        self.num_frames = num_frames
        self.replicas = num_frames // 2
        self.max_tracks = max_tracks
        self.readout = CrossAttentionReadout(ReadoutConfig(
            qkv_size=qkv_size, heads=heads, query_kind="fourier-point",
            output_size=8, feature_channels=feature_channels,
        ), seed=seed, dtype=dtype)
        self.readout.layers.add_weight("query_time_embed", (self.replicas, FOURIER_MLP_SIZE))
        self.params = {f"point.{k}": v for k, v in self.readout.params.items()}

    def forward(self, features, query_points):
        """query_points: (B, tracks, 2) frame-0 positions in [0, 1].

        Returns (positions01 (B,tracks,frames,2), vis_logits, unc_logits).
        """
        query_points = np.asarray(query_points)
        b, tracks = query_points.shape[:2]
        if tracks > self.max_tracks:
            raise ValueError(f"{tracks} tracks exceed the configured maximum {self.max_tracks}")
        emb = self.readout.encode_queries(query_points)   # (B, tracks, 512)
        emb = nc.reshape(emb, (b, tracks, 1, FOURIER_MLP_SIZE))
        emb = emb + self.readout.params["query_time_embed"]
        queries = nc.reshape(emb, (b, tracks * self.replicas, FOURIER_MLP_SIZE))
        out = self.readout.forward(features, queries)     # (B, tracks*reps, 8)
        out = nc.reshape(out, (b, tracks, self.num_frames, 4))
        positions = nc.sigmoid(out[:, :, :, :2])
        return positions, out[:, :, :, 2], out[:, :, :, 3]


class BoxTrackHead:
    """One Fourier box query per track predicting every frame; raw outputs."""

    MAX_BOXES = 25

    def __init__(self, feature_channels, num_frames=16, qkv_size=1024, heads=4,
                 seed=0, dtype=np.float32):
        self.num_frames = num_frames
        self.readout = CrossAttentionReadout(ReadoutConfig(
            qkv_size=qkv_size, heads=heads, query_kind="fourier-box",
            output_size=4 * num_frames, feature_channels=feature_channels,
        ), seed=seed, dtype=dtype)
        self.params = {f"box.{k}": v for k, v in self.readout.params.items()}

    def forward(self, features, query_boxes):
        """query_boxes: (B, boxes, 4) first-frame (xmin,xmax,ymin,ymax) in [0,1].

        Returns (B, boxes, frames, 4), no output activation.
        """
        query_boxes = np.asarray(query_boxes)
        b, boxes = query_boxes.shape[:2]
        if boxes > self.MAX_BOXES:
            raise ValueError(f"{boxes} boxes exceed the maximum {self.MAX_BOXES}")
        queries = self.readout.encode_queries(query_boxes)
        out = self.readout.forward(features, queries)
        return nc.reshape(out, (b, boxes, self.num_frames, 4))


class DepthHead:
    """Fourier space-time patch queries, each emitting one depth patch.

    Output patch is (2, 8, 8): 128 depth values per query, softplus-mapped
    so depths stay positive, assembled to the full T x H x W map.
    """

    PATCH = (2, 8, 8)

    def __init__(self, feature_channels, clip_size, qkv_size=1024, heads=16,
                 seed=0, dtype=np.float32):
        t, h, w = clip_size
        pt, ph, pw = self.PATCH
        if t % pt or h % ph or w % pw:
            raise ValueError(f"clip size {clip_size} not divisible by depth patch {self.PATCH}")
        self.clip_size = clip_size
        self.grid = (t // pt, h // ph, w // pw)
        centers = np.stack(np.meshgrid(
            (np.arange(self.grid[0]) + 0.5) / self.grid[0],
            (np.arange(self.grid[1]) + 0.5) / self.grid[1],
            (np.arange(self.grid[2]) + 0.5) / self.grid[2],
            indexing="ij"), axis=-1).reshape(-1, 3)
        self.query_positions = centers                     # (Q, 3) in [0,1]
        self.readout = CrossAttentionReadout(ReadoutConfig(
            qkv_size=qkv_size, heads=heads, query_kind="spatial-patch",
            output_size=pt * ph * pw, feature_channels=feature_channels,
        ), seed=seed, dtype=dtype)
        self.params = {f"depth.{k}": v for k, v in self.readout.params.items()}

    def forward(self, features):
        """-> (B, T, H, W) strictly positive depth."""
        b = features.shape[0]
        queries = self.readout.encode_queries(self.query_positions[None])  # (1, Q, 512)
        out = self.readout.forward(features, queries)       # (B, Q, 128)
        out = nc.softplus(out)
        gt, gh, gw = self.grid
        pt, ph, pw = self.PATCH
        y = nc.reshape(out, (b, gt, gh, gw, pt, ph, pw))
        y = nc.transpose(y, (0, 1, 4, 2, 5, 3, 6))
        return nc.reshape(y, (b,) + tuple(self.clip_size))
