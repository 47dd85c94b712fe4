"""Cross-attention readout heads shared by every downstream task.

The shared pipeline: layer-normalize the T x K x C backbone features, add
learned per-time embeddings, let task queries cross-attend to all T*K
tokens, run a residual MLP (hidden 4x the attention width), then a final
linear to the task output size.

A head's class fixes its query path. With COORDS = 0 (the class and pose
heads) the query is one learned vector of `qkv_size` channels, and the
attention has no output projection. A head with COORDS > 0 encodes that
many coordinates per query (2 for a point, 4 for a box, 3 for a
space-time patch center) with FOURIER_BASES frequencies each and passes
them through a query MLP to FOURIER_MLP_SIZE channels; its attention
keeps an output projection, and each call's geometry sets its query
count. TIME_STEPS is the number of token frames the temporal embedding
covers: 16, or 1 for the pose head, which reads one fused frame pair.

Attention is `numcore.attention` and both MLPs (the query MLP and the
residual one) are `numcore.mlp`, the ops the encoder's blocks use, and
every layer is declared and applied through `mae.Layers`, so heads and
encoder share one naming and init scheme. Each task head subclasses
`CrossAttentionReadout`, and its TASK namespaces the one `params` dict its
forward reads ("pose.head.weight"); a bare readout's names are unprefixed.

`forward` is `_read(queries, *_keys_values(features))`. `_keys_values`
normalizes the features, adds the temporal embedding and projects them to
keys and values, once per call; `_read` takes any rows of queries through
the q projection, attention, the residual MLP and the head, each query on
its own. The depth head projects its keys and values once and reads its
query grid in the row blocks of the residual MLP, so its readout holds one
block of activations however many queries the clip has; only the keys,
values and output grow with the clip. It assembles its patches with
`mae.unpatchify`.
"""

from __future__ import annotations

import numpy as np

from . import numcore as nc
from .mae import Layers, unpatchify
from .numcore import Tensor
from .synthworld import SE3Pose, _check_extents, _check_size

FOURIER_BASES = 16
FOURIER_MLP_SIZE = 512


# ---------------------------------------------------------------------------
# Query encodings
# ---------------------------------------------------------------------------

def fourier_features(positions):
    """sin/cos at geometric frequencies pi * 2^0..2^(FOURIER_BASES-1) per coordinate.

    positions: (..., d) in [0, 1] -> (..., d * 2 * FOURIER_BASES).
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.size and not (pos.min() >= 0.0 and pos.max() <= 1.0):    # NaN fails both
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
    TASK = ""               # a task head's name, the namespace of its parameters
    COORDS = 0              # coordinates per Fourier query; 0 for one learned query
    TIME_STEPS = 16         # token frames the temporal embedding covers

    def __init__(self, feature_channels, output_size, qkv_size, heads, seed=0, dtype=np.float32):
        for name, value in (("qkv_size", qkv_size), ("heads", heads), ("output_size", output_size),
                            ("feature_channels", feature_channels)):
            _check_size(name, value)
        if qkv_size % heads != 0:
            raise ValueError(f"qkv_size {qkv_size} not divisible by heads {heads}")
        self.feature_channels, self.heads, self.dtype = feature_channels, heads, dtype
        c, d = feature_channels, qkv_size
        cq = self.query_channels = FOURIER_MLP_SIZE if self.COORDS else qkv_size
        L = self.layers = Layers(np.random.default_rng(seed), dtype, self.TASK)
        L.add_norm("feat_norm", c)
        L.add_weight("temporal_embed", (self.TIME_STEPS, c))
        if self.COORDS:
            L.add_linear("query_mlp.fc1", self.COORDS * 2 * FOURIER_BASES, FOURIER_MLP_SIZE)
            L.add_linear("query_mlp.fc2", FOURIER_MLP_SIZE, cq)
        else:
            L.add_weight("queries", (1, cq))
        L.add_linear("attn.q", cq, d)
        L.add_linear("attn.k", c, d)
        L.add_linear("attn.v", c, d)
        if self.COORDS:
            L.add_linear("attn.out", d, d)
        L.add_norm("mlp_norm", d)
        L.add_linear("mlp.fc1", d, 4 * d)
        L.add_linear("mlp.fc2", 4 * d, d)
        L.add_linear("head", d, output_size)
        self.params = L.params

    def num_parameters(self):
        return sum(t.data.size for t in self.params.values())

    def encode_queries(self, positions):
        """Fourier-encode (B, n, d) coordinates and run the query MLP."""
        raw = Tensor(fourier_features(positions).astype(self.dtype))
        return self.layers.mlp("query_mlp", raw)

    def learned_queries(self):
        q = self.layers["queries"]
        return nc.reshape(q, (1,) + tuple(q.shape))      # broadcasts over batch

    def _features(self, features):
        """(B, T, K, C) features as a Tensor; an array is cast to the head's dtype."""
        shape = tuple(np.shape(features))
        if len(shape) != 4:
            raise ValueError(f"features have shape {shape}, readout expects (B, T, K, C)")
        return features if isinstance(features, Tensor) else Tensor(np.asarray(features, self.dtype))

    def _coords(self, what, coords, features):
        """`coords` as a (B, n, COORDS) array, B the batch of the (B, T, K, C)
        `features` Tensor."""
        coords = np.asarray(coords)
        b = features.shape[0]
        if coords.ndim != 3 or coords.shape[0] != b or coords.shape[2] != self.COORDS:
            raise ValueError(f"{what} have shape {coords.shape}, expected ({b}, n, {self.COORDS}) "
                             f"for features of shape {features.shape}")
        return coords

    def forward(self, features, queries):
        """features: (B, T, K, C) Tensor or array; queries: (B?, Q, Cq) Tensor."""
        return self._read(queries, *self._keys_values(features))

    def _keys_values(self, features):
        """The (B, T*K, qkv_size) keys and values of `features`: the checks,
        `feat_norm`, the temporal embedding and the k and v projections, run
        once however many query blocks `_read` then takes."""
        L = self.layers
        x = self._features(features)
        b, t, k, c = x.shape
        if c != self.feature_channels:
            raise ValueError(f"features have {c} channels, readout expects {self.feature_channels}")
        if t != self.TIME_STEPS:
            raise ValueError(f"features have {t} time steps, readout expects {self.TIME_STEPS}")
        x = L.norm("feat_norm", x)
        x = x + nc.reshape(L["temporal_embed"], (t, 1, c))
        x = nc.reshape(x, (b, t * k, c))
        return L.linear("attn.k", x), L.linear("attn.v", x)

    def _read(self, queries, keys, values):
        """The outputs of (B?, Q, Cq) `queries` over `_keys_values`: the q
        projection, attention, the output projection, the residual MLP and
        the head. Each query is read out on its own, so in exact arithmetic
        any split of the query rows gives the rows of the whole."""
        if queries.shape[-1] != self.query_channels:
            raise ValueError(f"queries have {queries.shape[-1]} channels, "
                             f"readout expects {self.query_channels}")
        L = self.layers
        y = nc.attention(L.linear("attn.q", queries), keys, values, self.heads)  # (B, Q, qkv_size)
        if self.COORDS:
            y = L.linear("attn.out", y)
        y = y + L.mlp("mlp", L.norm("mlp_norm", y))
        return L.linear("head", y)


# ---------------------------------------------------------------------------
# Task heads
# ---------------------------------------------------------------------------

class ClassHead(CrossAttentionReadout):
    """Single learned query -> class logits."""
    TASK = "class"

    def __init__(self, feature_channels, num_classes, qkv_size=768, heads=12,
                 seed=0, dtype=np.float32):
        super().__init__(feature_channels, num_classes, qkv_size, heads, seed=seed, dtype=dtype)

    def forward(self, features):
        out = super().forward(features, self.learned_queries())
        return nc.reshape(out, (out.shape[0], out.shape[-1]))


class PoseHead(CrossAttentionReadout):
    """First/last-frame features, channel-concatenated, -> 12-d pose vector.

    The final linear starts at zero weights with an identity-pose bias, so
    the untrained head predicts the identity transform.
    """
    TASK = "pose"
    TIME_STEPS = 1

    def __init__(self, feature_channels, qkv_size=256, heads=8, seed=0, dtype=np.float32):
        super().__init__(2 * feature_channels, 12, qkv_size, heads, seed=seed, dtype=dtype)
        self.layers["head.weight"].data[:] = 0.0
        self.layers["head.bias"].data[:] = [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]

    def forward(self, features):
        """features: (B, T, K, C) -> (B, 12) raw pose vectors."""
        features = self._features(features)
        first = features[:, :1]
        last = features[:, features.shape[1] - 1:]
        both = nc.concat([first, last], axis=-1)         # (B, 1, K, 2C)
        out = super().forward(both, self.learned_queries())
        return nc.reshape(out, (out.shape[0], 12))

    @staticmethod
    def to_pose(vec12):
        """Project one 12-vector to a valid SE3Pose via Procrustes."""
        vec12 = np.asarray(vec12, dtype=np.float64)
        return SE3Pose(r=procrustes_so3(vec12[:9].reshape(3, 3)), t=vec12[9:].copy())


class PointTrackHead(CrossAttentionReadout):
    """Fourier point queries, replicated per 2-frame chunk, -> (x,y,vis,unc)."""

    TASK = "point"
    COORDS = 2
    MAX_TRACKS = 64

    def __init__(self, feature_channels, num_frames=16, qkv_size=1024, heads=8,
                 seed=0, dtype=np.float32):
        _check_size("num_frames", num_frames)
        if num_frames % 2:
            raise ValueError(f"num_frames {num_frames} must be even: the point head "
                             "predicts 2 frames per query")
        self.num_frames = num_frames
        self.replicas = num_frames // 2
        super().__init__(feature_channels, 8, qkv_size, heads, seed=seed, dtype=dtype)
        self.layers.add_weight("query_time_embed", (self.replicas, FOURIER_MLP_SIZE))

    def forward(self, features, query_points):
        """query_points: (B, tracks, 2) frame-0 positions in [0, 1].

        Returns (positions01 (B,tracks,frames,2), vis_logits, unc_logits).
        """
        features = self._features(features)
        query_points = self._coords("query_points", query_points, features)
        b, tracks = query_points.shape[:2]
        if tracks > self.MAX_TRACKS:
            raise ValueError(f"{tracks} tracks exceed the maximum {self.MAX_TRACKS}")
        emb = self.encode_queries(query_points)            # (B, tracks, 512)
        emb = nc.reshape(emb, (b, tracks, 1, FOURIER_MLP_SIZE))
        emb = emb + self.layers["query_time_embed"]
        queries = nc.reshape(emb, (b, tracks * self.replicas, FOURIER_MLP_SIZE))
        out = super().forward(features, queries)          # (B, tracks*reps, 8)
        out = nc.reshape(out, (b, tracks, self.num_frames, 4))
        positions = nc.sigmoid(out[:, :, :, :2])
        return positions, out[:, :, :, 2], out[:, :, :, 3]


class BoxTrackHead(CrossAttentionReadout):
    """One Fourier box query per track predicting every frame; raw outputs."""

    TASK = "box"
    COORDS = 4
    MAX_BOXES = 25

    def __init__(self, feature_channels, num_frames=16, qkv_size=1024, heads=4,
                 seed=0, dtype=np.float32):
        _check_size("num_frames", num_frames)
        self.num_frames = num_frames
        super().__init__(feature_channels, 4 * num_frames, qkv_size, heads, seed=seed, dtype=dtype)

    def forward(self, features, query_boxes):
        """query_boxes: (B, boxes, 4) first-frame (xmin,xmax,ymin,ymax) in [0,1].

        Returns (B, boxes, frames, 4), no output activation.
        """
        features = self._features(features)
        query_boxes = self._coords("query_boxes", query_boxes, features)
        b, boxes = query_boxes.shape[:2]
        if boxes > self.MAX_BOXES:
            raise ValueError(f"{boxes} boxes exceed the maximum {self.MAX_BOXES}")
        out = super().forward(features, self.encode_queries(query_boxes))
        return nc.reshape(out, (b, boxes, self.num_frames, 4))


class DepthHead(CrossAttentionReadout):
    """Fourier space-time patch queries, each emitting one depth patch.

    Output patch is (2, 8, 8): 128 depth values per query, softplus-mapped
    so depths stay positive, assembled to the full T x H x W map.

    The features are projected to keys and values once. The query grid is
    then read out in the row blocks that `numcore.mlp` takes for the
    residual MLP's (B, Q, qkv_size) input, `_row_blocks(Q, B * 4 *
    qkv_size)`: 512 queries per block at 128 px with B = 1 and qkv_size
    1024, and one block at the probe's 64 px. Each block encodes its own
    slice of `query_positions`, so apart from the keys and values only one
    block's activations and the (B, Q, 128) output are held, and the
    depth has the bits of a single pass over the grid.
    """

    TASK = "depth"
    COORDS = 3
    PATCH = (2, 8, 8)

    def __init__(self, feature_channels, clip_size, qkv_size=1024, heads=16,
                 seed=0, dtype=np.float32):
        clip_size = _check_extents("clip_size", clip_size)
        t, h, w = clip_size
        pt, ph, pw = self.PATCH
        if t % pt or h % ph or w % pw:
            raise ValueError(f"clip_size {clip_size} not divisible by depth patch {self.PATCH}")
        self.grid = (t // pt, h // ph, w // pw)
        centers = np.stack(np.meshgrid(
            (np.arange(self.grid[0]) + 0.5) / self.grid[0],
            (np.arange(self.grid[1]) + 0.5) / self.grid[1],
            (np.arange(self.grid[2]) + 0.5) / self.grid[2],
            indexing="ij"), axis=-1).reshape(-1, 3)
        self.query_positions = centers                     # (Q, 3) in [0,1]
        super().__init__(feature_channels, pt * ph * pw, qkv_size, heads, seed=seed, dtype=dtype)

    def forward(self, features):
        """-> (B, T, H, W) strictly positive depth."""
        keys, values = self._keys_values(features)
        hidden = self.layers["mlp.fc1.weight"].shape[1]
        parts = [self._read(self.encode_queries(self.query_positions[None, block]), keys, values)
                 for block in nc._row_blocks(len(self.query_positions), keys.shape[0] * hidden)]
        out = nc.softplus(parts[0] if len(parts) == 1 else nc.concat(parts, axis=1))
        depth = unpatchify(out, self.grid, self.PATCH)              # (B, T, H, W, 1)
        return nc.reshape(depth, depth.shape[:-1])
