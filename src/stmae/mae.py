"""Space-time vision transformer pretrained by masked autoencoding.

Clips are cut into non-overlapping space-time patches. A mask is one array
of kept token indices: only those tokens run through the pre-norm
transformer blocks, and a learned grid of latent tokens, one per token of
the clip, joins for the final blocks. Each latent maps linearly to its
token's pixel patch; the full-grid reconstruction is trained with a plain
mean-squared error against the RGB input. Features for downstream readouts
come from any block, with every token kept and the latent tokens stripped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import numbers
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .checkpoint import load_tensors, save_tensors
from .numcore import Tensor
from .synthworld import _check_extents, _check_size


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelConfig:
    width: int
    depth: int
    mlp: int
    heads: int
    input_size: tuple = (16, 224, 224)        # frames, height, width
    input_patch: tuple = (2, 16, 16)
    latent_layers: int = 4
    mask_ratio: float = 0.95

    def __post_init__(self):
        # each checked field is stored as a python int or float: a numpy
        # scalar would compare equal but break the JSON of `save_model`
        for name in ("width", "depth", "mlp", "heads", "latent_layers"):
            _check_size(name, getattr(self, name))
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("input_size", "input_patch"):       # JSON configs carry lists
            object.__setattr__(self, name, _check_extents(name, getattr(self, name)))
        if isinstance(self.mask_ratio, bool) or not isinstance(self.mask_ratio, numbers.Real):
            raise ValueError(f"mask_ratio {self.mask_ratio!r} must be a real number")
        object.__setattr__(self, "mask_ratio", float(self.mask_ratio))
        if self.width % self.heads != 0:
            raise ValueError(f"width {self.width} not divisible by heads {self.heads}")
        if self.latent_layers > self.depth:
            raise ValueError(f"latent_layers {self.latent_layers} exceeds depth {self.depth}")
        if any(s % p for s, p in zip(self.input_size, self.input_patch)):
            raise ValueError(f"input_size {self.input_size} not divisible by "
                             f"input_patch {self.input_patch}")
        if not 0 < self.mask_ratio < 1:
            raise ValueError(f"mask_ratio {self.mask_ratio} outside (0, 1)")

    @property
    def token_grid(self):
        return tuple(s // p for s, p in zip(self.input_size, self.input_patch))

    @property
    def num_tokens(self):
        t, h, w = self.token_grid
        return t * h * w

    @property
    def patch_dim(self):
        t, h, w = self.input_patch
        return t * h * w * 3

    def to_dict(self):
        return dataclasses.asdict(self)


def _cfg(width, depth, mlp, heads, **kw):
    return dict(width=width, depth=depth, mlp=mlp, heads=heads, **kw)


# Published encoder ladder (trainable here for parameter accounting only)
# plus two desk-scale configs small enough to train in tests.
PRESETS = {
    "S": _cfg(384, 12, 1536, 6),
    "B": _cfg(768, 12, 3072, 12),
    "L": _cfg(1024, 24, 4096, 16),
    "H": _cfg(1280, 32, 5120, 16),
    "G": _cfg(1664, 48, 8192, 16),
    "e": _cfg(1792, 56, 15360, 16),
    "j": _cfg(4096, 64, 32768, 32, input_size=(16, 256, 256), latent_layers=2),
    "nano": _cfg(64, 4, 256, 4, input_size=(8, 64, 64), latent_layers=2),
    "micro": _cfg(128, 6, 512, 8, input_size=(8, 64, 64), latent_layers=2),
}


def preset(name, **overrides):
    """Build a named ModelConfig, optionally overriding fields."""
    if name not in PRESETS:
        raise KeyError(f"unknown config '{name}'; choose from {sorted(PRESETS)}")
    base = dict(PRESETS[name])
    base.update(overrides)
    return ModelConfig(**base)


def count_parameters(config):
    """Analytic parameter totals, split into encoder and decoding parts (one
    latent per token of the grid, and its projection to a pixel patch).

    Matches an actual instantiation exactly (see tests); avoids allocating
    the multi-billion-parameter configs just to count them.
    """
    w, m = config.width, config.mlp
    block = (4 * w * w + 4 * w) + (2 * w * m + m + w) + 4 * w
    encoder = (
        config.patch_dim * w + w        # patch embedding
        + config.num_tokens * w         # positional embeddings
        + config.depth * block
        + 2 * w                         # final layer norm
    )
    decoding = (
        config.num_tokens * w                           # latent tokens
        + w * config.patch_dim + config.patch_dim       # pixel projection
    )
    return {"encoder": encoder, "decoding": decoding, "total": encoder + decoding}


# ---------------------------------------------------------------------------
# Patches and masks
# ---------------------------------------------------------------------------

def sample_mask(total, ratio, seed):
    """Sorted indices of the tokens a uniform without-replacement mask keeps:
    total - floor(ratio * total) of 0..total-1, total an integer >= 1.

    The floor gets a 1e-9 nudge so ratios like 0.95 whose float product
    lands just under an integer still mask the intended count; a ratio so
    close to 1 that the count reaches total raises a ValueError.
    """
    _check_size("total", total)
    if not 0 < ratio < 1:
        raise ValueError(f"mask ratio must lie in (0, 1), got {ratio}")
    n_masked = int(np.floor(ratio * total + 1e-9))
    if n_masked >= total:
        raise ValueError(f"mask ratio {ratio} keeps no token of {total}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.permutation(total)[n_masked:])


def patchify(frames, patch):
    """Cut (T,H,W,3) frames into (N, t*h*w*3) tokens, row-major over the grid.

    A leading batch axis is carried through: (B,T,H,W,3) -> (B,N,P).
    """
    pt, ph, pw = patch
    *lead, T, H, W, C = frames.shape
    if T % pt or H % ph or W % pw:
        raise ValueError(f"clip extent {(T, H, W)} not divisible by patch {patch}")
    nt, nh, nw = T // pt, H // ph, W // pw
    x = frames.reshape(*lead, nt, pt, nh, ph, nw, pw, C)
    order = tuple(range(len(lead))) + tuple(len(lead) + a for a in (0, 2, 4, 1, 3, 5, 6))
    x = x.transpose(order)
    return np.ascontiguousarray(x.reshape(*lead, nt * nh * nw, pt * ph * pw * C))


def unpatchify(tokens, grid, patch):
    """Inverse of patchify: (..., N, t*h*w*C) tokens on a `grid` of patches
    -> (..., T, H, W, C) Tensor, for any leading axes and channel count."""
    *lead, _, _ = tokens.shape
    x = nc.reshape(tokens, (*lead, *grid, *patch, -1))
    order = tuple(range(len(lead))) + tuple(len(lead) + a for a in (0, 3, 1, 4, 2, 5, 6))
    x = nc.transpose(x, order)
    return nc.reshape(x, (*lead, *(g * p for g, p in zip(grid, patch)), x.shape[-1]))


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

INIT_STD = 0.02             # weights are drawn from a truncated Normal(0, INIT_STD)


_INIT_CHUNK = 1 << 16       # float64 normals drawn at a time by `trunc_normal`


def trunc_normal(rng, shape, dtype):
    """Normal(0, INIT_STD) resampled until everything lies within 2 sigma,
    as a `dtype` array.

    The float64 normals are drawn in chunks of `_INIT_CHUNK`, which consume
    the generator exactly as one draw would; each chunk is scaled and cast
    into the output, so no full-size float64 array is made. The entries
    outside 2 sigma are then redrawn in ascending flat order, as a full
    scan would, and only the entries just redrawn are checked again.
    """
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)
    bad = [np.empty(0, np.intp)]
    for start in range(0, flat.size, _INIT_CHUNK):
        x = rng.standard_normal(min(_INIT_CHUNK, flat.size - start))
        bad.append(np.flatnonzero(np.abs(x) > 2.0) + start)
        flat[start:start + x.size] = x * INIT_STD
    idx = np.concatenate(bad)
    while idx.size:
        x = rng.standard_normal(idx.size)
        ok = np.abs(x) <= 2.0
        flat[idx[ok]] = x[ok] * INIT_STD
        idx = idx[~ok]
    return out


class Layers:
    """The parameters of one model, and the layers that read them.

    The one naming and init scheme of the package: a linear layer `name`
    owns `name.weight` (truncated normal) and `name.bias` (zeros); a norm
    owns `name.scale` (ones) and `name.bias` (zeros), keyed `namespace.name`
    in `params` (bare `name` for an empty namespace) and read back by `name`.
    A norm is one `nc.layer_norm` node, whose output the linear layer or MLP
    that reads it rebuilds in backward instead of keeping. An MLP `name` is
    the two linear layers `name.fc1` and `name.fc2`, applied with a GELU
    between as one `nc.mlp` node. Weights are drawn from `rng` in
    declaration order, and `params` keeps it.
    """

    def __init__(self, rng, dtype, namespace):
        self.rng = rng
        self.dtype = dtype
        self.prefix = f"{namespace}." if namespace else ""
        self.params = {}

    def __getitem__(self, name):
        return self.params[self.prefix + name]

    def add_weight(self, name, shape):
        self.params[self.prefix + name] = nc.parameter(trunc_normal(self.rng, shape, self.dtype))

    def add_linear(self, name, n_in, n_out):
        self.add_weight(f"{name}.weight", (n_in, n_out))
        self.params[f"{self.prefix}{name}.bias"] = nc.parameter(np.zeros(n_out, dtype=self.dtype))

    def add_norm(self, name, n):
        self.params[f"{self.prefix}{name}.scale"] = nc.parameter(np.ones(n, dtype=self.dtype))
        self.params[f"{self.prefix}{name}.bias"] = nc.parameter(np.zeros(n, dtype=self.dtype))

    def linear(self, name, x):
        return nc.affine(x, self[f"{name}.weight"], self[f"{name}.bias"])

    def norm(self, name, x):
        return nc.layer_norm(x, self[f"{name}.scale"], self[f"{name}.bias"])

    def mlp(self, name, x):
        """The two linear layers `name.fc1` and `name.fc2` with a GELU between,
        as one `nc.mlp` node."""
        return nc.mlp(x, self[f"{name}.fc1.weight"], self[f"{name}.fc1.bias"],
                      self[f"{name}.fc2.weight"], self[f"{name}.fc2.bias"])


FEATURE_FRACTIONS = (25, 50, 75, 85, 95, 100)


def feature_block_index(fraction_pct, depth):
    """1-based block index for a depth percentage (integer floor, min 1)."""
    if not isinstance(fraction_pct, int) or fraction_pct not in FEATURE_FRACTIONS:
        raise ValueError(f"layer fraction {fraction_pct}% unsupported; use {FEATURE_FRACTIONS}")
    return max(1, (fraction_pct * depth) // 100)


class MaskedVideoModel:
    """Encoder + pixel decoder over one token grid."""

    def __init__(self, config, seed=0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        w, m = config.width, config.mlp
        L = self.layers = Layers(np.random.default_rng(seed), dtype, "")
        L.add_linear("patch_embed", config.patch_dim, w)
        L.add_weight("pos_embed", (config.num_tokens, w))
        for i in range(config.depth):
            b = f"blocks.{i}"
            L.add_norm(f"{b}.ln1", w)
            L.add_linear(f"{b}.attn.qkv", w, 3 * w)
            L.add_linear(f"{b}.attn.proj", w, w)
            L.add_norm(f"{b}.ln2", w)
            L.add_linear(f"{b}.mlp.fc1", w, m)
            L.add_linear(f"{b}.mlp.fc2", m, w)
        L.add_norm("final_norm", w)
        L.add_weight("latent_tokens", (config.num_tokens, w))
        L.add_linear("decode", w, config.patch_dim)
        self.params = L.params

    def num_parameters(self):
        return sum(t.data.size for t in self.params.values())

    def _block(self, x, i):
        L, b, w = self.layers, f"blocks.{i}", self.config.width
        qkv = L.linear(f"{b}.attn.qkv", L.norm(f"{b}.ln1", x))
        attn = nc.attention(qkv[:, :w], qkv[:, w:2 * w], qkv[:, 2 * w:], self.config.heads)
        x = x + L.linear(f"{b}.attn.proj", attn)
        return x + L.mlp(f"{b}.mlp", L.norm(f"{b}.ln2", x))

    def encode(self, frames, kept, blocks=None):
        """Run blocks 1..`blocks` (all when None) on the tokens `kept` of one
        (T,H,W,3) clip; the masked tokens and the blocks after `blocks` are
        never computed.

        `kept` is a non-empty 1-d integer array of distinct token indices,
        in any order. Returns the token state after the last block run: one
        row per kept token in `kept` order, then the latent tokens once they
        have joined.
        """
        cfg, p = self.config, self.params
        blocks = cfg.depth if blocks is None else blocks
        if not 1 <= blocks <= cfg.depth:
            raise ValueError(f"blocks {blocks} outside 1..{cfg.depth}")
        kept = np.asarray(kept)
        if (kept.ndim != 1 or kept.size == 0 or kept.dtype.kind not in "iu"
                or kept.min() < 0 or kept.max() >= cfg.num_tokens
                or np.unique(kept).size != kept.size):
            raise ValueError(f"kept (shape {kept.shape}, {kept.dtype}) is not a non-empty 1-d "
                             f"integer array of distinct indices in 0..{cfg.num_tokens - 1}")
        frames = np.asarray(frames, dtype=self.dtype)
        if frames.shape != cfg.input_size + (3,):
            raise ValueError(f"clip has shape {frames.shape}, expected config.input_size "
                             f"{cfg.input_size} + (3,)")
        x = self.layers.linear("patch_embed", Tensor(patchify(frames, cfg.input_patch)[kept]))
        x = x + nc.gather(p["pos_embed"], kept)
        for i in range(blocks):
            if i == cfg.depth - cfg.latent_layers:
                x = nc.concat([x, p["latent_tokens"]], axis=0)
            x = self._block(x, i)
        return x

    def reconstruct(self, frames, kept):
        """Full forward pass on the tokens `kept`: returns (reconstruction
        Tensor (T,H,W,3), the token state `encode` returned)."""
        x = self.encode(frames, kept)
        latents = x[len(kept):]
        pixels = self.layers.linear("decode", self.layers.norm("final_norm", latents))
        return unpatchify(pixels, self.config.token_grid, self.config.input_patch), x

    def features(self, frames, fraction_pct):
        """(T, K, C) Tensor of the frozen activations at a depth fraction: T
        token frames, K tokens per frame, C channels; no masking, latents
        dropped, no graph built (`encode` builds one).
        """
        cfg = self.config
        with nc.no_grad():
            x = self.encode(frames, np.arange(cfg.num_tokens),
                            blocks=feature_block_index(fraction_pct, cfg.depth))
        nt, nh, nw = cfg.token_grid
        return nc.reshape(x[:cfg.num_tokens], (nt, nh * nw, cfg.width))

    def state(self):
        return {name: t.data for name, t in self.params.items()}

    def load_state(self, tensors):
        missing = [name for name in self.params if name not in tensors]
        if missing:
            raise ValueError(f"checkpoint lacks tensors {missing}")
        unexpected = [name for name in tensors if name not in self.params]
        if unexpected:
            raise ValueError(f"checkpoint has tensors the model lacks {unexpected}")
        for name, t in self.params.items():
            if tuple(tensors[name].shape) != t.data.shape:
                raise ValueError(f"tensor '{name}' has shape {tensors[name].shape}, "
                                 f"expected {t.data.shape}")
            t.data = tensors[name].astype(self.dtype)


def mae_loss(reconstruction, frames):
    """Mean squared RGB error over every pixel of every patch."""
    target = np.asarray(frames)
    if tuple(reconstruction.shape) != target.shape:
        raise ValueError(f"reconstruction shape {tuple(reconstruction.shape)} "
                         f"!= clip shape {target.shape}")
    return nc.mean(nc.squared_error(reconstruction, np.asarray(target, reconstruction.dtype)))


def save_model(path, model):
    save_tensors(path, model.state(), config=model.config.to_dict())


def load_model(path):
    """A float32 model saved by `save_model`. A file whose config is not a
    ModelConfig (a clip, say, or one with a field of the wrong kind or
    value), or that lacks a tensor, holds one the model lacks or one of the
    wrong shape, raises ValueError naming the path and the keys at fault."""
    tensors, cfg = load_tensors(path)
    fields = dataclasses.fields(ModelConfig)
    unexpected = sorted(cfg.keys() - {f.name for f in fields})
    missing = sorted(f.name for f in fields
                     if f.default is dataclasses.MISSING and f.name not in cfg)
    if unexpected or missing:
        raise ValueError(f"{path}: config is not a ModelConfig: unexpected keys {unexpected}, "
                         f"missing keys {missing}")
    try:
        model = MaskedVideoModel(ModelConfig(**cfg), seed=0)
        model.load_state(tensors)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model


def params_digest(params):
    """Order-independent content hash of a parameter dict: each tensor's
    name, dtype, shape and bytes, so a reshaped or recast tensor changes it."""
    digest = hashlib.sha256()
    for name in sorted(params):
        data = np.asarray(params[name].data if isinstance(params[name], Tensor) else params[name])
        digest.update(f"{name}\0{data.dtype.str}\0{data.shape}\0".encode("utf-8"))
        digest.update(np.ascontiguousarray(data).tobytes())
    return digest.hexdigest()
