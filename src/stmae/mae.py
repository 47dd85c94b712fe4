"""Space-time vision transformer pretrained by masked autoencoding.

Clips are cut into non-overlapping space-time patches, a random subset of
patch tokens is dropped, the remaining tokens run through pre-norm
transformer blocks, and a learned grid of latent tokens joins for the
final blocks. Each latent token maps linearly to one output pixel patch;
the full-grid reconstruction is trained with a plain mean-squared error
against the RGB input. Features for downstream readouts come from any
block, with latent tokens stripped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .numcore import Tensor


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
    decode_grid: tuple = None                  # defaults to the input token grid
    output_patch: tuple = None                 # defaults to input_patch
    mask_ratio: float = 0.95

    def __post_init__(self):
        for name in ("input_size", "input_patch", "decode_grid", "output_patch"):
            value = getattr(self, name)
            if value is not None:           # JSON configs carry lists
                object.__setattr__(self, name, tuple(value))
        if self.decode_grid is None:
            object.__setattr__(self, "decode_grid", self.token_grid)
        if self.output_patch is None:
            object.__setattr__(self, "output_patch", self.input_patch)
        if self.width % self.heads != 0:
            raise ValueError(f"width {self.width} not divisible by heads {self.heads}")
        if self.latent_layers > self.depth:
            raise ValueError(f"latent_layers {self.latent_layers} exceeds depth {self.depth}")
        for size, patch in zip(self.input_size, self.input_patch):
            if size % patch != 0:
                raise ValueError(f"input size {self.input_size} not divisible by patch {self.input_patch}")
        covered = tuple(g * p for g, p in zip(self.decode_grid, self.output_patch))
        if covered != tuple(self.input_size):
            raise ValueError(
                f"decode grid {self.decode_grid} x output patch {self.output_patch} "
                f"covers {covered}, expected {self.input_size}")
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
    def num_latents(self):
        t, h, w = self.decode_grid
        return t * h * w

    @property
    def patch_dim(self):
        t, h, w = self.input_patch
        return t * h * w * 3

    @property
    def output_patch_dim(self):
        t, h, w = self.output_patch
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
    "j": _cfg(4096, 64, 32768, 32, input_size=(16, 256, 256), latent_layers=2,
              decode_grid=(4, 8, 8), output_patch=(4, 32, 32)),
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
    """Analytic parameter totals, split into encoder and decoding parts.

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
        config.num_latents * w                       # latent tokens
        + w * config.output_patch_dim + config.output_patch_dim  # pixel projection
    )
    return {"encoder": encoder, "decoding": decoding, "total": encoder + decoding}


# ---------------------------------------------------------------------------
# Patches and masks
# ---------------------------------------------------------------------------

@dataclass
class MaskPlan:
    """Disjoint kept/masked partition of token indices 0..total-1."""
    kept: np.ndarray
    masked: np.ndarray
    total: int


def sample_mask(total, ratio, seed):
    """Uniform without-replacement mask: |masked| = floor(ratio * total).

    The floor gets a 1e-9 nudge so ratios like 0.95 whose float product
    lands just under an integer still mask the intended count.
    """
    if not 0 < ratio < 1:
        raise ValueError(f"mask ratio must lie in (0, 1), got {ratio}")
    rng = np.random.default_rng(seed)
    n_masked = int(np.floor(ratio * total + 1e-9))
    perm = rng.permutation(total)
    kept = np.sort(perm[n_masked:])
    masked = np.sort(perm[:n_masked])
    return MaskPlan(kept=kept, masked=masked, total=total)


def full_plan(total):
    """Mask plan that keeps every token (used for features and distillation)."""
    return MaskPlan(kept=np.arange(total), masked=np.empty(0, dtype=np.int64), total=total)


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
    """Inverse of patchify for a (N, t*h*w*3) token array."""
    nt, nh, nw = grid
    pt, ph, pw = patch
    x = tokens.reshape(nt, nh, nw, pt, ph, pw, 3)
    x = x.transpose(0, 3, 1, 4, 2, 5, 6)
    return np.ascontiguousarray(x.reshape(nt * pt, nh * ph, nw * pw, 3))


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

INIT_STD = 0.02             # weights are drawn from a truncated Normal(0, INIT_STD)


def trunc_normal(rng, shape):
    """Normal(0, INIT_STD) resampled until everything lies within 2 sigma.

    After the first draw only the entries just redrawn are checked again;
    they are redrawn in ascending flat order, as a full scan would.
    """
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > 2.0)
    while idx.size:
        flat[idx] = rng.standard_normal(idx.size)
        idx = idx[np.abs(flat[idx]) > 2.0]
    return x * INIT_STD


class Layers:
    """The parameters of one model, and the affine layers that read them.

    The one naming and init scheme of the package: a linear layer `name`
    owns `name.weight` (truncated normal) and `name.bias` (zeros); a norm
    owns `name.scale` (ones) and `name.bias` (zeros). Weights are drawn
    from `rng` in declaration order, and `params` keeps that order.
    """

    def __init__(self, rng, dtype):
        self.rng = rng
        self.dtype = dtype
        self.params = {}

    def add_weight(self, name, shape):
        self.params[name] = nc.parameter(trunc_normal(self.rng, shape).astype(self.dtype))

    def add_linear(self, name, n_in, n_out):
        self.add_weight(f"{name}.weight", (n_in, n_out))
        self.params[f"{name}.bias"] = nc.parameter(np.zeros(n_out, dtype=self.dtype))

    def add_norm(self, name, n):
        self.params[f"{name}.scale"] = nc.parameter(np.ones(n, dtype=self.dtype))
        self.params[f"{name}.bias"] = nc.parameter(np.zeros(n, dtype=self.dtype))

    def linear(self, name, x):
        return nc.affine(x, self.params[f"{name}.weight"], self.params[f"{name}.bias"])

    def norm(self, name, x):
        return nc.layer_norm(x) * self.params[f"{name}.scale"] + self.params[f"{name}.bias"]


FEATURE_FRACTIONS = (25, 50, 75, 85, 95, 100)


def feature_block_index(fraction_pct, depth):
    """1-based block index for a depth percentage (integer floor, min 1)."""
    if fraction_pct not in FEATURE_FRACTIONS:
        raise ValueError(f"layer fraction {fraction_pct}% unsupported; use {FEATURE_FRACTIONS}")
    return max(1, (fraction_pct * depth) // 100)


class MaskedVideoModel:
    """Encoder + latent-grid pixel decoder over one clip geometry."""

    def __init__(self, config, seed=0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        w, m = config.width, config.mlp
        L = self.layers = Layers(np.random.default_rng(seed), dtype)
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
        L.add_weight("latent_tokens", (config.num_latents, w))
        L.add_linear("decode", w, config.output_patch_dim)
        self.params = L.params

    def num_parameters(self):
        return sum(t.data.size for t in self.params.values())

    def _block(self, x, i):
        L, b, w = self.layers, f"blocks.{i}", self.config.width
        qkv = L.linear(f"{b}.attn.qkv", L.norm(f"{b}.ln1", x))
        attn = nc.attention(qkv[:, :w], qkv[:, w:2 * w], qkv[:, 2 * w:], self.config.heads)
        x = x + L.linear(f"{b}.attn.proj", attn)
        h = nc.gelu(L.linear(f"{b}.mlp.fc1", L.norm(f"{b}.ln2", x)))
        return x + L.linear(f"{b}.mlp.fc2", h)

    def encode(self, frames, plan, collect=(), blocks=None):
        """Run blocks 1..`blocks` (all when None) on the kept tokens of one
        (T,H,W,3) clip; the blocks after them are never computed.

        Returns (token state after the last block run, dict of collected
        1-based block index -> patch-token activations as Tensors). Every
        collected index must lie in 1..blocks.
        """
        cfg, p = self.config, self.params
        if plan.total != cfg.num_tokens:
            raise ValueError(f"mask plan covers {plan.total} tokens, model expects {cfg.num_tokens}")
        blocks = cfg.depth if blocks is None else blocks
        if not 1 <= blocks <= cfg.depth:
            raise ValueError(f"blocks {blocks} outside 1..{cfg.depth}")
        if any(not 1 <= c <= blocks for c in collect):
            raise ValueError(f"collect {tuple(collect)} outside the blocks run, 1..{blocks}")
        tokens = patchify(np.asarray(frames, dtype=self.dtype), cfg.input_patch)
        kept = Tensor(tokens[plan.kept])
        x = self.layers.linear("patch_embed", kept)
        x = x + nc.gather(p["pos_embed"], plan.kept, axis=0)
        n_visible = len(plan.kept)
        join_at = cfg.depth - cfg.latent_layers
        collected = {}
        for i in range(blocks):
            if i == join_at:
                x = nc.concat([x, p["latent_tokens"]], axis=0)
            x = self._block(x, i)
            if (i + 1) in collect:
                collected[i + 1] = x[:n_visible] if x.shape[0] > n_visible else x
        return x, collected

    def reconstruct(self, frames, plan, collect=()):
        """Full forward pass: returns (reconstruction Tensor (T,H,W,3), collected)."""
        cfg = self.config
        x, collected = self.encode(frames, plan, collect=collect)
        latents = x[len(plan.kept):]
        pixels = self.layers.linear("decode", self.layers.norm("final_norm", latents))
        gt, gh, gw = cfg.decode_grid
        pt, ph, pw = cfg.output_patch
        y = nc.reshape(pixels, (gt, gh, gw, pt, ph, pw, 3))
        y = nc.transpose(y, (0, 3, 1, 4, 2, 5, 6))
        return nc.reshape(y, cfg.input_size + (3,)), collected

    def features(self, frames, fraction_pct, grad=False):
        """(T, K, C) Tensor of the activations at a depth fraction: T token
        frames, K tokens per frame, C channels; no masking, latents dropped.

        Both modes give the same shape and bits. With grad=False no graph is
        built; with grad=True the Tensor backpropagates into the encoder, for
        finetuning.
        """
        cfg = self.config
        block = feature_block_index(fraction_pct, cfg.depth)
        plan = full_plan(cfg.num_tokens)
        with contextlib.nullcontext() if grad else nc.no_grad():
            _, collected = self.encode(frames, plan, collect=(block,), blocks=block)
        nt, nh, nw = cfg.token_grid
        return nc.reshape(collected[block], (nt, nh * nw, cfg.width))

    def state(self):
        return {name: t.data for name, t in self.params.items()}

    def load_state(self, tensors):
        missing = [name for name in self.params if name not in tensors]
        if missing:
            raise ValueError(f"checkpoint lacks tensors {missing}")
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
    diff = reconstruction - Tensor(target.astype(reconstruction.dtype))
    return nc.mean(diff * diff)


def save_model(path, model):
    from .checkpoint import save_tensors
    save_tensors(path, model.state(), config=model.config.to_dict())


def load_model(path, dtype=np.float32):
    """A model saved by `save_model`. A file whose config is not a
    ModelConfig (a clip, say), or that lacks a tensor or holds one of the
    wrong shape, raises ValueError naming the path and the keys at fault."""
    from .checkpoint import load_tensors
    tensors, cfg = load_tensors(path)
    fields = dataclasses.fields(ModelConfig)
    unexpected = sorted(cfg.keys() - {f.name for f in fields})
    missing = sorted(f.name for f in fields
                     if f.default is dataclasses.MISSING and f.name not in cfg)
    if unexpected or missing:
        raise ValueError(f"{path}: config is not a ModelConfig: unexpected keys {unexpected}, "
                         f"missing keys {missing}")
    model = MaskedVideoModel(ModelConfig(**cfg), seed=0, dtype=dtype)
    try:
        model.load_state(tensors)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model


def params_digest(params):
    """Order-independent content hash of a parameter dict."""
    digest = hashlib.sha256()
    for name in sorted(params):
        data = params[name].data if isinstance(params[name], Tensor) else params[name]
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(data).tobytes())
    return digest.hexdigest()
