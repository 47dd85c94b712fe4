"""The three workloads, driven through the public API of `stmae`.

Each workload is a closed loop with one caller in one process: a step
starts when the previous one has ended. Step `i` draws its randomness from
`default_rng([seed, i, clip])`, so its inputs depend only on the seed and
the step index, never on how many steps ran before it in the time allowed.
Constructing a workload is its set-up; `step` returns the outputs that
`check` verifies and `values` feeds to the output digest.
"""

from __future__ import annotations

import os

import numpy as np

from stmae import mae, metrics, numcore as nc, readout, synthworld

DTYPE = np.float32
FRAMES = 16
FEATURE_PCT = 50
SPRITE_SLOTS = 3            # synthworld scenes hold one to three sprites
LOSS_RTOL = 1e-4            # float32 loss against a float64 recompute

# Published readout sizes (qkv_size, heads), as in the paper's heads.
HEAD_SIZES = {"class": (768, 12), "pose": (256, 8), "point": (1024, 8),
              "box": (1024, 4), "depth": (1024, 16)}


def _model(seed, input_size, input_patch):
    """The 4-block, width-256 MAE used by every workload, at one clip geometry."""
    config = mae.ModelConfig(width=256, depth=4, mlp=1024, heads=8, input_size=input_size,
                             input_patch=input_patch, latent_layers=2, mask_ratio=0.95)
    return mae.MaskedVideoModel(config, seed=np.random.default_rng([seed, 0]), dtype=DTYPE)


def _grad_problems(params, where):
    """A finite gradient of its parameter's shape, for every parameter."""
    problems = []
    for name, p in params.items():
        if p.grad is None:
            problems.append(f"{where}: {name} got no gradient")
        elif p.grad.shape != p.data.shape:
            problems.append(f"{where}: {name} gradient shape {p.grad.shape} != {p.data.shape}")
        elif not np.all(np.isfinite(p.grad)):
            problems.append(f"{where}: {name} gradient not finite")
    return problems


def _grad_counters(params):
    """MB of parameter gradients, and float32 parameters holding a float64 grad."""
    grads = [p for p in params.values() if p.grad is not None]
    return (sum(p.grad.nbytes for p in grads) / 2 ** 20,
            sum(1 for p in grads if p.data.dtype == np.float32 and p.grad.dtype == np.float64))


def _clear_grads(params):
    for p in params.values():
        p.grad = None


class Workload:
    clips_per_step = 1
    warmup_steps = 2        # untimed steps, until allocation and caches settle

    def feature_pair(self, output):
        """Features of the step's first clip computed now, and as the step saw
        them (computed a second time when the step did not compute them)."""
        frames, seen = output["first_frames"], output.get("first_features")
        again = self.model.features(frames, FEATURE_PCT).data
        if seen is None:
            seen = self.model.features(frames, FEATURE_PCT).data
        return seen, again

    def counters(self):
        return {}

    def reset(self):
        """Drop what one step left behind before the next starts."""


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

class Pretrain(Workload):
    """Streaming MAE pretraining: render, crop, mask, reconstruct, loss; one backward."""

    clips_per_step = 2
    RENDER = 160
    VIEW = 128

    def __init__(self, seed, workdir, tracer):
        self.seed = seed
        with tracer.span("mae.init"):
            self.model = _model(seed, (FRAMES, self.VIEW, self.VIEW), (2, 16, 16))
        # lazy: clip k is rendered when a step asks for it, clips 2i and 2i+1 for step i
        self.stream = synthworld.generate(seed, 2 ** 40, self.RENDER, FRAMES)

    def step(self, i, tr):
        cfg = self.model.config
        views, recons, losses = [], [], []
        for b in range(self.clips_per_step):
            rng = np.random.default_rng([self.seed, i, b])
            with tr.span("synthworld.generate"):
                clip, _ = next(self.stream)
            with tr.span("synthworld.pretrain_view"):
                view = synthworld.pretrain_view(clip, rng, self.VIEW)
            with tr.span("mae.sample_mask"):
                plan = mae.sample_mask(cfg.num_tokens, cfg.mask_ratio, rng)
            with tr.span("mae.reconstruct"):
                recon, _ = self.model.reconstruct(view, plan)
            with tr.span("mae.loss"):
                losses.append(mae.mae_loss(recon, view))
            views.append(view)
            recons.append(recon)
        loss = (losses[0] + losses[1]) * 0.5
        with tr.span("numcore.backward"):
            nc.backward(loss)
        return {"views": views, "recons": recons, "losses": losses, "loss": loss,
                "first_frames": views[0]}

    def check(self, out):
        problems = []
        for b, (view, recon, loss) in enumerate(zip(out["views"], out["recons"], out["losses"])):
            value = float(loss.data)
            reference = float(np.mean((recon.data.astype(np.float64) - view.astype(np.float64)) ** 2))
            if not np.isfinite(value):
                problems.append(f"clip {b}: loss {value} not finite")
            elif not np.isclose(value, reference, rtol=LOSS_RTOL, atol=0.0):
                problems.append(f"clip {b}: loss {value!r} != float64 recompute {reference!r}")
        return problems + _grad_problems(self.model.params, "mae")

    def values(self, out):
        return [float(l.data) for l in out["losses"]] + [float(out["loss"].data)]

    def counters(self):
        mb, f64 = _grad_counters(self.model.params)
        return {"mae.grad_mb": mb, "mae.float64_grads": f64}

    def reset(self):
        _clear_grads(self.model.params)


# ---------------------------------------------------------------------------
# readouts: shared by probe and eval
# ---------------------------------------------------------------------------

def _heads(seed, clip_size, qkv_cap=None):
    rng = np.random.default_rng([seed, 1])
    seeds = {name: int(rng.integers(2 ** 31)) for name in HEAD_SIZES}
    kw = {}
    for name, (qkv, heads) in HEAD_SIZES.items():
        kw[name] = dict(qkv_size=min(qkv, qkv_cap or qkv), heads=heads, seed=seeds[name], dtype=DTYPE)
    c = 256
    return {
        "class": readout.ClassHead(c, synthworld.NUM_CLASSES, **kw["class"]),
        "pose": readout.PoseHead(c, **kw["pose"]),
        "point": readout.PointTrackHead(c, num_frames=FRAMES, **kw["point"]),
        "box": readout.BoxTrackHead(c, num_frames=FRAMES, **kw["box"]),
        "depth": readout.DepthHead(c, clip_size, **kw["depth"]),
    }


def _render_cache(seed, workdir, count, resolution, tracer):
    os.makedirs(workdir, exist_ok=True)
    stream = synthworld.generate(seed, count, resolution, FRAMES)
    paths = []
    for k in range(count):
        with tracer.span("synthworld.generate"):
            clip, labels = next(stream)
        path = os.path.join(workdir, f"clip{k}.stm")
        with tracer.span("synthworld.save_clip"):
            synthworld.save_clip(path, clip, labels)
        paths.append(path)
    return paths


class Targets:
    """Ground truth of a batch of clips, stacked, with fixed shapes."""

    def __init__(self, labels, resolution):
        self.resolution = resolution
        self.labels = labels
        self.class_ids = np.array([l.class_id for l in labels])
        self.pose12 = np.stack([np.concatenate([l.pose_first_to_last.r.reshape(9),
                                                l.pose_first_to_last.t]) for l in labels])
        self.track_xy = np.stack([l.track_xy for l in labels])
        self.track_vis = np.stack([l.track_vis for l in labels])
        self.query_points = np.clip(self.track_xy[:, :, 0] / resolution, 0.0, 1.0)
        self.boxes = np.zeros((len(labels), SPRITE_SLOTS, FRAMES, 4))
        for b, l in enumerate(labels):
            self.boxes[b, :len(l.boxes)] = l.boxes
        self.query_boxes = np.clip(self.boxes[:, :, 0], 0.0, 1.0)
        self.depth = np.stack([l.depth for l in labels])


def _head_forward(name, head, x, t):
    if name == "point":
        return head.forward(x, t.query_points)
    if name == "box":
        return head.forward(x, t.query_boxes)
    return head.forward(x)


def _task_loss(name, out, t):
    if name == "class":
        return metrics.cross_entropy(out, t.class_ids)
    if name == "pose":
        return metrics.pose_loss(out, t.pose12)
    if name == "point":
        positions, vis, unc = out
        return metrics.point_track_loss(positions * float(t.resolution), vis, unc,
                                        t.track_xy, t.track_vis)
    if name == "box":
        return metrics.box_track_loss(out, t.boxes)
    return metrics.depth_loss(out, t.depth)


def _arrays(outputs):
    """Plain arrays of every head output, keyed as the checks and metrics read them."""
    positions, vis, unc = outputs["point"]
    return {"class": outputs["class"].data, "pose": outputs["pose"].data,
            "point.xy": positions.data, "point.vis": vis.data, "point.unc": unc.data,
            "box": outputs["box"].data, "depth": outputs["depth"].data}


def _expected_shapes(batch, resolution):
    tracks = 12              # synthworld anchors twelve point tracks per clip
    return {"class": (batch, synthworld.NUM_CLASSES), "pose": (batch, 12),
            "point.xy": (batch, tracks, FRAMES, 2), "point.vis": (batch, tracks, FRAMES),
            "point.unc": (batch, tracks, FRAMES), "box": (batch, SPRITE_SLOTS, FRAMES, 4),
            "depth": (batch, FRAMES, resolution, resolution)}


def _score(arrays, t, tr):
    """The five task metrics per clip, in a fixed order: top-1, EPE, AJ, mIoU, AbsRel."""
    scores, poses = [], []
    for b, labels in enumerate(t.labels):
        with tr.span("readout.to_pose"):
            pose = readout.PoseHead.to_pose(arrays["pose"][b])
        poses.append(pose)
        with tr.span("metrics.eval"):
            top1 = metrics.top1(arrays["class"][b:b + 1], t.class_ids[b:b + 1])
        with tr.span("metrics.eval"):
            epe = metrics.epe_pose(pose, labels.pose_first_to_last)
        with tr.span("metrics.eval"):
            aj = metrics.average_jaccard(arrays["point.xy"][b] * t.resolution,
                                         arrays["point.vis"][b], t.track_xy[b], t.track_vis[b])
        with tr.span("metrics.eval"):
            miou = metrics.mean_iou(arrays["box"][b], t.boxes[b])
        with tr.span("metrics.eval"):
            rel = metrics.absrel(metrics.DepthPair.from_depths(arrays["depth"][b], t.depth[b]))
        scores.append({"top1": top1, "epe": epe, "aj": aj, "miou": miou, "absrel": rel})
    return scores, poses


def _readout_problems(arrays, scores, poses, batch, resolution):
    problems = []
    for key, shape in _expected_shapes(batch, resolution).items():
        if arrays[key].shape != shape:
            problems.append(f"{key}: shape {arrays[key].shape} != {shape}")
        elif not np.all(np.isfinite(arrays[key])):
            problems.append(f"{key}: output not finite")
    for b, s in enumerate(scores):
        for key in ("top1", "aj", "miou"):
            if not 0.0 <= s[key] <= 1.0:
                problems.append(f"clip {b}: {key} {s[key]} outside [0, 1]")
        for key in ("epe", "absrel"):
            if not (np.isfinite(s[key]) and s[key] >= 0.0):
                problems.append(f"clip {b}: {key} {s[key]} not finite and >= 0")
    for b, pose in enumerate(poses):
        try:
            pose.validate()
        except ValueError as exc:
            problems.append(f"clip {b}: pose invalid: {exc}")
    return problems


def _score_values(scores):
    return [s[k] for s in scores for k in ("top1", "epe", "aj", "miou", "absrel")]


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

class Probe(Workload):
    """Readout training on frozen features: load, augment, features, five heads fwd+bwd."""

    clips_per_step = 2
    RES = 64
    RENDER = 80             # cached clips are cropped and resized back to RES
    CACHE = 8               # one clip per motion class
    QKV_CAP = 384

    def __init__(self, seed, workdir, tracer):
        self.seed = seed
        size = (FRAMES, self.RES, self.RES)
        with tracer.span("mae.init"):
            self.model = _model(seed, size, (1, 16, 16))
        with tracer.span("readout.init"):
            self.heads = _heads(seed, size, qkv_cap=self.QKV_CAP)
        self.paths = _render_cache(seed, workdir, self.CACHE, self.RENDER, tracer)

    def step(self, i, tr):
        features, labels, first = [], [], None
        for b in range(self.clips_per_step):
            rng = np.random.default_rng([self.seed, i, b])
            path = self.paths[(i * self.clips_per_step + b) % len(self.paths)]
            with tr.span("synthworld.load_clip"):
                clip, lab = synthworld.load_clip(path)
            with tr.span("synthworld.augment"):
                clip, lab = synthworld.augment(clip, lab, rng, out_hw=(self.RES, self.RES))
            with tr.span("mae.features"):
                fmap = self.model.features(clip.frames, FEATURE_PCT)
            if b == 0:
                first = (clip.frames, fmap.data)
            features.append(fmap.data)
            labels.append(lab)
        x = np.stack(features)
        t = Targets(labels, self.RES)
        outputs, losses = {}, {}
        for name, head in self.heads.items():
            with tr.span(f"readout.{name}.forward"):
                outputs[name] = _head_forward(name, head, x, t)
            with tr.span("metrics.loss"):
                losses[name] = _task_loss(name, outputs[name], t)
            with tr.span(f"readout.{name}.backward"):
                nc.backward(losses[name])
        arrays = _arrays(outputs)
        scores, poses = _score(arrays, t, tr)
        return {"arrays": arrays, "losses": {k: float(v.data) for k, v in losses.items()},
                "scores": scores, "poses": poses,
                "first_frames": first[0], "first_features": first[1]}

    def check(self, out):
        problems = _readout_problems(out["arrays"], out["scores"], out["poses"],
                                     self.clips_per_step, self.RES)
        for name, value in out["losses"].items():
            if not np.isfinite(value):
                problems.append(f"{name}: task loss {value} not finite")
        for name, head in self.heads.items():
            problems += _grad_problems(head.params, f"readout.{name}")
        return problems

    def values(self, out):
        return list(out["losses"].values()) + _score_values(out["scores"])

    def _head_params(self):
        return {k: v for head in self.heads.values() for k, v in head.params.items()}

    def counters(self):
        mb, f64 = _grad_counters(self._head_params())
        return {"readout.grad_mb": mb, "readout.float64_grads": f64}

    def reset(self):
        _clear_grads(self._head_params())


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

class Eval(Workload):
    """Forward-only evaluation: load, features and five heads under no_grad, metrics."""

    RES = 128
    CACHE = 4
    warmup_steps = 1        # one step already runs for seconds

    def __init__(self, seed, workdir, tracer):
        size = (FRAMES, self.RES, self.RES)
        with tracer.span("mae.init"):
            self.model = _model(seed, size, (1, 16, 16))
        with tracer.span("readout.init"):
            self.heads = _heads(seed, size)
        self.paths = _render_cache(seed, workdir, self.CACHE, self.RES, tracer)

    def step(self, i, tr):
        with tr.span("synthworld.load_clip"):
            clip, labels = synthworld.load_clip(self.paths[i % len(self.paths)])
        t = Targets([labels], self.RES)
        with nc.no_grad():
            with tr.span("mae.features"):
                fmap = self.model.features(clip.frames, FEATURE_PCT)
            x = fmap.data[None]
            outputs = {}
            for name, head in self.heads.items():
                with tr.span(f"readout.{name}.forward"):
                    outputs[name] = _head_forward(name, head, x, t)
        arrays = _arrays(outputs)
        scores, poses = _score(arrays, t, tr)
        return {"arrays": arrays, "scores": scores, "poses": poses,
                "first_frames": clip.frames, "first_features": fmap.data}

    def check(self, out):
        problems = _readout_problems(out["arrays"], out["scores"], out["poses"], 1, self.RES)
        if not np.all(out["arrays"]["depth"] > 0.0):
            problems.append("depth: prediction not strictly positive")
        return problems

    def values(self, out):
        return _score_values(out["scores"])


WORKLOADS = {"pretrain": Pretrain, "probe": Probe, "eval": Eval}
