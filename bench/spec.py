"""What the benchmark measures: workloads, metrics, bounds and the map from
each layer to the end-to-end metrics it should move.

`BENCHMARK.json` at the repository root is this module's output
(`python3 bench/spec.py > BENCHMARK.json`); a self-test keeps the two equal.
Layers are the modules of `stmae`, timed from outside at the calls into
their public functions.
"""

from __future__ import annotations

import json

RUN_SECONDS = 25

WORKLOADS = {
    "pretrain": "MAE pretraining at 512 tokens, mask 0.95, clips rendered per step: "
                "the only workload with the renderer and the MAE backward on the blocking path",
    "probe": "frozen-feature readout training at 64 px from a clip cache: "
             "readout forward and backward carry the work, no render and no MAE backward",
    "eval": "forward-only evaluation at 128 px with published head sizes: dense attention "
            "in encoder and depth head dominates, peak memory shows, no backward runs",
}

# name, unit, better, bound (share of the parent's median it may worsen by).
# Timing bounds are wide because whole runs on a shared 2-vCPU machine drift
# by about 10% between runs of the same seed; memory repeats to 1%.
END_TO_END = (
    ("clips_per_s", "clips/s", "higher", 0.25),
    ("step_p50_ms", "ms", "lower", 0.25),
    ("step_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("ok_share", "share", "higher", 0.01),
)

# Step layers, as span names. For each: the end-to-end metrics it should
# move, per workload. Every pairing not listed is predicted not to move.
_SPEED = ["clips_per_s", "step_p50_ms"]
HEADS = ("class", "pose", "point", "box", "depth")
STEP_LAYERS = {
    "synthworld.generate": {"pretrain": _SPEED},
    "synthworld.pretrain_view": {"pretrain": _SPEED},
    "synthworld.load_clip": {"probe": _SPEED, "eval": _SPEED},    # about 1-2% of a step
    "synthworld.augment": {"probe": _SPEED},
    "mae.sample_mask": {},
    "mae.reconstruct": {"pretrain": _SPEED},
    "mae.loss": {"pretrain": _SPEED},
    "mae.features": {"eval": _SPEED, "probe": _SPEED},            # eval most
    "numcore.backward": {"pretrain": _SPEED},
    **{f"readout.{h}.forward": {"eval": _SPEED, "probe": _SPEED} for h in HEADS},
    **{f"readout.{h}.backward": {"probe": _SPEED} for h in HEADS},
    # control layers, each under 1% of a step: no end-to-end movement
    "readout.to_pose": {},
    "metrics.loss": {},
    "metrics.eval": {},
}

# Set-up layers, reported per set-up under a "setup." prefix.
SETUP_LAYERS = {
    "mae.init": {w: ["setup_s"] for w in WORKLOADS},
    "readout.init": {"probe": ["setup_s"], "eval": ["setup_s"]},
    "synthworld.generate": {"probe": ["setup_s"], "eval": ["setup_s"]},
    "synthworld.save_clip": {"probe": ["setup_s"], "eval": ["setup_s"]},
}

# Counters read after each step's backward.
GRAD_COUNTERS = {
    "mae.grad_mb": ("MB", {"pretrain": ["peak_rss_mb", "clips_per_s"]}),
    "mae.float64_grads": ("count", {"pretrain": ["peak_rss_mb", "clips_per_s"]}),
    "readout.grad_mb": ("MB", {"probe": ["peak_rss_mb", "clips_per_s"]}),
    "readout.float64_grads": ("count", {"probe": ["peak_rss_mb", "clips_per_s"]}),
}


def per_layer():
    """(name, unit, better, predicted moves) for every traced metric."""
    rows = []
    for layer, moves in STEP_LAYERS.items():
        rows += [(f"{layer}_ms", "ms", "lower", moves),
                 (f"{layer}.calls", "count", "lower", moves),
                 (f"{layer}.share_pct", "%", "lower", moves)]
    rows += [("harness_ms", "ms", "lower", {}),
             ("harness.share_pct", "%", "lower", {})]
    rows += [(f"setup.{layer}_ms", "ms", "lower", moves) for layer, moves in SETUP_LAYERS.items()]
    rows += [("setup.harness_ms", "ms", "lower", {})]
    rows += [(name, unit, "lower", moves) for name, (unit, moves) in GRAD_COUNTERS.items()]
    rows += [("trace.step_ms", "ms", "lower", {}),
             ("trace.overhead_pct", "%", "lower", {})]
    return rows


def benchmark_json():
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in per_layer()],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
