"""Time `numcore.attention` of two source trees at the benchmark's attention shapes.

    python3 tools/attention_timing.py PARENT_TREE CHANGE_TREE [--repeats N]

Each tree is a checkout holding `src/stmae`. Every repeat runs one fresh
process per tree, alternating which tree goes first. For each of the five
attention shapes the workloads run (float32), a process measures, in this
order: the peak `tracemalloc` memory of `numcore.backward` for the loss
sum(out * G), the three input gradients included (this call also warms
the shape up); the no-grad forward; and forward plus backward. The output
is one JSON object: for each shape and tree the minimum over the repeats
of each measure, and whether the two trees' outputs and gradients had
equal bits in every repeat. Numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# name: (q shape, k and v shape, heads)
SHAPES = {
    "latent": ((538, 256), (538, 256), 8),                      # pretrain, encoder with the mask tokens
    "visible": ((26, 256), (26, 256), 8),                       # pretrain, encoder on visible tokens
    "probe_depth_head": ((1, 512, 384), (2, 256, 384), 16),     # probe, depth readout over two clips
    "eval_depth_head": ((1, 2048, 1024), (1, 1024, 1024), 16),  # eval, depth readout at published size
    "eval_features": ((1024, 256), (1024, 256), 8),             # eval, encoder on every token
}
MEASURES = ("forward_ms", "forward_backward_ms", "backward_peak_mb")


def measure(tree):
    """{shape: measures and digest} for `tree`'s numcore, in this process."""
    sys.path.insert(0, str(Path(tree) / "src"))
    import numpy as np
    from stmae import numcore as nc

    results = {}
    for name, (q_shape, kv_shape, heads) in SHAPES.items():
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal(s, dtype=np.float32) for s in (q_shape, kv_shape, kv_shape)]
        g = nc.Tensor(rng.standard_normal(np.broadcast_shapes(q_shape[:-2], kv_shape[:-2])
                                          + q_shape[-2:], dtype=np.float32))

        def graph():
            params = [nc.parameter(a) for a in arrays]
            out = nc.attention(*params, heads)
            return out, params, nc.sum_(out * g)

        out, params, loss = graph()
        tracemalloc.start()
        nc.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        digest = hashlib.sha256(b"".join(a.tobytes() for a in [out.data] + [p.grad for p in params]))
        del out, params, loss
        start = time.perf_counter()
        with nc.no_grad():
            nc.attention(*arrays, heads)
        forward_s = time.perf_counter() - start
        start = time.perf_counter()
        nc.backward(graph()[2])
        both_s = time.perf_counter() - start
        results[name] = {"forward_ms": 1e3 * forward_s, "forward_backward_ms": 1e3 * both_s,
                         "backward_peak_mb": peak / 2 ** 20, "digest": digest.hexdigest()}
    return results


def run(tree):
    """measure(tree) in a fresh process."""
    done = subprocess.run([sys.executable, __file__, "--measure", str(tree)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def compare(parent, change, repeats):
    trees = {"parent": parent, "change": change}
    runs = {side: [] for side in trees}
    for i in range(repeats):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(run(trees[side]))
    report = {"repeats": repeats, "trees": {side: str(Path(t).resolve()) for side, t in trees.items()},
              "shapes": {}}
    for name, (q_shape, kv_shape, heads) in SHAPES.items():
        entry = {"q": list(q_shape), "kv": list(kv_shape), "heads": heads}
        for side in trees:
            entry[side] = {m: round(min(r[name][m] for r in runs[side]), 3) for m in MEASURES}
        entry["bits_equal"] = all(p[name]["digest"] == c[name]["digest"]
                                  for p, c in zip(runs["parent"], runs["change"]))
        report["shapes"][name] = entry
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="checkout of the parent tree")
    parser.add_argument("change", nargs="?", help="checkout of the changed tree")
    parser.add_argument("--repeats", type=int, default=5, help="processes per tree (default 5)")
    parser.add_argument("--measure", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT_TREE and CHANGE_TREE are required")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    for tree in (args.parent, args.change):
        if not (Path(tree) / "src" / "stmae" / "numcore.py").is_file():
            parser.error(f"{tree} holds no src/stmae/numcore.py")
    print(json.dumps(compare(args.parent, args.change, args.repeats), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
