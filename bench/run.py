"""Run one benchmark workload against `stmae` and print its metrics.

    python3 bench/run.py --workload {pretrain,probe,eval} --seed N --seconds S --trace {0,1}
    for w in pretrain probe eval; do python3 bench/run.py --workload $w --seed 1; done

Run from the repository root; each workload runs in a process of its own,
so that peak memory is the workload's. The program is imported from
`src/`. Set-up runs several times and reports its median; untimed warm-up
steps follow, then steps run for `--seconds` seconds (at least
MIN_TIMED_STEPS of them). Every step's outputs are checked. With
`--trace 0` the last line of standard output is a JSON object holding the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics, taken
from every other timed step so that the steps in between measure the
tracing overhead. A full record (metrics, environment, step latencies,
output digest, spans) is written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spec  # noqa: E402

SETUP_REPEATS = 3
MIN_TIMED_STEPS = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def git_rev(root):
    """Commit id read from .git without running git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package):
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed, threads):
    import numpy
    import scipy
    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "git_rev": git_rev(ROOT),
        "source_sha256": source_digest(ROOT / "src" / "stmae"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "dtype": "float32",
        "seed": seed,
    }


class Run:
    """One workload in one process: set-up, warm-up, the timed loop, checks."""

    def __init__(self, workload_cls, seed, seconds, trace, workdir):
        self.workload_cls = workload_cls
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.tracer = harness.Tracer()
        self.ledger = harness.Ledger()
        self.rows = []                  # digest values per step, in step order
        self.counters = {}
        self.timed = []                 # (seconds, traced, clips completed)

    def set_up(self):
        times, self.workload = [], None
        self.tracer.enabled = self.trace
        for k in range(SETUP_REPEATS):
            self.workload = None        # free the previous set-up first
            start = time.perf_counter()
            with self.tracer.span("setup", step=k):
                self.workload = self.workload_cls(self.seed, str(self.workdir), self.tracer)
            times.append(time.perf_counter() - start)
        self.tracer.enabled = False
        return times

    def step(self, i, traced, keep=False):
        """Run, time and check step `i`. Its outputs are dropped before the next
        step starts, unless `keep` asks for them back."""
        wl = self.workload
        self.tracer.enabled = traced

        def run():
            with self.tracer.span("step", step=i):
                return wl.step(i, self.tracer)

        out, seconds, problems = harness.attempt(run, wl.check)
        self.tracer.enabled = False
        if out is not None:
            self.rows.append(wl.values(out))
            for name, value in wl.counters().items():
                self.counters.setdefault(name, []).append(value)
        self.ledger.record(i, problems)
        wl.reset()
        return seconds, not problems, out if keep else None

    def features_bitwise(self, out):
        seen, again = self.workload.feature_pair(out)
        return seen.dtype == again.dtype and seen.tobytes() == again.tobytes()

    def execute(self):
        self.setup_times = self.set_up()
        warmup = self.workload.warmup_steps
        _, _, out = self.step(0, traced=False, keep=True)
        self.bitwise = out is not None and self.features_bitwise(out)
        del out
        for i in range(1, warmup):
            self.step(i, traced=False)
        self.digest_steps = warmup + MIN_TIMED_STEPS    # steps every run makes
        clips = self.workload.clips_per_step
        start, i = time.perf_counter(), warmup
        while time.perf_counter() - start < self.seconds or len(self.timed) < MIN_TIMED_STEPS:
            traced = bool(self.trace and i % 2 == 0)
            seconds, ok, _ = self.step(i, traced)
            self.timed.append((seconds, traced, clips if ok else 0))
            i += 1

    def end_to_end(self):
        untraced = [t for t in self.timed if not t[1]]
        latencies = [t[0] for t in untraced]
        tail, tail_pct, beyond = harness.tail_latency(latencies)
        values = {
            "clips_per_s": sum(t[2] for t in untraced) / sum(latencies),
            "step_p50_ms": 1e3 * statistics.median(latencies),
            "step_tail_ms": 1e3 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(self.setup_times),
            "ok_share": 1.0 - self.ledger.failed_share,
        }
        detail = {"steps": len(latencies), "tail_pct": tail_pct, "tail_steps_beyond": beyond,
                  "failed_share": self.ledger.failed_share}
        return values, detail

    def per_layer(self):
        steps, _ = harness.layer_summary(self.tracer.spans, "step")
        setups, _ = harness.layer_summary(self.tracer.spans, "setup")
        values = {}
        for layer in spec.STEP_LAYERS:
            s = steps.get(layer, {"ms": 0.0, "calls": 0.0, "share_pct": 0.0})
            values[f"{layer}_ms"] = s["ms"]
            values[f"{layer}.calls"] = s["calls"]
            values[f"{layer}.share_pct"] = s["share_pct"]
        values["harness_ms"] = steps["harness"]["ms"]
        values["harness.share_pct"] = steps["harness"]["share_pct"]
        for layer in spec.SETUP_LAYERS:
            values[f"setup.{layer}_ms"] = setups.get(layer, {"ms": 0.0})["ms"]
        values["setup.harness_ms"] = setups["harness"]["ms"]
        for name in spec.GRAD_COUNTERS:
            series = self.counters.get(name)
            values[name] = float(statistics.median(series)) if series else 0.0
        traced = [t for t in self.timed if t[1]]
        untraced = [t for t in self.timed if not t[1]]
        rate = lambda ts: sum(t[2] for t in ts) / sum(t[0] for t in ts)
        values["trace.step_ms"] = 1e3 * statistics.mean(t[0] for t in traced)
        values["trace.overhead_pct"] = 100.0 * (1.0 - rate(traced) / rate(untraced))
        return values

    def record(self, env):
        return {
            "workload": self.workload_cls.__name__.lower(),
            "environment": env,
            "correct": self.ledger.failed == 0 and self.bitwise,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "problems": self.ledger.problems,
            "features_bitwise": self.bitwise,
            "digest": harness.output_digest(self.rows[:self.digest_steps]),
            "digest_steps": min(self.digest_steps, len(self.rows)),
            "step_values": self.rows,
            "setup_seconds": self.setup_times,
            "step_seconds": [t[0] for t in self.timed],
            "step_traced": [t[1] for t in self.timed],
            "spans": self.tracer.spans,
        }


def main(argv=None):
    args = parse_args(argv)
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)     # before numpy loads its BLAS
    if not (ROOT / "src" / "stmae" / "__init__.py").is_file():
        print(f"bench: no stmae package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out_dir = ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / f"{tag}-{os.getpid()}"
    run = Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    try:
        run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed, threads)
    record = run.record(env)
    e2e, detail = run.end_to_end()
    record.update(detail)
    record["end_to_end"] = e2e
    if args.trace:
        record["per_layer"] = run.per_layer()
        units = {name: unit for name, unit, _, _ in spec.per_layer()}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in record["per_layer"].items()}
    else:
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in e2e.items()}
    if args.workload == "pretrain":
        record["losses"] = [row[-1] for row in run.rows]     # mean loss per step

    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{tag}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"steps {len(run.timed)} timed + {run.workload.warmup_steps} warm-up")
    print("environment " + json.dumps(env))
    print(f"digest {record['digest']} over {record['digest_steps']} steps; "
          f"features bitwise repeatable: {run.bitwise}")
    print(f"failed_share {run.ledger.failed_share:.4f} ({run.ledger.failed} of "
          f"{run.ledger.attempted} steps); tail is p{detail['tail_pct']:.1f} with "
          f"{detail['tail_steps_beyond']} steps beyond")
    for step, problem in run.ledger.problems[:20]:
        print(f"  step {step}: {problem.strip()}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.4f} {m['unit']}")
    if args.trace:
        layers = record["per_layer"]
        parts = layers["harness_ms"] + sum(layers[f"{layer}_ms"] for layer in spec.STEP_LAYERS)
        traced = [t[0] for t in run.timed if t[1]]
        print(f"step layers + harness = {parts:.1f} ms; traced step mean "
              f"{layers['trace.step_ms']:.1f} ms, median {1e3 * statistics.median(traced):.1f} ms")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["correct"], "attempted": run.ledger.attempted,
                      "failed": run.ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
