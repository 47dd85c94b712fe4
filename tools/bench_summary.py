"""Summarize paired benchmark runs of a parent and a changed tree as one JSON file.

    python3 tools/bench_summary.py PARENT_DIR CHANGE_DIR --out BENCH_9.json

Each directory holds the records `bench/run.py` writes to `.bench_out/`,
one per workload and seed. Records are grouped by workload and by
`environment.source_sha256`, the digest of the `stmae` sources a run
imported: each directory must hold one source per workload, and the two
must differ. Runs with `--trace 1` are left out, since their end-to-end
metrics come from half the steps. A parent and a change record of the
same workload and seed form a pair.

For each workload and end-to-end metric the output gives each side's
runs, median and quartiles, the change of the median against the
parent's, and how many pairs the change won and lost (ties count for
neither). `gain_shown` applies the rule for claiming a gain: at least nine
tenths of the pairs won, and medians further apart than the parent's
interquartile range. `within_bound` says whether the change's median is no
worse than the parent's by more than the metric's bound in
BENCHMARK.json. `unresolved` marks a metric whose parent runs spread
wider than that bound (their interquartile range against the bound's
share of the parent median) unless every change run beats every parent
run: there, a median within the bound does not show the metric
unchanged. The file also records the git revisions, numpy, scipy,
BLAS and thread counts of the runs, and whether each pair's output digests
are equal.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("python", "numpy", "scipy", "blas", "blas_threads", "nproc", "dtype")
GAIN_SHARE = 0.9


def load_side(directory):
    """{workload: {seed: record}} of the untraced records in `directory`."""
    side = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if any(record["step_traced"]):
            continue
        seeds = side.setdefault(record["workload"], {})
        seed = record["environment"]["seed"]
        if seed in seeds:
            raise ValueError(f"{path}: a second {record['workload']} record for seed {seed}")
        seeds[seed] = record
    return side


def source_of(directory, workload, records):
    shas = sorted({r["environment"]["source_sha256"] for r in records})
    if len(shas) != 1:
        raise ValueError(f"{directory}: {workload} records come from {len(shas)} sources")
    return shas[0]


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(metric, before, after):
    higher = metric["better"] == "higher"
    wins = sum((a > b) if higher else (a < b) for b, a in zip(before, after))
    losses = sum((a < b) if higher else (a > b) for b, a in zip(before, after))
    parent, change = spread(before), spread(after)
    gap = change["median"] - parent["median"]
    gain = gap if higher else -gap
    iqr = parent["q3"] - parent["q1"]
    every_run_better = min(after) > max(before) if higher else max(after) < min(before)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": parent,
        "change": change,
        "median_change_pct": 100.0 * gap / parent["median"] if parent["median"] else 0.0,
        "wins": wins,
        "losses": losses,
        "gain_shown": wins >= GAIN_SHARE * len(before) and gain > iqr,
        "within_bound": gain >= -metric["bound"] * abs(parent["median"]),
        "unresolved": iqr > metric["bound"] * abs(parent["median"]) and not every_run_better,
    }


def summarize(parent_dir, change_dir, spec):
    parent, change = load_side(parent_dir), load_side(change_dir)
    workloads, environments = {}, set()
    for workload in sorted(parent.keys() & change.keys()):
        seeds = sorted(parent[workload].keys() & change[workload].keys())
        if len(seeds) < 3:
            raise ValueError(f"{workload}: {len(seeds)} pairs; quartiles need at least 3")
        pairs = [(parent[workload][s], change[workload][s]) for s in seeds]
        sources = {"parent": source_of(parent_dir, workload, [p for p, _ in pairs]),
                   "change": source_of(change_dir, workload, [c for _, c in pairs])}
        if sources["parent"] == sources["change"]:
            raise ValueError(f"{workload}: parent and change runs come from the same source")
        for record in (r for pair in pairs for r in pair):
            environments.add(json.dumps({k: record["environment"][k] for k in ENV_KEYS}))
        workloads[workload] = {
            "seeds": seeds,
            "pairs": len(pairs),
            "source_sha256": sources,
            "git_rev": {side: sorted({r["environment"]["git_rev"] for r in records}, key=str)
                        for side, records in zip(("parent", "change"), zip(*pairs))},
            "all_correct": all(r["correct"] for pair in pairs for r in pair),
            "digests_equal": {str(s): p["digest"] == c["digest"] for s, (p, c) in zip(seeds, pairs)},
            "metrics": {m["name"]: compare(m, [p["end_to_end"][m["name"]] for p, _ in pairs],
                                           [c["end_to_end"][m["name"]] for _, c in pairs])
                        for m in spec["end_to_end"]},
        }
    if not workloads:
        raise ValueError("no workload has records on both sides")
    return {"environment": [json.loads(e) for e in sorted(environments)], "workloads": workloads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="directory of the parent tree's bench records")
    parser.add_argument("change", help="directory of the changed tree's bench records")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        summary = summarize(args.parent, args.change, spec)
    except ValueError as exc:
        print(f"bench_summary: {exc}", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    for workload, w in summary["workloads"].items():
        print(f"{workload}: {w['pairs']} pairs, correct {w['all_correct']}, "
              f"digests equal {all(w['digests_equal'].values())}")
        for name, m in w["metrics"].items():
            print(f"  {name:14s} {m['parent']['median']:10.3f} -> {m['change']['median']:10.3f} "
                  f"{m['unit']:8s} ({m['median_change_pct']:+6.1f}%)  wins {m['wins']}/{w['pairs']}"
                  f"  gain shown {m['gain_shown']}  within bound {m['within_bound']}"
                  f"{'  UNRESOLVED' if m['unresolved'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
