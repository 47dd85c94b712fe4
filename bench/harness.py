"""Arithmetic of the benchmark harness: step statistics, failure counts,
spans with their self times, and the output digest.

Standard library only, so the self-tests run without numpy or the package
under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import struct
import time
import traceback

TAIL_BEYOND = 10        # steps that must lie beyond the tail percentile
TAIL_FLOOR_PCT = 90     # the tail is never read below this percentile


def tail_latency(values, beyond=TAIL_BEYOND, floor_pct=TAIL_FLOOR_PCT):
    """Latency at the highest nearest-rank percentile with `beyond` values above it.

    The percentile never drops below `floor_pct`: a run with fewer than
    `beyond * 100 / (100 - floor_pct)` steps reports its `floor_pct`
    percentile, with fewer than `beyond` steps past it. The rank moves by at
    most one per added step, so the metric has no jump where the rule
    starts to hold. Returns (value, percentile, steps beyond it).
    """
    if not values:
        raise ValueError("tail_latency: no values")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - beyond, (floor_pct * n + 99) // 100)   # 1-based
    return ordered[rank - 1], 100.0 * rank / n, n - rank


class Ledger:
    """Steps attempted and failed. A step fails when it raises or when a
    check rejects its output; it counts once however many checks it fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []          # (step, message) for every failed check

    def record(self, step, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend((step, p) for p in problems)

    @property
    def failed_share(self):
        return self.failed / self.attempted if self.attempted else 0.0


def attempt(step, check, clock=time.perf_counter):
    """Run `step()`, then `check(output)` outside the timed interval.

    Returns (output or None, seconds the step took, list of problems). An
    exception from either call becomes a problem, so one bad step cannot
    end the run.
    """
    start = clock()
    try:
        output = step()
    except Exception:
        return None, clock() - start, ["step raised: " + traceback.format_exc(limit=4)]
    seconds = clock() - start
    try:
        problems = list(check(output))
    except Exception:
        problems = ["check raised: " + traceback.format_exc(limit=4)]
    return output, seconds, problems


def output_digest(rows):
    """SHA-256 over float rows in order; equal only for bitwise-equal values."""
    digest = hashlib.sha256()
    for row in rows:
        for value in row:
            digest.update(struct.pack("<d", float(value)))
        digest.update(b"|")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

_NULL_SPAN = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer._open.append(self.record)
        self.record["start"] = self.tracer.clock()
        return self

    def __exit__(self, *exc):
        self.record["end"] = self.tracer.clock()
        self.tracer._open.pop()
        return False


class Tracer:
    """Records spans in memory while `enabled`; otherwise `span` does nothing.

    A span holds its name, start and end, the index of its parent span and
    the step id of the root span it sits under.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.spans = []
        self._open = []

    def span(self, name, step=None):
        if not self.enabled:
            return _NULL_SPAN
        parent = self._open[-1] if self._open else None
        record = {
            "name": name, "start": None, "end": None,
            "parent": parent["index"] if parent else None,
            "step": parent["step"] if parent else step,
            "index": len(self.spans),
        }
        self.spans.append(record)
        return _Span(self, record)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    result = []
    for s in spans:
        inside = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                  for c in children.get(s["index"], ())]
        result.append(s["end"] - s["start"] - _covered([iv for iv in inside if iv[1] > iv[0]]))
    return result


def layer_summary(spans, root):
    """Per-layer self time under the root spans named `root`.

    Returns ({layer: {"ms", "calls", "share_pct"}}, roots) where "ms" and
    "calls" are means per root span and "share_pct" is the layer's share of
    all root time. The root's own self time, spent in harness code between
    the traced calls, appears as layer "harness", so the "ms" values add up
    to the mean root duration.
    """
    by_index = {s["index"]: s for s in spans}
    selfs = self_times(spans)
    roots = [s for s in spans if s["parent"] is None and s["name"] == root]
    if not roots:
        return {}, 0
    root_ids = {s["index"] for s in roots}
    totals, calls = {}, {}
    for s, own in zip(spans, selfs):
        top = s
        while top["parent"] is not None:
            top = by_index[top["parent"]]
        if top["index"] not in root_ids:
            continue
        layer = "harness" if s is top else s["name"]
        totals[layer] = totals.get(layer, 0.0) + own
        calls[layer] = calls.get(layer, 0) + 1
    whole = sum(s["end"] - s["start"] for s in roots)
    n = len(roots)
    summary = {layer: {"ms": 1e3 * totals[layer] / n,
                       "calls": calls[layer] / n,
                       "share_pct": 100.0 * totals[layer] / whole if whole else 0.0}
               for layer in totals}
    return summary, n
