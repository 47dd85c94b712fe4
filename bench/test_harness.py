"""Self-tests for the harness's own arithmetic: tail selection, failure
counting, span self times, the digest, and BENCHMARK.json against spec.

    python3 -m pytest -q bench
"""

import json
import math
from pathlib import Path

import harness
import spec


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------

def test_tail_keeps_ten_steps_beyond_when_the_run_is_long():
    value, pct, beyond = harness.tail_latency(list(range(1, 201)))
    assert (value, pct, beyond) == (190, 95.0, 10)


def test_tail_is_p90_by_nearest_rank_when_the_run_is_short():
    assert harness.tail_latency([5.0, 1.0, 4.0, 2.0, 3.0]) == (5.0, 100.0, 0)
    assert harness.tail_latency(list(range(1, 11))) == (9, 90.0, 1)
    assert harness.tail_latency(list(range(1, 21))) == (18, 90.0, 2)


def test_tail_ignores_input_order():
    values = [3.0, 9.0, 1.0, 7.0, 5.0, 2.0, 8.0]
    assert harness.tail_latency(values) == harness.tail_latency(sorted(values))


def test_tail_rank_never_jumps_as_steps_are_added():
    previous = 0
    for n in range(1, 400):
        _, pct, beyond = harness.tail_latency(list(range(n)))
        rank = n - beyond
        assert pct >= 90.0 - 1e-9
        assert previous <= rank <= previous + 1
        if n >= 100:
            assert beyond >= 10
        previous = rank


def test_tail_rejects_an_empty_run():
    try:
        harness.tail_latency([])
    except ValueError:
        return
    raise AssertionError("empty run accepted")


# ---------------------------------------------------------------------------
# failure counting
# ---------------------------------------------------------------------------

def test_ledger_counts_a_step_once_however_many_checks_fail():
    ledger = harness.Ledger()
    ledger.record(0, [])
    ledger.record(1, ["loss not finite", "grad not finite"])
    ledger.record(2, [])
    ledger.record(3, ["depth not positive"])
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert ledger.failed_share == 0.5
    assert [step for step, _ in ledger.problems] == [1, 1, 3]


def test_attempt_turns_raises_into_problems():
    ticks = iter([0.0, 2.5])
    out, seconds, problems = harness.attempt(lambda: 1 / 0, lambda o: [],
                                             clock=lambda: next(ticks))
    assert out is None and seconds == 2.5
    assert len(problems) == 1 and "ZeroDivisionError" in problems[0]

    def bad_check(output):
        raise KeyError("missing")

    out, _, problems = harness.attempt(lambda: "ok", bad_check)
    assert out == "ok" and "check raised" in problems[0]


def test_attempt_times_the_step_but_not_its_check():
    ticks = iter([10.0, 13.0, 99.0])
    out, seconds, problems = harness.attempt(lambda: 7, lambda o: ["bad"] if o != 7 else [],
                                             clock=lambda: next(ticks))
    assert (out, seconds, problems) == (7, 3.0, [])


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def _span(index, name, start, end, parent=None, step=0):
    return {"index": index, "name": name, "start": start, "end": end,
            "parent": parent, "step": step}


def test_self_time_subtracts_nested_children():
    spans = [_span(0, "step", 0.0, 10.0),
             _span(1, "a", 1.0, 4.0, parent=0),
             _span(2, "c", 2.0, 3.0, parent=1),
             _span(3, "b", 5.0, 6.0, parent=0)]
    assert harness.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, "step", 0.0, 10.0),
             _span(1, "a", 1.0, 4.0, parent=0),
             _span(2, "b", 3.0, 6.0, parent=0),
             _span(3, "c", 9.0, 12.0, parent=0)]     # runs past its parent's end
    assert harness.self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_layer_summary_adds_up_to_the_mean_step():
    spans = [_span(0, "step", 0.0, 10.0, step=1),
             _span(1, "a", 1.0, 4.0, parent=0, step=1),
             _span(2, "b", 5.0, 6.0, parent=0, step=1),
             _span(3, "step", 20.0, 26.0, step=2),
             _span(4, "a", 20.0, 21.0, parent=3, step=2),
             _span(5, "a", 22.0, 23.0, parent=3, step=2),
             _span(6, "setup", 30.0, 31.0)]
    summary, roots = harness.layer_summary(spans, "step")
    assert roots == 2
    assert summary["a"] == {"ms": 2500.0, "calls": 1.5, "share_pct": 100.0 * 5 / 16}
    assert summary["b"]["calls"] == 0.5
    assert summary["harness"]["ms"] == 1e3 * (6.0 + 4.0) / 2
    assert math.isclose(sum(s["ms"] for s in summary.values()), 8000.0)
    assert math.isclose(sum(s["share_pct"] for s in summary.values()), 100.0)


def test_tracer_records_nesting_and_step_ids():
    ticks = iter(range(100))
    tracer = harness.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("step", step=7):
        pass
    assert tracer.spans == []           # disabled: nothing recorded
    tracer.enabled = True
    with tracer.span("step", step=7):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    names = [(s["name"], s["parent"], s["step"]) for s in tracer.spans]
    assert names == [("step", None, 7), ("a", 0, 7), ("b", 1, 7), ("c", 0, 7)]
    assert all(s["end"] > s["start"] for s in tracer.spans)


def test_tracer_closes_a_span_when_its_body_raises():
    tracer = harness.Tracer()
    tracer.enabled = True
    try:
        with tracer.span("step", step=0):
            with tracer.span("a"):
                raise RuntimeError
    except RuntimeError:
        pass
    with tracer.span("step", step=1):
        pass
    assert [s["parent"] for s in tracer.spans] == [None, 0, None]
    assert all(s["end"] is not None for s in tracer.spans)


# ---------------------------------------------------------------------------
# digest and the benchmark definition
# ---------------------------------------------------------------------------

def test_digest_is_bitwise_and_order_sensitive():
    rows = [[0.25, 1.0], [3.5]]
    assert harness.output_digest(rows) == harness.output_digest([[0.25, 1.0], [3.5]])
    assert harness.output_digest(rows) != harness.output_digest([[3.5], [0.25, 1.0]])
    assert harness.output_digest(rows) != harness.output_digest([[0.25], [1.0, 3.5]])
    assert harness.output_digest([[0.1 + 0.2]]) != harness.output_digest([[0.3]])


def test_benchmark_json_is_the_spec():
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    assert json.loads(path.read_text()) == spec.benchmark_json()


def test_spec_names_are_unique_and_predictions_name_known_metrics():
    names = [row[0] for row in spec.END_TO_END] + [row[0] for row in spec.per_layer()]
    assert len(names) == len(set(names))
    known = {row[0] for row in spec.END_TO_END}
    for _, _, _, moves in spec.per_layer():
        for workload, metrics in moves.items():
            assert workload in spec.WORKLOADS
            assert set(metrics) <= known
