"""The bench-run summarizer: pairing by seed, win counts, the gain rule and the bounds."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

SPEC = {"end_to_end": [
    {"name": "clips_per_s", "unit": "clips/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]}
ENV = {"git_rev": None, "python": "3.11", "numpy": "2", "scipy": "1", "blas": "openblas",
       "blas_threads": 2, "nproc": 2, "dtype": "float32"}


def write_records(directory, source, rates, rss, traced=False):
    directory.mkdir(exist_ok=True)
    for seed, (rate, mb) in enumerate(zip(rates, rss), start=1):
        record = {"workload": "probe", "correct": True, "digest": f"d{seed}",
                  "step_traced": [False, traced],
                  "environment": {**ENV, "seed": seed, "source_sha256": source},
                  "end_to_end": {"clips_per_s": rate, "peak_rss_mb": mb}}
        (directory / f"probe-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record))


def test_pairs_by_seed_and_applies_the_gain_rule_and_the_bound(tmp_path):
    write_records(tmp_path / "a", "p", [5.0, 5.2, 5.4, 5.1, 5.3], [200, 200, 200, 200, 200])
    write_records(tmp_path / "b", "c", [6.0, 6.1, 5.3, 6.2, 6.0], [211, 211, 211, 211, 211])
    write_records(tmp_path / "b", "c", [1.0], [999], traced=True)     # not an end-to-end run
    probe = bench_summary.summarize(tmp_path / "a", tmp_path / "b", SPEC)["workloads"]["probe"]
    assert probe["seeds"] == [1, 2, 3, 4, 5] and probe["source_sha256"] == {"parent": "p", "change": "c"}
    assert all(probe["digests_equal"].values()) and probe["git_rev"] == {"parent": [None], "change": [None]}
    rate, rss = probe["metrics"]["clips_per_s"], probe["metrics"]["peak_rss_mb"]
    assert (rate["wins"], rate["losses"]) == (4, 1)
    assert rate["parent"]["median"] == 5.2 and rate["change"]["median"] == 6.0
    assert not rate["gain_shown"] and rate["within_bound"]           # 4 of 5 pairs is under 9/10
    assert not rate["unresolved"] and not rss["unresolved"]           # spreads within the bounds
    assert (rss["wins"], rss["losses"]) == (0, 5) and not rss["within_bound"]   # 5.5% over a 5% bound


def test_rejects_runs_of_one_source_on_both_sides(tmp_path):
    for side in ("a", "b"):
        write_records(tmp_path / side, "same", [5.0, 5.1, 5.2], [200, 200, 200])
    with pytest.raises(ValueError, match="same source"):
        bench_summary.summarize(tmp_path / "a", tmp_path / "b", SPEC)


def test_marks_a_metric_unresolved_when_the_parent_spreads_wider_than_its_bound(tmp_path):
    # parent RSS 190-210 MB: quartiles 195 and 206 MB, 11 MB apart, wider than
    # the 5% bound of 10 MB at the 200 MB median
    write_records(tmp_path / "a", "p", [5.0] * 5, [190, 195, 200, 206, 210])
    write_records(tmp_path / "b", "c", [5.0] * 5, [189, 201, 199, 205, 215])
    write_records(tmp_path / "c", "c", [5.0] * 5, [185, 186, 187, 188, 189])
    mixed = bench_summary.summarize(tmp_path / "a", tmp_path / "b", SPEC)["workloads"]["probe"]
    assert mixed["metrics"]["peak_rss_mb"]["within_bound"]
    assert mixed["metrics"]["peak_rss_mb"]["unresolved"]
    assert not mixed["metrics"]["clips_per_s"]["unresolved"]          # no spread at all
    # every change run under every parent run settles it, spread or not
    apart = bench_summary.summarize(tmp_path / "a", tmp_path / "c", SPEC)["workloads"]["probe"]
    assert not apart["metrics"]["peak_rss_mb"]["unresolved"]
