"""Tests for the benchmark's own helpers and a one-job smoke run of every workload.

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile([3.0], 90) == 3.0


@pytest.mark.parametrize("n, expected", [(100, 90), (30, 66), (20, 50), (5, 50), (1000, 99)])
def test_tail_percentile_keeps_ten_beyond(n, expected):
    q = stats.tail_percentile(n)
    assert q == expected
    values = list(range(1, n + 1))
    if n >= 20:
        assert sum(v > stats.percentile(values, q) for v in values) >= 10
        if q < 99:
            assert sum(v > stats.percentile(values, q + 1) for v in values) < 10


def test_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, med, q3)
    assert stats.relative_spread(values) == (q3 - q1) / med
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


def _span(sid, start, end, parent=None):
    return spans.Span(sid, f"s{sid}", start, end, parent, 0)


def test_self_time_nested():
    own = spans.self_times([_span(2, 3, 4, 1), _span(1, 2, 5, 0), _span(0, 0, 10)])
    assert own == {0: 7, 1: 2, 2: 1}


def test_self_time_siblings_overlap_and_overhang():
    siblings = [_span(0, 0, 10), _span(1, 1, 3, 0), _span(2, 4, 8, 0)]
    assert spans.self_times(siblings)[0] == 4
    overlapping = [_span(0, 0, 10), _span(1, 1, 5, 0), _span(2, 3, 6, 0)]
    assert spans.self_times(overlapping)[0] == 5
    overhanging = [_span(0, 0, 10), _span(1, 8, 12, 0)]
    assert spans.self_times(overhanging)[0] == 8


PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]


def _pairs(change):
    return list(zip(PARENT, change))


def test_verdict_improved():
    change = [v * 0.8 for v in PARENT]
    assert stats.verdict(PARENT, change, _pairs(change), "lower", 0.1) == stats.IMPROVED
    assert stats.verdict(PARENT, change, _pairs(change), "higher", 0.1) == stats.WORSE


def test_verdict_no_worse_and_worse():
    same = list(reversed(PARENT))
    assert stats.verdict(PARENT, same, _pairs(same), "lower", 0.1) == stats.NO_WORSE
    slower = [v * 1.2 for v in PARENT]
    assert stats.verdict(PARENT, slower, _pairs(slower), "lower", 0.1) == stats.WORSE
    slightly = [v * 1.05 for v in PARENT]
    assert stats.verdict(PARENT, slightly, _pairs(slightly), "lower", 0.1) == stats.NO_WORSE


def test_verdict_ties_do_not_count_as_wins():
    assert stats.win_rate([(1.0, 1.0), (1.0, 0.5)], "lower") == 0.5
    assert stats.verdict(PARENT, PARENT, _pairs(PARENT), "lower", 0.1) == stats.NO_WORSE


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    change = [v * 1.05 for v in noisy]
    assert stats.verdict(noisy, change, list(zip(noisy, change)), "lower", 0.1) == stats.UNRESOLVED
    # every change run below every parent run is no worse even under a wide spread
    skewed = [10.0] * 7 + [30.0] * 3
    below = [9.9] * 10
    assert stats.verdict(skewed, below, list(zip(skewed, below)), "lower", 0.1) == stats.NO_WORSE


def test_instrument_records_spans_counts_and_restores():
    import oncells
    import oncells.cli
    from oncells import parse_poly, synthesize

    scheme = synthesize(parse_poly("1+x+x^2", ("x",), 2))
    original = oncells.cli.eval_at
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert oncells.cli.eval_at is not original
        assert oncells.eval_at(scheme, 5) == 9
    assert oncells.cli.eval_at is original and oncells.eval_at is original
    (span,) = tracer.spans
    assert span.name == "sequence.eval_at" and span.parent is None
    # 5 = 101 in base 2: three steps over a 2-state scheme
    assert tracer.counts["sequence.digit_steps"] == 3
    assert tracer.counts["sequence.dense_ops"] == 3 * 2 * 2
    # digit 1 has multisets (1,2) and (1,1); digit 0 has (1) and (1,1)
    assert tracer.counts["sequence.entries_touched"] == 4 + 3 + 4


def test_checker_rejects_a_wrong_value():
    workloads.setup()
    job = workloads._eval("c5", "--n", 1000)
    checker = workloads.Checker()
    right = str(checker.value("c5", 1000))
    assert checker.check(job, 0, right + "\n", "") is None
    assert checker.check(job, 0, right + "1\n", "") == "wrong value"
    assert checker.check(job, 2, "", "error: x") is not None


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_one_job_reports_every_metric(monkeypatch, tmp_path, workload, trace):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "STARTUP_REPEATS", 1)
    monkeypatch.setattr(
        workloads, "build_pass", lambda name, rng: workloads.WORKLOADS[name](rng)[:1]
    )
    monkeypatch.setitem(workloads.PASS_SECONDS, workload, 1.0)
    result = run.run_workload(workload, 7, 1.0, trace, SPEC)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    (written,) = tmp_path.glob("*.json")
    meta = json.loads(written.read_text())["meta"]
    assert meta["seed"] == 7 and meta["jobs"]["attempted"] == result["attempted"]
    assert set(meta["corpus"]) == set(workloads.CORPUS)


def test_seed_fixes_the_inputs():
    for name, pass_seconds in workloads.PASS_SECONDS.items():
        first = workloads.plan(name, 3, 25)
        assert first == workloads.plan(name, 3, 25)
        assert len(first) == int(25 / pass_seconds) and first[0] != first[-1]
        assert len(workloads.plan(name, 3, 0.5)) == 1
