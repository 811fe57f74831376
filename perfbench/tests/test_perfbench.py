"""The benchmark's own tests, at smoke size.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import stats
from perfbench.drive import run_closed, run_open
from perfbench.oracle import LivePoints
from perfbench.streams import MixedStream, Op, dataset, service_ops
from perfbench.workloads import SPECS, measure, measure_layers, smoke_spec
from repro import Region

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_percentile_on_known_samples():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile(values, 99) == pytest.approx(99.01)
    assert stats.percentile([3.0], 99) == 3.0
    assert stats.percentile([4, 1, 3, 2], 0) == 1
    assert stats.percentile([4, 1, 3, 2], 100) == 4
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_p99_needs_ten_samples_beyond_it():
    assert stats.p99_or_none([1.0] * 999) is None
    assert stats.p99_or_none(list(range(1000))) == pytest.approx(989.01)


def test_failed_frac_counts_raised_and_wrong():
    assert stats.failed_frac(200, 1, 3) == pytest.approx(0.02)
    assert stats.failed_frac(5, 0, 0) == 0.0
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0, 0)


def test_digest_is_order_independent_for_dict_keys():
    assert stats.digest({"a": 1, "b": [2, 3]}) == stats.digest(
        {"b": [2, 3], "a": 1}
    )
    assert stats.digest([1, 2]) != stats.digest([2, 1])


def _lookup_result(key, ident):
    record = SimpleNamespace(key=key, value=ident)
    bucket = SimpleNamespace(covers=lambda point: True, records=[record])
    return SimpleNamespace(bucket=bucket, lookups=1, rounds=1)


class _StallingIndex:
    """Answers lookups correctly; the first one stalls."""

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.calls = 0

    def lookup(self, key):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall)
        return _lookup_result(key, 0)


def test_open_loop_times_latency_from_the_due_time():
    oracle = LivePoints([(0.5, 0.5)])
    ops = [Op("lookup", (0.5, 0.5), 0) for _ in range(4)]
    rate = 20.0  # ops due at 0, 50, 100 and 150 ms
    sample = run_open(
        _StallingIndex(0.3), ops, rate, oracle, threads=1, check_every=1
    )
    assert sample.attempted == 4 and sample.failed == 0
    latencies = sample.latency["lookup"]
    assert latencies[0] >= 0.3
    # The ops queued behind the stall are charged the wait from their
    # due time, not from when they were finally sent.
    for position, latency in enumerate(latencies[1:], start=1):
        assert latency >= 0.3 - position / rate - 0.01
    assert sample.lags[1] >= 0.24
    assert sample.max_backlog == 2


class _WrongRangeIndex:
    def range_query(self, region):
        return SimpleNamespace(
            records=(), lookups=1, rounds=1, visited_leaves=frozenset(),
            complete=True,
        )


def test_wrong_answers_count_as_failed():
    oracle = LivePoints([(0.5, 0.5), (0.9, 0.9)])
    region = Region((0.4, 0.4), (0.6, 0.6))
    ops = iter([Op("range", (0.5, 0.5), region=region)] * 3)
    sample = run_closed([(_WrongRangeIndex(), ops, oracle)], count=3)
    assert (sample.attempted, sample.wrong, sample.raised) == (3, 3, 0)
    assert stats.failed_frac(sample.attempted, sample.raised, sample.wrong) == 1.0


def test_oracle_range_is_closed_and_tracks_writes():
    oracle = LivePoints([(0.1, 0.1), (0.2, 0.2)])
    assert oracle.range_ids((0.1, 0.1), (0.2, 0.2)) == [0, 1]
    oracle.delete(0)
    oracle.insert(5000, (0.15, 0.15))
    assert oracle.range_ids((0.1, 0.1), (0.2, 0.2)) == [1, 5000]
    assert oracle.live == 2


def test_streams_are_pure_functions_of_the_seed():
    points = dataset(300)
    assert points == dataset(300)
    first = [next(MixedStream(points, 4)) for _ in range(1)]
    a, b = MixedStream(points, 4), MixedStream(points, 4)
    assert [next(a) for _ in range(500)] == [next(b) for _ in range(500)]
    assert first[0] == next(MixedStream(points, 4))
    ops = service_ops(points, 200, 4, 4e-4)
    assert ops == service_ops(points, 200, 4, 4e-4)
    kinds = {op.kind for op in ops}
    assert kinds == {"lookup", "range", "insert"}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_tiny_workload_passes_its_correctness_check(name):
    spec = smoke_spec(name)
    first = measure(spec, seed=3, seconds=0.4)
    assert first["correct"], first["notes"]
    assert first["failed"] == 0 and first["attempted"] > spec.check_ops
    assert first["checked"] > 0
    for metric in ("setup_s", "ops_per_s", "op_p50_ms", "range_p50_ms"):
        assert first["metrics"][metric] > 0
    # The counter fingerprint repeats exactly for the same code and seed.
    again = measure(spec, seed=3, seconds=0.4)
    assert again["fingerprint"] == first["fingerprint"]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_tiny_traced_run_reports_every_per_layer_metric(name, tmp_path):
    spec = smoke_spec(name)
    result = measure_layers(spec, seed=3, seconds=1.0,
                            spans_path=tmp_path / "spans.jsonl")
    assert result["correct"], result["notes"]
    missing = [
        metric["name"] for metric in BENCHMARK["per_layer"]
        if metric["name"] not in result["metrics"]
    ]
    assert not missing
    assert result["extra"]["trace.overhead"] > 0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
