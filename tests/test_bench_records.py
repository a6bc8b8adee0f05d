"""Schema validation for every committed ``BENCH_*.json`` record.

The benchmark harness persists one record per scenario and ``--check``
compares fresh runs against them, so a harness refactor that silently
changes the record shape (dropping ``git_sha``, renaming a primary
metric, writing strings where numbers belong) would disarm the
regression gate without failing anything.  These tests pin the contract
documented in ``docs/BENCHMARKING.md``; the ``benchmark-harness-smoke``
CI job runs them against the freshly rewritten records too.
"""

from __future__ import annotations

import json
import math
from datetime import datetime
from pathlib import Path

import pytest

from benchmarks.harness import SCENARIOS

RECORDS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "records"

REQUIRED_KEYS = {
    "scenario",
    "timestamp",
    "git_sha",
    "quick",
    "cpu_count",
    "harness_wall_clock_s",
    "timings",
    "metrics",
}


def record_paths() -> list[Path]:
    return sorted(RECORDS_DIR.glob("BENCH_*.json"))


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_every_scenario_has_a_committed_record():
    committed = {path.stem.removeprefix("BENCH_") for path in record_paths()}
    assert committed == set(SCENARIOS), (
        "every harness scenario must commit a BENCH_<scenario>.json record "
        f"(missing: {set(SCENARIOS) - committed}, "
        f"stale: {committed - set(SCENARIOS)})"
    )


@pytest.mark.parametrize("path", record_paths(), ids=lambda p: p.stem)
class TestRecordSchema:
    def test_required_keys_present(self, path: Path) -> None:
        record = load(path)
        missing = REQUIRED_KEYS - set(record)
        assert not missing, f"{path.name} is missing {sorted(missing)}"

    def test_scenario_matches_filename(self, path: Path) -> None:
        record = load(path)
        assert record["scenario"] == path.stem.removeprefix("BENCH_")
        assert record["scenario"] in SCENARIOS

    def test_timestamp_is_iso8601(self, path: Path) -> None:
        parsed = datetime.fromisoformat(load(path)["timestamp"])
        assert parsed.tzinfo is not None, "timestamps must carry a timezone"

    def test_git_sha_and_counts(self, path: Path) -> None:
        record = load(path)
        assert isinstance(record["git_sha"], str) and record["git_sha"]
        assert isinstance(record["quick"], bool)
        assert isinstance(record["cpu_count"], int) and record["cpu_count"] >= 1
        wall = record["harness_wall_clock_s"]
        assert isinstance(wall, (int, float)) and wall > 0

    def test_timings_are_finite_numbers(self, path: Path) -> None:
        timings = load(path)["timings"]
        assert isinstance(timings, dict) and timings
        for key, value in timings.items():
            assert isinstance(key, str)
            assert isinstance(value, (int, float)) and math.isfinite(value), (
                f"{path.name}: timing {key!r} is not a finite number: {value!r}"
            )

    def test_primary_metric_present_and_finite(self, path: Path) -> None:
        record = load(path)
        _, primary_key, _ = SCENARIOS[record["scenario"]]
        metrics = record["metrics"]
        assert isinstance(metrics, dict) and metrics
        assert primary_key in metrics, (
            f"{path.name}: primary metric {primary_key!r} missing "
            f"(has {sorted(metrics)})"
        )
        value = metrics[primary_key]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value) and value > 0

    def test_previous_block_shape_when_present(self, path: Path) -> None:
        previous = load(path).get("previous")
        if previous is None:
            return
        assert isinstance(previous, dict)
        assert {"git_sha", "timestamp", "metrics"} <= set(previous)


def test_serving_tail_record_is_open_loop_honest():
    """The tail-latency record must carry its methodology, not just a p99.

    ``open_loop_p99_ms`` is only meaningful at a stated offered rate
    with nothing dropped silently, and the record must demonstrate the
    coordinated-omission gap (closed-loop p99 under-reporting an
    injected stall by >= 2x) that justifies gating on the open-loop
    number in the first place.
    """
    record = load(RECORDS_DIR / "BENCH_serving_tail.json")
    metrics = record["metrics"]
    assert metrics["offered_rate_rps"] > 0
    assert metrics["achieved_rate_rps"] > 0
    assert metrics["completed"] > 0
    assert metrics["failed"] == 0 and metrics["dropped"] == 0
    assert metrics["coordinated_omission_p99_gap"] >= 2.0
    timings = record["timings"]
    for key in (
        "open_loop_p50_ms",
        "open_loop_p95_ms",
        "open_loop_p999_ms",
        "http_open_p99_ms",
        "closed_stall_p99_ms",
        "open_stall_p99_ms",
    ):
        assert timings[key] > 0, key
    # The gap in the record matches its own stall-leg percentiles.
    gap = timings["open_stall_p99_ms"] / timings["closed_stall_p99_ms"]
    assert metrics["coordinated_omission_p99_gap"] == pytest.approx(gap)


def test_serving_tail_histogram_sidecar_round_trips():
    """The full histograms ride along as a sidecar, outside BENCH_*.json.

    The record stays a small reviewable summary; the sidecar carries
    the bucket-level distributions CI uploads as an artifact.  Every
    leg must deserialise into a usable ``LatencyHistogram`` whose
    contents agree with the record.
    """
    from repro.loadgen import LatencyHistogram

    record = load(RECORDS_DIR / "BENCH_serving_tail.json")
    assert record.get("artifacts") == ["serving_tail_histogram.json"]
    sidecar = load(RECORDS_DIR / "serving_tail_histogram.json")
    assert set(sidecar["legs"]) == {
        "open_clean",
        "open_http",
        "closed_stall",
        "open_stall",
    }
    for leg, payload in sidecar["legs"].items():
        histogram = LatencyHistogram.from_dict(payload)
        assert histogram.count > 0, leg
        assert histogram.max_ms > 0, leg
    clean = LatencyHistogram.from_dict(sidecar["legs"]["open_clean"])
    assert clean.count == record["metrics"]["completed"]
    assert clean.percentile(99) == pytest.approx(
        record["metrics"]["open_loop_p99_ms"]
    )


def test_serving_chaos_record_proves_the_storm_happened():
    """The chaos record must show faults fired AND the stack absorbed them.

    An availability of 1.0 against a plan that never injected anything
    would be a vacuous gate, so the record has to carry the evidence:
    at least one supervised worker respawn, a non-zero injected-fault
    count, and a recovery tail within the gate the scenario enforces
    in-run.  Orphan count is pinned to exactly zero — it only appears
    in the record at all when the post-shutdown sweep found none.
    """
    record = load(RECORDS_DIR / "BENCH_serving_chaos.json")
    metrics = record["metrics"]
    assert 0.99 <= metrics["chaos_availability"] <= 1.0
    assert metrics["chaos_scheduled"] > 0
    assert (
        metrics["chaos_completed"] + metrics["chaos_failed"] + metrics["chaos_dropped"]
        == metrics["chaos_scheduled"]
    )
    assert metrics["worker_restarts"] >= 1
    assert metrics["injected_faults"] >= 3
    assert metrics["orphan_processes"] == 0
    assert metrics["deadline_sheds"] >= 0
    timings = record["timings"]
    for key in ("baseline_p99_ms", "chaos_p99_ms", "recovery_p99_ms"):
        assert timings[key] > 0, key
    ceiling = max(2.0 * timings["baseline_p99_ms"], 250.0)
    assert timings["recovery_p99_ms"] <= ceiling


def test_serving_chaos_sidecar_matches_the_committed_plan():
    """The sidecar's fired-fault timeline must come from the committed plan.

    The whole point of a seeded plan is that the record describes a
    reproducible storm: the committed plan file regenerates bit-for-bit
    from its recorded seed, and every fault kind the sidecar says fired
    is a kind the plan actually schedules.
    """
    from benchmarks.harness import (
        CHAOS_PLAN_PARAMS,
        CHAOS_PLAN_PATH,
        CHAOS_PLAN_SEED,
    )
    from repro.chaos import FaultPlan
    from repro.loadgen import LatencyHistogram

    plan = FaultPlan.load(CHAOS_PLAN_PATH)
    assert plan.timeline() == FaultPlan.generate(
        CHAOS_PLAN_SEED, **CHAOS_PLAN_PARAMS
    ).timeline()

    record = load(RECORDS_DIR / "BENCH_serving_chaos.json")
    assert record.get("artifacts") == ["serving_chaos_histogram.json"]
    sidecar = load(RECORDS_DIR / "serving_chaos_histogram.json")
    assert sidecar["plan"]["seed"] == CHAOS_PLAN_SEED
    assert tuple(tuple(e) for e in sidecar["plan"]["timeline"]) == tuple(
        plan.timeline()
    )
    planned_kinds = set(plan.kinds())
    assert planned_kinds <= set(sidecar["applied_counts"])
    for _, kind, _ in sidecar["fired_log"]:
        assert kind in planned_kinds
    assert set(sidecar["legs"]) == {"baseline", "chaos", "recovery"}
    for leg, payload in sidecar["legs"].items():
        histogram = LatencyHistogram.from_dict(payload)
        assert histogram.count > 0, leg


def test_serving_mp_record_carries_gil_context():
    """The multi-process record must keep its interpretation context.

    ``process_worker_scaling`` is the gated primary, but the record is
    only honest alongside the ungated secondaries that say what the GIL
    cost on this hardware (``spin_process_vs_thread`` needs spare cores
    to exceed 1.0) and what the process boundary costs when the GIL is
    not the bottleneck (``mp_vs_thread_throughput``).
    """
    record = load(RECORDS_DIR / "BENCH_serving_mp.json")
    metrics = record["metrics"]
    for key in (
        "process_worker_scaling",
        "mp_vs_thread_throughput",
        "spin_process_vs_thread",
        "spin_thread_req_per_sec",
        "spin_process_req_per_sec",
    ):
        value = metrics.get(key)
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            f"BENCH_serving_mp.json: {key!r} missing or non-finite: {value!r}"
        )
        assert value > 0


def test_closed_loop_helper_fails_the_run_on_a_failed_request():
    """A failed request must fail the scenario, not thin its throughput."""
    from benchmarks.harness import _closed_loop

    def failing_send(text: str, sent_at: float) -> None:
        raise RuntimeError("transport down")

    with pytest.raises(AssertionError, match="RuntimeError"):
        _closed_loop(
            [], failing_send, n_clients=2, warmup_s=0.0, measure_s=0.05
        )
