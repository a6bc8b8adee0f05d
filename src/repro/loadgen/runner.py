"""Open-loop (and reference closed-loop) load generation runners.

The open-loop runner is the measurement instrument this package exists
for.  Its three honesty rules:

1. **Latency is measured from the intended send time** (the schedule's
   arrival offset), not from when the request actually left.  If the
   generator or the server falls behind, the backlog wait is charged to
   the requests that were due — a stall shows up as tail latency
   instead of silently shrinking the offered load.
2. **The in-flight cap is deadline-aware.**  Concurrency is bounded
   (``max_in_flight`` transport workers) so an unresponsive server
   cannot eat unbounded threads/sockets — but a request that cannot be
   sent before ``intended + deadline_s`` is *dropped and charged the
   full deadline* in the histogram.  Capping concurrency without
   charging the overflow is just coordinated omission with extra steps.
3. **Failures are recorded, typed, and charged.**  An exception from
   the transport counts against the run (by exception class name) and
   its wall-clock cost still lands in the histogram.

:func:`run_closed_loop` is the deliberately naive baseline — N clients,
one request in flight each, latency measured from the actual send — so
the coordinated-omission gap is measurable (and is regression-tested)
rather than folklore.

The transport callable receives ``(text, intended_at)`` where
``intended_at`` is a ``time.monotonic`` timestamp; HTTP transports
should forward it to ``ServingClient(..., intended_at=...)`` so retry
deadlines are anchored to the schedule, not to when the backlog finally
dispatched the request.
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.analysis.lockcheck import create_lock
from repro.loadgen.histogram import LatencyHistogram
from repro.loadgen.schedule import ArrivalSchedule

__all__ = ["LoadResult", "run_closed_loop", "run_open_loop"]

_SendFn = Callable[[str, float], object]


@dataclass
class LoadResult:
    """Outcome of one load-generation run.

    ``scheduled == completed + failed + dropped`` always holds for
    open-loop runs; closed-loop runs have ``dropped == 0`` and
    ``scheduled == completed + failed`` (the client count times however
    many requests they managed — that elasticity is the methodology's
    flaw, which is the point of keeping it around).
    """

    mode: str
    histogram: LatencyHistogram
    offered_rate_rps: float
    achieved_rate_rps: float
    duration_s: float
    scheduled: int
    completed: int
    failed: int
    dropped: int
    error_types: dict[str, int] = field(default_factory=dict)

    @property
    def availability(self) -> float:
        """Fraction of scheduled requests that completed successfully.

        The chaos benchmark's gate metric: failures *and* drops count
        against it, so neither a crashing server nor a backlogged
        generator can dress up as availability.  1.0 when nothing was
        scheduled.
        """
        return self.completed / self.scheduled if self.scheduled else 1.0

    @property
    def p50_ms(self) -> float:
        return self.histogram.percentile(50)

    @property
    def p95_ms(self) -> float:
        return self.histogram.percentile(95)

    @property
    def p99_ms(self) -> float:
        return self.histogram.percentile(99)

    @property
    def p999_ms(self) -> float:
        return self.histogram.percentile(99.9)

    def summary(self) -> dict:
        """Flat dict of the run (record-file / report friendly)."""
        return {
            "mode": self.mode,
            "offered_rate_rps": self.offered_rate_rps,
            "achieved_rate_rps": self.achieved_rate_rps,
            "duration_s": self.duration_s,
            "scheduled": self.scheduled,
            "completed": self.completed,
            "failed": self.failed,
            "dropped": self.dropped,
            "availability": self.availability,
            "error_types": dict(self.error_types),
            **self.histogram.percentiles(),
        }


class _Collector:
    """Thread-safe accumulation of latencies and outcome counters."""

    def __init__(self) -> None:
        self.lock = create_lock("loadgen.collector")
        self.histogram = LatencyHistogram()
        self.completed = 0
        self.failed = 0
        self.dropped = 0
        self.error_types: dict[str, int] = {}
        self.last_done_at = 0.0

    def record(self, outcome: str, latency_ms: float, done_at: float, error=None):
        with self.lock:
            self.histogram.record(latency_ms)
            self.last_done_at = max(self.last_done_at, done_at)
            if outcome == "completed":
                self.completed += 1
            elif outcome == "dropped":
                self.dropped += 1
            else:
                self.failed += 1
                name = type(error).__name__
                self.error_types[name] = self.error_types.get(name, 0) + 1


def run_open_loop(
    schedule: ArrivalSchedule,
    send: _SendFn,
    texts: Sequence[str],
    *,
    max_in_flight: int = 64,
    deadline_s: float = 10.0,
) -> LoadResult:
    """Drive ``send`` with the schedule's arrivals; measure honestly.

    The calling thread is the pacer: it sleeps until each intended
    arrival time and hands ``(index, intended_at)`` to a pool of
    ``max_in_flight`` transport workers.  Workers that are all busy
    leave arrivals queued — their latency clocks are already running —
    and any arrival still unsent at ``intended + deadline_s`` is
    dropped and charged the full deadline.

    ``texts`` is indexed round-robin (``texts[i % len(texts)]``), so a
    streamed corpus slice of any size drives an arbitrarily long run.
    """
    if not texts:
        raise ValueError("texts must be non-empty")
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be >= 1")
    if deadline_s <= 0:
        raise ValueError("deadline_s must be positive")

    collector = _Collector()
    work: queue.SimpleQueue = queue.SimpleQueue()
    deadline_ms = deadline_s * 1000.0

    def worker() -> None:
        while True:
            item = work.get()
            if item is None:
                return
            index, intended_at = item
            now = time.monotonic()
            if now - intended_at >= deadline_s:
                # Could not even start before the deadline: charge the
                # whole deadline so the backlog is visible in the tail.
                collector.record("dropped", deadline_ms, now)
                continue
            try:
                send(texts[index % len(texts)], intended_at)
            except Exception as error:  # noqa: BLE001 - typed + counted
                done = time.monotonic()
                collector.record("failed", (done - intended_at) * 1000.0, done, error)
            else:
                done = time.monotonic()
                collector.record("completed", (done - intended_at) * 1000.0, done)

    workers = [
        threading.Thread(target=worker, name=f"loadgen-{i}", daemon=True)
        for i in range(max_in_flight)
    ]
    for thread in workers:
        thread.start()

    start = time.monotonic()
    for index, offset in enumerate(schedule.times):
        intended_at = start + offset
        delay = intended_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        # If the pacer itself fell behind, the request is late already —
        # intended_at (not now) is what the worker charges against.
        work.put((index, intended_at))
    for _ in workers:
        work.put(None)
    for thread in workers:
        thread.join()

    end = max(collector.last_done_at, start + schedule.duration_s)
    duration = end - start
    return LoadResult(
        mode="open",
        histogram=collector.histogram,
        offered_rate_rps=schedule.rate_rps,
        achieved_rate_rps=collector.completed / duration if duration > 0 else 0.0,
        duration_s=duration,
        scheduled=len(schedule),
        completed=collector.completed,
        failed=collector.failed,
        dropped=collector.dropped,
        error_types=dict(collector.error_types),
    )


def run_closed_loop(
    send: _SendFn,
    texts: Sequence[str],
    *,
    n_clients: int = 8,
    duration_s: float = 2.0,
    warmup_s: float = 0.0,
) -> LoadResult:
    """The coordinated-omission baseline: N clients, measure at send.

    Each client keeps exactly one request in flight and stamps latency
    from the moment *it* sent — so while the server stalls, the clients
    stall with it, offered load collapses, and only ``n_clients``
    requests ever observe the stall.  Kept (and exercised in the
    benchmark suite) to measure how much that methodology hides, and as
    the closed-loop driver of the throughput benchmarks.

    Clients run for ``warmup_s + duration_s``.  Only requests that
    complete inside the measured window (the last ``duration_s``) are
    recorded and counted, so ``achieved_rate_rps`` is that count over
    ``duration_s``; a failure is counted (and charged) whenever it
    happens, warm-up included.
    """
    if not texts:
        raise ValueError("texts must be non-empty")
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if warmup_s < 0:
        raise ValueError("warmup_s must be >= 0")

    collector = _Collector()
    window_start = time.monotonic() + warmup_s
    stop_at = window_start + duration_s

    def client(client_index: int) -> None:
        index = client_index
        while time.monotonic() < stop_at:
            sent_at = time.monotonic()
            error = None
            try:
                send(texts[index % len(texts)], sent_at)
            except Exception as exc:  # noqa: BLE001 - typed + counted
                error = exc
            done = time.monotonic()
            if error is not None:
                collector.record("failed", (done - sent_at) * 1000.0, done, error)
            elif window_start <= done <= stop_at:
                collector.record("completed", (done - sent_at) * 1000.0, done)
            index += n_clients

    threads = [
        threading.Thread(target=client, args=(i,), name=f"closed-{i}", daemon=True)
        for i in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    completed = collector.completed
    achieved = completed / duration_s
    return LoadResult(
        mode="closed",
        histogram=collector.histogram,
        # A closed loop has no offered rate independent of the server;
        # reporting achieved as offered IS the methodological flaw.
        offered_rate_rps=achieved,
        achieved_rate_rps=achieved,
        duration_s=duration_s,
        scheduled=completed + collector.failed,
        completed=completed,
        failed=collector.failed,
        dropped=0,
        error_types=dict(collector.error_types),
    )
