"""Prometheus text-format metrics for the serving gateway.

:func:`render_metrics` turns one consistent
:class:`~repro.engine.server.StatsSnapshot`, the aggregated
:class:`~repro.engine.engine.EngineStats`, and the gateway's HTTP
counters into Prometheus exposition text (version 0.0.4 — the format
every Prometheus scraper and ``promtool`` accepts).  :func:`parse_metrics`
is the inverse used by the tests, the e2e smoke job, and the benchmark
harness to read counters back without a Prometheus dependency.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.lockcheck import create_lock
from repro.engine.engine import EngineStats
from repro.engine.server import StatsSnapshot
from repro.loadgen.histogram import LatencyHistogram

__all__ = [
    "LATENCY_LADDER",
    "LATENCY_LE",
    "HttpCounters",
    "parse_metrics",
    "render_metrics",
]

#: Recorder bucket indices used as the ``le`` ladder of
#: ``holistix_model_latency_ms``: every 14th edge of the stats
#: histogram (1.05**14 ≈ 1.98, so about 2× apart), 0.01 ms to ~66 s.
#: The edges are the recorder's own, so every ``_bucket`` count is exact
#: and sums across fleet entries.
LATENCY_LADDER = tuple(range(0, 23 * 14 + 1, 14))
#: The ``le`` label values: each edge in ms, as its exact float repr.
LATENCY_LE = tuple(repr(LatencyHistogram().upper_edge_ms(i)) for i in LATENCY_LADDER)


class HttpCounters:
    """Thread-safe per-endpoint/status HTTP request counters."""

    def __init__(self) -> None:
        self._lock = create_lock("gateway.http_counters")
        self._counts: dict[tuple[str, int], int] = {}

    def record(self, endpoint: str, status: int) -> None:
        with self._lock:
            key = (endpoint, status)
            self._counts[key] = self._counts.get(key, 0) + 1

    def snapshot(self) -> dict[tuple[str, int], int]:
        with self._lock:
            return dict(self._counts)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _sample(name: str, value: float, labels: dict[str, str] | None = None) -> str:
    if labels:
        rendered = ",".join(
            f'{k}="{_escape_label_value(v)}"' for k, v in sorted(labels.items())
        )
        return f"{name}{{{rendered}}} {value}"
    return f"{name} {value}"


def render_metrics(
    snapshot: StatsSnapshot,
    engine_stats: EngineStats,
    http_counts: dict[tuple[str, int], int],
    *,
    ready: bool,
    model_id: str,
    processes: list[dict] | None = None,
    chaos: dict | None = None,
    models: list[dict] | None = None,
    shadow: dict | None = None,
) -> str:
    """Prometheus exposition text for one scrape.

    All inputs are immutable copies taken before rendering, so every
    sample in one scrape belongs to the same instant.  ``processes`` is
    the multi-process server's :meth:`~repro.engine.procserver.
    ProcessInferenceServer.worker_processes` report (``None`` for the
    threaded server) — it adds per-worker-process liveness and restart
    families.  ``chaos`` (``{"armed": bool, "injected": {kind: n}}``)
    adds the fault-injection families while an experiment is armed, so
    recovery can be watched on ``/metrics`` without probing
    ``/healthz`` (which would itself revive workers).

    ``models`` adds the per-fleet-entry families: one dict per entry
    with ``name``, its own ``snapshot`` (:class:`StatsSnapshot`),
    ``traffic_share``, ``weights_version``, and ``shadow``.  The A/B
    split is audited from ``holistix_requests_total{model=...}``;
    latency is the ``holistix_model_latency_ms`` histogram on the
    :data:`LATENCY_LADDER` edges.  ``shadow`` (``{"submitted": n,
    "failed": n}``) counts mirrored shadow traffic fleet-wide.
    ``snapshot`` is the default entry's, for the per-worker families.
    """
    lines: list[str] = []

    def family(name: str, kind: str, help_text: str, samples: Iterable[str]):
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)

    family(
        "holistix_ready",
        "gauge",
        "1 when the gateway is accepting traffic, 0 while starting or draining.",
        [_sample("holistix_ready", 1 if ready else 0, {"model_id": model_id})],
    )
    family(
        "holistix_http_requests_total",
        "counter",
        "HTTP requests answered, by endpoint and status code.",
        [
            _sample(
                "holistix_http_requests_total",
                count,
                {"endpoint": endpoint, "status": str(status)},
            )
            for (endpoint, status), count in sorted(http_counts.items())
        ],
    )
    family(
        "holistix_worker_thread_deaths_total",
        "counter",
        "Serving threads that died on an unexpected exception and were "
        "replaced this epoch.",
        [
            _sample(
                "holistix_worker_thread_deaths_total",
                snapshot.worker_thread_deaths,
            )
        ],
    )
    family(
        "holistix_worker_requests_total",
        "counter",
        "Texts served per worker replica this epoch.",
        [
            _sample("holistix_worker_requests_total", count, {"worker": str(i)})
            for i, count in enumerate(snapshot.per_worker_requests)
        ],
    )
    family(
        "holistix_engine_cache_hits_total",
        "counter",
        "Prediction-cache hits across worker engine replicas.",
        [_sample("holistix_engine_cache_hits_total", engine_stats.cache_hits)],
    )
    family(
        "holistix_engine_cache_misses_total",
        "counter",
        "Prediction-cache misses across worker engine replicas.",
        [_sample("holistix_engine_cache_misses_total", engine_stats.cache_misses)],
    )
    family(
        "holistix_engine_cache_hit_rate",
        "gauge",
        "Prediction-cache hit rate across worker engine replicas.",
        [_sample("holistix_engine_cache_hit_rate", engine_stats.hit_rate)],
    )
    if processes is not None:
        family(
            "holistix_worker_process_alive",
            "gauge",
            "1 while the worker's serving process is alive, by worker and pid.",
            [
                _sample(
                    "holistix_worker_process_alive",
                    1 if proc["alive"] else 0,
                    {
                        "worker": str(proc["worker"]),
                        "pid": str(proc["pid"] if proc["pid"] is not None else ""),
                    },
                )
                for proc in processes
            ],
        )
        family(
            "holistix_worker_process_restarts_total",
            "counter",
            "Times each worker slot's process was respawned after dying.",
            [
                _sample(
                    "holistix_worker_process_restarts_total",
                    proc["restarts"],
                    {"worker": str(proc["worker"])},
                )
                for proc in processes
            ],
        )
    if models is not None:

        def per_model(name: str, kind: str, help_text: str, value) -> None:
            family(
                name,
                kind,
                help_text,
                [_sample(name, value(m), {"model": m["name"]}) for m in models],
            )

        per_model(
            "holistix_requests_total",
            "counter",
            "Texts served per fleet entry this epoch (the A/B split audit).",
            lambda m: m["snapshot"].requests,
        )
        per_model(
            "holistix_model_batches_total",
            "counter",
            "Coalesced inference batches executed per fleet entry this epoch.",
            lambda m: m["snapshot"].batches,
        )
        per_model(
            "holistix_model_shed_total",
            "counter",
            "Requests rejected by shed-mode admission, per fleet entry.",
            lambda m: m["snapshot"].shed,
        )
        per_model(
            "holistix_model_deadline_shed_total",
            "counter",
            "Requests shed for an uncoverable deadline, per fleet entry.",
            lambda m: m["snapshot"].deadline_shed,
        )
        per_model(
            "holistix_model_shed_rate",
            "gauge",
            "Fraction of offered requests shed this epoch, per fleet entry.",
            lambda m: m["snapshot"].shed_rate,
        )
        model_latency: list[str] = []
        for m in models:
            snapshot, labels = m["snapshot"], {"model": m["name"]}
            counts = snapshot.latency.cumulative_counts(LATENCY_LADDER)
            model_latency.extend(
                _sample("holistix_model_latency_ms_bucket", n, {**labels, "le": le})
                for le, n in zip(LATENCY_LE, counts)
            )
            model_latency += [
                _sample(
                    "holistix_model_latency_ms_bucket",
                    snapshot.requests,
                    {**labels, "le": "+Inf"},
                ),
                _sample(
                    "holistix_model_latency_ms_sum", snapshot.total_latency_ms, labels
                ),
                _sample("holistix_model_latency_ms_count", snapshot.requests, labels),
            ]
        family(
            "holistix_model_latency_ms",
            "histogram",
            "Queue-to-response latency per fleet entry, this epoch.",
            model_latency,
        )
        per_model(
            "holistix_model_traffic_share",
            "gauge",
            "Configured fraction of A/B-split traffic, per fleet entry.",
            lambda m: m["traffic_share"],
        )
        per_model(
            "holistix_model_weights_version",
            "gauge",
            "Version token of the entry's served weights (0 = never reloaded).",
            lambda m: m["weights_version"],
        )
        per_model(
            "holistix_model_shadow",
            "gauge",
            "1 for shadow entries (mirrored traffic, never answering).",
            lambda m: 1 if m["shadow"] else 0,
        )
    if shadow is not None:
        family(
            "holistix_shadow_submitted_total",
            "counter",
            "Texts mirrored to shadow entries (fire-and-forget).",
            [_sample("holistix_shadow_submitted_total", shadow["submitted"])],
        )
        family(
            "holistix_shadow_failed_total",
            "counter",
            "Shadow mirror submissions that shed, errored, or were refused.",
            [_sample("holistix_shadow_failed_total", shadow["failed"])],
        )
    if chaos is not None:
        family(
            "holistix_chaos_armed",
            "gauge",
            "1 while a fault-injection plan is armed against this gateway.",
            [_sample("holistix_chaos_armed", 1 if chaos.get("armed") else 0)],
        )
        family(
            "holistix_chaos_injected_total",
            "counter",
            "Faults actually applied by the armed injector, by kind.",
            [
                _sample("holistix_chaos_injected_total", count, {"kind": kind})
                for kind, count in sorted(chaos.get("injected", {}).items())
            ],
        )
    return "\n".join(lines) + "\n"


def _parse_label_block(block: str) -> frozenset[tuple[str, str]]:
    """Parse ``key="value",...`` honouring the exposition-format escapes.

    Values may contain commas, escaped quotes (``\\"``), escaped
    backslashes, and ``\\n`` — everything :func:`_escape_label_value`
    can emit — so a naive comma split would corrupt them.
    """
    pairs: list[tuple[str, str]] = []
    i, n = 0, len(block)
    while i < n:
        eq = block.find("=", i)
        if eq == -1:
            raise ValueError(f"malformed label block: {block!r}")
        key = block[i:eq]
        if not key.replace("_", "").isalnum():
            raise ValueError(f"malformed label name: {key!r}")
        i = eq + 1
        if i >= n or block[i] != '"':
            raise ValueError(f"label {key!r} value is not quoted")
        i += 1
        value_chars: list[str] = []
        while i < n and block[i] != '"':
            ch = block[i]
            if ch == "\\":
                if i + 1 >= n:
                    raise ValueError(f"dangling escape in label {key!r}")
                nxt = block[i + 1]
                unescaped = {"\\": "\\", '"': '"', "n": "\n"}.get(nxt, "\\" + nxt)
                value_chars.append(unescaped)
                i += 2
            else:
                value_chars.append(ch)
                i += 1
        if i >= n:
            raise ValueError(f"unterminated value for label {key!r}")
        i += 1  # closing quote
        pairs.append((key, "".join(value_chars)))
        if i < n:
            if block[i] != ",":
                raise ValueError(f"malformed label separator at {block[i:]!r}")
            i += 1
    return frozenset(pairs)


def parse_metrics(text: str) -> dict[tuple[str, frozenset[tuple[str, str]]], float]:
    """Parse exposition text -> ``{(name, labelset): value}``.

    A deliberately small parser for the subset :func:`render_metrics`
    emits (and that any conformant exporter produces for simple
    counters/gauges): one sample per line, with full support for the
    label-value escapes the renderer can produce.  Raises
    ``ValueError`` on lines that fit neither a comment, a blank, nor a
    sample — which is what makes it usable as a format check in the
    tests.
    """
    samples: dict[tuple[str, frozenset[tuple[str, str]]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"malformed sample line: {line!r}")
        value = float(value_part)  # raises ValueError on malformed values
        labels: frozenset[tuple[str, str]] = frozenset()
        if "{" in name_part:
            if not name_part.endswith("}"):
                raise ValueError(f"malformed label block: {line!r}")
            name, _, label_block = name_part.partition("{")
            if label_block[:-1]:
                labels = _parse_label_block(label_block[:-1])
        else:
            name = name_part
        if not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"malformed metric name: {name!r}")
        samples[(name, labels)] = value
    return samples
