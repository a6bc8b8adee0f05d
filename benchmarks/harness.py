"""Persistent performance benchmark harness.

Runs named perf scenarios and writes one ``BENCH_<scenario>.json``
record per scenario (timestamp, git SHA, CPU count, timings, docs/sec),
comparing each fresh run against the previous record so regressions are
visible — in CI (the benchmark-smoke job runs ``--quick`` and uploads
the records as artifacts) and locally::

    PYTHONPATH=src python -m benchmarks.harness            # all scenarios
    PYTHONPATH=src python -m benchmarks.harness tfidf      # one scenario
    PYTHONPATH=src python -m benchmarks.harness --quick    # CI sizing
    PYTHONPATH=src python -m benchmarks.harness --check    # exit 1 on regression

Scenarios
---------
``tfidf``
    Legacy dense TF-IDF (re-tokenises on every pass, fills a dense
    matrix) vs the sparse CSR pipeline with the shared tokenisation
    cache.  Primary metric: cached-transform docs/sec.
``traditional``
    Train + predict each traditional Table IV baseline on dense vs
    sparse features; asserts predictions are identical.
``engine``
    Batched inference docs/sec through ``WellnessClassifier.predict``
    (the ``PredictionEngine`` path).
``table4``
    The ``holistix-experiments`` CLI over the experiment suite, serial
    vs ``--jobs 4``, each in a fresh subprocess sharing one scratch
    pretraining disk cache.  Speedup scales with available cores
    (recorded as ``cpu_count``); on a single-core runner expect ~1.0x.
``transformer``
    The neural substrate: pretraining and fine-tuning steps/sec with
    the fused autograd kernels vs the composed-op fallback
    (``use_fused_ops(False)``), plus p50 single-text inference latency
    and padding saved by length-bucketed training batches.
``serving_load``
    Closed-loop concurrent clients against the replicated
    ``InferenceServer`` over a fixed-service-time backend: throughput
    and p50/p95/p99 at 1 vs 4 workers (primary metric: the 4-worker
    scaling ratio), plus shed rate when a burst overloads an
    undersized shed-mode server.
``serving_http``
    The same closed-loop workload driven through the HTTP
    ``ServingGateway`` on loopback vs straight in-process
    ``InferenceServer`` calls; primary metric is the HTTP/in-process
    throughput ratio (the cost of the network boundary).
``serving_mp``
    The multi-process ``ProcessInferenceServer``: closed-loop clients
    over the fixed-service-time stub at 1 vs 4 worker processes
    (primary metric: the 4-process scaling ratio — dispatch, IPC, and
    result marshalling must not serialise independent workers), plus a
    GIL-bound pure-Python spin workload compared thread- vs
    process-side.  The spin ratio is recorded ungated: it needs real
    spare cores to exceed 1.0 and is ~1.0 on a single-core runner
    (``cpu_count`` is in every record).
``serving_tail``
    Tail latency under *open-loop* load (``repro.loadgen``): a seeded
    Poisson arrival schedule at fixed offered rate against the threaded
    server, with latency measured from each request's **intended** send
    time (primary metric: open-loop p99, lower is better).  Also drives
    the HTTP gateway open loop through ``ServingClient``, and replays
    an injected whole-server stall under both closed- and open-loop
    measurement to record the coordinated-omission gap — the factor by
    which the closed-loop methodology under-reports p99.  Full latency
    histograms land in ``serving_tail_histogram.json`` next to the
    record.
``serving_chaos``
    Replays the committed fault plan (``benchmarks/plans/
    serving_chaos.json`` — a worker SIGKILL, a worker stall, and a
    burst of socket-level response faults, all regenerated from a
    recorded seed and verified against the file) against the full
    ``ProcessInferenceServer`` → ``ServingGateway`` → resilient
    ``ServingClient`` stack under open-loop Poisson load.  Gates
    chaos-leg availability >= 0.99 (deadline sheds credited back),
    post-fault recovery p99 within max(2x the clean baseline, 250 ms),
    at least one supervised worker respawn, every planned fault kind
    applied, and zero orphaned worker processes after shutdown.
    Primary metric: chaos-leg availability (higher is better).

Timings come from ``_timeit_median``: every measured callable gets
discarded warm-up iterations followed by median-of-k timing, so
run-to-run noise on shared CI runners doesn't trip the ``--check``
regression gate.

See ``docs/BENCHMARKING.md`` for the record schema and how CI
interprets regressions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT_DIR = REPO_ROOT / "benchmarks" / "records"

# A fresh record's primary metric may be this much worse than the
# previous record before ``--check`` calls it a regression; benchmarks
# on shared runners are noisy.
REGRESSION_TOLERANCE = 0.25

# Per-scenario overrides.  ``serving_tail`` gates an *absolute* p99 —
# unlike the within-run ratios every other scenario uses — and a p99 is
# by construction a handful of worst samples, so it needs the 2x-style
# tolerance tail gates get in practice.  A genuine tail regression (a
# stall, a lost replica, an admission bug) moves p99 by an order of
# magnitude, not 2x.
SCENARIO_TOLERANCE = {
    "serving_tail": 0.5,
    # Availability is gated absolutely (>= 0.99) inside the scenario;
    # the record comparison just needs to flag drift, not absorb noise.
    "serving_chaos": 0.02,
    # The fleet control plane may cost at most 5% of single-model
    # throughput; the ratio is measured within one run so the gate
    # holds across hardware.
    "serving_fleet": 0.05,
}


# ----------------------------------------------------------------------
# Scenario helpers
# ----------------------------------------------------------------------
def _corpus_texts(repeat: int = 1) -> list[str]:
    from repro.core.dataset import HolistixDataset

    texts = HolistixDataset.build().texts
    return texts * repeat


def _legacy_dense_tfidf(vectorizer, documents) -> np.ndarray:
    """The pre-sparse transform algorithm, kept verbatim as the baseline.

    Re-analyses every document (no token cache) and fills a dense
    ``(n_docs, n_features)`` matrix one term at a time — exactly what
    ``TfidfVectorizer.transform`` did before the CSR rework.
    """
    docs = list(documents)
    vocab = vectorizer._vocab
    matrix = np.zeros((len(docs), vectorizer.n_features), dtype=np.float64)
    for i, doc in enumerate(docs):
        counts = Counter(t for t in vectorizer._analyze(doc) if t in vocab)
        for term, tf in counts.items():
            weight = (
                1.0 + math.log(tf) if vectorizer.sublinear_tf else float(tf)
            )
            matrix[i, vocab[term]] = weight
    matrix *= vectorizer.idf
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    np.divide(matrix, norms, out=matrix, where=norms > 0)
    return matrix


def _timeit_median(fn, repeats: int = 3, *, warmup: int = 1) -> float:
    """Median wall-clock of ``repeats`` runs after ``warmup`` discarded runs.

    Warm-up absorbs one-time costs (allocator growth, import side
    effects, cache fills) and the median is robust to a single noisy
    run — together they keep identical-SHA reruns within a few percent
    instead of the ~20% swings a single cold measurement shows.
    """
    for _ in range(max(0, warmup)):
        fn()
    times = []
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def scenario_tfidf(quick: bool) -> dict:
    from repro.text.tfidf import TfidfVectorizer

    texts = _corpus_texts(repeat=1 if quick else 4)
    repeats = 2 if quick else 3

    legacy_vec = TfidfVectorizer(max_features=3000)
    legacy_vec.fit(texts)
    legacy_s = _timeit_median(
        lambda: _legacy_dense_tfidf(legacy_vec, texts), repeats
    )

    sparse_vec = TfidfVectorizer(max_features=3000, sparse_output=True)
    started = time.perf_counter()
    sparse_vec.fit_transform(texts)
    fit_transform_s = time.perf_counter() - started
    sparse_s = _timeit_median(lambda: sparse_vec.transform(texts), repeats)

    return {
        "n_docs": len(texts),
        "timings": {
            "legacy_dense_transform_s": legacy_s,
            "sparse_fit_transform_s": fit_transform_s,
            "sparse_cached_transform_s": sparse_s,
        },
        "metrics": {
            "transform_docs_per_sec": len(texts) / sparse_s,
            "transform_speedup_vs_legacy": legacy_s / sparse_s,
        },
    }


def scenario_traditional(quick: bool) -> dict:
    from repro.core.labels import DIMENSIONS
    from repro.core.dataset import HolistixDataset
    from repro.engine.registry import create_traditional_model, traditional_baselines
    from repro.text.tfidf import TfidfVectorizer

    dataset = HolistixDataset.build()
    texts, labels = dataset.texts, dataset.labels
    targets = np.asarray([DIMENSIONS.index(label) for label in labels])

    dense = TfidfVectorizer(max_features=3000).fit_transform(texts)
    sparse = TfidfVectorizer(max_features=3000, sparse_output=True).fit_transform(
        texts
    )

    timings: dict[str, float] = {}
    total_dense = total_sparse = 0.0
    for name in traditional_baselines():
        key = name.lower().replace(" ", "_")
        started = time.perf_counter()
        dense_model = create_traditional_model(name, seed=7).fit(dense, targets)
        dense_pred = dense_model.predict(dense)
        elapsed = time.perf_counter() - started
        timings[f"{key}_dense_s"] = elapsed
        total_dense += elapsed
        started = time.perf_counter()
        sparse_model = create_traditional_model(name, seed=7).fit(sparse, targets)
        sparse_pred = sparse_model.predict(sparse)
        elapsed = time.perf_counter() - started
        timings[f"{key}_sparse_s"] = elapsed
        total_sparse += elapsed
        if not np.array_equal(dense_pred, sparse_pred):
            raise AssertionError(f"{name}: sparse/dense predictions diverge")

    return {
        "n_docs": len(texts),
        "timings": timings,
        "metrics": {
            "sparse_speedup_vs_dense": total_dense / total_sparse,
            "train_predict_docs_per_sec": len(texts)
            * len(traditional_baselines())
            / total_sparse,
            "predictions_identical": True,
        },
    }


def scenario_engine(quick: bool) -> dict:
    from repro.core.dataset import HolistixDataset
    from repro.core.pipeline import WellnessClassifier

    dataset = HolistixDataset.build()
    split = dataset.fixed_split()
    classifier = WellnessClassifier("LR").fit(split.train)
    texts = split.test.texts * (3 if quick else 10)
    repeats = 3 if quick else 5

    def cold_pass() -> None:
        # Drop the LRU first so every repeat really recomputes.
        classifier.engine.invalidate()
        classifier.predict(texts)

    cold_s = _timeit_median(cold_pass, repeats)
    classifier.predict(texts)  # ensure the cache is fully populated

    def warm_block() -> None:
        # One warm pass is sub-millisecond; time ten per sample so the
        # measurement is not dominated by timer noise.
        for _ in range(10):
            classifier.predict(texts)

    warm_s = _timeit_median(warm_block, repeats) / 10.0

    return {
        "n_docs": len(texts),
        "timings": {"batch_cold_s": cold_s, "batch_warm_s": warm_s},
        "metrics": {
            "cache_speedup": cold_s / warm_s,
            "docs_per_sec": len(texts) / cold_s,
            "cached_docs_per_sec": len(texts) / warm_s,
        },
    }


def scenario_table4(quick: bool) -> dict:
    """Time the real ``holistix-experiments`` CLI, serial vs ``--jobs 4``.

    Each measurement is a fresh subprocess so neither run inherits the
    other's in-process caches.  Both share one scratch pretraining disk
    cache, warmed by an unmeasured pass in full mode, so serial and
    parallel see identical cache state and the comparison isolates the
    execution strategy.
    """
    import re
    import tempfile

    suite = ["E1", "E5", "E6", "E7"] if quick else [f"E{i}" for i in range(1, 9)]

    def strip_timing(output: str) -> str:
        return "\n".join(
            line for line in output.splitlines() if not line.startswith("[")
        )

    with tempfile.TemporaryDirectory(prefix="holistix-bench-") as scratch:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["REPRO_PRETRAIN_CACHE"] = scratch

        def run_cli(extra: list[str]) -> tuple[float, str]:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "repro.experiments.runner", "run"]
                + suite
                + extra,
                capture_output=True,
                text=True,
                env=env,
                cwd=REPO_ROOT,
                check=True,
            )
            return time.perf_counter() - started, proc.stdout

        if not quick:
            run_cli([])  # warm-up: populate the pretraining disk cache
        serial_s, serial_out = run_cli([])
        jobs4_s, parallel_out = run_cli(["--jobs", "4"])

    if strip_timing(serial_out) != strip_timing(parallel_out):
        raise AssertionError("parallel run produced different reports")
    per_experiment = {
        f"{match.group(1)}_s": float(match.group(2))
        for match in re.finditer(r"\[(E\d+) took ([\d.]+)s\]", serial_out)
    }

    return {
        "suite": suite,
        "timings": {
            "serial_s": serial_s,
            "jobs4_s": jobs4_s,
            **per_experiment,
        },
        "metrics": {
            "jobs4_speedup": serial_s / jobs4_s,
            "jobs4_wall_clock_reduction_s": serial_s - jobs4_s,
            "reports_identical": True,
        },
    }


def scenario_transformer(quick: bool) -> dict:
    """Benchmark the neural substrate end to end.

    Measures pretraining and fine-tuning steps/sec on a Table IV-sized
    model, the same fine-tuning workload with the fused autograd
    kernels disabled (``use_fused_ops(False)`` routes every LayerNorm,
    Linear, and attention-score op through the composed primitive-op
    fallback), p50/p95 single-text inference latency through the
    prediction engine, and the padding saved by length-bucketed
    training batches.  The primary metric is the fused-vs-composed
    steps/sec ratio, which is hardware-independent.
    """
    from dataclasses import replace

    from repro.core.dataset import HolistixDataset
    from repro.models.config import MODEL_CONFIGS
    from repro.models.pretrain import build_pretraining_corpus, pretrain
    from repro.models.trainer import Trainer
    from repro.nn.batching import padded_token_count, window_bucketed_batches
    from repro.nn.functional import use_fused_ops
    from repro.text.vocab import Vocabulary

    dataset = HolistixDataset.build()
    n_train = 256 if quick else 512
    texts = dataset.texts[:n_train]
    labels = dataset.labels[:n_train]
    corpus = build_pretraining_corpus("mental_health", size=400, seed=101)
    vocab = Vocabulary.build(corpus + texts, max_size=2000)
    config = replace(
        MODEL_CONFIGS["BERT"],
        pretrain_steps=0,
        epochs=2 if quick else 3,
    )
    pretrain_steps = 30 if quick else 100

    def timed_finetune() -> tuple[Trainer, float, int]:
        """Median-of-k fine-tune wall-clock (fresh Trainer per run)."""
        last: list[Trainer] = []

        def one_fit() -> None:
            trainer = Trainer(
                config, vocab, use_pretraining_cache=False, bucket_window=8
            )
            trainer.fit(texts, labels)
            last[:] = [trainer]

        elapsed = _timeit_median(one_fit, repeats=2, warmup=1)
        return last[0], elapsed, len(last[0].result.train_losses)

    # Fused fine-tune (the production path) and the composed fallback;
    # both go through the warm-up + median timer so the CI-gated ratio
    # isn't built from two single cold measurements.
    trainer, fused_s, n_steps = timed_finetune()
    with use_fused_ops(False):
        _, composed_s, composed_steps = timed_finetune()

    # Pretraining steps/sec (MLM objective, bucketed batches).
    pretrain_model = Trainer(
        config, vocab, use_pretraining_cache=False
    ).model
    started = time.perf_counter()
    pretrain(
        pretrain_model,
        corpus,
        steps=pretrain_steps,
        objective="mlm",
        seed=3,
    )
    pretrain_s = time.perf_counter() - started

    # Padding saved by bucketing, on the actual training lengths.
    rows = [trainer.model.encode_ids(t) for t in texts]
    lengths = [len(r) for r in rows]
    order = list(range(len(rows)))
    plain_tokens = padded_token_count(
        lengths, window_bucketed_batches(order, lengths, config.batch_size, window=1)
    )
    bucketed_tokens = padded_token_count(
        lengths, window_bucketed_batches(order, lengths, config.batch_size, window=8)
    )

    # Inference latency: p50/p95 over unique single-text requests.
    probe = dataset.texts[n_train : n_train + (30 if quick else 60)]
    trainer.engine.invalidate()
    latencies = []
    for text in probe:
        started = time.perf_counter()
        trainer.predict([text])
        latencies.append(time.perf_counter() - started)
    latencies.sort()
    p50_ms = 1000 * latencies[len(latencies) // 2]
    p95_ms = 1000 * latencies[int(len(latencies) * 0.95)]
    trainer.engine.invalidate()
    batch_s = _timeit_median(
        lambda: (trainer.engine.invalidate(), trainer.predict(list(probe))),
        2 if quick else 3,
    )

    return {
        "n_docs": n_train,
        "timings": {
            "finetune_fused_s": fused_s,
            "finetune_composed_s": composed_s,
            "pretrain_s": pretrain_s,
            "inference_p50_ms": p50_ms,
            "inference_p95_ms": p95_ms,
            "inference_batch_s": batch_s,
        },
        "metrics": {
            "fused_speedup": (composed_s / composed_steps) / (fused_s / n_steps),
            "finetune_steps_per_sec": n_steps / fused_s,
            "pretrain_steps_per_sec": pretrain_steps / pretrain_s,
            "inference_docs_per_sec": len(probe) / batch_s,
            "bucketed_padding_saved": 1.0 - bucketed_tokens / plain_tokens,
        },
    }


class FixedServiceBackend:
    """2 ms per batch + 0.25 ms per item, probabilities uniform.

    The fixed-service-time stub both serving scenarios measure against:
    it isolates the serving layer — admission, batching, dispatch,
    stats, and (for ``serving_http``) the HTTP hop — from model speed,
    and models the GIL-releasing inference kernels (BLAS matmuls,
    native backends) real traffic runs on.
    """

    n_classes = 6

    def __init__(self, per_batch_ms=2.0, per_item_ms=0.25):
        self.per_batch_ms = per_batch_ms
        self.per_item_ms = per_item_ms

    def proba_batch(self, texts):
        time.sleep((self.per_batch_ms + self.per_item_ms * len(texts)) / 1000.0)
        return np.full((len(texts), 6), 1.0 / 6.0)


# The worker pool every stub serving scenario runs; each scenario
# overrides only the settings it is about (worker count, queue depth,
# overload policy, batching).
STUB_POOL = dict(
    workers=2, max_batch_size=8, max_wait_ms=0.5, max_queue=256, overload="block"
)

# Request texts for the closed-loop clients (the stub ignores content
# and every stub engine runs with the cache off).
_LOAD_TEXTS = [f"closed-loop request {i}" for i in range(1024)]


def _stub_engine(backend, model_id: str):
    """Module-level engine factory: picklable for spawn-started workers."""
    from repro.engine.engine import PredictionEngine

    return PredictionEngine(backend, model_id=model_id, cache_size=0)


def _stub_server(backend, model_id: str, *, processes: bool = False, **overrides):
    """A ``STUB_POOL`` server over ``backend``, threaded or multi-process."""
    settings = {**STUB_POOL, **overrides}
    if processes:
        from repro.engine.procserver import ProcessInferenceServer

        return ProcessInferenceServer.from_factory(
            _stub_engine, (backend, model_id), model_id=model_id, **settings
        )
    from repro.engine.server import InferenceServer

    return InferenceServer(_stub_engine(backend, model_id), **settings)


def _load(quick: bool, n_clients: int) -> dict:
    """Client count, warm-up and measured window of a closed-loop leg."""
    return dict(
        n_clients=n_clients,
        warmup_s=0.15 if quick else 0.5,
        measure_s=0.6 if quick else 3.0,
    )


def _submit(server):
    """In-process transport: one blocking ``submit`` per request."""
    return lambda text, sent_at: server.submit(text).result(timeout=30)


def _closed_loop(
    servers, send, *, n_clients: int, warmup_s: float, measure_s: float
) -> dict:
    """Closed-loop clients on :func:`repro.loadgen.run_closed_loop`.

    Shared by every closed-loop serving scenario so the methodology
    (warm-up, the measured window, caller-side latency) cannot drift
    between them.  Throughput is the requests completed inside the
    window over its length; the percentiles come from the *caller's*
    clock, so for the HTTP scenarios they include everything the client
    pays (connection, JSON, parsing, response write).  ``mean_batch``
    comes from the ``servers``' stats (a fleet spreads traffic over
    several).  Any failed request fails the run.
    """
    from repro.loadgen import run_closed_loop

    result = run_closed_loop(
        send,
        _LOAD_TEXTS,
        n_clients=n_clients,
        duration_s=measure_s,
        warmup_s=warmup_s,
    )
    if result.failed:
        raise AssertionError(f"closed-loop client failed: {result.summary()}")
    snaps = [server.stats.snapshot() for server in servers]
    requests = sum(snap.requests for snap in snaps)
    batches = sum(snap.batches for snap in snaps)
    return {
        "throughput": result.achieved_rate_rps,
        "p50_ms": result.p50_ms,
        "p95_ms": result.p95_ms,
        "p99_ms": result.p99_ms,
        "mean_batch": requests / batches if batches else 0.0,
    }


def scenario_serving_load(quick: bool) -> dict:
    """Closed-loop load generation against the replicated InferenceServer.

    Concurrent clients each submit one request, wait for the result, and
    repeat; the server coalesces the backlog into batches across its
    worker replicas over the :class:`FixedServiceBackend` stub.  The
    primary metric is ``worker_scaling``: throughput with 4 workers over
    throughput with 1, which must stay ≥ 2× (4 concurrent batches amortise
    per-batch overhead that a single worker pays serially).

    A second, deliberately undersized server is then driven past
    saturation in shed mode to record the load-shedding behaviour
    (``shed_rate``, p99 under overload).
    """
    from repro.engine.server import ServerOverloaded

    load = _load(quick, 24 if quick else 32)

    runs = {}
    for workers in (1, 4):
        server = _stub_server(FixedServiceBackend(), "bench", workers=workers)
        with server:
            runs[workers] = _closed_loop([server], _submit(server), **load)
    single, scaled = runs[1], runs[4]

    # Overload: an open-loop burst against an undersized shed-mode server.
    shed_server = _stub_server(
        FixedServiceBackend(per_batch_ms=5.0),
        "shed",
        workers=1,
        max_batch_size=4,
        max_wait_ms=0.0,
        max_queue=8,
        overload="shed",
    )
    burst = 200 if quick else 1000
    admitted = []
    with shed_server:
        for i in range(burst):
            try:
                admitted.append(shed_server.submit(f"burst {i}"))
            except ServerOverloaded:
                pass
            if i % 20 == 19:
                time.sleep(0.005)  # drip so the worker drains a little
        for f in admitted:
            f.result(timeout=30)
    shed_snap = shed_server.stats.snapshot()

    return {
        "n_clients": load["n_clients"],
        "timings": {
            "measure_window_s": load["measure_s"],
            "workers1_p50_ms": single["p50_ms"],
            "workers1_p95_ms": single["p95_ms"],
            "workers4_p50_ms": scaled["p50_ms"],
            "workers4_p95_ms": scaled["p95_ms"],
            "workers4_p99_ms": scaled["p99_ms"],
            "overload_p99_ms": shed_snap.latency_percentile(99),
        },
        "metrics": {
            "worker_scaling": scaled["throughput"] / single["throughput"],
            "workers1_req_per_sec": single["throughput"],
            "workers4_req_per_sec": scaled["throughput"],
            "workers1_mean_batch": single["mean_batch"],
            "workers4_mean_batch": scaled["mean_batch"],
            "shed_rate": shed_snap.shed_rate,
            "shed_requests": shed_snap.shed,
            "overload_served": shed_snap.requests,
        },
    }


def scenario_serving_http(quick: bool) -> dict:
    """HTTP gateway overhead versus the in-process serving baseline.

    The same closed-loop workload (concurrent clients, one request in
    flight each, :class:`FixedServiceBackend` underneath) is driven two
    ways against identically configured 2-worker servers: in-process
    ``InferenceServer.submit().result()`` calls, and real loopback HTTP
    ``POST /v1/predict`` requests through the ``ServingGateway`` (JSON
    encode/decode, a TCP connection per request — the worst, naive
    client — request parsing, and the response write all included).

    The primary metric is ``http_vs_inprocess_throughput``: HTTP
    requests/sec over in-process requests/sec.  It is a ratio within
    one run, so the regression gate holds across hardware; a drop means
    the gateway hot path (handler routing, protocol validation,
    counters) got more expensive relative to the engine underneath.
    Latency percentiles are measured at the caller (the HTTP side pays
    the full network round trip, not just engine queue time).
    """
    from repro.serving.client import ServingClient
    from repro.serving.gateway import ServingGateway

    load = _load(quick, 12 if quick else 24)

    inprocess_server = _stub_server(FixedServiceBackend(), "bench-http")
    with inprocess_server:
        inprocess = _closed_loop([inprocess_server], _submit(inprocess_server), **load)

    http_server = _stub_server(FixedServiceBackend(), "bench-http")
    with ServingGateway(http_server) as gateway:
        serving_client = ServingClient(gateway.url, deadline_s=30)
        http = _closed_loop(
            [http_server], lambda text, _: serving_client.predict(text), **load
        )
        health = serving_client.healthz()
        assert health["status"] == "ok", health
        scraped = serving_client.metrics()
        served = scraped[
            ("holistix_requests_total", frozenset({("model", "default")}))
        ]

    return {
        "n_clients": load["n_clients"],
        "timings": {
            "measure_window_s": load["measure_s"],
            "inprocess_p50_ms": inprocess["p50_ms"],
            "inprocess_p95_ms": inprocess["p95_ms"],
            "http_p50_ms": http["p50_ms"],
            "http_p95_ms": http["p95_ms"],
            "http_p99_ms": http["p99_ms"],
        },
        "metrics": {
            "http_vs_inprocess_throughput": (
                http["throughput"] / inprocess["throughput"]
            ),
            "inprocess_req_per_sec": inprocess["throughput"],
            "http_req_per_sec": http["throughput"],
            "inprocess_mean_batch": inprocess["mean_batch"],
            "http_mean_batch": http["mean_batch"],
            "http_requests_served_total": served,
        },
    }


class SpinServiceBackend:
    """Pure-Python busy loop per text — deliberately GIL-bound.

    Models the worst case for threaded serving: inference that never
    releases the GIL (interpreter-heavy feature extraction, python-loop
    models).  Threads serialise on it; worker processes do not.
    """

    n_classes = 6

    def __init__(self, per_item_ms=0.5):
        self.per_item_ms = per_item_ms

    def proba_batch(self, texts):
        end = time.perf_counter() + self.per_item_ms * len(texts) / 1000.0
        acc = 0
        while time.perf_counter() < end:
            acc += 1
        return np.full((len(texts), 6), 1.0 / 6.0)


def scenario_serving_mp(quick: bool) -> dict:
    """Scaling and overhead of the multi-process serving backend.

    Primary metric ``process_worker_scaling``: closed-loop throughput of
    a 4-process :class:`~repro.engine.procserver.ProcessInferenceServer`
    over a 1-process one, both serving the fixed-service-time stub via
    ``from_factory``.  The stub sleeps (as GIL-releasing native kernels
    do), so independent worker processes overlap service time even on
    one core — exactly like ``serving_load``'s thread scaling — and the
    ratio isolates the dispatch path: if per-batch IPC, pickling, or the
    per-slot locks serialised the workers, scaling would collapse to
    ~1x regardless of hardware.

    Two ungated secondaries contextualise the tentpole:

    * ``mp_vs_thread_throughput`` — the same workload on a threaded
      ``InferenceServer``, measuring what crossing a process boundary
      costs when the GIL is *not* the bottleneck (expected < 1.0: pipes
      and pickling are pure overhead there).
    * ``spin_process_vs_thread`` — a pure-Python busy-loop backend,
      thread- vs process-served.  This is the break-the-GIL case: on
      ``N >= 2`` spare cores processes win roughly min(workers, cores)×;
      on a single-core runner it sits near 1.0, which is why it is
      recorded (with ``cpu_count``) but not regression-gated.
    """
    load = _load(quick, 24 if quick else 32)
    # GIL-bound spin workload: thread pool vs process pool, batch size 1
    # so every request is its own GIL-holding unit of work.
    spin = dict(max_batch_size=1, max_wait_ms=0.0)
    spin_load = {**load, "n_clients": 8, "measure_s": 0.5 if quick else 2.0}
    # leg -> (backend, model id, worker processes?, pool overrides, load)
    legs = {
        "procs1": (FixedServiceBackend(), "bench-mp", True, dict(workers=1), load),
        "procs4": (FixedServiceBackend(), "bench-mp", True, dict(workers=4), load),
        "threads4": (FixedServiceBackend(), "bench-mt", False, dict(workers=4), load),
        "spin_threads": (SpinServiceBackend(), "spin-mt", False, spin, spin_load),
        "spin_procs": (SpinServiceBackend(), "bench-mp-spin", True, spin, spin_load),
    }
    runs = {}
    for leg, (backend, model_id, processes, overrides, leg_load) in legs.items():
        server = _stub_server(backend, model_id, processes=processes, **overrides)
        with server:
            if processes:
                server.wait_ready(timeout=60)
            runs[leg] = _closed_loop([server], _submit(server), **leg_load)
    single, scaled, threaded = runs["procs1"], runs["procs4"], runs["threads4"]
    spin_threads, spin_procs = runs["spin_threads"], runs["spin_procs"]

    return {
        "n_clients": load["n_clients"],
        "timings": {
            "measure_window_s": load["measure_s"],
            "procs1_p50_ms": single["p50_ms"],
            "procs1_p95_ms": single["p95_ms"],
            "procs4_p50_ms": scaled["p50_ms"],
            "procs4_p95_ms": scaled["p95_ms"],
            "procs4_p99_ms": scaled["p99_ms"],
            "threads4_p50_ms": threaded["p50_ms"],
        },
        "metrics": {
            "process_worker_scaling": scaled["throughput"] / single["throughput"],
            "procs1_req_per_sec": single["throughput"],
            "procs4_req_per_sec": scaled["throughput"],
            "procs4_mean_batch": scaled["mean_batch"],
            "mp_vs_thread_throughput": (
                scaled["throughput"] / threaded["throughput"]
            ),
            "spin_thread_req_per_sec": spin_threads["throughput"],
            "spin_process_req_per_sec": spin_procs["throughput"],
            "spin_process_vs_thread": (
                spin_procs["throughput"] / spin_threads["throughput"]
            ),
        },
    }


class StallingBackend(FixedServiceBackend):
    """``FixedServiceBackend`` plus one whole-server pause.

    After ``stall_after`` served items the next call opens a global
    stall window of ``stall_s`` seconds; *every* ``proba_batch`` call —
    from any worker replica — blocks until the window closes.  That
    models the pauses that dominate real tails (GC, page fault, device
    contention, a checkpoint fsync), which freeze the process rather
    than one worker thread, and it is what makes the coordinated-
    omission demonstration honest: a per-thread sleep would be quietly
    absorbed by the surviving replicas.
    """

    def __init__(self, stall_after=100, stall_s=0.5, **kwargs):
        super().__init__(**kwargs)
        self.stall_after = stall_after
        self.stall_s = stall_s
        self._served = 0
        self._stall_until: float | None = None
        self._lock = threading.Lock()

    def proba_batch(self, texts):
        with self._lock:
            self._served += len(texts)
            if self._stall_until is None and self._served >= self.stall_after:
                self._stall_until = time.monotonic() + self.stall_s
            until = self._stall_until
        if until is not None:
            now = time.monotonic()
            if now < until:
                time.sleep(until - now)
        return super().proba_batch(texts)


def scenario_serving_tail(quick: bool) -> dict:
    """Open-loop tail latency, and the lie closed-loop measurement tells.

    Three legs, all fed by synthetic documents streamed from the
    :class:`~repro.corpus.factory.CorpusFactory` (whose docs/sec is
    recorded as an ungated secondary):

    1. **Clean open loop** — a seeded Poisson schedule at fixed offered
       rate against a 2-worker ``InferenceServer`` over the fixed-
       service-time stub.  Latency is charged from each request's
       *intended* send time into an HDR-style histogram; the primary
       metric is this leg's p99.
    2. **HTTP open loop** — the same methodology through a loopback
       ``ServingGateway`` via ``ServingClient.predict(...,
       intended_at=...)``, so the recorded tail includes connection
       setup, JSON, and the gateway hot path.
    3. **Injected stall, closed vs open** — identical servers with a
       :class:`StallingBackend` whole-server pause, measured once with
       naive closed-loop clients and once open loop at fixed offered
       rate.  ``coordinated_omission_p99_gap`` is the ratio of the two
       p99s: how much the closed-loop methodology under-reports the
       stall.  Regression-tested ≥ 2× (it is ~two orders of magnitude
       in practice).

    The full histograms for every leg are written next to the record as
    ``serving_tail_histogram.json`` (uploaded as a CI artifact), so two
    runs can be compared bucket by bucket, not just at the recorded
    percentiles.
    """
    from repro.corpus.factory import CorpusFactory
    from repro.loadgen import (
        fixed_rate_schedule,
        poisson_schedule,
        run_closed_loop,
        run_open_loop,
    )
    from repro.serving.client import ServingClient
    from repro.serving.gateway import ServingGateway

    seed = 1307
    corpus_n = 20_000 if quick else 100_000
    started = time.perf_counter()
    texts = CorpusFactory().texts(seed, corpus_n)
    corpus_s = time.perf_counter() - started

    rate = 150.0 if quick else 250.0
    duration_s = 2.0 if quick else 5.0

    # Leg 1: clean open loop at fixed offered rate.  The stub's sleep
    # is sized to dominate the measured p99 (~10 ms of deterministic
    # service vs ~1 ms of scheduler jitter) so the gated absolute
    # number is a property of the scenario, not of the host.
    clean_server = _stub_server(
        FixedServiceBackend(per_batch_ms=10.0, per_item_ms=0.5),
        "bench-tail",
        max_queue=512,
    )
    with clean_server:
        open_clean = run_open_loop(
            poisson_schedule(rate, duration_s=duration_s, seed=seed),
            _submit(clean_server),
            texts,
            max_in_flight=64,
            deadline_s=10.0,
        )
    if open_clean.failed or open_clean.dropped:
        raise AssertionError(
            f"clean open-loop leg lost requests: {open_clean.summary()}"
        )

    # Leg 2: the same methodology through the HTTP gateway.
    http_rate = 60.0 if quick else 120.0
    http_duration_s = 1.5 if quick else 4.0
    http_server = _stub_server(FixedServiceBackend(), "bench-tail", max_queue=512)
    with ServingGateway(http_server) as gateway:
        client = ServingClient(gateway.url, deadline_s=10.0)
        client.wait_ready(deadline_s=10.0)
        open_http = run_open_loop(
            poisson_schedule(http_rate, duration_s=http_duration_s, seed=seed + 1),
            lambda text, at: client.predict(text, intended_at=at),
            texts,
            max_in_flight=32,
            deadline_s=10.0,
        )
    if open_http.failed or open_http.dropped:
        raise AssertionError(
            f"HTTP open-loop leg lost requests: {open_http.summary()}"
        )

    # Leg 3: the injected whole-server stall, measured both ways.  The
    # light per-call service time keeps both measurements far from
    # saturation so the stall is the only tail event.
    stall = dict(
        stall_after=100,
        stall_s=0.4 if quick else 0.8,
        per_batch_ms=0.5,
        per_item_ms=0.1,
    )
    closed_server = _stub_server(StallingBackend(**stall), "bench-tail", max_queue=512)
    with closed_server:
        closed_stall = run_closed_loop(
            _submit(closed_server),
            texts,
            n_clients=4,
            duration_s=duration_s,
        )
    open_server = _stub_server(StallingBackend(**stall), "bench-tail", max_queue=512)
    with open_server:
        open_stall = run_open_loop(
            fixed_rate_schedule(rate, duration_s=duration_s, seed=seed),
            _submit(open_server),
            texts,
            max_in_flight=256,
            deadline_s=10.0,
        )
    gap = open_stall.p99_ms / closed_stall.p99_ms

    return {
        "n_docs": corpus_n,
        "timings": {
            "corpus_build_s": corpus_s,
            "open_loop_p50_ms": open_clean.p50_ms,
            "open_loop_p95_ms": open_clean.p95_ms,
            "open_loop_p999_ms": open_clean.p999_ms,
            "http_open_p50_ms": open_http.p50_ms,
            "http_open_p99_ms": open_http.p99_ms,
            "closed_stall_p99_ms": closed_stall.p99_ms,
            "open_stall_p99_ms": open_stall.p99_ms,
        },
        "metrics": {
            "open_loop_p99_ms": open_clean.p99_ms,
            "offered_rate_rps": open_clean.offered_rate_rps,
            "achieved_rate_rps": open_clean.achieved_rate_rps,
            "completed": open_clean.completed,
            "failed": open_clean.failed,
            "dropped": open_clean.dropped,
            "http_offered_rate_rps": open_http.offered_rate_rps,
            "http_achieved_rate_rps": open_http.achieved_rate_rps,
            "coordinated_omission_p99_gap": gap,
            "corpus_docs_per_sec": corpus_n / corpus_s,
        },
        "artifacts": {
            "serving_tail_histogram.json": {
                "scenario": "serving_tail",
                "note": (
                    "full latency histograms per leg; buckets grow "
                    "geometrically (see repro.loadgen.histogram)"
                ),
                "legs": {
                    "open_clean": open_clean.histogram.to_dict(),
                    "open_http": open_http.histogram.to_dict(),
                    "closed_stall": closed_stall.histogram.to_dict(),
                    "open_stall": open_stall.histogram.to_dict(),
                },
            }
        },
    }


# The committed fault plan replayed by ``serving_chaos``.  The seed and
# parameters are the reproducibility contract: the scenario refuses to
# run if ``benchmarks/plans/serving_chaos.json`` no longer matches what
# these values regenerate, so the record can never silently describe a
# different storm than the one in version control.
CHAOS_PLAN_SEED = 1307
CHAOS_PLAN_PARAMS = dict(
    duration_s=4.0,
    workers=2,
    crashes=1,
    stalls=1,
    stall_s=0.4,
    socket_bursts=1,
    burst_window_s=0.3,
    burst_count=5,
)
CHAOS_PLAN_PATH = REPO_ROOT / "benchmarks" / "plans" / "serving_chaos.json"


def scenario_serving_chaos(quick: bool) -> dict:
    """Replay the committed fault plan and gate on recovery, not speed.

    Boots the full production stack — ``ProcessInferenceServer`` (two
    spawn-started worker processes under the background supervisor)
    behind a loopback ``ServingGateway``, driven by a resilient
    ``ServingClient`` — then runs three open-loop Poisson legs:

    1. **Baseline** — clean traffic; its p99 is the recovery yardstick.
    2. **Chaos** — arms ``benchmarks/plans/serving_chaos.json`` (a
       worker SIGKILL, a worker stall, and a burst of socket-level
       response faults, all seeded and committed) and keeps offering
       load for the plan's full duration.
    3. **Recovery** — after the supervisor reports every worker slot
       alive again, the baseline workload repeats.

    Gated invariants, all checked in-run: chaos-leg availability
    ``>= 0.99`` (client retries and the supervisor must absorb the
    storm; deadline sheds are credited back — shedding is policy, not
    failure), recovery p99 within max(2x baseline, 250 ms) (the floor
    absorbs scheduler noise), at least one supervised worker respawn,
    every planned fault kind actually applied, and zero orphaned worker
    processes after shutdown.  The primary metric is the chaos-leg
    availability; per-leg histograms and the injector's fired-fault
    timeline land in ``serving_chaos_histogram.json``.
    """
    from repro.chaos import FaultInjector, FaultPlan
    from repro.corpus.factory import CorpusFactory
    from repro.loadgen import poisson_schedule, run_open_loop
    from repro.serving.client import ServingClient
    from repro.serving.gateway import ServingGateway

    seed = CHAOS_PLAN_SEED
    corpus_n = 4_000 if quick else 12_000
    started = time.perf_counter()
    texts = CorpusFactory().texts(seed, corpus_n)
    corpus_s = time.perf_counter() - started

    plan = FaultPlan.load(CHAOS_PLAN_PATH)
    regenerated = FaultPlan.generate(CHAOS_PLAN_SEED, **CHAOS_PLAN_PARAMS)
    if plan.timeline() != regenerated.timeline():
        raise AssertionError(
            "benchmarks/plans/serving_chaos.json does not match the plan "
            f"regenerated from seed {CHAOS_PLAN_SEED}; regenerate the "
            "committed plan or fix CHAOS_PLAN_PARAMS"
        )

    rate = 80.0 if quick else 120.0
    leg_s = 1.5 if quick else 3.0
    chaos_s = plan.duration_s + 1.0
    seen_pids: set[int] = set()

    def note_pids(server) -> tuple[int, int]:
        """Record live worker pids; returns (alive, restarts_total)."""
        alive = 0
        restarts = 0
        for report in server.worker_processes():
            if report["pid"] is not None:
                seen_pids.add(report["pid"])
            alive += 1 if report["alive"] else 0
            restarts += report["restarts"]
        return alive, restarts

    server = _stub_server(
        FixedServiceBackend(per_batch_ms=5.0, per_item_ms=0.2),
        "bench-chaos",
        processes=True,
        max_queue=512,
        supervisor_interval_s=0.1,
        respawn_backoff_base_s=0.05,
    )
    injector = FaultInjector(plan)
    with ServingGateway(server) as gateway:
        client = ServingClient(
            gateway.url,
            deadline_s=10.0,
            retry_seed=seed,
            breaker_threshold=8,
        )
        client.wait_ready(deadline_s=30.0)

        baseline = run_open_loop(
            poisson_schedule(rate, duration_s=leg_s, seed=seed),
            lambda text, at: client.predict(text, intended_at=at),
            texts,
            max_in_flight=128,
            deadline_s=10.0,
        )
        if baseline.failed or baseline.dropped:
            raise AssertionError(
                f"chaos baseline leg lost requests: {baseline.summary()}"
            )
        note_pids(server)

        # The storm: arm the committed plan and keep offering load for
        # its whole duration.  The resilient client may retry through
        # socket faults; the supervisor must replace the SIGKILLed
        # worker; nothing here is allowed to need manual intervention.
        sheds_before = server.stats.snapshot().deadline_shed
        gateway.arm_chaos(injector)
        chaos_leg = run_open_loop(
            poisson_schedule(rate, duration_s=chaos_s, seed=seed + 1),
            lambda text, at: client.predict(text, intended_at=at),
            texts,
            max_in_flight=256,
            deadline_s=10.0,
        )
        gateway.disarm_chaos()
        deadline_sheds = server.stats.snapshot().deadline_shed - sheds_before
        note_pids(server)

        # Shedding under pressure is policy, not failure: requests the
        # gateway turned away because their budget could not cover the
        # observed service time are credited back before gating.
        availability = (
            (chaos_leg.completed + deadline_sheds) / chaos_leg.scheduled
            if chaos_leg.scheduled
            else 1.0
        )
        if availability < 0.99:
            raise AssertionError(
                f"chaos-leg availability {availability:.4f} < 0.99: "
                f"{chaos_leg.summary()}"
            )

        # Wait (read-only — no revival probes, the supervisor alone must
        # do the work) until every worker slot is alive again.
        recovery_wait_started = time.perf_counter()
        recovery_deadline = recovery_wait_started + 15.0
        while True:
            alive, restarts_total = note_pids(server)
            if alive == server.workers:
                break
            if time.perf_counter() > recovery_deadline:
                raise AssertionError(
                    "workers did not recover within 15s of the storm: "
                    f"{server.worker_processes()}"
                )
            time.sleep(0.05)
        recovery_wait_s = time.perf_counter() - recovery_wait_started
        if restarts_total < 1:
            raise AssertionError(
                "no supervised respawn happened; the plan's worker_crash "
                "never bit or the supervisor is dead"
            )

        recovery = run_open_loop(
            poisson_schedule(rate, duration_s=leg_s, seed=seed + 2),
            lambda text, at: client.predict(text, intended_at=at),
            texts,
            max_in_flight=128,
            deadline_s=10.0,
        )
        if recovery.failed or recovery.dropped:
            raise AssertionError(
                f"chaos recovery leg lost requests: {recovery.summary()}"
            )
        note_pids(server)
        client_stats = client.stats()

    # Recovery must return to baseline tail behaviour.  The absolute
    # floor keeps a 3 ms-vs-1.4 ms scheduler wobble from failing a gate
    # that exists to catch seconds-long degradation.
    recovery_ceiling_ms = max(2.0 * baseline.p99_ms, 250.0)
    if recovery.p99_ms > recovery_ceiling_ms:
        raise AssertionError(
            f"post-fault recovery p99 {recovery.p99_ms:.1f}ms exceeds "
            f"{recovery_ceiling_ms:.1f}ms (2x baseline "
            f"{baseline.p99_ms:.1f}ms, 250ms floor)"
        )

    applied = injector.applied_counts()
    missing = sorted(set(plan.kinds()) - set(applied))
    if missing:
        raise AssertionError(
            f"planned fault kinds never applied: {missing} "
            f"(applied: {applied}, fired: {injector.fired_log()})"
        )

    # Every worker pid observed during the run must be gone once the
    # stack is stopped — SIGKILLed originals, supervised replacements,
    # and the final generation alike.
    orphan_deadline = time.monotonic() + 5.0
    orphans = set(seen_pids)
    while orphans and time.monotonic() < orphan_deadline:
        for pid in sorted(orphans):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                orphans.discard(pid)
            except PermissionError:
                pass  # still alive under another uid: counts as orphaned
        if orphans:
            time.sleep(0.1)
    if orphans:
        raise AssertionError(
            f"worker processes survived shutdown: {sorted(orphans)}"
        )

    return {
        "n_docs": corpus_n,
        "timings": {
            "corpus_build_s": corpus_s,
            "baseline_p50_ms": baseline.p50_ms,
            "baseline_p99_ms": baseline.p99_ms,
            "chaos_p50_ms": chaos_leg.p50_ms,
            "chaos_p99_ms": chaos_leg.p99_ms,
            "recovery_p50_ms": recovery.p50_ms,
            "recovery_p99_ms": recovery.p99_ms,
            "recovery_wait_s": recovery_wait_s,
        },
        "metrics": {
            "chaos_availability": availability,
            "chaos_scheduled": chaos_leg.scheduled,
            "chaos_completed": chaos_leg.completed,
            "chaos_failed": chaos_leg.failed,
            "chaos_dropped": chaos_leg.dropped,
            "deadline_sheds": deadline_sheds,
            "worker_restarts": restarts_total,
            "recovery_p99_ratio": (
                recovery.p99_ms / baseline.p99_ms if baseline.p99_ms else 1.0
            ),
            "client_retries": client_stats["retries"],
            "client_transport_failures": client_stats["transport_failures"],
            "injected_faults": sum(applied.values()),
            "orphan_processes": 0,
        },
        "artifacts": {
            "serving_chaos_histogram.json": {
                "scenario": "serving_chaos",
                "note": (
                    "per-leg latency histograms plus the injector's "
                    "fired-fault timeline for the committed plan"
                ),
                "plan": {
                    "seed": CHAOS_PLAN_SEED,
                    "params": dict(CHAOS_PLAN_PARAMS),
                    "timeline": [list(entry) for entry in plan.timeline()],
                },
                "applied_counts": applied,
                "fired_log": [list(entry) for entry in injector.fired_log()],
                "error_types": dict(chaos_leg.error_types),
                "legs": {
                    "baseline": baseline.histogram.to_dict(),
                    "chaos": chaos_leg.histogram.to_dict(),
                    "recovery": recovery.histogram.to_dict(),
                },
            }
        },
    }


def scenario_serving_fleet(quick: bool) -> dict:
    """Fleet control-plane overhead versus single-model serving.

    The same closed-loop HTTP workload is driven against two gateways:
    one bare ``InferenceServer`` (the pre-fleet shape, compat-wrapped as
    a one-entry fleet), and a three-entry fleet — champion/challenger at
    a 90/10 A/B split plus a shadow entry that re-scores every answered
    request.  All entries sit on identically configured 2-worker servers
    over :class:`FixedServiceBackend`.

    The primary metric is ``fleet_vs_single_throughput``: fleet HTTP
    requests/sec over single-model requests/sec, within one run.  The
    committed record plus the tight ``SCENARIO_TOLERANCE`` entry gate
    the fleet tax (routing hash, per-entry bookkeeping, shadow fan-out)
    at ≤5%; a hard in-run floor catches catastrophic regressions even
    on a first record.  The A/B split observed by the per-model
    Prometheus counters and the shadow coverage ratio are recorded
    alongside as correctness evidence.
    """
    from repro.serving.client import ServingClient
    from repro.serving.fleet import ModelEntry, ModelFleet
    from repro.serving.gateway import ServingGateway

    load = _load(quick, 12 if quick else 24)

    single_server = _stub_server(FixedServiceBackend(), "bench-single")
    with ServingGateway(single_server) as gateway:
        serving_client = ServingClient(gateway.url, deadline_s=30)
        single = _closed_loop(
            [single_server], lambda text, _: serving_client.predict(text), **load
        )

    champion = _stub_server(FixedServiceBackend(), "bench-champion")
    challenger = _stub_server(FixedServiceBackend(), "bench-challenger")
    # The shadow sheds rather than blocks: mirrored traffic must never
    # apply backpressure to the primary path.
    mirror = _stub_server(FixedServiceBackend(), "bench-mirror", overload="shed")
    fleet_obj = ModelFleet(
        [
            ModelEntry("champion", champion, weight=0.9),
            ModelEntry("challenger", challenger, weight=0.1),
            ModelEntry("mirror", mirror, shadow=True),
        ]
    )
    with ServingGateway(fleet_obj) as gateway:
        serving_client = ServingClient(gateway.url, deadline_s=30)
        fleet = _closed_loop(
            [champion, challenger],
            lambda text, _: serving_client.predict(text),
            **load,
        )
        scraped = serving_client.metrics()

        def model_requests(name: str) -> float:
            return scraped.get(
                ("holistix_requests_total", frozenset({("model", name)})), 0.0
            )

        champ_total = model_requests("champion")
        chall_total = model_requests("challenger")
        mirror_total = model_requests("mirror")
        shadow_counts = fleet_obj.shadow_counts()

    primary_total = champ_total + chall_total
    ratio = fleet["throughput"] / single["throughput"]
    # Catastrophic-regression floor; the committed record enforces the
    # fine-grained ≤5% gate via SCENARIO_TOLERANCE.
    assert ratio >= 0.80, (
        f"fleet serving collapsed vs single-model: {ratio:.3f}x "
        f"({fleet['throughput']:.0f} vs {single['throughput']:.0f} req/s)"
    )
    assert primary_total > 0, "fleet leg served no primary traffic"
    challenger_share = chall_total / primary_total
    assert 0.02 <= challenger_share <= 0.25, (
        f"A/B split drifted from 90/10: challenger share "
        f"{challenger_share:.1%} over {primary_total:.0f} requests"
    )

    return {
        "n_clients": load["n_clients"],
        "timings": {
            "measure_window_s": load["measure_s"],
            "single_p50_ms": single["p50_ms"],
            "single_p95_ms": single["p95_ms"],
            "fleet_p50_ms": fleet["p50_ms"],
            "fleet_p95_ms": fleet["p95_ms"],
            "fleet_p99_ms": fleet["p99_ms"],
        },
        "metrics": {
            "fleet_vs_single_throughput": ratio,
            "single_req_per_sec": single["throughput"],
            "fleet_req_per_sec": fleet["throughput"],
            "challenger_traffic_share": challenger_share,
            "shadow_coverage": (
                mirror_total / primary_total if primary_total else 0.0
            ),
            "shadow_submitted": float(shadow_counts["submitted"]),
            "shadow_failed": float(shadow_counts["failed"]),
        },
    }


# name -> (runner, primary metric key, higher is better).  Primary
# metrics are mostly ratios measured within one run, so the regression
# check stays meaningful when the committed record and CI run on
# different hardware; absolute docs/sec numbers are recorded alongside.
# ``serving_tail`` gates an absolute p99, defensible because the
# sleep-based service stub (not hardware speed) dominates it, and its
# widened ``SCENARIO_TOLERANCE`` entry absorbs scheduler jitter.
SCENARIOS: dict[str, tuple] = {
    "tfidf": (scenario_tfidf, "transform_speedup_vs_legacy", True),
    "traditional": (scenario_traditional, "sparse_speedup_vs_dense", True),
    "engine": (scenario_engine, "cache_speedup", True),
    "table4": (scenario_table4, "jobs4_speedup", True),
    "transformer": (scenario_transformer, "fused_speedup", True),
    "serving_load": (scenario_serving_load, "worker_scaling", True),
    "serving_http": (scenario_serving_http, "http_vs_inprocess_throughput", True),
    "serving_mp": (scenario_serving_mp, "process_worker_scaling", True),
    "serving_tail": (scenario_serving_tail, "open_loop_p99_ms", False),
    "serving_chaos": (scenario_serving_chaos, "chaos_availability", True),
    "serving_fleet": (scenario_serving_fleet, "fleet_vs_single_throughput", True),
}


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record_path(scenario: str, out_dir: Path) -> Path:
    return out_dir / f"BENCH_{scenario}.json"


def load_previous(scenario: str, out_dir: Path) -> dict | None:
    path = record_path(scenario, out_dir)
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def compare(scenario: str, record: dict, previous: dict | None) -> tuple[str, bool]:
    """Human-readable delta vs the previous record and a regression flag."""
    _, key, higher_better = SCENARIOS[scenario]
    current = record["metrics"][key]
    if previous is None:
        return f"{scenario}: {key}={current:.1f} (first record)", False
    if previous.get("quick") != record.get("quick"):
        # Quick and full runs measure different workloads; comparing
        # them would flag sizing changes as perf regressions.
        return (
            f"{scenario}: {key}={current:.1f} "
            "(previous record used a different sizing; not compared)",
            False,
        )
    prior = previous.get("metrics", {}).get(key)
    if prior is None or prior == 0:
        return f"{scenario}: {key}={current:.1f} (no prior {key})", False
    tolerance = SCENARIO_TOLERANCE.get(scenario, REGRESSION_TOLERANCE)
    ratio = current / prior if higher_better else prior / current
    regressed = ratio < (1.0 - tolerance)
    arrow = "regressed" if regressed else ("improved" if ratio > 1.0 else "held")
    return (
        f"{scenario}: {key} {prior:.1f} -> {current:.1f} "
        f"({ratio:.2f}x vs {previous.get('git_sha', '?')[:8]}, {arrow})",
        regressed,
    )


def run_scenario(scenario: str, *, quick: bool, out_dir: Path) -> tuple[dict, bool]:
    """Run one scenario, persist its record, return (record, regressed)."""
    runner, _, _ = SCENARIOS[scenario]
    previous = load_previous(scenario, out_dir)
    started = time.perf_counter()
    result = runner(quick)
    # Sidecar artifacts (e.g. full latency histograms) are written next
    # to the record but kept out of it: BENCH_*.json stays small enough
    # to diff in review, and the sidecar carries the bulk data CI
    # uploads as a workflow artifact.
    artifacts: dict = result.pop("artifacts", {})
    result_record = {
        "scenario": scenario,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": _git_sha(),
        "quick": quick,
        "cpu_count": os.cpu_count() or 1,
        "harness_wall_clock_s": time.perf_counter() - started,
        **result,
    }
    summary, regressed = compare(scenario, result_record, previous)
    if previous is not None:
        result_record["previous"] = {
            "git_sha": previous.get("git_sha"),
            "timestamp": previous.get("timestamp"),
            "metrics": previous.get("metrics"),
        }
    if artifacts:
        result_record["artifacts"] = sorted(artifacts)
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path(scenario, out_dir).write_text(
        json.dumps(result_record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    for name, payload in artifacts.items():
        (out_dir / name).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    print(summary)
    if regressed:
        _annotate_regression(scenario, summary)
    return result_record, regressed


def _annotate_regression(scenario: str, summary: str) -> None:
    """Make a regression visible on GitHub, not just a red cron run.

    Scheduled workflow failures notify nobody by default; a
    ``::error`` workflow command surfaces the regression as an
    annotation on the run summary page (and on the PR's checks tab for
    pull-request runs).  The ``benchmark-table4`` job additionally
    opens/updates a pinned tracking issue from this annotation's text.
    """
    if os.environ.get("GITHUB_ACTIONS") != "true":
        return
    message = summary.replace("%", "%25").replace("\n", "%0A")
    print(
        f"::error title=Benchmark regression ({scenario})::{message}",
        flush=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.harness",
        description="Run named perf scenarios and persist BENCH_*.json records.",
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        choices=[*SCENARIOS, "all"],
        default="all",
        help="which scenarios to run (default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI sizing: smaller corpora/suites"
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=DEFAULT_OUT_DIR,
        help=f"record directory (default: {DEFAULT_OUT_DIR})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when a scenario regressed vs its previous record",
    )
    args = parser.parse_args(argv)

    requested = args.scenarios if isinstance(args.scenarios, list) else ["all"]
    if not requested or "all" in requested:
        requested = list(SCENARIOS)

    any_regressed = False
    for scenario in requested:
        _, regressed = run_scenario(
            scenario, quick=args.quick, out_dir=args.out_dir
        )
        any_regressed = any_regressed or regressed
    if args.check and any_regressed:
        print("benchmark regression detected", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
