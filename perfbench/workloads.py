"""The three workloads: set-up, load generator, output check and metrics.

``lr_online`` and ``bert_batch`` serve a fitted model through the whole
stack (``ServingClient`` -> loopback HTTP -> ``ServingGateway`` ->
``ModelFleet`` -> ``InferenceServer`` -> ``PredictionEngine`` ->
backend).  ``cv_fit`` runs the paper's 10-fold cross-validation of the
traditional baselines through ``run_table4``.  Each workload drives its
own load: at most :data:`CALLERS` threads, each with its own client.
"""

from __future__ import annotations

import http.client
import itertools
import random
import resource
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from measure import (
    accuracy_mismatches,
    beyond,
    count_wrong,
    median,
    percentile,
)
from tracing import (
    CLIENT_SPANS,
    ENGINE_SPAN,
    HANDLER_SPAN,
    LAYERS,
    UNATTRIBUTED,
    Span,
    Tracer,
    attribute,
    children_time,
    layer_of,
    spans_by_request,
    time_per_doc,
    total_time,
)

from repro.core.dataset import HolistixDataset
from repro.core.labels import DIMENSIONS
from repro.core.pipeline import WellnessClassifier
from repro.corpus.factory import CorpusFactory
from repro.engine.registry import build_engine, create_traditional_model, get_spec
from repro.engine.server import InferenceServer
from repro.experiments import table4
from repro.experiments.protocol import FULL
from repro.models.config import MODEL_CONFIGS
from repro.models.trainer import Trainer
from repro.serving.cli import build_parser
from repro.serving.client import ServingClient, ServingError
from repro.serving.fleet import ModelEntry, ModelFleet
from repro.serving.gateway import ServingGateway
from repro.text.tfidf import TfidfVectorizer
from repro.text.vocab import Vocabulary

#: Load comes from one process with at most this many threads and
#: connections (the size of the machine the figures were sized on).
CALLERS = 2
#: Blocks a closed-loop phase is cut into; throughput is their median.
BLOCKS = 5
#: Alternating untraced/traced window pairs in a ``--trace 1`` run.
TRACE_PAIRS = 3

#: ``lr_online``'s Poisson offered rate, a seventh of the 2-caller
#: closed-loop capacity.  At 120/s about one request in ten found both
#: callers busy, so the p90 sat where queueing starts and jumped between
#: runs; here it measures service.  20 s of it puts 12 samples past p99.
LR_RATE_PER_S = 60.0
#: Share of the run given to the open loop; the closed loop gets the rest.
LR_OPEN_SHARE = 0.8
LR_POOL = 16384
LR_WARM = 200

BERT_BATCH = 64
BERT_POOL = 8192
BERT_WARM_CALLS = 8
#: Table-IV-sized MentalBERT with pretraining off and 3 epochs.
BERT_CONFIG = replace(
    MODEL_CONFIGS["MentalBERT"], pretrain_objective=None, pretrain_steps=0, epochs=3
)

CV_BASELINES = ("LR", "Linear SVM", "Gaussian NB")
#: Fold-averaged accuracies of the 10-fold protocol on the fixed
#: dataset; a correct program reproduces them exactly.
CV_EXPECTED_ACCURACY = {
    "LR": 0.6359100387093346,
    "Linear SVM": 0.6057538803137396,
    "Gaussian NB": 0.27954846600973365,
}

#: End-to-end metrics of every workload: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "docs_per_s": ("docs/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
#: Per-layer metrics of a ``--trace 1`` run: name -> (unit, better).  A
#: layer that does no work in a workload reports 0.
PER_LAYER = {
    "driver.lag_ms_p99": ("ms", "lower"),
    "serving.client.rtt_ms_p50": ("ms", "lower"),
    "serving.client.self_ms_p50": ("ms", "lower"),
    "serving.client.retries": ("count", "lower"),
    "serving.gateway.handler_ms_p50": ("ms", "lower"),
    "serving.gateway.self_ms_p50": ("ms", "lower"),
    "serving.protocol.parse_us_p50": ("us", "lower"),
    "serving.protocol.format_us_per_doc": ("us", "lower"),
    "serving.fleet.route_us_p50": ("us", "lower"),
    "serving.gateway.non_200": ("count", "lower"),
    "engine.server.admission_us_p50": ("us", "lower"),
    "engine.server.residence_ms_p50": ("ms", "lower"),
    "engine.server.residence_ms_p99": ("ms", "lower"),
    "engine.server.wait_ms_p50": ("ms", "lower"),
    "engine.server.batch_size_mean": ("docs", "higher"),
    "engine.server.busy_ratio": ("ratio", "lower"),
    "engine.server.shed": ("count", "lower"),
    "engine.engine.predict_ms_p50": ("ms", "lower"),
    "engine.engine.self_ms_p50": ("ms", "lower"),
    "engine.engine.cache_hit_ratio": ("ratio", "higher"),
    "engine.engine.padding_saved": ("ratio", "higher"),
    "text.tfidf.transform_us_per_doc": ("us", "lower"),
    "text.tfidf.fit_transform_s": ("s", "lower"),
    "ml.logistic.predict_proba_us_per_doc": ("us", "lower"),
    "ml.logistic.fit_s": ("s", "lower"),
    "ml.svm.fit_s": ("s", "lower"),
    "ml.naive_bayes.fit_s": ("s", "lower"),
    "models.classifier.encode_us_per_doc": ("us", "lower"),
    "models.classifier.forward_ms_per_doc": ("ms", "lower"),
    "models.trainer.fit_s": ("s", "lower"),
    "experiments.table4.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
}
#: Spans beneath an engine call that count as its backend.
ENGINE_BACKEND = ("engine.engine.backend", "models.classifier.encode")


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Outcome:
    """What one measured run produced."""

    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, Metric]
    lines: list[str] = field(default_factory=list)


def per_layer_metrics(values: dict[str, float], samples: int) -> dict[str, Metric]:
    if values.keys() != PER_LAYER.keys():
        missing = sorted(values.keys() ^ PER_LAYER.keys())
        raise ValueError(f"per-layer metrics differ from PER_LAYER: {missing}")
    return {name: Metric(v, PER_LAYER[name][0], samples) for name, v in values.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def input_properties(texts: list[str]) -> str:
    duplicate = 1.0 - len(set(texts)) / len(texts)
    words = sum(t.count(" ") + 1 for t in texts) / len(texts)
    return (
        f"{len(texts)} texts, duplicate share {duplicate:.3f}, "
        f"mean words {words:.1f}"
    )


# ----------------------------------------------------------------------
# Serving stack
# ----------------------------------------------------------------------
def start_gateway(baseline: str, model, vectorizer) -> ServingGateway:
    """Serve one model the way ``holistix-serve`` does, with its defaults.

    Every setting comes from ``holistix-serve``'s own parser, so a change
    to a default is measured as users get it.  Only the port is chosen
    by the kernel.
    """
    args = build_parser().parse_args(["--port", "0"])
    if args.worker_processes or args.inject_latency_ms:
        raise SystemExit(
            "holistix-serve now defaults to process workers or injected "
            "latency; this benchmark serves the threaded path only"
        )
    engine = build_engine(
        baseline,
        model=model,
        vectorizer=vectorizer,
        model_id=f"{baseline}@bench",
        cache_size=args.cache_size,
    )
    server = InferenceServer(
        engine,
        workers=args.workers,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.max_queue,
        overload=args.overload,
    )
    entry = ModelEntry("default", server, baseline=baseline)
    return ServingGateway(
        ModelFleet([entry], split_seed=args.split_seed),
        host=args.host,
        port=args.port,
        request_timeout_s=args.request_timeout_s,
        admin_token=args.admin_token,
    ).start()


@dataclass(slots=True)
class Call:
    rid: str
    due: float
    sent: float
    done: float
    docs: int
    wrong: int
    failed: bool
    traced: bool = False

    @property
    def latency(self) -> float:
        """Seconds from when the call was due (open loop) or sent."""
        return self.done - self.due


_CALL_ERRORS = (ServingError, OSError, http.client.HTTPException)


def _attempt(request, client, index: int, rid: str, due: float | None, docs: int):
    """One call; ``due`` None means due when sent (closed loop)."""
    sent = time.perf_counter()
    try:
        wrong, failed = request(client, index, rid), False
    except _CALL_ERRORS:
        wrong, failed = 0, True
    done = time.perf_counter()
    return Call(rid, sent if due is None else due, sent, done, docs, wrong, failed)


def _run_threads(target, clients) -> None:
    threads = [threading.Thread(target=target, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(clients, request, *, rate: float, seconds: float, seed: str):
    """Poisson arrivals at ``rate``; at most ``len(clients)`` in flight.

    ``request(client, index, rid)`` performs one call and returns the
    number of wrong answers.  Latency is charged from the intended send
    time, so a stall also delays the requests queued behind it.
    Requests still unsent ``seconds`` after the schedule ends are
    dropped.  Returns ``(calls, dropped)``.
    """
    rng = random.Random(seed)  # a str seed is hashed stably (sha512)
    offsets, at = [], rng.expovariate(rate)
    while at < seconds:
        offsets.append(at)
        at += rng.expovariate(rate)
    calls: list[Call] = []
    dropped: list[int] = []
    counter = itertools.count()
    lock = threading.Lock()
    start = time.perf_counter() + 0.005
    give_up = start + 2 * seconds

    def sender(client) -> None:
        while True:
            with lock:
                index = next(counter)
            if index >= len(offsets):
                return
            due = start + offsets[index]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            elif time.perf_counter() > give_up:
                dropped.append(index)
                continue
            calls.append(_attempt(request, client, index, f"{seed}-{index}", due, 1))

    _run_threads(sender, clients)
    return calls, len(dropped)


def closed_loop(clients, request, *, seconds: float, docs: int, first: int, tag: str):
    """Each client calls back-to-back until ``seconds`` have passed."""
    calls: list[Call] = []
    counter = itertools.count(first)
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def caller(client) -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = next(counter)
            calls.append(_attempt(request, client, index, f"{tag}-{index}", None, docs))

    _run_threads(caller, clients)
    return calls


def block_throughput(calls: list[Call], start: float, seconds: float) -> list[float]:
    """Correct documents answered per second in each of :data:`BLOCKS` blocks."""
    width = seconds / BLOCKS
    answered = [0] * BLOCKS
    for call in calls:
        block = int((call.done - start) / width)
        if not call.failed and 0 <= block < BLOCKS:
            answered[block] += call.docs - call.wrong
    return [n / width for n in answered]


def latency_metrics(latencies_s: list[float], what: str) -> dict[str, Metric]:
    """``p50_ms``, plus the p90 and p99 (when 10 samples lie beyond it).

    Only the median is gated (see ``END_TO_END``): on a shared 2-vCPU
    host the ``lr_online`` p90 and p99 moved by half their value between
    runs, more than any bound allows.  The tail is printed for reading.
    """
    ms = [v * 1000.0 for v in latencies_s]
    metrics = {
        "p50_ms": Metric(median(ms), "ms", len(ms), what),
        "p90_ms": Metric(percentile(ms, 90.0), "ms", len(ms), "printed, not gated"),
    }
    past_p99 = beyond(ms, 99.0)
    if past_p99 >= 10:
        note = f"{past_p99} samples beyond; printed, not gated"
        metrics["p99_ms"] = Metric(percentile(ms, 99.0), "ms", len(ms), note)
    return metrics


def online_outcome(calls, dropped: int, metrics, lines) -> Outcome:
    """Count errors; any answer that differs from the oracle is a problem."""
    attempted = sum(c.docs for c in calls) + dropped
    failed = sum(c.docs for c in calls if c.failed)
    wrong = sum(c.wrong for c in calls)
    bad = failed + dropped + wrong
    lines.insert(
        0,
        f"error_ratio {bad / attempted:.6f} (failed {failed}, dropped {dropped}, "
        f"wrong {wrong}, attempted {attempted})",
    )
    problems = [f"{wrong} answers differ from the in-process oracle"] if wrong else []
    return Outcome(attempted, bad, problems, metrics, lines)


# ----------------------------------------------------------------------
# Online workloads
# ----------------------------------------------------------------------
class OnlineWorkload:
    """A fitted model served over loopback HTTP, checked against an oracle."""

    baseline: str
    pool_size: int
    warm_size: int

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        # Warm-up texts come from the head of the seeded stream and the
        # measured pool from after it; warm-up texts that recur in the
        # pool are dropped, so the LRU holds none of the measured texts
        # when timing starts.
        stream = CorpusFactory().texts(seed, self.warm_size + self.pool_size)
        self.pool = stream[self.warm_size :]
        measured = set(self.pool)
        self.warm = [t for t in stream[: self.warm_size] if t not in measured]
        self.gateway: ServingGateway | None = None
        self.clients: list[ServingClient] = []
        self.expected: list[str] = []

    def fit(self, dataset: HolistixDataset):
        """Return ``(model, vectorizer)`` fitted on the fixed train split."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def request(self, client: ServingClient, index: int, rid: str) -> int:
        """Send request ``index``; returns how many answers were wrong."""
        raise NotImplementedError

    def serve_phase(self, seconds: float, tag: str, first: int):
        """One phase of the workload's load; returns ``(calls, dropped)``."""
        raise NotImplementedError

    def measure(self, seconds: float) -> Outcome:
        raise NotImplementedError

    def setup(self) -> None:
        dataset = HolistixDataset.build()
        self.model, self.vectorizer = self.fit(dataset)
        self.gateway = start_gateway(self.baseline, self.model, self.vectorizer)
        self.clients = [ServingClient(self.gateway.url) for _ in range(CALLERS)]
        self.warm_up()

    def prepare(self) -> None:
        """Expected label of every pool text from an in-process engine."""
        oracle = build_engine(
            self.baseline,
            model=self.model,
            vectorizer=self.vectorizer,
            model_id="oracle",
            cache_size=0,
        )
        self.expected = [d.code for d in oracle.predict(self.pool)]

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None

    def measure_traced(
        self, seconds: float, tracer: Tracer, setup_spans: int
    ) -> Outcome:
        """Alternate untraced and traced windows of the workload's phase."""
        window = seconds / (2 * TRACE_PAIRS)
        calls: list[Call] = []
        dropped = 0
        traced_wall = 0.0
        delta: dict[str, float] = defaultdict(float)
        for w in range(2 * TRACE_PAIRS):
            # U T T U U T: each pair swaps its order, so drift over the
            # run does not favour either side of the overhead ratio.
            traced = w % 4 in (1, 2)
            if traced:
                before = self._counters()
                tracer.install()
            started = time.perf_counter()
            first = len(calls) + dropped
            phase_calls, phase_dropped = self.serve_phase(window, f"w{w}", first)
            if traced:
                tracer.uninstall()
                traced_wall += time.perf_counter() - started
                for key, value in self._counters().items():
                    delta[key] += value - before[key]
            for call in phase_calls:
                call.traced = traced
            calls.extend(phase_calls)
            dropped += phase_dropped
        values, lines = self._layer_values(
            calls, tracer.spans[setup_spans:], tracer, traced_wall, delta
        )
        setup = tracer.spans[:setup_spans]
        for name in ("text.tfidf.fit_transform", "models.trainer.fit"):
            values[f"{name}_s"] = total_time(setup, name)
        for layer in ("ml.logistic", "ml.svm", "ml.naive_bayes"):
            values[f"{layer}.fit_s"] = total_time(setup, f"{layer}.fit")
        values["experiments.table4.self_s"] = 0.0
        traced_calls = sum(1 for c in calls if c.traced and not c.failed)
        metrics = per_layer_metrics(values, traced_calls)
        return online_outcome(calls, dropped, metrics, lines)

    def _counters(self) -> dict[str, float]:
        server = self.gateway.server
        snap = server.stats.snapshot()
        engine = server.engine_stats()
        http = self.gateway.http_counters.snapshot()
        return {
            "requests": snap.requests,
            "batches": snap.batches,
            "shed": snap.shed,
            "hits": engine.cache_hits,
            "misses": engine.cache_misses,
            "padded": engine.padded_tokens,
            "naive": engine.padded_tokens_naive,
            "non_200": sum(n for (_, status), n in http.items() if status != 200),
            "retries": sum(c.stats()["retries"] for c in self.clients),
        }

    def _layer_values(self, calls, spans, tracer, traced_wall, delta):
        """Serving-side per-layer values and the layer table."""
        traced = [c for c in calls if c.traced and not c.failed]
        untraced = [c for c in calls if not c.traced and not c.failed]
        rids = {c.rid for c in traced}
        by_rid = spans_by_request(spans)
        mine = [s for s in spans if s.root.rid in rids]

        def durations(name: str, scale: float) -> list[float]:
            return [s.duration * scale for s in mine if s.name == name]

        engine_spans = [
            s for s in spans if s.name == ENGINE_SPAN and not rids.isdisjoint(s.links)
        ]
        engine_ids = {id(s) for s in engine_spans}
        under_engine = [s for s in spans if id(s.root) in engine_ids]
        children: dict[int, list[Span]] = defaultdict(list)
        for span in under_engine:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        engine_self_ms = [
            (s.duration - children_time(s, children[id(s)], ENGINE_BACKEND)) * 1e3
            for s in engine_spans
        ]

        # Each traced request's round trip, as its caller timed it,
        # split among the layers that worked for it.
        shares: dict[str, list[float]] = defaultdict(list)
        rtts = []
        for call in traced:
            owned = attribute(by_rid.get(call.rid, ()), call.sent, call.done)
            rtts.append(call.done - call.sent)
            for layer in (*LAYERS, UNATTRIBUTED):
                shares[layer].append(owned.get(layer, 0.0))

        samples = [(r, e) for rid, r, e in tracer.doc_samples if rid in rids]
        residence = [r for r, _ in samples]
        client_ms = durations(CLIENT_SPANS[0], 1e3) + durations(CLIENT_SPANS[1], 1e3)
        untraced_rtt = median([c.done - c.sent for c in untraced])
        lags = [c.sent - c.due for c in calls]
        lookups = delta["hits"] + delta["misses"]
        busy = sum(s.duration for s in engine_spans)
        workers = self.gateway.server.workers
        values = {
            "driver.lag_ms_p99": percentile(lags, 99.0) * 1e3,
            "serving.client.rtt_ms_p50": median(client_ms),
            "serving.client.self_ms_p50": median(shares["serving.client"]) * 1e3,
            "serving.client.retries": delta["retries"],
            "serving.gateway.handler_ms_p50": median(durations(HANDLER_SPAN, 1e3)),
            "serving.gateway.self_ms_p50": median(shares["serving.gateway"]) * 1e3,
            "serving.protocol.parse_us_p50": median(
                durations("serving.protocol.parse", 1e6)
            ),
            "serving.protocol.format_us_per_doc": time_per_doc(
                mine, ("serving.protocol.format",), 1e6
            ),
            "serving.fleet.route_us_p50": median(durations("serving.fleet.route", 1e6)),
            "serving.gateway.non_200": delta["non_200"],
            "engine.server.admission_us_p50": median(
                durations("engine.server.submit", 1e6)
            ),
            "engine.server.residence_ms_p50": median(residence),
            "engine.server.residence_ms_p99": percentile(residence, 99.0),
            "engine.server.wait_ms_p50": median(
                [r - e.duration * 1e3 for r, e in samples if e is not None]
            ),
            "engine.server.batch_size_mean": (
                delta["requests"] / delta["batches"] if delta["batches"] else 0.0
            ),
            "engine.server.busy_ratio": busy / (traced_wall * workers),
            "engine.server.shed": delta["shed"],
            "engine.engine.predict_ms_p50": median(
                [s.duration * 1e3 for s in engine_spans]
            ),
            "engine.engine.self_ms_p50": median(engine_self_ms),
            "engine.engine.cache_hit_ratio": (
                delta["hits"] / lookups if lookups else 0.0
            ),
            "engine.engine.padding_saved": (
                1.0 - delta["padded"] / delta["naive"] if delta["naive"] else 0.0
            ),
            "text.tfidf.transform_us_per_doc": time_per_doc(
                under_engine, ("text.tfidf.transform",), 1e6
            ),
            "ml.logistic.predict_proba_us_per_doc": time_per_doc(
                under_engine, ("ml.logistic.predict_proba",), 1e6
            ),
            "models.classifier.encode_us_per_doc": time_per_doc(
                under_engine, ("models.classifier.encode",), 1e6
            ),
            "models.classifier.forward_ms_per_doc": time_per_doc(
                under_engine, ("models.classifier.forward",), 1e3
            ),
            "trace.overhead_ratio": median(rtts) / untraced_rtt,
            "trace.unattributed_share": sum(shares[UNATTRIBUTED]) / sum(rtts),
        }
        lines = layer_table(shares, rtts, unit="ms", scale=1e3)
        lines.append(
            f"client RTT p50 {median(client_ms):.4f} ms over {len(client_ms)} "
            f"traced requests; untraced RTT p50 {untraced_rtt * 1e3:.4f} ms "
            f"over {len(untraced)}"
        )
        return values, lines


class LrOnline(OnlineWorkload):
    """Single-text ``/v1/predict`` at a fixed Poisson rate, then closed loop."""

    baseline = "LR"
    pool_size = LR_POOL
    warm_size = LR_WARM

    def fit(self, dataset):
        # Through a checkpoint, as holistix-serve loads it: a freshly
        # fitted vectoriser still holds its training tokenisation cache.
        fitted = WellnessClassifier("LR").fit(dataset.fixed_split().train)
        with tempfile.TemporaryDirectory(dir=self.work_dir) as checkpoint:
            served = WellnessClassifier.load(fitted.save(checkpoint))
        return served.model, served.vectorizer

    def request(self, client, index, rid):
        slot = index % len(self.pool)
        answer = client.predict(self.pool[slot], request_id=rid)
        return int(answer.label != self.expected[slot])

    def warm_up(self):
        texts = iter(self.warm)
        lock = threading.Lock()

        def caller(client):
            while True:
                with lock:
                    text = next(texts, None)
                if text is None:
                    return
                client.predict(text)

        _run_threads(caller, self.clients)

    def serve_phase(self, seconds, tag, first):
        def request(client, index, rid):
            return self.request(client, first + index, rid)

        return open_loop(
            self.clients,
            request,
            rate=LR_RATE_PER_S,
            seconds=seconds,
            seed=f"{self.seed}:{tag}",
        )

    def measure(self, seconds):
        open_s = seconds * LR_OPEN_SHARE
        open_calls, dropped = self.serve_phase(open_s, "open", 0)
        first = len(open_calls) + dropped
        start = time.perf_counter()
        closed_calls = closed_loop(
            self.clients,
            self.request,
            seconds=seconds - open_s,
            docs=1,
            first=first,
            tag="closed",
        )
        metrics = latency_metrics(
            [c.latency for c in open_calls if not c.failed],
            f"open loop at {LR_RATE_PER_S:g}/s, from intended send time",
        )
        rates = block_throughput(closed_calls, start, seconds - open_s)
        metrics["docs_per_s"] = Metric(
            median(rates),
            "docs/s",
            len(rates),
            f"closed loop, {CALLERS} callers; median of {BLOCKS} blocks",
        )
        sent = [self.pool[i % len(self.pool)] for i in range(first + len(closed_calls))]
        lags = [c.sent - c.due for c in open_calls]
        lines = [
            f"inputs: {input_properties(sent)}",
            f"driver lag p99 {percentile(lags, 99.0) * 1e3:.4f} ms",
        ]
        return online_outcome(open_calls + closed_calls, dropped, metrics, lines)


class BertBatch(OnlineWorkload):
    """Closed loop of ``/v1/predict_batch`` calls with 64 texts each."""

    baseline = "MentalBERT"
    pool_size = BERT_POOL
    warm_size = BERT_WARM_CALLS * BERT_BATCH

    def fit(self, dataset):
        train = dataset.fixed_split().train
        texts, labels = train.texts, train.labels
        # Same vocabulary recipe as WellnessClassifier (no pretraining
        # corpus, since pretraining is off).
        trainer = Trainer(BERT_CONFIG, Vocabulary.build(texts, max_size=2500))
        trainer.fit(texts, labels)
        return trainer.model, None

    def request(self, client, index, rid):
        start = index * BERT_BATCH
        slots = [i % len(self.pool) for i in range(start, start + BERT_BATCH)]
        answer = client.predict_batch([self.pool[s] for s in slots], request_id=rid)
        labels = [p.label for p in answer.predictions]
        if len(labels) != len(slots):
            return len(slots)
        return count_wrong(labels, [self.expected[s] for s in slots])

    def warm_up(self):
        for i in range(0, len(self.warm), BERT_BATCH):
            self.clients[i % CALLERS].predict_batch(self.warm[i : i + BERT_BATCH])

    def serve_phase(self, seconds, tag, first):
        calls = closed_loop(
            self.clients,
            self.request,
            seconds=seconds,
            docs=BERT_BATCH,
            first=first,
            tag=tag,
        )
        return calls, 0

    def measure(self, seconds):
        start = time.perf_counter()
        calls, _ = self.serve_phase(seconds, "closed", 0)
        metrics = latency_metrics(
            [c.latency for c in calls if not c.failed],
            f"closed loop, {CALLERS} callers x {BERT_BATCH} texts",
        )
        rates = block_throughput(calls, start, seconds)
        metrics["docs_per_s"] = Metric(
            median(rates), "docs/s", len(rates), f"median of {BLOCKS} blocks"
        )
        passes = len(calls) * BERT_BATCH / len(self.pool)
        lines = [f"inputs: pool of {input_properties(self.pool)}; {passes:.2f} passes"]
        return online_outcome(calls, 0, metrics, lines)


# ----------------------------------------------------------------------
# Cross-validation workload
# ----------------------------------------------------------------------
class CvFit:
    """``run_table4`` with the FULL protocol over three baselines, serially.

    The protocol fixes its inputs (the generated dataset and fold seed),
    so the workload seed changes nothing here: that is what lets the
    accuracies be checked exactly.
    """

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.dataset: HolistixDataset | None = None

    def setup(self) -> None:
        self.dataset = HolistixDataset.build()
        # Warm-up: fit each baseline once on the first fold's training
        # part, as a fold does.  A process's first LR fit runs about
        # 1.7x slower than later ones; without this, that one-off cost
        # would land on the first measured pass.
        train, _ = self.dataset.stratified_folds(FULL.n_folds, seed=FULL.seed)[0]
        texts = [self.dataset.texts[i] for i in train]
        labels = self.dataset.labels
        targets = np.asarray([DIMENSIONS.index(labels[i]) for i in train])
        for name in CV_BASELINES:
            max_features = get_spec(name).max_features
            vectorizer = TfidfVectorizer(max_features=max_features, sparse_output=True)
            model = create_traditional_model(name, seed=FULL.seed)
            model.fit(vectorizer.fit_transform(texts), targets)

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass

    def one_pass(self) -> tuple[float, list[str]]:
        """One ``run_table4`` call: its wall time and any wrong accuracy."""
        started = time.perf_counter()
        result = table4.run_table4(
            self.dataset, protocol=FULL, baselines=CV_BASELINES, jobs=1
        )
        wall = time.perf_counter() - started
        measured = {name: result.accuracy_of(name) for name in CV_BASELINES}
        return wall, accuracy_mismatches(measured, CV_EXPECTED_ACCURACY)

    def measure(self, seconds: float) -> Outcome:
        walls: list[float] = []
        problems: list[str] = []
        started = time.perf_counter()
        # Whole passes, at least two, so the median is not one sample.
        while len(walls) < 2 or time.perf_counter() - started < seconds:
            wall, mismatches = self.one_pass()
            walls.append(wall)
            problems.extend(mismatches)
        docs = len(self.dataset) * FULL.n_folds * len(CV_BASELINES)
        metrics = {
            "p50_ms": Metric(1e3 * median(walls), "ms", len(walls), "per pass"),
            "wall_s": Metric(median(walls), "s", len(walls), "printed, not gated"),
        }
        metrics["docs_per_s"] = Metric(
            median([docs / w for w in walls]),
            "docs/s",
            len(walls),
            f"{docs} documents fitted or scored a pass; median of passes",
        )
        attempted = len(walls) * len(CV_BASELINES)
        lines = [
            f"error_ratio {len(problems) / attempted:.6f} ({len(problems)} of "
            f"{attempted} baseline accuracies differ)",
            f"inputs: {len(self.dataset)} documents, {FULL.n_folds} folds, "
            f"baselines {', '.join(CV_BASELINES)}",
        ]
        return Outcome(attempted, len(problems), problems, metrics, lines)

    def measure_traced(
        self, seconds: float, tracer: Tracer, setup_spans: int
    ) -> Outcome:
        """An untraced pass, then a traced one."""
        untraced, problems = self.one_pass()
        tracer.install()
        try:
            first = len(tracer.spans)
            started = time.perf_counter()
            traced, more = self.one_pass()
            ended = time.perf_counter()
        finally:
            tracer.uninstall()
        problems.extend(more)
        spans = tracer.spans[first:]
        owned = attribute(spans, started, ended)
        unattributed = owned.get(UNATTRIBUTED, 0.0)
        # transform() inside fit_transform() is the same work counted twice.
        scored = [
            s
            for s in spans
            if s.parent is None or layer_of(s.parent.name) != "text.tfidf"
        ]
        values = dict.fromkeys(PER_LAYER, 0.0)  # serving layers do no work here
        values.update(
            {
                "text.tfidf.transform_us_per_doc": time_per_doc(
                    scored, ("text.tfidf.transform",), 1e6
                ),
                "text.tfidf.fit_transform_s": total_time(
                    spans, "text.tfidf.fit_transform"
                ),
                "ml.logistic.fit_s": total_time(spans, "ml.logistic.fit"),
                "ml.svm.fit_s": total_time(spans, "ml.svm.fit"),
                "ml.naive_bayes.fit_s": total_time(spans, "ml.naive_bayes.fit"),
                "experiments.table4.self_s": owned.get("experiments.table4", 0.0),
                "trace.overhead_ratio": traced / untraced,
                "trace.unattributed_share": unattributed / (ended - started),
            }
        )
        shares = {layer: [owned.get(layer, 0.0)] for layer in (*LAYERS, UNATTRIBUTED)}
        lines = layer_table(shares, [ended - started], unit="s", scale=1.0)
        lines.append(f"untraced pass {untraced:.4f} s, traced pass {traced:.4f} s")
        metrics = per_layer_metrics(values, 1)
        return Outcome(2 * len(CV_BASELINES), len(problems), problems, metrics, lines)


def layer_table(
    shares: dict[str, list[float]], rtts: list[float], *, unit: str, scale: float
) -> list[str]:
    """Per-layer self time of the median requests, summing to their round trip.

    Rows average each layer's self time over the requests whose round
    trip lies between its 45th and 55th percentiles, so the rows plus
    ``unattributed`` add up to the mean round trip of that band, which
    sits at the round-trip median.
    """
    low, high = percentile(rtts, 45.0), percentile(rtts, 55.0)
    band = [i for i, rtt in enumerate(rtts) if low <= rtt <= high]
    mean_rtt = sum(rtts[i] for i in band) / len(band)
    lines = [f"{'layer':<22}{'self ' + unit:>12}{'share':>9}"]
    total = 0.0
    for layer in (*LAYERS, UNATTRIBUTED):
        value = sum(shares[layer][i] for i in band) / len(band)
        total += value
        if value or layer == UNATTRIBUTED:
            lines.append(f"{layer:<22}{value * scale:>12.4f}{value / mean_rtt:>9.1%}")
    lines.append(
        f"{'sum':<22}{total * scale:>12.4f}   round trip of the p45-p55 band "
        f"{mean_rtt * scale:.4f} {unit} ({len(band)} requests), "
        f"p50 {median(rtts) * scale:.4f} {unit}"
    )
    return lines


WORKLOADS = {"lr_online": LrOnline, "bert_batch": BertBatch, "cv_fit": CvFit}
