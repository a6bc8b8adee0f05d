"""Span tracing of the program's layers, applied from outside the program.

:meth:`Tracer.install` replaces a fixed list of the program's public
entry points (methods, and the module-level names the gateway looks
up) with timing wrappers; :meth:`Tracer.uninstall` puts the originals
back.  Nothing under ``src/`` is edited.

Every wrapper records one :class:`Span` on the calling thread: its
name, start, end and parent (the enclosing span on the same thread).
Spans of one HTTP request share its request id.  The client span takes
the id the benchmark passes to ``ServingClient``; the gateway handler
span learns it when the protocol parser returns.  Engine batches run
on server worker threads, so an engine span cannot inherit an id: it
*links* to every request whose text it served, found through the text
objects registered when each request was admitted.

Self time is attributed per request by :func:`attribute`: every
instant of the request's round trip goes to the deepest span active
for that request at that instant (client < gateway < server < engine <
model), and instants no span covers are ``unattributed``.  The layer
shares therefore add up to the round trip exactly.
"""

from __future__ import annotations

import bisect
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable

#: Layers in the order the tables print them.
LAYERS = (
    "serving.client",
    "serving.gateway",
    "serving.protocol",
    "serving.fleet",
    "engine.server",
    "engine.engine",
    "text.tfidf",
    "ml.logistic",
    "ml.svm",
    "ml.naive_bayes",
    "models.classifier",
    "models.trainer",
    "experiments.table4",
)
UNATTRIBUTED = "unattributed"

CLIENT_SPANS = ("serving.client.predict", "serving.client.predict_batch")
HANDLER_SPAN = "serving.gateway.handler"
ENGINE_SPAN = "engine.engine.predict_proba"

# Depth offsets per thread kind: an engine worker's spans sit below the
# handler's server-wait span, which sits below the client's call.
_THREAD_DEPTH = {HANDLER_SPAN: 100, ENGINE_SPAN: 200}


def layer_of(name: str) -> str:
    """``engine.server.submit`` -> ``engine.server``."""
    return ".".join(name.split(".", 2)[:2])


class Span:
    __slots__ = (
        "name",
        "start",
        "end",
        "parent",
        "root",
        "depth",
        "rid",
        "links",
        "docs",
    )

    def __init__(self, name: str, parent: Span | None) -> None:
        self.name = name
        self.parent = parent
        self.root = self if parent is None else parent.root
        self.depth = 0 if parent is None else parent.depth + 1
        self.rid: str | None = None
        self.links: tuple[str, ...] = ()
        self.docs = 0
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": id(self),
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else id(self.parent),
            "request_id": self.root.rid,
            "links": list(self.links),
            "docs": self.docs,
        }


def _count(items: object) -> int:
    return len(items) if hasattr(items, "__len__") else 0


def _one(*args, **kwargs) -> int:
    return 1


def _rows(model, matrix) -> int:
    return int(matrix.shape[0])


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # id(text) -> request id, for texts admitted and not yet answered.
        self.live: dict[int, str | None] = {}
        # id(text) -> the engine span that served it, until collected.
        self.served: dict[int, Span] = {}
        # (request id, server residence ms, engine span) per answered text.
        self.doc_samples: list[tuple[str | None, float, Span | None]] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def timed(
        self,
        name: str,
        fn: Callable,
        *,
        docs: Callable[..., int] | None = None,
        before: Callable[..., None] | None = None,
        after: Callable[..., object] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span; the hooks see the span and the call."""
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            if docs is not None:
                span.docs = docs(*args, **kwargs)
            if before is not None:
                before(span, *args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                result = after(span, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner: object, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.timed(name, original, **hooks))

    def install(self) -> None:
        """Wrap every traced entry point (undo with :meth:`uninstall`)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.engine import engine
        from repro.engine.server import BatchingServerBase
        from repro.experiments import table4
        from repro.ml.logistic import LogisticRegression
        from repro.ml.naive_bayes import GaussianNaiveBayes
        from repro.ml.svm import LinearSVM
        from repro.models.classifier import TransformerClassifier
        from repro.models.trainer import Trainer
        from repro.serving import gateway
        from repro.serving.client import ServingClient
        from repro.serving.fleet import ModelFleet
        from repro.text.tfidf import TfidfVectorizer

        def client_rid(span, client, payload, **kwargs):
            span.rid = kwargs.get("request_id")

        def learn_rid(span, request, raw):
            span.root.rid = request.request_id
            return request

        def admit(span, server, text, *args, **kwargs):
            self.live[id(text)] = span.root.rid

        def await_result(span, future, server, text, *args, **kwargs):
            return self._wrap_future(future, text)

        def link(span, owner, texts):
            rids = {self.live.get(id(t)) for t in texts}
            span.links = tuple(rid for rid in rids if rid)

        def mark_served(span, result, owner, texts):
            for text in texts:
                if id(text) in self.live:
                    self.served[id(text)] = span
            return result

        def batch_size(owner, texts, **kwargs):
            return _count(texts)

        patch = self._patch
        patch(ServingClient, "predict", CLIENT_SPANS[0], docs=_one, before=client_rid)
        patch(
            ServingClient,
            "predict_batch",
            CLIENT_SPANS[1],
            docs=batch_size,
            before=client_rid,
        )
        patch(gateway._GatewayRequestHandler, "do_POST", HANDLER_SPAN)
        for parser in ("parse_predict_request", "parse_predict_batch_request"):
            patch(gateway, parser, "serving.protocol.parse", after=learn_rid)
        patch(gateway, "format_prediction", "serving.protocol.format", docs=_one)
        patch(ModelFleet, "route", "serving.fleet.route")
        patch(
            BatchingServerBase,
            "submit",
            "engine.server.submit",
            docs=_one,
            before=admit,
            after=await_result,
        )
        patch(BatchingServerBase, "predict", "engine.server.predict", docs=batch_size)
        patch(
            engine.PredictionEngine,
            "predict_proba",
            ENGINE_SPAN,
            docs=batch_size,
            before=link,
            after=mark_served,
        )
        patch(engine.TraditionalBackend, "proba_batch", "engine.engine.backend")
        patch(engine.TransformerBackend, "proba_rows", "engine.engine.backend")
        for method in ("transform", "fit_transform"):
            patch(TfidfVectorizer, method, f"text.tfidf.{method}", docs=batch_size)
        for cls, layer, methods in (
            (LogisticRegression, "ml.logistic", ("predict", "predict_proba")),
            (LinearSVM, "ml.svm", ("predict",)),
            (GaussianNaiveBayes, "ml.naive_bayes", ("predict",)),
        ):
            patch(cls, "fit", f"{layer}.fit")
            for method in methods:
                patch(cls, method, f"{layer}.{method}", docs=_rows)
        model = TransformerClassifier
        patch(model, "encode_ids", "models.classifier.encode", docs=_one)
        patch(model, "forward", "models.classifier.forward", docs=_rows)
        patch(Trainer, "fit", "models.trainer.fit")
        patch(table4, "run_table4", "experiments.table4.run")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_future(self, future, text: str):
        """Time the caller's wait on ``future`` and pair it with its batch."""
        tracer = self
        wait = future.result

        def result(timeout=None):
            span = tracer.open("engine.server.wait")
            try:
                answer = wait(timeout)
            finally:
                tracer.close(span)
            tracer.live.pop(id(text), None)
            engine_span = tracer.served.pop(id(text), None)
            sample = (span.root.rid, answer.latency_ms, engine_span)
            tracer.doc_samples.append(sample)
            return answer

        future.result = result
        return future

    def dump(self, path) -> None:
        """Write every span, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_dict()) + "\n")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def spans_by_request(spans: Iterable[Span]) -> dict[str, list[Span]]:
    """Every span that worked for each request id.

    Client and handler spans belong to their root's request; an engine
    span and all spans beneath it belong to every request it links to.
    """
    by_rid: dict[str, list[Span]] = defaultdict(list)
    engine_trees: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        root = span.root
        if root.name == ENGINE_SPAN:
            engine_trees[id(root)].append(span)
        elif root.rid is not None:
            by_rid[root.rid].append(span)
    for tree in engine_trees.values():
        for rid in tree[0].root.links:
            by_rid[rid].extend(tree)
    return by_rid


def global_depth(span: Span) -> int:
    return _THREAD_DEPTH.get(span.root.name, 0) + span.depth


def attribute(spans: Iterable[Span], start: float, end: float) -> dict[str, float]:
    """Seconds of ``[start, end]`` owned by each layer, plus unattributed.

    Deeper spans paint over shallower ones, so each instant belongs to
    exactly one layer and the values sum to ``end - start``.
    """
    clipped = sorted(
        (global_depth(s), max(s.start, start), min(s.end, end), layer_of(s.name))
        for s in spans
        if s.end > start and s.start < end
    )
    points = sorted({start, end}.union(*((a, b) for _, a, b, _ in clipped)))
    owner = [UNATTRIBUTED] * (len(points) - 1)
    for _, a, b, layer in clipped:
        lo = bisect.bisect_left(points, a)
        hi = bisect.bisect_left(points, b)
        owner[lo:hi] = [layer] * (hi - lo)
    totals: dict[str, float] = defaultdict(float)
    for i, layer in enumerate(owner):
        totals[layer] += points[i + 1] - points[i]
    return dict(totals)


def children_time(
    span: Span, candidates: Iterable[Span], names: tuple[str, ...]
) -> float:
    """Total duration of the direct children of ``span`` named in ``names``."""
    return sum(s.duration for s in candidates if s.parent is span and s.name in names)


def total_time(spans: Iterable[Span], name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def time_per_doc(
    spans: Iterable[Span], names: tuple[str, ...], scale: float
) -> float:
    """Summed duration of the named spans per document they handled."""
    picked = [s for s in spans if s.name in names]
    docs = sum(s.docs for s in picked)
    return sum(s.duration for s in picked) * scale / docs if docs else 0.0
