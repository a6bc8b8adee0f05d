"""The benchmark's own tests: its statistics, its output checks, its tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q

They are not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from repro.experiments.table4 import BaselineScores, Table4Result  # noqa: E402


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_percentile_is_exact_on_raw_samples():
    values = [5.03, 4.346, 7.0, 1.0, 3.25]
    assert measure.median(values) == statistics.median(values)
    assert measure.percentile(values, 0) == 1.0
    assert measure.percentile(values, 100) == 7.0
    assert measure.percentile(values, 25) == 3.25
    # Linear interpolation between the two closest ranks, no bucketing.
    assert measure.percentile([1.0, 2.0], 50) == 1.5
    assert measure.beyond([float(i) for i in range(1001)], 99.0) == 10


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def test_count_wrong_counts_differing_labels():
    assert measure.count_wrong(["EA", "SA", "PA"], ["EA", "SA", "PA"]) == 0
    assert measure.count_wrong(["EA", "SA", "PA"], ["EA", "VA", "PA"]) == 1
    with pytest.raises(ValueError):
        measure.count_wrong(["EA"], ["EA", "SA"])


def test_accuracy_mismatch_is_reported():
    expected = workloads.CV_EXPECTED_ACCURACY
    assert measure.accuracy_mismatches(dict(expected), expected) == []
    off = dict(expected, LR=expected["LR"] + 1e-9)
    problems = measure.accuracy_mismatches(off, expected)
    assert len(problems) == 1 and problems[0].startswith("LR:")
    missing = {k: v for k, v in expected.items() if k != "Gaussian NB"}
    assert measure.accuracy_mismatches(missing, expected)


def test_result_line_shape():
    line = measure.result_line(
        correct=False, attempted=3, failed=1, metrics={"p50_ms": (1.5, "ms")}
    )
    assert json.loads(line) == {
        "correct": False,
        "attempted": 3,
        "failed": 1,
        "metrics": {"p50_ms": {"value": 1.5, "unit": "ms"}},
    }


def test_wrong_label_from_the_server_is_rejected(tmp_path):
    """A served label that differs from the oracle fails the run."""
    workload = workloads.LrOnline(seed=3, work_dir=tmp_path)
    workload.setup()
    try:
        workload.prepare()
        # Corrupt the oracle for the first pool text, which the first
        # open-loop request sends, so the correct server answer differs.
        codes = sorted({*workload.expected, "EA", "SA", "PA"})
        workload.expected[0] = next(c for c in codes if c != workload.expected[0])
        calls, dropped = workload.serve_phase(0.3, "check", 0)
    finally:
        workload.close()
    outcome = workloads.online_outcome(calls, dropped, {}, [])
    assert outcome.failed >= 1
    assert any("oracle" in problem for problem in outcome.problems)


def test_wrong_accuracy_from_run_table4_is_rejected(monkeypatch):
    """A fold-averaged accuracy off the expected value fails the run."""

    def fake_run_table4(dataset, **kwargs):
        scores = {
            name: BaselineScores(name=name, per_class={}, accuracy=acc)
            for name, acc in workloads.CV_EXPECTED_ACCURACY.items()
        }
        scores["Linear SVM"].accuracy = 0.6
        return Table4Result(scores=scores, protocol_name="full", n_folds=10)

    monkeypatch.setattr(workloads.table4, "run_table4", fake_run_table4)
    workload = workloads.CvFit(seed=1, work_dir=Path("."))
    _, problems = workload.one_pass()
    expected = workloads.CV_EXPECTED_ACCURACY["Linear SVM"]
    assert problems == [f"Linear SVM: accuracy 0.6, expected {expected!r}"]


def test_failed_check_sets_exit_code_and_correct_false(capsys):
    metrics = {
        name: workloads.Metric(1.0, unit, 1)
        for name, (unit, _) in workloads.END_TO_END.items()
    }
    problems = ["1 answers differ from the in-process oracle"]
    outcome = workloads.Outcome(10, 1, problems, metrics)
    args = run.parse_args(["--workload", "lr_online"])
    assert run.report(args, outcome, workloads) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def _span(name, start, end, parent=None, rid=None):
    span = tracing.Span(name, parent)
    span.start, span.end = start, end
    if rid is not None:
        span.rid = rid
    return span


def test_attribution_sums_to_the_round_trip():
    client = _span("serving.client.predict", 0.0, 10.0, rid="r")
    handler = _span(tracing.HANDLER_SPAN, 1.0, 9.0, rid="r")
    parse = _span("serving.protocol.parse", 1.5, 2.0, parent=handler)
    wait = _span("engine.server.wait", 3.0, 8.0, parent=handler)
    engine = _span(tracing.ENGINE_SPAN, 4.0, 6.0)
    engine.links = ("r",)
    model = _span("ml.logistic.predict_proba", 4.5, 5.5, parent=engine)
    spans = [client, handler, parse, wait, engine, model]
    by_rid = tracing.spans_by_request(spans)
    assert {id(s) for s in by_rid["r"]} == {id(s) for s in spans}
    owned = tracing.attribute(by_rid["r"], -1.0, 10.0)
    assert owned == {
        "unattributed": 1.0,
        "serving.client": 2.0,
        "serving.gateway": 2.5,
        "serving.protocol": 0.5,
        "engine.server": 3.0,
        "engine.engine": 1.0,
        "ml.logistic": 1.0,
    }
    assert sum(owned.values()) == pytest.approx(11.0)


def test_tracer_install_restores_the_program():
    from repro.engine.engine import PredictionEngine
    from repro.serving import gateway

    original_predict = PredictionEngine.predict_proba
    original_parse = gateway.parse_predict_request
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert PredictionEngine.predict_proba is not original_predict
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert PredictionEngine.predict_proba is original_predict
    assert gateway.parse_predict_request is original_parse


# ----------------------------------------------------------------------
# The benchmark's description and entry point
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == (
        workloads.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        workloads.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    started = time.monotonic()
    command = [sys.executable, "perfbench/run.py", "--workload", "lr_online"]
    command += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert time.monotonic() - started < 60
