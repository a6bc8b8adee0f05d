"""Smoke tests: every example script runs end to end.

Examples are the documentation users actually execute, so they are run
as subprocesses (fresh interpreter, no test-suite state) and checked for
a zero exit code plus their key output lines.
"""

import pathlib
import subprocess
import sys


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples"


def _run(script: str, *args: str, timeout: int = 600) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = _run("quickstart.py")
        assert "test accuracy" in out
        assert "Classifying new narratives" in out
        assert "top keywords" in out

    def test_build_dataset(self, tmp_path):
        out = _run("build_dataset.py", str(tmp_path / "holistix.jsonl"))
        assert "raw posts                2000" in out
        assert "after topic filter       1420" in out
        assert "Fleiss' kappa" in out
        assert "reload check passed" in out

    def test_model_comparison_fast(self):
        out = _run("model_comparison.py", "--fast")
        assert "Gaussian NB" in out
        assert "MentalBERT" in out

    def test_explain_predictions(self):
        out = _run("explain_predictions.py")
        assert "keywords" in out
        assert "Table V metrics" in out

    def test_wellness_profiles(self):
        out = _run("wellness_profiles.py")
        assert "acute-risk" in out
        assert "FLAGGED" in out
        assert "steady-worker" in out

    def test_multilabel_and_spans(self):
        out = _run("multilabel_and_spans.py")
        assert "micro F1" in out
        assert "ROUGE-1" in out
        assert "most central dimension" in out

    def test_serve_and_persist(self):
        out = _run("serve_and_persist.py")
        assert "Reloaded model predictions identical: True" in out
        assert "throughput" in out
        assert "per-worker requests" in out
        assert "replica caches" in out
        assert "shed rate" in out
        assert "/healthz -> {'status': 'ok'" in out
        assert "POST /v1/predict top_k=2 ->" in out
        assert 'holistix_requests_total{model="default"}' in out
        assert "gateway drained and stopped" in out
        assert "answered 429" in out
