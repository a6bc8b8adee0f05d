"""Tests for the engine subsystem: registry, PredictionEngine, persistence, server."""

import numpy as np
import pytest

from repro.core.labels import DIMENSIONS
from repro.core.pipeline import (
    TRADITIONAL_BASELINES,
    TRANSFORMER_BASELINES,
    WellnessClassifier,
)
from repro.engine.engine import (
    PredictionEngine,
    bump_weights_version,
    softmax_rows,
    weights_version,
)
from repro.engine.registry import (
    BaselineSpec,
    available_baselines,
    create_traditional_model,
    get_spec,
    register,
    traditional_baselines,
    transformer_baselines,
    transformer_class,
)
from repro.engine.server import InferenceServer
from repro.models.classifier import TransformerClassifier


@pytest.fixture(scope="module")
def fitted_lr(small_dataset):
    return WellnessClassifier("LR").fit(small_dataset)


@pytest.fixture(scope="module")
def fitted_transformer(small_dataset):
    return WellnessClassifier("DistilBERT", fast=True).fit(small_dataset)


class TestRegistry:
    def test_all_nine_baselines_resolvable(self):
        names = available_baselines()
        assert set(names) == {
            "LR", "Linear SVM", "Gaussian NB",
            "BERT", "DistilBERT", "MentalBERT", "Flan-T5", "XLNet", "GPT-2.0",
        }
        for name in names:
            spec = get_spec(name)
            assert spec.name == name
            assert spec.kind in ("traditional", "transformer")

    def test_partition_matches_pipeline_constants(self):
        assert traditional_baselines() == TRADITIONAL_BASELINES
        assert transformer_baselines() == TRANSFORMER_BASELINES
        assert len(traditional_baselines()) == 3
        assert len(transformer_baselines()) == 6

    def test_traditional_factories_produce_fittable_models(self):
        for name in traditional_baselines():
            model = create_traditional_model(name, seed=3)
            assert hasattr(model, "fit") and hasattr(model, "predict")

    def test_transformer_specs_carry_paper_configs(self):
        from repro.models.config import MODEL_CONFIGS

        for name in transformer_baselines():
            assert get_spec(name).config == MODEL_CONFIGS[name]

    def test_transformer_classes_retain_public_names(self):
        expected = {
            "BERT": "BertClassifier",
            "DistilBERT": "DistilBertClassifier",
            "MentalBERT": "MentalBertClassifier",
            "Flan-T5": "FlanT5Classifier",
            "XLNet": "XLNetClassifier",
            "GPT-2.0": "Gpt2Classifier",
        }
        for name, class_name in expected.items():
            cls = transformer_class(name)
            assert cls.__name__ == class_name
            assert issubclass(cls, TransformerClassifier)
            assert cls.BASELINE == name

    def test_wrapper_modules_reexport_registry_classes(self):
        import repro.models as models

        assert models.BertClassifier is transformer_class("BERT")
        assert models.Gpt2Classifier is transformer_class("GPT-2.0")

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            get_spec("RoBERTa")
        with pytest.raises(ValueError):
            WellnessClassifier("RoBERTa")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(
                BaselineSpec(
                    name="LR",
                    kind="traditional",
                    description="dup",
                    factory=lambda seed: None,
                )
            )

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            create_traditional_model("BERT")
        with pytest.raises(ValueError):
            transformer_class("LR")


class TestPredictionCache:
    def test_repeated_texts_hit_cache(self, fitted_lr, small_dataset):
        engine = fitted_lr.engine
        engine.invalidate()
        start_hits = engine.stats.cache_hits
        start_misses = engine.stats.cache_misses
        texts = small_dataset.texts[:8]
        first = engine.predict_proba(texts)
        assert engine.stats.cache_misses == start_misses + 8
        second = engine.predict_proba(texts)
        assert engine.stats.cache_hits == start_hits + 8
        np.testing.assert_array_equal(first, second)

    def test_duplicates_within_one_call_computed_once(self, fitted_lr):
        engine = fitted_lr.engine
        engine.invalidate()
        misses_before = engine.stats.cache_misses
        probs = engine.predict_proba(["i feel alone"] * 5)
        assert engine.stats.cache_misses == misses_before + 1
        assert probs.shape == (5, 6)
        assert np.ptp(probs, axis=0).max() == 0.0  # identical rows

    def test_invalidate_clears_cache(self, fitted_lr):
        engine = fitted_lr.engine
        engine.predict_proba(["some text"])
        assert len(engine) > 0
        engine.invalidate()
        assert len(engine) == 0

    def test_lru_eviction_respects_capacity(self, fitted_lr):
        engine = PredictionEngine(
            fitted_lr.engine.backend, model_id="tiny", cache_size=2
        )
        engine.predict_proba(["a", "b", "c"])
        assert len(engine) == 2

    def test_replicate_shares_backend_with_private_cache(self, fitted_lr):
        engine = fitted_lr.engine
        replica = engine.replicate()
        assert replica.backend is engine.backend
        assert replica.model_id == engine.model_id
        replica.predict_proba(["replica only"])
        assert len(replica) == 1
        # The template engine's cache and stats are untouched.
        assert ("replica only" not in {k[-1] for k in engine._cache})

    def test_trainer_cache_invalidated_between_epochs(self, small_dataset):
        # Validation accuracy is computed via the engine after each epoch;
        # a stale cache would freeze it at the epoch-1 value.
        clf = WellnessClassifier("DistilBERT", fast=True)
        clf.fit(small_dataset, validation=small_dataset)
        trainer = clf._trainer
        assert trainer.result.val_accuracies  # engine served mid-training


class TestVersionedCache:
    """Weight changes must auto-invalidate cached predictions.

    Regression tests for the stale-cache-after-reload bug: the cache
    used to key on ``(model_id, text)`` only, so restoring a checkpoint
    into (or re-fitting) a model an engine already wrapped kept serving
    probabilities computed with the old weights.
    """

    def test_weights_version_helpers(self):
        class Anything:
            pass

        model = Anything()
        assert weights_version(model) == 0
        assert bump_weights_version(model) == 1
        assert bump_weights_version(model) == 2
        assert weights_version(model) == 2

    def test_transformer_load_state_dict_invalidates_cache(
        self, fitted_transformer, small_dataset
    ):
        model = fitted_transformer._model
        engine = PredictionEngine.for_transformer(model, model_id="versioned")
        text = small_dataset.texts[0]
        original_state = model.state_dict()
        try:
            before = engine.predict_proba([text]).copy()
            assert engine.stats.cache_misses == 1
            perturbed = dict(original_state)
            bias = original_state["classifier.bias"].copy()
            bias[0] += 3.0  # asymmetric: softmax is shift-invariant
            perturbed["classifier.bias"] = bias
            model.load_state_dict(perturbed)
            after = engine.predict_proba([text])
            # Pre-fix this was a cache hit returning `before` verbatim.
            assert engine.stats.cache_misses == 2
            assert not np.allclose(before, after)
        finally:
            model.load_state_dict(original_state)

    def test_traditional_restore_array_state_invalidates_cache(
        self, fitted_lr, small_dataset
    ):
        from repro.nn.serialization import collect_array_state, restore_array_state

        model = fitted_lr._model
        engine = PredictionEngine.for_traditional(
            fitted_lr._vectorizer, model, model_id="versioned-lr"
        )
        text = small_dataset.texts[0]
        original_state = collect_array_state(model)
        try:
            before = engine.predict_proba([text]).copy()
            perturbed = dict(original_state)
            intercept = np.array(original_state["intercept_"], dtype=np.float64)
            intercept[0] += 5.0  # asymmetric: softmax is shift-invariant
            perturbed["intercept_"] = intercept
            restore_array_state(model, perturbed)
            after = engine.predict_proba([text])
            assert engine.stats.cache_misses == 2
            assert not np.allclose(before, after)
        finally:
            restore_array_state(model, original_state)

    def test_classifier_fit_and_load_bump_version(self, small_dataset, tmp_path):
        clf = WellnessClassifier("LR").fit(small_dataset)
        assert weights_version(clf._model) >= 1
        clf.save(tmp_path / "ckpt")
        restored = WellnessClassifier.load(tmp_path / "ckpt")
        assert weights_version(restored._model) >= 1

    def test_version_bump_without_invalidate_recomputes(self, fitted_lr):
        engine = fitted_lr.engine.replicate()
        probs = engine.predict_proba(["same text"])
        bump_weights_version(fitted_lr._model)
        again = engine.predict_proba(["same text"])
        # Same weights in practice, but the bump must force a recompute.
        assert engine.stats.cache_misses == 2
        np.testing.assert_allclose(probs, again)


class TestBatchedInference:
    def test_bucketed_matches_old_per_path_code(self, fitted_transformer, small_dataset):
        """Length-bucketed engine inference == direct encode_batch path."""
        mixed = small_dataset.texts[:30] + [
            "short",
            "a deliberately much longer narrative with many words so the "
            "length buckets are exercised end to end today",
        ]
        engine = fitted_transformer.engine
        engine.invalidate()
        engine_labels = engine.predict(mixed)
        old_ids = fitted_transformer._model.predict(mixed)
        assert engine_labels == [DIMENSIONS[int(i)] for i in old_ids]

    def test_small_batch_size_still_correct(self, fitted_transformer, small_dataset):
        texts = small_dataset.texts[:12]
        reference = fitted_transformer.predict(texts)
        engine = PredictionEngine.for_transformer(
            fitted_transformer._model, model_id="small-batches", batch_size=4
        )
        assert engine.predict(texts) == reference
        assert engine.stats.batches == 3

    def test_padding_accounting(self, fitted_transformer):
        engine = PredictionEngine.for_transformer(
            fitted_transformer._model, model_id="padding", batch_size=2
        )
        engine.predict_proba(
            ["one", "two words here", "now a considerably longer sentence "
             "with very many more words than the others"]
        )
        assert engine.stats.padded_tokens <= engine.stats.padded_tokens_naive

    def test_softmax_rows_normalised(self):
        probs = softmax_rows(np.array([[1.0, 2.0, 3.0], [100.0, 100.0, 100.0]]))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)


class TestPersistenceRoundTrip:
    @pytest.mark.parametrize("baseline", ["LR", "Gaussian NB", "Linear SVM"])
    def test_traditional_round_trip(self, small_dataset, tmp_path, baseline):
        clf = WellnessClassifier(baseline).fit(small_dataset)
        texts = small_dataset.texts[:20]
        expected = clf.predict(texts)
        expected_probs = clf.predict_proba(texts)
        clf.save(tmp_path / "ckpt")
        restored = WellnessClassifier.load(tmp_path / "ckpt")
        assert restored.baseline == baseline
        assert restored.predict(texts) == expected
        np.testing.assert_allclose(
            restored.predict_proba(texts), expected_probs, rtol=1e-10
        )

    def test_transformer_round_trip(self, fitted_transformer, small_dataset, tmp_path):
        clf = fitted_transformer
        texts = small_dataset.texts[:20]
        expected = clf.predict(texts)
        clf.save(tmp_path / "ckpt")
        restored = WellnessClassifier.load(tmp_path / "ckpt")
        assert restored.is_transformer
        assert restored.predict(texts) == expected
        np.testing.assert_allclose(
            restored.predict_proba(texts), clf.predict_proba(texts), atol=1e-6
        )

    def test_checkpoint_layout(self, fitted_lr, tmp_path):
        target = fitted_lr.save(tmp_path / "ckpt")
        assert (target / "weights.npz").is_file()
        assert (target / "config.json").is_file()

    def test_unfitted_save_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            WellnessClassifier("LR").save(tmp_path / "nope")

    def test_load_rejects_non_checkpoint(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            WellnessClassifier.load(tmp_path / "missing")

    def test_unfitted_predict_rejected(self):
        with pytest.raises(RuntimeError, match="fitted"):
            WellnessClassifier("LR").predict(["hello"])


class TestInferenceServer:
    def test_serves_same_labels_as_direct_predict(self, fitted_lr, small_dataset):
        texts = small_dataset.texts[:40]
        direct = fitted_lr.predict(texts)
        server = InferenceServer(fitted_lr.engine, max_batch_size=8)
        with server:
            results = server.predict(texts)
        assert [r.label for r in results] == direct
        snap = server.stats.snapshot()
        assert snap.requests == len(texts)
        assert 1 <= snap.batches <= len(texts)
        assert snap.mean_latency_ms >= 0.0

    def test_submit_requires_running_server(self, fitted_lr):
        server = InferenceServer(fitted_lr.engine)
        with pytest.raises(RuntimeError):
            server.submit("hello")

    def test_stop_drains_pending_requests(self, fitted_lr):
        server = InferenceServer(fitted_lr.engine, max_batch_size=4)
        server.start()
        futures = [server.submit(f"text number {i}") for i in range(10)]
        server.stop()
        for future in futures:
            assert future.result(timeout=5).label in DIMENSIONS

    def test_concurrent_transformer_serving_preserves_grad_mode(
        self, fitted_transformer, small_dataset
    ):
        # no_grad() toggles a process-global flag; unserialised worker
        # threads interleaving enter/exit could strand it False (training
        # would silently stop learning) or build tape mid-inference.
        # TransformerBackend serialises forwards to keep this invariant.
        from repro.nn.tensor import is_grad_enabled

        texts = small_dataset.texts[:24]
        direct = fitted_transformer.predict(texts)
        server = InferenceServer(
            fitted_transformer.engine, workers=3, max_batch_size=4
        )
        with server:
            results = server.predict(texts, timeout=60)
        assert [r.label for r in results] == direct
        assert is_grad_enabled()
        assert fitted_transformer._model.training  # eval/train restored

    def test_multi_worker_replicas_match_direct_predict(
        self, fitted_lr, small_dataset
    ):
        texts = small_dataset.texts[:40]
        direct = fitted_lr.predict(texts)
        server = InferenceServer(fitted_lr.engine, workers=4, max_batch_size=8)
        with server:
            results = server.predict(texts)
        assert [r.label for r in results] == direct
        snap = server.stats.snapshot()
        assert snap.requests == len(texts)
        assert sum(snap.per_worker_requests) == len(texts)
        assert server.engine_stats().requests == len(texts)
