import numpy as np
import pytest

from qemine.augment import AugmentConfig, augment_filtration
from qemine.errors import NotFittedError
from qemine.estimators import ContrastiveFilter, FeatureStackScorer, MultitaskScorer
from qemine.model import save_feature_model
from qemine.synth import SynthConfig, generate_parallel, generate_qe
from qemine.training import TrainConfig, align_encoders

from oracles import forward_heads

SMALL = dict(n_features=256, hidden_units=8, embedding_dim=6, ngram_orders=(1, 2, 3))


def _records(seed=0, count=60):
    return generate_qe(SynthConfig(vocab_size=30, corruption_rate=0.4, seed=seed), count)


class TestParamProtocol:
    def test_get_params_mirrors_constructor(self):
        scorer = MultitaskScorer(epochs=5, seed=9, **SMALL)
        params = scorer.get_params()
        assert params["epochs"] == 5
        assert params["seed"] == 9
        assert params["n_features"] == 256
        assert "encoder_" not in params

    def test_set_params_roundtrip(self):
        scorer = MultitaskScorer(**SMALL)
        scorer.set_params(epochs=7, learning_rate=0.5)
        assert scorer.epochs == 7
        assert scorer.learning_rate == 0.5

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="bogus"):
            ContrastiveFilter().set_params(bogus=1)

    def test_clone_by_params_reproduces_fit(self):
        records = _records(1)
        first = MultitaskScorer(tasks=("qe",), epochs=1, seed=3, **SMALL).fit(records)
        clone = MultitaskScorer(**first.get_params()).fit(records)
        pairs = [(r.source, r.target) for r in records[:10]]
        assert np.array_equal(first.predict(pairs), clone.predict(pairs))


class TestMultitaskScorer:
    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            MultitaskScorer(**SMALL).predict([("a", "b")])

    def test_predict_matches_single_pair_forward(self):
        records = _records(2)
        scorer = MultitaskScorer(tasks=("qe",), epochs=1, seed=4, **SMALL).fit(records)
        pairs = [(r.source, r.target) for r in records[:8]]
        batch = scorer.predict(pairs)
        for k, pair in enumerate(pairs):
            single = forward_heads(scorer.encoder_, scorer.heads_, pair, "qe")
            # float32 arithmetic against the float64 oracle
            assert batch[k] == pytest.approx(single, abs=1e-6)

    def test_score_matrix_matches_score_pairs(self):
        records = _records(3)
        scorer = MultitaskScorer(tasks=("qe",), epochs=1, seed=5, **SMALL).fit(records)
        refs = [r.source for r in records[:6]]
        hyps = [r.target for r in records[:7]]
        matrix = scorer.score_matrix(refs, hyps)
        assert matrix.shape == (6, 7)
        for i in range(6):
            row = scorer.score_pairs([refs[i]] * 7, hyps)
            assert np.allclose(matrix[i], row, atol=1e-12)

    def test_predictions_lie_in_unit_interval(self):
        records = _records(4)
        scorer = MultitaskScorer(tasks=("qe",), epochs=1, seed=6, **SMALL).fit(records)
        preds = scorer.predict([(r.source, r.target) for r in records])
        assert np.all(preds > 0) and np.all(preds < 1)
        probs = scorer.predict_nli([(r.source, r.target) for r in records[:5]])
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_save_load_preserves_predictions(self, tmp_path):
        records = _records(5)
        scorer = MultitaskScorer(tasks=("qe",), epochs=1, seed=7, **SMALL).fit(records)
        path = tmp_path / "scorer.qem"
        scorer.save(path)
        loaded = MultitaskScorer.load(path)
        pairs = [(r.source, r.target) for r in records[:10]]
        assert np.array_equal(scorer.predict(pairs), loaded.predict(pairs))
        assert loaded.get_params()["n_features"] == 256

    def test_save_load_preserves_every_head(self, tmp_path):
        records = _records(14)
        scorer = MultitaskScorer(epochs=1, seed=10, **SMALL).fit(
            records, sts=[(r.source, r.target, r.score) for r in records[:20]],
            nli=[(r.source, r.target, k % 3) for k, r in enumerate(records[:20])])
        scorer.save(tmp_path / "scorer.qem")
        loaded = MultitaskScorer.load(tmp_path / "scorer.qem")
        pairs = [(r.source, r.target) for r in records[:10]]
        for method in ("predict", "predict_sts", "predict_nli"):
            assert np.array_equal(getattr(scorer, method)(pairs), getattr(loaded, method)(pairs))
        texts = [r.source for r in records[:5]]
        assert np.array_equal(scorer.score_matrix(texts, texts), loaded.score_matrix(texts, texts))

    def test_reassigned_model_after_predict_matches_fresh_scorer(self):
        records = _records(13)
        scorer = MultitaskScorer(tasks=("qe",), epochs=1, seed=8, **SMALL).fit(records)
        pairs = [(r.source, r.target) for r in records[:10]]
        before = scorer.predict(pairs)
        parallel = generate_parallel(SynthConfig(vocab_size=30, seed=13), 40)
        scorer.encoder_ = align_encoders(scorer.encoder_, parallel, TrainConfig(epochs=1))[0]
        fresh = MultitaskScorer(**SMALL)
        fresh.encoder_, fresh.heads_ = scorer.encoder_, scorer.heads_
        aligned = scorer.predict(pairs)
        assert not np.array_equal(aligned, before)
        assert np.array_equal(aligned, fresh.predict(pairs))
        scorer.heads_ = MultitaskScorer(tasks=("qe",), epochs=1, seed=9, **SMALL).fit(records).heads_
        fresh = MultitaskScorer(**SMALL)
        fresh.encoder_, fresh.heads_ = scorer.encoder_, scorer.heads_
        assert not np.array_equal(scorer.predict(pairs), aligned)
        assert np.array_equal(scorer.predict(pairs), fresh.predict(pairs))


class TestContrastiveFilter:
    def _fitted(self, seed=8):
        records = _records(seed, 80)
        data = augment_filtration(records, AugmentConfig(3, 0.7, seed))
        encoder = ContrastiveFilter(epochs=2, seed=seed, **SMALL)
        return encoder.fit(data.positives, data.negatives), records

    def test_embed_shape(self):
        encoder, records = self._fitted()
        emb = encoder.embed([r.source for r in records[:12]])
        assert emb.shape == (12, 6)
        assert np.all(np.isfinite(emb))

    def test_embed_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            ContrastiveFilter(**SMALL).embed(["x"])

    def test_save_load_bitwise_embeddings(self, tmp_path):
        encoder, records = self._fitted(seed=9)
        path = tmp_path / "filter.qem"
        encoder.save(path)
        loaded = ContrastiveFilter.load(path)
        texts = [r.source for r in records[:9]]
        assert np.array_equal(encoder.embed(texts), loaded.embed(texts))

    def test_reassigned_encoder_after_embed_matches_fresh_filter(self):
        encoder, records = self._fitted(seed=11)
        texts = [r.source for r in records[:9]]
        before = encoder.embed(texts)
        encoder.encoder_ = self._fitted(seed=12)[0].encoder_
        fresh = ContrastiveFilter(**SMALL)
        fresh.encoder_ = encoder.encoder_
        assert not np.array_equal(encoder.embed(texts), before)
        assert np.array_equal(encoder.embed(texts), fresh.embed(texts))

    def test_pair_cosines_bounded(self):
        encoder, records = self._fitted(seed=10)
        cos = encoder.pair_cosines(
            [r.source for r in records[:15]], [r.target for r in records[:15]]
        )
        assert np.all(cos >= -1.0) and np.all(cos <= 1.0)


class TestFeatureStackScorer:
    def test_requires_backbones(self):
        with pytest.raises(Exception):
            FeatureStackScorer().fit(_records(11))

    def test_fit_predict_flow(self):
        records = _records(12, 80)
        backbones = [
            MultitaskScorer(tasks=("qe",), epochs=1, seed=s, **SMALL).fit(records).encoder_
            for s in (1, 2, 3)
        ]
        stack = FeatureStackScorer(*backbones, epochs=2, seed=4).fit(records)
        preds = stack.predict([(r.source, r.target) for r in records[:10]])
        assert preds.shape == (10,)
        assert np.all((preds > 0) & (preds < 1))

    def test_save_load_preserves_predictions(self, tmp_path):
        records = _records(15, 60)
        backbones = [
            MultitaskScorer(tasks=("qe",), epochs=1, seed=s, **SMALL).fit(records).encoder_
            for s in (5, 6, 7)
        ]
        stack = FeatureStackScorer(*backbones, hidden_units=7, epochs=2, seed=8).fit(records)
        save_feature_model(stack.model_, tmp_path / "stack.qef")
        loaded = FeatureStackScorer.load(tmp_path / "stack.qef")
        assert loaded.get_params()["hidden_units"] == 7
        pairs = [(r.source, r.target) for r in records[:10]]
        assert np.array_equal(stack.predict(pairs), loaded.predict(pairs))
