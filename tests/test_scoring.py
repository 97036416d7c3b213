"""The embed + score_embeddings scoring path against the text-pair oracle.

Scores must be bitwise equal to the oracle, which featurizes and embeds
every text of every pair, and each distinct text must be featurized
only once per model.
"""

import numpy as np
import pytest

import qemine.estimators
import qemine.mining
from qemine import backprop
from qemine.corpus import BuccCorpus
from qemine.estimators import ContrastiveFilter, FeatureStackScorer, MultitaskScorer
from qemine.features import FeaturizerConfig
from qemine.mining import MiningConfig, mine_bucc, score_matrix
from qemine.model import EncoderConfig, FeatureStackModel
from qemine.synth import SynthConfig, generate_bucc, generate_qe

from oracles import text_pair_mine_bucc, text_pair_score_matrix, text_pair_scores


def _random_params(seed, n_features=256, hidden=8, dim=6):
    rng = np.random.default_rng(seed)
    encoder = EncoderConfig(FeaturizerConfig((1, 2, 3), n_features, seed), hidden, dim)
    params = backprop.init_params(encoder, rng)
    for name in ("qe_w", "qe_b", "sts_w", "sts_b", "nli_w"):
        params[name] = rng.normal(0.0, 0.5, size=params[name].shape)
    return params, encoder.featurizer


def _multitask(seed=0, **sizes):
    params, featurizer = _random_params(seed, **sizes)
    scorer = MultitaskScorer()
    scorer.encoder_ = backprop.model_from_params(params, featurizer)
    scorer.heads_ = backprop.heads_from_params(params)
    return scorer


def _filter(seed=10, **sizes):
    params, featurizer = _random_params(seed, **sizes)
    encoder = ContrastiveFilter()
    encoder.encoder_ = backprop.model_from_params(params, featurizer)
    return encoder


def _feature_stack(seed=20, hidden_units=5):
    backbones = [
        backprop.model_from_params(*_random_params(seed + k, 128 << k, 6 + k, 4 + k))
        for k in range(3)
    ]
    width = sum(2 * b.embedding_dim + 1 for b in backbones)
    rng = np.random.default_rng(seed)
    stack = FeatureStackScorer(*backbones)
    stack.model_ = FeatureStackModel(
        *backbones,
        rng.normal(0.0, 0.5, (hidden_units, width)), rng.normal(0.0, 0.5, hidden_units),
        rng.normal(0.0, 1.0, hidden_units), rng.normal(0.0, 0.5, 1),
    )
    return stack


def _pairs():
    """Pairs with repeated sentences, an empty text and a sentence on both sides."""
    records = generate_qe(SynthConfig(vocab_size=30, corruption_rate=0.4, seed=1), 12)
    pairs = [(r.source, r.target) for r in records]
    pairs += [pairs[0], (pairs[1][0], pairs[2][1]), ("", pairs[3][1]), (pairs[4][0], ""),
              ("", ""), (pairs[5][1], pairs[5][1]), pairs[0]]
    return pairs


def _corpus():
    """A synthetic mining corpus plus repeated sentences and an empty one on each side."""
    base = generate_bucc(SynthConfig(vocab_size=30, corruption_rate=0.3, seed=2), 20, 8)
    side_a = dict(base.side_a)
    side_b = dict(base.side_b)
    first_a, first_b = next(iter(side_a.values())), next(iter(side_b.values()))
    side_a.update({"a-dup": first_a, "a-dup2": first_a, "a-empty": ""})
    side_b.update({"b-dup": first_b, "b-empty": ""})
    return BuccCorpus(side_a, side_b, base.gold)


SCORERS = {"multitask": _multitask, "feature-stack": _feature_stack}


@pytest.fixture(params=sorted(SCORERS))
def scorer(request):
    return SCORERS[request.param]()


class TestBitwiseAgainstTextPairs:
    def test_predict(self, scorer):
        pairs = _pairs()
        expected = text_pair_scores(scorer, [a for a, _ in pairs], [b for _, b in pairs])
        assert np.array_equal(scorer.predict(pairs), expected)

    def test_predict_sts_and_nli(self):
        scorer = _multitask()
        pairs = _pairs()
        texts_a, texts_b = [a for a, _ in pairs], [b for _, b in pairs]
        assert np.array_equal(scorer.predict_sts(pairs),
                              text_pair_scores(scorer, texts_a, texts_b, task="sts"))
        assert np.array_equal(scorer.predict_nli(pairs),
                              text_pair_scores(scorer, texts_a, texts_b, task="nli"))

    def test_score_matrix(self, scorer):
        pairs = _pairs()
        references = [a for a, _ in pairs]
        hypotheses = [b for _, b in pairs][:15]
        expected = text_pair_score_matrix(scorer, references, hypotheses)
        assert np.array_equal(score_matrix(scorer, references, hypotheses).values, expected)

    def test_score_matrix_across_blocks(self, scorer, monkeypatch):
        assert qemine.mining.SCORE_BLOCK % 4 == 0
        monkeypatch.setattr(qemine.mining, "SCORE_BLOCK", 8)
        pairs = _pairs()
        references = [a for a, _ in pairs][:9]
        hypotheses = [b for _, b in pairs]
        expected = text_pair_score_matrix(scorer, references, hypotheses)
        assert np.array_equal(score_matrix(scorer, references, hypotheses).values, expected)

    @pytest.mark.parametrize("threshold", ["auto", "median"])
    def test_mine_bucc(self, scorer, threshold):
        corpus = _corpus()
        filter_model = _filter()
        # untrained models rarely select gold pairs, so tune against the better
        # half of an unthresholded selection to make the tuned threshold matter
        everything, _ = text_pair_mine_bucc(corpus, filter_model, scorer, MiningConfig(3, 0.0))
        median = float(np.median([s for _, _, s in everything]))
        train_gold = {(a, b) for a, b, s in everything if s >= median}
        if threshold == "median":
            threshold = median
        config = MiningConfig(top_n=3, threshold=threshold)
        result = mine_bucc(corpus, filter_model, scorer, config, train_gold)
        pairs, tuned = text_pair_mine_bucc(corpus, filter_model, scorer, config, train_gold)
        assert result.threshold == tuned
        assert result.pairs == pairs
        assert 0 < len(pairs) < len(everything)


class TestFeaturizationCount:
    @pytest.fixture
    def featurized(self, monkeypatch):
        """Texts featurized per featurizer config."""
        counts: dict = {}
        original = qemine.estimators.featurize_all

        def counting(texts, config):
            counts[config] = counts.get(config, 0) + len(texts)
            return original(texts, config)

        monkeypatch.setattr(qemine.estimators, "featurize_all", counting)
        return counts

    def test_mine_bucc_featurizes_each_side_once_per_model(self, featurized):
        corpus = _corpus()
        scorer = _multitask(n_features=256)
        filter_model = _filter(n_features=512)
        mine_bucc(corpus, filter_model, scorer, MiningConfig(top_n=3, threshold=0.3))
        bound = len(corpus.side_a) + len(corpus.side_b)
        assert set(featurized) == {scorer.encoder_.featurizer, filter_model.encoder_.featurizer}
        assert all(count <= bound for count in featurized.values())

    def test_predict_featurizes_each_sentence_once(self, featurized):
        scorer = _multitask()
        pairs = _pairs()
        scorer.predict(pairs)
        assert featurized == {scorer.encoder_.featurizer: len({t for p in pairs for t in p})}


class TestUnalignedRows:
    @pytest.mark.parametrize("n_targets", [1, 2])
    def test_score_embeddings_rejects_row_mismatch(self, scorer, n_targets):
        ua = scorer.embed(["a b", "c d", "e"])
        ub = scorer.embed(["x y", "z"][:n_targets])
        with pytest.raises(ValueError, match=f"3 vs {n_targets}"):
            scorer.score_embeddings(ua, ub)

    @pytest.mark.parametrize("n_targets", [1, 2])
    def test_score_pairs_rejects_row_mismatch(self, n_targets):
        with pytest.raises(ValueError, match=f"3 vs {n_targets}"):
            _multitask().score_pairs(["a b", "c d", "e"], ["x y", "z"][:n_targets])
