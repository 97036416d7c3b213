"""The embed + score_embeddings scoring path against the text-pair oracle.

Scores must be bitwise equal to the oracle, which featurizes and embeds
every text of every pair, and each distinct text must be featurized
only once per model.
"""

import tracemalloc
from types import SimpleNamespace

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

from conftest import as_float64, encoder_model, head_set
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
    scorer.encoder_ = encoder_model(params, featurizer)
    scorer.heads_ = head_set(params)
    return scorer


def _filter(seed=10, **sizes):
    params, featurizer = _random_params(seed, **sizes)
    encoder = ContrastiveFilter()
    encoder.encoder_ = encoder_model(params, featurizer)
    return encoder


def _feature_stack(seed=20, hidden_units=5):
    backbones = [
        encoder_model(*_random_params(seed + k, 128 << k, 6 + k, 4 + k))
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


def _aligned_only(scorer):
    """The scorer's embed and score_embeddings without its score_grid."""
    return SimpleNamespace(embed=scorer.embed, score_embeddings=scorer.score_embeddings)


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

    # The aligned-block path of score_matrix, which the grid is checked against:
    # the wrapper hides MultitaskScorer.score_grid.
    def test_score_matrix(self, scorer):
        pairs = _pairs()
        references = [a for a, _ in pairs]
        hypotheses = [b for _, b in pairs][:15]
        expected = text_pair_score_matrix(scorer, references, hypotheses)
        assert np.array_equal(score_matrix(_aligned_only(scorer), references, hypotheses).values,
                              expected)

    def test_score_matrix_across_blocks(self, scorer, monkeypatch):
        assert qemine.mining.SCORE_BLOCK % 4 == 0
        monkeypatch.setattr(qemine.mining, "SCORE_BLOCK", 8)
        pairs = _pairs()
        references = [a for a, _ in pairs][:9]
        hypotheses = [b for _, b in pairs]
        expected = text_pair_score_matrix(scorer, references, hypotheses)
        assert np.array_equal(score_matrix(_aligned_only(scorer), references, hypotheses).values,
                              expected)

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


def _assert_grid_close(grid, aligned):
    """The grid head's tolerance: its sums run in another order than the
    aligned head's, so scores agree to 1e-12 and every row's argmax is equal."""
    assert grid.shape == aligned.shape
    assert np.max(np.abs(grid - aligned)) <= 1e-12
    assert np.array_equal(grid.argmax(axis=1), aligned.argmax(axis=1))


def _aligned_grid(scorer, ua, ub, task="qe"):
    """The aligned head on every (row, column) index pair, as an n × m array."""
    rows, cols = np.divmod(np.arange(len(ua) * len(ub)), len(ub))
    return scorer.score_embeddings(ua[rows], ub[cols], task=task).reshape(len(ua), len(ub))


def _signed_multitask(signs, seed=30, dim=9):
    """A MultitaskScorer whose QE and STS weights are all positive, all
    negative, all zero or of mixed sign."""
    params, featurizer = _random_params(seed, dim=dim)
    for task in ("qe", "sts"):
        w = params[f"{task}_w"]
        params[f"{task}_w"] = {"positive": np.abs(w), "negative": -np.abs(w),
                               "zero": np.zeros_like(w), "mixed": w}[signs]
    scorer = MultitaskScorer()
    scorer.encoder_ = encoder_model(params, featurizer)
    scorer.heads_ = head_set(params)
    return scorer


class _Float64Scorer(MultitaskScorer):
    """Embeds and scores with float64 copies of its float32 arrays (the
    text-pair oracle reads them the same way), so that the grid and the
    aligned head can be compared at float64 rounding."""

    def _require_fitted(self):
        return as_float64(super()._require_fitted())


def _float64_multitask():
    scorer, float64 = _multitask(), _Float64Scorer()
    float64.encoder_, float64.heads_ = scorer.encoder_, scorer.heads_
    return float64


class TestScoreGrid:
    def test_score_matrix(self):
        scorer = _float64_multitask()
        pairs = _pairs()
        references = [a for a, _ in pairs]
        hypotheses = [b for _, b in pairs][:15]
        expected = text_pair_score_matrix(scorer, references, hypotheses)
        _assert_grid_close(score_matrix(scorer, references, hypotheses).values, expected)

    def test_score_matrix_across_blocks(self, monkeypatch):
        # 64 * SCORE_BLOCK // 19 hypotheses = 3 rows per block: 19 rows in 7 blocks
        monkeypatch.setattr(qemine.mining, "SCORE_BLOCK", 1)
        calls = []
        scorer = _float64_multitask()
        original = scorer.score_grid
        scorer.score_grid = lambda ua, ub: calls.append(len(ua)) or original(ua, ub)
        pairs = _pairs()
        references = [a for a, _ in pairs]
        hypotheses = [b for _, b in pairs]
        expected = text_pair_score_matrix(scorer, references, hypotheses)
        _assert_grid_close(score_matrix(scorer, references, hypotheses).values, expected)
        assert calls == [3] * 6 + [1]

    @pytest.mark.parametrize("signs", ["positive", "negative", "mixed", "zero"])
    @pytest.mark.parametrize("task", ["qe", "sts"])
    # (41, 1200): the |u−v| term runs in chunks of 3 rows, the last one of 2
    @pytest.mark.parametrize("shape", [(1, 1), (7, 13), (37, 5), (41, 1200)])
    def test_matches_aligned_head(self, signs, task, shape):
        scorer = _signed_multitask(signs)
        rng = np.random.default_rng(shape)
        ua = rng.normal(size=(shape[0], 9))
        ub = rng.normal(size=(shape[1], 9))
        ua[shape[0] // 2] = 0.0
        ub[-1] = 0.0
        grid = scorer.score_grid(ua, ub, task=task)
        _assert_grid_close(grid, _aligned_grid(scorer, ua, ub, task))

    def test_nli_has_no_grid(self):
        u = np.ones((2, 6))
        with pytest.raises(ValueError, match="nli"):
            _multitask().score_grid(u, u, task="nli")

    def test_score_matrix_peak_memory(self):
        """At 1000×1000 the grid path holds the float64 result plus one row
        block, about 10 bytes per pair; two n·m index arrays, as the aligned
        path once built, take 25."""
        scorer = _multitask()
        references = [f"source sentence {i} with words {i % 7} {i % 13}" for i in range(1000)]
        hypotheses = [f"target line {j} holding {j % 11} {j % 5}" for j in range(1000)]
        scorer.embed(references[:1])  # warm-up outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            matrix = score_matrix(scorer, references, hypotheses)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert matrix.shape == (1000, 1000)
        assert peak < 12 * 1000 * 1000


def test_feature_stack_scores_with_replaced_weights():
    """Every prediction reads the backbones and head the scorer holds at
    that moment, also after an earlier prediction."""
    stack = _feature_stack()
    pairs = _pairs()
    texts_a, texts_b = [a for a, _ in pairs], [b for _, b in pairs]
    before = stack.predict(pairs)
    assert np.array_equal(before, text_pair_scores(stack, texts_a, texts_b))

    replacement = encoder_model(*_random_params(99, 128, 6, 4))
    stack.set_params(sts_backbone=replacement)
    replaced = FeatureStackScorer(replacement, *stack._backbones()[1:])
    replaced.model_ = stack.model_
    after = stack.predict(pairs)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, replaced.predict(pairs))

    stack.model_ = _feature_stack(seed=40).model_
    replaced.model_ = stack.model_
    assert not np.array_equal(stack.predict(pairs), after)
    assert np.array_equal(stack.predict(pairs), replaced.predict(pairs))


def test_multitask_scores_with_weights_changed_in_place():
    scorer = _multitask()
    pairs = _pairs()
    texts_a, texts_b = [a for a, _ in pairs], [b for _, b in pairs]
    before = scorer.predict(pairs)
    scorer.encoder_.w1[:, ::2] *= -1.0
    scorer.heads_.qe_w[:] *= 2.0
    after = scorer.predict(pairs)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, text_pair_scores(scorer, texts_a, texts_b))


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
