"""The embed + score_embeddings scoring path against the text-pair oracle.

Scores must be bitwise equal to the oracle, which featurizes and embeds
every text of every pair.  Where one call embeds several text lists with
several models, the shared path must be bitwise equal to one ``embed``
call per model and side, and each distinct text must be featurized only
once per featurizer config.
"""

import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

import qemine.estimators
import qemine.features
import qemine.mining
import qemine.training
from qemine import backprop
from qemine.corpus import BuccCorpus
from qemine.embedding import embed_sides
from qemine.estimators import ContrastiveFilter, FeatureStackScorer, MultitaskScorer
from qemine.features import FeaturizerConfig, distinct_texts
from qemine.mining import MiningConfig, mine_bucc, score_matrix
from qemine.model import EncoderConfig, FeatureStackModel, save_feature_model
from qemine.synth import SynthConfig, generate_bucc, generate_qe
from qemine.training import TrainConfig, train_feature_stack

from conftest import as_float64, encoder_model, head_set
from oracles import (
    broadcast_abs_diff_term,
    per_backbone_embeddings,
    text_pair_mine_bucc,
    text_pair_score_matrix,
    text_pair_scores,
)


def _random_params(seed, n_features=256, hidden=8, dim=6, hash_seed=None):
    rng = np.random.default_rng(seed)
    hash_seed = seed if hash_seed is None else hash_seed
    encoder = EncoderConfig(FeaturizerConfig((1, 2, 3), n_features, hash_seed), hidden, dim)
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


def _backbones(seed, n_features=(128, 256, 512), hash_seeds=(None, None, None)):
    """Three backbones of growing width; equal widths and hash seeds give
    backbones that share a featurizer config."""
    return [encoder_model(*_random_params(seed + k, n_features[k], 6 + k, 4 + k,
                                          hash_seed=hash_seeds[k]))
            for k in range(3)]


def _feature_stack(seed=20, hidden_units=5, backbones=None, **configs):
    backbones = backbones or _backbones(seed, **configs)
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
        # 7 pairs per block: no block size makes a pair's bits depend on its neighbours
        monkeypatch.setattr(qemine.mining, "SCORE_BLOCK", 7)
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
            threshold, train_gold = median, None
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
        # GRID_BLOCK // 19 hypotheses = 3 rows per block: 19 rows in 7 blocks
        monkeypatch.setattr(qemine.mining, "GRID_BLOCK", 64)
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
    # (41, 1200): the |u−v| term runs in chunks of 12 rows, the last one of 5
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # 23×400 rows of 64: chunks of 5 rows, the last one of 3; 3×2100: m·d
    # is above the chunk, so one row per chunk
    @pytest.mark.parametrize("shape", [(23, 400), (3, 2100)])
    def test_bits_do_not_depend_on_the_workspace_size(self, monkeypatch, shape, dtype):
        n, m = shape
        rng = np.random.default_rng(m)
        ua, ub = rng.normal(size=(n, 64)).astype(dtype), rng.normal(size=(m, 64)).astype(dtype)
        params = {"qe_w": rng.normal(0.0, 0.5, 4 * 64 + 1).astype(dtype),
                  "qe_b": rng.normal(size=1).astype(dtype)}
        default = backprop.regression_head_grid(params, "qe", ua, ub)
        assert default.dtype == dtype
        for chunk in (1, n * m * 64 + 1):
            monkeypatch.setattr(backprop, "_GRID_CHUNK", chunk)
            assert np.array_equal(backprop.regression_head_grid(params, "qe", ua, ub), default)

    @pytest.mark.parametrize("n, m, dtypes, chunk", [
        (23, 400, (np.float32, np.float32), None),  # chunks of 5 rows, the last one of 3
        (9, 40, (np.float32, np.float32), 1),       # one-row chunks
        (3, 2100, (np.float32, np.float32), None),  # m·d above the chunk: one row per chunk
        (17, 30, (np.float64, np.float64), None),   # float64 rows, one chunk
        (7, 50, (np.float32, np.float64), 10000),   # mixed rows: float32 ua is cast first
    ])
    def test_tiled_fill_equals_the_broadcast_oracle(self, monkeypatch, n, m, dtypes, chunk):
        if chunk is not None:
            monkeypatch.setattr(backprop, "_GRID_CHUNK", chunk)
        rng = np.random.default_rng(n * m)
        ua = rng.normal(size=(n, 64)).astype(dtypes[0])
        ub = rng.normal(size=(m, 64)).astype(dtypes[1])
        ua[n // 2] = 0.0
        ub[[0, -1]] = 0.0
        w = rng.normal(size=64).astype(dtypes[0])
        expected = rng.normal(size=(n, m)).astype(np.result_type(ua, ub))
        z = expected.copy()
        broadcast_abs_diff_term(expected, ua, ub, w)
        backprop._add_abs_diff_term(z, ua, ub, w)
        assert np.array_equal(z, expected)

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

    def test_grid_head_peak_memory(self):
        """A float32 grid holds its 4-byte scores, the |u−v| workspace (about
        8 bytes per pair at 163×400) and the logistic's sign mask and
        denominator; the logistic's other temporaries would add 16."""
        rng = np.random.default_rng(163)
        ua, ub = (rng.normal(size=(n, 64)).astype(np.float32) for n in (163, 400))
        params = {"qe_w": rng.normal(0.0, 0.5, 4 * 64 + 1).astype(np.float32),
                  "qe_b": rng.normal(size=1).astype(np.float32)}
        backprop.regression_head_grid(params, "qe", ua, ub)
        tracemalloc.start()
        try:
            grid = backprop.regression_head_grid(params, "qe", ua, ub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.dtype == np.float32
        assert peak < 16 * grid.size


def test_feature_stack_scores_with_replaced_weights():
    """Every prediction reads the backbones and head the scorer holds at
    that moment, also after an earlier prediction."""
    stack = _feature_stack()
    pairs = _pairs()
    texts_a, texts_b = [a for a, _ in pairs], [b for _, b in pairs]
    before = stack.predict(pairs)
    assert np.array_equal(before, text_pair_scores(stack, texts_a, texts_b))

    replacement = encoder_model(*_random_params(99, 128, 6, 4))
    stack.sts_backbone = replacement
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


def _per_backbone_embed(stack, texts):
    """A feature stack's embeddings with each backbone featurizing on its own."""
    return np.hstack([ContrastiveFilter._from_encoder(b).embed(texts) for b in stack._backbones()])


def _per_side(model):
    """The model's embedding and scoring methods on an object that is not
    one of the package's models, so mining calls its ``embed`` once per
    side; a feature stack's ``embed`` also runs each backbone on its own."""
    methods = {name: getattr(model, name)
               for name in ("embed", "score_embeddings", "score_grid") if hasattr(model, name)}
    if isinstance(model, FeatureStackScorer):
        methods["embed"] = partial(_per_backbone_embed, model)
    return SimpleNamespace(**methods)


# Featurizer configs: "shared" gives the filter, the multitask scorer and
# two of the three backbones one config; "own" gives every model its own.
CONFIGS = {"shared": {"hash_seed": 5}, "own": {}}
STACK_CONFIGS = {"shared": {"n_features": (256, 256, 512), "hash_seeds": (5, 5, None)},
                 "own": {}}


def _scorer(kind, configs):
    if kind == "multitask":
        return _multitask(**CONFIGS[configs])
    return _feature_stack(**STACK_CONFIGS[configs])


def _overlapping_corpus():
    """``_corpus`` with two side-A sentences also on side B."""
    base = _corpus()
    texts_a = list(base.side_a.values())
    side_b = dict(base.side_b, **{"b-from-a": texts_a[1], "b-from-a2": texts_a[2]})
    return BuccCorpus(base.side_a, side_b, base.gold)


def _one_row_corpus():
    """``_corpus`` cut to its first side-A sentence."""
    base = _corpus()
    id_a = next(iter(base.side_a))
    return BuccCorpus({id_a: base.side_a[id_a]}, base.side_b,
                      {(a, b) for a, b in base.gold if a == id_a})


CORPORA = {"repeats": _corpus, "overlap": _overlapping_corpus, "one-row": _one_row_corpus}


def _qe_records(pairs):
    return [(a, b, (k % 7) / 6.0) for k, (a, b) in enumerate(pairs)]


class TestSharedEmbedding:
    """One featurization per config and one hidden layer per encoder must
    give the bits of one ``embed`` call per model and side (and, in a
    feature stack, per backbone)."""

    @pytest.mark.parametrize("threshold", ["auto", 0.4])
    @pytest.mark.parametrize("corpus_name", sorted(CORPORA))
    @pytest.mark.parametrize("configs", sorted(CONFIGS))
    @pytest.mark.parametrize("kind", ["multitask", "feature-stack"])
    def test_mine_bucc(self, kind, configs, corpus_name, threshold):
        corpus = CORPORA[corpus_name]()
        filter_model, scorer = _filter(**CONFIGS[configs]), _scorer(kind, configs)
        per_side = (_per_side(filter_model), _per_side(scorer))
        everything = mine_bucc(corpus, *per_side, MiningConfig(3, 0.0)).pairs
        train_gold = {(a, b) for a, b, _ in everything[::2]} if threshold == "auto" else None
        config = MiningConfig(top_n=3, threshold=threshold)
        expected = mine_bucc(corpus, *per_side, config, train_gold)
        assert repr(mine_bucc(corpus, filter_model, scorer, config, train_gold)) == repr(expected)

    @pytest.mark.parametrize("shape", ["all", "one-reference", "one-hypothesis"])
    @pytest.mark.parametrize("configs", sorted(CONFIGS))
    @pytest.mark.parametrize("kind", ["multitask", "feature-stack"])
    def test_score_matrix(self, kind, configs, shape):
        scorer = _scorer(kind, configs)
        pairs = _pairs()  # a sentence on both sides, repeats on each
        references, hypotheses = [a for a, _ in pairs], [b for _, b in pairs]
        references = references[:1] if shape == "one-reference" else references
        hypotheses = hypotheses[:1] if shape == "one-hypothesis" else hypotheses
        expected = score_matrix(_per_side(scorer), references, hypotheses).values
        assert score_matrix(scorer, references, hypotheses).values.tobytes() == expected.tobytes()

    def test_embed_and_similarity(self):
        filter_model = _filter()
        references = [a for a, _ in _pairs()]
        hypotheses = [b for _, b in _pairs()]
        expected = qemine.mining.embed_and_similarity(_per_side(filter_model), references,
                                                      hypotheses).values
        got = qemine.mining.embed_and_similarity(filter_model, references, hypotheses).values
        assert got.tobytes() == expected.tobytes()

    def test_empty_side_is_rejected_as_by_embed(self):
        filter_model = _filter()
        for model in (filter_model, _per_side(filter_model)):
            with pytest.raises(ValueError, match="empty list of texts"):
                qemine.mining.embed_and_similarity(model, ["a b"], [])

    @pytest.mark.parametrize("n_pairs", [1, None])
    @pytest.mark.parametrize("configs", sorted(STACK_CONFIGS))
    def test_feature_stack_predict(self, configs, n_pairs):
        stack = _feature_stack(**STACK_CONFIGS[configs])
        pairs = _pairs()[:n_pairs]
        expected = stack.score_embeddings(_per_backbone_embed(stack, [a for a, _ in pairs]),
                                          _per_backbone_embed(stack, [b for _, b in pairs]))
        assert stack.predict(pairs).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_pairs", [1, None])
    @pytest.mark.parametrize("configs", sorted(STACK_CONFIGS))
    def test_train_feature_stack_model_bytes(self, configs, n_pairs, tmp_path, monkeypatch):
        backbones = _backbones(30, **STACK_CONFIGS[configs])
        records = _qe_records(_pairs()[:n_pairs])
        config = TrainConfig(epochs=2, batch_size=8, seed=4)
        save_feature_model(train_feature_stack(*backbones, records, config)[0], tmp_path / "shared")
        oracle = per_backbone_embeddings(backbones, *_sides(records))
        save_feature_model(_train_on_embeddings(monkeypatch, backbones, records, config, *oracle),
                           tmp_path / "oracle")
        assert (tmp_path / "shared").read_bytes() == (tmp_path / "oracle").read_bytes()


# The desk and default sizes.  At the desk size, OpenBLAS picks another
# output-layer kernel for a product of 1–18 rows than for the same rows
# inside a larger product.
DESK = {"n_features": 4096, "hidden": 128, "dim": 64}
SIZES = {"desk": DESK, "default": {"n_features": 8192, "hidden": 256, "dim": 128}}
# Pair counts of the calls whose scores must equal the same pairs' scores
# in one larger call.
CALL_PAIRS = [*range(1, 34), 63, 64, 65, 511, 512, 513]


def _sides(records):
    return [a for a, _, _ in records], [b for _, b, _ in records]


def _train_on_embeddings(monkeypatch, backbones, records, config, ua, ub):
    """``train_feature_stack``'s model when its head trains on the pair
    features of the side-by-side backbone embeddings ``ua`` and ``ub``."""
    original = qemine.training.stacked_pair_features
    monkeypatch.setattr(qemine.training, "stacked_pair_features",
                        lambda _ua, _ub, dims: original(ua, ub, dims))
    return train_feature_stack(*backbones, records, config)[0]


class TestOneEmbeddingRule:
    """``predict``, ``score_pairs``, training batches and feature-stack
    training embed as mining does, and a pair scores alike in a call of
    any size, at sizes where BLAS's kernel depends on the row count."""

    @pytest.fixture(scope="class")
    def pairs(self):
        return [(r.source, r.target) for r in generate_qe(SynthConfig(vocab_size=200, seed=5), 600)]

    @pytest.mark.parametrize("size", sorted(SIZES))
    def test_a_pair_scores_alike_in_calls_of_any_size(self, size, pairs):
        scorer, filter_model = _multitask(**SIZES[size]), _filter(**SIZES[size])
        backbones = [encoder_model(*_random_params(50 + k, **SIZES[size])) for k in range(3)]
        stack = _feature_stack(backbones=backbones)
        methods = {
            "predict": scorer.predict, "predict_sts": scorer.predict_sts,
            "predict_nli": scorer.predict_nli, "feature-stack": stack.predict,
            "pair_cosines": lambda p: filter_model.pair_cosines(*map(list, zip(*p))),
        }
        for name, method in methods.items():
            whole = method(pairs)
            for n in CALL_PAIRS:
                assert method(pairs[-n:]).tobytes() == whole[-n:].tobytes(), (name, n)

    @pytest.mark.parametrize("n_pairs", [1, 5, 32, 33])
    @pytest.mark.parametrize("size", sorted(SIZES))
    def test_training_batch_embeds_as_embed_sides(self, size, n_pairs, pairs):
        [(params, featurizer)] = _multitask(**SIZES[size])._encoders()
        # a batch's rows come from one featurization of the whole data set
        Xa, Xb = qemine.training._featurize_sides(*map(list, zip(*pairs)), featurizer,
                                                  dtype=np.float32)
        batch = np.random.default_rng(n_pairs).permutation(len(pairs))[:n_pairs]
        ua, ub, _ = backprop._pair_forward(params, Xa[batch], Xb[batch])
        sides = [[pairs[k][0] for k in batch], [pairs[k][1] for k in batch]]
        [(ea, eb)] = embed_sides([SimpleNamespace(_encoders=lambda: [(params, featurizer)])], sides)
        assert ua.tobytes() == ea.tobytes()
        assert ub.tobytes() == eb.tobytes()

    @pytest.fixture(scope="class")
    def desk_scorer(self):
        return _multitask(**DESK)

    @pytest.mark.parametrize("n_pairs", range(1, 21))
    def test_predict_equals_score_pairs(self, desk_scorer, n_pairs):
        records = generate_qe(SynthConfig(vocab_size=200, seed=3), n_pairs)
        texts_a, texts_b = [r.source for r in records], [r.target for r in records]
        expected = desk_scorer.score_pairs(texts_a, texts_b)
        assert desk_scorer.predict(list(zip(texts_a, texts_b))).tobytes() == expected.tobytes()

    def test_train_feature_stack_trains_on_embed_per_side(self, tmp_path, monkeypatch):
        backbones = [encoder_model(*_random_params(50 + k, **DESK)) for k in range(3)]
        pairs = [(r.source, r.target) for r in generate_qe(SynthConfig(vocab_size=200, seed=4), 12)]
        records = _qe_records(pairs * 3)  # each side holds every sentence three times
        config = TrainConfig(epochs=2, batch_size=8, seed=4)
        save_feature_model(train_feature_stack(*backbones, records, config)[0], tmp_path / "fit")
        stack = FeatureStackScorer(*backbones)
        embedded = [stack.embed(side) for side in _sides(records)]
        save_feature_model(_train_on_embeddings(monkeypatch, backbones, records, config, *embedded),
                           tmp_path / "embed")
        assert (tmp_path / "fit").read_bytes() == (tmp_path / "embed").read_bytes()


def _distinct(*sides):
    """The distinct texts of the sides together, in first-occurrence order."""
    return distinct_texts([t for side in sides for t in side])[0]


class TestFeaturizationCount:
    @pytest.fixture
    def featurized(self, monkeypatch):
        """(config, texts) of every ``featurize_all`` call made through the
        features (where the embedding rule reads it), estimators and
        training modules."""
        calls = []
        for module in (qemine.features, qemine.estimators, qemine.training):
            def counting(texts, config, original=module.featurize_all):
                calls.append((config, list(texts)))
                return original(texts, config)

            monkeypatch.setattr(module, "featurize_all", counting)
        return calls

    def test_mine_bucc_featurizes_each_side_once_per_model(self, featurized):
        # the filter and the scorer have different configs: one call for each
        corpus = _overlapping_corpus()
        scorer = _multitask(n_features=256)
        filter_model = _filter(n_features=512)
        mine_bucc(corpus, filter_model, scorer, MiningConfig(top_n=3, threshold=0.3))
        texts = _distinct(corpus.side_a.values(), corpus.side_b.values())
        assert featurized == [(filter_model.encoder_.featurizer, texts),
                              (scorer.encoder_.featurizer, texts)]

    @pytest.mark.parametrize("threshold", ["auto", 0.3])
    def test_mine_bucc_featurizes_once_for_a_shared_config(self, featurized, threshold):
        corpus = _overlapping_corpus()
        filter_model, scorer = _filter(hash_seed=5), _multitask(hash_seed=5)
        assert filter_model.encoder_.featurizer == scorer.encoder_.featurizer
        mine_bucc(corpus, filter_model, scorer, MiningConfig(top_n=3, threshold=threshold),
                  set(list(corpus.gold)[:3]) if threshold == "auto" else None)
        texts = _distinct(corpus.side_a.values(), corpus.side_b.values())
        assert featurized == [(scorer.encoder_.featurizer, texts)]

    @pytest.mark.parametrize("kind", ["multitask", "feature-stack"])
    def test_score_matrix_featurizes_once_per_config(self, featurized, kind):
        scorer = _scorer(kind, "shared")
        pairs = _pairs()
        references, hypotheses = [a for a, _ in pairs], [b for _, b in pairs]
        score_matrix(scorer, references, hypotheses)
        texts = _distinct(references, hypotheses)
        configs = ([scorer.encoder_.featurizer] if kind == "multitask"
                   else [b.featurizer for b in scorer._backbones()[1:]])
        assert featurized == [(config, texts) for config in configs]

    def test_feature_stack_embed_featurizes_once_per_config(self, featurized):
        stack = _feature_stack(**STACK_CONFIGS["shared"])
        texts = [a for a, _ in _pairs()]
        stack.embed(texts)
        first, _, last = stack._backbones()
        assert featurized == [(first.featurizer, _distinct(texts)),
                              (last.featurizer, _distinct(texts))]

    def test_train_feature_stack_featurizes_once_per_config(self, featurized):
        first, second, last = _backbones(30, **STACK_CONFIGS["shared"])
        assert first.featurizer == second.featurizer != last.featurizer
        pairs = _pairs()
        train_feature_stack(first, second, last, _qe_records(pairs), TrainConfig(epochs=1))
        texts = _distinct([a for a, _ in pairs], [b for _, b in pairs])
        assert featurized == [(first.featurizer, texts), (last.featurizer, texts)]

    def test_predict_featurizes_each_sentence_once(self, featurized):
        scorer = _multitask()
        pairs = _pairs()
        scorer.predict(pairs)
        assert featurized == [(scorer.encoder_.featurizer,
                               _distinct([a for a, _ in pairs], [b for _, b in pairs]))]


    def test_inference_selects_no_rows(self, monkeypatch):
        """A fresh featurization is its own compact form, so the embedding
        rule takes no rows of it (``features._take_rows``) when it embeds,
        scores or mines."""
        taken = []

        def counting(matrix, rows, original=qemine.features._take_rows):
            taken.append(len(rows))
            return original(matrix, rows)

        monkeypatch.setattr(qemine.features, "_take_rows", counting)
        scorer, stack = _multitask(), _feature_stack()
        pairs = _pairs()
        references, hypotheses = [a for a, _ in pairs], [b for _, b in pairs]
        scorer.predict(pairs)
        stack.predict(pairs)
        score_matrix(scorer, references, hypotheses)
        mine_bucc(_corpus(), _filter(), scorer, MiningConfig(top_n=3, threshold=0.3))
        assert taken == []
        # a selection still derives its compact form through it
        qemine.features.featurize_all(references, scorer.encoder_.featurizer)[[1, 0]].compact
        assert taken


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
