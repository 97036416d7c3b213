import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dict_mutual_best, grid_tune_threshold, indexed_candidates, loop_topn_candidates

import qemine.mining
from qemine.corpus import BuccCorpus
from qemine.errors import ConfigError
from qemine.mining import (
    MiningConfig,
    ScoreMatrix,
    _mutual_best,
    embed_and_similarity,
    f1_score,
    mine_bucc,
    mine_tatoeba,
    score_matrix,
    tatoeba_accuracy,
    topn_candidates,
    tune_threshold,
)


class _MatrixScorer:
    """Fake quality scorer backed by a fixed matrix keyed by sentence text.

    A sentence's embedding is its index on its own side, so scoring an
    embedding pair looks up one matrix entry.
    """

    def __init__(self, values, side_a, side_b):
        self.values = np.asarray(values, dtype=np.float64)
        self.index_a = {text: i for i, text in enumerate(side_a)}
        self.index_b = {text: j for j, text in enumerate(side_b)}

    def embed(self, texts):
        return np.array(
            [[self.index_a[t] if t in self.index_a else self.index_b[t]] for t in texts],
            dtype=np.float64,
        ).reshape(-1, 1)

    def score_embeddings(self, ua, ub):
        return self.values[ua[:, 0].astype(np.intp), ub[:, 0].astype(np.intp)]


class _RandomEmbedder:
    """Fake filtration encoder with arbitrary but deterministic embeddings."""

    def __init__(self, seed=0, dim=8):
        self.seed = seed
        self.dim = dim

    def embed(self, texts):
        rows = []
        for text in texts:
            rng = np.random.default_rng([self.seed, sum(map(ord, text))])
            rows.append(rng.normal(size=self.dim))
        return np.stack(rows)


def _matrix(values):
    values = np.asarray(values, dtype=np.float64)
    return ScoreMatrix(values)


def _tune(candidates, gold):
    """``tune_threshold`` over (a, b, score) triples."""
    return tune_threshold(*indexed_candidates(candidates), gold)


def _brute_force_mutual_best(values, threshold=0.0):
    """Independent O(N^2) oracle: mutual argmax above threshold."""
    selected = set()
    rows, cols = values.shape
    for i in range(rows):
        j = int(np.argmax(values[i]))
        if values[i, j] < threshold:
            continue
        if int(np.argmax(values[:, j])) == i:
            selected.add((i, j))
    return selected


class TestMineTatoeba:
    def test_identity_matrix_selects_diagonal(self):
        values = np.eye(4)
        assert mine_tatoeba(_matrix(values)) == [(i, i) for i in range(4)]

    def test_tie_breaks_to_lowest_column(self):
        values = np.array([[0.2, 0.9, 0.9]])
        assert mine_tatoeba(_matrix(values)) == [(0, 1)]

    def test_matches_brute_force_row_max(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(size=(20, 20))
        predicted = mine_tatoeba(_matrix(values))
        for i, j in predicted:
            assert values[i, j] == values[i].max()
            assert j == min(np.flatnonzero(values[i] == values[i].max()))

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(size=(15, 12))
        base = mine_tatoeba(_matrix(values))
        for transform in (lambda v: v**3, lambda v: np.exp(v), lambda v: 2 * v + 5):
            assert mine_tatoeba(_matrix(transform(values))) == base


class TestTatoebaAccuracy:
    def test_perfect_diagonal(self):
        assert tatoeba_accuracy([(i, i) for i in range(8)], 8) == 1.0

    def test_cyclic_shift_is_zero(self):
        predicted = [(i, (i + 1) % 5) for i in range(5)]
        assert tatoeba_accuracy(predicted, 5) == 0.0

    def test_requires_full_row_coverage(self):
        with pytest.raises(ValueError):
            tatoeba_accuracy([(0, 0), (0, 1)], 2)


class TestScoreMatrix:
    def test_matches_independent_scorer_calls(self):
        rng = np.random.default_rng(2)
        side_a = [f"ref {i}" for i in range(5)]
        side_b = [f"hyp {j}" for j in range(5)]
        values = rng.uniform(size=(5, 5))
        scorer = _MatrixScorer(values, side_a, side_b)
        matrix = score_matrix(scorer, side_a, side_b)
        for i in range(5):
            for j in range(5):
                single = scorer.score_embeddings(
                    scorer.embed([side_a[i]]), scorer.embed([side_b[j]])
                )[0]
                assert matrix.values[i, j] == single

    def test_reproducible(self):
        side_a = ["a", "b"]
        side_b = ["x", "y", "z"]
        scorer = _MatrixScorer(np.arange(6).reshape(2, 3) / 10, side_a, side_b)
        first = score_matrix(scorer, side_a, side_b)
        second = score_matrix(scorer, side_a, side_b)
        assert np.array_equal(first.values, second.values)

    def test_rejects_empty_inputs(self):
        scorer = _MatrixScorer(np.ones((1, 1)), ["a"], ["b"])
        with pytest.raises(ValueError):
            score_matrix(scorer, [], ["b"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_entry(self, bad):
        values = np.zeros((3, 4))
        values[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ScoreMatrix(values)

    def test_accepts_finite_entries_whose_sum_overflows(self):
        values = np.full((2, 3), np.finfo(np.float64).max)
        assert ScoreMatrix(values).shape == (2, 3)

    def test_validation_allocates_no_array_per_pair(self):
        values = np.random.default_rng(0).uniform(size=(1000, 1000))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ScoreMatrix(values)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * values.size


class TestEmbedAndSimilarity:
    def test_identical_sentence_gives_unit_cosine(self):
        embedder = _RandomEmbedder(seed=3)
        matrix = embed_and_similarity(embedder, ["same sentence"], ["same sentence"])
        assert matrix.values[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_entries_within_unit_interval(self):
        embedder = _RandomEmbedder(seed=4)
        texts_a = [f"sent {i}" for i in range(10)]
        texts_b = [f"other {j}" for j in range(9)]
        matrix = embed_and_similarity(embedder, texts_a, texts_b)
        assert np.all(matrix.values >= -1.0)
        assert np.all(matrix.values <= 1.0)

    def test_matches_per_pair_cosine(self):
        from oracles import cosine_similarity

        embedder = _RandomEmbedder(seed=5)
        texts_a = [f"left {i}" for i in range(10)]
        texts_b = [f"right {j}" for j in range(10)]
        matrix = embed_and_similarity(embedder, texts_a, texts_b)
        ua = embedder.embed(texts_a)
        ub = embedder.embed(texts_b)
        for i in range(10):
            for j in range(10):
                assert matrix.values[i, j] == pytest.approx(
                    cosine_similarity(ua[i], ub[j]), abs=1e-6
                )


@st.composite
def _tied_matrices(draw):
    """A matrix drawn from a few levels, so most rows and columns hold ties,
    and an n that may reach or pass either dimension."""
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    levels = draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(levels) - 1),
                          min_size=rows * cols, max_size=rows * cols))
    values = np.array([levels[k] for k in picks], dtype=np.float64).reshape(rows, cols)
    return values, draw(st.integers(1, 11))


class TestTopN:
    def test_n_past_dimension_returns_everything(self):
        rng = np.random.default_rng(6)
        matrix = _matrix(rng.uniform(size=(4, 3)))
        rows, cols = topn_candidates(matrix, 10)
        assert all(list(r) == [0, 1, 2] for r in rows)
        assert all(list(c) == [0, 1, 2, 3] for c in cols)

    def test_known_row(self):
        rows, _ = topn_candidates(_matrix([[0.1, 0.5, 0.3]]), 2)
        assert set(rows[0]) == {1, 2}

    def test_tie_goes_to_lowest_index(self):
        rows, _ = topn_candidates(_matrix([[0.5, 0.9, 0.9, 0.9]]), 2)
        assert set(rows[0]) == {1, 2}

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(size=(30, 30))
        rows, cols = topn_candidates(_matrix(values), 5)
        for i in range(30):
            oracle = sorted(range(30), key=lambda j: (-values[i, j], j))[:5]
            assert set(rows[i]) == set(oracle)
        for j in range(30):
            oracle = sorted(range(30), key=lambda i: (-values[i, j], i))[:5]
            assert set(cols[j]) == set(oracle)

    def test_peak_memory_below_16_bytes_per_entry(self):
        # tie-free, so no row needs the running tie count
        matrix = _matrix(np.random.default_rng(19).uniform(size=(1000, 1000)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            topn_candidates(matrix, 10)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 16 * matrix.values.size

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_tied_matrices())
    def test_equals_argsort_loop(self, case):
        values, n = case
        rows, cols = topn_candidates(_matrix(values), n)
        expected_rows, expected_cols = loop_topn_candidates(_matrix(values), n)
        assert len(rows) == len(expected_rows) and len(cols) == len(expected_cols)
        for got, expected in zip(rows + cols, expected_rows + expected_cols):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


def _corpus_from_size(rows, cols):
    side_a = {f"a{i}": f"left sentence {i}" for i in range(rows)}
    side_b = {f"b{j}": f"right sentence {j}" for j in range(cols)}
    return BuccCorpus(side_a, side_b, frozenset())


class TestMineBucc:
    def _run(self, values, top_n=None, threshold=0.0):
        rows, cols = values.shape
        corpus = _corpus_from_size(rows, cols)
        scorer = _MatrixScorer(values, list(corpus.side_a.values()), list(corpus.side_b.values()))
        embedder = _RandomEmbedder(seed=8)
        config = MiningConfig(top_n=top_n or max(rows, cols), threshold=threshold)
        return mine_bucc(corpus, embedder, scorer, config)

    def test_equals_brute_force_with_full_candidates(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            rows, cols = rng.integers(3, 30, 2)
            values = rng.uniform(size=(rows, cols))
            result = self._run(values)
            expected = {
                (f"a{i}", f"b{j}") for i, j in _brute_force_mutual_best(values)
            }
            assert result.pair_set() == expected

    def test_threshold_one_empties_selection(self):
        rng = np.random.default_rng(10)
        values = rng.uniform(0.0, 0.99, size=(6, 6))
        result = self._run(values, threshold=1.0)
        assert result.pairs == ()

    def test_planted_pairs_recovered(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 0.2, size=(9, 9))
        for k in range(5):
            values[k, k] = 0.9 + 0.01 * k
        result = self._run(values, threshold=0.5)
        assert result.pair_set() == {(f"a{k}", f"b{k}") for k in range(5)}

    def test_raising_threshold_never_adds_pairs(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(size=(12, 12))
        previous = None
        for threshold in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            selected = self._run(values, threshold=threshold).pair_set()
            if previous is not None:
                assert selected <= previous
            previous = selected

    def test_swapping_sides_transposes_selection(self):
        rng = np.random.default_rng(13)
        values = rng.uniform(size=(8, 11))
        forward = self._run(values).pair_set()
        corpus = _corpus_from_size(11, 8)
        # the same score function seen from the other side
        scorer = _MatrixScorer(values.T, list(corpus.side_a.values()), list(corpus.side_b.values()))
        embedder = _RandomEmbedder(seed=8)
        swapped = mine_bucc(corpus, embedder, scorer,
                            MiningConfig(top_n=11, threshold=0.0)).pair_set()
        # a{i} names the left side in each run; compare as index pairs
        forward_idx = {(int(a[1:]), int(b[1:])) for a, b in forward}
        swapped_idx = {(int(b[1:]), int(a[1:])) for a, b in swapped}
        assert forward_idx == swapped_idx

    def test_every_selected_score_meets_threshold(self):
        rng = np.random.default_rng(14)
        values = rng.uniform(size=(10, 10))
        result = self._run(values, threshold=0.55)
        assert all(score >= 0.55 for _, _, score in result.pairs)

    def test_shortlist_gold_recall_counts_gold_in_the_shortlist(self):
        rng = np.random.default_rng(20)
        values = rng.uniform(size=(12, 9))
        corpus = _corpus_from_size(12, 9)
        texts_a, texts_b = list(corpus.side_a.values()), list(corpus.side_b.values())
        scorer = _MatrixScorer(values, texts_a, texts_b)
        embedder = _RandomEmbedder(seed=8)
        # one gold pair names an id on neither side; it counts in the denominator
        gold = {(f"a{k}", f"b{k}") for k in range(9)} | {("a99", "b0")}
        result = mine_bucc(corpus, embedder, scorer, MiningConfig(2, "auto"), gold)
        similarity = embed_and_similarity(embedder, texts_a, texts_b)
        by_row, by_col = loop_topn_candidates(similarity, 2)
        shortlist = {(f"a{i}", f"b{j}") for i, row in enumerate(by_row) for j in row}
        shortlist |= {(f"a{i}", f"b{j}") for j, col in enumerate(by_col) for i in col}
        assert result.n_candidates == len(shortlist)
        assert result.shortlist_gold_recall == len(shortlist & gold) / len(gold)
        assert 0.0 < result.shortlist_gold_recall < 1.0
        fixed = mine_bucc(corpus, embedder, scorer, MiningConfig(2, result.threshold))
        assert fixed.shortlist_gold_recall is None
        assert fixed.pairs == result.pairs

    def test_auto_threshold_requires_train_gold(self):
        rng = np.random.default_rng(15)
        values = rng.uniform(size=(4, 4))
        corpus = _corpus_from_size(4, 4)
        scorer = _MatrixScorer(values, list(corpus.side_a.values()), list(corpus.side_b.values()))
        with pytest.raises(ConfigError):
            mine_bucc(corpus, _RandomEmbedder(), scorer, MiningConfig(4, "auto"))

    def test_fixed_threshold_rejects_train_gold(self):
        # train_gold is read only by tuning, so a fixed threshold would ignore it
        corpus = _corpus_from_size(4, 4)
        with pytest.raises(ConfigError, match="train_gold"):
            mine_bucc(corpus, _RandomEmbedder(), None, MiningConfig(4, 0.5), {("a0", "b0")})


class TestMutualBest:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_equals_dict_oracle(self, data):
        levels = data.draw(st.lists(st.floats(-0.5, 1.5, allow_subnormal=False),
                                    min_size=1, max_size=3), label="levels")
        n_left = data.draw(st.integers(1, 5), label="n_left")
        n_right = data.draw(st.integers(1, 5), label="n_right")
        pair = st.tuples(st.integers(0, n_left - 1), st.integers(0, n_right - 1))
        # few levels make ties common; pairs may repeat with different scores
        drawn = data.draw(st.lists(st.tuples(pair, st.sampled_from(levels)), max_size=25),
                          label="candidates")
        candidates = [(f"a{i}", f"b{j}", score) for (i, j), score in drawn]
        scores_drawn = [score for _, score in drawn]
        kind = data.draw(st.sampled_from(["-inf", "score", "above"]), label="threshold kind")
        if kind == "score" and scores_drawn:
            threshold = data.draw(st.sampled_from(scores_drawn), label="threshold")
        elif kind == "above":
            threshold = float(np.nextafter(max(levels), np.inf))
        else:
            threshold = float("-inf")

        rows, cols, scores, ids_a, ids_b = indexed_candidates(candidates)
        got = _mutual_best(rows, cols, scores, threshold)
        expected = dict_mutual_best(candidates, threshold)
        best_score: dict = {}
        for a, b, score in candidates:
            best_score[(a, b)] = max(score, best_score.get((a, b), score))
        for positions, oracle in zip(got, expected):
            pairs = [(ids_a[rows[k]], ids_b[cols[k]]) for k in positions]
            assert len(pairs) == len(oracle)
            assert set(pairs) == oracle
            # each position holds its pair's highest score, at or above the threshold
            for k, pair in zip(positions, pairs):
                assert scores[k] == best_score[pair] and scores[k] >= threshold
        assert list(got[2]) == sorted(got[2])


class TestTuneThreshold:
    def test_clean_separation_returns_gold_score(self):
        candidates = [("a1", "b1", 0.9), ("a2", "b2", 0.9), ("a1", "b2", 0.3), ("a2", "b1", 0.3)]
        gold = {("a1", "b1"), ("a2", "b2")}
        assert _tune(candidates, gold) == 0.9

    def test_single_candidate_equal_to_gold(self):
        assert _tune([("a1", "b1", 0.42)], {("a1", "b1")}) == 0.42

    def test_optimal_over_exhaustive_sweep(self):
        rng = np.random.default_rng(16)
        for trial in range(10):
            n = 8
            candidates = [
                (f"a{i}", f"b{j}", float(rng.uniform()))
                for i in range(n) for j in range(n)
            ]
            gold = {(f"a{k}", f"b{k}") for k in range(n // 2)}
            threshold = _tune(candidates, gold)
            grid = {k / 100 for k in range(101)} | {s for _, _, s in candidates}

            def f1_at(th):
                _, _, sel = dict_mutual_best(candidates, th)
                return f1_score(sel, gold)[2]

            best = max(f1_at(th) for th in grid)
            assert f1_at(threshold) == best

    def test_empty_gold_rejected(self):
        with pytest.raises(ConfigError):
            _tune([("a", "b", 0.5)], set())

    def test_repeated_pair_counts_with_its_highest_score(self):
        candidates = [("a1", "b1", 0.3), ("a1", "b1", 0.8), ("a2", "b2", 0.5)]
        gold = {("a1", "b1")}
        assert _tune(candidates, gold) == grid_tune_threshold(candidates, gold) == 0.8

    def test_negative_zero_score_tunes_to_positive_zero(self):
        # enough -0.0 scores that a sort may place one before the grid's 0.0
        candidates = [(f"a{k}", f"b{k}", -0.0) for k in range(8)] + [("a0", "b1", -0.0)]
        gold = {(f"a{k}", f"b{k}") for k in range(8)} | {("a9", "b9")}
        tuned = _tune(candidates, gold)
        assert repr(tuned) == repr(grid_tune_threshold(candidates, gold)) == "0.0"

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_equals_grid_sweep(self, data):
        levels = data.draw(st.lists(st.floats(-0.5, 1.5, allow_subnormal=False),
                                    min_size=1, max_size=4), label="levels")
        n_left = data.draw(st.integers(1, 6), label="n_left")
        n_right = data.draw(st.integers(1, 6), label="n_right")
        pair = st.tuples(st.integers(0, n_left - 1), st.integers(0, n_right - 1))
        # pairs may repeat with different scores; the list may be empty (tuning
        # then returns 1.0, the largest threshold)
        drawn = data.draw(st.lists(st.tuples(pair, st.sampled_from(levels)), max_size=30),
                          label="candidates")
        candidates = [(f"a{i}", f"b{j}", score) for (i, j), score in drawn]
        # gold may name pairs that are never candidates
        gold = data.draw(st.sets(st.tuples(st.integers(0, n_left + 1), st.integers(0, n_right + 1)),
                                 min_size=1, max_size=6), label="gold")
        gold = {(f"a{i}", f"b{j}") for i, j in gold}
        assert _tune(candidates, gold) == grid_tune_threshold(candidates, gold)


class TestSelectionCount:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Number of ``_mutual_best`` calls made so far."""
        count = [0]
        original = qemine.mining._mutual_best

        def counting(*args):
            count[0] += 1
            return original(*args)

        monkeypatch.setattr(qemine.mining, "_mutual_best", counting)
        return count

    def test_tune_threshold_selects_once(self, calls):
        rng = np.random.default_rng(17)
        candidates = [(f"a{i}", f"b{j}", float(rng.uniform())) for i in range(20) for j in range(20)]
        _tune(candidates, {(f"a{k}", f"b{k}") for k in range(10)})
        assert calls[0] == 1

    def test_auto_mine_bucc_selects_at_most_twice(self, calls):
        rng = np.random.default_rng(18)
        values = rng.uniform(size=(15, 15))
        corpus = _corpus_from_size(15, 15)
        scorer = _MatrixScorer(values, list(corpus.side_a.values()), list(corpus.side_b.values()))
        gold = {(f"a{k}", f"b{k}") for k in range(8)}
        mine_bucc(corpus, _RandomEmbedder(seed=8), scorer, MiningConfig(5, "auto"), gold)
        assert 1 <= calls[0] <= 2


class TestF1:
    def test_perfect(self):
        assert f1_score({(1, 1)}, {(1, 1)}) == (1.0, 1.0, 1.0)

    def test_empty_prediction_convention(self):
        assert f1_score(set(), {(1, 1)}) == (0.0, 0.0, 0.0)

    def test_arithmetic(self):
        predicted = {(1, 1), (2, 2), (3, 9), (4, 9)}
        gold = {(k, k) for k in range(1, 9)}
        precision, recall, f1 = f1_score(predicted, gold)
        assert precision == 0.5
        assert recall == 0.25
        assert f1 == pytest.approx(1 / 3, abs=1e-12)
