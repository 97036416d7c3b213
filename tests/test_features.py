import hashlib
import math
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (bucket_counts, featurize, fnv1a_64, materialize, occurrence_counts,
                     stack_features)
from qemine import features, synth
from qemine.features import FeaturizerConfig, distinct_texts, featurize_all


def _reference_fnv1a(data: bytes, seed: int = 0) -> int:
    """Independent FNV-1a oracle, written from the published constants."""
    h = 0xCBF29CE484222325 ^ (seed & 0xFFFFFFFFFFFFFFFF)
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % (1 << 64)
    return h


class TestHash:
    def test_matches_reference_on_known_strings(self):
        for text in ("", "a", "ab", "▁ab▁", "hello world", "über"):
            assert fnv1a_64(text.encode("utf-8")) == _reference_fnv1a(text.encode("utf-8"))

    def test_seed_changes_hash(self):
        data = b"ngram"
        assert fnv1a_64(data, 0) != fnv1a_64(data, 1)
        assert fnv1a_64(data, 7) == _reference_fnv1a(data, 7)


class TestConfig:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            FeaturizerConfig((1,), 1000, 0)

    def test_rejects_empty_orders(self):
        with pytest.raises(ValueError):
            FeaturizerConfig((), 256, 0)

    def test_orders_are_sorted_and_deduped(self):
        cfg = FeaturizerConfig((3, 1, 3), 256, 0)
        assert cfg.ngram_orders == (1, 3)


class TestFeaturize:
    def test_empty_and_whitespace_give_zero_vector(self):
        cfg = FeaturizerConfig((1, 2), 256, 0)
        for text in ("", "   ", "\t\n"):
            fv = featurize(text, cfg)
            assert fv.nnz == 0
            assert fv.norm() == 0.0

    def test_deterministic(self):
        cfg = FeaturizerConfig((1, 2, 3, 4), 512, 3)
        a = featurize("some sample sentence", cfg)
        b = featurize("some sample sentence", cfg)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)

    def test_hand_hashed_unigrams(self):
        # "ab" marked becomes ▁ a b ▁; unigram counts {▁:2, a:1, b:1},
        # so the normalized values are 2/sqrt(6) and 1/sqrt(6).
        cfg = FeaturizerConfig((1,), 64, 0)
        fv = featurize("ab", cfg)
        marker = _reference_fnv1a("▁".encode("utf-8")) & 63
        bucket_a = _reference_fnv1a(b"a") & 63
        bucket_b = _reference_fnv1a(b"b") & 63
        expected = {marker: 2, bucket_a: 1, bucket_b: 1}
        assert set(fv.indices) == set(expected)
        norm = np.sqrt(sum(c * c for c in expected.values()))
        for idx, val in zip(fv.indices, fv.values):
            assert val == pytest.approx(expected[idx] / norm, abs=1e-15)
        assert fv.norm() == pytest.approx(1.0, abs=1e-12)

    def test_lowercases_before_hashing(self):
        cfg = FeaturizerConfig((1, 2), 256, 0)
        a = featurize("Hello World", cfg)
        b = featurize("hello world", cfg)
        assert np.array_equal(a.indices, b.indices)

    def test_ngrams_do_not_cross_word_boundaries(self):
        # With order-4 grams only, two 1-letter words produce the same
        # marked trigrams regardless of which words are adjacent.
        cfg = FeaturizerConfig((4,), 256, 0)
        assert featurize("a b", cfg).nnz == 0  # marked words are length 3

    def test_unit_norm_for_random_texts(self):
        cfg = FeaturizerConfig((1, 2, 3, 4), 2048, 5)
        rng = np.random.default_rng(9)
        alphabet = "abcdefghij"
        for _ in range(50):
            words = [
                "".join(alphabet[k] for k in rng.integers(0, 10, rng.integers(1, 8)))
                for _ in range(rng.integers(1, 9))
            ]
            fv = featurize(" ".join(words), cfg)
            assert fv.norm() == pytest.approx(1.0, abs=1e-12)
            assert np.all(fv.indices < cfg.n_features)
            assert np.all(fv.values > 0)

    def test_hash_seed_moves_buckets_but_not_norm(self):
        base = FeaturizerConfig((1, 2, 3), 1024, 0)
        moved = FeaturizerConfig((1, 2, 3), 1024, 99)
        text = "ein kleiner satz zum testen"
        fv0 = featurize(text, base)
        fv1 = featurize(text, moved)
        assert not np.array_equal(fv0.indices, fv1.indices)
        assert fv0.norm() == pytest.approx(fv1.norm(), abs=1e-12)


class TestStack:
    def test_matrix_rows_match_dense_vectors(self):
        cfg = FeaturizerConfig((1, 2), 128, 0)
        texts = ["one two", "three", "", "four five six"]
        X = featurize_all(texts, cfg)
        assert X.shape == (4, 128)
        X = materialize(X)
        for row, text in enumerate(texts):
            dense = featurize(text, cfg).to_dense()
            assert np.allclose(X[row].toarray().ravel(), dense)


def _assert_word_factored(texts, cfg):
    """``featurize_all``'s word-factored features of ``texts``: each weight
    row lists its text's words in the text's order, weighted by 1/‖c_t‖;
    the integer occurrence counts times the gram counts are the per-text
    oracle's bucket counts, and each norm route alone gives the oracle's
    ‖c_t‖² bytes.  Returns their materialized matrix."""
    X = featurize_all(texts, cfg)
    assert X.shape == (len(texts), cfg.n_features)
    words = [text.lower().split() for text in texts]
    _, word_ids = distinct_texts(chain.from_iterable(words))
    assert np.array_equal(X.weights.indptr, np.cumsum([0] + [len(w) for w in words]))
    assert np.array_equal(X.weights.indices, word_ids)
    counts = [bucket_counts(text, cfg) for text in texts]
    norms = [math.sqrt(sum(c * c for c in row.values())) for row in counts]
    scales = [1.0 / norm if norm else 0.0 for norm in norms]
    assert X.weights.data.tobytes() == np.repeat(scales, [len(w) for w in words]).tobytes()
    assert X.grams.has_canonical_format and X.grams.shape == (len(set(word_ids)), cfg.n_features)
    expected = np.zeros((len(texts), cfg.n_features))
    for row, row_counts in enumerate(counts):
        expected[row, list(row_counts)] = list(row_counts.values())
    assert np.array_equal((occurrence_counts(X) @ X.grams).toarray(), expected)
    squares = np.array([float(sum(c * c for c in row.values())) for row in counts])
    for route in (features._product_norms, features._gram_norms):
        routed = route(occurrence_counts(X), X.grams)
        assert routed.dtype == np.float64 and routed.tobytes() == squares.tobytes(), route
    return materialize(X)


def _assert_bit_equal(X, Y):
    assert X.shape == Y.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(X, name), getattr(Y, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert X.has_sorted_indices and Y.has_sorted_indices


# Words over a small alphabet repeat across texts; it covers case folding
# ("İ" lowercases to two code points), non-ASCII and CJK characters.
_ALPHABET = "abcAB\u00e9\u00dc\u0130\u00df\u4f60\u597d\u4e16"
_WORDS = st.text(_ALPHABET, min_size=1, max_size=6)
_SPACES = st.sampled_from([" ", "  ", "\t", "\n", " \u3000"])
_TEXTS = st.one_of(
    st.sampled_from(["", " ", "\t\n", "   "]),
    st.lists(st.tuples(_WORDS, _SPACES), max_size=8).map(lambda ws: "".join(w + s for w, s in ws)),
)


class TestFeaturizeAll:
    """``featurize_all`` is bit-equal to stacking the per-text oracle."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(texts=st.lists(_TEXTS, min_size=1, max_size=12),
           orders=st.sets(st.integers(1, 5), min_size=1, max_size=4),
           log_width=st.integers(0, 15), seed=st.integers(0, 2**64 - 1))
    @example(texts=[""], orders={1, 2, 3, 4}, log_width=15, seed=0)
    @example(texts=["", " ", "\t\n"], orders={1, 3}, log_width=1, seed=9)
    @example(texts=["İİ", "i̇i̇", "İ i̇"], orders={1, 2, 3, 4}, log_width=15, seed=0)
    @example(texts=["你好 世界 你好", "Straße STRASSE", "a a a a a"], orders={1, 3}, log_width=1,
             seed=9)
    @example(texts=["a", ""], orders={1, 2, 3, 4}, log_width=15, seed=0)
    @example(texts=["", "a"], orders={1, 2}, log_width=4, seed=2**64 - 1)
    @example(texts=["", " "], orders={2, 5}, log_width=0, seed=1)
    @example(texts=["\U0001f600\U00020000 a\U0001f600", "\U00020000"], orders={1, 2, 3, 4},
             log_width=15, seed=0)
    @example(texts=["\x00 a\x00b \x00\x00", "\x00"], orders={1, 2, 5}, log_width=8, seed=2**64 - 1)
    @example(texts=["a b \U0001f600", "a"], orders={4, 5}, log_width=15, seed=3)
    def test_matches_oracle(self, texts, orders, log_width, seed):
        # Widths down to one bucket make grams collide, so counts exceed 1.
        cfg = FeaturizerConfig(tuple(orders), 1 << log_width, seed)
        oracle = stack_features([featurize(t, cfg) for t in texts], cfg.n_features)
        _assert_bit_equal(_assert_word_factored(texts, cfg), oracle)

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_matches_oracle_on_wide_characters(self, seed):
        # One- to four-byte UTF-8 characters ("\U0001f600" and "\U00020000"
        # take four) and NUL, which is no whitespace, so it stays in words.
        alphabet = ["a", "Z", "\x00", "\u00e9", "\u00df", "\u2581", "\u4f60", "\U0001f600",
                    "\U00020000"]
        rng = np.random.default_rng(seed)
        words = ["".join(rng.choice(alphabet, rng.integers(1, 7))) for _ in range(300)]
        texts = [" ".join(rng.choice(words, rng.integers(0, 8))) for _ in range(60)]
        texts += ["\U0001f600" * 6, ""]
        cfg = FeaturizerConfig((1, 2, 3, 4, 5), 1 << 12, seed)
        _assert_bit_equal(_assert_word_factored(texts, cfg),
                          stack_features([featurize(t, cfg) for t in texts], cfg.n_features))

    def test_hashes_each_distinct_word_once(self, monkeypatch):
        calls = []

        def recording(words, config):
            calls.append((list(words), config))
            return gram_buckets(words, config)

        gram_buckets = features._gram_buckets
        monkeypatch.setattr(features, "_gram_buckets", recording)
        cfg = FeaturizerConfig((1, 2, 3), 64, 5)
        texts = ["the cat sat", "The CAT sat on the mat", "", "mat the"] * 3
        for _ in range(2):
            calls.clear()
            X = featurize_all(texts, cfg)
            assert len(calls) == 1
            words, config = calls[0]
            assert config == cfg
            assert sorted(words) == sorted({w for t in texts for w in t.lower().split()})
            _assert_bit_equal(materialize(X),
                              stack_features([featurize(t, cfg) for t in texts], 64))

    def test_lone_surrogate_raises(self):
        with pytest.raises(UnicodeEncodeError):
            featurize_all(["fine", "bad \ud800 word"], FeaturizerConfig((1, 2), 64, 0))

    def test_output_digest_is_pinned(self):
        # The SHA-256 of the materialized output's arrays as the per-gram
        # hasher made them; a change to the features (and so to every model's bytes)
        # fails here.  The computation calls no BLAS, so the digest holds
        # on every machine.
        texts = ["The cat sat on the mat", "", "Straße und Ölfeld", "你好 世界 你好",
                 "emoji \U0001f600 and \U00020000 here", "a b c", "  \t ", "naïve café NAÏVE",
                 "x"]
        X = materialize(featurize_all(texts, FeaturizerConfig((1, 2, 3, 4), 8192, 0)))
        digest = hashlib.sha256(X.indptr.tobytes() + X.indices.tobytes() + X.data.tobytes())
        assert digest.hexdigest() == (
            "060774507b9e84024d0edcb90241e141c7f9ab08987cfc3db139814fb1aeb55e")

    def test_rejects_no_texts(self):
        with pytest.raises(ValueError):
            featurize_all([], FeaturizerConfig((1,), 64, 0))


class TestCompactForm:
    """A whole featurization is its own compact form; selections derive theirs."""

    TEXTS = ["the cat sat", "", "The CAT sat on the mat", "mat the", "dog", "  "]

    @pytest.mark.parametrize("texts", [TEXTS, ["", " "], ["one"]])
    def test_whole_featurization_is_its_own_compact_form(self, texts):
        X = featurize_all(texts, FeaturizerConfig((1, 2, 3), 64, 5))
        weights, grams = X.compact
        assert weights is X.weights and grams is X.grams
        derived = X[np.arange(len(texts))].compact
        for own, other in zip((weights, grams), derived):
            assert own.shape == other.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(own, name), getattr(other, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_selections_derive_their_own(self):
        X = featurize_all(self.TEXTS, FeaturizerConfig((1, 2, 3), 64, 5))
        for part in (X[[4, 0]], X[[4]].join(X[[0]])):
            weights, grams = part.compact
            assert weights is not X.weights and grams is not X.grams
            # "dog", then "the cat sat": words 5 and 0 to 2 of the whole featurization
            assert weights.shape == (2, 4) and grams.shape == (4, 64)
            assert np.array_equal(weights.indices, [3, 0, 1, 2])
            assert np.array_equal(grams.toarray(), X.grams[[0, 1, 2, 5]].toarray())


def _synth_call(vocab, count, n_features):
    """The occurrence counts and grams of a ``featurize_all`` call over
    ``count`` distinct synth QE texts of a ``vocab``-word language."""
    records = synth.generate_qe(synth.SynthConfig(vocab_size=vocab, seed=1), count)
    texts, _ = distinct_texts(t for r in records for t in (r.source, r.target))
    assert len(texts) >= count
    X = featurize_all(texts[:count], FeaturizerConfig((1, 2, 3, 4), n_features, 0))
    return occurrence_counts(X), X.grams


class TestNormRoutes:
    """The product and Gram routes to ‖c_t‖².  Each route alone is checked
    against the per-text oracle in ``_assert_word_factored``."""

    @pytest.mark.parametrize("vocab, count", [(20, 300), (50, 2000), (200, 600)])
    def test_routes_give_the_same_features(self, monkeypatch, vocab, count):
        records = synth.generate_qe(synth.SynthConfig(vocab_size=vocab, seed=2), count)
        texts = [t for r in records for t in (r.source, r.target)] + ["", "a a a a"]
        cfg = FeaturizerConfig((1, 2, 3, 4), 4096, 0)
        routed = []
        for gram in (False, True):
            monkeypatch.setattr(features, "_takes_gram_route", lambda *_, gram=gram: gram)
            routed.append(featurize_all(texts, cfg))
        product, gram = routed
        assert product.weights.data.tobytes() == gram.weights.data.tobytes()
        occurrences = occurrence_counts(product)
        assert (features._product_norms(occurrences, product.grams).tobytes()
                == features._gram_norms(occurrences, product.grams).tobytes())

    @pytest.mark.parametrize("vocab, count, n_features, gram", [
        (50, 2000, 4096, True),      # an inference call of the bench's desk models
        (5000, 64, 8192, False),     # a fit featurization of train-default
        (200, 2000, 4096, False),    # synth's default vocabulary: k = 500
        # calls whose rule flips at 19.0 and 22.0, below the divisor
        (100, 2048, 4096, True),
        (150, 8192, 4096, True),
        # the two calls whose rule flips nearest the divisor, at 32.1 and 37.8
        (120, 2048, 4096, True),
        (200, 8192, 4096, False),
    ])
    def test_route_at_measured_sizes(self, vocab, count, n_features, gram):
        assert features._takes_gram_route(*_synth_call(vocab, count, n_features)) is gram

    def test_gram_route_memory_is_k_squared_plus_one_block(self):
        occurrences, grams = _synth_call(50, 20000, 4096)
        k = grams.shape[0]
        tracemalloc.start()
        try:
            squares = features._gram_norms(occurrences, grams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # G twice over (sparse, then dense) and one block twice over (R
        # and its texts' occurrence temporaries), all float64: 1.3 MB
        # here, against 20 MB for a texts × k array.
        bound = 2 * 8 * (k * k + features._GRAM_BLOCK)
        assert peak - squares.nbytes <= bound < occurrences.shape[0] * k * 8 // 10

    @pytest.mark.parametrize("block", [1, 200, 1000, 1 << 40])
    def test_product_route_blocks_give_the_same_norms(self, monkeypatch, block):
        # A text's expansion is 5 to 292 entries here: at 200 some texts
        # are longer than a block, at 1000 a block holds several texts.
        records = synth.generate_qe(synth.SynthConfig(vocab_size=200, seed=3), 60)
        texts = ["", *(t for r in records for t in (r.source, r.target)), " ", "a a a a"]
        X = featurize_all(texts, FeaturizerConfig((1, 2, 3, 4), 4096, 0))
        occurrences = occurrence_counts(X)
        monkeypatch.setattr(features, "_PRODUCT_BLOCK", block)
        assert (features._product_norms(occurrences, X.grams).tobytes()
                == features._gram_norms(occurrences, X.grams).tobytes())

    def test_product_route_memory_is_one_block(self):
        """A large-vocabulary call (k = 11,289, 660k expansion entries)
        holds one block's product, about 12 bytes per entry, plus 16 bytes
        per word occurrence: 1.4 MB, where the whole product took 14 MB."""
        occurrences, grams = _synth_call(5000, 4000, 8192)
        assert not features._takes_gram_route(occurrences, grams)
        tracemalloc.start()
        try:
            squares = features._product_norms(occurrences, grams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 32 * features._PRODUCT_BLOCK + 16 * occurrences.nnz
        assert peak - squares.nbytes <= bound < 4_000_000


class TestDistinctTexts:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(texts=st.lists(st.sampled_from(["a", "b", "", "a b", "\u00e9"]), max_size=20))
    def test_first_occurrence_order_and_rows(self, texts):
        distinct, rows = distinct_texts(iter(texts))
        assert distinct == list(dict.fromkeys(texts))
        assert rows.dtype == np.intp
        assert [distinct[row] for row in rows] == texts
