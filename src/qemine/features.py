"""Deterministic hashed character n-gram featurization, factored by word.

A sentence is lowercased and split on whitespace; every word is wrapped
in the boundary marker ``▁`` and character n-grams of the configured
orders are extracted per word (n-grams never cross word boundaries).
Each n-gram is hashed with 64-bit FNV-1a over its UTF-8 bytes (the seed
is XORed into the offset basis) and masked to ``n_features - 1``, so
``n_features`` must be a power of two.  A text's feature vector is its
bucket counts c_t, L2-normalized; empty or whitespace-only text maps to
the zero vector.

A text's bucket counts are the sum of its words' bucket counts, so
``featurize_all`` returns them factored, as ``WordFeatures``: a texts ×
distinct-words weight matrix and a distinct-words × ``n_features``
matrix of each word's integer gram counts.  A text's weight row lists
each occurrence of its words in the text's own order, weighted by
1/‖c_t‖, so the weights times the gram counts are the normalized
features, and the encoder's hidden layer can project each distinct
word's grams once and then sum words per text (fastText's word vectors
as sums of n-gram vectors).  The grams are never built as strings: the
marked distinct words are read as one array of code points, and a
rolling FNV-1a over their UTF-8 bytes hashes every order in
``max(orders)`` vectorized passes, since a gram's hash state is its
prefix's folded with one more code point.  Besides the result, memory
grows with the call's word occurrences and its distinct words' code
points times the number of orders.  The per-text path it replaces, with
a scalar FNV-1a, is the test oracle.

Every word of a call is used, and words are numbered by first use, so
the ``WordFeatures`` that ``featurize_all`` returns is its own compact
form: the hidden layer takes its two matrices as they are.

The norms take one of two exact routes, picked from the call's sizes.
The product route builds the product of the occurrence counts and the
grams, every text's bucket counts c_t, at one sparse multiply-add per
word occurrence and stored gram entry of its word (the "expansion"), a
block of texts at a time, so its extra memory is about 12 bytes per
entry of one ``_PRODUCT_BLOCK``-entry block plus 16 bytes per word
occurrence.  The Gram route uses ‖c_t‖² = n_tᵀ G n_t, where n_t is
the text's word-occurrence counts and G = grams gramsᵀ holds the k
distinct words' inner products, so each word pair's overlap is counted
once per call, not once per text: Σ n_b² sparse multiply-adds for G,
n_b being the distinct words that hit bucket b, and occurrences × k
dense ones for R = occurrences @ G, a block of texts at a time, of
which each text sums its occurrences' entries.  The Gram route is taken
when Σ n_b² + occurrences × k / ``_DENSE_PER_SPARSE`` < expansion, so
when the call has few distinct words for its word occurrences, as a
large call over a small vocabulary has; otherwise the product stays
faster (2,000 texts over synth's 200-word vocabulary, k = 500: 5.9
against 12 ms).  The Gram route's extra memory is the dense k × k
matrix G plus one block of ``_GRAM_BLOCK`` entries of R, never a texts ×
k array; and as k ≤ occurrences, the rule keeps k² below
``_DENSE_PER_SPARSE`` × expansion.  Counts are integers held in
float64, so every sum of squares, and so every norm, is exact whatever
the route and the summation order: both routes give the same bits.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, count

import numpy as np
from scipy import sparse

__all__ = ["FeaturizerConfig", "WordFeatures", "distinct_texts", "featurize_all"]

WORD_MARKER = "▁"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Entries of R per block of the Gram route: 512 KB of float64.  On
# 2,000 to 16,384 vocabulary-50 texts (k = 125), blocks of 2**13 entries
# took 1.5-2.3x as long, the slicing per block dominating; 2**17 to 2**20
# gained at most 10%.
_GRAM_BLOCK = 1 << 16
# The dense multiply-adds of R = occurrences @ G that cost as much as one
# sparse multiply-add, in the route rule.  On synth calls (F = 4096,
# 64 to 16,384 texts at vocabularies 20 to 150; 2-vCPU x86-64 host,
# Python 3.11, numpy 2.4, scipy 1.17), a sparse multiply-add of either
# route took 15-20 ns and a dense one about 0.9 ns.  A call's rule flips
# where the divisor equals occurrences × k / (expansion - Σ n_b²).  The
# Gram route was the faster one on every call that flips at 19.2 or less
# (vocabulary 150, 16,384 texts: 52 against 58 ms) and the slower one on
# every call that flips at 22.0 or more (vocabulary 150, 8,192 texts: 27
# against 25 ms) but one: vocabulary 50 at 256 texts flips at 27.8, and
# its Gram route took 0.9 against 1.2 ms.
_DENSE_PER_SPARSE = 20
# Expansion entries per block of the product route, which holds about 12
# bytes per entry (the block's product, squared in place): 0.8 MB.  The
# bench's largest product-route call (a train-default fit, about 33k
# entries) is one block.
_PRODUCT_BLOCK = 1 << 16


@dataclass(frozen=True)
class FeaturizerConfig:
    """Configuration of the hashed n-gram featurizer."""

    ngram_orders: tuple[int, ...] = (1, 2, 3, 4)
    n_features: int = 32768
    hash_seed: int = 0

    def __post_init__(self):
        orders = tuple(sorted(set(int(k) for k in self.ngram_orders)))
        if not orders:
            raise ValueError("ngram_orders must be non-empty")
        if any(k < 1 for k in orders):
            raise ValueError("n-gram orders must be >= 1")
        n = self.n_features
        if n < 1 or (n & (n - 1)) != 0:
            raise ValueError(f"n_features must be a power of two, got {n}")
        object.__setattr__(self, "ngram_orders", orders)


@dataclass(frozen=True, eq=False)
class WordFeatures:
    """Word-factored features of texts: text ``rows[i]``'s normalized bucket
    counts are row ``rows[i]`` of ``weights @ grams``.

    ``weights`` is the featurized texts × distinct-words matrix.  Its row
    for a text lists the text's word occurrences in the text's own order,
    repeats included, each weighted by 1/‖c_t‖ (0 where c_t is empty).
    ``grams`` is the distinct-words × ``n_features`` matrix of each word's
    integer gram counts, its buckets ascending.  Indexing selects texts
    among ``rows`` and shares both matrices, so selections of one
    featurization can be joined without copying them.
    """

    weights: sparse.csr_matrix
    grams: sparse.csr_matrix
    rows: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.grams.shape[1]

    def __getitem__(self, index) -> "WordFeatures":
        return replace(self, rows=self.rows[index])

    def join(self, other: "WordFeatures") -> "WordFeatures":
        """These rows followed by ``other``'s, which must come from the same featurization."""
        if other.weights is not self.weights:
            raise ValueError("only rows of one featurization can be joined")
        return replace(self, rows=np.concatenate([self.rows, other.rows]))

    @cached_property
    def compact(self) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """The rows' weights over only the k words they use, and those
        words' rows of ``grams``, in ascending word id.  Each weight row
        keeps its text's word order.  Computed once per instance; a whole
        featurization, as ``featurize_all`` returns it, is already its own
        compact form, while its selections and joins derive theirs."""
        data, word_ids, indptr = _take_rows(self.weights, self.rows)
        words, local = np.unique(word_ids, return_inverse=True)
        weights = sparse.csr_matrix((data, local, indptr), shape=(len(self.rows), len(words)))
        grams = sparse.csr_matrix(_take_rows(self.grams, words),
                                  shape=(len(words), self.grams.shape[1]))
        return weights, grams


def _take_rows(matrix: sparse.csr_matrix, rows: np.ndarray) -> tuple:
    """The (data, indices, indptr) of ``matrix[rows]``, entries as stored;
    scipy's row indexing costs several times more on small selections."""
    starts = matrix.indptr[rows]
    lengths = matrix.indptr[rows + 1] - starts
    indptr = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(lengths, out=indptr[1:])
    at = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
    return matrix.data[at], matrix.indices[at], indptr


def featurize_all(texts, config: FeaturizerConfig) -> WordFeatures:
    """Featurize a sequence of texts into ``WordFeatures``, one row per text.

    Each distinct word's grams are hashed once per call.  Raises
    ``ValueError`` on no texts and ``UnicodeEncodeError`` on a text
    that holds a lone surrogate.
    """
    word_lists = [text.lower().split() for text in texts]
    if not word_lists:
        raise ValueError("cannot featurize an empty list of texts")
    words, word_ids = distinct_texts(chain.from_iterable(word_lists))
    text_lengths = np.fromiter(map(len, word_lists), dtype=np.intp, count=len(word_lists))
    text_starts = np.zeros(len(word_lists) + 1, dtype=np.intp)
    np.cumsum(text_lengths, out=text_starts[1:])
    buckets, word_starts = _gram_buckets(words, config)
    grams = sparse.csr_matrix((np.ones(len(buckets)), buckets, word_starts),
                              shape=(len(words), config.n_features))
    grams.sum_duplicates()
    occurrences = sparse.csr_matrix((np.ones(len(word_ids)), word_ids, text_starts),
                                    shape=(len(word_lists), len(words)))
    route = _gram_norms if _takes_gram_route(occurrences, grams) else _product_norms
    norms = np.sqrt(route(occurrences, grams))
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    occurrences.data = np.repeat(scale, text_lengths)
    whole = WordFeatures(occurrences, grams, np.arange(len(word_lists)))
    # Every word is used and numbered by first use, so ``compact`` would
    # find np.unique's inverse to be the identity and rebuild both matrices.
    vars(whole)["compact"] = (occurrences, grams)
    return whole


def _takes_gram_route(occurrences: sparse.csr_matrix, grams: sparse.csr_matrix) -> bool:
    """Whether the Gram route's multiply-adds, Σ n_b² sparse ones for G
    (n_b: the distinct words that hit bucket b) plus occurrences × k dense
    ones for R, weighed at ``_DENSE_PER_SPARSE`` dense ones per sparse
    one, are fewer than the product route's, one per word occurrence and
    stored gram entry of its word."""
    hits = np.bincount(grams.indices, minlength=grams.shape[1])
    uses = np.bincount(occurrences.indices, minlength=grams.shape[0])
    expansion = int(uses @ np.diff(grams.indptr))
    gram_cost = int(hits @ hits) + occurrences.nnz * grams.shape[0] // _DENSE_PER_SPARSE
    return gram_cost < expansion


def _product_norms(occurrences: sparse.csr_matrix, grams: sparse.csr_matrix) -> np.ndarray:
    """‖c_t‖² from the product ``occurrences @ grams``, every text's integer
    bucket counts, taken a block of texts at a time whose expansion is at
    most ``_PRODUCT_BLOCK`` entries (a text with more is a block alone)."""
    reach = np.zeros(occurrences.nnz + 1, dtype=np.intp)
    np.cumsum(np.diff(grams.indptr)[occurrences.indices], out=reach[1:])
    reach = reach[occurrences.indptr]  # the expansion before each text
    squares = np.empty(occurrences.shape[0])
    ones = np.ones(grams.shape[1])
    start = 0
    while start < len(squares):
        stop = max(start + 1, int(np.searchsorted(reach, reach[start] + _PRODUCT_BLOCK,
                                                  side="right")) - 1)
        counts = occurrences[start:stop] @ grams
        counts.data *= counts.data
        squares[start:stop] = counts @ ones
        start = stop
    return squares


def _gram_norms(occurrences: sparse.csr_matrix, grams: sparse.csr_matrix) -> np.ndarray:
    """‖c_t‖² = n_tᵀ G n_t, with G = grams gramsᵀ the k words' integer
    inner products: the sum of R[t, w] = (n_t G)[w] over t's word
    occurrences, R computed a block of texts at a time."""
    k = grams.shape[0]
    gram = (grams @ grams.T).toarray()
    squares = np.empty(occurrences.shape[0])
    step = max(1, _GRAM_BLOCK // max(k, 1))
    for start in range(0, len(squares), step):
        block = occurrences[start : start + step]
        local = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
        reach = (block @ gram).ravel()[local * k + block.indices]
        squares[start : start + step] = np.bincount(local, reach, minlength=block.shape[0])
    return squares


def _gram_buckets(words: list, config: FeaturizerConfig) -> tuple[np.ndarray, np.ndarray]:
    """The buckets of every gram of the marked ``words``, word by word,
    and each word's start among them.

    A gram of order k is its order-(k - 1) prefix's FNV-1a state folded
    with the UTF-8 bytes of one more code point, so ``max(orders)``
    passes over the words' code points hash every order.  Pass k folds
    the code point k - 1 further on into the state of every start, past
    word ends too; the grams of order k are the starts with at least k
    code points left in their word, so the table cells that pass k
    leaves unset are never read.  Products of uint64 arrays wrap modulo
    2**64, as FNV-1a's 64-bit arithmetic needs.
    """
    orders = config.ngram_orders
    lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words)) + 2
    marked = WORD_MARKER + (2 * WORD_MARKER).join(words) + WORD_MARKER if words else ""
    # The explicit byte order keeps the read independent of the host's.
    points = np.frombuffer(marked.encode("utf-32-le"), dtype="<u4")
    width = 1 + (points >= 0x80) + (points >= 0x800) + (points >= 0x10000)
    utf8 = np.empty((4, len(points)), dtype=np.uint64)
    utf8[0] = points >> 6 * (width - 1) | np.array([0, 0, 0xC0, 0xE0, 0xF0])[width]
    for j in range(1, 4):
        utf8[j] = 0x80 | points >> 6 * np.maximum(width - 1 - j, 0) & 0x3F
    # Code points left in each start's word, itself included, decide
    # which orders a start begins a gram of.
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(points))
    is_gram = left[:, None] >= np.array(orders)
    table = np.empty(is_gram.shape, dtype=np.intp)
    state = np.full(len(points), np.uint64(_FNV_OFFSET ^ (config.hash_seed & _MASK64)))
    prime, mask = np.uint64(_FNV_PRIME), np.uint64(config.n_features - 1)
    for k in range(1, orders[-1] + 1):
        step, wide = utf8[:, k - 1 :], width[k - 1 :]
        state = (state[: len(wide)] ^ step[0]) * prime
        for j in range(1, 4):
            state = np.where(wide > j, (state ^ step[j]) * prime, state)
        if k in orders:
            table[: len(state), orders.index(k)] = state & mask
    # Row-major order keeps each word's grams together.
    word_starts = np.zeros(len(words) + 1, dtype=np.intp)
    np.cumsum(sum(np.maximum(lengths - (k - 1), 0) for k in orders), out=word_starts[1:])
    return table[is_gram], word_starts


def distinct_texts(texts) -> tuple[list, np.ndarray]:
    """The distinct texts in first-occurrence order, and each input text's row among them."""
    first: dict = {}
    # Each text maps to the position where it first occurs, then the
    # positions are ranked.  Both loops run in C.
    seen = np.fromiter(map(first.setdefault, texts, count()), dtype=np.intp)
    rank = np.empty(len(seen), dtype=np.intp)
    rank[np.fromiter(first.values(), dtype=np.intp, count=len(first))] = np.arange(len(first))
    return list(first), rank[seen]
