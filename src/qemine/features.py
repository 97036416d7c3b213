"""Deterministic hashed character n-gram featurization.

A sentence is lowercased and split on whitespace; every word is wrapped
in the boundary marker ``▁`` and character n-grams of the configured
orders are extracted per word (n-grams never cross word boundaries).
Each n-gram is hashed with 64-bit FNV-1a over its UTF-8 bytes (the seed
is XORed into the offset basis) and masked to ``n_features - 1``, so
``n_features`` must be a power of two.  Bucket counts are L2-normalized;
empty or whitespace-only text maps to the zero vector.

A text's bucket counts are the sum of its words' bucket counts, so
``featurize_all`` works per distinct word, not per gram occurrence.  It
counts each text's words (a texts × distinct-words matrix) and each
distinct word's gram buckets (a distinct-words × ``n_features`` matrix);
their sparse product is the count matrix.  The grams are never built as
strings: the marked distinct words are read as one array of code points,
and a rolling FNV-1a over their UTF-8 bytes hashes every order in
``max(orders)`` vectorized passes, since a gram's hash state is its
prefix's folded with one more code point.  Counts are integers held in
float64, so every sum and norm is exact and the result does not depend
on summation order.  Besides the result, memory grows with the call's
word occurrences and its distinct words' code points times the number of
orders.  The per-text path it replaces, with a scalar FNV-1a, is the
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count

import numpy as np
from scipy import sparse

__all__ = ["FeaturizerConfig", "distinct_texts", "featurize_all"]

WORD_MARKER = "▁"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


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


def featurize_all(texts, config: FeaturizerConfig) -> sparse.csr_matrix:
    """Featurize a sequence of texts into a CSR matrix, one row per text.

    Each distinct word's grams are hashed once per call.  Raises
    ``ValueError`` on no texts and ``UnicodeEncodeError`` on a text
    that holds a lone surrogate.
    """
    word_lists = [text.lower().split() for text in texts]
    if not word_lists:
        raise ValueError("cannot featurize an empty list of texts")
    words, word_ids = distinct_texts(chain.from_iterable(word_lists))
    text_starts = np.zeros(len(word_lists) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, word_lists), dtype=np.intp, count=len(word_lists)),
              out=text_starts[1:])
    buckets, word_starts = _gram_buckets(words, config)
    # The transposes of the texts × words and words × buckets count
    # matrices, read straight off the flat id arrays as CSC.
    occurrences_t = sparse.csc_matrix((np.ones(len(word_ids)), word_ids, text_starts),
                                      shape=(len(words), len(word_lists)))
    word_buckets_t = sparse.csc_matrix((np.ones(len(buckets)), buckets, word_starts),
                                       shape=(config.n_features, len(words)))
    # The bucket-major product, turned text-major by one conversion,
    # comes out with each row's columns sorted.
    counts = (word_buckets_t.tocsr() @ occurrences_t.tocsr()).T.tocsr()
    # Integer counts make every row's sum of squares exact, so the rows
    # are normalized bit for bit as by one dot product per row.
    data, row_nnz = counts.data, np.diff(counts.indptr)
    filled = row_nnz > 0
    data /= np.repeat(np.sqrt(np.add.reduceat(data * data, counts.indptr[:-1][filled])),
                      row_nnz[filled])
    return counts


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
