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
distinct word's gram buckets (a distinct-words × ``n_features`` matrix),
hashing each distinct gram once with ``fnv1a_64_batch``; their sparse
product is the count matrix.  Counts are integers held in float64, so
every sum and norm is exact and the result does not depend on summation
order.  Besides the result, memory grows with the call's word
occurrences and its distinct words' gram occurrences.  The per-text path
it replaces is the test oracle, and ``fnv1a_64`` is the scalar reference
for the batch hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count

import numpy as np
from scipy import sparse

__all__ = ["FeaturizerConfig", "distinct_texts", "featurize_all", "fnv1a_64", "fnv1a_64_batch"]

WORD_MARKER = "▁"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes, seed: int = 0) -> int:
    """64-bit FNV-1a hash; the seed perturbs the offset basis."""
    h = _FNV_OFFSET ^ (seed & _MASK64)
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


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


def fnv1a_64_batch(data, seed: int = 0) -> np.ndarray:
    """``fnv1a_64`` of each byte string in ``data``, as a uint64 array.

    All strings are hashed together one byte column at a time, reading
    each string's ``col``-th byte from their concatenation; a hash stops
    changing past its string's last byte.  Products of uint64 arrays
    wrap modulo 2**64, as the scalar hash's mask does.
    """
    lengths = np.fromiter(map(len, data), dtype=np.intp, count=len(data))
    width = int(lengths.max(initial=0))
    # Zero padding keeps the reads of the last, shorter strings in bounds.
    joined = np.frombuffer(b"".join(data) + bytes(width), dtype=np.uint8)
    starts = np.cumsum(lengths) - lengths
    hashes = np.full(len(data), np.uint64(_FNV_OFFSET ^ (seed & _MASK64)))
    prime = np.uint64(_FNV_PRIME)
    for col in range(width):
        hashes = np.where(lengths > col, (hashes ^ joined[starts + col]) * prime, hashes)
    return hashes


def featurize_all(texts, config: FeaturizerConfig) -> sparse.csr_matrix:
    """Featurize a sequence of texts into a CSR matrix, one row per text.

    Each distinct word's grams are extracted once per call, and each
    distinct gram is hashed once.  Raises ``ValueError`` on no texts.
    """
    words, word_ids, text_starts = _flatten([text.lower().split() for text in texts])
    if len(text_starts) == 1:
        raise ValueError("cannot featurize an empty list of texts")
    orders = config.ngram_orders
    grams, gram_ids, word_starts = _flatten(
        [[m[i : i + k] for k in orders for i in range(len(m) - k + 1)]
         for m in (WORD_MARKER + word + WORD_MARKER for word in words)])
    hashes = fnv1a_64_batch([gram.encode("utf-8") for gram in grams], config.hash_seed)
    buckets = (hashes & np.uint64(config.n_features - 1)).astype(np.intp)
    # The transposes of the texts × words and words × buckets count
    # matrices, read straight off the flat id arrays as CSC.
    occurrences_t = sparse.csc_matrix((np.ones(len(word_ids)), word_ids, text_starts),
                                      shape=(len(words), len(text_starts) - 1))
    word_buckets_t = sparse.csc_matrix((np.ones(len(gram_ids)), buckets[gram_ids], word_starts),
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


def _flatten(groups: list) -> tuple[list, np.ndarray, np.ndarray]:
    """The distinct strings of ``groups``, every string's id among them, and each group's start."""
    distinct, ids = distinct_texts(chain.from_iterable(groups))
    starts = np.zeros(len(groups) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, groups), dtype=np.intp, count=len(groups)), out=starts[1:])
    return distinct, ids, starts


def distinct_texts(texts) -> tuple[list, np.ndarray]:
    """The distinct texts in first-occurrence order, and each input text's row among them."""
    first: dict = {}
    # Each text maps to the position where it first occurs, then the
    # positions are ranked.  Both loops run in C.
    seen = np.fromiter(map(first.setdefault, texts, count()), dtype=np.intp)
    rank = np.empty(len(seen), dtype=np.intp)
    rank[np.fromiter(first.values(), dtype=np.intp, count=len(first))] = np.arange(len(first))
    return list(first), rank[seen]
