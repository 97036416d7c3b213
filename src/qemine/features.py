"""Deterministic hashed character n-gram featurization.

A sentence is lowercased and split on whitespace; every word is wrapped
in the boundary marker ``▁`` and character n-grams of the configured
orders are extracted per word (n-grams never cross word boundaries).
Each n-gram is hashed with 64-bit FNV-1a over its UTF-8 bytes (the seed
is XORed into the offset basis) and masked to ``n_features - 1``, so
``n_features`` must be a power of two.  Bucket counts are L2-normalized;
empty or whitespace-only text maps to the zero vector.

``featurize_all`` keeps two caches that live for one call: each distinct
word's list of bucket ids, and each gram's bucket, filled only when a
new word is met.  It collects one flat bucket-id list and builds the CSR
matrix from it with numpy, so memory grows with the call's own distinct
words and grams.  The per-text path it replaces is the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = ["FeaturizerConfig", "distinct_texts", "featurize_all", "fnv1a_64"]

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


def featurize_all(texts, config: FeaturizerConfig) -> sparse.csr_matrix:
    """Featurize a sequence of texts into a CSR matrix, one row per text.

    A word's bucket ids are computed once per call, and a gram is hashed
    only when a new word contains it.  Raises ``ValueError`` on no texts.
    """
    mask = config.n_features - 1
    word_buckets: dict[str, list[int]] = {}
    gram_buckets: dict[str, int] = {}
    ids: list[int] = []
    lengths: list[int] = []
    for text in texts:
        start = len(ids)
        for word in text.lower().split():
            buckets = word_buckets.get(word)
            if buckets is None:
                marked = WORD_MARKER + word + WORD_MARKER
                buckets = []
                for k in config.ngram_orders:
                    for i in range(len(marked) - k + 1):
                        gram = marked[i : i + k]
                        bucket = gram_buckets.get(gram)
                        if bucket is None:
                            bucket = fnv1a_64(gram.encode("utf-8"), config.hash_seed) & mask
                            gram_buckets[gram] = bucket
                        buckets.append(bucket)
                word_buckets[word] = buckets
            ids.extend(buckets)
        lengths.append(len(ids) - start)
    if not lengths:
        raise ValueError("cannot featurize an empty list of texts")
    n_rows, n_features = len(lengths), config.n_features
    offsets = np.repeat(np.arange(n_rows, dtype=np.int64) * n_features, lengths)
    keys, counts = np.unique(offsets + np.array(ids, dtype=np.int64), return_counts=True)
    rows = keys // n_features
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    # Integer counts make every row's sum of squares exact, so the rows
    # are normalized bit for bit as by one dot product per row.
    values = counts.astype(np.float64)
    values /= np.sqrt(np.bincount(rows, weights=values * values, minlength=n_rows))[rows]
    return sparse.csr_matrix((values, keys & mask, indptr), shape=(n_rows, n_features))


def distinct_texts(texts) -> tuple[list, np.ndarray]:
    """The distinct texts in first-occurrence order, and each input text's row among them."""
    first: dict = {}
    rows = [first.setdefault(text, len(first)) for text in texts]
    return list(first), np.array(rows, dtype=np.intp)
