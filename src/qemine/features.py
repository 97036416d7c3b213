"""Deterministic hashed character n-gram featurization.

A sentence is lowercased and split on whitespace; every word is wrapped
in the boundary marker ``▁`` and character n-grams of the configured
orders are extracted per word (n-grams never cross word boundaries).
Each n-gram is hashed with 64-bit FNV-1a over its UTF-8 bytes (the seed
is XORed into the offset basis) and masked to ``n_features - 1``, so
``n_features`` must be a power of two.  Bucket counts are L2-normalized;
empty or whitespace-only text maps to the zero vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = ["FeaturizerConfig", "FeatureVector", "distinct_texts", "featurize", "fnv1a_64",
           "stack_features"]

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


@dataclass(frozen=True)
class FeatureVector:
    """Sparse L2-normalized bucket-count vector.

    ``indices`` is strictly increasing; ``values`` are positive and the
    vector has unit L2 norm unless it is empty (zero vector).
    """

    indices: np.ndarray
    values: np.ndarray
    n_features: int = 32768

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def norm(self) -> float:
        return float(np.sqrt(np.dot(self.values, self.values)))

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.n_features)
        dense[self.indices] = self.values
        return dense


def _iter_ngrams(text: str, orders: tuple[int, ...]):
    for word in text.lower().split():
        marked = WORD_MARKER + word + WORD_MARKER
        n = len(marked)
        for k in orders:
            for i in range(n - k + 1):
                yield marked[i : i + k]


def featurize(text: str, config: FeaturizerConfig) -> FeatureVector:
    """Hash the text's character n-grams into a normalized sparse vector."""
    mask = config.n_features - 1
    counts: dict[int, int] = {}
    for gram in _iter_ngrams(text, config.ngram_orders):
        bucket = fnv1a_64(gram.encode("utf-8"), config.hash_seed) & mask
        counts[bucket] = counts.get(bucket, 0) + 1
    if not counts:
        empty = np.empty(0)
        return FeatureVector(empty.astype(np.int64), empty, config.n_features)
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([counts[i] for i in indices], dtype=np.float64)
    values /= np.sqrt(np.dot(values, values))
    return FeatureVector(indices, values, config.n_features)


def stack_features(vectors: list[FeatureVector], n_features: int | None = None) -> sparse.csr_matrix:
    """Stack feature vectors into one CSR matrix, one row per vector."""
    if not vectors:
        raise ValueError("cannot stack an empty list of feature vectors")
    if n_features is None:
        n_features = vectors[0].n_features
    if any(fv.n_features != n_features for fv in vectors):
        raise ValueError("feature vectors disagree on n_features")
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([fv.nnz for fv in vectors])
    if indptr[-1] == 0:
        return sparse.csr_matrix((len(vectors), n_features), dtype=np.float64)
    indices = np.concatenate([fv.indices for fv in vectors if fv.nnz])
    data = np.concatenate([fv.values for fv in vectors if fv.nnz])
    return sparse.csr_matrix((data, indices, indptr), shape=(len(vectors), n_features))


def featurize_all(texts, config: FeaturizerConfig) -> sparse.csr_matrix:
    """Featurize a sequence of texts into a CSR matrix."""
    return stack_features([featurize(t, config) for t in texts], config.n_features)


def distinct_texts(texts) -> tuple[list, np.ndarray]:
    """The distinct texts in first-occurrence order, and each input text's row among them."""
    first: dict = {}
    rows = [first.setdefault(text, len(first)) for text in texts]
    return list(first), np.array(rows, dtype=np.intp)
