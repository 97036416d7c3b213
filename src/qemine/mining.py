"""Corpus mining inference: score matrices, similarity-search selection,
two-stage candidate mining with mutual-best intersection, threshold
tuning and the retrieval metrics.

Filtration encoders expose ``embed(texts)``, one embedding row per
text.  Quality scorers expose ``embed(texts)`` too, plus
``score_embeddings(ua, ub)``, which scores aligned embedding rows.
Both models embed both sides in one ``embedding.embed_sides`` call,
which featurizes each distinct sentence once per featurizer config and
embeds as ``predict`` and feature-stack training do.  The similarity
matrix is ``backprop.cosine_grid`` in float64.  Index pairs into the
two sides are then scored in blocks of ``SCORE_BLOCK`` pairs, so memory
holds one block of pair features, never one per pair.

``score_matrix`` scores every pair in row blocks of about
``GRID_BLOCK`` pairs, so memory holds the n×m result plus one row block:
by ``score_grid(ua, ub)``, the scores of every (ua row, ub row) pair,
when the scorer has it (``MultitaskScorer`` does), else by index pairs.

Tie-breaking is fixed everywhere: argmax ties go to the lowest index /
first occurrence, threshold ties to the largest threshold.

Selection works on index arrays.  The shortlist is the sorted union
of the per-row and per-column top-n, as flat codes ``i * m + j``; the
candidates are the (rows, cols, scores) arrays in that order.  The best
candidate per row (and per column) is the first position holding that
side id's highest score, found with ``np.maximum.at`` and
``np.minimum.at``; the mutual-best pairs are the positions both
directions pick.  Python objects are built only for the selected pairs.

Threshold tuning is one mutual-best selection with no threshold plus a
sweep over the selected pairs' sorted scores.  That is exact because a
threshold only drops entries below it: a pair that is mutual best with
no threshold stays mutual best at every threshold up to its score, and
no other pair becomes one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backprop, embedding
from .errors import ConfigError

# Index pairs scored per ``score_embeddings`` call.  Small blocks keep each
# call's temporaries small: at 4096 pairs of 64-dim embeddings, scoring a
# 400x400 matrix page-faulted on every block and ran 40% slower.
SCORE_BLOCK = 512
# Pairs per ``score_matrix`` row block: 256 KiB per float32 temporary of the
# grid head.  On a 400×400 grid of 64-dim rows, 163-row blocks ran 1.13x as
# fast as 81-row ones, and 327-row blocks page-faulted about 1,100 times per
# matrix.
GRID_BLOCK = 1 << 16

__all__ = [
    "ScoreMatrix",
    "MiningConfig",
    "MiningResult",
    "score_matrix",
    "mine_tatoeba",
    "tatoeba_accuracy",
    "embed_and_similarity",
    "topn_candidates",
    "mine_bucc",
    "tune_threshold",
    "f1_score",
]


@dataclass(frozen=True)
class ScoreMatrix:
    """Dense reference-by-hypothesis score matrix, indexed by input position."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ValueError(f"score matrix must be 2-D, got shape {values.shape}")
        # a finite sum has only finite terms, so only a sum that is not
        # (finite entries can overflow it) takes the exact check's n×m mask
        with np.errstate(over="ignore", invalid="ignore"):
            total = values.sum()
        if not np.isfinite(total) and not np.isfinite(values).all():
            raise ValueError("score matrix contains non-finite entries")

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class MiningConfig:
    """Candidate count and selection threshold for two-stage mining."""

    top_n: int = 10
    threshold: float | str = "auto"

    def __post_init__(self):
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")
        if self.threshold != "auto" and not 0.0 <= float(self.threshold) <= 1.0:
            raise ValueError(f"threshold must be 'auto' or in [0,1], got {self.threshold}")


@dataclass(frozen=True)
class MiningResult:
    """Selected (idA, idB, score) pairs plus selection diagnostics.

    ``shortlist_gold_recall`` is the share of the tuning gold pairs that
    made the top-n shortlist, which caps the recall tuning can reach;
    it is ``None`` when the threshold was not tuned.
    """

    pairs: tuple
    threshold: float
    n_forward: int
    n_backward: int
    n_candidates: int
    shortlist_gold_recall: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        seen = {(a, b) for a, b, _ in self.pairs}
        if len(seen) != len(self.pairs):
            raise ValueError("selected pairs must be unique")
        if any(score < self.threshold for _, _, score in self.pairs):
            raise ValueError("every selected pair must score at least the threshold")

    def pair_set(self) -> set:
        return {(a, b) for a, b, _ in self.pairs}


def _score_index_pairs(scorer, ua, ub, rows, cols) -> np.ndarray:
    """Scores of the pairs (ua[rows[k]], ub[cols[k]]) of the scorer's
    embeddings of two sides, one block of ``SCORE_BLOCK`` pairs at a time."""
    scores = np.empty(len(rows))
    for start in range(0, len(rows), SCORE_BLOCK):
        at = slice(start, start + SCORE_BLOCK)
        scores[at] = scorer.score_embeddings(ua[rows[at]], ub[cols[at]])
    return scores


def score_matrix(scorer, references, hypotheses) -> ScoreMatrix:
    """Score every (reference, hypothesis) combination with the quality scorer,
    in row blocks: by ``score_grid`` when the scorer has it, else by index pairs."""
    references = list(references)
    hypotheses = list(hypotheses)
    if not references or not hypotheses:
        raise ValueError("reference and hypothesis lists must be non-empty")
    n, m = len(references), len(hypotheses)
    [(ua, ub)] = embedding.embed_sides([scorer], [references, hypotheses])
    values = np.empty((n, m))
    step = max(1, GRID_BLOCK // m)
    for start in range(0, n, step):
        block = ua[start : start + step]
        if hasattr(scorer, "score_grid"):
            values[start : start + step] = scorer.score_grid(block, ub)
        else:
            pairs = np.divmod(np.arange(len(block) * m), m)
            values[start : start + step].flat = _score_index_pairs(scorer, block, ub, *pairs)
    return ScoreMatrix(values)


def mine_tatoeba(matrix: ScoreMatrix) -> list[tuple[int, int]]:
    """Per reference row, the hypothesis column with the highest score.

    Ties resolve to the lowest column index.
    """
    return list(enumerate(matrix.values.argmax(axis=1).tolist()))


def tatoeba_accuracy(predicted, size: int) -> float:
    """Fraction of rows whose selected column equals the row index."""
    rows = [row for row, _ in predicted]
    if sorted(rows) != list(range(size)):
        raise ValueError("predictions must cover every row exactly once")
    return sum(1 for row, col in predicted if row == col) / size


def embed_and_similarity(filter_model, side_a, side_b) -> ScoreMatrix:
    """Pairwise cosine matrix of the filter's embeddings of two sides."""
    [(ua, ub)] = embedding.embed_sides([filter_model], [side_a, side_b])
    return _cosine_matrix(ua, ub)


def _cosine_matrix(ua, ub) -> ScoreMatrix:
    """Cosines of every (ua row, ub row) pair, from ``backprop.cosine_grid``
    on float64 copies of the embeddings."""
    return ScoreMatrix(backprop.cosine_grid(np.asarray(ua, dtype=np.float64),
                                            np.asarray(ub, dtype=np.float64)))


def _top_n_per_row(values: np.ndarray, n: int) -> list:
    """Ascending indices of the n largest entries of each row of ``values``.

    The n-th largest value ``kth`` of a row splits it: every entry above
    ``kth`` is kept, plus the first entries equal to it, lowest index
    first, until the row has n.  Only rows with more such ties than room
    left need the running tie count.
    """
    rows, dim = values.shape
    if n >= dim:
        return [np.arange(dim) for _ in range(rows)]
    # a copy, so the partitioned n×dim matrix is freed at once
    kth = np.partition(values, dim - n, axis=1)[:, dim - n, None].copy()
    keep = values > kth
    ties = values == kth
    room = n - keep.sum(axis=1)
    crowded = np.flatnonzero(ties.sum(axis=1) > room)
    if crowded.size:
        tied = ties[crowded]
        tied &= np.cumsum(tied, axis=1) <= room[crowded, None]
        ties[crowded] = tied
    keep |= ties
    # the column of each kept entry, row by row: a third of np.nonzero's time
    return list((np.flatnonzero(keep) % dim).reshape(rows, n))


def topn_candidates(matrix: ScoreMatrix, n: int):
    """Indices of the n largest entries per row and per column (ascending).

    Ties resolve to the lowest index; n past the dimension returns all.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _top_n_per_row(matrix.values, n), _top_n_per_row(matrix.values.T, n)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by one sort.  On a 2-vCPU x86-64 host, numpy
    2.4's hash-based ``np.unique`` took 0.74 ms on 6,000 shortlist codes,
    the sort 0.04 ms."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _in_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Whether each of ``values`` is in the ascending array ``table``.
    On 120 gold codes and 4,446 candidate codes, numpy 2.4's ``np.isin``
    took 0.8 ms and this binary search 0.01 ms."""
    at = np.searchsorted(table, values)
    found = at < len(table)
    found[found] = table[at[found]] == values[found]
    return found


def _shortlist(row_cands, col_cands, n: int) -> np.ndarray:
    """Sorted unique codes ``i * n_b + j`` of the union of the n-long
    (or shorter) per-row and per-column shortlists of an n_a×n_b matrix."""
    n_a, n_b = len(row_cands), len(col_cands)
    by_row = np.array(row_cands, dtype=np.intp).reshape(n_a, min(n, n_b))
    by_col = np.array(col_cands, dtype=np.intp).reshape(n_b, min(n, n_a))
    return _sorted_unique(np.concatenate([
        (np.arange(n_a)[:, None] * n_b + by_row).ravel(),
        (by_col * n_b + np.arange(n_b)[:, None]).ravel(),
    ]))


def _best_per(side: np.ndarray, scores: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Of the positions ``keep``, the one with the highest score per
    ``side`` id, in id order; the first position wins ties."""
    side, scores = side[keep], scores[keep]
    size = side.max(initial=-1) + 1
    best = np.full(size, -np.inf)
    np.maximum.at(best, side, scores)
    at_best = np.flatnonzero(scores == best[side])
    first = np.full(size, len(side))
    np.minimum.at(first, side[at_best], at_best)
    return keep[first[first < len(side)]]


def _mutual_best(rows, cols, scores, threshold: float):
    """Forward/backward best-above-threshold selection and its intersection.

    Candidate k is the pair (rows[k], cols[k]) with ``scores[k]``.  For
    each row the best-scoring candidate at or above the threshold (first
    occurrence wins ties), symmetrically for each column; the selection
    is the intersection of the two.  A repeated pair counts with its
    highest score.  Returns three arrays of candidate positions: forward
    (one per row), backward (one per column) and selected (ascending).
    """
    keep = np.flatnonzero(scores >= threshold)
    forward = _best_per(rows, scores, keep)
    backward = _best_per(cols, scores, keep)
    # a pair's winning position is its first one at its highest score, in
    # both directions, so pairs picked by both share a position
    return forward, backward, np.intersect1d(forward, backward, assume_unique=True)


def _gold_codes(gold, ids_a, ids_b) -> np.ndarray:
    """Sorted codes ``i * len(ids_b) + j`` of the gold id pairs whose ids
    are on the two sides; other gold pairs have no code."""
    index_a = {a: i for i, a in enumerate(ids_a)}
    index_b = {b: j for j, b in enumerate(ids_b)}
    m = len(ids_b)
    return np.sort(np.array([index_a[a] * m + index_b[b] for a, b in gold
                             if a in index_a and b in index_b], dtype=np.intp))


def mine_bucc(corpus, filter_model, scorer, config: MiningConfig = MiningConfig(),
              train_gold=None) -> MiningResult:
    """Two-stage mining: embed, shortlist top-n per sentence in both
    directions, score the shortlisted pairs, then keep mutual best
    matches at or above the threshold.

    ``threshold='auto'`` tunes the threshold on ``train_gold`` (gold id
    pairs for this corpus's training split) and reports the share of
    them in the shortlist.  ``train_gold`` is read only then: the auto
    setting without it, or it with a fixed threshold, is a configuration
    error.
    """
    if config.threshold == "auto" and train_gold is None:
        raise ConfigError("threshold 'auto' needs train_gold pairs to tune against")
    if config.threshold != "auto" and train_gold is not None:
        raise ConfigError("train_gold is read only with threshold 'auto'")
    ids_a = list(corpus.side_a)
    ids_b = list(corpus.side_b)
    texts_a = [corpus.side_a[i] for i in ids_a]
    texts_b = [corpus.side_b[i] for i in ids_b]

    (fa, fb), (ua, ub) = embedding.embed_sides([filter_model, scorer], [texts_a, texts_b])
    similarity = _cosine_matrix(fa, fb)
    row_cands, col_cands = topn_candidates(similarity, config.top_n)
    codes = _shortlist(row_cands, col_cands, config.top_n)
    rows, cols = np.divmod(codes, len(ids_b))
    scores = _score_index_pairs(scorer, ua, ub, rows, cols)

    recall = None
    if config.threshold == "auto":
        threshold = tune_threshold(rows, cols, scores, ids_a, ids_b, train_gold)
        gold = set(train_gold)
        shortlisted = _in_sorted(_gold_codes(gold, ids_a, ids_b), codes)
        recall = int(np.count_nonzero(shortlisted)) / len(gold)
    else:
        threshold = float(config.threshold)

    forward, backward, selected = _mutual_best(rows, cols, scores, threshold)
    pairs = sorted(zip([ids_a[i] for i in rows[selected].tolist()],
                       [ids_b[j] for j in cols[selected].tolist()],
                       scores[selected].tolist()))
    return MiningResult(pairs, threshold, len(forward), len(backward), len(scores), recall)


def tune_threshold(rows, cols, scores, ids_a, ids_b, gold) -> float:
    """Threshold maximizing selection F1 over a grid of 0.01 steps plus
    every distinct candidate score; ties return the largest threshold.

    Candidate k is the id pair (ids_a[rows[k]], ids_b[cols[k]]) with
    ``scores[k]``; ``gold`` holds id pairs, and gold pairs that are not
    candidates still count in recall's denominator.  A repeated pair
    counts with its highest score.  One selection with no threshold
    gives every pair that any threshold t selects: at t the selection is
    exactly the pairs it holds that score at least t.  So the sweep
    counts the selected pairs and gold hits above each threshold in two
    sorted score arrays, with ``f1_score``'s arithmetic.
    """
    gold = set(gold)
    if not gold:
        raise ConfigError("cannot tune a threshold against an empty gold set")
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    scores = np.asarray(scores, dtype=np.float64)
    _, _, selected = _mutual_best(rows, cols, scores, float("-inf"))
    # a selected position holds its pair's highest score
    selected_scores = scores[selected]
    hit = _in_sorted(rows[selected] * len(ids_b) + cols[selected], _gold_codes(gold, ids_a, ids_b))
    hit_scores = np.sort(selected_scores[hit])
    selected_scores = np.sort(selected_scores)

    # + 0.0 turns a -0.0 score into the grid's 0.0
    thresholds = _sorted_unique(np.concatenate([np.arange(101) / 100.0, scores])) + 0.0
    n = len(selected_scores) - np.searchsorted(selected_scores, thresholds, side="left")
    hits = len(hit_scores) - np.searchsorted(hit_scores, thresholds, side="left")
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = hits / n
        recall = hits / len(gold)
        f1 = 2.0 * precision * recall / (precision + recall)
    f1[(n == 0) | (precision + recall == 0.0)] = 0.0
    # the last maximum: ties go to the largest threshold
    return float(thresholds[::-1][np.argmax(f1[::-1])])


def f1_score(predicted, gold):
    """Precision, recall and F1 over exact id-pair matches.

    An empty prediction scores (0, 0, 0) by convention.
    """
    predicted = set(predicted)
    gold = set(gold)
    if not predicted:
        return 0.0, 0.0, 0.0
    hits = len(predicted & gold)
    precision = hits / len(predicted)
    recall = hits / len(gold) if gold else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2.0 * precision * recall / (precision + recall)
