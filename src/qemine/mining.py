"""Corpus mining inference: score matrices, similarity-search selection,
two-stage candidate mining with mutual-best intersection, threshold
tuning and the retrieval metrics.

Filtration encoders expose ``embed(texts)``, one embedding row per
text.  Quality scorers expose ``embed(texts)`` too, plus
``score_embeddings(ua, ub)``, which scores aligned embedding rows.
Each side is embedded once; index pairs into the two sides are then
scored in blocks of ``SCORE_BLOCK`` rows, so memory holds one block of
pair features, never one per pair.

A scorer may also expose ``score_grid(ua, ub)``, the scores of every
(ua row, ub row) pair, as ``MultitaskScorer`` does.  ``score_matrix``
then scores the grid in row blocks of about ``64 * SCORE_BLOCK`` pairs,
so memory holds the n×m result plus one row block.

Tie-breaking is fixed everywhere: argmax ties go to the lowest index /
first occurrence, threshold ties to the largest threshold.

Threshold tuning is one mutual-best selection with no threshold plus a
sweep over the selected pairs' sorted scores.  That is exact because a
threshold only drops entries below it: a pair that is mutual best with
no threshold stays mutual best at every threshold up to its score, and
no other pair becomes one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Index pairs scored per ``score_embeddings`` call.  Small blocks keep each
# call's temporaries small: at 4096 pairs of 64-dim embeddings, scoring a
# 400x400 matrix page-faulted on every block and ran 40% slower.  A
# multiple of 4: OpenBLAS's matrix-vector kernels sum rows in groups of
# four, so such blocks give every pair the same bits as one call for all.
SCORE_BLOCK = 512

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
        if not np.all(np.isfinite(values)):
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
    """Selected (idA, idB, score) pairs plus selection diagnostics."""

    pairs: tuple
    threshold: float
    n_forward: int
    n_backward: int
    n_candidates: int

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        seen = {(a, b) for a, b, _ in self.pairs}
        if len(seen) != len(self.pairs):
            raise ValueError("selected pairs must be unique")
        if any(score < self.threshold for _, _, score in self.pairs):
            raise ValueError("every selected pair must score at least the threshold")

    def pair_set(self) -> set:
        return {(a, b) for a, b, _ in self.pairs}


def _score_index_pairs(scorer, side_a, side_b, rows, cols) -> np.ndarray:
    """Scores of the pairs (side_a[rows[k]], side_b[cols[k]]): each side is
    embedded once, then the pairs are scored one block at a time."""
    ua, ub = scorer.embed(side_a), scorer.embed(side_b)
    scores = np.empty(len(rows))
    for start in range(0, len(rows), SCORE_BLOCK):
        block = slice(start, start + SCORE_BLOCK)
        scores[block] = scorer.score_embeddings(ua[rows[block]], ub[cols[block]])
    return scores


def score_matrix(scorer, references, hypotheses) -> ScoreMatrix:
    """Score every (reference, hypothesis) combination with the quality scorer:
    by ``score_grid`` row blocks when the scorer has it, else by aligned
    ``score_embeddings`` blocks of ``SCORE_BLOCK`` index pairs."""
    references = list(references)
    hypotheses = list(hypotheses)
    if not references or not hypotheses:
        raise ValueError("reference and hypothesis lists must be non-empty")
    n, m = len(references), len(hypotheses)
    ua, ub = scorer.embed(references), scorer.embed(hypotheses)
    values = np.empty((n, m))
    if hasattr(scorer, "score_grid"):
        # 64 * SCORE_BLOCK pairs: 128 KiB per float32 temporary.  On a 400×400
        # grid of 64-dim rows, 81-row blocks ran as fast as one block of 400
        # rows, and 2.5 times as fast as one-row blocks.
        step = max(1, 64 * SCORE_BLOCK // m)
        for start in range(0, n, step):
            values[start : start + step] = scorer.score_grid(ua[start : start + step], ub)
        return ScoreMatrix(values)
    flat = values.reshape(-1)
    for start in range(0, n * m, SCORE_BLOCK):
        rows, cols = np.divmod(np.arange(start, min(start + SCORE_BLOCK, n * m)), m)
        flat[start : start + SCORE_BLOCK] = scorer.score_embeddings(ua[rows], ub[cols])
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
    """Pairwise cosine matrix from one embedding pass per side.

    Embeddings are L2-normalized (zero vectors stay zero) so the matrix
    is the plain inner product, clipped into [-1,1] against rounding.
    """
    side_a = list(side_a)
    side_b = list(side_b)
    ua = np.asarray(filter_model.embed(side_a), dtype=np.float64)
    ub = np.asarray(filter_model.embed(side_b), dtype=np.float64)

    def _normalize(u):
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        return np.divide(u, norms, out=np.zeros_like(u), where=norms > 0)

    values = np.clip(_normalize(ua) @ _normalize(ub).T, -1.0, 1.0)
    return ScoreMatrix(values)


def _top_n_per_row(values: np.ndarray, n: int) -> list:
    """Ascending indices of the n largest entries of each row of ``values``.

    The n-th largest value ``kth`` of a row splits it: every entry above
    ``kth`` is kept, plus the first entries equal to it, lowest index
    first, until the row has n.
    """
    rows, dim = values.shape
    if n >= dim:
        return [np.arange(dim) for _ in range(rows)]
    kth = np.partition(values, dim - n, axis=1)[:, dim - n, None]
    above = values > kth
    ties = values == kth
    room = n - above.sum(axis=1, keepdims=True)
    keep = above | (ties & (np.cumsum(ties, axis=1) <= room))
    return list(np.nonzero(keep)[1].reshape(rows, n))


def topn_candidates(matrix: ScoreMatrix, n: int):
    """Indices of the n largest entries per row and per column (ascending).

    Ties resolve to the lowest index; n past the dimension returns all.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _top_n_per_row(matrix.values, n), _top_n_per_row(matrix.values.T, n)


def _mutual_best(scored_pairs, threshold: float):
    """Forward/backward best-above-threshold selection and its intersection.

    For each left id the best-scoring right partner at or above the
    threshold (first occurrence wins ties), symmetrically for each right
    id; the selection is the intersection of the two directed sets.  A
    repeated (a, b) pair counts with its highest score.
    """
    best_a: dict = {}
    best_b: dict = {}
    for a, b, score in scored_pairs:
        if score >= threshold:
            if a not in best_a or score > best_a[a][0]:
                best_a[a] = (score, b)
            if b not in best_b or score > best_b[b][0]:
                best_b[b] = (score, a)
    forward = {(a, b) for a, (_, b) in best_a.items()}
    backward = {(a, b) for b, (_, a) in best_b.items()}
    return forward, backward, forward & backward


def mine_bucc(corpus, filter_model, scorer, config: MiningConfig = MiningConfig(),
              train_gold=None) -> MiningResult:
    """Two-stage mining: embed, shortlist top-n per sentence in both
    directions, score the shortlisted pairs, then keep mutual best
    matches at or above the threshold.

    ``threshold='auto'`` tunes the threshold on ``train_gold`` (gold id
    pairs for this corpus's training split); without it the auto setting
    is a configuration error.
    """
    ids_a = list(corpus.side_a)
    ids_b = list(corpus.side_b)
    texts_a = [corpus.side_a[i] for i in ids_a]
    texts_b = [corpus.side_b[i] for i in ids_b]

    similarity = embed_and_similarity(filter_model, texts_a, texts_b)
    row_cands, col_cands = topn_candidates(similarity, config.top_n)
    candidates = {(i, int(j)) for i, row in enumerate(row_cands) for j in row}
    candidates |= {(int(i), j) for j, col in enumerate(col_cands) for i in col}
    candidates = sorted(candidates)

    rows, cols = np.array(candidates, dtype=np.intp).reshape(-1, 2).T
    scores = _score_index_pairs(scorer, texts_a, texts_b, rows, cols)
    scored = [(ids_a[i], ids_b[j], float(s)) for (i, j), s in zip(candidates, scores)]

    if config.threshold == "auto":
        if train_gold is None:
            raise ConfigError("threshold 'auto' needs train_gold pairs to tune against")
        threshold = tune_threshold(scored, train_gold)
    else:
        threshold = float(config.threshold)

    forward, backward, selected = _mutual_best(scored, threshold)
    score_of = {(a, b): s for a, b, s in scored}
    pairs = tuple((a, b, score_of[(a, b)]) for a, b in sorted(selected))
    return MiningResult(pairs, threshold, len(forward), len(backward), len(scored))


def tune_threshold(scored_candidates, gold) -> float:
    """Threshold maximizing selection F1 over a grid of 0.01 steps plus
    every distinct candidate score; ties return the largest threshold.

    A repeated (a, b) pair counts with its highest score.  One selection
    with no threshold gives every pair that any threshold t selects: at
    t the selection is exactly the pairs it holds that score at least t.
    So the sweep counts the selected pairs and gold hits above each
    threshold in two sorted score arrays, with ``f1_score``'s arithmetic.
    """
    gold = set(gold)
    if not gold:
        raise ConfigError("cannot tune a threshold against an empty gold set")
    scored = list(scored_candidates)
    best_score: dict = {}
    for a, b, score in scored:
        if (a, b) not in best_score or score > best_score[(a, b)]:
            best_score[(a, b)] = score
    _, _, selected = _mutual_best(scored, float("-inf"))
    selected_scores = np.sort([float(best_score[pair]) for pair in selected])
    hit_scores = np.sort([float(best_score[pair]) for pair in selected if pair in gold])

    grid = {k / 100.0 for k in range(101)}
    grid.update(float(s) for _, _, s in scored)
    thresholds = np.array(sorted(grid))
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
