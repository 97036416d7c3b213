"""Reference implementations that the package code is checked against.

``featurize`` hashes one text's n-grams with the scalar ``fnv1a_64``
into a ``FeatureVector``, with no cache, and ``stack_features`` stacks
such vectors into a CSR matrix; ``materialize`` multiplies out the
word-factored features of ``qemine.features.featurize_all``, which must
give exactly their matrix.  ``masked_sigmoid`` is the logistic function
evaluated separately on each sign's entries; ``backprop._sigmoid`` must
give its bits.  ``broadcast_abs_diff_term`` fills the grid head's |u−v|
workspace by one broadcast subtraction per chunk;
``backprop._add_abs_diff_term``, which copies rows and subtracts after,
must give its bits.
The per-example encoder, pair features and task heads mirror
``qemine.backprop``'s batched forward passes, and the per-example losses
with their analytic derivatives define the objectives its ``*_batch``
functions must agree with.  The text-pair scoring path at the end
featurizes and embeds every text of every pair; the package's
``embed`` + ``score_embeddings`` path must reproduce its scores bit for
bit, and ``per_backbone_embeddings`` embeds a feature stack's training
pairs with each backbone on its own, over each side's distinct texts.
This path's output layer and heads multiply one row at a time, each
alone in a zero block of ``backprop._ROW_BLOCK`` rows (``_row_alone``),
so a pair scores as it would alone, whatever shares the package's call.
``loop_topn_candidates`` and ``grid_tune_threshold`` are the per-row
argsort shortlist and the threshold sweep that reruns the
mutual-best selection at every grid point; the package's vectorized
shortlist and single-selection sweep must return exactly their results.
``dict_mutual_best`` is that selection over (idA, idB, score) triples
with one dict per side; the package's index-array ``_mutual_best``
must pick the same forward, backward and selected pairs.
The two-pass pair batches run the encoder once per side and add
the two sides' gradients; the package's stacked single pass must match
them up to summation order.  ``DenseAdam`` updates every entry of every
block at every step, densifying a ``ColumnGrad``; on steps that touch
every column, the package's lazy ``W1`` update must equal it bit for
bit, in float32 and in float64.  They live here, not in the package,
because only tests use them.
"""

import logging
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy import sparse

from qemine import backprop, mining
from qemine.errors import ConfigError, TrainingError
from qemine.estimators import FeatureStackScorer
from qemine.features import WORD_MARKER, FeaturizerConfig, featurize_all
from qemine.model import TASKS, EncoderModel, HeadSet

logger = logging.getLogger(__name__)


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


def fnv1a_64(data: bytes, seed: int = 0) -> int:
    """64-bit FNV-1a hash; the seed perturbs the offset basis."""
    h = 0xCBF29CE484222325 ^ (seed & 0xFFFFFFFFFFFFFFFF)
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def iter_ngrams(text: str, orders: tuple[int, ...]):
    for word in text.lower().split():
        marked = WORD_MARKER + word + WORD_MARKER
        n = len(marked)
        for k in orders:
            for i in range(n - k + 1):
                yield marked[i : i + k]


def bucket_counts(text: str, config: FeaturizerConfig) -> dict[int, int]:
    """The text's integer count per hashed n-gram bucket."""
    mask = config.n_features - 1
    counts: dict[int, int] = {}
    for gram in iter_ngrams(text, config.ngram_orders):
        bucket = fnv1a_64(gram.encode("utf-8"), config.hash_seed) & mask
        counts[bucket] = counts.get(bucket, 0) + 1
    return counts


def featurize(text: str, config: FeaturizerConfig) -> FeatureVector:
    """Hash the text's character n-grams into a normalized sparse vector."""
    counts = bucket_counts(text, config)
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


def occurrence_counts(X) -> sparse.csr_matrix:
    """The integer word-occurrence counts of ``WordFeatures`` rows: their
    weight rows with every entry 1, repeats kept as stored."""
    weights = X.weights[X.rows]
    return sparse.csr_matrix((np.ones(weights.nnz), weights.indices, weights.indptr),
                             shape=weights.shape)


def materialize(X) -> sparse.csr_matrix:
    """The L2-normalized bucket counts of ``WordFeatures`` rows as one CSR
    matrix with sorted rows: the integer counts are multiplied out, so
    each row is normalized exactly."""
    counts = occurrence_counts(X) @ X.grams
    counts.sort_indices()
    norms = np.sqrt(np.asarray(counts.multiply(counts).sum(axis=1)).ravel())
    counts.data /= np.repeat(norms, np.diff(counts.indptr))
    return counts


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function, as 1 / (1 + e^-z) on z >= 0 and e^z / (1 + e^z)
    below, so that no exponent overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def broadcast_abs_diff_term(z: np.ndarray, ua: np.ndarray, ub: np.ndarray, w: np.ndarray) -> None:
    """Add ``|ua[i] − ub[j]| @ w`` to every ``z[i, j]`` as ``backprop._add_abs_diff_term``
    must: the same chunks of ``backprop._GRID_CHUNK`` entries and per-row
    products, each chunk filled by one subtraction broadcast over its
    rows and columns."""
    step = max(1, min(len(ua), backprop._GRID_CHUNK // max(1, ub.size)))
    work = np.empty((step, *ub.shape), np.result_type(ua, ub))
    weighted = np.empty((step, len(ub)), np.result_type(work, w))
    for start in range(0, len(ua), step):
        block = ua[start : start + step]
        diff = np.subtract(block[:, None, :], ub, out=work[: len(block)])
        np.abs(diff, out=diff)
        z[start : start + step] += np.matmul(diff, w, out=weighted[: len(block)])


def encode(model: EncoderModel, fv: FeatureVector) -> np.ndarray:
    """Embed one featurized sentence: W2 @ tanh(W1 @ x + b1) + b2."""
    if fv.n_features != model.featurizer.n_features:
        raise ValueError(
            f"feature vector has {fv.n_features} buckets, model expects "
            f"{model.featurizer.n_features}"
        )
    w1 = model.w1.astype(np.float64)
    pre = w1[:, fv.indices] @ fv.values + model.b1.astype(np.float64)
    hidden = np.tanh(pre)
    return model.w2.astype(np.float64) @ hidden + model.b2.astype(np.float64)


def encode_text(model: EncoderModel, text: str) -> np.ndarray:
    return encode(model, featurize(text, model.featurizer))


def cosine_similarity(u, v) -> float:
    """Cosine of two equal-length vectors; 0 by convention if either is zero."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.sqrt(u @ u)
    nv = np.sqrt(v @ v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float((u @ v) / (nu * nv))


def regression_features(u, v) -> np.ndarray:
    """Pair features for the regression heads: [|u-v|, u*v, cos(u,v)]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return np.concatenate([np.abs(u - v), u * v, [cosine_similarity(u, v)]])


def inference_features(u, v) -> np.ndarray:
    """Pair features for the NLI head: [u, v, |u-v|, u*v]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return np.concatenate([u, v, np.abs(u - v), u * v])


def _logistic(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / e.sum()


def forward_heads(model: EncoderModel, heads: HeadSet, pair, task: str):
    """Score one (textA, textB) pair with the requested head.

    QE and STS return a scalar in (0,1); NLI returns a probability triple.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}, expected one of {TASKS}")
    u = encode_text(model, pair[0])
    v = encode_text(model, pair[1])
    if task == "nli":
        feats = np.append(inference_features(u, v), 1.0)
        return _softmax(heads.nli_w.astype(np.float64) @ feats)
    feats = regression_features(u, v)
    if task == "qe":
        w, b = heads.qe_w, heads.qe_b
    else:
        w, b = heads.sts_w, heads.sts_b
    return _logistic(float(w.astype(np.float64) @ feats + float(b[0])))


def task_loss(task: str, prediction, label):
    """Per-example loss and d(loss)/d(prediction) for one task head.

    QE/STS use squared error on a scalar prediction; NLI uses cross
    entropy on a probability triple with an integer class label.
    """
    if task in ("qe", "sts"):
        p = float(prediction)
        y = float(label)
        if not 0.0 <= y <= 1.0:
            raise ValueError(f"{task} label must lie in [0,1], got {y}")
        diff = p - y
        return diff * diff, 2.0 * diff
    if task == "nli":
        probs = np.asarray(prediction, dtype=np.float64)
        y = int(label)
        if y not in (0, 1, 2):
            raise ValueError(f"nli label must be 0, 1 or 2, got {label}")
        loss = -math.log(probs[y])
        grad = np.zeros(3)
        grad[y] = -1.0 / probs[y]
        return loss, grad
    raise ValueError(f"unknown task {task!r}")


def contrastive_loss(distance: float, label: int, margin: float = 1.0):
    """Margin contrastive loss over a similarity value and its derivative.

    loss = (1-Y) * D^2/2 + Y * max(0, m-D)^2 / 2.  Positive pairs (Y=1)
    are pushed up to the margin, negatives (Y=0) down to zero.  At the
    hinge boundary D == m the subgradient 0 is used.
    """
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    if not 0.0 < margin <= 1.0:
        raise ValueError(f"margin must lie in (0,1], got {margin}")
    if not -1.0 <= distance <= 1.0:
        raise ValueError(f"similarity must lie in [-1,1], got {distance}")
    hinge = max(0.0, margin - distance)
    loss = (1 - label) * 0.5 * distance * distance + label * 0.5 * hinge * hinge
    grad = (1 - label) * distance - label * hinge
    return loss, grad


def alignment_loss(embedding_pairs):
    """Sum of (1 - cos(x, y)) over pairs, with gradients w.r.t. each x.

    The y vectors are fixed targets and receive no gradient.  A pair with
    a zero-norm member contributes loss 1 with zero gradient.
    """
    total = 0.0
    grads = []
    for x, y in embedding_pairs:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape:
            raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
        nx = np.sqrt(x @ x)
        ny = np.sqrt(y @ y)
        if nx == 0.0 or ny == 0.0:
            logger.debug("zero-norm embedding in alignment pair; loss 1, zero gradient")
            total += 1.0
            grads.append(np.zeros_like(x))
            continue
        cos = (x @ y) / (nx * ny)
        total += 1.0 - cos
        grads.append(-(y / (nx * ny) - cos * x / (nx * nx)))
    return total, grads


# -- text-pair scoring: every text of every pair featurized and embedded ----


def _row_alone(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` one row at a time, each row the first of an otherwise zero
    block of ``backprop._ROW_BLOCK`` rows: the bits every forward product
    of the package must give a row, however many rows share its call."""
    block = np.zeros((backprop._ROW_BLOCK, x.shape[1]), dtype=x.dtype)
    out = []
    for row in x:
        block[0] = row
        out.append((block @ w)[0])
    return np.array(out)


def _embed_each(params, featurizer, texts) -> np.ndarray:
    hidden = backprop.hidden_layer(params, featurize_all(list(texts), featurizer))
    return _row_alone(hidden, params["W2"].T) + params["b2"]


def per_backbone_embeddings(backbones, texts_a, texts_b) -> list:
    """The backbones' embeddings of two aligned text lists, side by side,
    from one featurization and one forward pass per backbone and side
    over that side's distinct texts, in first-occurrence order: the
    features ``train_feature_stack``'s head must train on."""
    embedded = []
    for side in (list(texts_a), list(texts_b)):
        distinct = list(dict.fromkeys(side))
        row_of = {text: row for row, text in enumerate(distinct)}
        u = np.hstack([_embed_each(b.params(), b.featurizer, distinct) for b in backbones])
        embedded.append(u[[row_of[text] for text in side]])
    return embedded


def text_pair_embed(encoder, texts) -> np.ndarray:
    """Embeddings of a fitted ContrastiveFilter or MultitaskScorer, one
    featurization per text, repeats included."""
    return _embed_each(encoder._require_fitted(), encoder.encoder_.featurizer, texts)


def text_pair_scores(scorer, texts_a, texts_b, task="qe") -> np.ndarray:
    """Head outputs for aligned text lists: QE/STS/NLI for a fitted
    MultitaskScorer, QE for a fitted FeatureStackScorer."""
    texts_a, texts_b = list(texts_a), list(texts_b)
    if isinstance(scorer, FeatureStackScorer):
        model = scorer.model_
        blocks = []
        for backbone in model.backbones:
            p = backbone.params()
            ua = _embed_each(p, backbone.featurizer, texts_a)
            ub = _embed_each(p, backbone.featurizer, texts_b)
            blocks.append(backprop._reg_features_forward(ua, ub)[0])
        feats = np.concatenate(blocks, axis=1)
        hidden = np.tanh(_row_alone(feats, model.hidden_w.T) + model.hidden_b)
        return backprop._sigmoid(_row_alone(hidden, model.out_w) + model.out_b[0])
    params = scorer._require_fitted()
    ua = _embed_each(params, scorer.encoder_.featurizer, texts_a)
    ub = _embed_each(params, scorer.encoder_.featurizer, texts_b)
    if task == "nli":
        feats = np.concatenate([ua, ub, np.abs(ua - ub), ua * ub], axis=1)
        w = params["nli_w"]
        return backprop._softmax_rows(_row_alone(feats, w[:, :-1].T) + w[:, -1])
    feats, _ = backprop._reg_features_forward(ua, ub)
    return backprop._sigmoid(_row_alone(feats, params[f"{task}_w"]) + params[f"{task}_b"][0])


def text_pair_score_matrix(scorer, references, hypotheses) -> np.ndarray:
    """Every (reference, hypothesis) score from N*M-long text lists."""
    references, hypotheses = list(references), list(hypotheses)
    texts_a = [r for r in references for _ in hypotheses]
    texts_b = hypotheses * len(references)
    return text_pair_scores(scorer, texts_a, texts_b).reshape(len(references), len(hypotheses))


def text_pair_mine_bucc(corpus, filter_model, scorer, config, train_gold=None):
    """Two-stage mining whose shortlisted candidates are scored as two
    per-candidate text lists, shortlisted by ``loop_topn_candidates`` and
    tuned by ``grid_tune_threshold``.  Returns (selected pairs, threshold)."""
    ids_a = list(corpus.side_a)
    ids_b = list(corpus.side_b)
    texts_a = [corpus.side_a[i] for i in ids_a]
    texts_b = [corpus.side_b[i] for i in ids_b]
    embedder = SimpleNamespace(embed=lambda texts: text_pair_embed(filter_model, texts))
    similarity = mining.embed_and_similarity(embedder, texts_a, texts_b)
    row_cands, col_cands = loop_topn_candidates(similarity, config.top_n)
    candidates = {(i, int(j)) for i, row in enumerate(row_cands) for j in row}
    candidates |= {(int(i), j) for j, col in enumerate(col_cands) for i in col}
    candidates = sorted(candidates)
    scores = text_pair_scores(scorer, [texts_a[i] for i, _ in candidates],
                              [texts_b[j] for _, j in candidates])
    scored = [(ids_a[i], ids_b[j], float(s)) for (i, j), s in zip(candidates, scores)]
    if config.threshold == "auto":
        threshold = grid_tune_threshold(scored, train_gold)
    else:
        threshold = float(config.threshold)
    _, _, selected = dict_mutual_best(scored, threshold)
    score_of = {(a, b): s for a, b, s in scored}
    return tuple((a, b, score_of[(a, b)]) for a, b in sorted(selected)), threshold


# -- mining selection: per-row shortlists and a selection per threshold ------


def _top_indices(values: np.ndarray, n: int) -> np.ndarray:
    order = np.argsort(-values, kind="stable")
    return np.sort(order[:n])


def loop_topn_candidates(matrix, n: int):
    """Per row and per column, the ascending indices of the n largest
    entries from a stable argsort; ties go to the lowest index."""
    if n < 1:
        raise ValueError("n must be >= 1")
    values = matrix.values
    rows = [_top_indices(values[i], n) for i in range(values.shape[0])]
    cols = [_top_indices(values[:, j], n) for j in range(values.shape[1])]
    return rows, cols


def dict_mutual_best(scored_pairs, threshold: float):
    """Forward/backward best-above-threshold selection and its intersection,
    as sets of (a, b) id pairs.

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


def indexed_candidates(scored_pairs):
    """(rows, cols, scores, ids_a, ids_b) of (a, b, score) triples: the
    arguments of ``mining.tune_threshold`` and ``mining._mutual_best``,
    with each side's ids in order of first appearance."""
    scored_pairs = list(scored_pairs)
    ids_a = list(dict.fromkeys(a for a, _, _ in scored_pairs))
    ids_b = list(dict.fromkeys(b for _, b, _ in scored_pairs))
    index_a = {a: i for i, a in enumerate(ids_a)}
    index_b = {b: j for j, b in enumerate(ids_b)}
    rows = np.array([index_a[a] for a, _, _ in scored_pairs], dtype=np.intp)
    cols = np.array([index_b[b] for _, b, _ in scored_pairs], dtype=np.intp)
    scores = np.array([s for _, _, s in scored_pairs], dtype=np.float64)
    return rows, cols, scores, ids_a, ids_b


def grid_tune_threshold(scored_candidates, gold) -> float:
    """Threshold maximizing selection F1 over a grid of 0.01 steps plus
    every distinct candidate score, running the mutual-best selection
    once per threshold; ties return the largest threshold."""
    gold = set(gold)
    if not gold:
        raise ConfigError("cannot tune a threshold against an empty gold set")
    scored = list(scored_candidates)
    grid = {k / 100.0 for k in range(101)}
    grid.update(float(s) for _, _, s in scored)
    best_threshold = 0.0
    best_f1 = -1.0
    for threshold in sorted(grid):
        _, _, selected = dict_mutual_best(scored, threshold)
        _, _, f1 = mining.f1_score(selected, gold)
        if f1 >= best_f1:
            best_f1 = f1
            best_threshold = threshold
    return best_threshold


# -- two-pass pair batches: one encoder forward and backward per side -------


def _two_pass_backward(params, Xa, ha, d_ua, Xb, hb, d_ub) -> dict:
    grads = backprop.embed_backward(params, Xa, ha, d_ua)
    for name, value in backprop.embed_backward(params, Xb, hb, d_ub).items():
        grads[name] = np.asarray(grads[name]) + np.asarray(value)
    return grads


def two_pass_regression_batch(params, task, Xa, Xb, y):
    n = len(y)
    ua, ha = backprop.embed_forward(params, Xa)
    ub, hb = backprop.embed_forward(params, Xb)
    p, (feats, cache) = backprop.regression_head(params, task, ua, ub)
    w_name, b_name = f"{task}_w", f"{task}_b"
    diff = p - y
    losses = diff * diff
    dz = 2.0 * diff * p * (1.0 - p) / n
    d_feats = dz[:, None] * params[w_name][None, :]
    d_ua, d_ub = backprop._reg_features_backward(d_feats, cache, ua, ub)
    grads = _two_pass_backward(params, Xa, ha, d_ua, Xb, hb, d_ub)
    grads[w_name] = feats.T @ dz
    grads[b_name] = np.array([dz.sum()])
    return losses, grads


def two_pass_nli_batch(params, Xa, Xb, y):
    n = len(y)
    ua, ha = backprop.embed_forward(params, Xa)
    ub, hb = backprop.embed_forward(params, Xb)
    sign = np.sign(ua - ub)
    probs, feats = backprop.nli_head(params, ua, ub)
    w = params["nli_w"]
    rows = np.arange(n)
    losses = -np.log(probs[rows, y])
    d_logits = probs.copy()
    d_logits[rows, y] -= 1.0
    d_logits /= n
    d_feats = d_logits @ w[:, :-1]
    dim = ua.shape[1]
    d_ua = d_feats[:, :dim] + sign * d_feats[:, 2 * dim : 3 * dim] + ub * d_feats[:, 3 * dim :]
    d_ub = d_feats[:, dim : 2 * dim] - sign * d_feats[:, 2 * dim : 3 * dim] + ua * d_feats[:, 3 * dim :]
    grads = _two_pass_backward(params, Xa, ha, d_ua, Xb, hb, d_ub)
    grads["nli_w"] = np.concatenate([d_logits.T @ feats, d_logits.sum(axis=0)[:, None]], axis=1)
    return losses, grads


def two_pass_contrastive_batch(params, Xa, Xb, y, margin):
    n = len(y)
    ua, ha = backprop.embed_forward(params, Xa)
    ub, hb = backprop.embed_forward(params, Xb)
    cos, cache = backprop._cos_forward(ua, ub)
    hinge = np.maximum(0.0, margin - cos)
    losses = (1 - y) * 0.5 * cos * cos + y * 0.5 * hinge * hinge
    d_cos = ((1 - y) * cos - y * hinge) / n
    d_ua, d_ub = backprop._cos_backward(d_cos, cache)
    return losses, _two_pass_backward(params, Xa, ha, d_ua, Xb, hb, d_ub)


class DenseAdam:
    """Adam over whole blocks: every entry's moments and step count advance
    at every step, also where the gradient is zero.

    The update is Kingma & Ba's efficient order (arXiv:1412.6980, §2):
    the bias corrections and the learning rate fold into one factor
    alpha_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t), and the added
    epsilon is eps * sqrt(1 - beta2^t), so that the update equals
    lr * m_hat / (sqrt(v_hat) + eps) in exact arithmetic.  The moments
    are stored divided by (1 - beta1) and (1 - beta2), which folds those
    constants into the two factors too."""

    def __init__(self, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._state: dict[str, tuple] = {}

    def step(self, params: dict, grads: dict) -> None:
        for name, grad in grads.items():
            grad = np.asarray(grad, dtype=params[name].dtype)
            if not np.all(np.isfinite(grad)):
                raise TrainingError(f"non-finite gradient in parameter block {name!r}")
            if name in self._state:
                m, v, t = self._state[name]
            else:
                m = np.zeros_like(grad)
                v = np.zeros_like(grad)
                t = 0
            t += 1
            m *= self.beta1
            m += grad
            v *= self.beta2
            v += grad * grad
            scale = math.sqrt((1.0 - self.beta2 ** t) / (1.0 - self.beta2))
            alpha = self.learning_rate * (1.0 - self.beta1) / (1.0 - self.beta1 ** t) * scale
            params[name] -= alpha * (m / (np.sqrt(v) + self.eps * scale))
            self._state[name] = (m, v, t)
