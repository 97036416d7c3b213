"""Batched forward/backward passes for every training objective, and the
QE/STS and NLI heads (``regression_head``, ``nli_head``) and the
feature-stack head (``feature_head``) that training and inference share,
plus ``regression_head_grid``, the QE/STS head over every pair of two
embedding sets, and ``cosine_grid``, the one all-pairs cosine, which
that head and mining's similarity matrix share.

Parameters are plain dicts of arrays keyed by block name ('W1', 'b1',
'W2', 'b2', 'qe_w', 'qe_b', 'sts_w', 'sts_b', 'nli_w'); a model's own
float32 arrays come from ``EncoderModel.params`` and ``HeadSet.params``.
Every function computes in the dtype of the parameters it is given:
the values of the features and the labels are cast to it, so that
float32 models train and score in float32 and the gradient checker can
run the same code in float64.  ``W1`` has shape (H, F) and is
feature-major: the F-ordered view of a C-contiguous (F, H) array, so
``W1.T`` is that (F, H) array and one feature column of ``W1`` is one
contiguous row of it.  ``init_params`` draws that block directly,
uniform with std 0.5: a hidden unit sums ~100 feature-weighted entries,
so only their variance matters.

The encoder takes ``features.WordFeatures``: a text's normalized bucket
counts are its weighted word occurrences times each word's gram counts,
so its hidden pre-activation is the same sum one level up.  The hidden
layer projects each distinct word its rows use once, ``P = grams @
W1.T``, and sums the rows of ``P`` per text, ``weights @ P``; both
sparse products are taken row by row, in stored order, so a hidden row
depends only on its own text.  Texts share words, so this is less work
than summing a ``W1`` column per gram bucket of every text.  The output
layer and the heads multiply in ``_by_blocks``, so an embedding or a
pair's head output does not depend on the rows that share its call.

Every *_batch function returns per-example losses plus the gradient of
the batch MEAN loss; the gradient checker in ``training`` verifies the
encoder objectives against central finite differences, and the tests
check ``feature_head_batch`` the same way.  ``W1``'s gradient is an
``optim.ColumnGrad`` over the feature columns the batch uses, which
``optim.Adam`` applies lazily; every other block's is a dense array.
Pair objectives make one encoder pass over the joined rows [Xa; Xb] of
one featurization, forward and backward, and add their head's gradients
to the dict that ``embed_backward`` returns.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .model import EncoderConfig, HeadSet
from .optim import ColumnGrad

def init_params(config: EncoderConfig, rng: np.random.Generator) -> dict:
    """Seeded float32 parameter dict; heads start at zero (neutral outputs).

    ``W1`` is drawn in float32 straight into its (F, H) block, uniform on
    [-√3/2, √3/2) (std 0.5): a hidden pre-activation sums many normalized
    feature weights times entries, so only their variance reaches the tanh.
    """
    hidden, dim = config.hidden_units, config.embedding_dim
    w1 = rng.random((config.featurizer.n_features, hidden), dtype=np.float32)
    w1 -= np.float32(0.5)
    w1 *= np.float32(np.sqrt(3.0))
    params = {
        "W1": w1.T,
        "W2": rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(dim, hidden)).astype(np.float32),
        "b1": np.zeros(hidden, dtype=np.float32),
        "b2": np.zeros(dim, dtype=np.float32),
    }
    return {**params, **HeadSet.zeros(dim).params()}


def _sigmoid(z: np.ndarray, out=None) -> np.ndarray:
    """The logistic function in ``z``'s dtype, into ``out`` (which may be
    ``z`` itself); ``exp`` only sees -|z|, so it never overflows."""
    positive = z >= 0
    e = np.abs(z, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denominator = 1 + e
    e[positive] = 1
    return np.divide(e, denominator, out=e)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _cast(matrix: sparse.csr_matrix, dtype) -> sparse.csr_matrix:
    """``matrix`` with its values in ``dtype`` and its entries as stored
    (scipy's ``astype`` would merge repeated columns and sort each row)."""
    if matrix.dtype == dtype:
        return matrix
    return sparse.csr_matrix((matrix.data.astype(dtype), matrix.indices, matrix.indptr),
                             shape=matrix.shape)


def hidden_layer(params: dict, X) -> np.ndarray:
    """The tanh hidden layer for ``WordFeatures``: ``tanh(weights @ (grams
    @ W1.T) + b1)`` over only the words its rows use.  A row's bits depend
    only on its own text: each word's projection is summed over its
    buckets in ascending order, and each row over its words in the text's
    order."""
    weights, grams = X.compact
    dtype = params["W1"].dtype
    projected = _cast(grams, dtype) @ params["W1"].T
    return np.tanh(_cast(weights, dtype) @ projected + params["b1"])


# Rows per ``_by_blocks`` product: at least 32, as 16-row blocks gave other
# bits than one product at H=128, d=64; at 64 a 32-pair batch is one block.
_ROW_BLOCK = 64


def _by_blocks(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` in zero-padded products of ``_ROW_BLOCK`` rows, so that a row's
    bits do not depend on the BLAS kernel picked for the call's size.  Only a
    partial last block is copied, into a padded one.  ``w`` in C order took
    0.6-0.8x the time of a transposed view on 2,000 rows (1 thread)."""
    n, width = x.shape
    w = np.ascontiguousarray(w)
    whole = n - n % _ROW_BLOCK
    out = np.empty((n, *w.shape[1:]), np.result_type(x, w))
    if whole:
        np.matmul(x[:whole].reshape(-1, _ROW_BLOCK, width), w,
                  out=out[:whole].reshape(-1, _ROW_BLOCK, *w.shape[1:]))
    if whole < n:
        last = np.zeros((1, _ROW_BLOCK, width), x.dtype)
        last[0, : n - whole] = x[whole:]
        out[whole:] = np.matmul(last, w)[0, : n - whole]
    return out


def output_layer(params: dict, hidden: np.ndarray) -> np.ndarray:
    """Embeddings of hidden-layer rows; a row's bits depend on the row only."""
    return _by_blocks(hidden, params["W2"].T) + params["b2"]


def embed_forward(params: dict, X) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings and the hidden-layer cache for ``WordFeatures``."""
    hidden = hidden_layer(params, X)
    return output_layer(params, hidden), hidden


def embed(params: dict, X) -> np.ndarray:
    return embed_forward(params, X)[0]


def embed_backward(params: dict, X, hidden: np.ndarray, d_emb: np.ndarray) -> dict:
    """Encoder-block gradients for the embeddings' upstream gradient ``d_emb``.

    ``W1``'s gradient is a ``ColumnGrad`` over the feature columns that
    ``X``'s words use: the gradient of each used word's projection is
    ``weights.T @ d_pre``, and the gram counts, remapped to those k
    columns, carry it to the k×H block, so no F×H array is built.
    """
    d_pre = (d_emb @ params["W2"]) * (1.0 - hidden * hidden)
    weights, grams = X.compact
    dtype = params["W1"].dtype
    # The used columns and each gram's place among them, by a mask over
    # the F columns rather than a sort of every gram.
    used = np.zeros(grams.shape[1], dtype=bool)
    used[grams.indices] = True
    cols = np.flatnonzero(used)
    local = (np.cumsum(used) - 1)[grams.indices]
    # CSC matrices over the CSR arrays are the transposes, built in one step.
    per_word = sparse.csc_matrix((weights.data.astype(dtype, copy=False), weights.indices,
                                  weights.indptr), shape=weights.shape[::-1]) @ d_pre
    per_column = sparse.csc_matrix((grams.data.astype(dtype, copy=False), local, grams.indptr),
                                   shape=(len(cols), grams.shape[0])) @ per_word
    return {"b2": d_emb.sum(axis=0), "W2": d_emb.T @ hidden, "b1": d_pre.sum(axis=0),
            "W1": ColumnGrad(cols, per_column, params["W1"].shape)}


def _pair_forward(params: dict, Xa, Xb):
    """Embeddings of both sides from one forward pass over their joined
    rows; the sides must be rows of one featurization."""
    X = Xa.join(Xb)
    u, hidden = embed_forward(params, X)
    return u[: Xa.shape[0]], u[Xa.shape[0] :], (X, hidden)


def _pair_backward(params: dict, cache, d_ua: np.ndarray, d_ub: np.ndarray) -> dict:
    """Encoder-block gradients from one backward pass over the joined rows."""
    X, hidden = cache
    return embed_backward(params, X, hidden, np.vstack([d_ua, d_ub]))


def _cos_forward(ua: np.ndarray, ub: np.ndarray):
    na = np.linalg.norm(ua, axis=1)
    nb = np.linalg.norm(ub, axis=1)
    denom = na * nb
    safe = denom > 0.0
    dot = np.einsum("ij,ij->i", ua, ub)
    cos = np.where(safe, dot / np.where(safe, denom, 1.0), 0.0)
    return cos, (ua, ub, na, nb, denom, cos, safe)


def _cos_backward(d_cos: np.ndarray, cache):
    ua, ub, na, nb, denom, cos, safe = cache
    weight = np.where(safe, d_cos, 0.0)[:, None]
    denom_s = np.where(safe, denom, 1.0)[:, None]
    na2 = np.where(safe, na * na, 1.0)[:, None]
    nb2 = np.where(safe, nb * nb, 1.0)[:, None]
    cos_col = cos[:, None]
    d_ua = weight * (ub / denom_s - cos_col * ua / na2)
    d_ub = weight * (ua / denom_s - cos_col * ub / nb2)
    return d_ua, d_ub


def _reg_features_forward(ua: np.ndarray, ub: np.ndarray):
    cos, cos_cache = _cos_forward(ua, ub)
    return np.concatenate([np.abs(ua - ub), ua * ub, cos[:, None]], axis=1), cos_cache


def _reg_features_backward(d_feats: np.ndarray, cos_cache, ua, ub):
    sign = np.sign(ua - ub)
    dim = ua.shape[1]
    d_abs = d_feats[:, :dim]
    d_prod = d_feats[:, dim : 2 * dim]
    d_cos = d_feats[:, 2 * dim]
    d_ua = sign * d_abs + ub * d_prod
    d_ub = -sign * d_abs + ua * d_prod
    ca, cb = _cos_backward(d_cos, cos_cache)
    return d_ua + ca, d_ub + cb


def regression_head(params: dict, task: str, ua: np.ndarray, ub: np.ndarray):
    """QE or STS scores in (0,1) for aligned embedding rows, plus the pair
    features and their cache for the backward pass."""
    feats, cache = _reg_features_forward(ua, ub)
    z = _by_blocks(feats, params[f"{task}_w"]) + params[f"{task}_b"][0]
    return _sigmoid(z), (feats, cache)


# (row, column, dimension) entries of ``regression_head_grid``'s |u−v|
# workspace, allocated once per call (512 KiB in float32).  On a 400×400 grid
# of 64-dim float32 rows in mining's 163-row blocks (2-vCPU x86-64 host, 1
# BLAS thread, numpy 2.4), the head took 6.9 ms at 2**17 entries against 7.4
# at 2**16 and 8.5-9.0 at 2**15; at 2**18 it page-faulted about 600 times per
# grid and took 7.9-9.5 ms, at 2**19 8.3-8.8 ms.
_GRID_CHUNK = 1 << 17


def regression_head_grid(params: dict, task: str, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """QE or STS scores of every (ua row, ub row) pair, as a len(ua) × len(ub) array.

    The head is linear before its sigmoid, so no pair features are built:
    the ``u∘v`` term is ``(ua * w) @ ub.T`` and the cosine term is
    ``cosine_grid``'s (0 for a zero row, as in ``_cos_forward``); the
    weighted ``|u−v|`` term is ``_add_abs_diff_term``'s.  The logistic then
    overwrites the grid in place.  Equal to ``regression_head`` up to
    summation order.
    """
    if task not in ("qe", "sts"):
        raise ValueError(f"no grid head for task {task!r}; expected 'qe' or 'sts'")
    w, dim = params[f"{task}_w"], ua.shape[1]
    z = cosine_grid(ua, ub)
    z *= w[2 * dim]
    z += (ua * w[dim : 2 * dim]) @ ub.T
    z += params[f"{task}_b"][0]
    _add_abs_diff_term(z, ua, ub, w[:dim])
    return _sigmoid(z, out=z)


def _add_abs_diff_term(z: np.ndarray, ua: np.ndarray, ub: np.ndarray, w: np.ndarray) -> None:
    """Add ``|ua[i] − ub[j]| @ w`` to every ``z[i, j]``, a few ua rows at a
    time through one workspace of about ``_GRID_CHUNK`` (row, column,
    dimension) entries, one matrix-vector product per row, so a pair's
    bits do not depend on the workspace size.  Each ua row is copied to
    its len(ub) cells first and ub subtracted after, so both passes run
    over a row's len(ub) × dim contiguous entries at once; subtract and
    abs are elementwise, so the bits are a broadcast subtraction's.  The
    workspace is freed on return."""
    m = len(ub)
    step = max(1, min(len(ua), _GRID_CHUNK // max(1, ub.size)))
    work = np.empty((step, *ub.shape), np.result_type(ua, ub))
    tiled = work.reshape(step * m, ub.shape[1])
    index = np.repeat(np.arange(step), m)
    weighted = np.empty((step, m), np.result_type(work, w))
    ua = ua.astype(work.dtype, copy=False)
    for start in range(0, len(ua), step):
        block = ua[start : start + step]
        diff, cells = work[: len(block)], len(block) * m
        # mode="clip" skips the bounds check, which would copy through a buffer
        np.take(block, index[:cells], axis=0, out=tiled[:cells], mode="clip")
        np.subtract(diff, ub, out=diff)
        np.abs(diff, out=diff)
        z[start : start + step] += np.matmul(diff, w, out=weighted[: len(block)])


def _unit_rows(u: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    return np.divide(u, norms, out=np.zeros_like(u), where=norms > 0)


def cosine_grid(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Cosines of every (ua row, ub row) pair, in the rows' dtype: the rows
    are L2-normalized (zero rows stay zero), multiplied in one GEMM and
    clipped into [-1, 1] against rounding."""
    values = _unit_rows(ua) @ _unit_rows(ub).T
    np.clip(values, -1.0, 1.0, out=values)
    return values


def nli_head(params: dict, ua: np.ndarray, ub: np.ndarray):
    """NLI class probabilities for aligned embedding rows, plus the pair features."""
    feats = np.concatenate([ua, ub, np.abs(ua - ub), ua * ub], axis=1)
    w = params["nli_w"]
    return _softmax_rows(_by_blocks(feats, w[:, :-1].T) + w[:, -1]), feats


def regression_batch(params: dict, task: str, Xa, Xb, y: np.ndarray):
    """Squared-error batch for the QE or STS head; returns (losses, grads)."""
    n = len(y)
    ua, ub, enc_cache = _pair_forward(params, Xa, Xb)
    p, (feats, cache) = regression_head(params, task, ua, ub)
    w_name, b_name = f"{task}_w", f"{task}_b"
    diff = p - y.astype(p.dtype, copy=False)
    losses = diff * diff
    dz = 2.0 * diff * p * (1.0 - p) / n
    d_feats = dz[:, None] * params[w_name][None, :]
    grads = _pair_backward(params, enc_cache, *_reg_features_backward(d_feats, cache, ua, ub))
    grads[w_name] = feats.T @ dz
    grads[b_name] = np.array([dz.sum()])
    return losses, grads


def nli_batch(params: dict, Xa, Xb, y: np.ndarray):
    """Cross-entropy batch for the NLI head; returns (losses, grads)."""
    n = len(y)
    ua, ub, enc_cache = _pair_forward(params, Xa, Xb)
    sign = np.sign(ua - ub)
    probs, feats = nli_head(params, ua, ub)
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
    grads = _pair_backward(params, enc_cache, d_ua, d_ub)
    grads["nli_w"] = np.concatenate([d_logits.T @ feats, d_logits.sum(axis=0)[:, None]], axis=1)
    return losses, grads


def contrastive_batch(params: dict, Xa, Xb, y: np.ndarray, margin: float):
    """Contrastive batch over embedding cosines; returns (losses, grads)."""
    n = len(y)
    ua, ub, enc_cache = _pair_forward(params, Xa, Xb)
    cos, cache = _cos_forward(ua, ub)
    y = y.astype(cos.dtype, copy=False)
    hinge = np.maximum(0.0, margin - cos)
    losses = (1 - y) * 0.5 * cos * cos + y * 0.5 * hinge * hinge
    d_cos = ((1 - y) * cos - y * hinge) / n
    return losses, _pair_backward(params, enc_cache, *_cos_backward(d_cos, cache))


def alignment_batch(params: dict, X, targets: np.ndarray):
    """Alignment batch: mean (1 - cos(embedding, fixed target))."""
    n = targets.shape[0]
    u, hidden = embed_forward(params, X)
    cos, cache = _cos_forward(u, targets.astype(u.dtype, copy=False))
    losses = 1.0 - cos
    d_u, _ = _cos_backward(np.full(n, -1.0 / n, dtype=u.dtype), cache)
    return losses, embed_backward(params, X, hidden, d_u)


def stacked_pair_features(ua: np.ndarray, ub: np.ndarray, dims) -> np.ndarray:
    """The feature-stack head's input: for aligned rows of side-by-side
    backbone embeddings (``dims`` columns each), every backbone's
    regression pair features, side by side."""
    splits = np.cumsum(dims)[:-1]
    pieces = zip(np.split(ua, splits, axis=1), np.split(ub, splits, axis=1))
    return np.hstack([_reg_features_forward(a, b)[0] for a, b in pieces])


def feature_head(feats: np.ndarray, h_w, h_b, o_w, o_b):
    """Feature-stack QE scores in (0,1) from a tanh hidden layer and a
    logistic output over stacked pair features, plus the hidden layer."""
    hidden = np.tanh(_by_blocks(feats, h_w.T) + h_b)
    return _sigmoid(_by_blocks(hidden, o_w) + o_b[0]), hidden


def feature_head_batch(params: dict, feats: np.ndarray, y: np.ndarray):
    """Squared-error batch for the feature-stack head over the blocks
    'h_w', 'h_b', 'o_w' and 'o_b'; returns (losses, grads)."""
    p, hidden = feature_head(feats, **params)
    diff = p - y.astype(p.dtype, copy=False)
    dz = 2.0 * diff * p * (1.0 - p) / len(y)
    d_hidden = np.outer(dz, params["o_w"]) * (1.0 - hidden * hidden)
    return diff * diff, {"o_w": hidden.T @ dz, "o_b": np.array([dz.sum()]),
                         "h_w": d_hidden.T @ feats, "h_b": d_hidden.sum(axis=0)}
