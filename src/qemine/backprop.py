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
the values of a feature matrix and the labels are cast to it, so that
float32 models train and score in float32 and the gradient checker can
run the same code in float64.  ``W1`` has shape (H, F) and is
feature-major: the F-ordered view of a C-contiguous (F, H) array.
``X.dot(W1.T)`` then runs without copying the block, and one feature
column of ``W1`` is one contiguous row of ``W1.T``.

Every *_batch function returns per-example losses plus the gradient of
the batch MEAN loss; the gradient checker in ``training`` verifies the
encoder objectives against central finite differences, and the tests
check ``feature_head_batch`` the same way.  ``W1``'s gradient is an
``optim.ColumnGrad`` over the feature columns the batch uses, which
``optim.Adam`` applies lazily; every other block's is a dense array.
Pair objectives make one encoder pass over the stacked rows [Xa; Xb],
forward and backward, and add their head's gradients to the dict that
``embed_backward`` returns.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .model import EncoderConfig, HeadSet
from .optim import ColumnGrad

def init_params(config: EncoderConfig, rng: np.random.Generator) -> dict:
    """Seeded float32 parameter dict with a feature-major ``W1``; heads
    start at zero (neutral outputs)."""
    n_features = config.featurizer.n_features
    hidden = config.hidden_units
    dim = config.embedding_dim
    params = {
        "W1": _feature_major_f32(rng.normal(0.0, 0.5, size=(hidden, n_features))),
        "W2": rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(dim, hidden)).astype(np.float32),
        "b1": np.zeros(hidden, dtype=np.float32),
        "b2": np.zeros(dim, dtype=np.float32),
    }
    return {**params, **HeadSet.zeros(dim).params()}


def _feature_major_f32(draws: np.ndarray) -> np.ndarray:
    """``np.asfortranarray(draws, dtype=np.float32)``, cast tile by tile.

    The transposing cast reads ``draws`` by rows and writes the C-ordered
    (F, H) block by rows; a 32 × 128 tile keeps both sides of each copy
    in cache, which a whole-array copy does not at the default sizes.
    """
    rows, cols = draws.shape
    out = np.empty((cols, rows), dtype=np.float32)
    for i in range(0, rows, 32):
        for j in range(0, cols, 128):
            out[j : j + 128, i : i + 32] = draws[i : i + 32, j : j + 128].T
    return out.T


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def hidden_layer(params: dict, X) -> np.ndarray:
    """The tanh hidden layer for a CSR feature matrix.  A row's bits
    depend only on its own features: the sparse product sums each row's
    entries in their stored order."""
    data = X.data.astype(params["W1"].dtype, copy=False)
    X = sparse.csr_matrix((data, X.indices, X.indptr), shape=X.shape)
    return np.tanh(X.dot(params["W1"].T) + params["b1"])


def output_layer(params: dict, hidden: np.ndarray) -> np.ndarray:
    """Embeddings of hidden-layer rows.  BLAS picks its kernel by the
    matrix sizes (OpenBLAS has a matrix-vector kernel for one row and
    small-matrix kernels for a few), so a row's bits can depend on how
    many rows share the product."""
    return hidden @ params["W2"].T + params["b2"]


def embed_forward(params: dict, X) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings and the hidden-layer cache for a CSR feature matrix."""
    hidden = hidden_layer(params, X)
    return output_layer(params, hidden), hidden


def embed(params: dict, X) -> np.ndarray:
    return embed_forward(params, X)[0]


def embed_backward(params: dict, X, hidden: np.ndarray, d_emb: np.ndarray) -> dict:
    """Encoder-block gradients for the embeddings' upstream gradient ``d_emb``.

    ``W1``'s gradient is a ``ColumnGrad`` over the feature columns that
    ``X`` uses: ``X`` is remapped to those k columns and the k×H block
    is ``Xc.T @ d_pre``, so no F×H array is built.
    """
    d_pre = (d_emb @ params["W2"]) * (1.0 - hidden * hidden)
    cols, local = np.unique(X.indices, return_inverse=True)
    data = X.data.astype(params["W1"].dtype, copy=False)
    Xc = sparse.csr_matrix((data, local, X.indptr), shape=(X.shape[0], len(cols)))
    return {"b2": d_emb.sum(axis=0), "W2": d_emb.T @ hidden, "b1": d_pre.sum(axis=0),
            "W1": ColumnGrad(cols, Xc.T.dot(d_pre), params["W1"].shape)}


def _pair_forward(params: dict, Xa, Xb):
    """Embeddings of both sides from one forward pass over the stacked rows."""
    X = sparse.vstack([Xa, Xb], format="csr")
    u, hidden = embed_forward(params, X)
    return u[: Xa.shape[0]], u[Xa.shape[0] :], (X, hidden)


def _pair_backward(params: dict, cache, d_ua: np.ndarray, d_ub: np.ndarray) -> dict:
    """Encoder-block gradients from one backward pass over the stacked rows."""
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
    z = feats @ params[f"{task}_w"] + params[f"{task}_b"][0]
    return _sigmoid(z), (feats, cache)


def regression_head_grid(params: dict, task: str, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """QE or STS scores of every (ua row, ub row) pair, as a len(ua) × len(ub) array.

    The head is linear before its sigmoid, so no pair features are built:
    the ``u∘v`` term is ``(ua * w) @ ub.T`` and the cosine term is
    ``cosine_grid``'s (0 for a zero row, as in ``_cos_forward``).  The
    weighted ``|u−v|`` term is taken over chunks of 2**15 (row, column,
    dimension) differences.  Equal to ``regression_head`` up to
    summation order.
    """
    if task not in ("qe", "sts"):
        raise ValueError(f"no grid head for task {task!r}; expected 'qe' or 'sts'")
    w, dim = params[f"{task}_w"], ua.shape[1]
    z = cosine_grid(ua, ub)
    z *= w[2 * dim]
    z += (ua * w[dim : 2 * dim]) @ ub.T
    z += params[f"{task}_b"][0]
    step = max(1, (1 << 15) // max(1, ub.size))
    for start in range(0, len(ua), step):
        diff = ua[start : start + step, None, :] - ub[None, :, :]
        z[start : start + step] += np.abs(diff, out=diff) @ w[:dim]
    return _sigmoid(z)


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
    return _softmax_rows(feats @ w[:, :-1].T + w[:, -1]), feats


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
    hidden = np.tanh(feats @ h_w.T + h_b)
    return _sigmoid(hidden @ o_w + o_b[0]), hidden


def feature_head_batch(params: dict, feats: np.ndarray, y: np.ndarray):
    """Squared-error batch for the feature-stack head over the blocks
    'h_w', 'h_b', 'o_w' and 'o_b'; returns (losses, grads)."""
    p, hidden = feature_head(feats, **params)
    diff = p - y.astype(p.dtype, copy=False)
    dz = 2.0 * diff * p * (1.0 - p) / len(y)
    d_hidden = np.outer(dz, params["o_w"]) * (1.0 - hidden * hidden)
    return diff * diff, {"o_w": hidden.T @ dz, "o_b": np.array([dz.sum()]),
                         "h_w": d_hidden.T @ feats, "h_b": d_hidden.sum(axis=0)}
