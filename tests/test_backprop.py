"""The batched training engine must agree with the per-example operations."""

import numpy as np
import pytest

from qemine import backprop
from qemine.features import featurize, featurize_all
from qemine.training import _rng  # deterministic stream helper

from conftest import SMALL_ENCODER
from oracles import contrastive_loss, cosine_similarity, forward_heads, task_loss


def _setup(seed=0, n_pairs=6):
    rng = _rng(seed, 12345)
    params = backprop.init_params(SMALL_ENCODER, rng)
    for name in ("qe_w", "qe_b", "sts_w", "sts_b", "nli_w"):
        params[name] = rng.normal(0, 0.4, params[name].shape)
    alphabet = "abcdefgh"
    texts_a, texts_b = [], []
    for _ in range(n_pairs):
        texts_a.append(" ".join(
            "".join(alphabet[i] for i in rng.integers(0, 8, 4)) for _ in range(3)))
        texts_b.append(" ".join(
            "".join(alphabet[i] for i in rng.integers(0, 8, 4)) for _ in range(3)))
    featurizer = SMALL_ENCODER.featurizer
    Xa = featurize_all(texts_a, featurizer)
    Xb = featurize_all(texts_b, featurizer)
    return params, texts_a, texts_b, Xa, Xb, rng


class TestEngineMatchesScalarOps:
    def test_regression_losses_match_task_loss_of_forward_heads(self):
        params, texts_a, texts_b, Xa, Xb, rng = _setup()
        y = rng.uniform(0, 1, Xa.shape[0])
        losses, _ = backprop.regression_batch(params, "qe", Xa, Xb, y)
        # Rebuild through the public single-pair path with float32 weights;
        # quantization keeps agreement to ~1e-6 rather than exact.
        model = backprop.model_from_params(params, SMALL_ENCODER.featurizer)
        heads = backprop.heads_from_params(params)
        for k, (a, b) in enumerate(zip(texts_a, texts_b)):
            p = forward_heads(model, heads, (a, b), "qe")
            expected, _ = task_loss("qe", p, y[k])
            assert losses[k] == pytest.approx(expected, abs=1e-5)

    def test_contrastive_losses_match_scalar_formula(self):
        params, _, _, Xa, Xb, rng = _setup(seed=1)
        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        margin = 0.9
        losses, _ = backprop.contrastive_batch(params, Xa, Xb, y, margin)
        ua = backprop.embed(params, Xa)
        ub = backprop.embed(params, Xb)
        for k in range(len(y)):
            d = cosine_similarity(ua[k], ub[k])
            expected, _ = contrastive_loss(d, int(y[k]), margin)
            assert losses[k] == pytest.approx(expected, abs=1e-12)

    def test_alignment_losses_are_cosine_gaps(self):
        params, _, _, Xa, _, rng = _setup(seed=2)
        targets = rng.normal(size=(Xa.shape[0], SMALL_ENCODER.embedding_dim))
        losses, _ = backprop.alignment_batch(params, Xa, targets)
        u = backprop.embed(params, Xa)
        for k in range(Xa.shape[0]):
            assert losses[k] == pytest.approx(
                1.0 - cosine_similarity(u[k], targets[k]), abs=1e-12
            )

    def test_nli_losses_match_log_probability(self):
        params, _, _, Xa, Xb, rng = _setup(seed=3)
        y = rng.integers(0, 3, Xa.shape[0])
        losses, _ = backprop.nli_batch(params, Xa, Xb, y)
        probs, _ = backprop.nli_head(params, backprop.embed(params, Xa), backprop.embed(params, Xb))
        assert np.allclose(losses, -np.log(probs[np.arange(len(y)), y]), atol=1e-12)

    def test_predict_regression_matches_forward_heads(self):
        params, texts_a, texts_b, Xa, Xb, _ = _setup(seed=4)
        model = backprop.model_from_params(params, SMALL_ENCODER.featurizer)
        heads = backprop.heads_from_params(params)
        params32 = backprop.params_from_model(model, heads)
        preds, _ = backprop.regression_head(
            params32, "sts", backprop.embed(params32, Xa), backprop.embed(params32, Xb)
        )
        for k, (a, b) in enumerate(zip(texts_a, texts_b)):
            assert preds[k] == pytest.approx(
                forward_heads(model, heads, (a, b), "sts"), abs=1e-12
            )


class TestEmbedBatch:
    def test_matches_single_encode(self):
        from oracles import encode

        params, texts_a, _, Xa, _, _ = _setup(seed=5)
        model = backprop.model_from_params(params, SMALL_ENCODER.featurizer)
        params32 = backprop.params_from_model(model)
        batch = backprop.embed(params32, Xa)
        for k, text in enumerate(texts_a):
            single = encode(model, featurize(text, SMALL_ENCODER.featurizer))
            assert np.allclose(batch[k], single, atol=1e-12)
