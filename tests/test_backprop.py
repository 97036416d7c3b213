"""The batched training engine must agree with the per-example operations."""

import hashlib

import numpy as np
import pytest

from qemine import backprop
from qemine.features import featurize_all
from qemine.training import _rng  # deterministic stream helper

from qemine.features import FeaturizerConfig
from qemine.model import EncoderConfig

from conftest import SMALL_ENCODER, as_float64, encoder_model, head_set
from oracles import (
    contrastive_loss,
    cosine_similarity,
    featurize,
    forward_heads,
    task_loss,
    two_pass_contrastive_batch,
    two_pass_nli_batch,
    two_pass_regression_batch,
)


def _setup(seed=0, n_pairs=6):
    rng = _rng(seed, 12345)
    params = as_float64(backprop.init_params(SMALL_ENCODER, rng))
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
        model = encoder_model(params, SMALL_ENCODER.featurizer)
        heads = head_set(params)
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
        model = encoder_model(params, SMALL_ENCODER.featurizer)
        heads = head_set(params)
        params32 = as_float64({**model.params(), **heads.params()})
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
        model = encoder_model(params, SMALL_ENCODER.featurizer)
        params32 = as_float64(model.params())
        batch = backprop.embed(params32, Xa)
        for k, text in enumerate(texts_a):
            single = encode(model, featurize(text, SMALL_ENCODER.featurizer))
            assert np.allclose(batch[k], single, atol=1e-12)


# The stacked pass sums over 2n rows at once, so its results may differ
# from the two-pass oracle's in the last bits; compare at the block's scale.
STACKED_TOLERANCE = 1e-12

PAIR_OBJECTIVES = {
    "qe": (backprop.regression_batch, two_pass_regression_batch),
    "sts": (backprop.regression_batch, two_pass_regression_batch),
    "nli": (backprop.nli_batch, two_pass_nli_batch),
    "contrastive": (backprop.contrastive_batch, two_pass_contrastive_batch),
}


def _run_pair_batch(objective, batch, params, Xa, Xb, rng):
    """One call of a pair objective's batch function on seeded labels."""
    n = Xa.shape[0]
    if objective == "nli":
        return batch(params, Xa, Xb, rng.integers(0, 3, n))
    if objective == "contrastive":
        return batch(params, Xa, Xb, rng.integers(0, 2, n).astype(np.float64), 0.8)
    return batch(params, objective, Xa, Xb, rng.uniform(0.05, 0.95, n))


_WORDS = "kafo limba melo daki bemu cela norz pyrt quvo rusk strix tovan".split()


def _stacked_setup(n_features, hidden, dim, seed=0):
    rng = np.random.default_rng(seed)
    encoder = EncoderConfig(FeaturizerConfig((1, 2, 3, 4), n_features, 0), hidden, dim)
    params = as_float64(backprop.init_params(encoder, rng))
    for name in ("qe_w", "qe_b", "sts_w", "sts_b", "nli_w"):
        params[name] = rng.normal(0, 0.4, params[name].shape)
    texts = [" ".join(rng.choice(_WORDS, rng.integers(1, 6))) for _ in range(2 * 9)]
    return params, encoder.featurizer, texts[:9], texts[9:], rng


def _pair_inputs(case, texts_a, texts_b):
    if case == "single":
        return texts_a[:1], texts_b[:1]
    if case == "same-texts":
        # odd length: the middle pair is a text with itself
        return texts_a, texts_a[::-1]
    if case == "empty":
        return texts_a[:4] + ["", ""], texts_b[:4] + ["", texts_b[4]]
    return texts_a, texts_b


def _scaled_error(new, oracle) -> float:
    return float(np.max(np.abs(new - oracle)) / np.max(np.abs(oracle)))


class TestStackedPairPass:
    """One encoder pass over [Xa; Xb] against the two-pass oracle."""

    @pytest.mark.parametrize("sizes", [(256, 8, 6), (8192, 256, 128)], ids=["small", "default"])
    @pytest.mark.parametrize("case", ["single", "same-texts", "empty", "mixed"])
    @pytest.mark.parametrize("objective", sorted(PAIR_OBJECTIVES))
    def test_matches_two_pass_oracle(self, objective, case, sizes):
        params, featurizer, texts_a, texts_b, _ = _stacked_setup(*sizes)
        ta, tb = _pair_inputs(case, texts_a, texts_b)
        Xa, Xb = featurize_all(ta, featurizer), featurize_all(tb, featurizer)
        stacked, oracle = PAIR_OBJECTIVES[objective]
        losses, grads = _run_pair_batch(objective, stacked, params, Xa, Xb, _rng(1, 0))
        ref_losses, ref_grads = _run_pair_batch(objective, oracle, params, Xa, Xb, _rng(1, 0))
        assert grads.keys() == ref_grads.keys()
        assert _scaled_error(losses, ref_losses) <= STACKED_TOLERANCE
        for name, ref in ref_grads.items():
            assert grads[name].shape == ref.shape, name
            assert _scaled_error(grads[name], ref) <= STACKED_TOLERANCE, name

    @pytest.mark.parametrize("objective", sorted(PAIR_OBJECTIVES))
    def test_self_pairs(self, objective):
        """Every pair a text with itself.  The contrastive gradient is then
        exactly zero (cos = 1 is its maximum), so both passes may only
        return rounding noise, which has no scale to compare against."""
        params, featurizer, texts_a, _, _ = _stacked_setup(4096, 64, 32)
        X = featurize_all(texts_a, featurizer)
        stacked, oracle = PAIR_OBJECTIVES[objective]
        losses, grads = _run_pair_batch(objective, stacked, params, X, X, _rng(1, 0))
        ref_losses, ref_grads = _run_pair_batch(objective, oracle, params, X, X, _rng(1, 0))
        assert _scaled_error(losses, ref_losses) <= STACKED_TOLERANCE
        for name, ref in ref_grads.items():
            if objective == "contrastive":
                assert np.max(np.abs(grads[name])) < 1e-15, name
                assert np.max(np.abs(ref)) < 1e-15, name
            else:
                assert _scaled_error(grads[name], ref) <= STACKED_TOLERANCE, name

    def test_column_gradient_is_the_dense_gradient_on_touched_columns(self):
        params, featurizer, texts_a, texts_b, rng = _stacked_setup(256, 8, 6)
        X = featurize_all(texts_a + texts_b, featurizer)
        _, hidden = backprop.embed_forward(params, X)
        d_emb = rng.normal(size=(X.shape[0], 6))
        grad = backprop.embed_backward(params, X, hidden, d_emb)["W1"]
        d_pre = (d_emb @ params["W2"]) * (1.0 - hidden * hidden)
        assert np.array_equal(grad.cols, np.unique(X.indices))
        assert np.array_equal(np.asarray(grad), X.T.dot(d_pre).T)

    @pytest.mark.parametrize("objective", sorted(PAIR_OBJECTIVES) + ["alignment"])
    def test_one_encoder_pass_per_batch(self, objective, monkeypatch):
        calls = {"forward": 0, "backward": 0}
        forward, backward = backprop.embed_forward, backprop.embed_backward

        def counted_forward(*args):
            calls["forward"] += 1
            return forward(*args)

        def counted_backward(*args):
            calls["backward"] += 1
            return backward(*args)

        monkeypatch.setattr(backprop, "embed_forward", counted_forward)
        monkeypatch.setattr(backprop, "embed_backward", counted_backward)
        params, featurizer, texts_a, texts_b, rng = _stacked_setup(256, 8, 6)
        Xa, Xb = featurize_all(texts_a, featurizer), featurize_all(texts_b, featurizer)
        if objective == "alignment":
            backprop.alignment_batch(params, Xa, rng.normal(size=(Xa.shape[0], 6)))
        else:
            _run_pair_batch(objective, PAIR_OBJECTIVES[objective][0], params, Xa, Xb, rng)
        assert calls == {"forward": 1, "backward": 1}


class TestFeatureHeadBatch:
    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(7, 5))
        y = rng.uniform(0.05, 0.95, 7)
        # o_w is non-zero: at the pipeline's zero initialisation the h_w and
        # h_b gradients vanish, and the check would pass for any formula
        params = {"h_w": rng.normal(0.0, 0.5, (4, 5)), "h_b": rng.normal(0.0, 0.3, 4),
                  "o_w": rng.normal(0.0, 1.0, 4), "o_b": rng.normal(0.0, 0.3, 1)}
        _, grads = backprop.feature_head_batch(params, feats, y)
        assert sorted(grads) == sorted(params)
        eps = 1e-6
        for name, analytic in grads.items():
            flat = params[name].reshape(-1)
            numeric = np.empty(flat.size)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + eps
                up = backprop.feature_head_batch(params, feats, y)[0].mean()
                flat[i] = original - eps
                down = backprop.feature_head_batch(params, feats, y)[0].mean()
                flat[i] = original
                numeric[i] = (up - down) / (2.0 * eps)
            scale = np.max(np.abs(numeric))
            assert scale > 1e-4, name
            assert np.max(np.abs(analytic.reshape(-1) - numeric)) <= 1e-6 * scale, name


class TestCosineGrid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_scalar_cosine_in_the_rows_dtype(self, dtype):
        rng = np.random.default_rng(3)
        ua = rng.normal(size=(7, 5)).astype(dtype)
        ub = rng.normal(size=(4, 5)).astype(dtype)
        ua[2] = 0.0
        ub[1] = -3.0 * ua[0]  # cosine -1 up to rounding, clipped into range
        grid = backprop.cosine_grid(ua, ub)
        expected = np.array([[cosine_similarity(a, b) for b in ub] for a in ua])
        assert grid.dtype == dtype
        assert np.max(np.abs(grid - expected)) <= 8 * np.finfo(dtype).eps
        assert np.all(np.abs(grid) <= 1.0)
        assert np.all(grid[2] == 0.0)


class TestInitParams:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 8), (64, 256), (130, 4096)])
    def test_feature_major_cast_equals_asfortranarray(self, shape):
        draws = np.random.default_rng(0).normal(0.0, 0.5, size=shape)
        tiled = backprop._feature_major_f32(draws)
        expected = np.asfortranarray(draws, dtype=np.float32)
        assert tiled.dtype == expected.dtype and tiled.shape == expected.shape
        assert tiled.tobytes(order="A") == expected.tobytes(order="A")
        for flag in ("C_CONTIGUOUS", "F_CONTIGUOUS", "WRITEABLE", "ALIGNED"):
            assert tiled.flags[flag] == expected.flags[flag], flag

    def test_w1_digest_is_pinned(self):
        # The SHA-256 of W1 as a whole-array np.asfortranarray cast made
        # it; a change to the draws or the cast (and so to every model's
        # bytes) fails here.  No BLAS is called, so the digest holds on
        # every machine.
        encoder = EncoderConfig(FeaturizerConfig((1, 2, 3), 512, 0), hidden_units=40,
                                embedding_dim=6)
        w1 = backprop.init_params(encoder, np.random.default_rng(7))["W1"]
        assert w1.shape == (40, 512) and w1.dtype == np.float32 and w1.flags.f_contiguous
        assert hashlib.sha256(w1.T.tobytes()).hexdigest() == (
            "1936266abeb67c48c1f17b132664757481644c33e428c2fab4df334649918df7")
