"""The batched training engine must agree with the per-example operations."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qemine import backprop
from qemine.features import featurize_all
from qemine.training import _featurize_sides, _rng

from qemine.features import FeaturizerConfig
from qemine.model import EncoderConfig, HeadSet
from qemine.synth import SynthConfig, generate_qe

from conftest import SMALL_ENCODER, as_float64, encoder_model, head_set
from oracles import (
    contrastive_loss,
    cosine_similarity,
    featurize,
    forward_heads,
    masked_sigmoid,
    materialize,
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
    Xa, Xb = _featurize_sides(texts_a, texts_b, SMALL_ENCODER.featurizer)
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
    """One encoder pass over the joined rows [Xa; Xb] against the two-pass oracle."""

    @pytest.mark.parametrize("sizes", [(256, 8, 6), (8192, 256, 128)], ids=["small", "default"])
    @pytest.mark.parametrize("case", ["single", "same-texts", "empty", "mixed"])
    @pytest.mark.parametrize("objective", sorted(PAIR_OBJECTIVES))
    def test_matches_two_pass_oracle(self, objective, case, sizes):
        params, featurizer, texts_a, texts_b, _ = _stacked_setup(*sizes)
        ta, tb = _pair_inputs(case, texts_a, texts_b)
        Xa, Xb = _featurize_sides(ta, tb, featurizer)
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
        # The factored product sums per word first, so it may differ from
        # the dense gradient in the last bits.
        dense = materialize(X).T.dot(d_pre).T
        assert np.array_equal(grad.cols, np.unique(materialize(X).indices))
        assert _scaled_error(np.asarray(grad), dense) <= STACKED_TOLERANCE

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
        Xa, Xb = _featurize_sides(texts_a, texts_b, featurizer)
        if objective == "alignment":
            backprop.alignment_batch(params, Xa, rng.normal(size=(Xa.shape[0], 6)))
        else:
            _run_pair_batch(objective, PAIR_OBJECTIVES[objective][0], params, Xa, Xb, rng)
        assert calls == {"forward": 1, "backward": 1}


# The desk and default encoder sizes (F, H, d), and the row counts of the
# calls that must give every row the bits it gets in any other call:
# below, at and above one and eight row blocks, and every count up to 33,
# where BLAS kernels for small products would differ.
ENCODER_SIZES = {"desk": (4096, 128, 64), "default": (8192, 256, 128)}
CALL_ROWS = [*range(1, 34), 63, 64, 65, 511, 512, 513]


class TestRowIndependence:
    """A text's hidden row and embedding depend only on the text: their
    bits are the same alone, among other texts in either order, as a row
    of a training batch and in a call of any size.  So do an aligned
    pair's head outputs."""

    TEXT = "kafo limba kafo melo"
    OTHERS = ["daki bemu", "", "cela kafo norz", "pyrt quvo rusk strix", "tovan", "melo melo"]

    @staticmethod
    def _params(n_features, hidden, dim):
        encoder = EncoderConfig(FeaturizerConfig((1, 2, 3, 4), n_features, 0), hidden, dim)
        rng = np.random.default_rng(4)
        params = backprop.init_params(encoder, rng)
        params["b1"] = rng.normal(0.0, 0.1, hidden).astype(np.float32)
        params["b2"] = rng.normal(0.0, 0.1, dim).astype(np.float32)
        return params, encoder.featurizer

    @pytest.mark.parametrize("sizes", [(256, 8, 6), (8192, 256, 128)], ids=["small", "default"])
    @pytest.mark.parametrize("text", [TEXT, ""], ids=["repeated-word", "empty"])
    def test_hidden_row_is_the_same_in_every_call(self, text, sizes):
        params, featurizer = self._params(*sizes)
        others = self.OTHERS * 3
        emb, hidden = backprop.embed_forward(params, featurize_all([text], featurizer))
        last = backprop.embed_forward(params, featurize_all(others + [text], featurizer))
        first = backprop.embed_forward(params, featurize_all([text] + others[::-1], featurizer))
        Xa, Xb = _featurize_sides(others[:9], others[9:] + [text], featurizer)
        _, ub, (_, batch_hidden) = backprop._pair_forward(params, Xa, Xb)
        for other in (last[1][-1], first[1][0], batch_hidden[-1]):
            assert other.tobytes() == hidden[0].tobytes()
        for other in (last[0][-1], first[0][0], ub[-1]):
            assert other.tobytes() == emb[0].tobytes()
        if not text:
            assert hidden.tobytes() == np.tanh(params["b1"]).tobytes()
        assert hidden.dtype == ub.dtype == np.float32

    @staticmethod
    def _texts(count):
        records = generate_qe(SynthConfig(vocab_size=200, seed=3), count)
        return [r.source for r in records] + [r.target for r in records]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", sorted(ENCODER_SIZES))
    def test_embedding_is_the_same_in_calls_of_any_size(self, size, dtype):
        params, featurizer = self._params(*ENCODER_SIZES[size])
        params = {name: block.astype(dtype) for name, block in params.items()}
        X = featurize_all(self._texts(400), featurizer)
        whole = backprop.embed(params, X)
        assert whole.dtype == dtype
        for n in CALL_ROWS:
            # the call's rows are the last n, so no call is a prefix of the whole one
            assert backprop.embed(params, X[np.arange(800 - n, 800)]).tobytes() == \
                whole[800 - n :].tobytes(), n

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", sorted(ENCODER_SIZES))
    def test_head_rows_are_the_same_in_calls_of_any_size(self, size, dtype):
        _, hidden, dim = ENCODER_SIZES[size]
        rng = np.random.default_rng(5)
        ua, ub = rng.normal(size=(2, 600, dim)).astype(dtype)
        params = {name: rng.normal(0.0, 0.3, block.shape).astype(dtype)
                  for name, block in HeadSet.zeros(dim).params().items()}
        stack = (rng.normal(0.0, 0.1, (hidden // 4, 2 * dim + 1)).astype(dtype),
                 rng.normal(0.0, 0.1, hidden // 4).astype(dtype),
                 rng.normal(0.0, 1.0, hidden // 4).astype(dtype), np.zeros(1, dtype))
        heads = {
            "qe": lambda a, b: backprop.regression_head(params, "qe", a, b)[0],
            "sts": lambda a, b: backprop.regression_head(params, "sts", a, b)[0],
            "nli": lambda a, b: backprop.nli_head(params, a, b)[0],
            "feature-stack": lambda a, b: backprop.feature_head(
                backprop.stacked_pair_features(a, b, [dim]), *stack)[0],
        }
        for name, head in heads.items():
            whole = head(ua, ub)
            assert whole.dtype == dtype, name
            for n in CALL_ROWS:
                assert head(ua[-n:], ub[-n:]).tobytes() == whole[-n:].tobytes(), (name, n)

    def test_weight_rows_keep_each_text_s_word_order(self):
        # A text's row lists the same words in the same order (each word
        # known by its gram buckets) whatever ids the call gives them.
        featurizer = FeaturizerConfig((1, 2), 1024, 0)

        def listed_words(texts):
            weights, grams = featurize_all(texts, featurizer)[[texts.index(self.TEXT)]].compact
            return [grams[word].indices.tolist() for word in weights.indices]

        alone = listed_words([self.TEXT])
        assert alone[0] == alone[2] and len({str(w) for w in alone}) == 3
        for texts in ([self.TEXT, "melo kafo"], ["melo kafo", "", self.TEXT]):
            assert listed_words(texts) == alone


class TestSigmoid:
    """The unmasked logistic gives the masked form's bits in either dtype."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(st.floats(-1e3, 1e3, width=32), min_size=1, max_size=50))
    @example(values=[0.0, -0.0, 88.0, -88.0, 104.0, -104.0, 1e3, -1e3])
    def test_matches_masked_form(self, dtype, values):
        z = np.array(values, dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = backprop._sigmoid(z)
        assert got.dtype == dtype
        assert got.tobytes() == masked_sigmoid(z).tobytes()


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
    def test_w1_is_a_feature_major_float32_block(self, shape):
        # W1 is the transpose of the C-ordered (F, H) block it was drawn
        # into: the layout np.asfortranarray would give, with no copy made.
        hidden, n_features = shape
        encoder = EncoderConfig(FeaturizerConfig((1,), n_features, 0), hidden_units=hidden,
                                embedding_dim=2)
        w1 = backprop.init_params(encoder, np.random.default_rng(0))["W1"]
        expected = np.asfortranarray(w1)
        assert w1.dtype == np.float32 and w1.shape == shape
        for flag in ("C_CONTIGUOUS", "F_CONTIGUOUS", "WRITEABLE", "ALIGNED"):
            assert w1.flags[flag] == expected.flags[flag], flag

    def test_w1_draw_peaks_at_its_own_bytes(self):
        # The draw is made in W1's own dtype and layout, so no transient
        # array as large as W1 is allocated on the way.
        encoder = EncoderConfig(FeaturizerConfig((1,), 8192, 0), hidden_units=256,
                                embedding_dim=8)
        tracemalloc.start()
        try:
            w1 = backprop.init_params(encoder, np.random.default_rng(1))["W1"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * w1.nbytes

    def test_w1_entries_are_uniform_with_std_one_half(self):
        encoder = EncoderConfig(FeaturizerConfig((1,), 8192, 0), hidden_units=256,
                                embedding_dim=8)
        w1 = backprop.init_params(encoder, np.random.default_rng(2))["W1"].astype(np.float64)
        half_width = np.sqrt(3.0) / 2.0
        assert w1.min() >= -half_width and w1.max() < half_width
        assert abs(w1.mean()) < 0.005
        assert abs(w1.std() - 0.5) <= 0.005

    def test_w1_digest_is_pinned(self):
        # The SHA-256 of W1's (F, H) block; a change to the draw (and so
        # to every model's bytes) fails here.  No BLAS is called, so the
        # digest holds on every machine whose numpy gives the same
        # Generator.random float32 stream.
        encoder = EncoderConfig(FeaturizerConfig((1, 2, 3), 512, 0), hidden_units=40,
                                embedding_dim=6)
        w1 = backprop.init_params(encoder, np.random.default_rng(7))["W1"]
        assert w1.shape == (40, 512) and w1.dtype == np.float32 and w1.flags.f_contiguous
        assert hashlib.sha256(w1.T.tobytes()).hexdigest() == (
            "67af9c5b8d95e562e0000967e51edfc61c7ced87cd90e17011e8bf27a67d38d0")
