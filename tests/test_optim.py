import numpy as np
import pytest

from qemine.errors import TrainingError
from qemine.optim import Adam, ColumnGrad

from oracles import DenseAdam


def _scalar_adam(theta, g, steps, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Independent re-simulation of the update rule in pure Python floats:
    ``theta`` after ``steps`` steps of the constant gradient ``g``."""
    m = v = 0.0
    for t in range(1, steps + 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta -= lr * m_hat / (v_hat**0.5 + eps)
    return theta


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        adam = Adam(1e-3)
        adam.step(params, {"w": np.zeros(3)})
        assert np.array_equal(params["w"], [1.0, -2.0, 3.0])

    def test_constant_gradient_matches_scalar_recurrence(self):
        lr = 1e-3
        g = 0.37
        theta = 1.5
        expected = _scalar_adam(theta, g, 25, lr)

        params = {"w": np.array([theta])}
        adam = Adam(lr)
        for _ in range(25):
            adam.step(params, {"w": np.array([g])})
        assert params["w"][0] == pytest.approx(expected, abs=1e-12)

    def test_deterministic_across_runs(self):
        def run():
            rng = np.random.default_rng(7)
            params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
            adam = Adam(1e-2)
            for _ in range(10):
                grads = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
                adam.step(params, grads)
            return params

        first = run()
        second = run()
        assert np.array_equal(first["a"], second["a"])
        assert np.array_equal(first["b"], second["b"])

    def test_untouched_blocks_keep_their_state(self):
        params = {"a": np.array([1.0]), "b": np.array([1.0])}
        adam = Adam(1e-3)
        adam.step(params, {"a": np.array([1.0]), "b": np.array([1.0])})
        a_after_one = params["a"].copy()
        adam.step(params, {"b": np.array([1.0])})
        assert np.array_equal(params["a"], a_after_one)

    def test_nonfinite_gradient_names_block(self):
        params = {"w1": np.array([1.0])}
        adam = Adam(1e-3)
        with pytest.raises(TrainingError, match="w1"):
            adam.step(params, {"w1": np.array([np.nan])})

    def test_nonfinite_gradient_names_its_block_among_the_dense_blocks(self):
        params = {"a": np.array([1.0, 2.0]), "b": np.array([[3.0], [4.0]]), "c": np.array([5.0])}
        original = {name: value.copy() for name, value in params.items()}
        adam = Adam(1e-3)
        with pytest.raises(TrainingError, match="'b'"):
            adam.step(params, {"a": np.ones(2), "b": np.array([[1.0], [np.inf]]), "c": np.ones(1)})
        assert all(np.array_equal(params[name], original[name]) for name in params)
        assert adam._state == {}

    @pytest.mark.parametrize("layout", ["F", "strided"])
    def test_rejects_a_dense_block_that_is_not_c_contiguous(self, layout):
        rng = np.random.default_rng(5)
        block = rng.normal(size=(3, 8))
        block = np.asfortranarray(block) if layout == "F" else block[:, ::2]
        original = block.copy()
        adam = Adam(1e-3)
        with pytest.raises(TrainingError, match="'W2' is not C-contiguous"):
            adam.step({"W2": block}, {"W2": rng.normal(size=block.shape)})
        assert block.tobytes() == original.tobytes()
        assert adam._state == {}

    def test_rejects_a_gradient_of_another_shape(self):
        block = np.arange(6.0).reshape(2, 3)
        adam = Adam(1e-3)
        with pytest.raises(TrainingError,
                           match=r"\(3, 2\) for parameter block 'W2' of shape \(2, 3\)"):
            adam.step({"W2": block}, {"W2": np.ones((3, 2))})
        assert np.array_equal(block, np.arange(6.0).reshape(2, 3))
        assert adam._state == {}

    def test_rejects_nonpositive_learning_rate(self):
        for learning_rate in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
                Adam(learning_rate)


def _feature_major(rng, hidden, n_features):
    return np.asfortranarray(rng.normal(size=(hidden, n_features)))


def _column_grad(rng, cols, hidden, n_features, scale=1.0):
    cols = np.asarray(cols)
    return ColumnGrad(cols, rng.normal(0.0, scale, size=(len(cols), hidden)), (hidden, n_features))


class TestLazyAdam:
    """The lazy update of a feature-major block against dense Adam."""

    @staticmethod
    def _every_column_against_dense(dtype):
        # 64 hidden units and 1,200 columns: the lazy update runs in several chunks
        # W2 is a C-contiguous (d, H) block; the head gets no gradient on odd
        # steps, and nli_w none before step 7: each block of the one dense
        # update is bias-corrected by its own step count
        hidden, n_features, dim = 64, 1200, 24
        rng = np.random.default_rng(0)
        lazy = {"W1": _feature_major(rng, hidden, n_features), "b1": rng.normal(size=hidden),
                "W2": rng.normal(size=(dim, hidden)), "qe_w": rng.normal(size=4 * dim + 1),
                "nli_w": rng.normal(size=(3, 4 * dim + 1))}
        lazy = {name: value.astype(dtype) for name, value in lazy.items()}
        dense = {name: np.copy(value) for name, value in lazy.items()}
        lazy_adam, dense_adam = Adam(1e-2), DenseAdam(1e-2)
        for step in range(40):
            scale = 10.0 ** rng.uniform(-6, 2)
            grad = _column_grad(rng, np.arange(n_features), hidden, n_features, scale)
            grads = {"W1": ColumnGrad(grad.cols, grad.rows.astype(dtype), grad.shape),
                     "b1": rng.normal(size=hidden).astype(dtype),
                     "W2": rng.normal(0.0, scale, size=(dim, hidden)).astype(dtype)}
            if step % 2 == 0:
                grads["qe_w"] = rng.normal(size=4 * dim + 1).astype(dtype)
            if step >= 6:
                grads["nli_w"] = rng.normal(0.0, scale, size=(3, 4 * dim + 1)).astype(dtype)
            lazy_adam.step(lazy, grads)
            dense_adam.step(dense, grads)
            for name in lazy:
                assert lazy[name].dtype == dtype
                assert lazy[name].tobytes() == dense[name].tobytes(), (name, step)
        assert lazy["W1"].T.flags.c_contiguous
        assert all(m.dtype == dtype for m, _, _ in lazy_adam._state.values())
        assert [lazy_adam._state[name][2].tolist() for name in ("b1", "qe_w", "nli_w")] \
            == [[40], [20], [34]]

    def test_every_column_touched_equals_dense_adam(self):
        self._every_column_against_dense(np.float64)

    def test_every_column_touched_equals_dense_adam_in_float32(self):
        """float32 is the training dtype: the moments stay float32 and the
        bias corrections are rounded as the dense update rounds them."""
        self._every_column_against_dense(np.float32)

    def test_untouched_columns_keep_value_and_state(self):
        hidden, n_features = 5, 40
        rng = np.random.default_rng(1)
        params = {"W1": _feature_major(rng, hidden, n_features)}
        adam = Adam(1e-2)
        adam.step(params, {"W1": _column_grad(rng, np.arange(0, n_features, 2), hidden, n_features)})
        for _ in range(10):
            cols = np.sort(rng.choice(n_features, 12, replace=False))
            untouched = np.setdiff1d(np.arange(n_features), cols)
            m, v, t = adam._state["W1"]
            before = [a[untouched].tobytes() for a in (params["W1"].T, m, v, t)]
            adam.step(params, {"W1": _column_grad(rng, cols, hidden, n_features)})
            after = [a[untouched].tobytes() for a in (params["W1"].T, m, v, t)]
            assert after == before
            assert np.all(adam._state["W1"][2][cols] >= 1)

    def test_column_first_touched_late_is_corrected_from_its_first_step(self):
        lr, g, theta = 1e-3, 0.37, 1.5
        params = {"W1": np.asfortranarray([[0.2, theta]])}
        adam = Adam(lr)
        for _ in range(4):
            adam.step(params, {"W1": ColumnGrad(np.array([0]), np.array([[-0.5]]), (1, 2))})
        assert params["W1"][0, 1] == theta
        for _ in range(25):
            adam.step(params, {"W1": ColumnGrad(np.array([0, 1]), np.array([[-0.5], [g]]), (1, 2))})
        assert adam._state["W1"][2].tolist() == [29, 25]
        assert params["W1"][0, 1] == pytest.approx(_scalar_adam(theta, g, 25, lr), abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_touched_gradient_names_W1(self, bad):
        rng = np.random.default_rng(2)
        params = {"W1": _feature_major(rng, 3, 8)}
        original = params["W1"].copy()
        grad = _column_grad(rng, [1, 4, 6], 3, 8)
        grad.rows[1, 2] = bad
        with pytest.raises(TrainingError, match="W1"):
            Adam(1e-3).step(params, {"W1": grad})
        assert np.array_equal(params["W1"], original)

    def test_a_bad_head_gradient_leaves_W1_and_every_block_unchanged(self):
        rng = np.random.default_rng(6)
        params = {"W1": _feature_major(rng, 3, 8), "b1": rng.normal(size=3),
                  "qe_w": rng.normal(size=5)}
        original = {name: value.copy() for name, value in params.items()}
        adam = Adam(1e-3)
        grads = {"W1": _column_grad(rng, [0, 5], 3, 8), "b1": rng.normal(size=3),
                 "qe_w": np.array([1.0, 2.0, np.nan, 4.0, 5.0])}
        with pytest.raises(TrainingError, match="'qe_w'"):
            adam.step(params, grads)
        assert all(params[name].tobytes() == original[name].tobytes() for name in params)
        assert adam._state == {}

    @pytest.mark.parametrize("cols, rows", [
        ([1, 4], np.ones((2, 5))),  # rows of the wrong width
        ([1, 4], np.ones((3, 3))),  # one row too many
        ([[1, 4]], np.ones((1, 3))),  # columns not a 1-D array
        ([4, 1], np.ones((2, 3))),  # decreasing
        ([1, 1], np.ones((2, 3))),  # repeated
        ([-1, 4], np.ones((2, 3))),
        ([1, 8], np.ones((2, 3))),  # past the last column
        ([1.0, 4.0], np.ones((2, 3))),
    ], ids=["width", "count", "2-d", "decreasing", "repeated", "negative", "past-end", "float"])
    def test_a_malformed_column_grad_leaves_every_block_and_state_unchanged(self, cols, rows):
        rng = np.random.default_rng(7)
        params = {"b1": rng.normal(size=3), "W1": _feature_major(rng, 3, 8)}
        adam = Adam(1e-3)
        adam.step(params, {"b1": rng.normal(size=3), "W1": _column_grad(rng, [0, 4, 6], 3, 8)})
        before = [params[name].tobytes() for name in params]
        state = [a.tobytes() for arrays in adam._state.values() for a in arrays]
        grads = {"b1": rng.normal(size=3), "W1": ColumnGrad(np.asarray(cols), rows, (3, 8))}
        with pytest.raises(TrainingError, match="'W1'"):
            adam.step(params, grads)
        assert [params[name].tobytes() for name in params] == before
        assert [a.tobytes() for arrays in adam._state.values() for a in arrays] == state
        assert adam._steps == 1

    def test_rejects_a_block_that_is_not_feature_major(self):
        rng = np.random.default_rng(3)
        params = {"W1": rng.normal(size=(3, 8))}
        with pytest.raises(TrainingError, match="feature-major"):
            Adam(1e-3).step(params, {"W1": _column_grad(rng, [0, 5], 3, 8)})

    def test_column_grad_densifies_feature_major(self):
        rng = np.random.default_rng(4)
        grad = _column_grad(rng, [0, 3, 7], 2, 9)
        dense = np.asarray(grad)
        assert dense.shape == grad.shape == (2, 9)
        assert dense.T.flags.c_contiguous
        assert np.array_equal(dense[:, [0, 3, 7]], grad.rows.T)
        assert not dense[:, [1, 2, 4, 5, 6, 8]].any()
        assert grad.size == 6

