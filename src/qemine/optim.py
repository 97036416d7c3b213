"""Adaptive-moment gradient descent over named parameter blocks.

State (first/second moments and step count) is kept per block, in the
block's dtype, so a block that is frozen for some phase of training
keeps its bias correction consistent when it resumes.

A block whose gradient is a ``ColumnGrad`` (the encoder's ``W1``) is
updated lazily, with the semantics of TensorFlow's LazyAdam and
PyTorch's ``SparseAdam``: only the feature columns the batch touched
move, and their moments and step counts advance; an untouched column
keeps its value and its state exactly, rather than drifting on stale
momentum.  Each column has its own step count, so a column first
touched at step 5 is bias-corrected as at its step 1.  The block must be
feature-major: an (H, F) array whose transpose is C-contiguous, so that
a column is one contiguous row of ``param.T`` and of the moment arrays.
When every column is touched at every step the lazy update equals the
dense one bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TrainingError

__all__ = ["Adam", "ColumnGrad"]

# Entries per chunk of a lazy update (128 KiB of float32 per temporary)
_CHUNK_ELEMS = 1 << 15
# Moment decay rates and the denominator's epsilon (Kingma & Ba's defaults)
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass(frozen=True)
class ColumnGrad:
    """Gradient of an (H, F) block that is zero outside the columns ``cols``.

    ``cols`` is strictly increasing and ``rows[j]`` is the gradient of
    column ``cols[j]``, that is of row ``cols[j]`` of the block's
    transpose.  As for scipy's sparse matrices, ``shape`` is the dense
    shape and ``size`` the number of stored entries; ``np.asarray``
    returns the dense, feature-major gradient.
    """

    cols: np.ndarray
    rows: np.ndarray
    shape: tuple

    @property
    def size(self) -> int:
        return self.rows.size

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a ColumnGrad has no dense array to view without a copy")
        dense = np.zeros(self.shape[::-1], dtype=self.rows.dtype if dtype is None else dtype)
        dense[self.cols] = self.rows
        return dense.T


class Adam:
    def __init__(self, learning_rate: float = 1e-3):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate
        self._state: dict[str, tuple] = {}
        # 1 - beta**t for t = 1, 2, ..., in Python floats as the dense update
        # computes them (numpy's vectorized power may differ in the last bit)
        self._corrections = np.empty((2, 0))

    def step(self, params: dict, grads: dict) -> None:
        """Update every block named in grads in place; other blocks stay untouched."""
        for name, grad in grads.items():
            if isinstance(grad, ColumnGrad):
                self._column_step(name, params[name], grad)
                continue
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
            m += (1.0 - _BETA1) * (grad - m)
            v += (1.0 - _BETA2) * (grad * grad - v)
            m_hat = m / (1.0 - _BETA1 ** t)
            v_hat = v / (1.0 - _BETA2 ** t)
            params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + _EPS)
            self._state[name] = (m, v, t)

    def _column_step(self, name: str, param: np.ndarray, grad: ColumnGrad) -> None:
        """Lazy update of the touched columns of a feature-major block.

        Each entry goes through the dense update's operations in the same
        order.  The columns are updated a chunk at a time, so that the
        temporaries of one chunk stay in cache.
        """
        table = param.T
        if not table.flags.c_contiguous:
            raise TrainingError(f"parameter block {name!r} is not feature-major")
        if not np.all(np.isfinite(grad.rows)):
            raise TrainingError(f"non-finite gradient in parameter block {name!r}")
        if name not in self._state:
            # np.zeros maps pages lazily: only touched columns take memory
            self._state[name] = (np.zeros(table.shape, table.dtype),
                                 np.zeros(table.shape, table.dtype),
                                 np.zeros(len(table), dtype=np.int64))
        m_all, v_all, t_all = self._state[name]
        t = t_all[grad.cols] + 1
        t_all[grad.cols] = t
        # in the block's dtype, as the dense update rounds its Python-float divisors
        c1, c2 = self._bias_corrections(t).astype(table.dtype)
        chunk = max(1, _CHUNK_ELEMS // table.shape[1])
        for lo in range(0, len(t), chunk):
            cols = grad.cols[lo : lo + chunk]
            rows = grad.rows[lo : lo + chunk]
            m = m_all[cols]
            step = np.subtract(rows, m)
            step *= 1.0 - _BETA1
            m += step
            m_all[cols] = m
            v = v_all[cols]
            np.multiply(rows, rows, out=step)
            step -= v
            step *= 1.0 - _BETA2
            v += step
            v_all[cols] = v
            m /= c1[lo : lo + chunk, None]
            m *= self.learning_rate
            v /= c2[lo : lo + chunk, None]
            np.sqrt(v, out=v)
            v += _EPS
            m /= v
            updated = table[cols]
            updated -= m
            table[cols] = updated

    def _bias_corrections(self, t: np.ndarray) -> np.ndarray:
        """(1 - beta1**t, 1 - beta2**t) for an array of step counts."""
        known = self._corrections.shape[1]
        need = int(t.max(initial=0))
        if need > known:
            steps = range(1, max(need, 2 * known) + 1)
            self._corrections = np.array([[1.0 - _BETA1 ** k for k in steps],
                                          [1.0 - _BETA2 ** k for k in steps]])
        return self._corrections[:, t - 1]
