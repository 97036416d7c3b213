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
Every other block must be C-contiguous, and is updated by the same
routine as one row of its C-order entries.  When every column is touched
at every step the lazy update equals dense Adam bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TrainingError

__all__ = ["Adam", "ColumnGrad"]

# Entries per chunk of an update (128 KiB of float32 per temporary)
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
        self._steps = 0
        # 1 - beta**t for t = 1, 2, ..., in Python floats as dense Adam
        # computes them (numpy's vectorized power may differ in the last bit)
        self._corrections = np.empty((2, 0))

    def step(self, params: dict, grads: dict) -> None:
        """Update every block named in grads in place; other blocks stay untouched."""
        # no row is updated more often than step is called
        self._steps += 1
        if self._steps > self._corrections.shape[1]:
            steps = range(1, 2 * self._steps + 1)
            self._corrections = np.array([[1.0 - _BETA1 ** k for k in steps],
                                          [1.0 - _BETA2 ** k for k in steps]])
        for name, grad in grads.items():
            param = params[name]
            if isinstance(grad, ColumnGrad):
                if not param.T.flags.c_contiguous:
                    raise TrainingError(f"parameter block {name!r} is not feature-major")
                self._update(name, param.T, grad.cols, grad.rows)
            else:
                if not param.flags.c_contiguous:
                    raise TrainingError(f"parameter block {name!r} is not C-contiguous")
                grad = np.asarray(grad, dtype=param.dtype).reshape(1, -1)
                self._update(name, param.reshape(1, -1), slice(None), grad)

    def _update(self, name: str, table: np.ndarray, touched, rows: np.ndarray) -> None:
        """Update the rows ``touched`` (a strictly increasing index array, or
        ``slice(None)`` for all) of ``table``, a C-contiguous view of block
        ``name``, by their gradients ``rows``.  Each row has its own moments
        and step count.  The rows go a chunk at a time, so that the
        temporaries of one chunk stay in cache."""
        if not np.isfinite(rows).all():
            raise TrainingError(f"non-finite gradient in parameter block {name!r}")
        if name not in self._state:
            # np.zeros maps pages lazily: only touched rows take memory
            self._state[name] = (np.zeros(table.shape, table.dtype),
                                 np.zeros(table.shape, table.dtype),
                                 np.zeros(len(table), dtype=np.int64))
        m_all, v_all, t_all = self._state[name]
        t = t_all[touched] + 1
        t_all[touched] = t
        # in the block's dtype, as numpy rounds dense Adam's Python-float divisors
        c1, c2 = self._corrections.take(t - 1, axis=1).astype(table.dtype)
        chunk = max(1, _CHUNK_ELEMS // table.shape[1])
        whole = isinstance(touched, slice)
        for lo in range(0, len(t), chunk):
            at = slice(lo, lo + chunk) if whole else touched[lo : lo + chunk]
            grad = rows[lo : lo + chunk]
            # copies of the moments, which the update then overwrites (a
            # slice's rows are views, an index array's are copies already)
            m = m_all[at].copy() if whole else m_all[at]
            step = np.subtract(grad, m)
            step *= 1.0 - _BETA1
            m += step
            m_all[at] = m
            v = v_all[at].copy() if whole else v_all[at]
            np.multiply(grad, grad, out=step)
            step -= v
            step *= 1.0 - _BETA2
            v += step
            v_all[at] = v
            m /= c1[lo : lo + chunk, None]
            m *= self.learning_rate
            v /= c2[lo : lo + chunk, None]
            np.sqrt(v, out=v)
            v += _EPS
            m /= v
            updated = table[at]
            updated -= m
            table[at] = updated
