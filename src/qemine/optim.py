"""Adaptive-moment gradient descent over named parameter blocks.

State (first/second moments and step count) is kept per block, in the
block's dtype, so a block that is frozen for some phase of training
keeps its bias correction consistent when it resumes.  The update is
Kingma & Ba's efficient order (arXiv:1412.6980, §2) on the moments
stored as m/(1-β1) and v/(1-β2): a row's t-th update subtracts
α_t·m/(√v + ε_t), with α_t = lr·(1-β1)/(1-β1^t)·s_t, ε_t = ε·s_t and
s_t = √((1-β2^t)/(1-β2)), which is lr·m̂/(√v̂ + ε) in exact arithmetic.

A block whose gradient is a ``ColumnGrad`` (the encoder's ``W1``) is
updated lazily, with the semantics of TensorFlow's LazyAdam and
PyTorch's ``SparseAdam``: only the feature columns the batch touched
move, and their moments and step counts advance; an untouched column
keeps its value and its state exactly, rather than drifting on stale
momentum.  Each column has its own step count, so a column first
touched at step 5 is bias-corrected as at its step 1.  The block must be
feature-major: an (H, F) array whose transpose is C-contiguous, so that
a column is one contiguous row of ``param.T`` and of the moment arrays.
Every other block must be C-contiguous and goes through the same
routine as one row of its own C-order entries.  Every block is checked
(finite gradient of the block's shape, layout, and for a ``ColumnGrad``
one row of width H per column, strictly increasing columns in [0, F))
before any block or step count moves.
When every column is touched at every step the lazy
update equals dense Adam bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingError

__all__ = ["Adam", "ColumnGrad"]

# Bytes per chunk buffer of an update, just below glibc's 128 KiB mmap threshold
_CHUNK_BYTES = (1 << 17) - 1
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
        if not 0 < learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {learning_rate!r}")
        self.learning_rate = learning_rate
        self._state: dict[str, tuple] = {}
        self._steps = 0
        # (alpha_t, eps_t) for t = 1, 2, ...; powers in Python floats, as dense Adam's
        self._factors = np.empty((2, 0))

    def step(self, params: dict, grads: dict) -> None:
        """Update every block named in grads in place; other blocks stay untouched."""
        checked = []
        for name, grad in grads.items():
            param = params[name]
            if isinstance(grad, ColumnGrad):
                rows, shape, table, layout = grad.rows, grad.shape, param.T, "feature-major"
            else:
                rows = np.asarray(grad, param.dtype)
                shape, table, layout = rows.shape, param, "C-contiguous"
            # a finite sum has only finite terms
            if not np.isfinite(rows.sum()) and not np.isfinite(rows).all():
                raise TrainingError(f"non-finite gradient in parameter block {name!r}")
            if shape != param.shape:
                raise TrainingError(f"gradient of shape {shape} for parameter block {name!r} "
                                    f"of shape {param.shape}")
            if not table.flags.c_contiguous:
                raise TrainingError(f"parameter block {name!r} is not {layout}")
            if isinstance(grad, ColumnGrad):
                cols = np.asarray(grad.cols)
                if cols.ndim != 1 or rows.shape != (len(cols), table.shape[1]):
                    raise TrainingError(f"gradient rows of shape {rows.shape} for {cols.size} "
                                        f"columns of parameter block {name!r} of shape {shape}")
                if cols.dtype.kind not in "iu" or cols.size and (
                        cols[0] < 0 or cols[-1] >= len(table) or np.any(cols[1:] <= cols[:-1])):
                    raise TrainingError(f"gradient columns of parameter block {name!r} are not "
                                        f"strictly increasing integers in [0, {len(table)})")
                checked.append((name, table, cols, rows))
            else:
                checked.append((name, param.reshape(1, -1), slice(None), rows.reshape(1, -1)))
        # every block checked before any moves: a bad gradient leaves all of them as they were;
        # no row is updated more often than step is called
        self._steps += 1
        if self._steps > self._factors.shape[1]:
            steps = range(1, 2 * self._steps + 1)
            scales = [math.sqrt((1.0 - _BETA2 ** t) / (1.0 - _BETA2)) for t in steps]
            self._factors = np.array([[self.learning_rate * (1.0 - _BETA1) / (1.0 - _BETA1 ** t) * s
                                       for t, s in zip(steps, scales)], [_EPS * s for s in scales]])
        for name, table, touched, rows in checked:
            m, v, factors = self._advance(name, table, touched)
            self._update(table, m, v, touched, rows, *factors[:, :, None])

    def _advance(self, name: str, table: np.ndarray, touched) -> tuple:
        """Block ``name``'s moments, after advancing the step counts of the
        rows ``touched`` of ``table``, and those rows' (alpha_t, eps_t)."""
        if name not in self._state:  # np.zeros maps pages lazily: only touched rows take memory
            self._state[name] = (*np.zeros((2, *table.shape), table.dtype),
                                 np.zeros(len(table), dtype=np.int64))
        m, v, t = self._state[name]
        t[touched] += 1
        # in the block's dtype, as numpy rounds dense Adam's Python-float factors
        return m, v, self._factors.take(t[touched] - 1, axis=1).astype(table.dtype)

    @staticmethod
    def _update(table, m_all, v_all, touched, rows, alpha, eps) -> None:
        """Update the rows ``touched`` (a strictly increasing index array, or
        ``slice(None)`` for all) of ``table`` and its moments by their
        gradients ``rows`` and the factors ``alpha`` and ``eps`` broadcast
        against them, a chunk at a time through buffers that stay in cache."""
        chunk = max(1, _CHUNK_BYTES // table[:1].nbytes)
        whole = isinstance(touched, slice)
        # the step, then the gathered m, v and rows
        buffers = [np.empty_like(table[: min(chunk, len(rows))]) for _ in range(1 if whole else 4)]
        for lo in range(0, len(rows), chunk):
            grad = rows[lo : lo + chunk]
            step = buffers[0][: len(grad)]
            if whole:
                at = slice(lo, lo + chunk)
                m, v, updated = m_all[at], v_all[at], table[at]
            else:
                at = touched[lo : lo + chunk]
                # np.take's default mode "raise" would buffer ``out``
                m, v, updated = (np.take(source, at, axis=0, out=buffer[: len(at)], mode="clip")
                                 for source, buffer in zip((m_all, v_all, table), buffers[1:]))
            m *= _BETA1
            m += grad
            v *= _BETA2
            np.multiply(grad, grad, out=step)
            v += step
            np.sqrt(v, out=step)
            step += eps[lo : lo + chunk]
            np.divide(m, step, out=step)
            step *= alpha[lo : lo + chunk]
            updated -= step
            if not whole:
                m_all[at], v_all[at], table[at] = m, v, updated
