"""Input validation and conversion helpers for the estimator layer.

Training and prediction read pairs from ``corpus`` records or from
tuples or lists by position; any other item, a bare string included,
raises ``ValueError``.  The converters return columns, ``(texts_a,
texts_b)`` or ``(texts_a, texts_b, labels)``, and reject bad labels.
``all_finite`` is the one finiteness check of Adam's gradients, score
matrices and model weights.
"""

from __future__ import annotations

import numpy as np

from .corpus import NLIRecord, QERecord, STSRecord
from .errors import NotFittedError

__all__ = ["all_finite", "as_text_pairs", "as_pair_scores", "as_nli_data", "check_is_fitted"]


def all_finite(array) -> bool:
    """Whether every entry of ``array`` is finite.

    A finite sum has only finite terms, so only a sum that is not (a NaN
    or infinity, or finite entries that overflow it) takes the exact
    check's one-byte-per-entry mask.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(array)
    return bool(np.isfinite(total) or np.isfinite(array).all())


# The (text, text, label) fields of each corpus record type.
_FIELDS = {QERecord: lambda r: (r.source, r.target, r.score),
           STSRecord: lambda r: (r.sentence1, r.sentence2, r.similarity),
           NLIRecord: lambda r: (r.premise, r.hypothesis, r.label)}


def _columns(data, records: tuple, width: int) -> tuple[list, list, list]:
    """Texts A, texts B and (at width 3) labels of ``data``: a record of a type
    in ``records`` is read through ``_FIELDS``, a tuple or list by position."""
    texts_a, texts_b, labels = [], [], []
    for index, item in enumerate(data):
        if type(item) in records:
            item = _FIELDS[type(item)](item)
        elif not isinstance(item, (tuple, list)) or len(item) < width:
            raise ValueError(f"item {index} must be a {'/'.join(r.__name__ for r in records)} or a "
                             f"tuple or list of at least {width} fields, got {item!r}")
        texts_a.append(str(item[0]))
        texts_b.append(str(item[1]))
        if width == 3:
            labels.append(item[2])
    return texts_a, texts_b, labels


def as_text_pairs(data) -> tuple[list[str], list[str]]:
    """Records or (textA, textB) tuples as columns (texts_a, texts_b)."""
    return _columns(data, tuple(_FIELDS), 2)[:2]


def as_pair_scores(data):
    """QE or STS records or scored tuples as (texts_a, texts_b, float64 scores in [0,1])."""
    texts_a, texts_b, scores = _columns(data, (QERecord, STSRecord), 3)
    y = np.asarray(scores, dtype=np.float64)
    bad = np.flatnonzero(~((y >= 0.0) & (y <= 1.0)))  # NaN fails both comparisons
    if bad.size:
        raise ValueError(f"pair scores must lie in [0,1], got {float(y[bad[0]])!r} "
                         f"for pair {bad[0]}")
    return texts_a, texts_b, y


def as_nli_data(data):
    """NLI records or labeled tuples as (premises, hypotheses, int64 labels in {0, 1, 2})."""
    premises, hypotheses, labels = _columns(data, (NLIRecord,), 3)
    y = np.asarray(labels, dtype=np.float64)
    bad = np.flatnonzero(~np.isin(y, (0, 1, 2)))
    if bad.size:
        raise ValueError(f"inference label must be 0, 1 or 2, got {labels[bad[0]]!r} "
                         f"for pair {bad[0]}")
    return premises, hypotheses, y.astype(np.int64)


def check_is_fitted(estimator, *attributes) -> None:
    """Raise NotFittedError unless every named attribute is set and non-None."""
    for name in attributes:
        if getattr(estimator, name, None) is None:
            raise NotFittedError(
                f"{type(estimator).__name__} is not fitted yet; call fit first"
            )
