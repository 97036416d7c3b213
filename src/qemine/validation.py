"""Input validation and conversion helpers for the estimator layer.

Training and prediction entry points accept either the record types
from ``corpus`` or plain tuples; these helpers normalize both into
text lists plus numpy label arrays and raise early on bad labels.
"""

from __future__ import annotations

import numpy as np

from .errors import NotFittedError

__all__ = ["as_text_pairs", "as_pair_scores", "as_nli_data", "check_is_fitted"]


def _pair_of(item) -> tuple[str, str]:
    if hasattr(item, "source") and hasattr(item, "target"):
        return item.source, item.target
    if hasattr(item, "sentence1"):
        return item.sentence1, item.sentence2
    if hasattr(item, "premise"):
        return item.premise, item.hypothesis
    if len(item) >= 2:
        return str(item[0]), str(item[1])
    raise ValueError(f"cannot interpret {item!r} as a sentence pair")


def as_text_pairs(data) -> list[tuple[str, str]]:
    """Normalize records or tuples into a list of (textA, textB) pairs."""
    return [_pair_of(item) for item in data]


def as_pair_scores(data):
    """Normalize scored pairs into (texts_a, texts_b, float64 scores in [0,1])."""
    texts_a, texts_b, scores = [], [], []
    for item in data:
        if hasattr(item, "source"):
            a, b, s = item.source, item.target, item.score
        elif hasattr(item, "sentence1"):
            a, b, s = item.sentence1, item.sentence2, item.similarity
        else:
            a, b, s = item[0], item[1], item[2]
        texts_a.append(str(a))
        texts_b.append(str(b))
        scores.append(float(s))
    y = np.asarray(scores, dtype=np.float64)
    bad = np.flatnonzero(~((y >= 0.0) & (y <= 1.0)))  # NaN fails both comparisons
    if bad.size:
        raise ValueError(f"pair scores must lie in [0,1], got {float(y[bad[0]])!r} "
                         f"for pair {bad[0]}")
    return texts_a, texts_b, y


def as_nli_data(data):
    """Normalize labeled premise/hypothesis pairs into (texts, texts, int labels)."""
    premises, hypotheses, labels = [], [], []
    for item in data:
        if hasattr(item, "premise"):
            a, b, label = item.premise, item.hypothesis, item.label
        else:
            a, b, label = item[0], item[1], item[2]
        label = int(label)
        if label not in (0, 1, 2):
            raise ValueError(f"inference label must be 0, 1 or 2, got {label}")
        premises.append(str(a))
        hypotheses.append(str(b))
        labels.append(label)
    return premises, hypotheses, np.asarray(labels, dtype=np.int64)


def check_is_fitted(estimator, *attributes) -> None:
    """Raise NotFittedError unless every named attribute is set and non-None."""
    for name in attributes:
        if getattr(estimator, name, None) is None:
            raise NotFittedError(
                f"{type(estimator).__name__} is not fitted yet; call fit first"
            )
