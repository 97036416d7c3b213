"""The one embedding rule, ``embed_sides``, shared by inference, mining
and feature-stack training."""

from __future__ import annotations

from itertools import chain

import numpy as np

from . import features
from .backprop import hidden_layer, output_layer


def embed_sides(models, sides) -> list:
    """``[[model.embed(side) for side in sides] for model in models]``.

    A model with ``_encoders()``, the ``(params, FeaturizerConfig)`` pairs
    whose embeddings side by side are its ``embed`` rows, embeds by one
    rule.  The distinct texts of all sides are featurized once per config
    and go through each encoder once; a row's bits depend only on its own
    text, so each side takes its rows from that one pass.  Any other model
    embeds each side with its own ``embed``.
    """
    sides = [list(side) for side in sides]
    groups = [model._encoders() if hasattr(model, "_encoders") else None for model in models]
    configs = dict.fromkeys(config for group in groups if group for _, config in group)
    if configs:
        if not all(sides):
            raise ValueError("cannot featurize an empty list of texts")
        distinct, rows = features.distinct_texts(list(chain.from_iterable(sides)))
        featurized = {config: features.featurize_all(distinct, config) for config in configs}
        bounds = np.cumsum([len(side) for side in sides[:-1]])
    embedded = []
    for model, group in zip(models, groups):
        if group is None:
            embedded.append([model.embed(side) for side in sides])
            continue
        parts = [output_layer(p, hidden_layer(p, featurized[c])) for p, c in group]
        emb = parts[0] if len(parts) == 1 else np.hstack(parts)
        embedded.append(np.split(emb[rows], bounds))
    return embedded
