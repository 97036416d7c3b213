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
    and go through each encoder's hidden layer once, which projects each
    distinct word's grams once and sums the projections per text; a hidden
    row's bits depend only on its own text.  The output layer runs once per side,
    over that side's distinct rows in first-occurrence order: BLAS picks
    its kernel by row count, so a side's bits do not depend on the other
    sides or models in the call.  Any other model embeds each side with
    its own ``embed``.
    """
    sides = [list(side) for side in sides]
    groups = [model._encoders() if hasattr(model, "_encoders") else None for model in models]
    configs = dict.fromkeys(config for group in groups if group for _, config in group)
    if configs:
        if not all(sides):
            raise ValueError("cannot featurize an empty list of texts")
        distinct, rows = features.distinct_texts(list(chain.from_iterable(sides)))
        featurized = {config: features.featurize_all(distinct, config) for config in configs}
        # per side: its distinct texts as rows of the hidden layer, and each text's row among them
        bounds = np.cumsum([len(side) for side in sides[:-1]])
        per_side = [features.distinct_texts(side_rows.tolist()) for side_rows in np.split(rows, bounds)]
    embedded = []
    for model, group in zip(models, groups):
        if group is None:
            embedded.append([model.embed(side) for side in sides])
            continue
        blocks = []
        for params, config in group:
            hidden = hidden_layer(params, featurized[config])
            blocks.append([output_layer(params, hidden[at])[local] for at, local in per_side])
        embedded.append([parts[0] if len(parts) == 1 else np.hstack(parts)
                         for parts in zip(*blocks)])
    return embedded
