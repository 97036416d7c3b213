"""Estimator-style wrappers around the training pipelines.

These follow the scikit-learn conventions: hyperparameters are
constructor arguments mirrored by get_params/set_params, fit returns
self, fitted state lives in trailing-underscore attributes, and
inference goes through predict/embed.  ``fit`` hands the four settings
every pipeline reads (epochs, batch size, learning rate, seed) to its
training function as a ``TrainConfig``, and the pipeline's own
settings (``MultitaskScorer``'s tasks and fine-tuning epochs,
``ContrastiveFilter``'s margin, ``FeatureStackScorer``'s hidden units) as
arguments of their own.  ``MultitaskScorer.fit`` early-stops when it is
given a validation set.

Every model exposes ``embed(texts)``: one embedding row per text, in
input order.  Scorers add ``score_embeddings(ua, ub)``, the quality
head over aligned embedding rows.  Mining and all text-level inference
(``predict*``, ``score_pairs``, ``score_matrix``) go through these two;
``MultitaskScorer.score_grid(ua, ub)`` scores every pair of two embedding
sets, which ``mining.score_matrix`` uses in place of aligned blocks.

Each model lists its own ``(params, featurizer)`` encoders in
``_encoders()`` (a ``FeatureStackScorer`` lists its three backbones'),
and ``embed`` goes through ``embedding.embed_sides``, the one embedding
rule that mining and the feature stack's training use too.  Aligned
pairs, from ``predict*``, ``score_pairs`` or ``FeatureStackScorer.predict``,
are embedded as two sides, the sources and the targets, as mining embeds
its two sides; a pair scores alike alone, in a batch and in mining.
Inference reads the fitted models' own float32 arrays at every call,
through ``_require_fitted``, so a reassigned model is used at once.
"""

from __future__ import annotations

import inspect

import numpy as np

from . import backprop, mining
from .embedding import embed_sides
from .errors import ConfigError
from .features import FeaturizerConfig, featurize_all  # noqa: F401 - perfbench/tracing.py wraps it here
from .model import (EncoderConfig, FeatureStackModel, HeadSet, load_feature_model, load_model,
                    load_qe_model, save_model)
from .training import TrainConfig, multitask_train, train_feature_stack, train_filtration
from .validation import as_text_pairs, check_is_fitted

__all__ = ["MultitaskScorer", "ContrastiveFilter", "FeatureStackScorer", "load_qe_scorer"]


class _EstimatorMixin:
    """get_params/set_params over the constructor signature, and the
    ``TrainConfig`` of the four settings every pipeline reads; a
    pipeline's own settings go to its training function as they are."""

    @classmethod
    def _param_names(cls):
        signature = inspect.signature(cls.__init__)
        return tuple(name for name in signature.parameters if name != "self")

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = self._param_names()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def _train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                           learning_rate=self.learning_rate, seed=self.seed)


def _check_aligned(ua, ub) -> None:
    if ua.shape[0] != ub.shape[0]:
        raise ValueError(f"embedding rows are not aligned: {ua.shape[0]} vs {ub.shape[0]}")


def _score_sides(scorer, texts_a, texts_b, **head) -> np.ndarray:
    """Scores of the aligned pairs of two text lists, embedded as two sides."""
    return scorer.score_embeddings(*embed_sides([scorer], [texts_a, texts_b])[0], **head)


def _score_text_pairs(scorer, pairs, **head) -> np.ndarray:
    """Scores of aligned (textA, textB) pairs."""
    pairs = as_text_pairs(pairs)
    return _score_sides(scorer, [p[0] for p in pairs], [p[1] for p in pairs], **head)


class _EncoderParams:
    """Encoder hyperparameters, fitted-state checks and loading by encoder."""

    _fitted = ("encoder_",)

    def _encoder_config(self) -> EncoderConfig:
        featurizer = FeaturizerConfig(tuple(self.ngram_orders), self.n_features, self.hash_seed)
        return EncoderConfig(featurizer, self.hidden_units, self.embedding_dim)

    def _require_fitted(self) -> dict:
        """The fitted models' own arrays under ``backprop``'s block names."""
        check_is_fitted(self, *self._fitted)
        params = self.encoder_.params()
        if "heads_" in self._fitted:
            params.update(self.heads_.params())
        return params

    def _encoders(self) -> list:
        return [(self._require_fitted(), self.encoder_.featurizer)]

    @classmethod
    def _from_encoder(cls, model):
        featurizer = model.featurizer
        est = cls(n_features=featurizer.n_features, hidden_units=model.hidden_units,
                  embedding_dim=model.embedding_dim, ngram_orders=featurizer.ngram_orders,
                  hash_seed=featurizer.hash_seed)
        est.encoder_ = model
        return est


class MultitaskScorer(_EstimatorMixin, _EncoderParams):
    """Shared-backbone quality scorer with optional STS and NLI co-training.

    Parameters
    ----------
    tasks : tuple of {"qe", "sts", "nli"}
        Tasks interleaved during the first training phase.
    epochs, finetune_epochs : int
        Multitask epochs, then QE-only fine-tuning epochs.  A validation
        set passed to ``fit`` switches on early stopping on validation
        Pearson, with ``epochs`` as the most multitask epochs.
    """

    _fitted = ("encoder_", "heads_")

    def __init__(self, tasks=("qe", "sts", "nli"), epochs=3, finetune_epochs=1,
                 batch_size=32, learning_rate=1e-3, n_features=32768,
                 hidden_units=256, embedding_dim=128, ngram_orders=(1, 2, 3, 4),
                 hash_seed=0, seed=42):
        self.tasks = tasks
        self.epochs = epochs
        self.finetune_epochs = finetune_epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.n_features = n_features
        self.hidden_units = hidden_units
        self.embedding_dim = embedding_dim
        self.ngram_orders = ngram_orders
        self.hash_seed = hash_seed
        self.seed = seed
        self.encoder_ = None
        self.heads_ = None
        self.history_ = None

    def fit(self, qe=None, sts=None, nli=None, validation=None):
        self.encoder_, self.heads_, self.history_ = multitask_train(
            qe, sts, nli, self._train_config(), self._encoder_config(), validation,
            tasks=self.tasks, finetune_epochs=self.finetune_epochs)
        return self

    def embed(self, texts) -> np.ndarray:
        """Backbone embeddings, one row per text."""
        return embed_sides([self], [texts])[0][0]

    def score_embeddings(self, ua, ub, task="qe") -> np.ndarray:
        """QE (default) or STS scores in (0,1), or NLI class probabilities."""
        params = self._require_fitted()
        _check_aligned(ua, ub)
        if task == "nli":
            return backprop.nli_head(params, ua, ub)[0]
        return backprop.regression_head(params, task, ua, ub)[0]

    def score_grid(self, ua, ub, task="qe") -> np.ndarray:
        """QE (default) or STS scores of every (ua row, ub row) pair, a
        len(ua) × len(ub) array; ``task="nli"`` raises ``ValueError``."""
        return backprop.regression_head_grid(self._require_fitted(), task, ua, ub)

    def score_pairs(self, texts_a, texts_b) -> np.ndarray:
        return _score_sides(self, texts_a, texts_b)

    def predict(self, pairs) -> np.ndarray:
        """Quality scores in (0,1) for (source, translation) pairs."""
        return _score_text_pairs(self, pairs)

    def predict_sts(self, pairs) -> np.ndarray:
        return _score_text_pairs(self, pairs, task="sts")

    def predict_nli(self, pairs) -> np.ndarray:
        return _score_text_pairs(self, pairs, task="nli")

    def score_matrix(self, references, hypotheses) -> np.ndarray:
        """All pairwise QE scores, embedding each sentence only once."""
        return mining.score_matrix(self, references, hypotheses).values

    def save(self, path) -> None:
        check_is_fitted(self, "encoder_", "heads_")
        save_model(self.encoder_, self.heads_, path)

    @classmethod
    def load(cls, path) -> "MultitaskScorer":
        return cls._from_model(*load_model(path))

    @classmethod
    def _from_model(cls, model, heads) -> "MultitaskScorer":
        est = cls._from_encoder(model)
        est.heads_ = heads
        return est


class ContrastiveFilter(_EstimatorMixin, _EncoderParams):
    """Sentence embedder trained contrastively to separate matched from
    mismatched pairs; used to shortlist mining candidates."""

    def __init__(self, margin=1.0, epochs=3, batch_size=32, learning_rate=1e-3,
                 n_features=32768, hidden_units=256, embedding_dim=128,
                 ngram_orders=(1, 2, 3, 4), hash_seed=0, seed=42):
        self.margin = margin
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.n_features = n_features
        self.hidden_units = hidden_units
        self.embedding_dim = embedding_dim
        self.ngram_orders = ngram_orders
        self.hash_seed = hash_seed
        self.seed = seed
        self.encoder_ = None
        self.history_ = None

    def fit(self, positives, negatives):
        self.encoder_, self.history_ = train_filtration(
            positives, negatives, self._train_config(), self.margin, self._encoder_config(),
        )
        return self

    def embed(self, texts) -> np.ndarray:
        """Raw sentence embeddings, one row per text."""
        return embed_sides([self], [texts])[0][0]

    def pair_cosines(self, texts_a, texts_b) -> np.ndarray:
        """Cosine per aligned pair (not the full cross product)."""
        return backprop._cos_forward(*embed_sides([self], [texts_a, texts_b])[0])[0]

    def save(self, path) -> None:
        check_is_fitted(self, "encoder_")
        save_model(self.encoder_, HeadSet.zeros(self.encoder_.embedding_dim), path)

    @classmethod
    def load(cls, path) -> "ContrastiveFilter":
        return cls._from_encoder(load_model(path)[0])


class FeatureStackScorer(_EstimatorMixin):
    """Quality predictor over the pair features of three frozen backbones.

    The backbones (STS, NLI and QE encoders, already trained and
    possibly aligned) are fixed at construction; fit only trains the
    two-layer head.
    """

    def __init__(self, sts_backbone=None, nli_backbone=None, qe_backbone=None,
                 hidden_units=64, epochs=3, batch_size=32, learning_rate=1e-3, seed=42):
        self.sts_backbone = sts_backbone
        self.nli_backbone = nli_backbone
        self.qe_backbone = qe_backbone
        self.hidden_units = hidden_units
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self.model_ = None
        self.history_ = None

    def fit(self, qe):
        for name in ("sts_backbone", "nli_backbone", "qe_backbone"):
            if getattr(self, name) is None:
                raise ConfigError(f"{name} must be set before fitting")
        self.model_, self.history_ = train_feature_stack(
            self.sts_backbone, self.nli_backbone, self.qe_backbone, qe,
            self._train_config(), self.hidden_units,
        )
        return self

    def _backbones(self):
        return (self.sts_backbone, self.nli_backbone, self.qe_backbone)

    def _encoders(self) -> list:
        return [encoder for b in self._backbones() for encoder in b._encoders()]

    def embed(self, texts) -> np.ndarray:
        """The three backbones' embeddings side by side, one row per text."""
        return embed_sides([self], [texts])[0][0]

    def pair_features(self, ua, ub) -> np.ndarray:
        """Each backbone's regression pair features for aligned ``embed`` rows, side by side."""
        return backprop.stacked_pair_features(ua, ub, [b.embedding_dim for b in self._backbones()])

    def score_embeddings(self, ua, ub) -> np.ndarray:
        """QE scores in (0,1) for aligned ``embed`` rows."""
        check_is_fitted(self, "model_")
        _check_aligned(ua, ub)
        m = self.model_
        return backprop.feature_head(self.pair_features(ua, ub),
                                     m.hidden_w, m.hidden_b, m.out_w, m.out_b)[0]

    def predict(self, pairs) -> np.ndarray:
        check_is_fitted(self, "model_")
        return _score_text_pairs(self, pairs)

    @classmethod
    def load(cls, path) -> "FeatureStackScorer":
        """A fitted scorer over the backbones and head of a QEF file."""
        return cls._from_model(load_feature_model(path))

    @classmethod
    def _from_model(cls, model) -> "FeatureStackScorer":
        est = cls(*model.backbones, hidden_units=model.hidden_w.shape[0])
        est.model_ = model
        return est


def load_qe_scorer(path):
    """The scorer saved at ``path``: a ``FeatureStackScorer`` for a QEF
    file, else a ``MultitaskScorer``.  The file is read once, so ``path``
    may be a pipe."""
    loaded = load_qe_model(path)
    if isinstance(loaded, FeatureStackModel):
        return FeatureStackScorer._from_model(loaded)
    return MultitaskScorer._from_model(*loaded)
