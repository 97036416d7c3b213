"""Training schedules, alignment fine-tuning and the gradient checker.

All training here is single-threaded and fully deterministic: every
random draw comes from a generator derived from (seed, stream tag), so
identical inputs and configs produce bit-identical serialized models.
Training runs in float32 on the arrays that the returned models hold:
the models are built around the trained arrays without a copy.

``_embed_distinct`` is the one way a fitted model embeds text, for
inference, mining and feature-stack training alike.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

import numpy as np

from . import backprop
from .backprop import (
    alignment_batch,
    contrastive_batch,
    embed,
    feature_head_batch,
    hidden_layer,
    init_params,
    nli_batch,
    output_layer,
    regression_batch,
    stacked_pair_features,
)
from .errors import ConfigError
from .features import FeaturizerConfig, distinct_texts, featurize_all
from .model import TASKS, EncoderConfig, EncoderModel, FeatureStackModel, HeadSet
from .optim import Adam
from .stats import pearson
from .validation import as_nli_data, as_pair_scores, as_text_pairs

__all__ = [
    "TrainConfig",
    "ContrastiveConfig",
    "AlignmentReport",
    "GradCheckReport",
    "multitask_train",
    "train_filtration",
    "align_encoders",
    "train_feature_stack",
    "grad_check",
    "history_to_csv",
]

logger = logging.getLogger(__name__)

# stream tags: one independent generator per source of randomness
_TAG_INIT = 0
_TAG_STREAM = {"qe": 1, "sts": 2, "nli": 3}
_TAG_FILTER = 4
_TAG_ALIGN_SPLIT = 5
_TAG_ALIGN = 6
_TAG_FEATURE = 7
_TAG_GRADCHECK = 8

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed & _MASK64, tag])


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings shared by all training entry points."""

    epochs: int = 3
    finetune_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 1e-3
    tasks: tuple = ("qe", "sts", "nli")
    seed: int = 42
    until_convergence: bool = False
    patience: int = 3
    max_epochs: int = 50

    def __post_init__(self):
        tasks = tuple(t for t in TASKS if t in self.tasks)
        if not tasks or len(tasks) != len(set(self.tasks)):
            raise ValueError(f"tasks must be a non-empty subset of {TASKS}")
        object.__setattr__(self, "tasks", tasks)
        if self.epochs < 0 or self.finetune_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1 or self.max_epochs < 1:
            raise ValueError("patience and max_epochs must be >= 1")


@dataclass(frozen=True)
class ContrastiveConfig:
    """Margin for the contrastive objective (cosine is bounded by 1)."""

    margin: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.margin <= 1.0:
            raise ValueError(f"margin must lie in (0,1], got {self.margin}")


@dataclass
class AlignmentReport:
    """Mean held-out cosine before/after alignment fine-tuning."""

    cosine_before: float
    cosine_after: float
    heldout_size: int


def _batches(size: int, batch_size: int, rng: np.random.Generator):
    """Endless batch indices: each pass draws a fresh permutation of
    ``range(size)`` and slices it in order."""
    while True:
        order = rng.permutation(size)
        for start in range(0, size, batch_size):
            yield order[start : start + batch_size]


def _stream(config: TrainConfig, tag: int, objective, *rows):
    """One task's input to ``_run_epochs``: its batches per pass, its batch
    indices (from the generator seeded by ``tag``) and ``batch(idx)``,
    which is ``objective`` over those rows of every array in ``rows``."""
    size = rows[0].shape[0]  # len() of a CSR matrix raises
    batches = _batches(size, config.batch_size, _rng(config.seed, tag))
    return -(-size // config.batch_size), batches, lambda idx: objective(*(r[idx] for r in rows))


def _featurize_sides(texts_a, texts_b, featurizer):
    """Feature rows of two aligned text lists; each distinct text is featurized once."""
    distinct, rows = distinct_texts(list(texts_a) + list(texts_b))
    X = featurize_all(distinct, featurizer)
    return X[rows[: len(texts_a)]], X[rows[len(texts_a) :]]


def _embed_distinct(encoders, sides) -> list:
    """Per encoder of ``encoders``, a list of ``(params, FeaturizerConfig)``,
    the embeddings of each text list in ``sides``.

    The distinct texts of all sides are featurized once per config and
    go through each encoder's hidden layer once; a hidden row's bits
    depend only on its own text.  The output layer runs once per side,
    over that side's distinct rows in first-occurrence order: BLAS picks
    its kernel by row count, so a side's bits do not depend on the other
    sides in the call.
    """
    if not all(sides):
        raise ValueError("cannot featurize an empty list of texts")
    distinct, rows = distinct_texts(list(chain.from_iterable(sides)))
    features = {config: featurize_all(distinct, config)
                for config in dict.fromkeys(config for _, config in encoders)}
    # per side: its distinct texts as rows of the hidden layer, and each text's row among them
    bounds = np.cumsum([len(side) for side in sides[:-1]])
    per_side = [distinct_texts(side_rows.tolist()) for side_rows in np.split(rows, bounds)]
    embedded = []
    for params, config in encoders:
        hidden = hidden_layer(params, features[config])
        embedded.append([output_layer(params, hidden[at])[local] for at, local in per_side])
    return embedded


def _run_epochs(params, adam: Adam, streams: dict, epochs: int, history: list, first_epoch=1):
    """``epochs`` epochs of Adam steps; returns ``history`` with one
    ``{"epoch", "task", "mean_loss"}`` row appended per epoch and task.

    ``streams`` maps a task name to the ``_stream`` triple
    ``(batches_per_pass, batches, batch)``, where ``batch(idx) -> (losses,
    grads)``.  The tasks take turns one batch at a time, and the stream
    with the most batches per pass sets the number of turns in an epoch;
    shorter streams reshuffle and recycle.
    """
    turns = max(per_pass for per_pass, _, _ in streams.values())
    for epoch in range(first_epoch, first_epoch + epochs):
        sums = dict.fromkeys(streams, 0.0)
        counts = dict.fromkeys(streams, 0)
        for _ in range(turns):
            for task, (_, batches, batch) in streams.items():
                losses, grads = batch(next(batches))
                adam.step(params, grads)
                sums[task] += float(losses.sum())
                counts[task] += len(losses)
        history += [{"epoch": epoch, "task": t, "mean_loss": sums[t] / counts[t]} for t in streams]
    return history


def multitask_train(qe=None, sts=None, nli=None, config: TrainConfig = TrainConfig(),
                    encoder: EncoderConfig = EncoderConfig(), validation=None):
    """Two-phase training: interleaved multitask epochs, then QE-only fine-tuning.

    Phase 1 runs ``config.epochs`` epochs (or until validation Pearson
    stops improving when ``until_convergence`` is set).  Within an epoch,
    batches from the enabled tasks are interleaved round-robin; the
    largest enabled dataset defines the epoch and shorter ones are
    reshuffled and recycled.  Phase 2 runs ``finetune_epochs`` epochs on
    QE only, updating the backbone and QE head; the STS and NLI heads
    are untouched.

    Returns (EncoderModel, HeadSet, history) where history is a list of
    ``{"epoch", "task", "mean_loss"}`` rows.
    """
    raw = {"qe": qe, "sts": sts, "nli": nli}
    for task in config.tasks:
        if not raw[task]:
            raise ConfigError(f"task {task!r} is enabled but its dataset is empty")
    if config.finetune_epochs > 0 and not raw["qe"]:
        raise ConfigError("fine-tuning requires a QE dataset")
    if config.until_convergence and validation is None:
        raise ConfigError("until_convergence training requires a validation set")

    featurizer = encoder.featurizer
    params = init_params(encoder, _rng(config.seed, _TAG_INIT))

    # Only the tasks that train get a stream; each stream's RNG is seeded
    # by its own task tag, so skipping the others changes no model.
    streams = {}
    for task in config.tasks + (("qe",) if config.finetune_epochs > 0 else ()):
        if task not in streams:
            is_nli = task == "nli"
            a, b, y = (as_nli_data if is_nli else as_pair_scores)(raw[task])
            objective = (partial(nli_batch, params) if is_nli
                         else partial(regression_batch, params, task))
            streams[task] = _stream(config, _TAG_STREAM[task], objective,
                                    *_featurize_sides(a, b, featurizer), y)
    phase1 = {task: streams[task] for task in config.tasks}

    if validation is not None:
        va, vb, vy = as_pair_scores(validation)
        vXa, vXb = _featurize_sides(va, vb, featurizer)

    def validation_pearson():
        pred, _ = backprop.regression_head(params, "qe", embed(params, vXa), embed(params, vXb))
        try:
            return pearson(pred, vy)
        except ValueError:
            return float("-inf")

    adam = Adam(config.learning_rate)
    history = []
    epoch = 0
    if config.until_convergence:
        best_score = float("-inf")
        best_params = {k: np.copy(v) for k, v in params.items()}  # np.copy keeps W1's layout
        wait = 0
        while epoch < config.max_epochs and wait < config.patience:
            epoch += 1
            _run_epochs(params, adam, phase1, 1, history, epoch)
            score = validation_pearson()
            if score > best_score:
                best_score = score
                best_params = {k: np.copy(v) for k, v in params.items()}
                wait = 0
            else:
                wait += 1
        for name, best in best_params.items():
            params[name][...] = best
        adam = Adam(config.learning_rate)
    else:
        _run_epochs(params, adam, phase1, config.epochs, history)
        epoch = config.epochs

    if config.finetune_epochs:
        _run_epochs(params, adam, {"qe": streams["qe"]}, config.finetune_epochs, history, epoch + 1)

    model = EncoderModel(featurizer, params["W1"], params["b1"], params["W2"], params["b2"])
    heads = HeadSet(params["qe_w"], params["qe_b"], params["sts_w"], params["sts_b"], params["nli_w"])
    return model, heads, history


def train_filtration(positives, negatives, config: TrainConfig = TrainConfig(),
                     contrastive: ContrastiveConfig = ContrastiveConfig(),
                     encoder: EncoderConfig = EncoderConfig()):
    """Train a fresh sentence encoder contrastively on matched/mismatched pairs.

    Positives carry label 1 (pushed toward the margin), negatives label 0
    (pushed toward zero cosine).  Returns (EncoderModel, history).
    """
    pos = as_text_pairs(positives)
    neg = as_text_pairs(negatives)
    if not pos or not neg:
        raise ConfigError("filtration training needs non-empty positive and negative sets")
    y = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])

    featurizer = encoder.featurizer
    Xa, Xb = _featurize_sides(*zip(*pos, *neg), featurizer)
    params = init_params(encoder, _rng(config.seed, _TAG_INIT))
    objective = partial(contrastive_batch, params, margin=contrastive.margin)
    streams = {"contrastive": _stream(config, _TAG_FILTER, objective, Xa, Xb, y)}
    history = _run_epochs(params, Adam(config.learning_rate), streams, config.epochs, [])
    model = EncoderModel(featurizer, params["W1"], params["b1"], params["W2"], params["b2"])
    return model, history


def _mean_cosine(params, Xa, Xb) -> float:
    cos, _ = backprop._cos_forward(embed(params, Xa), embed(params, Xb))
    return float(cos.mean())


def align_encoders(model: EncoderModel, parallel, config: TrainConfig = TrainConfig(),
                   heldout_fraction: float = 0.1):
    """Pull source-side embeddings toward their fixed English-side embeddings.

    The English (target) embeddings are computed once with the incoming
    model and held constant, so gradients only flow into the source
    side.  A held-out slice of the parallel set measures the mean
    source/target cosine before and after, both with the model being
    evaluated at that moment.

    Returns (EncoderModel, AlignmentReport); ``model`` is left unchanged.
    """
    pairs = parallel.pairs if hasattr(parallel, "pairs") else as_text_pairs(parallel)
    total = len(pairs)
    heldout_size = int(total * heldout_fraction)
    if heldout_size < 1:
        raise ConfigError(
            f"held-out fraction {heldout_fraction} of {total} pairs leaves no held-out pair"
        )
    perm = _rng(config.seed, _TAG_ALIGN_SPLIT).permutation(total)
    held, train = perm[:heldout_size], perm[heldout_size:]
    if len(train) == 0:
        raise ConfigError("no training pairs left after the held-out split")

    Xs, Xt = _featurize_sides(*zip(*pairs), model.featurizer)
    arrays = (model.w1, model.b1, model.w2, model.b2)
    aligned = EncoderModel(model.featurizer, *map(np.copy, arrays))  # np.copy keeps W1's layout
    params = aligned.params()

    before = _mean_cosine(params, Xs[held], Xt[held])
    targets = embed(params, Xt[train])

    streams = {"alignment": _stream(config, _TAG_ALIGN, partial(alignment_batch, params),
                                    Xs[train], targets)}
    _run_epochs(params, Adam(config.learning_rate), streams, config.epochs, [])
    after = _mean_cosine(params, Xs[held], Xt[held])
    return aligned, AlignmentReport(before, after, heldout_size)


def train_feature_stack(sts_backbone, nli_backbone, qe_backbone, qe_data,
                          config: TrainConfig = TrainConfig(), hidden_units: int = 64):
    """Train the feature-extraction quality predictor over frozen backbones.

    Each pair is described by the concatenated pair features of the
    three backbones; only the two-layer head (tanh hidden layer,
    logistic output) is trained, on the features that
    ``FeatureStackScorer.predict`` computes for the same pairs.
    Returns (FeatureStackModel, history).
    """
    backbones = (sts_backbone, nli_backbone, qe_backbone)
    sources, targets, y = as_pair_scores(qe_data)
    embedded = _embed_distinct([(b.params(), b.featurizer) for b in backbones], [sources, targets])
    ua, ub = (np.hstack(side) for side in zip(*embedded))
    feats = stacked_pair_features(ua, ub, [b.embedding_dim for b in backbones])
    width = feats.shape[1]

    rng = _rng(config.seed, _TAG_FEATURE)
    h_w = rng.normal(0.0, 1.0 / np.sqrt(width), size=(hidden_units, width))
    params = {"h_w": h_w.astype(np.float32), "h_b": np.zeros(hidden_units, np.float32),
              "o_w": np.zeros(hidden_units, np.float32), "o_b": np.zeros(1, np.float32)}
    objective = partial(feature_head_batch, params)
    streams = {"qe-feature": _stream(config, _TAG_FEATURE + 100, objective, feats, y)}
    history = _run_epochs(params, Adam(config.learning_rate), streams, config.epochs, [])
    model = FeatureStackModel(sts_backbone, nli_backbone, qe_backbone,
                              params["h_w"], params["h_b"], params["o_w"], params["o_b"])
    return model, history


@dataclass
class GradCheckReport:
    """Per-block maximum relative error between analytic and numeric gradients.

    The relative error for a block is max |analytic - numeric| divided
    by the largest absolute entry of either gradient (floored at 1e-12).
    """

    loss_kind: str
    eps: float
    errors: dict = field(default_factory=dict)

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    def to_csv(self) -> str:
        lines = ["block,max_rel_error"]
        lines += [f"{name},{err!r}" for name, err in sorted(self.errors.items())]
        return "\n".join(lines) + "\n"


GRAD_CHECK_KINDS = ("qe-mse", "sts-mse", "nli-ce", "contrastive", "alignment")


def _random_texts(rng, count):
    alphabet = "abcdefgh"
    texts = []
    for _ in range(count):
        n_words = int(rng.integers(2, 6))
        sent = []
        for _ in range(n_words):
            length = int(rng.integers(1, 7))
            sent.append("".join(alphabet[i] for i in rng.integers(0, len(alphabet), length)))
        texts.append(" ".join(sent))
    return texts


def _flat_view(array: np.ndarray) -> np.ndarray:
    """1-D view of a C- or F-contiguous array in its memory order: writing
    an entry of the view writes the array."""
    flat = array.reshape(-1, order="A")
    if not np.shares_memory(flat, array):
        raise ValueError("parameter block is neither C- nor F-contiguous")
    return flat


def grad_check(loss_kind: str, seed: int = 0, eps: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of one loss against central finite differences.

    Uses a small random encoder with randomized heads.  Samples landing
    within 1e-3 of a non-differentiable point (the contrastive hinge or
    an |u-v| sign change) are resampled.
    """
    if loss_kind not in GRAD_CHECK_KINDS:
        raise ValueError(f"unknown loss kind {loss_kind!r}, expected one of {GRAD_CHECK_KINDS}")
    rng = _rng(seed, _TAG_GRADCHECK)
    encoder = EncoderConfig(FeaturizerConfig((1, 2, 3), 64, 0), hidden_units=6, embedding_dim=5)
    margin = 0.8
    n_pairs = 4

    for _ in range(50):
        # float64 (astype keeps W1's layout): central differences at eps 1e-4 need it
        params = {name: a.astype(np.float64) for name, a in init_params(encoder, rng).items()}
        for name in ("qe_w", "qe_b", "sts_w", "sts_b", "nli_w"):
            params[name] = rng.normal(0.0, 0.3, size=params[name].shape)
        texts_a = _random_texts(rng, n_pairs)
        texts_b = _random_texts(rng, n_pairs)
        Xa = featurize_all(texts_a, encoder.featurizer)
        Xb = featurize_all(texts_b, encoder.featurizer)
        ua = embed(params, Xa)
        ub = embed(params, Xb)
        if np.min(np.abs(ua - ub)) < 1e-3:
            continue
        cos, _ = backprop._cos_forward(ua, ub)
        if loss_kind == "contrastive" and np.min(np.abs(margin - cos)) < 1e-3:
            continue
        break
    else:
        raise RuntimeError("could not sample a configuration away from kinks")

    if loss_kind in ("qe-mse", "sts-mse"):
        y = rng.uniform(0.05, 0.95, n_pairs)
        batch = lambda p: regression_batch(p, loss_kind.removesuffix("-mse"), Xa, Xb, y)
    elif loss_kind == "nli-ce":
        y = rng.integers(0, 3, n_pairs)
        batch = lambda p: nli_batch(p, Xa, Xb, y)
    elif loss_kind == "contrastive":
        y = np.array([1.0, 0.0] * (n_pairs // 2))
        batch = lambda p: contrastive_batch(p, Xa, Xb, y, margin)
    else:  # alignment
        targets = rng.normal(0.0, 1.0, size=(n_pairs, encoder.embedding_dim))
        batch = lambda p: alignment_batch(p, Xa, targets)
    loss_fn = lambda p: float(batch(p)[0].mean())
    _, grads = batch(params)

    report = GradCheckReport(loss_kind, eps)
    for name, analytic in grads.items():
        analytic = np.asarray(analytic, dtype=np.float64)
        numeric = np.zeros_like(params[name])
        flat_p = _flat_view(params[name])
        flat_n = _flat_view(numeric)
        for i in range(flat_p.size):
            original = flat_p[i]
            flat_p[i] = original + eps
            up = loss_fn(params)
            flat_p[i] = original - eps
            down = loss_fn(params)
            flat_p[i] = original
            flat_n[i] = (up - down) / (2.0 * eps)
        scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-12)
        report.errors[name] = float(np.max(np.abs(analytic - numeric))) / scale
    return report


def history_to_csv(history) -> str:
    lines = ["epoch,task,mean_loss"]
    lines += [f"{row['epoch']},{row['task']},{row['mean_loss']!r}" for row in history]
    return "\n".join(lines) + "\n"
