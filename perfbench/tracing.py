"""Span tracing of the qemine layers, installed from outside the package.

``Tracer.install`` replaces each public layer function at the name its
caller looks up (a module global or a class attribute) with a wrapper
that records a span ``(name, start, end, parent)`` in memory and, where
a counter applies, adds to it.  ``uninstall`` puts the originals back.
Nothing in ``src/qemine`` is edited.

Per-n-gram functions (``fnv1a_64``, ``featurize``) are never wrapped:
a wrapper costs about a microsecond, which would swamp them.

``mining._mutual_best`` is counted on every call but gets a span only
outside ``tune_threshold``: the sweep inside tuning is the quadratic
cost that ``mining.tune_threshold_s`` is meant to show, and giving each
of its thousands of calls a child span would move that time out of the
tuning layer.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# Layer names in the order they are reported.
LAYERS = (
    "features.featurize_all",
    "backprop.embed_forward",
    "backprop.embed_backward",
    "backprop.batch",
    "optim.adam_step",
    "training.fit",
    "model.to_bytes",
    "model.from_bytes",
    "estimators.score_pairs",
    "estimators.filter_embed",
    "estimators.score_matrix",
    "mining.similarity",
    "mining.topn",
    "mining.tune_threshold",
    "mining.mutual_best",
    "corpus.load",
    "synth.generate",
    "augment.augment",
)

# Layers that run only in set-up.
SETUP_LAYERS = ("synth.generate", "augment.augment")

COUNTERS = (
    "features.texts",
    "backprop.rows",
    "optim.steps",
    "optim.elems",
    "model.bytes",
    "estimators.pairs_scored",
    "mining.candidates",
    "mining.mutual_best_calls",
)


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.unique_texts: set = set()
        self.shortlists: list = []  # (start, candidate (row, col) set) per topn_candidates call
        self._installed: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def _mutual_best_wrapper(self, fn):
        traced = self._wrap("mining.mutual_best", fn)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counters["mining.mutual_best_calls"] += 1
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == "mining.tune_threshold":
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)

        return counted

    # -- counters ----------------------------------------------------------

    def _count_texts(self, args, _result):
        texts = args[0]
        self.counters["features.texts"] += len(texts)
        self.unique_texts.update(texts)

    def _count_rows(self, args, _result):
        self.counters["backprop.rows"] += args[1].shape[0]

    def _count_step(self, args, _result):
        self.counters["optim.steps"] += 1
        self.counters["optim.elems"] += sum(int(np.size(g)) for g in args[2].values())

    def _count_serialized(self, _args, result):
        self.counters["model.bytes"] += len(result)

    def _count_parsed(self, args, _result):
        self.counters["model.bytes"] += len(args[0])

    def _count_pairs(self, args, _result):
        self.counters["estimators.pairs_scored"] += len(args[1])

    def _count_shortlist(self, _args, result):
        rows, cols = result
        candidates = {(i, int(j)) for i, row in enumerate(rows) for j in row}
        candidates |= {(int(i), j) for j, col in enumerate(cols) for i in col}
        self.counters["mining.candidates"] += len(candidates)
        # topn_candidates calls no traced function, so its span is the last one
        self.shortlists.append((self.spans[-1][1], candidates))

    # -- installation ------------------------------------------------------

    def install(self, qemine_modules) -> None:
        """Wrap every traced layer function; ``qemine_modules`` maps short names to modules."""
        m = qemine_modules
        table = [
            # (owner, attribute, span name, counter)
            (m["features"], "featurize_all", "features.featurize_all", self._count_texts),
            (m["estimators"], "featurize_all", "features.featurize_all", self._count_texts),
            (m["training"], "featurize_all", "features.featurize_all", self._count_texts),
            (m["backprop"], "embed_forward", "backprop.embed_forward", self._count_rows),
            (m["backprop"], "embed_backward", "backprop.embed_backward", None),
            (m["optim"].Adam, "step", "optim.adam_step", self._count_step),
            (m["estimators"], "multitask_train", "training.fit", None),
            (m["estimators"], "train_filtration", "training.fit", None),
            (m["model"], "model_to_bytes", "model.to_bytes", self._count_serialized),
            (m["model"], "model_from_bytes", "model.from_bytes", self._count_parsed),
            (m["estimators"].MultitaskScorer, "score_pairs", "estimators.score_pairs",
             self._count_pairs),
            (m["estimators"].ContrastiveFilter, "embed", "estimators.filter_embed", None),
            (m["estimators"].MultitaskScorer, "score_matrix", "estimators.score_matrix", None),
            (m["mining"], "embed_and_similarity", "mining.similarity", None),
            (m["mining"], "topn_candidates", "mining.topn", self._count_shortlist),
            (m["mining"], "tune_threshold", "mining.tune_threshold", None),
        ]
        for owner in (m["backprop"], m["training"]):
            for attr in ("regression_batch", "nli_batch", "contrastive_batch", "alignment_batch"):
                table.append((owner, attr, "backprop.batch", None))
        for attr in ("load_bucc", "load_qe", "load_tatoeba"):
            table.append((m["corpus"], attr, "corpus.load", None))
        for attr in ("generate_qe", "generate_bucc", "generate_tatoeba"):
            table.append((m["synth"], attr, "synth.generate", None))
        for attr in ("augment_scorer", "augment_filtration"):
            table.append((m["augment"], attr, "augment.augment", None))

        for owner, attr, name, count in table:
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))
        original = m["mining"].__dict__["_mutual_best"]
        self._installed.append((m["mining"], "_mutual_best", original))
        m["mining"]._mutual_best = self._mutual_best_wrapper(original)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, to delimit a phase of the run."""
        return len(self.spans)

    def _self_seconds(self, first: int, last: int) -> list[float]:
        """Self seconds of each span in spans[first:last]: its duration minus
        the part its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans[first:last]]
        for index in range(first, last):
            _, start, end, parent = self.spans[index]
            if parent >= first:
                own[parent - first] -= end - start
        return own

    def self_times(self, first: int, last: int) -> dict:
        """Self seconds per layer over spans[first:last]."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, own in zip(self.spans[first:last], self._self_seconds(first, last)):
            totals[span[0]] += own
        return totals

    def breakdown(self, first: int, last: int, intervals) -> dict:
        """Self seconds per layer inside each (label, start, end) interval,
        keyed by label; intervals with the same label are summed."""
        result: dict = {}
        own = self._self_seconds(first, last)
        for label, begin, end in intervals:
            layers = result.setdefault(label, {})
            for span, seconds in zip(self.spans[first:last], own):
                if begin <= span[1] and span[2] <= end:
                    layers[span[0]] = layers.get(span[0], 0.0) + seconds
        return result

    def root_time(self, first: int, last: int) -> float:
        """Seconds covered by spans[first:last] that have no traced parent."""
        return sum(e - s for _, s, e, p in self.spans[first:last] if p < first)
