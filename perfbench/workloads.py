"""The benchmark's workloads: set-up and the measured operations.

Every workload runs the same user session, so that it can report every
end-to-end metric: train a model, save it and load it back with the
desk models and corpora, predict held-out QE pairs, run similarity
search, and mine a BUCC-style corpus (tune the threshold on one half,
mine the other half at that threshold).  The sizes differ per workload,
so that each optimisable layer does most of its work in one workload
and little in the other: ``train-default`` is dominated by training at
the CLI's default hidden and embedding sizes and by model I/O,
``mine-bucc`` by featurization, candidate scoring and threshold tuning.

Models and corpora are written to disk in set-up and read back by the
``load`` operation, as the CLI would.  Library calls go through module
attributes (``qemine.corpus.load_bucc`` rather than an imported name)
so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

import qemine
from qemine import augment, corpus, estimators, mining, stats, synth

# The measured operations, in the order a session runs them.
OPS = ("fit", "save", "load", "predict", "search", "mine_tune", "mine")
DESK_ENCODER = {"n_features": 4096, "hidden_units": 128, "embedding_dim": 64}
TOP_N = 10
TRAIN_TASKS = ("qe", "sts", "nli")
# The desk DA scorer and contrastive filter trained in set-up.  A small
# vocabulary lets a few seconds of training get near the ceiling on every
# seed, so F1, Pearson and accuracy vary little from seed to seed.
DESK = {"vocab": 50, "qe_pairs": 800, "negatives": 1, "batch_size": 64,
        "learning_rate": 5e-3, "scorer_epochs": 2, "filter_epochs": 2}


@dataclass(frozen=True)
class Spec:
    """Input sizes of one workload."""

    name: str
    # the network trained by ``fit`` on QE/STS/NLI records per task: one
    # multitask epoch plus one QE fine-tune epoch at batch size 32
    train_encoder: dict
    train_vocab: int
    train_records: int
    # mining corpus, split into disjoint tuning and evaluation halves
    bucc_gold: int
    bucc_distractors: int
    # held-out QE pairs for eval-qe and the N x N similarity-search set
    heldout_pairs: int
    search_size: int
    # share of the measured seconds each operation gets, relative to the
    # others (default 1), so that long operations still run several times
    weights: dict = field(default_factory=dict)


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="train-default",
            train_encoder={"n_features": 8192, "hidden_units": 256, "embedding_dim": 128},
            train_vocab=5000, train_records=32,
            bucc_gold=120, bucc_distractors=180,
            heldout_pairs=600, search_size=300,
            weights={"fit": 1.5, "load": 2, "mine_tune": 3, "mine": 3},
        ),
        Spec(
            name="mine-bucc",
            train_encoder=DESK_ENCODER, train_vocab=50, train_records=128,
            bucc_gold=240, bucc_distractors=360,
            heldout_pairs=1000, search_size=400,
            weights={"load": 2, "search": 1.5, "mine_tune": 5, "mine": 3},
        ),
    )
}


class CheckFailed(Exception):
    """An output check of the benchmark did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()[:16]


def array_digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()[:16]


# -- set-up ----------------------------------------------------------------


def _split_bucc(full):
    """Disjoint tuning and evaluation halves of one mining corpus.

    Gold pairs and distractors alternate between the halves in id order,
    so each half has its own gold set and no sentence appears in both.
    """
    gold = sorted(full.gold)
    gold_a = {a for a, _ in gold}
    gold_b = {b for _, b in gold}
    halves = []
    for parity in (0, 1):
        half_gold = gold[parity::2]
        side_a = {a for a, _ in half_gold}
        side_b = {b for _, b in half_gold}
        side_a |= set(sorted(i for i in full.side_a if i not in gold_a)[parity::2])
        side_b |= set(sorted(i for i in full.side_b if i not in gold_b)[parity::2])
        halves.append(corpus.BuccCorpus(
            {i: full.side_a[i] for i in sorted(side_a)},
            {i: full.side_b[i] for i in sorted(side_b)},
            frozenset(half_gold),
        ))
    return halves


def _nli_label(quality: float) -> int:
    """Quality band as an inference label: entailment, neutral, contradiction."""
    return 0 if quality >= 0.8 else 1 if quality >= 0.5 else 2


def setup(spec: Spec, seed: int, workdir: str) -> dict:
    """Generate inputs, train the desk models and write everything to ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    desk = synth.SynthConfig(vocab_size=DESK["vocab"], seed=seed)

    qe = synth.generate_qe(desk, DESK["qe_pairs"] + spec.heldout_pairs)
    train_qe, heldout = qe[: DESK["qe_pairs"]], qe[DESK["qe_pairs"] :]
    negatives = augment.AugmentConfig(n_negatives=DESK["negatives"], seed=seed)
    scorer_data = augment.augment_scorer(train_qe, negatives)
    filter_data = augment.augment_filtration(train_qe, negatives)
    optimizer = {"batch_size": DESK["batch_size"], "learning_rate": DESK["learning_rate"]}
    scorer = estimators.MultitaskScorer(
        tasks=("qe",), epochs=DESK["scorer_epochs"], finetune_epochs=1, seed=seed,
        **optimizer, **DESK_ENCODER,
    ).fit(scorer_data.records())
    filter_model = estimators.ContrastiveFilter(
        epochs=DESK["filter_epochs"], seed=seed, **optimizer, **DESK_ENCODER,
    ).fit(filter_data.positives, filter_data.negatives)
    scorer.save(path("scorer.qem"))
    filter_model.save(path("filter.qem"))
    corpus.save_qe(heldout, path("heldout.qe.tsv"))

    tune, evaluation = _split_bucc(synth.generate_bucc(desk, spec.bucc_gold, spec.bucc_distractors))
    for label, half in (("tune", tune), ("eval", evaluation)):
        corpus.save_bucc(half, path(f"{label}.a.tsv"), path(f"{label}.b.tsv"),
                         path(f"{label}.gold.tsv"))
    corpus.save_tatoeba(synth.generate_tatoeba(desk, spec.search_size),
                        path("search.src"), path("search.tgt"))

    train_lang = synth.SynthConfig(vocab_size=spec.train_vocab, seed=seed)
    n = spec.train_records
    draws = synth.generate_qe(train_lang, 3 * n)
    # STS and NLI records come from extra QE draws: the STS score is the
    # quality and the NLI label is a quality band.
    sts = [corpus.STSRecord(r.source, r.target, r.score) for r in draws[n : 2 * n]]
    nli = [corpus.NLIRecord(r.source, r.target, _nli_label(r.score)) for r in draws[2 * n :]]
    inputs = {
        "workdir": workdir,
        "train": (draws[:n], sts, nli),
        "probe": [(r.source, r.target) for r in heldout[:64]],
        "tune_gold_size": len(tune.gold),
        "eval_gold_size": len(evaluation.gold),
    }
    inputs["digest"] = file_digest(*(path(n) for n in sorted(os.listdir(workdir))))
    return inputs


# -- the measured operations -------------------------------------------------


def _fit(encoder: dict, seed: int, train):
    qe, sts, nli = train
    model = estimators.MultitaskScorer(
        tasks=TRAIN_TASKS, epochs=1, finetune_epochs=1, batch_size=32, learning_rate=2e-3,
        seed=seed, **encoder,
    ).fit(qe, sts, nli)
    losses = [row["mean_loss"] for row in model.history_]
    check(all(math.isfinite(x) for x in losses), f"non-finite training loss in {losses}")
    return model


def _load_all(workdir, trained_path):
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    return {
        "trained": estimators.MultitaskScorer.load(trained_path),
        "scorer": estimators.MultitaskScorer.load(path("scorer.qem")),
        "filter": estimators.ContrastiveFilter.load(path("filter.qem")),
        "tune": corpus.load_bucc(path("tune.a.tsv"), path("tune.b.tsv"), path("tune.gold.tsv")),
        "eval": corpus.load_bucc(path("eval.a.tsv"), path("eval.b.tsv"), path("eval.gold.tsv")),
        "heldout": corpus.load_qe(path("heldout.qe.tsv")),
        "search": corpus.load_tatoeba(path("search.src"), path("search.tgt")),
    }


def _check_mining(result, bucc):
    check(0.0 <= result.threshold <= 1.0, f"threshold {result.threshold} outside [0,1]")
    check(len(result.pairs) <= min(result.n_forward, result.n_backward) <= result.n_candidates,
          "selected <= forward, backward <= candidates does not hold")
    for a, b, score in result.pairs:
        check(a in bucc.side_a and b in bucc.side_b, f"unknown ids {a!r}, {b!r}")
        check(math.isfinite(score) and score >= result.threshold, f"bad pair score {score}")


def _mine(bucc, filter_model, scorer, threshold):
    """Tune on this corpus's own gold (``threshold='auto'``) or apply a fixed threshold."""
    return mining.mine_bucc(bucc, filter_model, scorer, mining.MiningConfig(TOP_N, threshold),
                            bucc.gold if threshold == "auto" else None)


def _search(scorer, search):
    matrix = mining.score_matrix(scorer, search.references, search.hypotheses)
    return matrix, mining.mine_tatoeba(matrix)


def reference_seconds() -> float:
    """Wall seconds of a fixed pure-Python kernel: FNV-1a over integers and
    n-gram counting into a dict, the kinds of work featurization and the
    model checksum do.  It takes 10 to 17 ms on 2 vCPUs of a shared x86-64
    host, depending on the host's speed at the moment.  It uses no
    ``qemine`` code, so a change to the package cannot move it."""
    start = time.perf_counter()
    h = 0xCBF29CE484222325
    for x in range(60000):
        h ^= x & 255
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    counts: dict = {}
    for word in ("the quick brown fox jumps over the lazy dog " * 40).split():
        word = "_" + word + "_"
        for n in (1, 2, 3, 4):
            for i in range(len(word) - n + 1):
                counts[word[i : i + n]] = counts.get(word[i : i + n], 0) + 1
    return time.perf_counter() - start


class Session:
    """The measured operations of one workload over one set-up's inputs.

    ``run(name)`` runs one operation and times it.  The first run of each
    operation is checked in full and keeps its output digest, quality
    figures and the state later operations need (the trained model, the
    loaded models and corpora, the tuned threshold), so operations must
    first run in ``OPS`` order; every later run must reproduce the
    digest.  ``spans`` holds each run's (name, start, end) on the
    ``perf_counter`` clock, ``reference`` the seconds of the two
    ``reference_seconds`` runs before each run, ``values`` the quality
    figures and work counts, ``digests`` the outputs that must repeat
    exactly, and ``failures`` one message per run that raised or failed a
    check.
    """

    def __init__(self, spec: Spec, seed: int, inputs: dict):
        self.spec, self.seed, self.inputs = spec, seed, inputs
        self.trained_path = os.path.join(inputs["workdir"], "trained.qem")
        self.spans: list[tuple] = []
        self.values: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.model = self.loaded = self.threshold = None
        self.probe_predictions = None
        self.reference: list[float] = []
        self.eval_corpus = None

    def _call(self, name):
        """The function and arguments of operation ``name``."""
        loaded = self.loaded
        if name == "fit":
            return _fit, (self.spec.train_encoder, self.seed, self.inputs["train"])
        if name == "save":
            return self.model.save, (self.trained_path,)
        if name == "load":
            return _load_all, (self.inputs["workdir"], self.trained_path)
        if name == "predict":
            return loaded["scorer"].predict, (loaded["heldout"],)
        if name == "search":
            return _search, (loaded["scorer"], loaded["search"])
        if name == "mine_tune":
            return _mine, (loaded["tune"], loaded["filter"], loaded["scorer"], "auto")
        if name == "mine":
            return _mine, (loaded["eval"], loaded["filter"], loaded["scorer"], self.threshold)
        raise KeyError(name)

    def run(self, name) -> tuple[float, bool]:
        """Run operation ``name`` once; return its wall seconds and whether
        it succeeded and passed its checks."""
        self.attempted += 1
        gc.collect()  # no collection of an earlier operation's garbage in this one
        self.reference += [reference_seconds(), reference_seconds()]
        start = time.perf_counter()
        try:
            fn, args = self._call(name)
            result = fn(*args)
            seconds = time.perf_counter() - start
            digest = getattr(self, f"_check_{name}")(result, name not in self.digests)
            check(self.digests.setdefault(name, digest) == digest,
                  "output differs from the operation's first run over the same inputs")
        except Exception as exc:  # noqa: BLE001 - every failure is counted, not raised
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start, False
        self.spans.append((name, start, start + seconds))
        return seconds, True

    def run_all(self) -> dict:
        """Run every operation once, in order; return the seconds of each."""
        return {name: self.run(name)[0] for name in OPS}

    # Each check returns the digest of the operation's output; ``first``
    # marks the run that sets the state and the quality figures.

    def _check_fit(self, model, first):
        if first:
            self.model = model
            self.probe_predictions = model.predict(self.inputs["probe"])
            self.values["train_pairs"] = float((len(TRAIN_TASKS) + 1) * len(self.inputs["train"][0]))
        return array_digest(model.encoder_.w1)

    def _check_save(self, _result, first):
        return file_digest(self.trained_path)

    def _check_load(self, loaded, first):
        predictions = loaded["trained"].predict(self.inputs["probe"])
        check(np.array_equal(self.probe_predictions, predictions),
              "reloaded predictions differ from the in-memory model")
        if first:
            self.loaded = loaded
            self.eval_corpus = loaded["eval"]
            # Re-serializing the desk scorer checks the file round trip at a
            # fraction of the cost of re-serializing the trained model.
            scorer_path = os.path.join(self.inputs["workdir"], "scorer.qem")
            loaded["scorer"].save(scorer_path + ".copy")
            check(file_digest(scorer_path + ".copy") == file_digest(scorer_path),
                  "reloaded model does not re-serialize to identical bytes")
        sizes = [len(loaded[k].side_a) + len(loaded[k].side_b) for k in ("tune", "eval")]
        return f"{array_digest(predictions)} {sizes} {len(loaded['heldout'])}"

    def _check_predict(self, predictions, first):
        heldout = self.loaded["heldout"]
        if first:
            self.values["score_pairs"] = float(len(heldout))
            self._quality("qe_pearson", stats.pearson(predictions, [r.score for r in heldout]),
                          0.0)
        return array_digest(predictions)

    def _check_search(self, searched, first):
        matrix, predicted = searched
        if first:
            size = self.loaded["search"].size
            self.values["search_rows"] = float(matrix.shape[0])
            self._quality("search_acc", mining.tatoeba_accuracy(predicted, size), 1.0 / size)
        return array_digest(matrix.values)

    def _check_mine_tune(self, result, first):
        _check_mining(result, self.loaded["tune"])
        if first:
            self.threshold = result.threshold
        return hashlib.sha256(repr(result).encode()).hexdigest()[:16]

    def _check_mine(self, result, first):
        evaluation = self.loaded["eval"]
        _check_mining(result, evaluation)
        if first:
            self._quality("mine_f1", mining.f1_score(result.pair_set(), evaluation.gold)[2], 0.0)
        return hashlib.sha256(repr(result).encode()).hexdigest()[:16]

    def _quality(self, name, value, chance):
        # The synthetic data carries signal on every seed: a figure at chance
        # level means the pipeline broke, not that the seed was hard.
        check(value > chance, f"{name} = {value} is at chance level")
        self.values[name] = value


def describe(spec: Spec) -> dict:
    sizes = asdict(spec)
    sizes["top_n"] = TOP_N
    sizes["desk"] = DESK
    sizes["desk_encoder"] = DESK_ENCODER
    sizes["train_tasks"] = list(TRAIN_TASKS)
    sizes["qemine_version"] = qemine.__version__
    return sizes
