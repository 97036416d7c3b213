"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured values (run with ``pytest -s`` to see them).

The headline retrieval scores of large pretrained systems are not
reproducible at this scale; the criteria below check the mechanisms
instead: exact loss values, gradient correctness, pipeline/oracle
equivalence, directional training effects on synthetic corpora,
determinism, and format round-trips.
"""

import math
import time

import numpy as np

from qemine import backprop
from qemine.augment import AugmentConfig, augment_filtration, augment_scorer
from qemine.cli import main as cli_main
from qemine.corpus import (
    BuccCorpus,
    load_bucc,
    load_nli,
    load_parallel,
    load_qe,
    load_sts,
    load_tatoeba,
    save_bucc,
    save_nli,
    save_parallel,
    save_qe,
    save_sts,
    save_tatoeba,
)
from qemine.estimators import ContrastiveFilter, MultitaskScorer
from qemine.features import FeaturizerConfig, featurize_all
from qemine.mining import MiningConfig, f1_score, mine_bucc, mine_tatoeba, score_matrix, tatoeba_accuracy, tune_threshold
from qemine.model import EncoderConfig, load_model, save_model
from qemine.optim import Adam
from qemine.stats import t_tail, williams_test
from qemine.synth import SynthConfig, generate_parallel, generate_qe, generate_tatoeba
from qemine.training import (
    GRAD_CHECK_KINDS,
    TrainConfig,
    _rng,
    _TAG_INIT,
    _TAG_STREAM,
    align_encoders,
    grad_check,
    multitask_train,
)

from oracles import alignment_loss, contrastive_loss, task_loss
from test_mining import _MatrixScorer, _RandomEmbedder, _brute_force_mutual_best
from test_stats import _t_tail_by_quadrature, _williams_reference, _random_psd_triple

SYNTH = SynthConfig(corruption_rate=0.3, seed=42)
DESK_NET = dict(n_features=4096, hidden_units=128, embedding_dim=64, ngram_orders=(1, 2, 3, 4))
DESK_ENCODER = EncoderConfig(FeaturizerConfig((1, 2, 3, 4), 4096, 0), 128, 64)


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_gradient_oracle():
    started = time.monotonic()
    worst = 0.0
    for kind in GRAD_CHECK_KINDS:
        for seed in range(10):
            report = grad_check(kind, seed=seed, eps=1e-4)
            assert report.max_error < 1e-3, (kind, seed, report.errors)
            worst = max(worst, report.max_error)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report("1 gradient oracle", f"5 losses x 10 seeds, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_loss_point_values():
    loss, _ = contrastive_loss(0.96, 1, margin=1.0)
    assert abs(loss - 0.0008) < 1e-12
    assert contrastive_loss(0.0, 0, margin=1.0)[0] == 0.0
    assert contrastive_loss(0.0, 0, margin=0.3)[0] == 0.0
    rng = np.random.default_rng(0)
    pairs = [(v, v.copy()) for v in rng.normal(size=(6, 8))]
    assert abs(alignment_loss(pairs)[0]) < 1e-12
    nli, _ = task_loss("nli", (1 / 3, 1 / 3, 1 / 3), 1)
    assert abs(nli - math.log(3.0)) < 1e-12
    _report("2 loss point values", "contrastive 0.0008 and 0, alignment 0, uniform ln 3")


def test_criterion_03_two_stage_equals_brute_force():
    started = time.monotonic()
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(20):
        rows = int(rng.integers(3, 51))
        cols = int(rng.integers(3, 51))
        values = rng.uniform(size=(rows, cols))
        side_a = {f"a{i}": f"left {i}" for i in range(rows)}
        side_b = {f"b{j}": f"right {j}" for j in range(cols)}
        corpus = BuccCorpus(side_a, side_b, frozenset())
        scorer = _MatrixScorer(values, list(side_a.values()), list(side_b.values()))
        result = mine_bucc(
            corpus, _RandomEmbedder(seed=checked), scorer,
            MiningConfig(top_n=max(rows, cols), threshold=0.0),
        )
        oracle = {(f"a{i}", f"b{j}") for i, j in _brute_force_mutual_best(values)}
        assert result.pair_set() == oracle
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report("3 two-stage vs brute force", f"{checked} instances up to 50x50, {elapsed:.1f}s")


def test_criterion_04_directional_augmentation_effect():
    started = time.monotonic()
    train_records = generate_qe(SYNTH, 1000)
    tatoeba = generate_tatoeba(SYNTH, 200)
    augmented = augment_scorer(train_records, AugmentConfig(n_negatives=3, seed=11))
    settings = dict(tasks=("qe",), epochs=10, finetune_epochs=1,
                    learning_rate=2e-3, seed=7, **DESK_NET)

    plain = MultitaskScorer(**settings).fit(train_records)
    with_da = MultitaskScorer(**settings).fit(augmented.records())

    def accuracy(scorer):
        matrix = score_matrix(scorer, tatoeba.references, tatoeba.hypotheses)
        return tatoeba_accuracy(mine_tatoeba(matrix), tatoeba.size)

    base_acc = accuracy(plain)
    da_acc = accuracy(with_da)
    elapsed = time.monotonic() - started
    assert da_acc >= 0.80, (base_acc, da_acc)
    assert da_acc - base_acc >= 0.15, (base_acc, da_acc)
    assert elapsed < 300.0
    _report("4 augmentation effect",
            f"accuracy {base_acc:.3f} without DA vs {da_acc:.3f} with DA, {elapsed:.0f}s")


def test_criterion_05_alignment_effect():
    started = time.monotonic()
    parallel = generate_parallel(SYNTH, 2000)
    backbone, _, _ = multitask_train(
        qe=generate_qe(SYNTH, 1000),
        config=TrainConfig(epochs=1, finetune_epochs=0, tasks=("qe",), seed=5),
        encoder=DESK_ENCODER,
    )
    _, report = align_encoders(
        backbone, parallel, TrainConfig(epochs=3, finetune_epochs=0, seed=5)
    )
    elapsed = time.monotonic() - started
    gain = report.cosine_after - report.cosine_before
    assert gain >= 0.2, report
    assert elapsed < 120.0
    _report("5 alignment effect",
            f"held-out cosine {report.cosine_before:.3f} -> {report.cosine_after:.3f}, {elapsed:.0f}s")


def test_criterion_06_filtration_separation():
    train_records = generate_qe(SYNTH, 1000)
    heldout = generate_qe(SYNTH, 1200)[1000:]  # same stream, past the training slice
    augmented = augment_filtration(train_records, AugmentConfig(3, 0.7, seed=11))
    encoder = ContrastiveFilter(margin=1.0, epochs=8, learning_rate=2e-3,
                                seed=7, **DESK_NET)
    encoder.fit(augmented.positives, augmented.negatives)

    positive_cos = encoder.pair_cosines(
        [r.source for r in heldout], [r.target for r in heldout]
    ).mean()
    negatives = augment_scorer(heldout, AugmentConfig(n_negatives=1, seed=99)).negatives
    negative_cos = encoder.pair_cosines(
        [r.source for r in negatives], [r.target for r in negatives]
    ).mean()
    assert positive_cos - negative_cos >= 0.3, (positive_cos, negative_cos)
    _report("6 filtration separation",
            f"held-out cosine {positive_cos:.3f} matched vs {negative_cos:.3f} mismatched")


def test_criterion_07_significance_test():
    oracle_tail = _t_tail_by_quadrature(2.0, 10)
    assert abs(t_tail(2.0, 10) - oracle_tail) < 1e-4
    assert abs(oracle_tail - 0.0367) < 2e-4

    result = williams_test(0.42, 0.55, 0.55, 40)
    assert result.t_statistic == 0.0
    assert result.p_value == 0.5

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        r12, r13, r23 = _random_psd_triple(rng)
        n = int(rng.integers(5, 200))
        result = williams_test(r12, r13, r23, n)
        reference_t = _williams_reference(r12, r13, r23, n)
        reference_p = _t_tail_by_quadrature(reference_t, n - 3)
        worst = max(worst, abs(result.t_statistic - reference_t),
                    abs(result.p_value - reference_p))
    assert worst < 1e-6
    _report("7 significance test",
            f"20 tuples within {worst:.1e}; t_tail(2,10)={t_tail(2.0, 10):.5f}")


def test_criterion_08_threshold_tuning_optimality():
    from qemine.mining import _mutual_best

    rng = np.random.default_rng(29)
    for instance in range(20):
        n_left = int(rng.integers(4, 12))
        n_right = int(rng.integers(4, 12))
        candidates = [
            (f"a{i}", f"b{j}", float(rng.uniform()))
            for i in range(n_left) for j in range(n_right)
            if rng.uniform() < 0.6
        ]
        if not candidates:
            continue
        gold = {(f"a{k}", f"b{k}") for k in range(min(n_left, n_right) // 2 + 1)}
        threshold = tune_threshold(candidates, gold)

        def f1_at(th):
            _, _, selected = _mutual_best(candidates, th)
            return f1_score(selected, gold)[2]

        grid = {k / 100 for k in range(101)} | {s for _, _, s in candidates}
        assert f1_at(threshold) == max(f1_at(th) for th in grid), instance
    _report("8 threshold tuning", "selected threshold attains the sweep maximum on 20 instances")


def test_criterion_09_cli_determinism(tmp_path):
    net = ["--features", "512", "--hidden", "8", "--dim", "6"]

    def run(argv):
        assert cli_main([str(a) for a in argv]) == 0

    outputs = {}
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        prefix = base / "corpus"
        run(["synth", "--count", 60, "--vocab", 30, "--corruption", "0.3",
             "--seed", 42, "--out", prefix])
        run(["train", "--qe", f"{prefix}.qe.tsv", "--tasks", "qe", "--epochs", 1,
             "--seed", 1, "--out", base / "model.qem", *net])
        run(["augment", "--qe", f"{prefix}.qe.tsv", "--mode", "filter",
             "--seed", 2, "--out", base / "aug.tsv"])
        run(["train-filter", "--data", base / "aug.tsv", "--epochs", 1,
             "--seed", 3, "--out", base / "filter.qem", *net])
        run(["align", "--model", base / "model.qem",
             "--parallel", f"{prefix}.parallel.tsv", "--epochs", 1,
             "--seed", 4, "--out", base / "aligned.qem"])
        outputs[tag] = sorted(
            p for p in base.iterdir() if not p.name.endswith(".manifest.json")
        )
    checked = 0
    for first, second in zip(outputs["one"], outputs["two"]):
        assert first.name == second.name
        assert first.read_bytes() == second.read_bytes(), first.name
        checked += 1
    _report("9 determinism", f"{checked} output files byte-identical across reruns")


def test_criterion_10_schedule_contracts(tiny_qe_records):
    rng = np.random.default_rng(1)
    sts = [( " ".join("abcde"[i] for i in rng.integers(0, 5, 4)),
             " ".join("abcde"[i] for i in rng.integers(0, 5, 4)),
             float(rng.uniform())) for _ in range(8)]
    nli = [( " ".join("fghij"[i] for i in rng.integers(0, 5, 4)),
             " ".join("fghij"[i] for i in rng.integers(0, 5, 4)),
             int(rng.integers(0, 3))) for _ in range(8)]
    encoder = EncoderConfig(FeaturizerConfig((1, 2, 3), 256, 0), 8, 6)

    # phase-2 freeze: STS/NLI heads bitwise unchanged by fine-tuning
    base = multitask_train(qe=tiny_qe_records, sts=sts, nli=nli,
                           config=TrainConfig(epochs=2, finetune_epochs=0, batch_size=4, seed=9),
                           encoder=encoder)
    tuned = multitask_train(qe=tiny_qe_records, sts=sts, nli=nli,
                            config=TrainConfig(epochs=2, finetune_epochs=2, batch_size=4, seed=9),
                            encoder=encoder)
    assert base[1].sts_w.tobytes() == tuned[1].sts_w.tobytes()
    assert base[1].sts_b.tobytes() == tuned[1].sts_b.tobytes()
    assert base[1].nli_w.tobytes() == tuned[1].nli_w.tobytes()

    # qe-only schedule: identical loss trace to a dedicated single-task loop
    config = TrainConfig(epochs=3, finetune_epochs=0, batch_size=4, tasks=("qe",), seed=3)
    _, _, history = multitask_train(qe=tiny_qe_records, sts=sts, nli=nli,
                                    config=config, encoder=encoder)
    y = np.array([r.score for r in tiny_qe_records])
    Xa = featurize_all([r.source for r in tiny_qe_records], encoder.featurizer)
    Xb = featurize_all([r.target for r in tiny_qe_records], encoder.featurizer)
    params = backprop.init_params(encoder, _rng(3, _TAG_INIT))
    adam = Adam(config.learning_rate)
    stream_rng = _rng(3, _TAG_STREAM["qe"])
    trace = []
    for _ in range(3):
        order = stream_rng.permutation(len(y))
        total = 0.0
        for start in range(0, len(y), 4):
            idx = order[start : start + 4]
            losses, grads = backprop.regression_batch(params, "qe", Xa[idx], Xb[idx], y[idx])
            adam.step(params, grads)
            total += losses.sum()
        trace.append(total / len(y))
    assert [row["mean_loss"] for row in history] == trace
    _report("10 schedule contracts",
            "frozen heads bitwise equal; qe-only trace matches dedicated loop exactly")


def test_criterion_11_format_round_trips(tmp_path):
    prefix = tmp_path / "c"
    assert cli_main(["synth", "--count", "40", "--vocab", "25", "--seed", "13",
                     "--out", str(prefix)]) == 0

    def stable(load, save, load_args, tag):
        first = load(*load_args)
        one = [tmp_path / f"{tag}.1.{k}" for k in range(len(load_args))]
        two = [tmp_path / f"{tag}.2.{k}" for k in range(len(load_args))]
        save(first, *one)
        again = load(*one)
        assert again == first
        save(again, *two)
        for p1, p2 in zip(one, two):
            assert p1.read_bytes() == p2.read_bytes(), tag
        return tag

    sts_path = tmp_path / "sts.tsv"
    sts_path.write_text("one sent\tother sent\t3.5\na b\tc d\t0.0\n", encoding="utf-8")
    nli_path = tmp_path / "nli.tsv"
    nli_path.write_text("p one\th one\tentailment\np two\th two\tneutral\n", encoding="utf-8")

    formats = [
        stable(load_qe, save_qe, (f"{prefix}.qe.tsv",), "qe"),
        stable(load_sts, save_sts, (sts_path,), "sts"),
        stable(load_nli, save_nli, (nli_path,), "nli"),
        stable(load_tatoeba, save_tatoeba,
               (f"{prefix}.tatoeba.src", f"{prefix}.tatoeba.tgt"), "tatoeba"),
        stable(load_bucc, save_bucc,
               (f"{prefix}.bucc.a.tsv", f"{prefix}.bucc.b.tsv", f"{prefix}.bucc.gold.tsv"),
               "bucc"),
        stable(load_parallel, save_parallel, (f"{prefix}.parallel.tsv",), "parallel"),
    ]

    records = generate_qe(SynthConfig(vocab_size=20, seed=13), 30)
    scorer = MultitaskScorer(tasks=("qe",), epochs=1, seed=1,
                             n_features=256, hidden_units=8, embedding_dim=6).fit(records)
    m1, m2 = tmp_path / "m1.qem", tmp_path / "m2.qem"
    save_model(scorer.encoder_, scorer.heads_, m1)
    save_model(*load_model(m1), m2)
    assert m1.read_bytes() == m2.read_bytes()
    _report("11 format round trips", f"{', '.join(formats)}, model file")
