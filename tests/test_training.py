import hashlib
from collections import Counter

import numpy as np
import pytest

import qemine.features
import qemine.training
from qemine import backprop
from qemine.augment import AugmentConfig, augment_filtration
from qemine.corpus import ParallelSet
from qemine.errors import ConfigError
from qemine.estimators import FeatureStackScorer
from qemine.features import featurize_all
from qemine.model import load_feature_model, model_to_bytes, save_feature_model
from qemine.optim import Adam
from qemine.synth import SynthConfig, generate_parallel, generate_qe
from qemine.training import (
    GRAD_CHECK_KINDS,
    GradCheckReport,
    TrainConfig,
    _batches,
    _featurize_sides,
    _rng,
    _PATIENCE,
    _TAG_INIT,
    _TAG_STREAM,
    _flat_view,
    align_encoders,
    grad_check,
    history_to_csv,
    multitask_train,
    train_filtration,
    train_feature_stack,
)

from conftest import SMALL_ENCODER, encoder_model, head_set


def _sts_records(rng, count=10):
    rows = []
    for _ in range(count):
        a = " ".join("abcde"[i] for i in rng.integers(0, 5, 4))
        b = " ".join("abcde"[i] for i in rng.integers(0, 5, 4))
        rows.append((a, b, float(rng.uniform())))
    return rows


def _nli_records(rng, count=10):
    return [
        (
            " ".join("fghij"[i] for i in rng.integers(0, 5, 4)),
            " ".join("fghij"[i] for i in rng.integers(0, 5, 4)),
            int(rng.integers(0, 3)),
        )
        for _ in range(count)
    ]


class TestGradCheck:
    @pytest.mark.parametrize("kind", GRAD_CHECK_KINDS)
    def test_analytic_matches_finite_differences(self, kind):
        for seed in range(3):
            report = grad_check(kind, seed=seed)
            assert report.max_error < 1e-3, (kind, seed, report.errors)

    def test_report_csv_shape(self, tmp_path):
        # the gradcheck command is the one CSV writer: a header, then one row per block
        from qemine.cli import main

        report = grad_check("qe-mse", seed=0)
        out = tmp_path / "gc.csv"
        assert main(["gradcheck", "--loss", "qe-mse", "--seed", "0", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "block,max_rel_error"
        assert len(lines) == 1 + len(report.errors)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            grad_check("bleu")

    @pytest.mark.parametrize("errors", [{"a": 0.1, "b": np.nan}, {"a": np.nan, "b": 0.1}])
    def test_max_error_keeps_a_nan(self, errors):
        assert np.isnan(GradCheckReport("qe-mse", 1e-4, errors).max_error)

    @pytest.mark.parametrize("eps", [0.0, -1e-4, np.nan, np.inf])
    def test_rejects_an_eps_that_is_not_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            grad_check("qe-mse", eps=eps)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_flat_view_perturbs_the_block_in_place(self, order):
        block = np.arange(12.0).reshape(3, 4).copy(order=order)
        flat = _flat_view(block)
        assert np.shares_memory(flat, block)
        flat[5] = -1.0
        assert np.count_nonzero(block == -1.0) == 1

    def test_flat_view_rejects_a_strided_block(self):
        with pytest.raises(ValueError):
            _flat_view(np.zeros((4, 6))[::2, :3])


class TestMultitaskSchedule:
    def test_single_task_matches_dedicated_training_loop(self, tiny_qe_records):
        """tasks=('qe',) must reduce to a plain QE loop, reproduced here
        from the documented schedule: one seeded permutation stream,
        sequential batches, mean-loss updates."""
        config = TrainConfig(epochs=2, batch_size=5, seed=3)
        model, heads, history = multitask_train(
            qe=tiny_qe_records, config=config, encoder=SMALL_ENCODER,
            tasks=("qe",), finetune_epochs=0,
        )

        # independent single-task run
        texts_a = [r.source for r in tiny_qe_records]
        texts_b = [r.target for r in tiny_qe_records]
        y = np.array([r.score for r in tiny_qe_records])
        Xa, Xb = _featurize_sides(texts_a, texts_b, SMALL_ENCODER.featurizer)
        params = backprop.init_params(SMALL_ENCODER, _rng(3, _TAG_INIT))
        adam = Adam(config.learning_rate)
        stream_rng = _rng(3, _TAG_STREAM["qe"])
        trace = []
        for _ in range(2):
            order = stream_rng.permutation(len(y))
            total = 0.0
            for start in range(0, len(y), 5):
                idx = order[start : start + 5]
                losses, grads = backprop.regression_batch(params, "qe", Xa[idx], Xb[idx], y[idx])
                adam.step(params, grads)
                total += float(losses.sum())  # as _run_epochs sums: in Python floats
            trace.append(total / len(y))

        assert [row["mean_loss"] for row in history] == pytest.approx(trace, abs=0)
        reference = encoder_model(params, SMALL_ENCODER.featurizer)
        assert model_to_bytes(model, heads) == model_to_bytes(reference, head_set(params))

    def test_three_tasks_match_round_robin_schedule(self, tiny_qe_records):
        """Three tasks of unequal size plus fine-tuning, reproduced from the
        documented schedule: per epoch, the tasks take turns one batch at a
        time for as many turns as the longest task needs for one pass
        (shorter streams reshuffle and recycle), then QE-only epochs
        continue the QE stream."""
        rng = np.random.default_rng(7)
        sts = _sts_records(rng, 7)
        nli = _nli_records(rng, 17)
        config = TrainConfig(epochs=2, batch_size=4, seed=13)
        model, heads, history = multitask_train(
            qe=tiny_qe_records, sts=sts, nli=nli, config=config, encoder=SMALL_ENCODER
        )

        featurizer = SMALL_ENCODER.featurizer
        data = {
            "qe": [(r.source, r.target, r.score) for r in tiny_qe_records],
            "sts": sts,
            "nli": nli,
        }
        arrays = {}
        for task, rows in data.items():
            Xa, Xb = _featurize_sides([row[0] for row in rows], [row[1] for row in rows],
                                      featurizer)
            y = np.array([row[2] for row in rows], dtype=np.int64 if task == "nli" else np.float64)
            arrays[task] = (Xa, Xb, y)

        def batches(task):
            stream_rng = _rng(13, _TAG_STREAM[task])
            size = len(data[task])
            while True:
                order = stream_rng.permutation(size)
                for start in range(0, size, 4):
                    yield order[start : start + 4]

        streams = {task: batches(task) for task in data}
        params = backprop.init_params(SMALL_ENCODER, _rng(13, _TAG_INIT))
        adam = Adam(config.learning_rate)
        expected = []
        for epoch, tasks in ((1, ("qe", "sts", "nli")), (2, ("qe", "sts", "nli")), (3, ("qe",))):
            turns = max(-(-len(data[task]) // 4) for task in tasks)
            totals = {task: [0.0, 0] for task in tasks}
            for _ in range(turns):
                for task in tasks:
                    idx = next(streams[task])
                    Xa, Xb, y = arrays[task]
                    if task == "nli":
                        losses, grads = backprop.nli_batch(params, Xa[idx], Xb[idx], y[idx])
                    else:
                        losses, grads = backprop.regression_batch(
                            params, task, Xa[idx], Xb[idx], y[idx]
                        )
                    adam.step(params, grads)
                    totals[task][0] += float(losses.sum())
                    totals[task][1] += len(losses)
            expected += [{"epoch": epoch, "task": task, "mean_loss": total / count}
                         for task, (total, count) in totals.items()]

        assert history == expected
        reference = encoder_model(params, featurizer)
        assert model_to_bytes(model, heads) == model_to_bytes(reference, head_set(params))

    def test_disabled_task_data_has_no_effect(self, tiny_qe_records):
        rng = np.random.default_rng(0)
        config = TrainConfig(epochs=2, batch_size=4, seed=11)
        with_extras = multitask_train(
            qe=tiny_qe_records, sts=_sts_records(rng), nli=_nli_records(rng),
            config=config, encoder=SMALL_ENCODER, tasks=("qe",),
        )
        without = multitask_train(qe=tiny_qe_records, config=config, encoder=SMALL_ENCODER,
                                  tasks=("qe",))
        assert model_to_bytes(*with_extras[:2]) == model_to_bytes(*without[:2])

    def test_finetune_only_equals_one_qe_epoch(self, tiny_qe_records):
        only_finetune = multitask_train(
            qe=tiny_qe_records,
            config=TrainConfig(epochs=0, batch_size=4, seed=5),
            encoder=SMALL_ENCODER, tasks=("qe",), finetune_epochs=1,
        )
        one_epoch = multitask_train(
            qe=tiny_qe_records,
            config=TrainConfig(epochs=1, batch_size=4, seed=5),
            encoder=SMALL_ENCODER, tasks=("qe",), finetune_epochs=0,
        )
        assert model_to_bytes(*only_finetune[:2]) == model_to_bytes(*one_epoch[:2])

    def test_finetune_freezes_sts_and_nli_heads(self, tiny_qe_records):
        rng = np.random.default_rng(1)
        sts = _sts_records(rng, 8)
        nli = _nli_records(rng, 8)
        frozen = multitask_train(
            qe=tiny_qe_records, sts=sts, nli=nli,
            config=TrainConfig(epochs=1, batch_size=4, seed=9),
            encoder=SMALL_ENCODER, finetune_epochs=0,
        )
        tuned = multitask_train(
            qe=tiny_qe_records, sts=sts, nli=nli,
            config=TrainConfig(epochs=1, batch_size=4, seed=9),
            encoder=SMALL_ENCODER, finetune_epochs=3,
        )
        assert np.array_equal(frozen[1].sts_w, tuned[1].sts_w)
        assert np.array_equal(frozen[1].sts_b, tuned[1].sts_b)
        assert np.array_equal(frozen[1].nli_w, tuned[1].nli_w)
        # while the backbone and QE head kept moving
        assert not np.array_equal(frozen[1].qe_w, tuned[1].qe_w)
        assert not np.array_equal(frozen[0].w1, tuned[0].w1)

    def test_all_tasks_appear_in_history(self, tiny_qe_records):
        rng = np.random.default_rng(2)
        _, _, history = multitask_train(
            qe=tiny_qe_records, sts=_sts_records(rng), nli=_nli_records(rng),
            config=TrainConfig(epochs=2, batch_size=4, seed=1),
            encoder=SMALL_ENCODER, finetune_epochs=1,
        )
        assert [(row["epoch"], row["task"]) for row in history] == [
            (1, "qe"), (1, "sts"), (1, "nli"),
            (2, "qe"), (2, "sts"), (2, "nli"),
            (3, "qe"),
        ]
        csv = history_to_csv(history)
        assert csv.startswith("epoch,task,mean_loss\n1,qe,")

    def test_shorter_datasets_recycle(self, tiny_qe_records):
        rng = np.random.default_rng(3)
        sts = _sts_records(rng, 3)  # much smaller than qe
        _, _, history = multitask_train(
            qe=tiny_qe_records, sts=sts,
            config=TrainConfig(epochs=1, batch_size=4, seed=2),
            encoder=SMALL_ENCODER, tasks=("qe", "sts"), finetune_epochs=0,
        )
        sts_row = next(r for r in history if r["task"] == "sts")
        # 3 slots x up to 4 examples from a 3-element set: recycled past one pass
        assert sts_row["mean_loss"] >= 0.0

    def test_training_loss_decreases_on_separable_data(self):
        records = generate_qe(SynthConfig(vocab_size=30, corruption_rate=0.5, seed=21), 120)
        _, _, history = multitask_train(
            qe=records,
            config=TrainConfig(epochs=4, batch_size=16, seed=4, learning_rate=3e-3),
            encoder=SMALL_ENCODER, tasks=("qe",), finetune_epochs=0,
        )
        losses = [row["mean_loss"] for row in history]
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("learning_rate", [0.0, -1e-3, np.nan, np.inf])
    def test_config_rejects_a_learning_rate_outside_zero_to_infinity(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            TrainConfig(learning_rate=learning_rate)

    def test_empty_enabled_dataset_rejected(self, tiny_qe_records):
        with pytest.raises(ConfigError):
            multitask_train(qe=tiny_qe_records, encoder=SMALL_ENCODER, tasks=("qe", "sts"))

    def test_finetune_without_qe_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ConfigError):
            multitask_train(sts=_sts_records(rng), encoder=SMALL_ENCODER,
                            tasks=("sts",), finetune_epochs=1)

    def test_determinism(self, tiny_qe_records):
        rng = np.random.default_rng(6)
        sts = _sts_records(rng)
        kwargs = dict(qe=tiny_qe_records, sts=sts,
                      config=TrainConfig(epochs=2, batch_size=4, seed=33),
                      encoder=SMALL_ENCODER, tasks=("qe", "sts"))
        first = multitask_train(**kwargs)
        second = multitask_train(**kwargs)
        assert model_to_bytes(*first[:2]) == model_to_bytes(*second[:2])

    @staticmethod
    def _early_stopping_data():
        records = generate_qe(SynthConfig(vocab_size=30, corruption_rate=0.5, seed=22), 110)
        return records[:80], records[80:]

    def test_until_convergence_stops_and_needs_validation(self):
        """Training runs until validation Pearson stops improving; without
        a validation set it runs all ``config.epochs`` epochs."""
        records, validation = self._early_stopping_data()
        args = dict(qe=records, config=TrainConfig(epochs=8, batch_size=16, seed=2),
                    encoder=SMALL_ENCODER, tasks=("qe",), finetune_epochs=0)
        _, _, history = multitask_train(**args, validation=validation)
        # validation Pearson peaks after epoch 1 on this data
        assert max(r["epoch"] for r in history) == 1 + _PATIENCE
        _, _, history = multitask_train(**args)
        assert max(r["epoch"] for r in history) == 8

    @pytest.mark.parametrize("validation", [
        [],
        [("kafo melo", "norz quvo", 0.4)],
        [("kafo melo", "norz quvo", 0.4), ("rusk", "kafo melo", 0.6)],
        [("kafo melo", "norz quvo", 0.5), ("rusk", "kafo melo", 0.5), ("rusk", "norz", 0.5)],
    ], ids=["empty", "one-pair", "two-pairs", "equal-scores"])
    def test_validation_set_without_pearson_is_rejected_before_training(
            self, validation, monkeypatch):
        """Early stopping on an undefined Pearson would restore the untrained
        weights, so such a validation set is refused before any step."""
        def no_step(self, params, grads):
            raise AssertionError("trained before the validation set was checked")

        monkeypatch.setattr(Adam, "step", no_step)
        records, _ = self._early_stopping_data()
        with pytest.raises(ConfigError, match=f"validation set of {len(validation)} pairs"):
            multitask_train(qe=records, config=TrainConfig(epochs=4, batch_size=16, seed=2),
                            encoder=SMALL_ENCODER, tasks=("qe",), validation=validation)

    def test_validation_set_needs_the_qe_task(self, monkeypatch):
        """Without the QE task the QE head never trains in phase 1, so
        validation Pearson is undefined every epoch and early stopping
        would return the untrained weights; such a call is refused."""
        def no_step(self, params, grads):
            raise AssertionError("trained before the tasks were checked")

        monkeypatch.setattr(Adam, "step", no_step)
        records, validation = self._early_stopping_data()
        sts = [(r.source, r.target, r.score) for r in records]
        with pytest.raises(ConfigError, match="tasks must include 'qe'"):
            multitask_train(sts=sts, config=TrainConfig(epochs=3, batch_size=16, seed=2),
                            encoder=SMALL_ENCODER, tasks=("sts",), finetune_epochs=0,
                            validation=validation)

    # SHA-256 of the model bytes.  The early-stopped run stops after
    # 1 + _PATIENCE of its 8 epochs and restores epoch 1's weights.  Both
    # digests come from Adam's update in Kingma & Ba's order, with the
    # per-step epsilon and the stored moment scaling.  Training goes
    # through BLAS products, so these digests hold for OpenBLAS's x86-64
    # float32 kernels.
    @pytest.mark.parametrize("epochs, seed, early_stopping, digest", [
        (4, 1, False, "fa02f5804ad4088921dd4b2d012b6fb3454d35d09ef37e1f07de201179b07b09"),
        (8, 2, True, "dc729930392c847795cab62c4ec43a0c9eeb1821d16b86f6508c8af833417727"),
    ], ids=["fixed-epochs", "early-stopped"])
    def test_model_digest_is_pinned(self, epochs, seed, early_stopping, digest):
        records, validation = self._early_stopping_data()
        model, heads, history = multitask_train(
            qe=records, config=TrainConfig(epochs=epochs, batch_size=16, seed=seed),
            encoder=SMALL_ENCODER, tasks=("qe",), finetune_epochs=1,
            validation=validation if early_stopping else None,
        )
        phase1_epochs = 1 + _PATIENCE if early_stopping else epochs
        assert max(r["epoch"] for r in history) == phase1_epochs + 1
        assert hashlib.sha256(model_to_bytes(model, heads)).hexdigest() == digest

    def test_until_convergence_keeps_w1_feature_major(self, monkeypatch):
        """The best-epoch snapshot is restored before fine-tuning; W1 must
        stay feature-major through the restore, at every Adam step."""
        layouts = []
        step = Adam.step

        def recording_step(self, params, grads):
            layouts.append(params["W1"].T.flags.c_contiguous)
            return step(self, params, grads)

        monkeypatch.setattr(Adam, "step", recording_step)
        records, validation = self._early_stopping_data()
        _, _, history = multitask_train(
            qe=records,
            config=TrainConfig(epochs=4, batch_size=16, seed=1),
            encoder=SMALL_ENCODER,
            tasks=("qe",), finetune_epochs=1,
            validation=validation,
        )
        phase1_epochs = max(r["epoch"] for r in history) - 1
        assert len(layouts) == (phase1_epochs + 1) * 5
        assert all(layouts)


_QE = [("kafo melo", "norz quvo", 0.4), ("rusk", "tavo", 0.6)]
_PAIRS = [("kafo melo", "norz quvo"), ("rusk", "tavo")]


@pytest.mark.parametrize("train, message", [
    (lambda: multitask_train(qe=_QE, tasks=("qe", "bleu")), "tasks"),
    (lambda: multitask_train(qe=_QE, tasks=("qe", "qe")), "tasks"),
    (lambda: multitask_train(qe=_QE, tasks=()), "tasks"),
    (lambda: TrainConfig(epochs=-1), "epochs"),
    (lambda: multitask_train(qe=_QE, finetune_epochs=-1), "finetune_epochs"),
    (lambda: TrainConfig(batch_size=0), "batch_size"),
    (lambda: train_filtration(_PAIRS, _PAIRS[::-1], margin=0.0), "margin"),
    (lambda: train_filtration(_PAIRS, _PAIRS[::-1], margin=-0.5), "margin"),
    (lambda: train_filtration(_PAIRS, _PAIRS[::-1], margin=1.5), "margin"),
], ids=["unknown-task", "repeated-task", "no-task", "epochs", "finetune-epochs",
        "batch-size", "margin-zero", "margin-negative",
        "margin-above-one"])
def test_invalid_setting_raises_value_error(train, message):
    with pytest.raises(ValueError, match=message):
        train()


class TestBatchStream:
    def test_one_pass_covers_every_index(self):
        batches = _batches(10, 4, np.random.default_rng(0))
        seen = np.concatenate([next(batches) for _ in range(3)])
        assert sorted(seen.tolist()) == list(range(10))

    def test_recycles_with_reshuffle(self):
        batches = _batches(6, 6, np.random.default_rng(1))
        first = next(batches).tolist()
        second = next(batches).tolist()
        assert sorted(first) == sorted(second) == list(range(6))
        assert first != second  # overwhelmingly likely under reshuffle


class TestFiltration:
    def _sets(self, seed=0):
        records = generate_qe(SynthConfig(vocab_size=40, corruption_rate=0.3, seed=seed), 120)
        data = augment_filtration(records, AugmentConfig(3, 0.7, seed))
        return data.positives, data.negatives

    def test_separates_positive_and_negative_cosines(self):
        positives, negatives = self._sets(seed=31)
        model, _ = train_filtration(
            positives, negatives,
            TrainConfig(epochs=4, batch_size=16, seed=2, learning_rate=3e-3),
            1.0,
            SMALL_ENCODER,
        )
        params = model.params()
        featurizer = model.featurizer

        def mean_cos(pairs):
            Xa = featurize_all([p.source for p in pairs], featurizer)
            Xb = featurize_all([p.target for p in pairs], featurizer)
            ua = backprop.embed(params, Xa)
            ub = backprop.embed(params, Xb)
            cos, _ = backprop._cos_forward(ua, ub)
            return cos.mean()

        assert mean_cos(positives) > mean_cos(negatives)

    def test_deterministic(self):
        positives, negatives = self._sets(seed=32)
        args = (positives, negatives, TrainConfig(epochs=2, batch_size=16, seed=8),
                1.0, SMALL_ENCODER)
        first, _ = train_filtration(*args)
        second, _ = train_filtration(*args)
        assert model_to_bytes(first) == model_to_bytes(second)

    def test_empty_sets_rejected(self):
        positives, _ = self._sets()
        with pytest.raises(ConfigError):
            train_filtration(positives, [], TrainConfig(), encoder=SMALL_ENCODER)


class TestFeaturizeOnce:
    """Training featurizes each distinct text once; models do not change."""

    @pytest.fixture
    def featurized(self, monkeypatch):
        """Texts of every ``featurize_all`` call made through the training
        module or the features module, where the embedding rule reads it."""
        counts = Counter()
        for module in (qemine.features, qemine.training):
            def counting(texts, config, original=module.featurize_all):
                counts.update(texts)
                return original(texts, config)

            monkeypatch.setattr(module, "featurize_all", counting)
        return counts

    @staticmethod
    def _every_text_featurized(monkeypatch):
        monkeypatch.setattr(qemine.training, "distinct_texts",
                            lambda texts: (list(texts), np.arange(len(texts))))

    def test_multitask_train(self, tiny_qe_records, featurized, monkeypatch):
        qe = [(r.source, r.target, r.score) for r in tiny_qe_records]
        qe += [(qe[0][0], qe[1][1], 0.3), (qe[2][1], qe[2][1], 0.8)]
        config = TrainConfig(epochs=1, batch_size=4, seed=5)
        trained = multitask_train(qe=qe, config=config, encoder=SMALL_ENCODER, tasks=("qe",))
        assert featurized == Counter({t for row in qe for t in row[:2]})

        self._every_text_featurized(monkeypatch)
        reference = multitask_train(qe=qe, config=config, encoder=SMALL_ENCODER, tasks=("qe",))
        assert model_to_bytes(*trained[:2]) == model_to_bytes(*reference[:2])

    def test_multitask_train_until_convergence(self, tiny_qe_records, featurized, monkeypatch):
        qe = [(r.source, r.target, r.score) for r in tiny_qe_records]
        validation = [("kafo melo", "norz quvo", 0.4), ("kafo melo", "rusk", 0.6),
                      ("rusk", "kafo melo", 0.5), (qe[0][0], "rusk", 0.2)]
        args = dict(qe=qe, config=TrainConfig(epochs=2, batch_size=4, seed=5),
                    encoder=SMALL_ENCODER, validation=validation, tasks=("qe",))
        trained = multitask_train(**args)
        # Each distinct text once: a validation text that also trains shares
        # the training streams' featurization.
        assert featurized == Counter({t for row in qe + validation for t in row[:2]})

        self._every_text_featurized(monkeypatch)
        assert model_to_bytes(*trained[:2]) == model_to_bytes(*multitask_train(**args)[:2])

    @pytest.mark.parametrize("validated", [False, True], ids=["fixed-epochs", "validation"])
    def test_multitask_train_featurizes_once_in_the_parameters_dtype(
            self, tiny_qe_records, monkeypatch, validated):
        """One featurize_all call covers every task stream and the validation
        set, and its two matrices are cast to float32 once: during training
        backprop._cast returns its input."""
        calls, built = [], []
        for module in (qemine.features, qemine.training):
            def counting(texts, config, original=module.featurize_all):
                calls.append(list(texts))
                return original(texts, config)

            monkeypatch.setattr(module, "featurize_all", counting)

        def cast(matrix, dtype, original=backprop._cast):
            cast_matrix = original(matrix, dtype)
            built.append(cast_matrix is not matrix)
            return cast_matrix

        monkeypatch.setattr(backprop, "_cast", cast)
        rng = np.random.default_rng(7)
        data = {"qe": [(r.source, r.target, r.score) for r in tiny_qe_records],
                "sts": _sts_records(rng, 7), "nli": _nli_records(rng, 17)}
        validation = [("kafo melo", "norz quvo", 0.4), ("kafo melo", "rusk", 0.6),
                      ("rusk", "kafo melo", 0.5), (data["qe"][0][0], "rusk", 0.2)]
        if validated:
            data["validation"] = validation
        multitask_train(qe=data["qe"], sts=data["sts"], nli=data["nli"],
                        config=TrainConfig(epochs=2, batch_size=4, seed=5),
                        encoder=SMALL_ENCODER, validation=data.get("validation"))
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted({t for rows in data.values() for row in rows
                                           for t in row[:2]})
        assert built[:2] == [True, True] and len(built) > 2 and not any(built[2:])

    def test_multitask_train_skips_disabled_tasks(self, tiny_qe_records, featurized):
        qe = [(r.source, r.target, r.score) for r in tiny_qe_records]
        sts = [(f"sts left {k}", f"sts right {k}", 0.5) for k in range(50)]
        config = TrainConfig(epochs=1, batch_size=4, seed=5)
        trained = multitask_train(qe=qe, sts=sts, config=config, encoder=SMALL_ENCODER,
                                  tasks=("qe",))
        assert featurized == Counter({t for row in qe for t in row[:2]})
        reference = multitask_train(qe=qe, config=config, encoder=SMALL_ENCODER, tasks=("qe",))
        assert model_to_bytes(*trained[:2]) == model_to_bytes(*reference[:2])

    def test_train_filtration(self, featurized, monkeypatch):
        records = generate_qe(SynthConfig(vocab_size=30, corruption_rate=0.3, seed=4), 20)
        positives = [(r.source, r.target) for r in records]
        negatives = [(a, b) for (a, _), (_, b) in zip(positives, positives[1:] + positives[:1])]
        negatives += [positives[0], (positives[3][1], positives[3][1])]
        args = (positives, negatives, TrainConfig(epochs=1, batch_size=8, seed=2),
                0.9, SMALL_ENCODER)
        trained, _ = train_filtration(*args)
        assert featurized == Counter({t for pair in positives + negatives for t in pair})

        self._every_text_featurized(monkeypatch)
        assert model_to_bytes(trained) == model_to_bytes(train_filtration(*args)[0])


class TestAlignment:
    def _trained_encoder(self, seed=0):
        records = generate_qe(SynthConfig(vocab_size=40, corruption_rate=0.3, seed=seed), 100)
        model, _, _ = multitask_train(
            qe=records,
            config=TrainConfig(epochs=1, batch_size=16, seed=seed),
            encoder=SMALL_ENCODER, tasks=("qe",), finetune_epochs=0,
        )
        return model

    def test_identical_sides_leave_weights_nearly_unchanged(self):
        # Loss starts at ~1e-7 (float32 rounding of cos(u, u)); the adaptive
        # optimizer amplifies that into a tiny drift against the frozen
        # targets, so "nearly unchanged" means ~1% here, not bitwise.
        model = self._trained_encoder(seed=41)
        pairs = ParallelSet(tuple((f"w{i} w{i + 1}", f"w{i} w{i + 1}") for i in range(20)))
        aligned, report = align_encoders(model, pairs, TrainConfig(epochs=2, batch_size=4, seed=1))
        assert report.cosine_before == pytest.approx(1.0, abs=1e-6)
        assert report.cosine_after == pytest.approx(1.0, abs=1e-4)
        for name in ("w1", "b1", "w2", "b2"):
            delta = np.abs(getattr(aligned, name).astype(np.float64)
                           - getattr(model, name).astype(np.float64))
            assert delta.max() < 0.05, name

    def test_raises_heldout_cosine_on_cipher_corpus(self):
        model = self._trained_encoder(seed=42)
        parallel = generate_parallel(SynthConfig(vocab_size=40, seed=42), 300)
        aligned, report = align_encoders(
            model, parallel, TrainConfig(epochs=3, batch_size=16, seed=2, learning_rate=3e-3)
        )
        assert report.cosine_after > report.cosine_before
        assert model_to_bytes(aligned) != model_to_bytes(model)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, np.nan, np.inf])
    def test_heldout_fraction_outside_the_unit_interval(self, fraction, monkeypatch):
        def featurize(*args, **kwargs):
            raise AssertionError("featurized before the fraction was checked")

        model = self._trained_encoder(seed=44)
        monkeypatch.setattr(qemine.training, "_featurize_sides", featurize)
        pairs = ParallelSet(tuple((f"w{i}", f"v{i}") for i in range(20)))
        with pytest.raises(ConfigError, match=rf"held-out fraction must be in \(0, 1\), "
                                              rf"got {fraction!r}"):
            align_encoders(model, pairs, TrainConfig(), fraction)

    def test_heldout_fraction_too_small(self):
        model = self._trained_encoder(seed=43)
        pairs = ParallelSet((("a b", "c d"), ("e f", "g h")))
        with pytest.raises(ConfigError):
            align_encoders(model, pairs, TrainConfig(), heldout_fraction=0.1)


def _feature_predict(model, pairs):
    scorer = FeatureStackScorer(*model.backbones)
    scorer.model_ = model
    return scorer.predict(pairs)


class TestFeatureStack:
    def _backbones(self, records):
        out = []
        for seed in (1, 2, 3):
            model, _, _ = multitask_train(
                qe=records,
                config=TrainConfig(epochs=1, batch_size=16, seed=seed),
                encoder=SMALL_ENCODER, tasks=("qe",), finetune_epochs=0,
            )
            out.append(model)
        return out

    def test_head_output_is_half_before_training(self):
        records = generate_qe(SynthConfig(vocab_size=40, seed=51), 40)
        backbones = self._backbones(records)
        model, _ = train_feature_stack(*backbones, records,
                                         TrainConfig(epochs=0, batch_size=8, seed=4))
        preds = _feature_predict(model, [(r.source, r.target) for r in records[:5]])
        assert np.allclose(preds, 0.5, atol=1e-12)

    def test_backbones_stay_bitwise_frozen(self):
        records = generate_qe(SynthConfig(vocab_size=40, seed=52), 60)
        backbones = self._backbones(records)
        before = [model_to_bytes(b) for b in backbones]
        model, _ = train_feature_stack(*backbones, records,
                                         TrainConfig(epochs=3, batch_size=8, seed=4))
        after = [model_to_bytes(b) for b in (model.sts_backbone, model.nli_backbone,
                                             model.qe_backbone)]
        assert before == after

    def test_trained_predictor_correlates_on_heldout(self):
        all_records = generate_qe(SynthConfig(vocab_size=40, corruption_rate=0.5, seed=53), 220)
        train, held = all_records[:180], all_records[180:]
        backbones = self._backbones(train)
        model, history = train_feature_stack(
            *backbones, train, TrainConfig(epochs=6, batch_size=16, seed=5, learning_rate=3e-3)
        )
        from qemine.stats import pearson

        preds = _feature_predict(model, [(r.source, r.target) for r in held])
        assert pearson(preds, [r.score for r in held]) > 0.0
        assert history[-1]["mean_loss"] < history[0]["mean_loss"]

    def test_container_roundtrip(self, tmp_path):
        records = generate_qe(SynthConfig(vocab_size=40, seed=54), 40)
        backbones = self._backbones(records)
        model, _ = train_feature_stack(*backbones, records,
                                         TrainConfig(epochs=1, batch_size=8, seed=6))
        path = tmp_path / "stack.qef"
        save_feature_model(model, path)
        loaded = load_feature_model(path)
        pairs = [(r.source, r.target) for r in records[:7]]
        assert np.array_equal(_feature_predict(model, pairs), _feature_predict(loaded, pairs))
        assert np.array_equal(_feature_predict(model, pairs),
                              FeatureStackScorer.load(path).predict(pairs))
        path2 = tmp_path / "stack2.qef"
        save_feature_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()
