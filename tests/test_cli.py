import argparse
import hashlib
import inspect
import json
import math
import os
import re
import threading
from pathlib import Path

import pytest

import qemine.cli
from qemine.cli import build_parser, main
from qemine.corpus import load_bucc, load_qe, load_tatoeba
from qemine.estimators import ContrastiveFilter, MultitaskScorer, load_qe_scorer
from qemine.mining import MiningConfig, mine_bucc, mine_tatoeba, score_matrix
from qemine.stats import pearson
from qemine.training import GradCheckReport, grad_check

NET = ["--features", "512", "--hidden", "8", "--dim", "6"]


def _run(argv, capsys=None):
    return main([str(a) for a in argv])


def _check_manifest(out, command, seed, inputs, outputs):
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["seed"] == seed
    assert manifest["inputs"] == [str(p) for p in inputs]
    assert manifest["outputs"] == [str(p) for p in outputs]


def _relabel(path, version):
    """Rewrite the model file at ``path`` to name container ``version``,
    under the 8-byte BLAKE2b trailer that versions 2 and 3 carried."""
    blob = path.read_bytes()
    body = blob[:4] + version.to_bytes(2, "little") + blob[6:-8]
    path.write_bytes(body + hashlib.blake2b(body, digest_size=8).digest())


def _tsv_rows(path):
    """The rows of a 3-column output TSV, checking that each is one
    LF-terminated UTF-8 line with the score as its last column."""
    text = Path(path).read_bytes().decode("utf-8")
    assert text.endswith("\n") and "\r" not in text
    rows = [line.split("\t") for line in text[:-1].split("\n")]
    assert all(len(row) == 3 for row in rows)
    return [(a, b, float(score)) for a, b, score in rows]


def _manifests(root):
    return sorted(p.name for p in Path(root).rglob("*.manifest.json"))


@pytest.fixture
def synth_prefix(tmp_path):
    prefix = tmp_path / "corpus"
    assert _run(["synth", "--count", 60, "--vocab", 30, "--corruption", "0.4",
                 "--seed", 3, "--out", prefix]) == 0
    return prefix


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert _run(["train", "--frobnicate", "x"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert _run(["transmogrify"]) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = _run(["train", "--qe", tmp_path / "absent.tsv", "--tasks", "qe",
                     "--out", tmp_path / "m.qem"])
        assert code == 2
        assert "absent.tsv" in capsys.readouterr().err
        assert _manifests(tmp_path) == []

    @pytest.mark.parametrize("message", ["", "Unable to allocate 7.45 GiB for an array with "
                                         "shape (10000, 100000) and data type float64"])
    def test_out_of_memory_is_data_error(self, tmp_path, monkeypatch, capsys, message):
        def exhausted(args):
            raise MemoryError(message)

        monkeypatch.setattr(qemine.cli, "_cmd_hist", exhausted)
        assert _run(["hist", "--qe", tmp_path / "qe.tsv", "--out", tmp_path / "h.csv"]) == 2
        detail = f": {message}" if message else ""
        assert capsys.readouterr().err == f"error: out of memory{detail}\n"
        assert _manifests(tmp_path) == []

    def test_malformed_data_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("just one column\n", encoding="utf-8")
        assert _run(["hist", "--qe", bad]) == 2

    def test_unreadable_model_path_is_data_error(self, synth_prefix, tmp_path, capsys):
        directory = tmp_path / "models"
        directory.mkdir()
        code = _run(["eval-qe", "--qe", f"{synth_prefix}.qe.tsv", "--model", directory])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {directory}: ")
        assert "Traceback" not in err

    def test_unwritable_output_path_is_data_error(self, synth_prefix, tmp_path, capsys):
        out = tmp_path / "absent-dir" / "h.csv"
        code = _run(["hist", "--qe", f"{synth_prefix}.qe.tsv", "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: ")
        assert "cannot read" not in err
        assert _manifests(tmp_path) == ["corpus.manifest.json"]

    def test_auto_threshold_without_train_gold_is_usage_error(self, synth_prefix, tmp_path, capsys):
        code = _run(["mine-bucc",
                     "--side-a", f"{synth_prefix}.bucc.a.tsv",
                     "--side-b", f"{synth_prefix}.bucc.b.tsv",
                     "--gold", f"{synth_prefix}.bucc.gold.tsv",
                     "--filter-model", tmp_path / "filter.qem",
                     "--model", tmp_path / "scorer.qem",
                     "--out", tmp_path / "mined.tsv"])
        assert code == 1
        assert "train-gold" in capsys.readouterr().err
        assert _manifests(tmp_path) == ["corpus.manifest.json"]

    @pytest.mark.parametrize("flag, value", [("--threshold", "abc"), ("--threshold", "1.5"),
                                             ("--threshold", "-0.1"), ("--threshold", "nan"),
                                             ("--topn", "0")])
    def test_bad_mining_flag_is_usage_error_before_reading(self, tmp_path, capsys, flag, value):
        # None of the input files exists, so reading any of them would exit 2.
        missing = [tmp_path / name for name in ("a.tsv", "b.tsv", "gold.tsv", "train.tsv",
                                                "filter.qem", "scorer.qem")]
        code = _run(["mine-bucc", "--side-a", missing[0], "--side-b", missing[1],
                     "--gold", missing[2], "--train-gold", missing[3],
                     "--filter-model", missing[4], "--model", missing[5],
                     "--out", tmp_path / "mined.tsv", flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qemine mine-bucc")
        assert f"error: {flag} must be" in err
        assert _manifests(tmp_path) == []

    def test_train_gold_with_fixed_threshold_is_usage_error(self, tmp_path, capsys):
        # None of the input files exists, so reading any of them would exit 2.
        missing = [tmp_path / name for name in ("a.tsv", "b.tsv", "gold.tsv", "train.tsv",
                                                "filter.qem", "scorer.qem")]
        code = _run(["mine-bucc", "--side-a", missing[0], "--side-b", missing[1],
                     "--gold", missing[2], "--train-gold", missing[3],
                     "--filter-model", missing[4], "--model", missing[5],
                     "--out", tmp_path / "mined.tsv", "--threshold", "0.1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qemine mine-bucc")
        assert "error: --train-gold is read only with --threshold auto" in err
        assert _manifests(tmp_path) == []

    def test_until_convergence_is_an_unknown_flag(self, tmp_path, capsys):
        code = _run(["train", "--qe", tmp_path / "absent.tsv", "--until-convergence",
                     "--out", tmp_path / "model.qem"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qemine train ")
        assert "error: unrecognized arguments: --until-convergence" in err


class TestParser:
    def test_every_flag_is_read_by_its_command(self):
        """Each subcommand flag's ``args.<dest>`` appears in that command's
        ``_cmd_*`` source, so no command accepts a flag it ignores."""
        subcommands = next(a for a in build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction))
        unread = []
        for name, parser in subcommands.choices.items():
            source = inspect.getsource(parser.get_default("func"))
            unread += [(name, action.dest) for action in parser._actions
                       if not isinstance(action, argparse._HelpAction)
                       and f"args.{action.dest}" not in source]
        assert unread == []

    def test_seed_on_a_command_without_randomness_is_usage_error(self, capsys):
        assert _run(["t-tail", "--t", 1.5, "--df", 3, "--seed", 1]) == 1
        assert _run(["t-tail", "--t", 1.5, "--df", 3]) == 0


class TestSynth:
    def test_writes_all_formats_and_manifest(self, synth_prefix):
        for suffix in (".qe.tsv", ".parallel.tsv", ".tatoeba.src", ".tatoeba.tgt",
                       ".bucc.a.tsv", ".bucc.b.tsv", ".bucc.gold.tsv"):
            assert (synth_prefix.parent / (synth_prefix.name + suffix)).exists()
        manifest = json.loads((synth_prefix.parent / "corpus.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert manifest["version"]

    def test_byte_identical_across_runs(self, tmp_path):
        args = ["synth", "--count", 40, "--vocab", 25, "--seed", 11]
        _run(args + ["--out", tmp_path / "one"])
        _run(args + ["--out", tmp_path / "two"])
        for suffix in (".qe.tsv", ".parallel.tsv", ".bucc.gold.tsv"):
            assert (tmp_path / f"one{suffix}").read_bytes() == (tmp_path / f"two{suffix}").read_bytes()


class TestTrainPipeline:
    def test_train_writes_model_and_history(self, synth_prefix, tmp_path):
        out = tmp_path / "model.qem"
        history = tmp_path / "history.csv"
        code = _run(["train", "--qe", f"{synth_prefix}.qe.tsv", "--tasks", "qe",
                     "--epochs", 2, "--finetune-epochs", 1, "--seed", 5,
                     "--history", history, "--out", out, *NET])
        assert code == 0
        assert out.exists()
        lines = history.read_text().strip().split("\n")
        assert lines[0] == "epoch,task,mean_loss"
        assert len(lines) == 4  # 2 multitask epochs + 1 fine-tune, qe only
        manifest = json.loads((tmp_path / "model.qem.manifest.json").read_text())
        assert manifest["command"] == "train"

    def test_validation_without_the_qe_task_is_a_config_error(self, synth_prefix, tmp_path,
                                                              capsys):
        qe = f"{synth_prefix}.qe.tsv"  # QE scores in [0, 1] are valid raw STS scores
        code = _run(["train", "--sts", qe, "--tasks", "sts", "--finetune-epochs", 0,
                     "--validation", qe, "--out", tmp_path / "model.qem", *NET])
        assert code == 2
        assert "tasks must include 'qe'" in capsys.readouterr().err
        assert _manifests(tmp_path) == ["corpus.manifest.json"]  # synth's own
        assert not (tmp_path / "model.qem").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "0"])
    def test_a_learning_rate_outside_zero_to_infinity_is_a_data_error(self, synth_prefix,
                                                                       tmp_path, capsys, lr):
        code = _run(["train", "--qe", f"{synth_prefix}.qe.tsv", "--tasks", "qe", "--lr", lr,
                     "--out", tmp_path / "model.qem", *NET])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: learning_rate must be positive and finite, got {float(lr)!r}\n"
        assert not (tmp_path / "model.qem").exists()

    def test_train_defaults_to_three_epochs(self, synth_prefix, tmp_path):
        history = tmp_path / "history.csv"
        assert _run(["train", "--qe", f"{synth_prefix}.qe.tsv", "--tasks", "qe",
                     "--finetune-epochs", 0, "--history", history,
                     "--out", tmp_path / "model.qem", *NET]) == 0
        assert len(history.read_text().strip().split("\n")) == 4  # header + 3 epochs
        manifest = json.loads((tmp_path / "model.qem.manifest.json").read_text())
        assert manifest["config"]["epochs"] == 3

    def test_train_byte_identical_across_runs(self, synth_prefix, tmp_path):
        args = ["train", "--qe", f"{synth_prefix}.qe.tsv", "--tasks", "qe",
                "--epochs", 1, "--seed", 5, *NET]
        _run(args + ["--out", tmp_path / "m1.qem"])
        _run(args + ["--out", tmp_path / "m2.qem"])
        assert (tmp_path / "m1.qem").read_bytes() == (tmp_path / "m2.qem").read_bytes()

    def test_eval_qe_matches_library_pearson(self, synth_prefix, tmp_path, capsys):
        model = tmp_path / "model.qem"
        _run(["train", "--qe", f"{synth_prefix}.qe.tsv", "--tasks", "qe",
              "--epochs", 2, "--seed", 5, "--out", model, *NET])
        predictions = tmp_path / "pred.tsv"
        assert _run(["eval-qe", "--qe", f"{synth_prefix}.qe.tsv", "--model", model,
                     "--out", predictions]) == 0
        _check_manifest(predictions, "eval-qe", None, [f"{synth_prefix}.qe.tsv", model],
                        [predictions])
        reported = float(capsys.readouterr().out.strip().split("=")[1])
        predicted = [r.score for r in load_qe(predictions)]
        labels = [r.score for r in load_qe(f"{synth_prefix}.qe.tsv")]
        assert reported == pytest.approx(pearson(predicted, labels), abs=1e-12)


    def test_eval_qe_reports_corrupt_model_file(self, synth_prefix, tmp_path, capsys):
        model = tmp_path / "model.qem"
        _run(["train", "--qe", f"{synth_prefix}.qe.tsv", "--tasks", "qe",
              "--epochs", 1, "--seed", 5, "--out", model, *NET])
        blob = bytearray(model.read_bytes())
        blob[40] ^= 0xFF
        model.write_bytes(bytes(blob))
        capsys.readouterr()
        assert _run(["eval-qe", "--qe", f"{synth_prefix}.qe.tsv", "--model", model]) == 2
        assert "checksum mismatch" in capsys.readouterr().err

    def test_eval_qe_rejects_a_version_three_model_file(self, synth_prefix, tmp_path, capsys):
        model = tmp_path / "v3.qem"
        _run(["train", "--qe", f"{synth_prefix}.qe.tsv", "--tasks", "qe",
              "--epochs", 1, "--seed", 5, "--out", model, *NET])
        _relabel(model, 3)
        capsys.readouterr()
        assert _run(["eval-qe", "--qe", f"{synth_prefix}.qe.tsv", "--model", model]) == 2
        assert capsys.readouterr().err == \
            f"error: {model}: version-3 model file; retrain the model\n"

    @pytest.mark.parametrize("kind", ["qem", "qef"])
    def test_eval_qe_reads_a_fifo_once(self, synth_prefix, tmp_path, capsys, kind):
        """A FIFO can be opened for reading only once per writer, so a second
        open of the model file would wait for a writer that never comes."""
        qe = f"{synth_prefix}.qe.tsv"
        model = tmp_path / "model.qem"
        _run(["train", "--qe", qe, "--tasks", "qe", "--epochs", 1, "--seed", 5,
              "--out", model, *NET])
        if kind == "qef":
            stack = tmp_path / "stack.qef"
            _run(["train-feature", "--sts-backbone", model, "--nli-backbone", model,
                  "--qe-backbone", model, "--qe", qe, "--epochs", 1, "--seed", 4,
                  "--out", stack])
            model = stack
        capsys.readouterr()
        assert _run(["eval-qe", "--qe", qe, "--model", model]) == 0
        expected = capsys.readouterr().out
        assert expected.startswith("pearson=")

        fifo = tmp_path / "model.pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(model.read_bytes(),),
                                  daemon=True)
        codes = []
        runner = threading.Thread(
            target=lambda: codes.append(_run(["eval-qe", "--qe", qe, "--model", fifo])),
            daemon=True)
        writer.start()
        runner.start()
        runner.join(timeout=60)
        hung = runner.is_alive()
        if hung:
            # a writer that closes at once lets a hung open return, at end of file
            with open(fifo, "wb"):
                pass
            runner.join(timeout=10)
        writer.join(timeout=10)
        assert not hung and not writer.is_alive()
        assert codes == [0]
        assert capsys.readouterr().out == expected


class TestAugmentAndFilter:
    def test_augment_output_loads_as_qe(self, synth_prefix, tmp_path):
        out = tmp_path / "aug.tsv"
        assert _run(["augment", "--qe", f"{synth_prefix}.qe.tsv", "--mode", "scorer",
                     "--n", 2, "--seed", 9, "--out", out]) == 0
        _check_manifest(out, "augment", 9, [f"{synth_prefix}.qe.tsv"], [out])
        records = load_qe(out)
        assert len(records) == 60 + 120
        assert sum(1 for r in records if r.score == 0.0) >= 120

    def test_augment_deterministic(self, synth_prefix, tmp_path):
        args = ["augment", "--qe", f"{synth_prefix}.qe.tsv", "--mode", "filter", "--seed", 4]
        _run(args + ["--out", tmp_path / "a1.tsv"])
        _run(args + ["--out", tmp_path / "a2.tsv"])
        assert (tmp_path / "a1.tsv").read_bytes() == (tmp_path / "a2.tsv").read_bytes()

    def test_train_filter_deterministic(self, synth_prefix, tmp_path):
        aug = tmp_path / "aug.tsv"
        _run(["augment", "--qe", f"{synth_prefix}.qe.tsv", "--mode", "filter",
              "--seed", 4, "--out", aug])
        args = ["train-filter", "--data", aug, "--epochs", 1, "--seed", 2, *NET]
        _run(args + ["--out", tmp_path / "f1.qem"])
        _run(args + ["--out", tmp_path / "f2.qem"])
        assert (tmp_path / "f1.qem").read_bytes() == (tmp_path / "f2.qem").read_bytes()
        _check_manifest(tmp_path / "f1.qem", "train-filter", 2, [aug], [tmp_path / "f1.qem"])

    def test_train_filter_rejects_labels_other_than_1_and_0(self, tmp_path, capsys):
        data = tmp_path / "scored.tsv"
        data.write_text("a b\tc d\t1\ne f\tg h\t0\ni j\tk l\t0.5\nm n\to p\t0.25\n")
        code = _run(["train-filter", "--data", data, "--epochs", 1, "--out", tmp_path / "f.qem",
                     *NET])
        assert code == 2
        assert capsys.readouterr().err == ("error: augmented file must label every pair 1 or 0; "
                                           "2 pairs carry another label, the first 0.5\n")
        assert not (tmp_path / "f.qem").exists()


class TestAlignCli:
    def test_align_runs_and_is_deterministic(self, synth_prefix, tmp_path):
        model = tmp_path / "model.qem"
        _run(["train", "--qe", f"{synth_prefix}.qe.tsv", "--tasks", "qe",
              "--epochs", 1, "--seed", 5, "--out", model, *NET])
        args = ["align", "--model", model, "--parallel", f"{synth_prefix}.parallel.tsv",
                "--epochs", 1, "--seed", 6]
        _run(args + ["--out", tmp_path / "al1.qem"])
        _run(args + ["--out", tmp_path / "al2.qem"])
        assert (tmp_path / "al1.qem").read_bytes() == (tmp_path / "al2.qem").read_bytes()
        _check_manifest(tmp_path / "al1.qem", "align", 6,
                        [model, f"{synth_prefix}.parallel.tsv"], [tmp_path / "al1.qem"])

    @pytest.mark.parametrize("fraction", ["inf", "nan"])
    def test_a_heldout_fraction_outside_the_unit_interval_is_a_data_error(
            self, synth_prefix, tmp_path, capsys, fraction):
        model = tmp_path / "model.qem"
        _run(["train", "--qe", f"{synth_prefix}.qe.tsv", "--tasks", "qe",
              "--epochs", 1, "--seed", 5, "--out", model, *NET])
        capsys.readouterr()
        code = _run(["align", "--model", model, "--parallel", f"{synth_prefix}.parallel.tsv",
                     "--heldout-fraction", fraction, "--out", tmp_path / "al.qem"])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: held-out fraction must be in (0, 1), got {float(fraction)!r}\n"
        assert not (tmp_path / "al.qem").exists()


class TestMineCli:
    def test_mine_tatoeba_output(self, synth_prefix, tmp_path, capsys):
        model = tmp_path / "model.qem"
        _run(["train", "--qe", f"{synth_prefix}.qe.tsv", "--tasks", "qe",
              "--epochs", 2, "--seed", 5, "--out", model, *NET])
        out = tmp_path / "pairs.tsv"
        assert _run(["mine-tatoeba", "--side-a", f"{synth_prefix}.tatoeba.src",
                     "--side-b", f"{synth_prefix}.tatoeba.tgt",
                     "--model", model, "--out", out]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 12  # count // 5
        for line in lines:
            row, col, score = line.split("\t")
            assert int(row) >= 0 and int(col) >= 0
            assert math.isfinite(float(score))
        assert "accuracy" in capsys.readouterr().err
        _check_manifest(out, "mine-tatoeba", None,
                        [f"{synth_prefix}.tatoeba.src", f"{synth_prefix}.tatoeba.tgt", model],
                        [out])

    @staticmethod
    def _mining_models(synth_prefix, tmp_path):
        scorer = tmp_path / "scorer.qem"
        _run(["train", "--qe", f"{synth_prefix}.qe.tsv", "--tasks", "qe",
              "--epochs", 1, "--seed", 5, "--out", scorer, *NET])
        aug = tmp_path / "aug.tsv"
        _run(["augment", "--qe", f"{synth_prefix}.qe.tsv", "--mode", "filter",
              "--seed", 4, "--out", aug])
        filt = tmp_path / "filter.qem"
        _run(["train-filter", "--data", aug, "--epochs", 1, "--seed", 2,
              "--out", filt, *NET])
        return ["--filter-model", filt, "--model", scorer]

    @staticmethod
    def _mine_bucc_args(synth_prefix, out):
        return ["mine-bucc",
                "--side-a", f"{synth_prefix}.bucc.a.tsv",
                "--side-b", f"{synth_prefix}.bucc.b.tsv",
                "--gold", f"{synth_prefix}.bucc.gold.tsv",
                "--topn", 5, "--out", out]

    def test_mine_bucc_with_explicit_threshold(self, synth_prefix, tmp_path, capsys):
        models = self._mining_models(synth_prefix, tmp_path)
        out = tmp_path / "mined.tsv"
        code = _run(self._mine_bucc_args(synth_prefix, out) + models + ["--threshold", "0.1"])
        assert code == 0
        err = capsys.readouterr().err
        assert "threshold=" in err and "F1=" in err
        assert "shortlist_gold_recall" not in err
        for line in out.read_text().strip().split("\n"):
            if line:
                id_a, id_b, score = line.split("\t")
                assert float(score) >= 0.1

    def test_mine_bucc_warns_when_tuning_on_the_reported_gold(self, synth_prefix, tmp_path,
                                                            capsys):
        models = self._mining_models(synth_prefix, tmp_path)
        out = tmp_path / "mined.tsv"
        gold = f"{synth_prefix}.bucc.gold.tsv"
        assert _run(self._mine_bucc_args(synth_prefix, out) + models + ["--train-gold", gold]) == 0
        assert "warning: --train-gold is the --gold file" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "mined.tsv.manifest.json").read_text())
        assert gold in manifest["inputs"]

        tuning = tmp_path / "tune.gold.tsv"
        tuning.write_text((synth_prefix.parent / "corpus.bucc.gold.tsv").read_text())
        assert _run(self._mine_bucc_args(synth_prefix, out) + models
                    + ["--train-gold", tuning]) == 0
        err = capsys.readouterr().err
        assert "warning" not in err
        recall = float(re.search(r"shortlist_gold_recall=([0-9.]+)$", err.strip()).group(1))
        assert 0.0 <= recall <= 1.0

    @pytest.mark.parametrize("threshold", ["auto", "0.1"])
    def test_mine_bucc_manifest_records_the_mining(self, synth_prefix, tmp_path, capsys,
                                                   threshold):
        models = self._mining_models(synth_prefix, tmp_path)
        out = tmp_path / "mined.tsv"
        tuning = tmp_path / "tune.gold.tsv"
        tuning.write_text((synth_prefix.parent / "corpus.bucc.gold.tsv").read_text())
        train_gold = ["--train-gold", tuning] if threshold == "auto" else []
        assert _run(self._mine_bucc_args(synth_prefix, out) + models
                    + ["--threshold", threshold, *train_gold]) == 0
        last_line = capsys.readouterr().err.strip().splitlines()[-1]
        summary = re.match(r"(\d+) candidates, (\d+) forward, (\d+) backward, (\d+) selected, "
                           r"threshold=([0-9.e-]+),", last_line)
        mining = json.loads((tmp_path / "mined.tsv.manifest.json").read_text())["mining"]
        counts = ("n_candidates", "n_forward", "n_backward", "n_selected")
        assert [mining[key] for key in counts] == [int(n) for n in summary.groups()[:4]]
        assert mining["n_selected"] == len(out.read_text().splitlines())
        assert mining["threshold"] == float(summary.group(5))
        if threshold == "auto":
            assert mining["threshold_source"] == "tuned"
            assert 0.0 <= mining["shortlist_gold_recall"] <= 1.0
        else:
            assert mining["threshold_source"] == "fixed"
            assert mining["threshold"] == 0.1
            assert mining["shortlist_gold_recall"] is None

    def test_output_files_hold_the_library_scores(self, synth_prefix, tmp_path):
        """mine-tatoeba, mine-bucc and eval-qe --out write one row per result,
        and each score reads back as the float the library returns."""
        models = self._mining_models(synth_prefix, tmp_path)
        scorer_path = models[-1]
        scorer = MultitaskScorer.load(scorer_path)

        searched = tmp_path / "searched.tsv"
        tatoeba = [f"{synth_prefix}.tatoeba.src", f"{synth_prefix}.tatoeba.tgt"]
        assert _run(["mine-tatoeba", "--side-a", tatoeba[0], "--side-b", tatoeba[1],
                     "--model", scorer_path, "--out", searched]) == 0
        data = load_tatoeba(*tatoeba)
        matrix = score_matrix(scorer, data.references, data.hypotheses)
        assert _tsv_rows(searched) == [(str(row), str(col), float(matrix.values[row, col]))
                                       for row, col in mine_tatoeba(matrix)]

        mined = tmp_path / "mined.tsv"
        assert _run(self._mine_bucc_args(synth_prefix, mined) + models
                    + ["--threshold", "0.1"]) == 0
        corpus = load_bucc(*(f"{synth_prefix}.bucc.{name}.tsv" for name in ("a", "b", "gold")))
        result = mine_bucc(corpus, ContrastiveFilter.load(models[1]), scorer,
                           MiningConfig(top_n=5, threshold=0.1))
        assert result.pairs
        assert _tsv_rows(mined) == list(result.pairs)

        predicted = tmp_path / "pred.tsv"
        qe = f"{synth_prefix}.qe.tsv"
        assert _run(["eval-qe", "--qe", qe, "--model", scorer_path, "--out", predicted]) == 0
        records = load_qe(qe)
        scores = load_qe_scorer(scorer_path).predict(records)
        assert _tsv_rows(predicted) == [(r.source, r.target, float(score))
                                        for r, score in zip(records, scores)]

    def test_mine_bucc_rejects_a_version_two_model_file(self, synth_prefix, tmp_path, capsys):
        models = self._mining_models(synth_prefix, tmp_path)
        scorer = models[-1]
        _relabel(scorer, 2)
        capsys.readouterr()
        code = _run(self._mine_bucc_args(synth_prefix, tmp_path / "mined.tsv")
                    + models + ["--threshold", "0.1"])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: {scorer}: version-2 model file; retrain the model\n"

    def test_mine_bucc_rejects_malformed_train_gold(self, synth_prefix, tmp_path, capsys):
        bad = tmp_path / "bad.gold.tsv"
        bad.write_text("a1\tb1\nnot-a-pair\n", encoding="utf-8")
        code = _run(self._mine_bucc_args(synth_prefix, tmp_path / "mined.tsv")
                    + ["--filter-model", tmp_path / "filter.qem", "--model", tmp_path / "m.qem",
                       "--train-gold", bad])
        assert code == 2
        assert f"{bad}:2: expected 2 tab-separated columns" in capsys.readouterr().err


class TestStatsCli:
    def test_williams_output_format(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert _run(["williams", "--r12", 0.5, "--r13", 0.7, "--r23", 0.6, "--n", 30]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t=")
        assert " df=27 " in out
        assert "p=" in out
        assert _manifests(tmp_path) == []

    def test_t_tail_output_format(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert _run(["t-tail", "--t", 0.0, "--df", 5]) == 0
        assert capsys.readouterr().out == "p=0.5\n"
        assert _manifests(tmp_path) == []

    def test_hist_csv(self, synth_prefix, tmp_path, monkeypatch, capsys):
        out = tmp_path / "hist.csv"
        assert _run(["hist", "--qe", f"{synth_prefix}.qe.tsv", "--bins", 5,
                     "--out", out]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count"
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 60
        _check_manifest(out, "hist", None, [f"{synth_prefix}.qe.tsv"], [out])

        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert _run(["hist", "--qe", f"{synth_prefix}.qe.tsv", "--bins", 5]) == 0
        assert capsys.readouterr().out == out.read_text()
        assert _manifests(tmp_path) == ["corpus.manifest.json", "hist.csv.manifest.json"]

    def test_gradcheck_single_loss(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "gc.csv"
        assert _run(["gradcheck", "--loss", "contrastive", "--seed", 1, "--out", out]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "block,max_rel_error"
        assert all(float(line.split(",")[1]) < 1e-3 for line in lines[1:])
        # one row per parameter block, in block order, with the report's errors
        report = grad_check("contrastive", seed=1)
        assert lines[1:] == [f"{block},{err!r}" for block, err in sorted(report.errors.items())]
        _check_manifest(out, "gradcheck", 1, [], [out])

        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert _run(["gradcheck", "--loss", "contrastive", "--seed", 1]) == 0
        assert capsys.readouterr().out == out.read_text()
        assert _manifests(tmp_path) == ["gc.csv.manifest.json"]

    @pytest.mark.parametrize("eps", ["nan", "0"])
    def test_gradcheck_rejects_an_eps_that_is_not_finite_and_positive(self, tmp_path, capsys,
                                                                      eps):
        code = _run(["gradcheck", "--loss", "qe-mse", "--eps", eps, "--out", tmp_path / "gc.csv"])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: eps must be positive and finite, got {float(eps)!r}\n"
        assert _manifests(tmp_path) == []

    def test_gradcheck_summary_keeps_a_nan(self, tmp_path, monkeypatch, capsys):
        # the NaN comes neither first nor last of the five kinds
        nan_in_nli = lambda kind, seed, eps: GradCheckReport(
            kind, eps, {"W1": float("nan") if kind == "nli-ce" else 0.5})
        monkeypatch.setattr(qemine.cli, "grad_check", nan_in_nli)
        assert _run(["gradcheck", "--out", tmp_path / "gc.csv"]) == 0
        assert capsys.readouterr().err == "max relative error nan\n"


class TestFeaturePipeline:
    def test_train_feature_and_eval(self, synth_prefix, tmp_path, monkeypatch, capsys):
        backbones = []
        for seed in (1, 2, 3):
            path = tmp_path / f"bb{seed}.qem"
            _run(["train", "--qe", f"{synth_prefix}.qe.tsv", "--tasks", "qe",
                  "--epochs", 1, "--seed", seed, "--out", path, *NET])
            backbones.append(path)
        out = tmp_path / "stack.qef"
        code = _run(["train-feature",
                     "--sts-backbone", backbones[0], "--nli-backbone", backbones[1],
                     "--qe-backbone", backbones[2], "--qe", f"{synth_prefix}.qe.tsv",
                     "--epochs", 2, "--seed", 4, "--out", out])
        assert code == 0
        _check_manifest(out, "train-feature", 4, [*backbones, f"{synth_prefix}.qe.tsv"], [out])
        written = _manifests(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert _run(["eval-qe", "--qe", f"{synth_prefix}.qe.tsv", "--model", out]) == 0
        assert "pearson=" in capsys.readouterr().out
        assert _manifests(tmp_path) == written
