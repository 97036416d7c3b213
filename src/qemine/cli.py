"""Command-line entry point wiring the pipelines together.

Every command that writes an output file also writes a JSON run
manifest next to it (``<out>.manifest.json``) recording the command,
resolved options, seed (null for a command without ``--seed``), paths,
tool version and wall-clock duration;
``mine-bucc`` adds a ``mining`` block with its candidate, forward,
backward and selected counts, the threshold and how it was chosen, and
the shortlist's gold recall.  Exit codes: 0 success, 1 usage error, 2
data or configuration error, including running out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .augment import AugmentConfig, augment_filtration, augment_scorer
from .corpus import (
    load_bucc,
    load_gold,
    load_nli,
    load_parallel,
    load_qe,
    load_sts,
    load_tatoeba,
    save_qe,
    save_bucc,
    save_parallel,
    save_tatoeba,
)
from .errors import ConfigError, QemineError
from .estimators import ContrastiveFilter, FeatureStackScorer, MultitaskScorer, load_qe_scorer
from .mining import (
    MiningConfig,
    f1_score,
    mine_bucc,
    mine_tatoeba,
    score_matrix,
    tatoeba_accuracy,
)
from .model import load_model, save_feature_model, save_model
from .stats import histogram_csv, pearson, score_histogram, t_tail, williams_test
from .synth import SynthConfig, generate_corpus
from .training import (
    GRAD_CHECK_KINDS,
    TrainConfig,
    align_encoders,
    grad_check,
    history_to_csv,
)

USAGE_EXIT = 1
DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _write_manifest(args, started, out_path, inputs, outputs, record=None):
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seed": getattr(args, "seed", None),
        "inputs": [str(p) for p in inputs if p],
        "outputs": [str(p) for p in outputs if p],
        "version": __version__,
        "duration_s": round(time.monotonic() - started, 6),
        **(record or {}),
    }
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _tasks(spec: str) -> tuple:
    return tuple(t.strip().lower() for t in spec.split(",") if t.strip())


def _cmd_train(args):
    qe = load_qe(args.qe, normalize=args.normalize) if args.qe else None
    sts = load_sts(args.sts) if args.sts else None
    nli = load_nli(args.nli) if args.nli else None
    validation = load_qe(args.validation, normalize=args.normalize) if args.validation else None
    scorer = MultitaskScorer(
        tasks=_tasks(args.tasks),
        epochs=args.epochs,
        finetune_epochs=args.finetune_epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        n_features=args.features,
        hidden_units=args.hidden,
        embedding_dim=args.dim,
        seed=args.seed,
    )
    scorer.fit(qe, sts, nli, validation=validation)
    scorer.save(args.out)
    if args.history:
        with open(args.history, "w", encoding="utf-8") as handle:
            handle.write(history_to_csv(scorer.history_))
    return args.out, [args.qe, args.sts, args.nli, args.validation], [args.out, args.history]


def _cmd_augment(args):
    records = load_qe(args.qe, normalize=args.normalize)
    config = AugmentConfig(args.n, args.cutoff, args.seed)
    if args.mode == "filter":
        dataset = augment_filtration(records, config)
    else:
        dataset = augment_scorer(records, config)
    save_qe(dataset.records(), args.out)
    print(
        f"{len(dataset.positives)} positives, {len(dataset.negatives)} negatives "
        f"({dataset.label_kind})",
        file=sys.stderr,
    )
    return args.out, [args.qe], [args.out]


def _cmd_train_filter(args):
    records = load_qe(args.data)
    positives = [r for r in records if r.score == 1.0]
    negatives = [r for r in records if r.score == 0.0]
    if not positives or not negatives:
        raise ConfigError("augmented file must contain pairs labeled exactly 1 and 0")
    encoder = ContrastiveFilter(
        margin=args.margin,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        n_features=args.features,
        hidden_units=args.hidden,
        embedding_dim=args.dim,
        seed=args.seed,
    )
    encoder.fit(positives, negatives)
    encoder.save(args.out)
    return args.out, [args.data], [args.out]


def _cmd_align(args):
    model, heads = load_model(args.model)
    parallel = load_parallel(args.parallel)
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, learning_rate=args.lr,
                         seed=args.seed)
    aligned, report = align_encoders(model, parallel, config, args.heldout_fraction)
    save_model(aligned, heads, args.out)
    print(
        f"held-out cosine {report.cosine_before:.4f} -> {report.cosine_after:.4f} "
        f"({report.heldout_size} pairs)",
        file=sys.stderr,
    )
    return args.out, [args.model, args.parallel], [args.out]


def _cmd_train_feature(args):
    sts_backbone, _ = load_model(args.sts_backbone)
    nli_backbone, _ = load_model(args.nli_backbone)
    qe_backbone, _ = load_model(args.qe_backbone)
    records = load_qe(args.qe, normalize=args.normalize)
    scorer = FeatureStackScorer(
        sts_backbone, nli_backbone, qe_backbone,
        hidden_units=args.hidden, epochs=args.epochs,
        batch_size=args.batch_size, learning_rate=args.lr, seed=args.seed,
    )
    scorer.fit(records)
    save_feature_model(scorer.model_, args.out)
    return args.out, [args.sts_backbone, args.nli_backbone, args.qe_backbone, args.qe], [args.out]


def _cmd_mine_tatoeba(args):
    data = load_tatoeba(args.side_a, args.side_b)
    scorer = MultitaskScorer.load(args.model)
    matrix = score_matrix(scorer, data.references, data.hypotheses)
    predicted = mine_tatoeba(matrix)
    with open(args.out, "w", encoding="utf-8") as handle:
        for row, col in predicted:
            handle.write(f"{row}\t{col}\t{float(matrix.values[row, col])!r}\n")
    accuracy = tatoeba_accuracy(predicted, data.size)
    print(f"{data.size} rows, accuracy {accuracy:.4f}", file=sys.stderr)
    return args.out, [args.side_a, args.side_b, args.model], [args.out]


def _cmd_mine_bucc(args):
    corpus = load_bucc(args.side_a, args.side_b, args.gold)
    train_gold = load_gold(args.train_gold) if args.train_gold else None
    if train_gold is not None and os.path.samefile(args.train_gold, args.gold):
        print("warning: --train-gold is the --gold file, so the reported F1 is optimistic",
              file=sys.stderr)
    filter_model = ContrastiveFilter.load(args.filter_model)
    scorer = MultitaskScorer.load(args.model)
    threshold = args.threshold if args.threshold == "auto" else float(args.threshold)
    config = MiningConfig(top_n=args.topn, threshold=threshold)
    result = mine_bucc(corpus, filter_model, scorer, config, train_gold)
    with open(args.out, "w", encoding="utf-8") as handle:
        for id_a, id_b, score in result.pairs:
            handle.write(f"{id_a}\t{id_b}\t{score!r}\n")
    precision, recall, f1 = f1_score(result.pair_set(), corpus.gold)
    shortlist = ("" if result.shortlist_gold_recall is None
                 else f", shortlist_gold_recall={result.shortlist_gold_recall:.4f}")
    print(
        f"{result.n_candidates} candidates, {result.n_forward} forward, "
        f"{result.n_backward} backward, {len(result.pairs)} selected, "
        f"threshold={result.threshold!r}, F1={f1:.4f} (P={precision:.4f} R={recall:.4f})"
        f"{shortlist}",
        file=sys.stderr,
    )
    inputs = [args.side_a, args.side_b, args.gold, args.train_gold, args.filter_model, args.model]
    mining = {
        "n_candidates": result.n_candidates,
        "n_forward": result.n_forward,
        "n_backward": result.n_backward,
        "n_selected": len(result.pairs),
        "threshold": result.threshold,
        "threshold_source": "tuned" if config.threshold == "auto" else "fixed",
        "shortlist_gold_recall": result.shortlist_gold_recall,
    }
    return args.out, inputs, [args.out], {"mining": mining}


def _cmd_eval_qe(args):
    records = load_qe(args.qe, normalize=args.normalize)
    predictions = load_qe_scorer(args.model).predict(records)
    labels = np.array([r.score for r in records])
    correlation = pearson(predictions, labels)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for record, score in zip(records, predictions):
                handle.write(f"{record.source}\t{record.target}\t{float(score)!r}\n")
    print(f"pearson={correlation!r}")
    return (args.out, [args.qe, args.model], [args.out]) if args.out else None


def _cmd_williams(args):
    result = williams_test(args.r12, args.r13, args.r23, args.n)
    print(f"t={result.t_statistic!r} df={result.degrees_of_freedom} p={result.p_value!r}")


def _cmd_t_tail(args):
    print(f"p={t_tail(args.t, args.df)!r}")


def _cmd_hist(args):
    records = load_qe(args.qe, normalize=args.normalize)
    counts = score_histogram([r.score for r in records], args.bins)
    csv = histogram_csv(counts)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(csv)
    else:
        sys.stdout.write(csv)
    return (args.out, [args.qe], [args.out]) if args.out else None


def _cmd_synth(args):
    config = SynthConfig(
        vocab_size=args.vocab,
        corruption_rate=args.corruption,
        seed=args.seed,
    )
    bundle = generate_corpus(config, args.count)
    suffixes = ("qe.tsv", "parallel.tsv", "tatoeba.src", "tatoeba.tgt",
                "bucc.a.tsv", "bucc.b.tsv", "bucc.gold.tsv")
    outputs = [f"{args.out}.{suffix}" for suffix in suffixes]
    save_qe(bundle.qe, outputs[0])
    save_parallel(bundle.parallel, outputs[1])
    save_tatoeba(bundle.tatoeba, *outputs[2:4])
    save_bucc(bundle.bucc, *outputs[4:])
    return args.out, [], outputs


def _cmd_gradcheck(args):
    kinds = GRAD_CHECK_KINDS if args.loss == "all" else (args.loss,)
    rows = ["block,max_rel_error"]
    worst = 0.0
    for kind in kinds:
        report = grad_check(kind, seed=args.seed, eps=args.eps)
        prefix = f"{kind}:" if len(kinds) > 1 else ""
        for block, err in sorted(report.errors.items()):
            rows.append(f"{prefix}{block},{err!r}")
        worst = np.maximum(worst, report.max_error)  # keeps a NaN, as max() would not
    csv = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(csv)
    else:
        sys.stdout.write(csv)
    print(f"max relative error {worst:.2e}", file=sys.stderr)
    return (args.out, [], [args.out]) if args.out else None


def _add_net_flags(parser):
    parser.add_argument("--features", type=int, default=32768, help="hash buckets (power of two)")
    parser.add_argument("--hidden", type=int, default=256, help="hidden layer width")
    parser.add_argument("--dim", type=int, default=128, help="embedding dimension")


def _add_opt_flags(parser):
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--lr", type=float, default=1e-3, help="learning rate")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qemine", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qemine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # main reports unknown flags and its checks with a command's usage

    p = sub.add_parser("train", help="multitask-train a quality scorer")
    p.add_argument("--qe", help="QE TSV path")
    p.add_argument("--sts", help="STS TSV path")
    p.add_argument("--nli", help="NLI TSV path")
    p.add_argument("--validation",
                   help="QE TSV scored after each epoch; stops multitask training early")
    p.add_argument("--tasks", default="qe,sts,nli")
    p.add_argument("--epochs", type=int, default=3,
                   help="multitask epochs (with --validation, the most it runs)")
    p.add_argument("--finetune-epochs", type=int, default=1)
    p.add_argument("--normalize", action="store_true", help="min-max rescale QE scores")
    p.add_argument("--history", help="write per-epoch loss CSV here")
    p.add_argument("--out", required=True)
    _add_net_flags(p)
    _add_opt_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("augment", help="add mismatched negative pairs")
    p.add_argument("--qe", required=True)
    p.add_argument("--mode", choices=("filter", "scorer"), required=True)
    p.add_argument("--n", type=int, default=3, help="negatives per source")
    p.add_argument("--cutoff", type=float, default=0.7, help="quality demotion cutoff")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("train-filter", help="train the contrastive filtration encoder")
    p.add_argument("--data", required=True, help="binary-labeled QE TSV from augment --mode filter")
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--out", required=True)
    _add_net_flags(p)
    _add_opt_flags(p)
    p.set_defaults(func=_cmd_train_filter)

    p = sub.add_parser("align", help="pull source embeddings toward English targets")
    p.add_argument("--model", required=True)
    p.add_argument("--parallel", required=True, help="source<TAB>target TSV")
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--heldout-fraction", type=float, default=0.1)
    p.add_argument("--out", required=True)
    _add_opt_flags(p)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("train-feature", help="train the frozen-backbone feature predictor")
    p.add_argument("--sts-backbone", required=True)
    p.add_argument("--nli-backbone", required=True)
    p.add_argument("--qe-backbone", required=True)
    p.add_argument("--qe", required=True)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", required=True)
    _add_opt_flags(p)
    p.set_defaults(func=_cmd_train_feature)

    p = sub.add_parser("mine-tatoeba", help="full-matrix similarity search")
    p.add_argument("--side-a", required=True)
    p.add_argument("--side-b", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mine_tatoeba)

    p = sub.add_parser("mine-bucc", help="two-stage candidate mining")
    p.add_argument("--side-a", required=True)
    p.add_argument("--side-b", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--filter-model", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--topn", type=int, default=10)
    p.add_argument("--threshold", default="auto", help="selection threshold or 'auto'")
    p.add_argument("--train-gold", help="gold pairs for auto threshold tuning")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mine_bucc)

    p = sub.add_parser("eval-qe", help="score a QE file and report Pearson")
    p.add_argument("--qe", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", help="write predictions TSV here")
    p.set_defaults(func=_cmd_eval_qe)

    p = sub.add_parser("williams", help="dependent-correlation significance test")
    p.add_argument("--r12", type=float, required=True)
    p.add_argument("--r13", type=float, required=True)
    p.add_argument("--r23", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_williams)

    p = sub.add_parser("t-tail", help="one-tailed Student-t tail probability")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--df", type=int, required=True)
    p.set_defaults(func=_cmd_t_tail)

    p = sub.add_parser("hist", help="histogram of QE scores")
    p.add_argument("--qe", required=True)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hist)

    p = sub.add_parser("synth", help="generate a synthetic corpus bundle")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--vocab", type=int, default=200)
    p.add_argument("--corruption", type=float, default=0.3)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("gradcheck", help="finite-difference check of analytic gradients")
    p.add_argument("--loss", default="all", choices=("all",) + GRAD_CHECK_KINDS)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gradcheck)

    # only the commands that draw random numbers take a seed
    for name in ("synth", "train", "augment", "train-filter", "align", "train-feature",
                 "gradcheck"):
        sub.choices[name].add_argument("--seed", type=int, default=42)
    return parser


def _in_unit_range(value: str) -> bool:
    try:
        return 0.0 <= float(value) <= 1.0
    except ValueError:
        return False


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        error = parser.commands[args.command].error
        if unknown:
            error(f"unrecognized arguments: {' '.join(unknown)}")
        if args.command == "mine-bucc":
            if args.threshold == "auto" and not args.train_gold:
                error("the auto threshold cannot be resolved without --train-gold")
            if args.threshold != "auto" and not _in_unit_range(args.threshold):
                error(f"--threshold must be 'auto' or in [0, 1], got {args.threshold!r}")
            if args.threshold != "auto" and args.train_gold:
                error("--train-gold is read only with --threshold auto")
            if args.topn < 1:
                error(f"--topn must be >= 1, got {args.topn}")
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        return USAGE_EXIT
    started = time.monotonic()
    try:
        # a command returns (out_path, inputs, outputs[, manifest record]),
        # or None if it wrote no file
        written = args.func(args)
        if written:
            _write_manifest(args, started, *written)
        return 0
    except OSError as exc:
        reason = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {reason}", file=sys.stderr)
        return DATA_EXIT
    except (QemineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except MemoryError as exc:
        # numpy's message names the size of the allocation that failed
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
