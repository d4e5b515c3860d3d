"""Command-line surface: dataset generation, training, evaluation,
decoding, k-fold runs, and gradient checking.

All artifacts (datasets, checkpoints, reports) are JSON written
atomically, with sorted keys and no timestamps, so repeated runs with
the same inputs and seeds produce byte-identical files.

Exit codes:
    0  success
    1  unexpected internal error
    2  invalid usage or configuration (including bad config-file keys or value types)
    3  file I/O failure, a malformed dataset or checkpoint file, or a
       checkpoint whose scores overflow the chain on the given data
    4  training diverged or an epoch skipped every batch (partial report
       still written when possible)
    5  gradient check exceeded the threshold
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import traceback

import numpy as np

from .ctc import best_path_decode
from .features import Checkpoint
from .seqdata import (
    Dataset,
    DatasetFormatError,
    GeneratorConfig,
    atomic_write_text,
    generate_synthetic,
    load_dataset,
    make_folds,
    save_dataset,
)
from .trainer import (
    GRAD_MODES,
    MODES,
    TrainConfig,
    TrainingDivergedError,
    TrainReport,
    dataset_label_marginals,
    evaluate,
    gradient_check_suite,
    train,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_GRADCHECK = 5


def _parse_range(text: str) -> tuple[int, int]:
    """'3..5' -> (3, 5); '4' -> (4, 4)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    """Training hyperparameter flags, all defaulting to 'not given' so a
    config file can fill them in underneath."""
    sub.add_argument("--config", help="JSON file of TrainConfig fields; flags override it")
    sub.add_argument("--model", choices=["crf", "ldcrf", "ctc-ldcrf"],
                     help="preset: crf = 1 hidden state + frame_wise, "
                          "ldcrf = frame_wise, ctc-ldcrf = unsegmented training")
    sub.add_argument("--mode", choices=MODES)
    sub.add_argument("--grad-mode", choices=GRAD_MODES, dest="grad_mode")
    sub.add_argument("--lr", type=float, dest="learning_rate")
    sub.add_argument("--momentum", type=float)
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", type=int, dest="batch_size")
    sub.add_argument("--l2", type=float)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--window", type=int)
    sub.add_argument("--hidden", type=int, dest="hidden_per_label",
                     help="hidden states per label (including the blank)")
    sub.add_argument("--pretrain-epochs", type=int, dest="pretrain_epochs")
    sub.add_argument("--init-scale", type=float, dest="init_scale")


_PRESETS = {
    # fills for unset keys, then hard requirements checked afterwards
    "crf": ({"mode": "frame_wise", "hidden_per_label": 1},
            {"mode": ("frame_wise",), "hidden_per_label": (1,)}),
    "ldcrf": ({"mode": "frame_wise"}, {"mode": ("frame_wise",)}),
    "ctc-ldcrf": ({"mode": "unsegmented"},
                  {"mode": ("unsegmented", "pretrain_finetune")}),
}


def _build_train_config(args: argparse.Namespace) -> TrainConfig:
    merged: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_conf = json.load(fh)
        if not isinstance(file_conf, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        merged.update(file_conf)
    for key in (f.name for f in dataclasses.fields(TrainConfig)):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if args.model is not None:
        fills, required = _PRESETS[args.model]
        for key, value in fills.items():
            merged.setdefault(key, value)
        for key, allowed in required.items():
            if merged[key] not in allowed:
                raise ValueError(
                    f"--model {args.model} requires {key} in {list(allowed)}, "
                    f"got {merged[key]!r}"
                )
    return TrainConfig.from_dict(merged)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        classes=args.classes,
        dim=args.dim,
        num_sequences=args.sequences,
        seg_len_range=args.seg_len,
        segments_range=args.segments,
        noise=args.noise,
        gap_len_range=args.gap,
    )
    dataset = generate_synthetic(config, seed=args.seed)
    save_dataset(dataset, args.out)
    print(f"wrote {args.out}: {len(dataset.sequences)} sequences, "
          f"{args.classes} classes, dim {args.dim}")
    return EXIT_OK


def _train_and_write(dataset: Dataset, eval_set: Dataset | None, config: TrainConfig,
                     model_path: str, report_path: str | None,
                     blank_policy: str) -> TrainReport:
    """Train, write the checkpoint, then score ``eval_set`` (if given) and
    write the report.  A diverged run writes its partial ones, unscored,
    and returns a report with ``diverged`` set."""
    try:
        checkpoint, report = train(dataset, config)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        checkpoint, report = exc.checkpoint, exc.report
    report.checkpoint_path = model_path
    checkpoint.save(model_path)
    if eval_set is not None and not report.diverged:
        report.evaluation = evaluate(eval_set, checkpoint, blank_policy=blank_policy).to_dict()
    if report_path:
        atomic_write_text(report_path, report.to_json() + "\n")
    return report


def _cmd_train(args: argparse.Namespace) -> int:
    config = _build_train_config(args)
    dataset = load_dataset(args.data)
    eval_set = load_dataset(args.eval_data) if args.eval_data else None
    report = _train_and_write(dataset, eval_set, config, args.out, args.report,
                              args.blank_policy)
    if report.evaluation is not None:
        print(f"held-out frame accuracy: {report.evaluation['frame_accuracy']}%")
    if report.epoch_losses:
        print(f"trained {report.epochs_completed} epochs, "
              f"final epoch loss {report.epoch_losses[-1]}")
    elif report.diverged:
        print("diverged before finishing an epoch; checkpoint holds the last finite weights")
    else:
        print("no epochs run; checkpoint is the raw initialization")
    return EXIT_DIVERGED if report.diverged else EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    checkpoint = Checkpoint.load(args.model)
    plan = None
    if args.folds is not None:
        plan = make_folds(dataset, args.folds, seed=args.fold_seed)
    report = evaluate(dataset, checkpoint, fold_plan=plan,
                      blank_policy=args.blank_policy,
                      positive_label=args.positive_label)
    text = report.to_json() + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        print(f"frame accuracy: {report.frame_accuracy}%")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_decode(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    checkpoint = Checkpoint.load(args.model)
    label_set = checkpoint.label_set
    out = []
    for seq, q in dataset_label_marginals(dataset, checkpoint):
        frames = [label_set.name_of(int(a)) for a in np.argmax(q, axis=1)]
        segments = [label_set.name_of(a)
                    for a in best_path_decode(q, label_set.blank_id)]
        out.append({"id": seq.id, "frame_labels": frames, "label_seq": segments})
    text = json.dumps({"sequences": out}, sort_keys=True) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        print(f"decoded {len(out)} sequences to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_kfold(args: argparse.Namespace) -> int:
    config = _build_train_config(args)
    dataset = load_dataset(args.data)
    plan = make_folds(dataset, args.k, seed=args.fold_seed)
    os.makedirs(args.out_dir, exist_ok=True)
    accuracies = []
    fold_entries = []
    for fold in range(plan.k):
        train_set, test_set = plan.split(dataset, fold)
        model_path = os.path.join(args.out_dir, f"fold{fold}_model.json")
        report_path = os.path.join(args.out_dir, f"fold{fold}_report.json")
        report = _train_and_write(train_set, test_set, config, model_path, report_path,
                                  args.blank_policy)
        if report.diverged:
            print(f"error: fold {fold} diverged", file=sys.stderr)
            return EXIT_DIVERGED
        accuracy = report.evaluation["frame_accuracy"]
        accuracies.append(accuracy)
        fold_entries.append({"fold": fold, "model": model_path,
                             "report": report_path, "frame_accuracy": accuracy})
        print(f"fold {fold}: frame accuracy {accuracy}%")
    aggregate = {
        "k": plan.k,
        "fold_seed": plan.seed,
        "train_config": config.to_dict(),
        "folds": fold_entries,
        "fold_accuracies": accuracies,
        "mean_accuracy": sum(accuracies) / len(accuracies),
    }
    aggregate_path = os.path.join(args.out_dir, "aggregate.json")
    atomic_write_text(aggregate_path, json.dumps(aggregate, sort_keys=True) + "\n")
    print(f"mean frame accuracy over {plan.k} folds: {aggregate['mean_accuracy']}%")
    return EXIT_OK


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    # training divides q by the batch label prior, so check that gradient as well
    worst = max(gradient_check_suite(trials=args.trials, seed=args.seed, step=args.step,
                                     label_prior=prior) for prior in (False, True))
    print(f"max relative error: {worst} over {args.trials} trials")
    if worst < args.threshold:
        return EXIT_OK
    print(f"error: exceeds threshold {args.threshold}", file=sys.stderr)
    return EXIT_GRADCHECK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcrf",
        description="Sequence labeling with latent-state chain models, "
                    "trainable from frame labels or unsegmented label sequences.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--classes", type=int, default=6)
    gen.add_argument("--dim", type=int, default=4)
    gen.add_argument("--sequences", type=int, default=120)
    gen.add_argument("--segments", type=_parse_range, default=(3, 5),
                     metavar="LO..HI", help="segments per sequence, e.g. 3..5")
    gen.add_argument("--seg-len", type=_parse_range, default=(8, 16),
                     dest="seg_len", metavar="LO..HI", help="frames per segment")
    gen.add_argument("--noise", type=float, default=0.3)
    gen.add_argument("--gap", type=_parse_range, default=None, metavar="LO..HI",
                     help="insert unlabeled-feature rest gaps of this length "
                          "between segments (labels carry over)")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_gen)

    tr = sub.add_parser("train", help="train a model and write a checkpoint")
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True, help="checkpoint path")
    tr.add_argument("--report", help="write a JSON training report here")
    tr.add_argument("--eval-data", dest="eval_data",
                    help="score this dataset after training; result lands in the report")
    tr.add_argument("--blank-policy", dest="blank_policy", default="previous",
                    choices=["previous", "keep"])
    _add_train_flags(tr)
    tr.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint on labeled data")
    ev.add_argument("--data", required=True)
    ev.add_argument("--model", required=True)
    ev.add_argument("--out", help="metrics JSON path (default: stdout)")
    ev.add_argument("--folds", type=int, help="also report per-fold accuracies")
    ev.add_argument("--fold-seed", type=int, default=0, dest="fold_seed")
    ev.add_argument("--blank-policy", dest="blank_policy", default="previous",
                    choices=["previous", "keep"])
    ev.add_argument("--positive-label", dest="positive_label",
                    help="positive class name for the binary ROC")
    ev.set_defaults(func=_cmd_eval)

    de = sub.add_parser("decode", help="write per-frame and segment label output")
    de.add_argument("--data", required=True)
    de.add_argument("--model", required=True)
    de.add_argument("--out", help="output JSON path (default: stdout)")
    de.set_defaults(func=_cmd_decode)

    kf = sub.add_parser("kfold", help="k-fold cross-validation (k=5 and k=2 mirror "
                                      "the usual protocols)")
    kf.add_argument("--data", required=True)
    kf.add_argument("--out-dir", required=True, dest="out_dir")
    kf.add_argument("--k", type=int, default=5)
    kf.add_argument("--fold-seed", type=int, default=0, dest="fold_seed")
    kf.add_argument("--blank-policy", dest="blank_policy", default="previous",
                    choices=["previous", "keep"])
    _add_train_flags(kf)
    kf.set_defaults(func=_cmd_kfold)

    gc = sub.add_parser("gradcheck", help="finite-difference check of the "
                                          "exact composite gradient")
    gc.add_argument("--trials", type=int, default=100)
    gc.add_argument("--seed", type=int, default=1)
    gc.add_argument("--step", type=float, default=1e-5)
    gc.add_argument("--threshold", type=float, default=1e-5)
    gc.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (DatasetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FloatingPointError as exc:  # only scoring; training catches its own
        print(f"error: the checkpoint cannot score this data: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:  # pragma: no cover - last-resort diagnostics
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
