"""Criterion 7's held-out accuracy across training seeds and last-bit nudges.

Criterion 7 (tests/test_acceptance.py) trains one unsegmented model from
one seed, so its figure is a single draw.  This harness shows the spread
around it: the same data and config for training seeds 0-5, then seed 0
with the batch label prior scaled by (1 + k * 1e-15), a change in its
last bits only.  Each row also gives the share of held-out frames whose
label-marginal argmax is the blank, the accuracy on the other frames, and
the share of blank-argmax frames that the "previous" fill labels right.
It is not a test (pytest does not collect it) and asserts nothing.  Run
from the repository root:

    PYTHONPATH=src python3 tests/seed_spread.py
"""
import numpy as np

import seqcrf.trainer as trainer
from seqcrf.seqdata import (
    Dataset, GeneratorConfig, generate_synthetic, remap_blank_predictions,
)
from seqcrf.trainer import TrainConfig, dataset_label_marginals, evaluate, train

SEEDS = range(6)
NUDGES = (1, 2, 3, 4, -1, -2)  # k in (1 + k * 1e-15)


def criterion_7_data():
    """Criterion 7's training and held-out sets (data seed 7)."""
    gen = GeneratorConfig(
        classes=6, dim=4, num_sequences=150,
        seg_len_range=(8, 16), segments_range=(3, 5),
        noise=0.3, gap_len_range=(2, 5),
    )
    full = generate_synthetic(gen, seed=7)
    split = [full.sequences[:120], full.sequences[120:]]
    return [Dataset(label_set=full.label_set, sequences=s, meta=dict(full.meta)) for s in split]


def run(train_set, held_out, seed):
    """Held-out frame accuracy, blank-argmax share, accuracy on the other frames and
    fill accuracy on the blank-argmax frames (all %) of one training run."""
    config = TrainConfig(
        mode="unsegmented", hidden_per_label=2, window=1,
        learning_rate=0.015, batch_size=2, epochs=60,
        init_scale=1.0, seed=seed,
    )
    checkpoint, _ = train(train_set, config)
    blank = checkpoint.label_set.blank_id
    argmax = [q.argmax(axis=1) for _, q in dataset_label_marginals(held_out, checkpoint)]
    filled = np.concatenate([remap_blank_predictions(a, blank) for a in argmax])
    argmax = np.concatenate(argmax)
    truth = np.concatenate([seq.frame_labels for seq in held_out.sequences])
    is_blank = argmax == blank
    return (evaluate(held_out, checkpoint).frame_accuracy, 100.0 * float(np.mean(is_blank)),
            100.0 * float(np.mean(argmax[~is_blank] == truth[~is_blank])),
            100.0 * float(np.mean(filled[is_blank] == truth[is_blank])))


HEADER = "accuracy  blank-argmax  non-blank  blank-fill"


def row(key, figures):
    accuracy, blank, real, fill = figures
    return f"{key:4d}  {accuracy:7.1f}%  {blank:11.1f}%  {real:8.1f}%  {fill:9.1f}%"


def main():
    train_set, held_out = criterion_7_data()
    print("seed  " + HEADER)
    for seed in SEEDS:
        print(row(seed, run(train_set, held_out, seed)), flush=True)
    prior = trainer._batch_label_prior
    print("seed 0, batch prior times (1 + k * 1e-15)")
    print("   k  " + HEADER)
    try:
        for k in NUDGES:
            trainer._batch_label_prior = lambda qs, k=k: prior(qs) * (1.0 + k * 1e-15)
            print(row(k, run(train_set, held_out, 0)), flush=True)
    finally:
        trainer._batch_label_prior = prior

if __name__ == "__main__":
    main()
