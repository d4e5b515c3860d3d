"""Criterion 7's held-out accuracy across training seeds and last-bit nudges.

Criterion 7 (tests/test_acceptance.py) trains one unsegmented model from
one seed, so its figure is a single draw.  This harness shows the spread
around it: the same data and config for training seeds 0-5, then seed 0
with the batch label prior scaled by (1 + k * 1e-15), a change in its
last bits only.  Each row also gives the share of held-out frames whose
label-marginal argmax is the blank.  It is not a test (pytest does not
collect it) and asserts nothing.  Run from the repository root:

    PYTHONPATH=src python3 tests/seed_spread.py
"""
import numpy as np

import seqcrf.trainer as trainer
from seqcrf.seqdata import Dataset, GeneratorConfig, generate_synthetic
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
    """(held-out frame accuracy %, blank-argmax share %) of one training run."""
    config = TrainConfig(
        mode="unsegmented", hidden_per_label=2, window=1,
        learning_rate=0.015, batch_size=2, epochs=60,
        init_scale=1.0, seed=seed,
    )
    checkpoint, _ = train(train_set, config)
    blank = checkpoint.label_set.blank_id
    argmax = np.concatenate([q.argmax(axis=1) for _, q in dataset_label_marginals(held_out, checkpoint)])
    return evaluate(held_out, checkpoint).frame_accuracy, 100.0 * float(np.mean(argmax == blank))


def main():
    train_set, held_out = criterion_7_data()
    print("seed  accuracy  blank-argmax")
    for seed in SEEDS:
        accuracy, blank = run(train_set, held_out, seed)
        print(f"{seed:4d}  {accuracy:7.1f}%  {blank:11.1f}%", flush=True)
    prior = trainer._batch_label_prior
    print("seed 0, batch prior times (1 + k * 1e-15)")
    print("   k  accuracy  blank-argmax")
    try:
        for k in NUDGES:
            trainer._batch_label_prior = lambda qs, k=k: prior(qs) * (1.0 + k * 1e-15)
            accuracy, blank = run(train_set, held_out, 0)
            print(f"{k:4d}  {accuracy:7.1f}%  {blank:11.1f}%", flush=True)
    finally:
        trainer._batch_label_prior = prior


if __name__ == "__main__":
    main()
