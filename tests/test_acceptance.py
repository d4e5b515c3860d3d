"""Release gate: every criterion prints one PASS/FAIL line in the summary.

Each test asserts the stated tolerance and registers its verdict with the
conftest reporter, so a plain pytest run ends with a ten-line scorecard.
"""
import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import record_criterion
from oracles import brute_force_posteriors, local_vs_exact_divergence
from seqcrf.chain import forward_backward, transition_counts
from seqcrf.ctc import ctc_error_table, ctc_forward_backward
from seqcrf.features import (
    Checkpoint,
    FeatureConfig,
    HiddenStateMap,
    ModelParams,
)
from seqcrf.ldcrf import ldcrf_frame_objective
from seqcrf.seqdata import (
    Dataset,
    GeneratorConfig,
    Sequence,
    collapse,
    generate_synthetic,
    make_folds,
    roc_curve,
)
from seqcrf.trainer import (
    TrainConfig,
    evaluate,
    gradient_check_suite,
    train,
)


@contextmanager
def criterion(number, description):
    """Record the verdict for the summary scorecard, pass or fail."""
    info = {"detail": "", "extra": ()}
    try:
        yield info
    except BaseException:
        record_criterion(number, description, False, info["detail"], info["extra"])
        raise
    record_criterion(number, description, True, info["detail"], info["extra"])


# ---------------------------------------------------------------------------
# 1. chain inference against enumeration
# ---------------------------------------------------------------------------


def test_criterion_01_chain_inference_matches_enumeration():
    with criterion(1, "chain posteriors match path enumeration (50 runs, tol 1e-10)") as info:
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(50):
            t = int(rng.integers(1, 7))
            h = int(rng.integers(1, 5))
            scores = rng.uniform(-2, 2, size=(t, h))
            trans = rng.uniform(-2, 2, size=(h, h))
            fast = forward_backward(scores, trans)
            log_z, node, edge = brute_force_posteriors(scores, trans)
            counts = transition_counts(fast, trans)
            worst = max(
                worst,
                float(np.max(np.abs(fast.node_marginals - node))),
                abs(fast.log_z - log_z),
                float(np.max(np.abs(counts - edge.sum(axis=0)))),
            )
        elapsed = time.perf_counter() - start
        info["detail"] = f"max deviation {worst:.3e}, {elapsed:.2f}s"
        assert worst < 1e-10
        assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. restricted likelihood: exactness and completeness
# ---------------------------------------------------------------------------


def _enumerate_label_log_lik(scores, trans, owner, labels):
    t, h = scores.shape
    num = -math.inf
    den = -math.inf
    for path in itertools.product(range(h), repeat=t):
        w = sum(scores[j, s] for j, s in enumerate(path))
        w += sum(trans[a, b] for a, b in zip(path, path[1:]))
        den = np.logaddexp(den, w)
        if all(owner[s] == labels[j] for j, s in enumerate(path)):
            num = np.logaddexp(num, w)
    return float(num - den)


def test_criterion_02_sequence_likelihood_exact_and_complete():
    with criterion(2, "label-sequence likelihood exact (tol 1e-10) and sums to 1") as info:
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(50):
            labels = int(rng.integers(2, 4))
            h = int(rng.integers(1, 3))
            t = int(rng.integers(1, 6))
            d = int(rng.integers(1, 4))
            hidden_map = HiddenStateMap(labels, h)
            config = FeatureConfig(input_dim=d, window=0)
            params = ModelParams.random_init(
                hidden_map.num_states, config.obs_dim, seed=int(rng.integers(1 << 20)),
                scale=0.8,
            )
            frame_labels = [int(a) for a in rng.integers(0, labels, size=t)]
            seq = Sequence(id="s", frames=rng.normal(size=(t, d)),
                           frame_labels=frame_labels)
            got = -ldcrf_frame_objective([seq], params, hidden_map, config)[0]
            scores = params.state_weights @ np.concatenate(
                [seq.frames, np.ones((t, 1))], axis=1).T
            expect = _enumerate_label_log_lik(
                scores.T, params.trans_weights, hidden_map.state_owner(), frame_labels
            )
            worst = max(worst, abs(got - expect))

        worst_total = 0.0
        for labels, h, t in ((2, 2, 5), (3, 1, 4), (3, 2, 3)):
            hidden_map = HiddenStateMap(labels, h)
            config = FeatureConfig(input_dim=2, window=0)
            params = ModelParams.random_init(
                hidden_map.num_states, config.obs_dim, seed=labels * 7 + h, scale=0.6
            )
            frames = rng.normal(size=(t, 2))
            total = 0.0
            for labeling in itertools.product(range(labels), repeat=t):
                seq = Sequence(id="s", frames=frames, frame_labels=list(labeling))
                total += math.exp(
                    -ldcrf_frame_objective([seq], params, hidden_map, config)[0]
                )
            worst_total = max(worst_total, abs(total - 1.0))
        info["detail"] = f"max lik error {worst:.3e}, completeness gap {worst_total:.3e}"
        assert worst < 1e-10
        assert worst_total < 1e-8


# ---------------------------------------------------------------------------
# 3. alignment probability: exactness and distribution
# ---------------------------------------------------------------------------


def _brute_force_alignment(q, z, blank):
    t, num = q.shape
    total = 0.0
    for path in itertools.product(range(num), repeat=t):
        if collapse(path, blank) == list(z):
            total += float(np.prod([q[j, a] for j, a in enumerate(path)]))
    return total


def test_criterion_03_alignment_probability_exact_and_normalized():
    with criterion(3, "alignment probability exact (tol 1e-10) and sums to 1 over targets") as info:
        rng = np.random.default_rng(303)
        worst = 0.0
        for _ in range(50):
            real = int(rng.integers(1, 4))
            t = int(rng.integers(1, 7))
            blank = real
            q = rng.uniform(0.05, 1.0, size=(t, real + 1))
            q /= q.sum(axis=1, keepdims=True)
            m = int(rng.integers(0, min(t, 3) + 1))
            z = [int(a) for a in rng.integers(0, real, size=m)]
            expect = _brute_force_alignment(q, z, blank)
            if expect == 0.0:
                continue  # infeasible target; exactness is covered elsewhere
            got = math.exp(ctc_forward_backward(q, z, blank).log_prob)
            worst = max(worst, abs(got - expect))

        worst_total = 0.0
        for t in range(1, 6):
            q = rng.uniform(0.05, 1.0, size=(t, 3))  # two real labels + blank
            q /= q.sum(axis=1, keepdims=True)
            total = 0.0
            for m in range(0, t + 1):
                for z in itertools.product(range(2), repeat=m):
                    table = None
                    try:
                        table = ctc_forward_backward(q, list(z), blank_id=2)
                    except ValueError:
                        continue
                    if np.isfinite(table.log_prob):
                        total += math.exp(table.log_prob)
            worst_total = max(worst_total, abs(total - 1.0))
        info["detail"] = f"max prob error {worst:.3e}, distribution gap {worst_total:.3e}"
        assert worst < 1e-10
        assert worst_total < 1e-8


# ---------------------------------------------------------------------------
# 4. composite gradient against finite differences
# ---------------------------------------------------------------------------


def test_criterion_04_composite_gradient_matches_finite_differences():
    with criterion(4, "composite gradient matches finite differences (100 runs, tol 1e-5)") as info:
        start = time.perf_counter()
        worst = gradient_check_suite(trials=100, seed=404, step=1e-5)
        elapsed = time.perf_counter() - start
        info["detail"] = f"max relative error {worst:.3e}, {elapsed:.1f}s"
        assert worst < 1e-5
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. per-frame gradient shortcut: agreement and measured divergence
# ---------------------------------------------------------------------------


def test_criterion_05_local_gradient_agreement_and_divergence_table():
    with criterion(5, "local grad equals exact at zero transitions (tol 1e-8); "
                      "divergence reported") as info:
        frozen = local_vs_exact_divergence(trials=20, seed=505, zero_transitions=True)
        agree = max(r["max_abs_diff"] for r in frozen)

        free = local_vs_exact_divergence(trials=20, seed=505, transition_scale=1.0)
        lines = ["trial  frames  states  max_abs_diff  max_rel_diff"]
        for r in free:
            lines.append(
                f"{r['trial']:5d}  {r['frames']:6d}  {r['hidden_states']:6d}"
                f"  {r['max_abs_diff']:12.3e}  {r['max_rel_diff']:12.3e}"
            )
        spread = [r["max_abs_diff"] for r in free]
        lines.append(
            f"random transitions in [-1, 1]: median {float(np.median(spread)):.3e}, "
            f"max {max(spread):.3e} (documented, no threshold)"
        )
        info["detail"] = f"zero-transition agreement {agree:.3e}"
        info["extra"] = tuple(lines)
        assert agree < 1e-8


# ---------------------------------------------------------------------------
# 6. error-table identity
# ---------------------------------------------------------------------------


def test_criterion_06_error_table_unit_identity():
    with criterion(6, "sum_a q*e = 1 per frame (50 runs, tol 1e-8)") as info:
        rng = np.random.default_rng(606)
        worst = 0.0
        for _ in range(50):
            real = int(rng.integers(1, 4))
            t = int(rng.integers(1, 7))
            q = rng.uniform(0.05, 1.0, size=(t, real + 1))
            q /= q.sum(axis=1, keepdims=True)
            while True:
                m = int(rng.integers(1, min(t, 3) + 1))
                z = [int(a) for a in rng.integers(0, real, size=m)]
                try:
                    tables = ctc_forward_backward(q, z, blank_id=real)
                except ValueError:
                    continue
                if np.isfinite(tables.log_prob):
                    break
            err = ctc_error_table(tables, q)
            sums = np.sum(q * err, axis=1)
            worst = max(worst, float(np.max(np.abs(sums - 1.0))))
        info["detail"] = f"max identity gap {worst:.3e}"
        assert worst < 1e-8


# ---------------------------------------------------------------------------
# 7. end-to-end unsegmented learning
# ---------------------------------------------------------------------------


def test_criterion_07_unsegmented_training_learns_held_out_labels():
    with criterion(7, "unsegmented training reaches 85% held-out frame accuracy; "
                      "untrained sits at chance") as info:
        start = time.perf_counter()
        gen = GeneratorConfig(
            classes=6, dim=4, num_sequences=150,
            seg_len_range=(8, 16), segments_range=(3, 5),
            noise=0.3, gap_len_range=(2, 5),
        )
        full = generate_synthetic(gen, seed=7)
        train_set = Dataset(label_set=full.label_set,
                            sequences=full.sequences[:120], meta=dict(full.meta))
        held_out = Dataset(label_set=full.label_set,
                           sequences=full.sequences[120:], meta=dict(full.meta))

        # Best recipe found in calibration: a wide init makes the starting
        # posteriors follow the observations instead of the blank prior, and
        # tiny batches keep the updates noisy enough to delay the collapse
        # into blank-heavy alignments.  See README for the discussion.
        config = TrainConfig(
            mode="unsegmented", hidden_per_label=2, window=1,
            learning_rate=0.015, batch_size=2, epochs=60,
            init_scale=1.0, seed=0,
        )
        feats = FeatureConfig(input_dim=4, window=config.window)
        untrained = Checkpoint(
            full.label_set,
            HiddenStateMap(full.label_set.num_labels, config.hidden_per_label),
            feats,
            ModelParams.random_init(
                full.label_set.num_labels * config.hidden_per_label,
                feats.obs_dim, seed=0, scale=0.1,
            ),
        )
        chance = evaluate(held_out, untrained).frame_accuracy

        checkpoint, _ = train(train_set, config)
        accuracy = evaluate(held_out, checkpoint).frame_accuracy
        elapsed = time.perf_counter() - start
        info["detail"] = (f"held-out {accuracy:.1f}% (chance {chance:.1f}%), "
                          f"{elapsed:.0f}s")
        if accuracy < 85.0:
            info["extra"] = (
                "best of ~35 calibration configs; from-scratch runs settle in "
                "blank-heavy alignments whose training loss undercuts the "
                "fully-supervised solution, so decode accuracy plateaus near 80%",
            )
        assert abs(chance - 100.0 / 6.0) < 5.0
        assert accuracy >= 85.0
        assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 8. ordering of the training configurations
# ---------------------------------------------------------------------------


def test_criterion_08_configuration_ordering_over_folds_and_seeds():
    with criterion(8, "5-fold ordering: two-stage >= unsegmented - 1.0 and "
                      "latent h=2 >= h=1 chain - 1.0, on every seed") as info:
        gen = GeneratorConfig(
            classes=6, dim=4, num_sequences=50,
            seg_len_range=(5, 9), segments_range=(3, 4),
            noise=0.3, gap_len_range=(2, 4),
        )
        dataset = generate_synthetic(gen, seed=21)
        epochs = 10  # one matched budget for all four configurations
        setups = {
            "unsegmented": dict(mode="unsegmented", hidden_per_label=2),
            "two_stage": dict(mode="pretrain_finetune", hidden_per_label=2),
            "latent_h2": dict(mode="frame_wise", hidden_per_label=2),
            "chain_h1": dict(mode="frame_wise", hidden_per_label=1),
        }
        means: dict[str, list[float]] = {name: [] for name in setups}
        for seed in (0, 1, 2):
            plan = make_folds(dataset, k=5, seed=seed)
            for name, overrides in setups.items():
                fold_accs = []
                for fold in range(5):
                    fold_train, fold_test = plan.split(dataset, fold)
                    checkpoint, _ = train(
                        fold_train, TrainConfig(epochs=epochs, seed=seed, **overrides)
                    )
                    fold_accs.append(evaluate(fold_test, checkpoint).frame_accuracy)
                means[name].append(float(np.mean(fold_accs)))

        pooled = {name: float(np.mean(vals)) for name, vals in means.items()}
        info["detail"] = ", ".join(
            f"{name} {pooled[name]:.1f}%" for name in
            ("latent_h2", "two_stage", "chain_h1", "unsegmented")
        )
        info["extra"] = tuple(
            f"seed {seed}: " + ", ".join(
                f"{name} {means[name][i]:.1f}" for name in setups
            )
            for i, seed in enumerate((0, 1, 2))
        )
        for i in range(3):
            assert means["two_stage"][i] >= means["unsegmented"][i] - 1.0
            assert means["latent_h2"][i] >= means["chain_h1"][i] - 1.0


# ---------------------------------------------------------------------------
# 9. bitwise determinism
# ---------------------------------------------------------------------------


def test_criterion_09_training_is_bitwise_deterministic():
    with criterion(9, "fixed seed gives bitwise-identical checkpoints and reports") as info:
        config = GeneratorConfig(classes=3, dim=2, num_sequences=10,
                                 seg_len_range=(4, 8), segments_range=(2, 3),
                                 noise=0.25)
        dataset = generate_synthetic(config, seed=909)
        train_config = TrainConfig(epochs=3, seed=11)
        artifacts = []
        for _ in range(2):
            checkpoint, report = train(dataset, train_config)
            metrics = evaluate(dataset, checkpoint)
            artifacts.append(
                (checkpoint.to_json(), report.to_json(), metrics.to_json())
            )
        identical = artifacts[0] == artifacts[1]
        info["detail"] = "checkpoint, train report and metrics identical across runs"
        assert identical


# ---------------------------------------------------------------------------
# 10. ROC extremes
# ---------------------------------------------------------------------------


def test_criterion_10_roc_extremes_are_exact():
    with criterion(10, "ROC AUC exactly 1.0 for a perfect scorer, 0.0 inverted") as info:
        rng = np.random.default_rng(1010)
        truth = [int(a) for a in rng.integers(0, 2, size=200)]
        truth[0], truth[1] = 0, 1  # both classes present regardless of draw
        perfect = [float(t) + 0.001 * float(v) for t, v in zip(truth, rng.random(200))]
        _, auc_perfect = roc_curve(perfect, truth)
        inverted = [-s for s in perfect]
        _, auc_inverted = roc_curve(inverted, truth)
        info["detail"] = f"perfect {auc_perfect}, inverted {auc_inverted}"
        assert auc_perfect == 1.0
        assert auc_inverted == 0.0
