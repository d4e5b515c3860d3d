"""Composite loss, SGD loop, two-stage training, evaluation, gradient checks."""
import logging
import math

import numpy as np
import pytest

import seqcrf.trainer as trainer_mod
from oracles import local_vs_exact_divergence
from seqcrf.ctc import ctc_forward_backward
from seqcrf.features import (
    Checkpoint,
    FeatureConfig,
    HiddenStateMap,
    ModelParams,
)
from seqcrf.ldcrf import label_marginals
from seqcrf.seqdata import (
    Dataset,
    DatasetFormatError,
    GeneratorConfig,
    LabelSet,
    Sequence,
    generate_synthetic,
    make_folds,
)
from seqcrf.trainer import (
    EmptyBatchError,
    EvalReport,
    TrainConfig,
    TrainingDivergedError,
    ctc_ldcrf_loss_and_grad,
    evaluate,
    gradient_check,
    gradient_check_suite,
    train,
)


def small_gen(classes=3, n=12, noise=0.0, seed=1, **kw):
    config = GeneratorConfig(
        classes=classes, dim=2, num_sequences=n, noise=noise,
        seg_len_range=kw.pop("seg_len_range", (4, 7)),
        segments_range=kw.pop("segments_range", (2, 3)),
        **kw,
    )
    return generate_synthetic(config, seed)


class TestCompositeLoss:
    def test_blank_universe_reduces_to_regularizer(self):
        # one label that IS the blank, empty target: every path is
        # consistent, the alignment probability is exactly 1, and the
        # data term contributes nothing to loss or gradient
        rng = np.random.default_rng(0)
        hidden_map = HiddenStateMap(1, 3)
        config = FeatureConfig(input_dim=2, window=0)
        params = ModelParams.random_init(3, config.obs_dim, seed=4, scale=0.7)
        seq = Sequence(id="s", frames=rng.normal(size=(4, 2)), label_seq=[])
        lam = 0.05
        for mode in ("exact", "local"):
            loss, grad = ctc_ldcrf_loss_and_grad(
                [seq], params, hidden_map, config, blank_id=0, grad_mode=mode, l2=lam
            )
            theta = params.flatten()
            assert loss == pytest.approx(lam * float(theta @ theta), abs=1e-12)
            np.testing.assert_allclose(grad, 2 * lam * theta, atol=1e-12)

    def test_loss_is_negative_target_log_probability(self):
        rng = np.random.default_rng(1)
        hidden_map = HiddenStateMap(2, 2)
        config = FeatureConfig(input_dim=2, window=1)
        params = ModelParams.random_init(4, config.obs_dim, seed=2, scale=0.4)
        seq = Sequence(id="s", frames=rng.normal(size=(5, 2)), label_seq=[0])
        q = label_marginals(seq, params, hidden_map, config)
        expect = -ctc_forward_backward(q, [0], blank_id=1).log_prob
        loss, _ = ctc_ldcrf_loss_and_grad([seq], params, hidden_map, config, blank_id=1)
        assert loss == pytest.approx(expect, abs=1e-12)

    def test_batch_sums_sequence_losses(self):
        rng = np.random.default_rng(2)
        hidden_map = HiddenStateMap(2, 2)
        config = FeatureConfig(input_dim=2, window=0)
        params = ModelParams.random_init(4, config.obs_dim, seed=5, scale=0.4)
        seqs = [
            Sequence(id=f"s{i}", frames=rng.normal(size=(4, 2)), label_seq=[0])
            for i in range(3)
        ]
        total, _ = ctc_ldcrf_loss_and_grad(seqs, params, hidden_map, config, blank_id=1)
        singles = sum(
            ctc_ldcrf_loss_and_grad([s], params, hidden_map, config, blank_id=1)[0]
            for s in seqs
        )
        assert total == pytest.approx(singles, abs=1e-10)

    def test_infeasible_sequence_skipped_with_warning(self, caplog):
        rng = np.random.default_rng(3)
        hidden_map = HiddenStateMap(2, 1)
        config = FeatureConfig(input_dim=2, window=0)
        params = ModelParams.random_init(2, config.obs_dim, seed=0)
        good = Sequence(id="good", frames=rng.normal(size=(3, 2)), label_seq=[0])
        # [0, 0] needs three frames (blank between repeats); two is too few
        bad = Sequence(id="bad", frames=rng.normal(size=(2, 2)), label_seq=[0, 0])
        with caplog.at_level(logging.WARNING):
            loss_pair, _ = ctc_ldcrf_loss_and_grad(
                [good, bad], params, hidden_map, config, blank_id=1
            )
        assert "bad" in caplog.text
        loss_solo, _ = ctc_ldcrf_loss_and_grad([good], params, hidden_map, config, blank_id=1)
        assert loss_pair == pytest.approx(loss_solo)

    def test_zero_mass_sequence_skipped_in_batch_order(self, caplog, monkeypatch):
        rng = np.random.default_rng(6)
        hidden_map = HiddenStateMap(3, 2)
        config = FeatureConfig(input_dim=2, window=0)
        params = ModelParams.random_init(6, config.obs_dim, seed=3, scale=0.5)
        good = Sequence(id="good", frames=rng.normal(size=(6, 2)), label_seq=[0, 1])
        no_mass = Sequence(id="no_mass", frames=rng.normal(size=(5, 2)), label_seq=[1])
        bad = Sequence(id="bad", frames=rng.normal(size=(2, 2)), label_seq=[0, 0])
        real = trainer_mod.frame_label_marginals

        def zero_target_column(post, hmap):
            q = real(post, hmap)
            if len(q) == no_mass.num_frames:
                q[:, 1] = 0.0  # no alignment of [1] keeps any mass
            return q

        monkeypatch.setattr(trainer_mod, "frame_label_marginals", zero_target_column)
        with caplog.at_level(logging.WARNING, logger="seqcrf.trainer"):
            loss, grad = ctc_ldcrf_loss_and_grad(
                [good, no_mass, bad], params, hidden_map, config, blank_id=2, l2=1e-3
            )
        assert [r.getMessage() for r in caplog.records] == [
            "sequence no_mass skipped: alignment mass underflowed to zero",
            "sequence bad skipped: target of length 2 needs at least 3 frames, have 2",
        ]
        monkeypatch.undo()
        loss_without, grad_without = ctc_ldcrf_loss_and_grad(
            [good, bad], params, hidden_map, config, blank_id=2, l2=1e-3
        )
        assert loss == loss_without
        assert np.array_equal(grad, grad_without)

    def test_bad_target_raises_in_batch_order(self, caplog):
        rng = np.random.default_rng(7)
        hidden_map = HiddenStateMap(2, 1)
        config = FeatureConfig(input_dim=2, window=0)
        params = ModelParams.random_init(2, config.obs_dim, seed=0)
        short = Sequence(id="short", frames=rng.normal(size=(2, 2)), label_seq=[0, 0])
        blank = Sequence(id="blank", frames=rng.normal(size=(4, 2)), label_seq=[1])
        late = Sequence(id="late", frames=rng.normal(size=(2, 2)), label_seq=[0, 0])
        with caplog.at_level(logging.WARNING, logger="seqcrf.trainer"):
            with pytest.raises(ValueError, match="may not contain the blank"):
                ctc_ldcrf_loss_and_grad([short, blank, late], params, hidden_map, config,
                                        blank_id=1)
        # the skip before the bad target is logged, the one after it is not
        assert [r.getMessage() for r in caplog.records] == [
            "sequence short skipped: target of length 2 needs at least 3 frames, have 2",
        ]

    def test_all_skipped_raises_empty_batch(self):
        bad = Sequence(id="bad", frames=np.zeros((2, 2)), label_seq=[0, 0])
        hidden_map = HiddenStateMap(2, 1)
        config = FeatureConfig(input_dim=2, window=0)
        params = ModelParams(np.zeros((2, config.obs_dim)), np.zeros((2, 2)))
        with pytest.raises(EmptyBatchError):
            ctc_ldcrf_loss_and_grad([bad], params, hidden_map, config, blank_id=1)

    def test_missing_label_seq_and_bad_mode_raise(self):
        seq = Sequence(id="s", frames=np.zeros((2, 2)))
        hidden_map = HiddenStateMap(2, 1)
        config = FeatureConfig(input_dim=2, window=0)
        params = ModelParams(np.zeros((2, config.obs_dim)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="label_seq"):
            ctc_ldcrf_loss_and_grad([seq], params, hidden_map, config, blank_id=1)
        seq2 = Sequence(id="s", frames=np.zeros((2, 2)), label_seq=[0])
        with pytest.raises(ValueError, match="grad_mode"):
            ctc_ldcrf_loss_and_grad(
                [seq2], params, hidden_map, config, blank_id=1, grad_mode="approx"
            )

    def test_marginals_off_unit_mass_end_the_batch(self):
        # weights near 1e12 round the chain's messages so coarsely that the
        # marginals stop summing to one; the lattice would still return a
        # finite (here negative) loss from them
        rng = np.random.default_rng(1)
        hidden_map = HiddenStateMap(2, 3)
        config = FeatureConfig(input_dim=2, window=0)
        state = rng.normal(size=(6, config.obs_dim)) * 1e12
        state[:3, -1] += 1e13  # label 0 wins every frame, so [0] stays alignable
        params = ModelParams(state, rng.normal(size=(6, 6)) * 1e12)
        seq = Sequence(id="huge", frames=rng.normal(size=(30, 2)), label_seq=[0])
        with pytest.raises(FloatingPointError, match="do not sum to one"):
            ctc_ldcrf_loss_and_grad([seq], params, hidden_map, config, blank_id=1)


class TestGradientChecks:
    def test_exact_mode_matches_finite_differences(self):
        worst = gradient_check_suite(trials=15, seed=3)
        assert worst < 1e-5

    def test_single_instance_check_is_tight(self):
        rng = np.random.default_rng(4)
        hidden_map = HiddenStateMap(2, 2)
        config = FeatureConfig(input_dim=3, window=1)
        params = ModelParams.random_init(4, config.obs_dim, seed=6, scale=0.5)
        seq = Sequence(id="s", frames=rng.normal(size=(5, 3)), label_seq=[0, 0])
        err = gradient_check(seq, params, hidden_map, config, blank_id=1, l2=1e-3)
        assert err < 1e-6

    def test_one_step_decreases_loss(self):
        # line-search sanity at two small learning rates
        rng = np.random.default_rng(5)
        hidden_map = HiddenStateMap(3, 2)
        config = FeatureConfig(input_dim=2, window=1)
        params = ModelParams.random_init(6, config.obs_dim, seed=7, scale=0.5)
        seq = Sequence(id="s", frames=rng.normal(size=(6, 2)), label_seq=[0, 1])
        loss0, grad = ctc_ldcrf_loss_and_grad(
            [seq], params, hidden_map, config, blank_id=2, l2=1e-3
        )
        for eta in (1e-4, 1e-5):
            stepped = ModelParams.unflatten(
                params.flatten() - eta * grad, 6, config.obs_dim
            )
            loss1, _ = ctc_ldcrf_loss_and_grad(
                [seq], stepped, hidden_map, config, blank_id=2, l2=1e-3
            )
            assert loss1 < loss0

    def test_local_equals_exact_without_transitions(self):
        rows = local_vs_exact_divergence(trials=12, seed=6, zero_transitions=True)
        assert len(rows) == 12
        assert max(r["max_abs_diff"] for r in rows) < 1e-8

    def test_local_differs_with_transitions(self):
        rows = local_vs_exact_divergence(trials=12, seed=6, transition_scale=1.0)
        assert max(r["max_abs_diff"] for r in rows) > 1e-4


class TestLabelPrior:
    def test_gradient_matches_finite_differences_at_fixed_prior(self):
        worst = gradient_check_suite(trials=40, seed=7, label_prior=True)
        assert worst < 1e-6

    def test_local_equals_exact_without_transitions(self):
        rows = local_vs_exact_divergence(
            trials=12, seed=8, zero_transitions=True, label_prior=True
        )
        assert max(r["max_abs_diff"] for r in rows) < 1e-8

    def test_loss_is_log_probability_of_prior_normalized_marginals(self):
        rng = np.random.default_rng(9)
        hidden_map = HiddenStateMap(3, 2)
        config = FeatureConfig(input_dim=2, window=1)
        params = ModelParams.random_init(6, config.obs_dim, seed=3, scale=0.8)
        seqs = [
            Sequence(id="a", frames=rng.normal(size=(5, 2)), label_seq=[0, 1]),
            Sequence(id="b", frames=rng.normal(size=(7, 2)), label_seq=[1]),
        ]
        qs = [label_marginals(s, params, hidden_map, config) for s in seqs]
        prior = np.concatenate(qs).mean(axis=0)  # every frame, blank included
        expect = -sum(ctc_forward_backward(q / prior, s.label_seq, blank_id=2).log_prob
                      for q, s in zip(qs, seqs))
        loss, _ = ctc_ldcrf_loss_and_grad(
            seqs, params, hidden_map, config, blank_id=2, label_prior=True
        )
        assert loss == pytest.approx(expect, abs=1e-10)

    def test_label_with_zero_mass_on_every_frame_is_floored(self):
        # label 0's only state gets a score far below exp's range, so its
        # marginal is exactly 0 on every frame; an unfloored prior would
        # turn that column into 0 * (1/0) = nan
        rng = np.random.default_rng(10)
        hidden_map = HiddenStateMap(3, 1)
        config = FeatureConfig(input_dim=2, window=0)
        weights = rng.uniform(-0.5, 0.5, size=(3, config.obs_dim))
        weights[0, -1] = -1e4  # bias column
        params = ModelParams(weights, rng.uniform(-0.5, 0.5, size=(3, 3)))
        seqs = [
            Sequence(id=f"s{i}", frames=rng.normal(size=(4, 2)), label_seq=[1])
            for i in range(2)
        ]
        assert all(np.all(label_marginals(s, params, hidden_map, config)[:, 0] == 0.0)
                   for s in seqs)
        loss, grad = ctc_ldcrf_loss_and_grad(
            seqs, params, hidden_map, config, blank_id=2, label_prior=True
        )
        assert math.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_unsegmented_training_uses_the_prior(self, monkeypatch):
        seen = []
        real = trainer_mod.ctc_ldcrf_loss_and_grad

        def spy(*args, **kwargs):
            seen.append(kwargs.get("label_prior"))
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "ctc_ldcrf_loss_and_grad", spy)
        train(small_gen(n=4), TrainConfig(epochs=1, batch_size=2, seed=0))
        assert seen == [True, True]


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(mode="online"),
            dict(grad_mode="eq"),
            dict(learning_rate=0.0),
            dict(momentum=1.0),
            dict(epochs=-1),
            dict(batch_size=0),
            dict(l2=-1e-4),
            dict(window=-1),
            dict(hidden_per_label=0),
            dict(pretrain_epochs=31),
            dict(init_scale=-0.1),
            dict(learning_rate=math.nan),
            dict(learning_rate=math.inf),
            dict(l2=math.nan),
            dict(l2=math.inf),
            dict(init_scale=math.nan),
            dict(init_scale=math.inf),
            dict(init_scale=1e308),  # uniform's range 2 * init_scale overflows
            dict(mode="frame_wise", grad_mode="local"),  # frame_wise has no local mode
            dict(epochs=1.5),
            dict(batch_size=2.5),
            dict(hidden_per_label=1.5),
            dict(window=0.5),
            dict(mode="pretrain_finetune", pretrain_epochs=0.5),
            dict(learning_rate="0.1"),
            dict(momentum=None),
            dict(epochs=True),  # a bool is an int to Python, not to the config
            dict(init_scale=10**308),  # an int whose double overflows as a float
            dict(learning_rate=10**400),  # ints beyond float64
            dict(l2=10**400),
            dict(init_scale=10**400),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    def test_float_fields_take_ints_and_numpy_floats(self):
        config = TrainConfig(learning_rate=1, momentum=np.float64(0.5))
        assert config.learning_rate == 1 and config.momentum == 0.5

    def test_round_trip_and_unknown_keys(self):
        config = TrainConfig(learning_rate=0.5, epochs=3)
        assert TrainConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ValueError, match="unknown config keys"):
            TrainConfig.from_dict({"learning_rat": 0.5})

    def test_stage_epochs_split(self):
        assert TrainConfig(epochs=30).stage_epochs() == (15, 15)
        assert TrainConfig(epochs=7).stage_epochs() == (3, 4)
        assert TrainConfig(epochs=10, pretrain_epochs=10).stage_epochs() == (10, 0)
        assert TrainConfig(epochs=10, pretrain_epochs=0).stage_epochs() == (0, 10)


class TestTrainLoop:
    def test_epochs_zero_returns_initialization(self):
        ds = small_gen()
        config = TrainConfig(epochs=0, seed=9)
        ck, report = train(ds, config)
        init = ModelParams.random_init(
            ck.hidden_map.num_states, ck.feature_config.obs_dim,
            seed=9, scale=config.init_scale,
        )
        np.testing.assert_array_equal(ck.params.flatten(), init.flatten())
        assert report.epoch_losses == []
        assert report.epochs_completed == 0

    def test_deterministic_for_fixed_seed(self):
        ds = small_gen(noise=0.2)
        config = TrainConfig(epochs=3, seed=2)
        ck1, rep1 = train(ds, config)
        ck2, rep2 = train(ds, config)
        assert ck1.to_json() == ck2.to_json()
        assert rep1.to_json() == rep2.to_json()
        ck3, _ = train(ds, TrainConfig(epochs=3, seed=3))
        assert ck3.to_json() != ck1.to_json()

    def test_noiseless_unsegmented_loss_strictly_decreases(self):
        # full-batch on a tiny noiseless set keeps momentum from
        # overshooting, so the descent property is clean for 10 epochs
        ds = small_gen(classes=2, n=8, noise=0.0, seed=5)
        _, report = train(ds, TrainConfig(epochs=10, seed=0))
        losses = report.epoch_losses
        assert len(losses) == 10
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_frame_wise_mode_requires_frame_labels(self):
        ds = small_gen()
        stripped = Dataset(
            label_set=ds.label_set,
            sequences=[
                Sequence(id=s.id, frames=s.frames, label_seq=s.label_seq)
                for s in ds.sequences
            ],
            meta=dict(ds.meta),
        )
        with pytest.raises(ValueError, match="frame_labels"):
            train(stripped, TrainConfig(mode="frame_wise", epochs=1))

    def test_divergence_raises_with_partial_report(self, monkeypatch):
        ds = small_gen()
        calls = {"n": 0}
        real = trainer_mod.ctc_ldcrf_loss_and_grad

        def poisoned(batch, params, *args, **kwargs):
            calls["n"] += 1
            loss, grad = real(batch, params, *args, **kwargs)
            if calls["n"] >= 3:
                return float("nan"), grad
            return loss, grad

        monkeypatch.setattr(trainer_mod, "ctc_ldcrf_loss_and_grad", poisoned)
        with pytest.raises(TrainingDivergedError) as exc_info:
            train(ds, TrainConfig(epochs=5, batch_size=4, seed=0))
        err = exc_info.value
        assert err.report is not None and err.report.diverged
        assert err.checkpoint is not None
        assert np.all(np.isfinite(err.checkpoint.params.flatten()))

    def test_epoch_with_every_batch_skipped_diverges(self, monkeypatch):
        def empty(*args, **kwargs):
            raise EmptyBatchError("nothing alignable")

        monkeypatch.setattr(trainer_mod, "ctc_ldcrf_loss_and_grad", empty)
        with pytest.raises(TrainingDivergedError) as exc_info:
            train(small_gen(n=4), TrainConfig(epochs=3, batch_size=2, seed=0))
        report = exc_info.value.report
        assert report.diverged
        assert report.epoch_losses == [] and report.epochs_completed == 0

    def test_infeasible_sequences_are_skipped_during_training(self, caplog):
        ds = small_gen(classes=2, n=6, seed=8)
        # too few frames for a repeated label: structurally unalignable.
        # Dataset validation rejects adjacent repeats, so the sequence is
        # added after it, as an in-memory caller could
        bad = Sequence(id="cramped", frames=np.zeros((2, 2)), label_seq=[0, 0])
        with_bad = Dataset(label_set=ds.label_set, sequences=list(ds.sequences),
                           meta=dict(ds.meta))
        with_bad.sequences.append(bad)
        with caplog.at_level(logging.WARNING):
            ck, report = train(with_bad, TrainConfig(epochs=2, seed=0))
        assert "cramped" in caplog.text
        assert report.epochs_completed == 2


class TestPretrainFinetune:
    def test_requires_segment_boundaries(self):
        ls = LabelSet.from_names(["a", "b"])
        seqs = [Sequence(id="s", frames=np.zeros((4, 2)),
                         frame_labels=[0, 0, 1, 1], label_seq=[0, 1])]
        ds = Dataset(label_set=ls, sequences=seqs)
        with pytest.raises(DatasetFormatError):
            train(ds, TrainConfig(mode="pretrain_finetune", epochs=2))

    def test_zero_finetune_equals_frame_wise_on_subsequences(self):
        from seqcrf.seqdata import extract_segment_subsequences

        ds = small_gen(noise=0.1, seed=6)
        config = TrainConfig(
            mode="pretrain_finetune", epochs=4, pretrain_epochs=4, seed=1
        )
        ck_two_stage, report = train(ds, config)
        pieces = extract_segment_subsequences(ds)
        ck_frame, _ = train(
            pieces,
            TrainConfig(mode="frame_wise", epochs=4, seed=1),
        )
        np.testing.assert_array_equal(
            ck_two_stage.params.flatten(), ck_frame.params.flatten()
        )
        assert report.pretrain_epochs == 4

    def test_deterministic_across_both_stages(self):
        ds = small_gen(noise=0.2, seed=9)
        config = TrainConfig(mode="pretrain_finetune", epochs=4, seed=7)
        ck1, rep1 = train(ds, config)
        ck2, rep2 = train(ds, config)
        assert ck1.to_json() == ck2.to_json()
        assert rep1.to_json() == rep2.to_json()

    def test_loss_trace_covers_both_stages(self):
        ds = small_gen(seed=2)
        config = TrainConfig(mode="pretrain_finetune", epochs=5, pretrain_epochs=2, seed=0)
        _, report = train(ds, config)
        assert report.epochs_completed == 5
        assert len(report.epoch_losses) == 5


class TestEvaluate:
    def test_memorized_noiseless_set_scores_perfectly(self):
        ds = small_gen(classes=2, n=6, noise=0.0, seed=5)
        ck, _ = train(ds, TrainConfig(mode="frame_wise", epochs=25, seed=0))
        report = evaluate(ds, ck)
        assert report.frame_accuracy == 100.0
        assert report.num_sequences == 6
        confusion = np.asarray(report.confusion)
        assert confusion.sum() == report.num_frames
        np.testing.assert_array_equal(
            confusion, np.diag(np.diag(confusion))
        )

    def test_untrained_model_sits_near_chance(self):
        ds = small_gen(classes=4, n=30, noise=0.3, seed=10,
                       seg_len_range=(6, 10), segments_range=(3, 4))
        hidden_map = HiddenStateMap(ds.label_set.num_labels, 2)
        config = FeatureConfig(input_dim=2, window=1)
        ck = Checkpoint(
            ds.label_set, hidden_map, config,
            ModelParams.random_init(hidden_map.num_states, config.obs_dim, seed=0),
        )
        report = evaluate(ds, ck)
        assert abs(report.frame_accuracy - 25.0) < 12.0

    def test_fold_report_structure(self):
        ds = small_gen(n=10, seed=11)
        ck, _ = train(ds, TrainConfig(epochs=1, seed=0))
        plan = make_folds(ds, k=5, seed=1)
        report = evaluate(ds, ck, fold_plan=plan)
        assert len(report.fold_accuracies) == 5
        assert report.fold_mean_accuracy == pytest.approx(
            float(np.mean(report.fold_accuracies))
        )

    def test_binary_labels_add_roc(self):
        ds = small_gen(classes=2, n=8, noise=0.1, seed=12)
        ck, _ = train(ds, TrainConfig(mode="frame_wise", epochs=10, seed=0))
        report = evaluate(ds, ck)
        assert report.roc_auc is not None
        assert 0.0 <= report.roc_auc <= 1.0
        assert report.roc_points[0] == [0.0, 0.0]
        assert report.roc_points[-1] == [1.0, 1.0]
        assert report.positive_label == ds.label_set.real_names[-1]

    def test_multiclass_has_no_roc_and_rejects_positive_label(self):
        ds = small_gen(classes=3, n=6, seed=13)
        ck, _ = train(ds, TrainConfig(epochs=1, seed=0))
        report = evaluate(ds, ck)
        assert report.roc_auc is None
        with pytest.raises(ValueError):
            evaluate(ds, ck, positive_label="class0")

    def test_label_set_mismatch_and_missing_truth(self):
        ds = small_gen(classes=2, n=4, seed=14)
        other = small_gen(classes=3, n=4, seed=14)
        ck, _ = train(ds, TrainConfig(epochs=1, seed=0))
        with pytest.raises(ValueError, match="label sets"):
            evaluate(other, ck)
        unlabeled = Dataset(
            label_set=ds.label_set,
            sequences=[Sequence(id="u", frames=np.zeros((3, 2)))],
            meta={},
        )
        with pytest.raises(ValueError, match="frame_labels"):
            evaluate(unlabeled, ck)

    def test_report_serialization_round_trips(self):
        ds = small_gen(n=6, seed=15)
        ck, _ = train(ds, TrainConfig(epochs=1, seed=0))
        report = evaluate(ds, ck)
        import json

        parsed = json.loads(report.to_json())
        assert parsed["frame_accuracy"] == report.frame_accuracy
        assert parsed["blank_policy"] == "previous"
