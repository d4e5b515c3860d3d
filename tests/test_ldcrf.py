"""Latent-block layer: label marginals, restricted likelihood, decoding."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import seqcrf.chain as chain_mod
import seqcrf.ldcrf as ldcrf_mod
from seqcrf.chain import forward_backward, masked_forward_backward, transition_counts
from seqcrf.features import FeatureConfig, HiddenStateMap, ModelParams, observation_matrix
from seqcrf.ldcrf import (
    decode_frames_viterbi,
    frame_label_marginals,
    label_marginals,
    ldcrf_frame_objective,
)
from seqcrf.seqdata import Sequence


def make_instance(rng, t, num_labels, h, d=3, window=0, scale=0.6):
    hidden_map = HiddenStateMap(num_labels, h)
    config = FeatureConfig(input_dim=d, window=window)
    params = ModelParams(
        state_weights=rng.uniform(-scale, scale, size=(hidden_map.num_states, config.obs_dim)),
        trans_weights=rng.uniform(-scale, scale, size=(hidden_map.num_states,) * 2),
    )
    labels = [int(a) for a in rng.integers(0, num_labels, size=t)]
    seq = Sequence(id="t", frames=rng.normal(size=(t, d)), frame_labels=labels)
    return seq, params, hidden_map, config


def label_log_lik(seq, params, hidden_map, config):
    """log P(frame labeling | x): minus the frame objective of one sequence at l2 = 0."""
    return -ldcrf_frame_objective([seq], params, hidden_map, config)[0]


def enumeration_log_lik(scores, trans, owner, labels):
    """log P(labeling) via explicit sums over hidden paths."""
    t, h = scores.shape

    def weight(path):
        total = sum(scores[j, s] for j, s in enumerate(path))
        total += sum(trans[a, b] for a, b in zip(path, path[1:]))
        return math.exp(total)

    num = 0.0
    den = 0.0
    for path in itertools.product(range(h), repeat=t):
        w = weight(path)
        den += w
        if all(owner[s] == labels[j] for j, s in enumerate(path)):
            num += w
    return math.log(num) - math.log(den)


def one_table_objective(batch, params, hidden_map, config, l2):
    """The frame objective from separate one-table passes, sequence by sequence."""
    trans = params.trans_weights
    loss = 0.0
    grad_state, grad_trans = np.zeros_like(params.state_weights), np.zeros_like(trans)
    for seq in batch:
        obs = observation_matrix(seq, config)
        scores = obs @ params.state_weights.T
        allowed = hidden_map.state_owner()[None, :] == np.array(seq.frame_labels)[:, None]
        free = forward_backward(scores, trans)
        restricted = masked_forward_backward(scores, trans, allowed)
        loss += free.log_z - restricted.log_z
        grad_state += (free.node_marginals - restricted.node_marginals).T @ obs
        grad_trans += transition_counts(free, trans) - transition_counts(restricted, trans)
    theta = params.flatten()
    loss += l2 * float(theta @ theta)
    return loss, np.concatenate([grad_state.ravel(), grad_trans.ravel()]) + 2 * l2 * theta


def assert_matches_one_table_passes(batch, params, hidden_map, config, grad_rtol=1e-11):
    """The stacked objective agrees with ``one_table_objective``: the loss within
    1e-12 relative, the gradient within grad_rtol * max(1, max |reference|)."""
    loss, grad = ldcrf_frame_objective(batch, params, hidden_map, config, l2=1e-3)
    ref_loss, ref_grad = one_table_objective(batch, params, hidden_map, config, l2=1e-3)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    scale = max(1.0, float(np.max(np.abs(ref_grad))))
    assert float(np.max(np.abs(grad - ref_grad))) <= grad_rtol * scale


class TestLabelMarginals:
    def test_rows_partition_unit_mass(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            seq, params, hidden_map, config = make_instance(
                rng, t=int(rng.integers(1, 7)), num_labels=3, h=int(rng.integers(1, 4))
            )
            q = label_marginals(seq, params, hidden_map, config)
            assert q.shape == (seq.num_frames, 3)
            np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)

    def test_block_sum_definition(self):
        rng = np.random.default_rng(51)
        hidden_map = HiddenStateMap(2, 3)
        scores = rng.normal(size=(4, 6))
        trans = rng.normal(size=(6, 6))
        post = forward_backward(scores, trans)
        q = frame_label_marginals(post, hidden_map)
        np.testing.assert_allclose(q[:, 0], post.node_marginals[:, :3].sum(axis=1), atol=1e-14)
        np.testing.assert_allclose(q[:, 1], post.node_marginals[:, 3:].sum(axis=1), atol=1e-14)

    def test_state_count_mismatch_raises(self):
        post = forward_backward(np.zeros((2, 4)), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            frame_label_marginals(post, HiddenStateMap(3, 2))


class TestSequenceLabelLikelihood:
    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(60)
        for _ in range(15):
            t = int(rng.integers(1, 6))
            num_labels = int(rng.integers(2, 4))
            h = int(rng.integers(1, 3))
            seq, params, hidden_map, config = make_instance(rng, t, num_labels, h)
            scores = (np.concatenate(
                [seq.frames, np.ones((t, 1))], axis=1) @ params.state_weights.T)
            expect = enumeration_log_lik(
                scores, params.trans_weights, hidden_map.state_owner(), seq.frame_labels
            )
            got = label_log_lik(seq, params, hidden_map, config)
            assert got == pytest.approx(expect, abs=1e-10)

    def test_labelings_form_a_distribution(self):
        rng = np.random.default_rng(61)
        for num_labels, h, t in ((2, 2, 4), (3, 1, 3), (3, 2, 3)):
            seq, params, hidden_map, config = make_instance(rng, t, num_labels, h)
            total = 0.0
            for labeling in itertools.product(range(num_labels), repeat=t):
                labeled = Sequence(id="x", frames=seq.frames, frame_labels=list(labeling))
                total += math.exp(
                    label_log_lik(labeled, params, hidden_map, config)
                )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_one_state_per_label_is_a_plain_crf(self):
        # with h=1 the hidden chain IS the label chain; compare against a
        # direct label-path enumeration of the same parameterization
        rng = np.random.default_rng(62)
        seq, params, hidden_map, config = make_instance(rng, t=5, num_labels=3, h=1)
        obs = np.concatenate([seq.frames, np.ones((5, 1))], axis=1)
        scores = obs @ params.state_weights.T

        def crf_log_lik(labels):
            num = sum(scores[j, y] for j, y in enumerate(labels))
            num += sum(params.trans_weights[a, b] for a, b in zip(labels, labels[1:]))
            den = -math.inf
            for path in itertools.product(range(3), repeat=5):
                s = sum(scores[j, y] for j, y in enumerate(path))
                s += sum(params.trans_weights[a, b] for a, b in zip(path, path[1:]))
                den = np.logaddexp(den, s)
            return num - den

        got = label_log_lik(seq, params, hidden_map, config)
        assert got == pytest.approx(crf_log_lik(seq.frame_labels), abs=1e-10)

    def test_requires_frame_labels(self):
        seq = Sequence(id="u", frames=np.zeros((2, 3)))
        hidden_map = HiddenStateMap(2, 1)
        config = FeatureConfig(input_dim=3, window=0)
        params = ModelParams(np.zeros((2, config.obs_dim)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            label_log_lik(seq, params, hidden_map, config)


class TestFrameObjective:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(70)
        step = 1e-6
        for _ in range(5):
            seq, params, hidden_map, config = make_instance(
                rng, t=int(rng.integers(2, 5)), num_labels=2, h=2
            )
            loss, grad = ldcrf_frame_objective([seq], params, hidden_map, config, l2=1e-3)
            theta = params.flatten()
            for k in range(theta.size):
                hi = theta.copy()
                hi[k] += step
                lo = theta.copy()
                lo[k] -= step
                f_hi, _ = ldcrf_frame_objective(
                    [seq],
                    ModelParams.unflatten(hi, hidden_map.num_states, config.obs_dim),
                    hidden_map, config, l2=1e-3,
                )
                f_lo, _ = ldcrf_frame_objective(
                    [seq],
                    ModelParams.unflatten(lo, hidden_map.num_states, config.obs_dim),
                    hidden_map, config, l2=1e-3,
                )
                fd = (f_hi - f_lo) / (2 * step)
                assert grad[k] == pytest.approx(fd, abs=2e-6)

    def test_batch_loss_is_additive(self):
        rng = np.random.default_rng(71)
        seq_a, params, hidden_map, config = make_instance(rng, 4, 2, 2)
        seq_b = Sequence(
            id="b",
            frames=rng.normal(size=(3, 3)),
            frame_labels=[int(a) for a in rng.integers(0, 2, size=3)],
        )
        loss_ab, grad_ab = ldcrf_frame_objective([seq_a, seq_b], params, hidden_map, config)
        loss_a, grad_a = ldcrf_frame_objective([seq_a], params, hidden_map, config)
        loss_b, grad_b = ldcrf_frame_objective([seq_b], params, hidden_map, config)
        assert loss_ab == pytest.approx(loss_a + loss_b, abs=1e-10)
        np.testing.assert_allclose(grad_ab, grad_a + grad_b, atol=1e-10)

    # the batch's lengths; the objective stacks them and must match one-table passes
    LENGTHS = (1, 4, 9, 2, 6, 3)

    def scaled_batch(self, rng, scale, num_labels=3, h=2, lengths=LENGTHS):
        """A batch and params whose state and transition weights are uniform in
        [-scale, scale]: node scores reach several times ``scale``."""
        _, params, hidden_map, config = make_instance(rng, 1, num_labels, h, scale=scale)
        batch = [Sequence(id=f"s{i}", frames=rng.normal(size=(t, 3)),
                          frame_labels=[int(a) for a in rng.integers(0, num_labels, size=t)])
                 for i, t in enumerate(lengths)]
        return batch, params, hidden_map, config

    @pytest.mark.parametrize("scale", [1.0, 10.0, 100.0])
    def test_matches_one_table_passes(self, scale):
        rng = np.random.default_rng(72)
        assert_matches_one_table_passes(*self.scaled_batch(rng, scale))

    def test_log_domain_fallback_table_matches(self, monkeypatch):
        # one sequence's frames scaled 300-fold: exactly one of its tables has
        # scaled messages that are not finite and is rerun in the log domain,
        # while the transitions (spread 567) keep the factored counts
        reruns = []
        log_messages = chain_mod._log_messages

        def spy(scores, trans):
            reruns.append(len(scores))
            return log_messages(scores, trans)

        monkeypatch.setattr(chain_mod, "_log_messages", spy)
        rng = np.random.default_rng(0)
        _, params, hidden_map, config = make_instance(rng, 1, 3, 2, scale=1.0)
        params = ModelParams(params.state_weights, rng.uniform(-300, 300, size=(6, 6)))
        batch = [Sequence(id=f"s{i}", frames=rng.normal(size=(t, 3)) * (300.0 if t == 9 else 1.0),
                          frame_labels=[int(a) for a in rng.integers(0, 3, size=t)])
                 for i, t in enumerate(self.LENGTHS)]
        assert np.ptp(params.trans_weights) <= 600.0
        ldcrf_frame_objective(batch, params, hidden_map, config)
        assert reruns == [9]
        assert_matches_one_table_passes(batch, params, hidden_map, config)

    def test_stacks_split_by_the_budget_match(self, monkeypatch):
        # a budget of 1,500 cells holds about 15 frames of this batch (H = 6 and
        # D = 4 count 13 H + 2 D + 16 cells a frame): the batch runs as several
        # stacks, each scanned on its own
        monkeypatch.setattr(chain_mod, "_STACK_CELLS", 1500)
        runs = []

        def counted(items, shape):
            for run in chain_mod.stacks(items, shape):
                runs.append(len(run))
                yield run

        monkeypatch.setattr(ldcrf_mod, "stacks", counted)
        rng = np.random.default_rng(73)
        assert_matches_one_table_passes(*self.scaled_batch(rng, 1.0))
        assert len(runs) > 1 and sum(runs) == len(self.LENGTHS) and max(runs) > 1

    @pytest.mark.parametrize("count", [24, 48])
    def test_budget_full_batches_peak_within_the_budget(self, count):
        # T = 48 with H = 14 and D = 13, the benchmark model's size: 24 sequences fill
        # one stack, 48 fill two; every array the objective makes counts, the
        # observations included, and a stack's arrays are gone when the next one runs
        rng = np.random.default_rng(75)
        hidden_map, config = HiddenStateMap(7, 2), FeatureConfig(input_dim=4, window=1)
        params = ModelParams.random_init(hidden_map.num_states, config.obs_dim, seed=0,
                                         scale=0.1)
        batch = [Sequence(id=f"s{i}", frames=rng.normal(size=(48, 4)),
                          frame_labels=[int(a) for a in rng.integers(0, 6, size=48)])
                 for i in range(count)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ldcrf_frame_objective(batch, params, hidden_map, config)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= chain_mod._STACK_CELLS * 8 + 64 * 1024

    def test_long_chains_with_wide_transitions_take_the_exp_form(self, monkeypatch):
        # T in the thousands, weights in [-500, 500]: the transitions spread over
        # more than 600, so every table's counts come from transition_counts;
        # the bound on the gradient is TestLongChains' bound on the marginals
        counted = []
        counts = ldcrf_mod.transition_counts
        monkeypatch.setattr(ldcrf_mod, "transition_counts",
                            lambda post, trans: counted.append(1) or counts(post, trans))
        rng = np.random.default_rng(14)
        batch, params, hidden_map, config = self.scaled_batch(
            rng, 500.0, num_labels=7, h=2, lengths=(4000, 1500))
        for seq in batch:  # labels in runs of 50 frames, as in segmented data
            seq.frame_labels = np.repeat(seq.frame_labels[::50], 50).tolist()
        assert np.ptp(params.trans_weights) > 600.0
        log_z = abs(forward_backward(observation_matrix(batch[0], config)
                                     @ params.state_weights.T, params.trans_weights).log_z)
        bound = max(1e-9, 4 * math.sqrt(4000) * np.finfo(float).eps * log_z)
        assert_matches_one_table_passes(batch, params, hidden_map, config, grad_rtol=bound)
        assert len(counted) == 2 * len(batch)

    def test_zero_l2_zero_data_gradient_at_symmetry(self):
        # a single frame with uniform scores: the free and restricted
        # expectations differ, so the gradient must be nonzero
        seq = Sequence(id="s", frames=np.ones((1, 2)), frame_labels=[0])
        hidden_map = HiddenStateMap(2, 1)
        config = FeatureConfig(input_dim=2, window=0)
        params = ModelParams(np.zeros((2, config.obs_dim)), np.zeros((2, 2)))
        loss, grad = ldcrf_frame_objective([seq], params, hidden_map, config)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert np.any(grad != 0.0)

    def test_marginals_off_unit_mass_raise(self):
        # weights near 1e12: the loss stays finite, the marginals do not sum to one
        rng = np.random.default_rng(1)
        seq, params, hidden_map, config = make_instance(rng, t=30, num_labels=2, h=3)
        params = ModelParams(params.state_weights * 1e12, params.trans_weights * 1e12)
        with pytest.raises(FloatingPointError, match="do not sum to one"):
            ldcrf_frame_objective([seq], params, hidden_map, config)
        with pytest.raises(FloatingPointError, match="do not sum to one"):
            label_marginals(seq, params, hidden_map, config)


class TestDecoding:
    def test_viterbi_decode_maps_states_to_owners(self):
        rng = np.random.default_rng(81)
        seq, params, hidden_map, config = make_instance(rng, 6, 3, 2)
        labels = decode_frames_viterbi(seq, params, hidden_map, config)
        assert len(labels) == 6
        assert all(0 <= a < 3 for a in labels)
