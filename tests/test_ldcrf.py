"""Latent-block layer: label marginals, restricted likelihood, decoding."""
import itertools
import math
import weakref

import numpy as np
import pytest

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

    def test_one_chain_call_per_batch_equals_one_table_passes(self, monkeypatch):
        # both chains of every sequence go through one forward_backward_batch
        # call, whose posteriors are read pairwise as they come; loss and
        # gradient are bit for bit those of separate one-table passes
        rng = np.random.default_rng(72)
        _, params, hidden_map, config = make_instance(rng, 1, num_labels=3, h=2)
        batch = [Sequence(id=f"s{i}", frames=rng.normal(size=(t, 3)),
                          frame_labels=[int(a) for a in rng.integers(0, 3, size=t)])
                 for i, t in enumerate((1, 4, 9, 2, 6, 3))]
        real = ldcrf_mod.forward_backward_batch
        calls, alive = [], []

        def counting(*args, **kwargs):
            calls.append(args)
            live = []
            for post in real(*args, **kwargs):
                live = [ref for ref in live if ref() is not None] + [weakref.ref(post)]
                alive.append(len(live))
                yield post

        monkeypatch.setattr(ldcrf_mod, "forward_backward_batch", counting)
        loss, grad = ldcrf_frame_objective(batch, params, hidden_map, config, l2=1e-3)
        assert len(calls) == 1
        assert len(alive) == 2 * len(batch) and max(alive) <= 4

        trans = params.trans_weights
        ref_loss = 0.0
        ref_state, ref_trans = np.zeros_like(params.state_weights), np.zeros_like(trans)
        for seq in batch:
            obs = observation_matrix(seq, config)
            scores = obs @ params.state_weights.T
            allowed = hidden_map.state_owner()[None, :] == np.array(seq.frame_labels)[:, None]
            free = forward_backward(scores, trans)
            restricted = masked_forward_backward(scores, trans, allowed)
            ref_loss += free.log_z - restricted.log_z
            ref_state += (free.node_marginals - restricted.node_marginals).T @ obs
            ref_trans += transition_counts(free, trans) - transition_counts(restricted, trans)
        theta = params.flatten()
        ref_loss += 1e-3 * float(theta @ theta)
        ref_grad = np.concatenate([ref_state.ravel(), ref_trans.ravel()]) + 2e-3 * theta
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)

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
