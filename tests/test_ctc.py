"""Alignment-loss layer: lattice recursions, error table, decoding."""
import itertools
import math

import numpy as np
import pytest

import seqcrf.chain as chain_mod
from oracles import frame_posterior_check, loop_lattice
from seqcrf.ctc import (
    CtcInfeasibleError,
    augment_with_blanks,
    best_path_decode,
    ctc_error_table,
    ctc_forward_backward,
    ctc_forward_backward_batch,
    min_frames_required,
)
from seqcrf.seqdata import collapse


def brute_force_log_prob(q, z, blank):
    """Sum the path products over every frame path collapsing to z."""
    t, num_labels = q.shape
    total = 0.0
    for path in itertools.product(range(num_labels), repeat=t):
        if collapse(list(path), blank) == list(z):
            total += float(np.prod(q[np.arange(t), list(path)]))
    return math.log(total) if total > 0 else -math.inf


def random_q(rng, t, num_labels):
    return rng.dirichlet(np.ones(num_labels), size=t)


class TestAugmentation:
    def test_blank_interleaving(self):
        assert augment_with_blanks([0, 1, 0], blank_id=2).tolist() == [2, 0, 2, 1, 2, 0, 2]
        assert augment_with_blanks([], blank_id=5).tolist() == [5]

    @pytest.mark.parametrize(
        "z,needed",
        [([], 0), ([0], 1), ([0, 1], 2), ([0, 0], 3), ([0, 0, 0], 5), ([1, 1, 0, 0], 6)],
    )
    def test_min_frames_required(self, z, needed):
        assert min_frames_required(z) == needed


class TestForwardBackward:
    def test_single_frame_single_label(self):
        q = np.array([[0.3, 0.7]])
        tables = ctc_forward_backward(q, [0], blank_id=1)
        assert tables.log_prob == pytest.approx(math.log(0.3), abs=1e-12)

    def test_two_frames_three_paths_by_hand(self):
        # paths AA, A-, -A for target [A]
        q = np.array([[0.6, 0.4], [0.2, 0.8]])
        expect = 0.6 * 0.2 + 0.6 * 0.8 + 0.4 * 0.2
        tables = ctc_forward_backward(q, [0], blank_id=1)
        assert math.exp(tables.log_prob) == pytest.approx(expect, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 40:
            t = int(rng.integers(1, 7))
            num_labels = int(rng.integers(2, 5))
            blank = num_labels - 1
            m = int(rng.integers(1, min(t, 3) + 1))
            z = [int(a) for a in rng.integers(0, num_labels - 1, size=m)]
            if min_frames_required(z) > t:
                continue
            done += 1
            q = random_q(rng, t, num_labels)
            tables = ctc_forward_backward(q, z, blank)
            assert tables.log_prob == pytest.approx(
                brute_force_log_prob(q, z, blank), abs=1e-10
            )
        # the empty target: a one-position (all-blank) lattice
        for t in (1, 2, 5):
            q = random_q(rng, t, 3)
            tables = ctc_forward_backward(q, [], 2)
            assert tables.log_alpha.shape == (t, 1)
            assert tables.log_prob == pytest.approx(brute_force_log_prob(q, [], 2), abs=1e-10)

    def test_repeated_label_needs_blank_bridge(self):
        q = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(CtcInfeasibleError):
            ctc_forward_backward(q, [0, 0], blank_id=1)
        # three frames leave room for the separating blank
        q3 = np.full((3, 2), 0.5)
        tables = ctc_forward_backward(q3, [0, 0], blank_id=1)
        assert math.exp(tables.log_prob) == pytest.approx(0.125, abs=1e-12)

    def test_distribution_over_targets(self):
        # every collapsed sequence, empty included, gets its share of mass
        rng = np.random.default_rng(9)
        for t in (1, 2, 3, 4, 5):
            q = random_q(rng, t, 3)  # two real labels plus blank
            total = 0.0
            for m in range(0, t + 1):
                for z in itertools.product(range(2), repeat=m):
                    if min_frames_required(list(z)) > t:
                        continue
                    total += math.exp(ctc_forward_backward(q, list(z), blank_id=2).log_prob)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_frame_identity(self):
        rng = np.random.default_rng(10)
        q = random_q(rng, 6, 4)
        tables = ctc_forward_backward(q, [0, 2, 0], blank_id=3)
        np.testing.assert_allclose(frame_posterior_check(tables), tables.log_prob, atol=1e-8)

    def test_unnormalized_rows_follow_path_sum_semantics(self):
        q = np.array([[0.2, 0.9], [1.3, 0.1]])
        tables = ctc_forward_backward(q, [0], blank_id=1)
        assert math.exp(tables.log_prob) == pytest.approx(
            0.2 * 1.3 + 0.2 * 0.1 + 0.9 * 1.3, abs=1e-12
        )

    def test_zero_mass_target_underflows_to_minus_inf(self):
        q = np.array([[0.0, 1.0], [0.0, 1.0]])
        tables = ctc_forward_backward(q, [0], blank_id=1)
        assert tables.log_prob == -math.inf

    def test_target_validation(self):
        q = np.full((3, 3), 1.0 / 3)
        with pytest.raises(ValueError):
            ctc_forward_backward(q, [2], blank_id=2)  # blank in target
        with pytest.raises(ValueError):
            ctc_forward_backward(q, [5], blank_id=2)
        with pytest.raises(ValueError):
            ctc_forward_backward(np.array([[0.5, -0.5]]), [0], blank_id=1)


def lattice_pairs(rng, num_labels=4):
    """(q, z) pairs of mixed T and target length, each feasible: an empty
    target, a one-label one, a repeat that fits only with its blank bridge,
    a target with no mass, then random ones."""
    blank = num_labels - 1
    no_mass = random_q(rng, 6, num_labels)
    no_mass[:, 1] = 0.0
    pairs = [(random_q(rng, 4, num_labels), []), (random_q(rng, 2, num_labels), [2]),
             (random_q(rng, 3, num_labels), [1, 1]), (no_mass, [0, 1])]
    for _ in range(8):
        z = [int(a) for a in rng.integers(0, blank, size=int(rng.integers(0, 6)))]
        pairs.append((random_q(rng, min_frames_required(z) + int(rng.integers(1, 40)),
                                num_labels), z))
    return pairs


class TestBatch:
    """Each row of the stacked lattice is its one-sequence lattice, bit for
    bit, and both are the frame-by-frame loop."""

    @pytest.mark.parametrize("cells", [1, None], ids=["cap1", "default"])
    def test_equals_one_sequence_calls_bit_for_bit(self, monkeypatch, cells):
        if cells is not None:
            monkeypatch.setattr(chain_mod, "_STACK_CELLS", cells)
        rng = np.random.default_rng(52)
        pairs = lattice_pairs(rng)
        empties = [(random_q(rng, t, 4), []) for t in (1, 5, 3)]  # S_max 1: no skip vector
        for group in (pairs, pairs[::-1], empties):
            batch = list(ctc_forward_backward_batch([q for q, _ in group],
                                                    [z for _, z in group], blank_id=3))
            assert len(batch) == len(group)
            for got, (q, z) in zip(batch, group):
                one = ctc_forward_backward(q, z, blank_id=3)
                log_alpha, log_beta, log_prob = loop_lattice(q, z, blank=3)
                assert got.log_prob == one.log_prob == log_prob
                assert np.array_equal(got.augmented, one.augmented)
                for field, loop in (("log_alpha", log_alpha), ("log_beta", log_beta)):
                    assert np.array_equal(getattr(got, field), getattr(one, field)), field
                    assert np.array_equal(getattr(got, field), loop), field
        assert batch[0].log_alpha.shape == (1, 1)
        assert ctc_forward_backward(*pairs[3], blank_id=3).log_prob == -math.inf

    @pytest.mark.parametrize("row", [0, 2, 5])
    @pytest.mark.parametrize("fault, error, message", [
        ("nan-q", ValueError, "q must be finite and nonnegative"),
        ("negative-q", ValueError, "q must be finite and nonnegative"),
        ("blank-in-target", ValueError, "may not contain the blank"),
        ("label-out-of-range", ValueError, "out of range"),
        ("infeasible", CtcInfeasibleError, "needs at least 3 frames, have 2"),
    ])
    def test_any_row_raises_the_one_sequence_error(self, row, fault, error, message):
        rng = np.random.default_rng(53)
        pairs = lattice_pairs(rng)[4:10]
        q, z = pairs[row]
        if fault == "nan-q":
            q[-1, 0] = np.nan
        elif fault == "negative-q":
            q[0, 1] = -0.25
        elif fault == "blank-in-target":
            z = [0, 3]
        elif fault == "label-out-of-range":
            z = [4]
        else:
            q, z = random_q(rng, 2, 4), [1, 1]
        pairs[row] = (q, z)
        with pytest.raises(error, match=message):
            ctc_forward_backward(q, z, blank_id=3)
        with pytest.raises(error, match=message):
            list(ctc_forward_backward_batch([q for q, _ in pairs], [z for _, z in pairs], 3))


class TestErrorTable:
    def test_single_frame_derivative(self):
        q = np.array([[0.25, 0.75]])
        tables = ctc_forward_backward(q, [0], blank_id=1)
        err = ctc_error_table(tables, q)
        assert err[0, 0] == pytest.approx(4.0, abs=1e-12)
        assert err[0, 1] == 0.0

    def test_unused_label_column_is_zero(self):
        rng = np.random.default_rng(13)
        q = random_q(rng, 5, 4)
        tables = ctc_forward_backward(q, [0], blank_id=3)  # label 1 and 2 unused
        err = ctc_error_table(tables, q)
        assert np.all(err[:, 1] == 0.0)
        assert np.all(err[:, 2] == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        step = 1e-6
        for _ in range(10):
            t = int(rng.integers(2, 6))
            num_labels = int(rng.integers(2, 4))
            blank = num_labels - 1
            z = [int(a) for a in rng.integers(0, num_labels - 1,
                                              size=rng.integers(1, min(t, 3) + 1))]
            if min_frames_required(z) > t:
                continue
            q = random_q(rng, t, num_labels)
            err = ctc_error_table(ctc_forward_backward(q, z, blank), q)
            for idx in np.ndindex(t, num_labels):
                hi = q.copy()
                hi[idx] += step  # perturb the raw table, no renormalization
                lo = q.copy()
                lo[idx] -= step
                fd = (ctc_forward_backward(hi, z, blank).log_prob
                      - ctc_forward_backward(lo, z, blank).log_prob) / (2 * step)
                denom = max(1.0, abs(fd), abs(err[idx]))
                assert abs(err[idx] - fd) / denom < 1e-6

    def test_weighted_rows_sum_to_one(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            t = int(rng.integers(1, 7))
            num_labels = int(rng.integers(2, 5))
            blank = num_labels - 1
            m = int(rng.integers(1, min(t, 3) + 1))
            z = [int(a) for a in rng.integers(0, num_labels - 1, size=m)]
            if min_frames_required(z) > t:
                continue
            q = random_q(rng, t, num_labels)
            err = ctc_error_table(ctc_forward_backward(q, z, blank), q)
            np.testing.assert_allclose((q * err).sum(axis=1), 1.0, atol=1e-8)

    def test_requires_finite_log_prob(self):
        q = np.array([[0.0, 1.0]])
        tables = ctc_forward_backward(q, [0], blank_id=1)
        with pytest.raises(ValueError):
            ctc_error_table(tables, q)

    def test_zero_probability_on_target_label_warns(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        tables = ctc_forward_backward(q, [0], blank_id=1)
        with pytest.warns(RuntimeWarning):
            err = ctc_error_table(tables, q)
        assert np.all(np.isfinite(err))


class TestBestPath:
    def test_collapses_argmax_path(self):
        q = np.array(
            [[0.9, 0.0, 0.1], [0.8, 0.1, 0.1], [0.1, 0.2, 0.7], [0.1, 0.8, 0.1]]
        )
        assert best_path_decode(q, blank_id=2) == [0, 1]

    def test_all_blank_decodes_empty(self):
        q = np.array([[0.1, 0.9], [0.2, 0.8]])
        assert best_path_decode(q, blank_id=1) == []
