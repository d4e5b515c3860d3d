"""Exactness of the chain layer against explicit path enumeration."""
import itertools
import math
import warnings

import numpy as np
import pytest

import seqcrf.chain as chain_mod
import seqcrf.ctc as ctc_mod
from oracles import brute_force_posteriors, loop_adjoint, lse
from seqcrf.chain import (
    fb_adjoint,
    fb_adjoint_batch,
    forward_backward,
    forward_backward_batch,
    masked_forward_backward,
    stacks,
    transition_counts,
    viterbi,
)
from seqcrf.ctc import ctc_forward_backward_batch


def path_score(path, scores, trans):
    total = sum(scores[j, s] for j, s in enumerate(path))
    total += sum(trans[a, b] for a, b in zip(path, path[1:]))
    return total


def all_paths(t, h):
    return itertools.product(range(h), repeat=t)


def longdouble_forward_backward(scores, trans):
    """Reference log Z and node marginals: the plain log-domain recursion
    in extended precision, one frame at a time; -inf scores mask states."""
    scores = np.asarray(scores, dtype=np.longdouble)
    trans = np.asarray(trans, dtype=np.longdouble)
    t, h = scores.shape
    alpha = np.empty((t, h), dtype=np.longdouble)
    beta = np.zeros((t, h), dtype=np.longdouble)
    alpha[0] = scores[0]
    for j in range(1, t):
        alpha[j] = scores[j] + lse(alpha[j - 1][:, None] + trans, axis=0)
    for j in range(t - 2, -1, -1):
        beta[j] = lse(trans + (scores[j + 1] + beta[j + 1])[None, :], axis=1)
    log_z = lse(alpha[t - 1], axis=0)
    return log_z, np.exp(alpha + beta - log_z)


class TestForwardBackward:
    def test_hand_computed_two_frames(self):
        scores = np.array([[0.1, -0.3], [0.2, 0.5]])
        trans = np.array([[0.0, 1.0], [-1.0, 0.3]])
        weights = [math.exp(path_score(p, scores, trans)) for p in all_paths(2, 2)]
        z = sum(weights)
        post = forward_backward(scores, trans)
        assert post.log_z == pytest.approx(math.log(z), abs=1e-12)
        # P(h_0 = 0) sums the paths starting in state 0
        expect = (weights[0] + weights[1]) / z
        assert post.node_marginals[0, 0] == pytest.approx(expect, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            t = int(rng.integers(1, 7))
            h = int(rng.integers(1, 5))
            scores = rng.normal(size=(t, h))
            trans = rng.normal(size=(h, h))
            fast = forward_backward(scores, trans)
            log_z, node, edge = brute_force_posteriors(scores, trans)
            assert fast.log_z == pytest.approx(log_z, abs=1e-10)
            np.testing.assert_allclose(fast.node_marginals, node, atol=1e-12)
            np.testing.assert_allclose(
                transition_counts(fast, trans), edge.sum(axis=0), atol=1e-12
            )

    def test_single_frame_is_softmax(self):
        scores = np.array([[1.0, -2.0, 0.5]])
        post = forward_backward(scores, np.zeros((3, 3)))
        expect = np.exp(scores[0]) / np.exp(scores[0]).sum()
        np.testing.assert_allclose(post.node_marginals[0], expect, atol=1e-14)
        np.testing.assert_array_equal(transition_counts(post, np.zeros((3, 3))), 0.0)

    def test_marginals_normalize(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(5, 4))
        trans = rng.normal(size=(4, 4))
        post = forward_backward(scores, trans)
        np.testing.assert_allclose(post.node_marginals.sum(axis=1), 1.0, atol=1e-12)
        # transition counts are consistent with the node tables on both sides
        counts = transition_counts(post, trans)
        np.testing.assert_allclose(
            counts.sum(axis=1), post.node_marginals[:-1].sum(axis=0), atol=1e-12
        )
        np.testing.assert_allclose(
            counts.sum(axis=0), post.node_marginals[1:].sum(axis=0), atol=1e-12
        )

    def test_score_shift_moves_log_z_not_marginals(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(4, 3))
        trans = rng.normal(size=(3, 3))
        base = forward_backward(scores, trans)
        shifted = scores.copy()
        shifted[2] += 7.5
        moved = forward_backward(shifted, trans)
        assert moved.log_z == pytest.approx(base.log_z + 7.5, abs=1e-10)
        np.testing.assert_allclose(moved.node_marginals, base.node_marginals, atol=1e-10)

    def test_rejects_nonfinite_scores(self):
        with pytest.raises(ValueError):
            forward_backward(np.array([[0.0, np.inf]]), np.zeros((2, 2)))

    def test_marginals_off_unit_mass_raise(self):
        # scores near 1e12 round the float64 messages so coarsely that the
        # marginal rows miss unit mass (by 1.6e-2 here), though all are finite
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(30, 6)) * 1e12
        trans = rng.normal(size=(6, 6)) * 1e12
        allowed = rng.random((30, 6)) < 0.5
        allowed[:, 3] = True
        with pytest.raises(FloatingPointError, match="do not sum to one"):
            forward_backward(scores, trans)
        with pytest.raises(FloatingPointError, match="do not sum to one"):
            masked_forward_backward(scores, trans, allowed)


class TestMaskedForwardBackward:
    def test_matches_restricted_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            t = int(rng.integers(1, 6))
            h = int(rng.integers(2, 5))
            scores = rng.normal(size=(t, h))
            trans = rng.normal(size=(h, h))
            allowed = rng.random((t, h)) < 0.6
            allowed[np.arange(t), rng.integers(0, h, size=t)] = True  # keep rows nonempty
            total = 0.0
            for path in all_paths(t, h):
                if all(allowed[j, s] for j, s in enumerate(path)):
                    total += math.exp(path_score(path, scores, trans))
            post = masked_forward_backward(scores, trans, allowed)
            assert post.log_z == pytest.approx(math.log(total), abs=1e-10)
            # no probability may leak onto masked-out states
            assert np.all(post.node_marginals[~allowed] == 0.0)

    def test_all_allowed_equals_free(self):
        rng = np.random.default_rng(22)
        scores = rng.normal(size=(4, 3))
        trans = rng.normal(size=(3, 3))
        free = forward_backward(scores, trans)
        masked = masked_forward_backward(scores, trans, np.ones((4, 3), dtype=bool))
        assert masked.log_z == pytest.approx(free.log_z, abs=1e-12)
        np.testing.assert_allclose(masked.node_marginals, free.node_marginals, atol=1e-12)

    def test_empty_frame_raises(self):
        allowed = np.ones((3, 2), dtype=bool)
        allowed[1] = False
        with pytest.raises(ValueError):
            masked_forward_backward(np.zeros((3, 2)), np.zeros((2, 2)), allowed)

    def test_restricted_log_partition_rejects_broadcast_mask(self):
        with pytest.raises(ValueError):
            masked_forward_backward(np.zeros((3, 2)), np.zeros((2, 2)), np.ones((3, 1), bool))

    def test_restricted_log_partition_rejects_nan_transitions(self):
        trans = np.zeros((2, 2))
        trans[0, 1] = np.nan
        with pytest.raises(ValueError):
            masked_forward_backward(np.zeros((3, 2)), trans, np.ones((3, 2), bool))


def random_tables(rng, h, count):
    """``count`` random (T, h) score tables, T in 1..120."""
    return [rng.normal(size=(int(rng.integers(1, 121)), h)) * 3.0 for _ in range(count)]


class TestBatch:
    @pytest.mark.parametrize("cells", [1, 256, None], ids=["cap1", "cap256", "default"])
    def test_equals_one_table_calls_bit_for_bit(self, monkeypatch, cells):
        # a one-table call is a pass of its own at any cap
        if cells is not None:
            monkeypatch.setattr(chain_mod, "_STACK_CELLS", cells)
        rng = np.random.default_rng(31)
        for h in (1, 5, 14):
            tables = random_tables(rng, h, 12)
            trans = rng.normal(size=(h, h))
            ones = [forward_backward(s, trans) for s in tables]
            batch = list(forward_backward_batch(tables, trans))
            assert len(batch) == len(tables)
            for got, one in zip(batch, ones):
                assert got.log_z == one.log_z
                for field in ("node_marginals", "node_scores", "log_alpha", "log_beta"):
                    assert np.array_equal(getattr(got, field), getattr(one, field)), field

    @pytest.mark.parametrize("row", [0, 3, 6])
    def test_any_row_raises_the_one_table_error(self, row):
        rng = np.random.default_rng(32)
        tables = random_tables(rng, 4, 7)
        tables[row][-1, 0] = np.nan
        with pytest.raises(ValueError, match="node_scores must be finite"):
            list(forward_backward_batch(tables, np.zeros((4, 4))))


class TestStacks:
    def test_runs_keep_order_and_budget(self, monkeypatch):
        monkeypatch.setattr(chain_mod, "_STACK_CELLS", 64)
        rng = np.random.default_rng(33)
        dims = [tuple(int(d) for d in rng.integers(1, 12, size=2)) for _ in range(300)]
        assert any(math.prod(d) > 64 for d in dims)
        drawn = []

        def items():
            for k in range(len(dims)):
                drawn.append(k)
                yield k

        runs = []
        for run in stacks(items(), dims.__getitem__):
            # at most the item that did not fit has been drawn past the run
            assert drawn == list(range(min(run[-1] + 2, len(dims))))
            runs.append(run)
        assert [k for run in runs for k in run] == list(range(len(dims)))
        for run, after in zip(runs, runs[1:] + [None]):
            top = np.max([dims[k] for k in run], axis=0)
            assert len(run) == 1 or len(run) * math.prod(top) <= 64
            if after is not None:  # a run closes only when its next item would overflow it
                top = np.maximum(top, dims[after[0]])
                assert (len(run) + 1) * math.prod(top) > 64
        oversize = [k for k, d in enumerate(dims) if math.prod(d) > 64]
        assert all([k] in runs for k in oversize)

    @pytest.mark.parametrize("cells, runs", [(1, [1, 1, 1]), (None, [3])],
                             ids=["cap1", "default"])
    def test_one_budget_groups_every_recursion(self, monkeypatch, cells, runs):
        if cells is not None:
            monkeypatch.setattr(chain_mod, "_STACK_CELLS", cells)
        seen = []

        def counted(items, shape):
            for run in stacks(items, shape):
                seen.append(len(run))
                yield run

        monkeypatch.setattr(chain_mod, "stacks", counted)
        monkeypatch.setattr(ctc_mod, "stacks", counted)
        rng = np.random.default_rng(34)
        tables = [rng.normal(size=(t, 3)) for t in (4, 6, 5)]
        trans = rng.normal(size=(3, 3))
        posts = list(forward_backward_batch(tables, trans))
        list(fb_adjoint_batch(trans, [np.ones(s.shape) for s in tables], posts))
        qs = [rng.dirichlet(np.ones(3), size=len(s)) for s in tables]
        list(ctc_forward_backward_batch(qs, [[0], [1, 0], [1]], blank_id=2))
        assert seen == runs * 3


@pytest.fixture
def reruns(monkeypatch):
    """The score tables the chain pass reruns in the log domain, in order."""
    seen = []
    log_messages = chain_mod._log_messages

    def spy(scores, trans):
        seen.append(scores)
        return log_messages(scores, trans)

    monkeypatch.setattr(chain_mod, "_log_messages", spy)
    return seen


class TestLogDomainFallback:
    """A table whose scaled messages under- or overflow is rerun alone in
    the log domain; every other table keeps the scaled pass."""

    def test_only_the_overflowing_table_reruns_bit_for_bit(self, reruns):
        rng = np.random.default_rng(33)
        tables = random_tables(rng, 14, 6)
        tables[2] = tables[2] * (500.0 / 3.0)
        trans = rng.normal(size=(14, 14)) * 100.0
        batch = list(forward_backward_batch(tables, trans))
        assert [id(scores) for scores in reruns] == [id(batch[2].node_scores)]
        reruns.clear()
        ones = [forward_backward(s, trans) for s in tables]
        assert len(reruns) == 1 and reruns[0] is ones[2].node_scores
        for got, one in zip(batch, ones):
            assert got.log_z == one.log_z
            for field in ("node_marginals", "node_scores", "log_alpha", "log_beta"):
                assert np.array_equal(getattr(got, field), getattr(one, field)), field

    def test_overflowing_pass_warns_nothing(self, reruns):
        rng = np.random.default_rng(34)
        scores = rng.uniform(-500.0, 500.0, size=(200, 14))
        trans = rng.uniform(-500.0, 500.0, size=(14, 14))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            post = forward_backward(scores, trans)
        assert len(reruns) == 1
        log_z, node = longdouble_forward_backward(scores, trans)
        assert abs(post.log_z - log_z) <= 1e-12 * abs(log_z)
        assert float(np.max(np.abs(post.node_marginals - node))) <= 1e-9


class TestLongChains:
    """Exactness at T = 10^4 against an extended-precision recursion.

    log Z must agree to 1e-12 relative; marginals to
    max(1e-9, 4 sqrt(T) eps |log Z|), the rounding a float64 recursion
    of this length accumulates.
    """

    T = 10**4

    @pytest.fixture(
        params=[(14, 500.0), (14, 100.0), (4, 1.0)],
        ids=["h14-scale500", "h14-scale100", "h4-scale1"],
    )
    def chain(self, request):
        return self.make_chain(*request.param)

    def make_chain(self, h, scale):
        rng = np.random.default_rng(h)
        scores = rng.uniform(-scale, scale, size=(self.T, h))
        trans = rng.uniform(-scale, scale, size=(h, h))
        allowed = rng.random((self.T, h)) < 0.5
        allowed[np.arange(self.T), rng.integers(0, h, size=self.T)] = True
        return scores, trans, allowed

    def check(self, post, scores, trans):
        log_z, node = longdouble_forward_backward(scores, trans)
        assert abs(post.log_z - log_z) <= 1e-12 * abs(log_z)
        bound = max(1e-9, 4 * math.sqrt(self.T) * np.finfo(float).eps * abs(float(log_z)))
        assert float(np.max(np.abs(post.node_marginals - node))) <= bound

    def test_free_chain(self, chain):
        scores, trans, _ = chain
        self.check(forward_backward(scores, trans), scores, trans)

    def test_masked_chain(self, chain):
        scores, trans, allowed = chain
        post = masked_forward_backward(scores, trans, allowed)
        self.check(post, np.where(allowed, scores, -np.inf), trans)
        assert np.all(post.node_marginals[~allowed] == 0.0)

    def test_scale_100_takes_the_scaled_pass(self, reruns):
        # its messages stay finite, so the bounds the h14-scale100 chain
        # meets are the scaled pass's own, not the log-domain fallback's
        scores, trans, allowed = self.make_chain(14, 100.0)
        forward_backward(scores, trans)
        masked_forward_backward(scores, trans, allowed)
        assert reruns == []

    def test_constant_upstream_gives_zero_adjoint(self, chain):
        # each sweep carries up to c*T per frame, and c*T^2 into the
        # transition gradient, that must cancel to zero; the log messages'
        # relative rounding is the marginal bound above
        scores, trans, _ = chain
        c = 2.7
        post = forward_backward(scores, trans)
        g_scores, g_trans = fb_adjoint(scores, trans, np.full(scores.shape, c), post)
        rel = 4 * math.sqrt(self.T) * np.finfo(float).eps * abs(post.log_z)
        assert float(np.max(np.abs(g_scores))) <= rel * c * self.T
        assert float(np.max(np.abs(g_trans))) <= rel * c * self.T**2


class TestViterbi:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            t = int(rng.integers(1, 6))
            h = int(rng.integers(1, 4))
            scores = rng.normal(size=(t, h))
            trans = rng.normal(size=(h, h))
            best = max(all_paths(t, h), key=lambda p: path_score(p, scores, trans))
            path, score = viterbi(scores, trans)
            assert score == pytest.approx(path_score(best, scores, trans), abs=1e-10)
            assert list(path) == list(best)

    def test_ties_prefer_lower_state(self):
        path, score = viterbi(np.zeros((4, 3)), np.zeros((3, 3)))
        assert list(path) == [0, 0, 0, 0]
        assert score == 0.0


class TestAdjoint:
    """fb_adjoint must reproduce finite differences of any linear
    functional of the node marginals."""

    def objective(self, scores, trans, upstream):
        return float(np.sum(upstream * forward_backward(scores, trans).node_marginals))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        step = 1e-6
        for _ in range(10):
            t = int(rng.integers(1, 6))
            h = int(rng.integers(1, 4))
            scores = rng.normal(size=(t, h))
            trans = rng.normal(size=(h, h))
            upstream = rng.normal(size=(t, h))
            g_scores, g_trans = fb_adjoint(
                scores, trans, upstream, forward_backward(scores, trans)
            )
            for idx in np.ndindex(t, h):
                hi = scores.copy()
                hi[idx] += step
                lo = scores.copy()
                lo[idx] -= step
                fd = (self.objective(hi, trans, upstream)
                      - self.objective(lo, trans, upstream)) / (2 * step)
                assert g_scores[idx] == pytest.approx(fd, abs=1e-7)
            for idx in np.ndindex(h, h):
                hi = trans.copy()
                hi[idx] += step
                lo = trans.copy()
                lo[idx] -= step
                fd = (self.objective(scores, hi, upstream)
                      - self.objective(scores, lo, upstream)) / (2 * step)
                assert g_trans[idx] == pytest.approx(fd, abs=1e-7)

    def test_constant_upstream_gives_zero_gradient(self):
        # marginals always sum to T, so a constant functional is flat
        rng = np.random.default_rng(42)
        scores = rng.normal(size=(5, 3))
        trans = rng.normal(size=(3, 3))
        g_scores, g_trans = fb_adjoint(
            scores, trans, np.full((5, 3), 2.7), forward_backward(scores, trans)
        )
        np.testing.assert_allclose(g_scores, 0.0, atol=1e-12)
        np.testing.assert_allclose(g_trans, 0.0, atol=1e-12)

    def test_single_frame_softmax_jacobian(self):
        scores = np.array([[0.4, -1.2, 0.9]])
        upstream = np.array([[1.0, -2.0, 0.5]])
        mu = np.exp(scores[0]) / np.exp(scores[0]).sum()
        expect = mu * (upstream[0] - float(upstream[0] @ mu))
        trans = np.zeros((3, 3))
        g_scores, g_trans = fb_adjoint(scores, trans, upstream, forward_backward(scores, trans))
        np.testing.assert_allclose(g_scores[0], expect, atol=1e-12)
        np.testing.assert_allclose(g_trans, 0.0, atol=1e-12)

    def test_shape_mismatch_raises(self):
        scores, trans = np.zeros((3, 2)), np.zeros((2, 2))
        post = forward_backward(scores, trans)
        with pytest.raises(ValueError):
            fb_adjoint(scores, trans, np.zeros((2, 2)), post)
        with pytest.raises(ValueError):
            fb_adjoint(scores, trans, np.zeros((3, 2)), forward_backward(scores[:2], trans))
        with pytest.raises(ValueError):  # posteriors of other scores of the same shape
            fb_adjoint(scores, trans, np.zeros((3, 2)), forward_backward(scores + 1.0, trans))

    @pytest.mark.parametrize("cells", [1, None], ids=["cap1", "default"])
    def test_batch_equals_one_table_calls_bit_for_bit(self, monkeypatch, cells):
        # and both equal the frame-by-frame loop of 1-D vector products
        if cells is not None:
            monkeypatch.setattr(chain_mod, "_STACK_CELLS", cells)
        rng = np.random.default_rng(43)
        for h in (1, 5, 14):
            tables = random_tables(rng, h, 9)
            tables[1], tables[6] = tables[1][:1], tables[6][:1]  # T = 1
            trans = rng.normal(size=(h, h))
            upstreams = [rng.normal(size=scores.shape) for scores in tables]
            posts = list(forward_backward_batch(tables, trans))
            batch = list(fb_adjoint_batch(trans, upstreams, posts))
            assert len(batch) == len(tables)
            for got, scores, upstream, post in zip(batch, tables, upstreams, posts):
                one = fb_adjoint(scores, trans, upstream, post)
                loop = loop_adjoint(scores, trans, upstream, post)
                for k in range(2):
                    assert np.array_equal(got[k], one[k]) and np.array_equal(got[k], loop[k])

    def test_rejects_masked_posteriors(self):
        # a masked pass has -inf messages, which would turn the sweeps'
        # weights into NaN
        scores, trans = np.zeros((3, 2)), np.zeros((2, 2))
        allowed = np.array([[True, False], [True, True], [True, True]])
        post = masked_forward_backward(scores, trans, allowed)
        with pytest.raises(ValueError):
            fb_adjoint(scores, trans, np.ones((3, 2)), post)
