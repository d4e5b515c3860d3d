"""Exact inference over a linear chain of hidden states.

The chain distribution is Gibbs: P(h | x) proportional to
exp(sum_j score[j, h_j] + sum_j trans[h_j, h_{j+1}]), with one shared
transition matrix across all adjacent pairs.  ``forward_backward_batch``
stacks the score tables of a whole dataset or batch, each pass within the
one budget of ``stacks``, and runs each stack's forward and backward
messages as two rows of one scan, so a frame pays numpy dispatch once per
pass.  The scan carries probabilities rescaled to unit sum every frame
(Rabiner 1989); a table whose scaled messages under- or overflow, as
score magnitudes in the hundreds can make them, is rerun alone in the log
domain.  Each table's posteriors are bit for bit those of its own
one-table pass, which is all ``forward_backward`` and
``masked_forward_backward`` run.  The posteriors view the pass's whole
(T_max, B, H) arrays (``_stacked``, which the frame objective reads
directly) and carry the log messages so that ``fb_adjoint`` reuses them;
no per-frame (T-1, H, H) edge table is kept.  ``fb_adjoint_batch`` stacks
a batch's adjoints in one frame loop.  The log-domain fallback and
Viterbi's max are each one call to ``scan``; a backward one scans the
reversed inputs.

Conventions: trans[a, b] scores a transition from state a at position j
to state b at position j+1.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


_STACK_CELLS = 1 << 18  # float64 cells the arrays of one stack hold at most: 2 MiB


@dataclass
class ChainPosteriors:
    """Partition function, exact node marginals and the messages behind them.

    node_scores are the scores the pass ran on, -inf on masked states;
    log_alpha[j] sums paths over frames 0..j (scores of j included);
    log_beta[j] sums frames j+1..T-1.
    """

    log_z: float
    node_marginals: np.ndarray  # (T, H)
    node_scores: np.ndarray  # (T, H)
    log_alpha: np.ndarray  # (T, H)
    log_beta: np.ndarray  # (T, H)


def _finite(name: str, arr: np.ndarray) -> np.ndarray:
    """``arr`` as float64; raises ValueError unless every entry is finite."""
    arr = np.asarray(arr, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _logsumexp(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Max-shifted log-sum-exp; each reduced slice needs one finite entry."""
    m = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - m).sum(axis=axis)) + m.squeeze(axis=axis)


def scan(first, inputs: np.ndarray, step) -> np.ndarray:
    """The frame loop of every recursion: out[0] = first and
    out[j] = step(out[j - 1] + inputs[j - 1]); inputs[-1] is never read.
    A backward recursion is the scan over reversed inputs."""
    out = np.empty(inputs.shape)
    out[0] = prev = first
    for j, x in enumerate(inputs[:-1]):
        out[j + 1] = prev = step(prev + x)
    return out


def _log_messages(scores: np.ndarray, trans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_scaled_messages`` of one table in the log domain, its fallback.
    The forward scan starts at -0.0 because x + -0.0 is x bit for bit."""
    fwd = scan(-0.0, scores, lambda v: _logsumexp(v[:, None] + trans, axis=0))
    bwd = scan(0.0, scores[::-1], lambda v: _logsumexp(trans + v[None, :], axis=1))
    return fwd, bwd


def _scaled_messages(tables: list[np.ndarray], trans: np.ndarray, scratch: list) -> np.ndarray:
    """Forward and backward scan outputs of a stacked pass, (T_max, 2, B, H).

    Row k reads out[j, c] = lse_i(out[j-1, i] + x[j-1, i] + m[k, i, c]),
    m = [trans, trans.T], over the tables (row 0) or their reversed frames
    (row 1), zero-padded past their ends.  exp(out) is carried rescaled to
    unit sum per frame, four calls a step for both rows; each row is its
    own (1, H) @ (H, H) product, so rows do not touch.  An entry that
    under- or overflows comes out non-finite.  ``scratch[0]`` holds the
    inputs, then their exponentials, and grows to fit the pass.
    """
    t_max, rows, h = max(len(scores) for scores in tables), len(tables), trans.shape[0]
    size = t_max * 2 * rows * h
    if scratch[0].size < size:
        scratch[0] = np.empty(size)
    x = scratch[0][:size].reshape(t_max, 2, rows, h)
    x.fill(0.0)
    for b, scores in enumerate(tables):
        x[:len(scores), 0, b] = scores
        x[:len(scores), 1, b] = scores[::-1]
    m = np.array([trans, trans.T])
    cmx = m.max(axis=1)  # column maxima, carried into the next frame's input
    e = np.exp(m - cmx[:, None, :])[:, None]  # (2, 1, H, H), entries in (0, 1]
    msg = np.empty(x.shape)
    norm = np.empty((t_max, 2, rows, 1))
    v, u = np.empty((2, 2, rows, 1, h))
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        x[1:] += cmx[:, None, :]
        xm = x.max(-1, keepdims=True)
        f = np.exp(np.subtract(x, xm, out=x), out=x)
        msg[0] = 1.0
        v0, u0 = v[:, :, 0], u[:, :, 0]
        for msg_j, f_j, norm_next, msg_next in zip(msg, f, norm[1:], msg[1:]):
            np.multiply(msg_j, f_j, out=v0)
            np.matmul(v, e, out=u)
            np.add.reduce(u0, -1, keepdims=True, out=norm_next)
            np.divide(u0, norm_next, out=msg_next)
        np.log(norm[1:], out=norm[1:])
        norm[1:] += xm[:-1]
        norm[0] = 0.0
        out = np.log(msg, out=msg)
        out += np.cumsum(norm, 0)
        out[1:] += cmx[:, None, :]
    return out


def stacks(items: Iterable, shape) -> Iterator[list]:
    """``items`` in runs whose stacks allocate at most ``_STACK_CELLS`` cells, the budget of
    every stacked recursion: a run's length times the product of the largest extents of
    ``shape(item)``.  An item over it runs alone; a run is yielded before the next is drawn."""
    run, top = [], ()
    for item in items:
        dims = shape(item)
        if run and (len(run) + 1) * math.prod(map(max, top, dims)) > _STACK_CELLS:
            yield run
            run = []
        top = tuple(map(max, top, dims)) if run else dims
        run.append(item)
    if run:
        yield run


def _table(scores: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Finite ``scores`` as float64, -inf where a given ``mask`` is False."""
    scores = _finite("node_scores", scores)
    if mask is None:
        return scores
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != scores.shape:
        raise ValueError("allowed mask must match node_scores shape")
    if not np.all(mask.any(axis=1)):
        raise ValueError("every frame needs at least one allowed state")
    return np.where(mask, scores, -np.inf)


def _stacked(tables: list[np.ndarray], trans: np.ndarray, scratch: list) -> tuple[np.ndarray, ...]:
    """One pass over ``tables`` as whole arrays: log alpha, log beta and node
    marginals, each (T_max, B, H), node zero past a table's end; and log Z.

    A table with a non-finite scaled message is rerun alone by ``_log_messages``,
    as its one-table pass is.  -inf scores are tolerated while every frame keeps
    a finite one.  FloatingPointError unless every marginal row sums to 1 within
    1e-6; NaN marginals fail that check too.
    """
    lengths, rows = np.array([len(table) for table in tables]), np.arange(len(tables))
    frames = np.arange(max(map(len, tables)))[:, None]
    live = frames < lengths  # (T_max, B)
    out = _scaled_messages(tables, trans, scratch)
    if not np.isfinite(out).all():
        for b in np.flatnonzero(~(np.isfinite(out).all(axis=(1, 3)) | ~live).all(axis=0)):
            out[:, :, b] = 0.0
            out[:lengths[b], 0, b], out[:lengths[b], 1, b] = _log_messages(tables[b], trans)
    for b, table in enumerate(tables):
        out[:len(table), 0, b] += table  # the forward messages become log alpha
    # frame j is row t - 1 - j of the backward scan; past a table's end the row
    # index wraps around to a finite row, which only padding reads
    out[:, 1] = out[lengths - 1 - frames, 1, rows]
    alpha, beta = out[:, 0], out[:, 1]
    log_z = _logsumexp(alpha[lengths - 1, rows], axis=-1)
    node = alpha + beta
    node -= log_z[:, None]
    node[~live] = -np.inf
    node = np.exp(node, out=node)
    if not (np.abs(node.sum(axis=-1) - live) <= 1e-6).all():  # rows past an end sum to 0
        raise FloatingPointError("chain marginals do not sum to one; scores overflow float64")
    return alpha, beta, node, log_z


def forward_backward_batch(
    node_scores: Iterable[np.ndarray],
    trans_weights: np.ndarray,
    allowed: Iterable[np.ndarray] | None = None,
) -> Iterator[ChainPosteriors]:
    """Posteriors of each (T_i, H) score table in turn, each bit for bit
    what a pass over that table alone gives.

    ``allowed`` optionally gives each table a (T_i, H) mask: disallowed
    states get zero marginal mass exactly, and log_z is the log partition
    of the restricted chain.  The tables of a pass are stacked time-major,
    zero-padded past their ends, and each pass is one ``_scaled_messages``
    scan, whose inputs and messages, each (T_max, 2, B, H), count against
    ``_STACK_CELLS`` (a longer table is a pass of its own).  Its messages
    live until the last of its posteriors is dropped; the scratch that
    holds its inputs is allocated once per call and reused by every pass.
    FloatingPointError unless every marginal row sums to 1 within 1e-6.
    """
    trans = _finite("trans_weights", trans_weights)
    scratch = [np.empty(0)]
    masks = itertools.repeat(None) if allowed is None else allowed
    tables = itertools.starmap(_table, zip(node_scores, masks, strict=allowed is not None))
    for group in stacks(tables, lambda scores: (4, *scores.shape)):
        alpha, beta, node, log_z = _stacked(group, trans, scratch)
        for b, scores in enumerate(group):
            t = len(scores)
            yield ChainPosteriors(float(log_z[b]), node[:t, b], scores, alpha[:t, b], beta[:t, b])


def forward_backward(node_scores: np.ndarray, trans_weights: np.ndarray) -> ChainPosteriors:
    """Exact log partition function plus node marginals; FloatingPointError
    when scores too large for float64 keep the marginals from summing to one."""
    return next(forward_backward_batch([node_scores], trans_weights))


def masked_forward_backward(
    node_scores: np.ndarray, trans_weights: np.ndarray, allowed: np.ndarray
) -> ChainPosteriors:
    """Posteriors of the chain restricted to ``allowed`` states per frame.

    Disallowed states receive zero marginal mass exactly; log_z is the
    log partition of the restricted chain.
    """
    return next(forward_backward_batch([node_scores], trans_weights, [allowed]))


def transition_counts(posteriors: ChainPosteriors, trans_weights: np.ndarray) -> np.ndarray:
    """Expected transition counts sum_j P(h_j=a, h_{j+1}=b), an (H, H) table.

    This is the gradient of log Z with respect to ``trans_weights``, which
    must be the transitions the ``posteriors`` were computed with.
    """
    p = posteriors
    ahead = p.node_scores[1:] + p.log_beta[1:]  # (T-1, H): frame j+1 and everything after it
    edges = np.exp(p.log_alpha[:-1, :, None] + trans_weights + ahead[:, None, :] - p.log_z)
    return edges.sum(axis=0)


def viterbi(node_scores: np.ndarray, trans_weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Max-score hidden path and its score; ties go to the lower state index."""
    node_scores = _finite("node_scores", node_scores)
    trans_weights = _finite("trans_weights", trans_weights)
    delta = node_scores + scan(
        -0.0, node_scores, lambda v: np.maximum.reduce(v[:, None] + trans_weights, axis=0)
    )
    # back[j, b]: best state at frame j given state b at frame j+1; argmax
    # takes the first index on ties
    back = np.argmax(delta[:-1, :, None] + trans_weights, axis=1)
    t = delta.shape[0]
    path = np.empty(t, dtype=np.int64)
    path[t - 1] = np.argmax(delta[t - 1])
    for j in range(t - 1, 0, -1):
        path[j - 1] = back[j - 1, path[j]]
    return path, float(delta[t - 1, path[t - 1]])


def _sweep_inputs(scores: np.ndarray, trans: np.ndarray, upstream: np.ndarray,
                  posteriors: ChainPosteriors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One item's (weighted, r, q) for the adjoint's sweeps.  The softmax weights
    r[j, a, b] = P(h_{j+1}=b | h_j=a) and q[j-1, a, b] = P(h_{j-1}=a | h_j=b,
    frames 0..j) cannot underflow: each is one exp of differences of log messages."""
    scores = _finite("node_scores", scores)
    upstream = _finite("grad_node_marginals", upstream)
    if upstream.shape != scores.shape:
        raise ValueError("upstream gradient must match node_scores shape")
    log_alpha, log_beta = posteriors.log_alpha, posteriors.log_beta
    if log_alpha.shape != scores.shape or not np.all(np.isfinite(log_alpha)):
        raise ValueError("posteriors must be forward_backward's output for node_scores")
    marg = posteriors.node_marginals
    weighted = upstream * marg
    r = np.exp(trans + (scores[1:] + log_beta[1:])[:, None, :] - log_beta[:-1, :, None])
    q = np.exp(log_alpha[:-1, :, None] + trans - (log_alpha[1:] - scores[1:])[:, None, :])
    # log Z's adjoint enters at the last frame, which the first sweep never reads
    weighted[-1] -= float(np.sum(weighted)) * marg[-1]
    return weighted, r, q


def fb_adjoint_batch(
    node_scores: Iterable[np.ndarray],
    trans_weights: np.ndarray,
    grad_node_marginals: Iterable[np.ndarray],
    posteriors: Iterable[ChainPosteriors],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``fb_adjoint`` of each item in turn, each bit for bit what a call on
    that item alone gives.  A stack (its r and q, stacked and per item, hold
    4 * B * T_max * H * H <= _STACK_CELLS cells) runs both sweeps in one
    frame loop, each product its item's own (1, H) @ (H, H) or (H, H) @ (H, 1)
    matmul: the forms that give ``v @ r`` and ``q @ v`` bit for bit."""
    trans = _finite("trans_weights", trans_weights)
    items = (_sweep_inputs(scores, trans, upstream, post) for scores, upstream, post
             in zip(node_scores, grad_node_marginals, posteriors, strict=True))
    for group in stacks(items, lambda item: (4, len(item[0]), *trans.shape)):
        t_max, rows = max(len(w) for w, _, _ in group), len(group)
        # out[j + 1] holds the sweeps' inputs at step j until the step replaces them
        out = np.zeros((t_max, 2, rows, len(trans)))
        r, q = np.zeros((2, t_max - 1, rows, *trans.shape))
        for b, (weighted, r_b, q_b) in enumerate(group):
            t = len(weighted)
            out[1:t, 0, b], out[1:t, 1, b] = weighted[:-1], weighted[:0:-1]
            r[:t - 1, b], q[:t - 1, b] = r_b, q_b[::-1]
        out[0, 1] = -0.0
        v = np.empty(out.shape[1:])
        for j in range(t_max - 1):
            # carry[j + 1] = (carry[j] + weighted[j]) @ r[j] from frame 0 up, and
            # s[j + 1] = q[t-2-j] @ (s[j] + weighted[t-1-j]) over the frames reversed
            np.add(out[j], out[j + 1], out=v)
            np.matmul(v[0, :, None, :], r[j], out=out[j + 1, 0, :, None, :])
            np.matmul(q[j], v[1, :, :, None], out=out[j + 1, 1, :, :, None])
        for b, (weighted, r_b, q_b) in enumerate(group):
            t = len(weighted)
            carry, alpha_bar = out[:t, 0, b], weighted + out[:t, 1, b][::-1]
            grad_trans = np.einsum("ja,jab->ab", weighted[:-1] + carry[:-1], r_b)
            grad_trans += np.einsum("jab,jb->ab", q_b, alpha_bar[1:])
            yield carry + alpha_bar, grad_trans


def fb_adjoint(
    node_scores: np.ndarray,
    trans_weights: np.ndarray,
    grad_node_marginals: np.ndarray,
    posteriors: ChainPosteriors,
) -> tuple[np.ndarray, np.ndarray]:
    """Pull an upstream gradient on node marginals back onto the potentials.

    Given dL/d(node_marginals) for any scalar L, and the ``posteriors``
    that ``forward_backward(node_scores, trans_weights)`` returned,
    returns the exact dL/d(node_scores) and dL/d(trans_weights) by
    reversing that pass's recursions over its own messages (nothing is
    recomputed).  Cost O(T * H^2); each sweep carries one vector-matrix
    product per frame.
    """
    return next(fb_adjoint_batch([node_scores], trans_weights, [grad_node_marginals],
                                 [posteriors]))
