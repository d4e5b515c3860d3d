"""Log-space inference over a linear chain of hidden states.

The chain distribution is Gibbs: P(h | x) proportional to
exp(sum_j score[j, h_j] + sum_j trans[h_j, h_{j+1}]), with one shared
transition matrix across all adjacent pairs.  One message pass serves
marginals, the masked (restricted) chain and the adjoint: alpha/beta run
in the log domain with a plain-numpy max-shifted log-sum-exp, so score
magnitudes up to a few hundred cause no overflow, and the messages are
returned with the posteriors so that ``fb_adjoint`` reuses them instead
of recomputing them.

Conventions: trans[a, b] scores a transition from state a at position j
to state b at position j+1; edge_marginals[j, a, b] = P(h_j=a, h_{j+1}=b).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BRUTE_FORCE_LIMIT = 10**6


@dataclass
class ChainPosteriors:
    """Partition function, exact marginals and the messages behind them.

    log_alpha[j] sums paths over frames 0..j (scores of j included);
    log_beta[j] sums frames j+1..T-1.  Enumeration leaves them None.
    """

    log_z: float
    node_marginals: np.ndarray  # (T, H)
    edge_marginals: np.ndarray  # (T-1, H, H)
    log_alpha: np.ndarray | None = None  # (T, H)
    log_beta: np.ndarray | None = None  # (T, H)


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")


def _logsumexp(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Max-shifted log-sum-exp; each reduced slice needs one finite entry."""
    m = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - m).sum(axis=axis)) + np.squeeze(m, axis=axis)


def _posteriors(scores: np.ndarray, trans: np.ndarray) -> ChainPosteriors:
    """Forward/backward log messages and the marginals they give.

    Tolerates -inf entries in scores as long as every frame keeps a
    finite one, so every max below is finite.
    """
    t, h = scores.shape
    log_alpha = np.empty((t, h))
    log_alpha[0] = scores[0]
    for j in range(1, t):
        log_alpha[j] = scores[j] + _logsumexp(log_alpha[j - 1][:, None] + trans, axis=0)
    log_beta = np.zeros((t, h))
    for j in range(t - 2, -1, -1):
        log_beta[j] = _logsumexp(trans + (scores[j + 1] + log_beta[j + 1])[None, :], axis=1)
    log_z = float(_logsumexp(log_alpha[t - 1]))
    node = np.exp(log_alpha + log_beta - log_z)
    ahead = scores[1:] + log_beta[1:]  # (T-1, H): frame j+1 and everything after it
    edge = np.exp(log_alpha[:-1, :, None] + trans + ahead[:, None, :] - log_z)
    return ChainPosteriors(log_z, node, edge, log_alpha, log_beta)


def forward_backward(node_scores: np.ndarray, trans_weights: np.ndarray) -> ChainPosteriors:
    """Exact log partition function plus node and edge marginals."""
    node_scores = np.asarray(node_scores, dtype=np.float64)
    trans_weights = np.asarray(trans_weights, dtype=np.float64)
    _check_finite("node_scores", node_scores)
    _check_finite("trans_weights", trans_weights)
    return _posteriors(node_scores, trans_weights)


def masked_forward_backward(
    node_scores: np.ndarray, trans_weights: np.ndarray, allowed: np.ndarray
) -> ChainPosteriors:
    """Posteriors of the chain restricted to ``allowed`` states per frame.

    Disallowed states receive zero marginal mass exactly; log_z is the
    log partition of the restricted chain.
    """
    node_scores = np.asarray(node_scores, dtype=np.float64)
    trans_weights = np.asarray(trans_weights, dtype=np.float64)
    allowed = np.asarray(allowed, dtype=bool)
    _check_finite("node_scores", node_scores)
    _check_finite("trans_weights", trans_weights)
    if allowed.shape != node_scores.shape:
        raise ValueError("allowed mask must match node_scores shape")
    if not np.all(allowed.any(axis=1)):
        raise ValueError("every frame needs at least one allowed state")
    return _posteriors(np.where(allowed, node_scores, -np.inf), trans_weights)


def restricted_log_partition(
    node_scores: np.ndarray, trans_weights: np.ndarray, allowed: np.ndarray
) -> float:
    """Log of the summed Gibbs weight over paths staying inside ``allowed``."""
    return masked_forward_backward(node_scores, trans_weights, allowed).log_z


def brute_force_posteriors(
    node_scores: np.ndarray, trans_weights: np.ndarray
) -> ChainPosteriors:
    """Posteriors by enumerating every hidden path; test oracle only."""
    node_scores = np.asarray(node_scores, dtype=np.float64)
    trans_weights = np.asarray(trans_weights, dtype=np.float64)
    t, h = node_scores.shape
    n_paths = h**t
    if n_paths > BRUTE_FORCE_LIMIT:
        raise ValueError(f"instance too large to enumerate: {h}^{t} paths")
    idx = np.arange(n_paths)
    paths = (idx[:, None] // h ** np.arange(t - 1, -1, -1)) % h  # (N, T), base-h digits
    log_w = np.zeros(n_paths)
    for j in range(t):
        log_w += node_scores[j, paths[:, j]]
    for j in range(t - 1):
        log_w += trans_weights[paths[:, j], paths[:, j + 1]]
    log_z = float(_logsumexp(log_w))
    w = np.exp(log_w - log_z)
    node = np.empty((t, h))
    for j in range(t):
        node[j] = np.bincount(paths[:, j], weights=w, minlength=h)
    edge = np.empty((max(t - 1, 0), h, h))
    for j in range(t - 1):
        flat = paths[:, j] * h + paths[:, j + 1]
        edge[j] = np.bincount(flat, weights=w, minlength=h * h).reshape(h, h)
    return ChainPosteriors(log_z=log_z, node_marginals=node, edge_marginals=edge)


def viterbi(node_scores: np.ndarray, trans_weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Max-score hidden path and its score; ties go to the lower state index."""
    node_scores = np.asarray(node_scores, dtype=np.float64)
    trans_weights = np.asarray(trans_weights, dtype=np.float64)
    _check_finite("node_scores", node_scores)
    _check_finite("trans_weights", trans_weights)
    t, h = node_scores.shape
    delta = node_scores[0].copy()
    back = np.zeros((t, h), dtype=np.int64)
    for j in range(1, t):
        cand = delta[:, None] + trans_weights  # (from, to)
        back[j] = np.argmax(cand, axis=0)  # first index on ties
        delta = node_scores[j] + cand[back[j], np.arange(h)]
    path = np.zeros(t, dtype=np.int64)
    path[t - 1] = int(np.argmax(delta))
    for j in range(t - 1, 0, -1):
        path[j - 1] = back[j, path[j]]
    return path, float(delta[path[t - 1]])


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
    recomputed).  Cost O(T * H^2).  Each sweep's softmax weights come
    from differences of log messages in one exp, so they cannot
    underflow; the loops carry only one vector-matrix product per frame.
    """
    node_scores = np.asarray(node_scores, dtype=np.float64)
    trans_weights = np.asarray(trans_weights, dtype=np.float64)
    upstream = np.asarray(grad_node_marginals, dtype=np.float64)
    _check_finite("node_scores", node_scores)
    _check_finite("trans_weights", trans_weights)
    _check_finite("grad_node_marginals", upstream)
    if upstream.shape != node_scores.shape:
        raise ValueError("upstream gradient must match node_scores shape")
    log_alpha, log_beta = posteriors.log_alpha, posteriors.log_beta
    if (log_alpha is None or log_alpha.shape != node_scores.shape
            or not np.all(np.isfinite(log_alpha))):
        raise ValueError("posteriors must be forward_backward's output for node_scores")

    t = node_scores.shape[0]
    marg = posteriors.node_marginals
    weighted = upstream * marg

    # reverse sweep of the backward recursion (computed from t-2 down to 0,
    # so adjoints propagate 0 -> t-2) through the row-softmax weights
    # r[j, a, b] = P(h_{j+1}=b | h_j=a); beta_bar = weighted + carry
    r = np.exp(
        trans_weights + (node_scores[1:] + log_beta[1:])[:, None, :] - log_beta[:-1, :, None]
    )
    carry = np.zeros_like(weighted)
    for j in range(t - 1):
        carry[j + 1] = (weighted[j] + carry[j]) @ r[j]
    grad_trans = np.einsum("ja,jab->ab", weighted[:-1] + carry[:-1], r)

    # reverse sweep of the forward recursion through the column-softmax
    # weights q[j-1, a, b] = P(h_{j-1}=a | h_j=b, frames 0..j); log Z's
    # adjoint enters at the last frame
    q = np.exp(
        log_alpha[:-1, :, None] + trans_weights - (log_alpha[1:] - node_scores[1:])[:, None, :]
    )
    alpha_bar = weighted.copy()
    alpha_bar[t - 1] -= float(np.sum(weighted)) * marg[t - 1]
    for j in range(t - 1, 0, -1):
        alpha_bar[j - 1] += q[j - 1] @ alpha_bar[j]
    grad_trans += np.einsum("jab,jb->ab", q, alpha_bar[1:])

    return carry + alpha_bar, grad_trans
