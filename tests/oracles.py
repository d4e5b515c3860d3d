"""Test oracles: exact answers by enumeration or by identities the fast
code does not use."""
import numpy as np

BRUTE_FORCE_LIMIT = 10**6


def lse(x, axis=None):
    """Max-shifted log-sum-exp; each reduced slice needs one finite entry."""
    m = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - m).sum(axis=axis)) + np.squeeze(m, axis=axis)


def brute_force_posteriors(node_scores, trans_weights):
    """(log Z, node marginals (T, H), edge marginals (T-1, H, H)) of a chain,
    by enumerating every hidden path."""
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
    log_z = float(lse(log_w))
    w = np.exp(log_w - log_z)
    node = np.empty((t, h))
    for j in range(t):
        node[j] = np.bincount(paths[:, j], weights=w, minlength=h)
    edge = np.empty((max(t - 1, 0), h, h))
    for j in range(t - 1):
        flat = paths[:, j] * h + paths[:, j + 1]
        edge[j] = np.bincount(flat, weights=w, minlength=h * h).reshape(h, h)
    return log_z, node, edge


def frame_posterior_check(tables):
    """Per-frame log-sum-exp of a CTC lattice's alpha+beta; equals
    log_prob at every frame."""
    return np.logaddexp.reduce(tables.log_alpha + tables.log_beta, axis=1)
