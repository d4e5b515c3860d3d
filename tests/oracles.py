"""Test oracles: exact answers by enumeration or by identities the fast
code does not use, frame-by-frame loops that the stacked recursions must
equal bit for bit, and the measured gap between the local and exact
gradient modes."""
import numpy as np

from seqcrf.ctc import augment_with_blanks
from seqcrf.features import ModelParams
from seqcrf.trainer import _random_instance, ctc_ldcrf_loss_and_grad

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


def loop_lattice(q, z, blank):
    """(log_alpha, log_beta, log_prob) of one alignment lattice, one frame
    and one direction at a time; beta is alpha over the reversed lattice."""
    aug = augment_with_blanks(z, blank)
    with np.errstate(divide="ignore"):
        emit = np.log(np.asarray(q, dtype=np.float64))[:, aug]
    skip = np.where((aug[2:] != blank) & (aug[2:] != aug[:-2]), 0.0, -np.inf)

    def forward(emit, skip):
        out = np.full(emit.shape, -np.inf)
        out[0, :2] = 0.0
        for j in range(len(emit) - 1):
            v = out[j] + emit[j]
            acc = v.copy()
            acc[1:] = np.logaddexp(acc[1:], v[:-1])
            acc[2:] = np.logaddexp(acc[2:], v[:-2] + skip)
            out[j + 1] = acc
        return out

    log_alpha = emit + forward(emit, skip)
    log_beta = forward(emit[::-1, ::-1], skip[::-1])[::-1, ::-1]
    return log_alpha, log_beta, float(np.logaddexp.reduce(log_alpha[-1, -2:]))


def loop_adjoint(scores, trans, upstream, post):
    """fb_adjoint's two reverse sweeps for one table, one frame at a time,
    as vector-matrix products of 1-D vectors."""
    marg = post.node_marginals
    weighted = upstream * marg
    r = np.exp(trans + (scores[1:] + post.log_beta[1:])[:, None, :] - post.log_beta[:-1, :, None])
    carry = np.empty(scores.shape)
    carry[0] = 0.0
    for j in range(len(scores) - 1):
        carry[j + 1] = (carry[j] + weighted[j]) @ r[j]
    grad_trans = np.einsum("ja,jab->ab", weighted[:-1] + carry[:-1], r)
    q = np.exp(post.log_alpha[:-1, :, None] + trans
               - (post.log_alpha[1:] - scores[1:])[:, None, :])
    weighted[-1] -= float(np.sum(weighted)) * marg[-1]
    back = np.empty(scores.shape)
    back[0] = -0.0
    for j in range(len(scores) - 1):
        back[j + 1] = q[-1 - j] @ (back[j] + weighted[-1 - j])
    alpha_bar = weighted + back[::-1]
    grad_trans += np.einsum("jab,jb->ab", q, alpha_bar[1:])
    return carry + alpha_bar, grad_trans


def frame_posterior_check(tables):
    """Per-frame log-sum-exp of a CTC lattice's alpha+beta; equals
    log_prob at every frame."""
    return np.logaddexp.reduce(tables.log_alpha + tables.log_beta, axis=1)


def local_vs_exact_divergence(
    trials: int = 20,
    seed: int = 0,
    zero_transitions: bool = False,
    transition_scale: float = 1.0,
    label_prior: bool = False,
) -> list[dict]:
    """Measure how far the local gradient mode strays from the exact one.

    Returns one row per trial comparing the state-weight gradient blocks:
    {"trial", "frames", "hidden_states", "max_abs_diff", "max_rel_diff"}.
    With zero transitions the two are analytically equal; with random
    transitions in [-scale, scale] the gap is whatever it is — callers
    report it rather than assert on it.
    """
    rng = np.random.default_rng(seed)
    rows: list[dict] = []
    for i in range(trials):
        seq, params, hidden_map, feature_config, blank_id = _random_instance(rng)
        if zero_transitions:
            trans = np.zeros_like(params.trans_weights)
        else:
            trans = rng.uniform(-transition_scale, transition_scale,
                                size=params.trans_weights.shape)
        params = ModelParams(params.state_weights, trans)
        _, g_exact = ctc_ldcrf_loss_and_grad(
            [seq], params, hidden_map, feature_config, blank_id,
            grad_mode="exact", label_prior=label_prior,
        )
        _, g_local = ctc_ldcrf_loss_and_grad(
            [seq], params, hidden_map, feature_config, blank_id,
            grad_mode="local", label_prior=label_prior,
        )
        n_state = hidden_map.num_states * feature_config.obs_dim
        a = g_exact[:n_state]
        b = g_local[:n_state]
        diff = np.abs(a - b)
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        rows.append(
            {
                "trial": i,
                "frames": seq.num_frames,
                "hidden_states": hidden_map.num_states,
                "max_abs_diff": float(diff.max()),
                "max_rel_diff": float((diff / denom).max()),
            }
        )
    return rows
