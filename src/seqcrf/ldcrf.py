"""Latent-dynamic layer: label marginals from hidden-state posteriors,
the frame-supervised training objective, and frame decoding.

Each label owns a contiguous block of hidden states; summing node
marginals within a block gives the per-frame label probability.  With one
state per label the model degenerates to a plain linear-chain CRF, which
is how the CRF baseline is realized.
"""
from __future__ import annotations

import numpy as np

from .chain import (
    ChainPosteriors,
    _finite,
    _stacked,
    forward_backward,
    stacks,
    transition_counts,
    viterbi,
)
from .features import FeatureConfig, HiddenStateMap, ModelParams, node_scores, observation_matrix
from .seqdata import Sequence


def frame_label_marginals(posteriors: ChainPosteriors, hidden_map: HiddenStateMap) -> np.ndarray:
    """T x L table q with q[j, a] = P(label at frame j is a)."""
    t, h = posteriors.node_marginals.shape
    if h != hidden_map.num_states:
        raise ValueError(
            f"posterior state count {h} != hidden map state count {hidden_map.num_states}"
        )
    return posteriors.node_marginals.reshape(
        t, hidden_map.num_labels, hidden_map.states_per_label
    ).sum(axis=2)


def label_marginals(
    seq: Sequence, params: ModelParams, hidden_map: HiddenStateMap, config: FeatureConfig
) -> np.ndarray:
    """Convenience: q table straight from a sequence."""
    posteriors = forward_backward(node_scores(seq, params, config), params.trans_weights)
    return frame_label_marginals(posteriors, hidden_map)


def ldcrf_frame_objective(
    batch: list[Sequence],
    params: ModelParams,
    hidden_map: HiddenStateMap,
    config: FeatureConfig,
    l2: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Negative frame-supervised log-likelihood plus L2, with exact gradient.

    Per sequence the data term is free log Z minus the log partition of
    the chain restricted to each frame's labeled block, so for one
    sequence and l2 = 0 the loss is exactly -log P(frame labeling | x).
    The gradient is the classic difference of feature expectations under
    the free chain and the label-restricted chain, plus 2*l2*theta,
    returned flat in the ModelParams layout.

    Each run of ``stacks`` (two tables per sequence) is one ``_stacked``
    pass over its B free and B restricted tables, padded once, and its
    transition counts, free minus restricted, are one max-shifted product
    exp(trans - max trans) * (A^T B).  Transitions spread over more than
    600, where that product could underflow, take ``transition_counts``.
    """
    for seq in batch:
        if seq.frame_labels is None:
            raise ValueError(f"sequence {seq.id!r} has no frame_labels")
    trans, owner = _finite("trans_weights", params.trans_weights), hidden_map.state_owner()
    h, top, exp_form, scratch = len(trans), trans.max(), np.ptp(trans) > 600, [np.empty(0)]
    grad_state, grad_trans, loss = np.zeros_like(params.state_weights), np.zeros_like(trans), 0.0
    items = [(seq.frame_labels, observation_matrix(seq, config)) for seq in batch]
    # each sequence's two tables count (4, T, H) cells apiece, as in forward_backward_batch
    for group in stacks(items, lambda item: (8, len(item[1]), h)):
        b, lengths = len(group), np.array([len(o) for _, o in group])
        obs, labels = np.zeros((lengths.max(), b, config.obs_dim)), np.full((lengths.max(), b), -1)
        for k, (y, o) in enumerate(group):
            obs[:len(o), k], labels[:len(o), k] = o, y
        live = np.arange(len(obs))[:, None] < lengths  # (T_max, B)
        free = _finite("node_scores", obs @ params.state_weights.T)
        allowed = (owner == labels[..., None]) | ~live[..., None]
        if not allowed.any(axis=-1).all():
            raise ValueError("every frame needs at least one allowed state")
        scores = np.concatenate([free, np.where(allowed, free, -np.inf)], axis=1)  # 0 past ends
        tables = [scores[:n, k] for k, n in enumerate(np.tile(lengths, 2))]
        alpha, beta, node, log_z = _stacked(tables, trans, scratch)
        loss += float(log_z[:b].sum() - log_z[b:].sum())
        grad_state += (node[:, :b] - node[:, b:]).reshape(-1, h).T @ obs.reshape(-1, obs.shape[2])
        if exp_form:
            for k, table in enumerate(tables):
                n = len(table)
                post = ChainPosteriors(log_z[k], node[:n, k], table, alpha[:n, k], beta[:n, k])
                grad_trans += (1 if k < b else -1) * transition_counts(post, trans)
            continue
        fwd, ahead = alpha[:-1], scores[1:] + beta[1:]  # (T_max - 1, 2B, H)
        fwd_max, ahead_max = fwd.max(axis=-1), ahead.max(axis=-1)
        # an edge's mass exp(alpha[j, a] + trans[a, c] + ahead[j, c] - log Z) is at most 1,
        # so the shift exp(fwd_max + ahead_max + top - log Z) is at most exp(ptp(trans))
        shift = np.exp(np.where(np.tile(live[1:], 2), fwd_max + ahead_max + top - log_z, -np.inf))
        shift[:, b:] *= -1.0
        left = np.exp(fwd - fwd_max[..., None]).reshape(-1, h)
        right = (np.exp(ahead - ahead_max[..., None]) * shift[..., None]).reshape(-1, h)
        grad_trans += np.exp(trans - top) * (left.T @ right)
    theta = params.flatten()
    loss += l2 * float(theta @ theta)
    return loss, ModelParams(grad_state, grad_trans).flatten() + 2.0 * l2 * theta


def decode_frames_viterbi(
    seq: Sequence, params: ModelParams, hidden_map: HiddenStateMap, config: FeatureConfig
) -> list[int]:
    """Joint most-probable hidden path, mapped to owning labels."""
    path, _ = viterbi(node_scores(seq, params, config), params.trans_weights)
    return hidden_map.state_owner()[path].tolist()
