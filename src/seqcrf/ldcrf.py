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
    forward_backward,
    forward_backward_batch,
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
    returned flat in the ModelParams layout.  Both chains of every
    sequence go through one forward_backward_batch call, each sequence's
    free table right before its restricted one.
    """
    grad_state = np.zeros_like(params.state_weights)
    grad_trans = np.zeros_like(params.trans_weights)
    loss = 0.0
    for seq in batch:
        if seq.frame_labels is None:
            raise ValueError(f"sequence {seq.id!r} has no frame_labels")
    obs = [observation_matrix(seq, config) for seq in batch]
    owner = hidden_map.state_owner()
    tables, masks = [], []
    for seq, o in zip(batch, obs):
        scores = o @ params.state_weights.T
        tables += [scores, scores]
        masks += [None, owner == np.asarray(seq.frame_labels)[:, None]]  # (T, H)
    posts = iter(forward_backward_batch(tables, params.trans_weights, masks))
    for o, free, restricted in zip(obs, posts, posts):
        loss += free.log_z - restricted.log_z
        diff = free.node_marginals - restricted.node_marginals  # (T, H)
        grad_state += diff.T @ o
        grad_trans += (transition_counts(free, params.trans_weights)
                       - transition_counts(restricted, params.trans_weights))
    theta = params.flatten()
    loss += l2 * float(theta @ theta)
    return loss, ModelParams(grad_state, grad_trans).flatten() + 2.0 * l2 * theta


def decode_frames_viterbi(
    seq: Sequence, params: ModelParams, hidden_map: HiddenStateMap, config: FeatureConfig
) -> list[int]:
    """Joint most-probable hidden path, mapped to owning labels."""
    path, _ = viterbi(node_scores(seq, params, config), params.trans_weights)
    return hidden_map.state_owner()[path].tolist()
