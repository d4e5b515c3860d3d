"""Alignment-marginalizing loss over a blank-augmented label sequence.

Given a per-frame label probability table q and a target label sequence
z, the dynamic program sums the products of q over every frame path that
collapses to z (merge adjacent repeats, drop blanks).  The recursions run
in the log domain; the error table is the derivative of log P(z | x)
with respect to the unconstrained entries of q.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence as SequenceT

import numpy as np

from .chain import scan
from .seqdata import collapse

Q_FLOOR = 1e-300


class CtcInfeasibleError(ValueError):
    """Target sequence cannot be aligned within the available frames."""


@dataclass
class CtcTables:
    """Log-domain alignment lattice over the blank-augmented target."""

    augmented: np.ndarray  # (2m+1,) label ids, blanks interleaved
    log_alpha: np.ndarray  # (T, 2m+1)
    log_beta: np.ndarray  # (T, 2m+1); alpha+beta counts each frame's emission once
    log_prob: float


def augment_with_blanks(z: SequenceT[int], blank_id: int) -> np.ndarray:
    """[blank, z1, blank, z2, ..., zm, blank]."""
    out = np.full(2 * len(z) + 1, blank_id, dtype=np.int64)
    out[1::2] = np.asarray(z, dtype=np.int64)
    return out


def min_frames_required(z: SequenceT[int]) -> int:
    """Shortest frame path mapping to z: one frame per label plus a
    separating blank between equal neighbours."""
    repeats = sum(1 for a, b in zip(z, z[1:]) if a == b)
    return len(z) + repeats


def _validate_target(z: SequenceT[int], num_labels: int, blank_id: int) -> list[int]:
    z = [int(a) for a in z]
    for a in z:
        if not 0 <= a < num_labels:
            raise ValueError(f"target label id {a} out of range")
        if a == blank_id:
            raise ValueError("target sequence may not contain the blank")
    return z


def _lattice_step(prev: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """One frame of the lattice: each path stays on its position, advances
    by one, or jumps two where ``skip`` allows it."""
    acc = prev.copy()
    acc[1:] = np.logaddexp(acc[1:], prev[:-1])
    acc[2:] = np.logaddexp(acc[2:], prev[:-2] + skip)
    return acc


def ctc_forward_backward(q: np.ndarray, z: SequenceT[int], blank_id: int) -> CtcTables:
    """Alignment lattice and log P(z | x) for one sequence.

    q must be nonnegative and finite; it is a probability table when rows
    are normalized, but unnormalized tables are accepted (the path-sum
    semantics extend naturally, which finite-difference checks rely on).
    A target that structurally cannot fit in T frames raises
    CtcInfeasibleError; a target whose every alignment has zero mass
    yields log_prob = -inf rather than an error.
    """
    q = np.asarray(q, dtype=np.float64)
    t, num_labels = q.shape
    if not np.all(np.isfinite(q)) or np.any(q < 0):
        raise ValueError("q must be finite and nonnegative")
    z = _validate_target(z, num_labels, blank_id)
    needed = min_frames_required(z)
    if needed > t:
        raise CtcInfeasibleError(
            f"target of length {len(z)} needs at least {needed} frames, have {t}"
        )
    aug = augment_with_blanks(z, blank_id)
    s = aug.shape[0]
    with np.errstate(divide="ignore"):
        emit = np.log(q)[:, aug]  # (T, S)

    # skip[i] is 0 if the path may jump from position i to i + 2 (onto a
    # non-blank differing from the label two back), else -inf.  Reversed, it
    # is the skip vector of the reversed target, whose lattice beta runs on.
    skip = np.where((aug[2:] != blank_id) & (aug[2:] != aug[:-2]), 0.0, -np.inf)
    skip_rev = skip[::-1]
    first = np.full(s, -np.inf)
    first[:2] = 0.0  # paths start on the first two positions and, reversed, end on the last two
    log_alpha = emit + scan(first, emit, lambda _, v: _lattice_step(v, skip))
    # the path ends on the last label or the trailing blank
    log_prob = float(np.logaddexp.reduce(log_alpha[-1, -2:]))
    log_beta = scan(first, emit[::-1, ::-1], lambda _, v: _lattice_step(v, skip_rev))[::-1, ::-1]
    return CtcTables(augmented=aug, log_alpha=log_alpha, log_beta=log_beta, log_prob=log_prob)


def ctc_error_table(tables: CtcTables, q: np.ndarray) -> np.ndarray:
    """T x L table of d log P(z | x) / d q[j, a], zero off the target labels.

    Entries where q is exactly zero are floored at 1e-300 before the
    division; alignment mass cannot pass through such cells, so the
    result there is 0 (a warning flags the degeneracy).
    """
    q = np.asarray(q, dtype=np.float64)
    if not np.isfinite(tables.log_prob):
        raise ValueError("log_prob is not finite; no gradient to propagate")
    t, num_labels = q.shape
    gamma = tables.log_alpha + tables.log_beta  # (T, S)
    log_num = np.full((t, num_labels), -np.inf)
    np.logaddexp.at(log_num.T, tables.augmented, gamma.T)  # positions in order, as a loop would
    used = np.unique(tables.augmented)
    if np.any(q[:, used] == 0.0):
        warnings.warn(
            "zero label probability on a target label; clamping at 1e-300",
            RuntimeWarning,
            stacklevel=2,
        )
    log_q = np.log(np.maximum(q, Q_FLOOR))
    return np.exp(log_num - log_q - tables.log_prob)


def best_path_decode(q: np.ndarray, blank_id: int) -> list[int]:
    """Collapse of the per-frame argmax path; greedy segment-level output."""
    q = np.asarray(q, dtype=np.float64)
    path = np.argmax(q, axis=1)
    return collapse([int(a) for a in path], blank_id)

