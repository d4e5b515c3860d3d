"""Alignment-marginalizing loss over a blank-augmented label sequence.

Given a per-frame label probability table q and a target label sequence
z, the dynamic program sums the products of q over every frame path that
collapses to z (merge adjacent repeats, drop blanks).  The recursions run
in the log domain, a batch's lattices as rows of one padded scan
(``ctc_forward_backward_batch``); the error table is the derivative of
log P(z | x) with respect to the unconstrained entries of q.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence as SequenceT

import numpy as np

from .chain import stacks
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


def check_target(z: SequenceT[int], num_frames: int, num_labels: int, blank_id: int) -> list[int]:
    """``z`` as a list of label ids; ValueError unless each is a real label,
    CtcInfeasibleError if it structurally cannot fit in ``num_frames``."""
    z = [int(a) for a in z]
    for a in z:
        if not 0 <= a < num_labels:
            raise ValueError(f"target label id {a} out of range")
        if a == blank_id:
            raise ValueError("target sequence may not contain the blank")
    needed = min_frames_required(z)
    if needed > num_frames:
        raise CtcInfeasibleError(
            f"target of length {len(z)} needs at least {needed} frames, have {num_frames}"
        )
    return z


def _lattice_inputs(q: np.ndarray, z: SequenceT[int], blank_id: int) -> tuple:
    """One sequence's (augmented target, log emissions (T, S), skip vector)."""
    q = np.asarray(q, dtype=np.float64)
    t, num_labels = q.shape
    if not np.all(np.isfinite(q)) or np.any(q < 0):
        raise ValueError("q must be finite and nonnegative")
    aug = augment_with_blanks(check_target(z, t, num_labels, blank_id), blank_id)
    with np.errstate(divide="ignore"):
        emit = np.log(q)[:, aug]
    # skip[i] = 0 where a path may jump from i to i + 2 (onto a non-blank that
    # differs from the label two back), else -inf; skip[::-1] serves the reversed target
    skip = np.where((aug[2:] != blank_id) & (aug[2:] != aug[:-2]), 0.0, -np.inf)
    return aug, emit, skip


def ctc_forward_backward_batch(
    qs: Iterable[np.ndarray], targets: Iterable[SequenceT[int]], blank_id: int
) -> Iterator[CtcTables]:
    """The lattice of each (q, z) pair in turn, each bit for bit what
    ``ctc_forward_backward`` gives for that pair alone, a bad pair raising its
    error as its stack is drawn.  A stack is one (T_max, 2B, S_max) scan within
    ``chain._STACK_CELLS`` cells, padded with -inf: row b is pair b's alpha, row
    B + b its beta (alpha over the reversed target).  A step is elementwise
    and reads only lower positions, so padding reaches no row."""
    items = (_lattice_inputs(q, z, blank_id) for q, z in zip(qs, targets, strict=True))
    for group in stacks(items, lambda item: (2, *item[1].shape)):
        rows, (t_max, s_max) = len(group), np.max([emit.shape for _, emit, _ in group], axis=0)
        # out[j + 1] holds frame j's emissions until step j adds them in
        out = np.full((t_max, 2 * rows, s_max), -np.inf)
        skips = np.full((2 * rows, max(s_max - 2, 0)), -np.inf)
        for b, (aug, emit, skip) in enumerate(group):
            t, s = emit.shape
            out[1:t, b, :s], out[1:t, rows + b, :s] = emit[:-1], emit[:0:-1, ::-1]
            skips[b, :len(skip)], skips[rows + b, :len(skip)] = skip, skip[::-1]
        out[0, :, :2] = 0.0  # paths start on the first two positions, end on the last two
        jump = np.empty(skips.shape)
        for j in range(t_max - 1):
            # each path stays, advances by one, or jumps two where skips allow
            v = np.add(out[j], out[j + 1], out=out[j + 1])
            np.add(v[:, :-2], skips, out=jump)
            np.logaddexp(v[:, 1:], v[:, :-1], out=v[:, 1:])
            np.logaddexp(v[:, 2:], jump, out=v[:, 2:])
        for b, (aug, emit, _) in enumerate(group):
            t, s = emit.shape
            log_alpha = emit + out[:t, b, :s]
            # the path ends on the last label or the trailing blank
            log_prob = float(np.logaddexp.reduce(log_alpha[-1, -2:]))
            yield CtcTables(aug, log_alpha, out[:t, rows + b, :s][::-1, ::-1], log_prob)


def ctc_forward_backward(q: np.ndarray, z: SequenceT[int], blank_id: int) -> CtcTables:
    """Alignment lattice and log P(z | x) for one sequence.

    q must be nonnegative and finite; it is a probability table when rows
    are normalized, but unnormalized tables are accepted (the path-sum
    semantics extend naturally, which finite-difference checks rely on).
    A target that structurally cannot fit in T frames raises
    CtcInfeasibleError; a target whose every alignment has zero mass
    yields log_prob = -inf rather than an error.
    """
    return next(ctc_forward_backward_batch([q], [z], blank_id))


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

