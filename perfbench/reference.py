"""Plain log-domain forward-backward, the benchmark's own oracle.

It shares no code with ``seqcrf.chain``: one frame at a time, with a
max-shifted log-sum-exp written out here.  It runs in extended precision
(``np.longdouble``, 64-bit mantissa on x86-64), so its own rounding stays
far below the 1e-9 marginal tolerance even where log Z is near 1e5 and a
float64 recursion drifts by about that much.
"""
from __future__ import annotations

import numpy as np


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.sum(np.exp(x - m), axis=axis))


def log_forward_backward(scores: np.ndarray, trans: np.ndarray) -> tuple[float, np.ndarray]:
    """log Z and the (T, H) node marginals of the chain with these potentials."""
    scores = np.asarray(scores, dtype=np.longdouble)
    trans = np.asarray(trans, dtype=np.longdouble)
    t, h = scores.shape
    alpha = np.empty((t, h), dtype=np.longdouble)
    beta = np.zeros((t, h), dtype=np.longdouble)
    alpha[0] = scores[0]
    for j in range(1, t):
        alpha[j] = scores[j] + _lse(alpha[j - 1][:, None] + trans, axis=0)
    for j in range(t - 2, -1, -1):
        beta[j] = _lse(trans + (scores[j + 1] + beta[j + 1])[None, :], axis=1)
    log_z = _lse(alpha[t - 1], axis=0)
    return float(log_z), np.exp(alpha + beta - log_z).astype(np.float64)
