"""Input generator of the benchmark, independent of ``seqcrf.generate_synthetic``.

It writes the package's documented JSONL format: a header line with
``labels``, ``dim`` and a ``meta`` object that carries the segment
boundaries of every sequence under ``segments/<id>`` (what
``pretrain_finetune`` reads), then one line per sequence with ``id``,
``frames``, ``frame_labels`` and ``label_seq``.

Keeping the generator here keeps the benchmark's inputs fixed when the
package's own generator or loader changes.  The class prototypes and the
training split come from a fixed task seed, so every workload seed trains
the same model; the workload seed draws the held-out split.  Held-out
accuracy then differs between seeds only by the held-out sample, not by
how well one epoch happened to fit a different training set.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

TASK_SEED = 20160626


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload's generated data."""

    classes: int
    dim: int
    seg_len: tuple[int, int]
    segments: tuple[int, int]
    gap: tuple[int, int] | None
    noise: float
    train_sequences: int
    heldout_sequences: int


def label_names(classes: int) -> list[str]:
    return [chr(ord("A") + i) for i in range(classes)]


def _prototypes(shape: Shape) -> dict[str, np.ndarray]:
    """Smooth per-class trajectories: a quadratic plus one sinusoid per dimension."""
    rng = np.random.default_rng([TASK_SEED, shape.classes, shape.dim])
    return {
        "poly": rng.uniform(-1.0, 1.0, size=(shape.classes, shape.dim, 3)),
        "amp": rng.uniform(0.5, 1.5, size=(shape.classes, shape.dim)),
        "freq": rng.integers(1, 3, size=(shape.classes, shape.dim)).astype(np.float64),
        "phase": rng.uniform(0.0, 2.0 * math.pi, size=(shape.classes, shape.dim)),
    }


def _segment(protos: dict[str, np.ndarray], label: int, length: int) -> np.ndarray:
    u = np.linspace(0.0, 1.0, length)[:, None]
    poly = protos["poly"][label]
    curve = poly[:, 0] + poly[:, 1] * u + poly[:, 2] * u**2
    return curve + protos["amp"][label] * np.sin(
        2.0 * math.pi * protos["freq"][label] * u + protos["phase"][label]
    )


def collapse(labels: list[str]) -> list[str]:
    """Merge runs of equal adjacent labels."""
    out: list[str] = []
    for a in labels:
        if not out or out[-1] != a:
            out.append(a)
    return out


def write_split(shape: Shape, seed: int, split: str, path: str) -> str:
    """Write the "train" or "heldout" split to ``path``; return its SHA-256.

    ``seed`` draws the held-out split; the training split is the task's."""
    train = split == "train"
    count = shape.train_sequences if train else shape.heldout_sequences
    rng = np.random.default_rng([TASK_SEED, 0] if train else [seed, 1])
    protos = _prototypes(shape)
    names = label_names(shape.classes)
    meta: dict[str, str] = {}
    lines: list[str] = []
    # segment counts spread evenly over their range and every class used
    # equally often, so the length and class mix of a split do not drift from
    # seed to seed; the seed draws the order, the lengths and the noise
    seg_counts = np.linspace(shape.segments[0], shape.segments[1], count).round().astype(int)
    classes = iter(rng.permutation(np.resize(np.arange(shape.classes), seg_counts.sum())))
    for i in range(count):
        sid = f"{split}{i:04d}"
        parts: list[np.ndarray] = []
        frame_labels: list[str] = []
        bounds: list[list] = []
        pos = 0
        for k in range(seg_counts[i]):
            if k > 0 and shape.gap is not None:
                # rest frames near zero, labelled like the previous segment
                gap = int(rng.integers(shape.gap[0], shape.gap[1] + 1))
                parts.append(rng.normal(0.0, shape.noise, size=(gap, shape.dim)))
                frame_labels.extend([frame_labels[-1]] * gap)
                pos += gap
            cls = int(next(classes))
            length = int(rng.integers(shape.seg_len[0], shape.seg_len[1] + 1))
            parts.append(_segment(protos, cls, length)
                         + rng.normal(0.0, shape.noise, size=(length, shape.dim)))
            frame_labels.extend([names[cls]] * length)
            bounds.append([pos, pos + length, names[cls]])
            pos += length
        frames = np.round(np.vstack(parts), 6)
        meta[f"segments/{sid}"] = json.dumps(bounds, separators=(",", ":"))
        lines.append(json.dumps(
            {"id": sid, "frames": frames.tolist(), "frame_labels": frame_labels,
             "label_seq": collapse(frame_labels)},
            sort_keys=True, separators=(",", ":"),
        ))
    header = json.dumps({"labels": names, "dim": shape.dim, "meta": meta},
                        sort_keys=True, separators=(",", ":"))
    data = ("\n".join([header] + lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
