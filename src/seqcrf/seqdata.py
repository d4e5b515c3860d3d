"""Sequence data model, JSONL file I/O, synthetic generation, folds and metrics.

A dataset is a list of variable-length sequences of real-valued frame
vectors.  Each sequence may carry dense per-frame labels, a collapsed
(segment-level) label sequence, or both.  The label universe always ends
with one reserved blank label that the toolkit appends; data files never
mention it.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import string
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence as SequenceT

import numpy as np

BLANK_NAME = "<blank>"

SEGMENTS_META_PREFIX = "segments/"


class DatasetFormatError(ValueError):
    """Raised when a dataset or checkpoint file, or an in-memory dataset,
    violates its format."""


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelSet:
    """Ordered label names; the reserved blank label is always the last."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(n, str) for n in self.names):
            raise DatasetFormatError("label names must be strings")
        if len(set(self.names)) != len(self.names):
            raise DatasetFormatError("label names must be unique")
        if len(self.names) < 2 or self.names[-1] != BLANK_NAME:
            raise DatasetFormatError(f"a label set is one or more labels, then {BLANK_NAME!r}")

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "LabelSet":
        """Build a label set from dataset-supplied names, appending the blank."""
        names = tuple(names)
        if BLANK_NAME in names:
            raise DatasetFormatError(
                f"label name {BLANK_NAME!r} is reserved for the blank label"
            )
        return cls(names + (BLANK_NAME,))

    @property
    def num_labels(self) -> int:
        """Total label count, blank included."""
        return len(self.names)

    @property
    def blank_id(self) -> int:
        """Index of the blank label: the last one."""
        return len(self.names) - 1

    @property
    def real_names(self) -> tuple[str, ...]:
        """Label names as they appear in data files (blank excluded)."""
        return self.names[:-1]

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DatasetFormatError(f"unknown label name {name!r}") from None

    def name_of(self, label_id: int) -> str:
        return self.names[label_id]


@dataclass
class Sequence:
    """One data sequence: a T x d frame matrix plus optional labelings.

    ``frame_labels`` is a dense labeling (one id per frame, never blank);
    ``label_seq`` is the collapsed segment-level labeling with length
    m <= T.  Label-range and blank constraints are checked against a
    LabelSet at the Dataset level; this class only validates shape.
    """

    id: str
    frames: np.ndarray
    frame_labels: list[int] | None = None
    label_seq: list[int] | None = None

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1 or self.frames.shape[1] < 1:
            raise DatasetFormatError(
                f"sequence {self.id!r}: frames must be a T x d matrix with T >= 1, d >= 1"
            )
        if self.frame_labels is not None:
            self.frame_labels = [int(a) for a in self.frame_labels]
            if len(self.frame_labels) != self.num_frames:
                raise DatasetFormatError(
                    f"sequence {self.id!r}: frame_labels length "
                    f"{len(self.frame_labels)} != number of frames {self.num_frames}"
                )
        if self.label_seq is not None:
            self.label_seq = [int(a) for a in self.label_seq]
            if len(self.label_seq) > self.num_frames:
                raise DatasetFormatError(
                    f"sequence {self.id!r}: label_seq longer than the sequence"
                )

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def _check_labels(seq: Sequence, label_set: LabelSet) -> None:
    """Label ids in range and never blank, no adjacent repeat in label_seq,
    and label_seq the collapse of frame_labels when both are given."""
    blank = label_set.blank_id
    for name, labels in (("frame_labels", seq.frame_labels), ("label_seq", seq.label_seq)):
        if labels is None:
            continue
        for a in labels:
            if not 0 <= a < label_set.num_labels:
                raise DatasetFormatError(f"sequence {seq.id!r}: label id {a} out of range")
            if a == blank:
                raise DatasetFormatError(
                    f"sequence {seq.id!r}: {name} may not contain the blank label"
                )
    if seq.label_seq is not None and any(
            a == b for a, b in zip(seq.label_seq, seq.label_seq[1:])):
        raise DatasetFormatError(
            f"sequence {seq.id!r}: label_seq repeats a label in adjacent positions"
        )
    if seq.frame_labels is not None and seq.label_seq is not None:
        if collapse(seq.frame_labels, blank) != seq.label_seq:
            raise DatasetFormatError(
                f"sequence {seq.id!r}: label_seq is not the collapse of frame_labels"
            )


@dataclass
class Dataset:
    """A label set, a list of sequences, and free-form string metadata."""

    label_set: LabelSet
    sequences: list[Sequence]
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.sequences:
            raise DatasetFormatError("dataset contains no sequences")
        dim = self.sequences[0].dim
        seen_ids: set[str] = set()
        for seq in self.sequences:
            if seq.dim != dim:
                raise DatasetFormatError(
                    f"sequence {seq.id!r}: dimension {seq.dim} != dataset dimension {dim}"
                )
            if seq.id in seen_ids:
                raise DatasetFormatError(f"duplicate sequence id {seq.id!r}")
            seen_ids.add(seq.id)
            _check_labels(seq, self.label_set)

    @property
    def dim(self) -> int:
        return self.sequences[0].dim

    def subset(self, ids: Iterable[str]) -> "Dataset":
        """New dataset restricted to the given sequence ids (order preserved)."""
        wanted = set(ids)
        return Dataset(
            label_set=self.label_set,
            sequences=[s for s in self.sequences if s.id in wanted],
            meta=dict(self.meta),
        )


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every sequence id to one of k folds."""

    k: int
    assignments: dict[str, int]
    seed: int

    def fold_ids(self, fold: int) -> list[str]:
        return [sid for sid, f in self.assignments.items() if f == fold]

    def split(self, dataset: Dataset, fold: int) -> tuple[Dataset, Dataset]:
        """(train, test) datasets where ``fold`` is held out."""
        test_ids = set(self.fold_ids(fold))
        train = dataset.subset(s.id for s in dataset.sequences if s.id not in test_ids)
        test = dataset.subset(test_ids)
        return train, test


# ---------------------------------------------------------------------------
# Collapse map
# ---------------------------------------------------------------------------


def collapse(labels: SequenceT[int], blank_id: int | None = None) -> list[int]:
    """Merge runs of identical adjacent labels, then drop the blank.

    This is the standard many-to-one map from frame-level paths to
    segment-level label sequences; a blank between two identical labels
    keeps both occurrences.
    """
    merged: list[int] = []
    for a in labels:
        if not merged or merged[-1] != a:
            merged.append(int(a))
    if blank_id is None:
        return merged
    return [a for a in merged if a != blank_id]


# ---------------------------------------------------------------------------
# File I/O (JSON Lines)
# ---------------------------------------------------------------------------


def _parse_header(obj: dict, path: str, lineno: int) -> tuple[LabelSet, int, dict[str, str]]:
    where = f"{path}: line {lineno}"
    if "labels" not in obj or "dim" not in obj:
        raise DatasetFormatError(f"{where}: header must carry 'labels' and 'dim'")
    labels = obj["labels"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise DatasetFormatError(f"{where}: 'labels' must be an array of strings")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DatasetFormatError(f"{where}: 'dim' must be a positive integer")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise DatasetFormatError(f"{where}: 'meta' must be an object")
    meta = {str(k): str(v) for k, v in meta.items()}
    return LabelSet.from_names(labels), dim, meta


def load_dataset(path: str | os.PathLike) -> Dataset:
    """Read a JSONL dataset: one header line, then one sequence per line."""
    path = os.fspath(path)
    label_set: LabelSet | None = None
    dim = 0
    meta: dict[str, str] = {}
    sequences: list[Sequence] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from None
            if not isinstance(obj, dict):
                raise DatasetFormatError(f"{path}: line {lineno}: expected a JSON object")
            if label_set is None:
                label_set, dim, meta = _parse_header(obj, path, lineno)
                continue
            sequences.append(_parse_sequence(obj, label_set, dim, path, lineno))
    if label_set is None:
        raise DatasetFormatError(f"{path}: missing dataset header line")
    if not sequences:
        raise DatasetFormatError(f"{path}: dataset contains no sequences")
    return Dataset(label_set=label_set, sequences=sequences, meta=meta)


def _parse_sequence(
    obj: dict, label_set: LabelSet, dim: int, path: str, lineno: int
) -> Sequence:
    where = f"{path}: line {lineno}"
    if "id" not in obj or "frames" not in obj:
        raise DatasetFormatError(f"{where}: sequence must carry 'id' and 'frames'")
    if not isinstance(obj["id"], str):
        raise DatasetFormatError(f"{where}: 'id' must be a string")
    rows = obj["frames"]
    # exact JSON types: numpy alone would read booleans and numeric strings as numbers
    if not (type(rows) is list and rows and all(type(row) is list for row in rows)
            and {type(v) for row in rows for v in row} <= {int, float}):
        raise DatasetFormatError(f"{where}: frames must be a nonempty array of rows of numbers")
    try:
        frames = np.asarray(rows, dtype=np.float64)
    except (ValueError, OverflowError) as exc:  # ragged rows, an int beyond float64
        raise DatasetFormatError(f"{where}: bad frames: {exc}") from None
    if frames.shape[1] != dim:
        raise DatasetFormatError(
            f"{where}: frame dimension {frames.shape[1]} != declared dim {dim}"
        )
    if not np.all(np.isfinite(frames)):
        raise DatasetFormatError(f"{where}: frames must be finite numbers")

    def to_ids(key: str) -> list[int] | None:
        names = obj.get(key)
        if names is None:
            return None
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise DatasetFormatError(f"{where}: '{key}' must be an array of label names")
        try:
            return [label_set.id_of(n) for n in names]
        except DatasetFormatError as exc:
            raise DatasetFormatError(f"{where}: {exc}") from None

    try:
        seq = Sequence(
            id=obj["id"],
            frames=frames,
            frame_labels=to_ids("frame_labels"),
            label_seq=to_ids("label_seq"),
        )
        _check_labels(seq, label_set)
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{where}: {exc}") from None
    return seq


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write a file via temp-then-rename so readers never see partial output."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write the JSONL representation; deterministic byte-for-byte."""
    lines = []
    header: dict = {"labels": list(dataset.label_set.real_names), "dim": dataset.dim}
    if dataset.meta:
        header["meta"] = dataset.meta
    lines.append(json.dumps(header, sort_keys=True, separators=(",", ":")))
    names = dataset.label_set.names
    for seq in dataset.sequences:
        obj: dict = {"id": seq.id, "frames": [list(row) for row in seq.frames]}
        if seq.frame_labels is not None:
            obj["frame_labels"] = [names[a] for a in seq.frame_labels]
        if seq.label_seq is not None:
            obj["label_seq"] = [names[a] for a in seq.label_seq]
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic class-trajectory generator.

    Each class owns a smooth prototype trajectory in R^dim (random
    low-order polynomial plus one sinusoid per dimension).  Sequences
    concatenate 3-5 randomly chosen class segments by default, with
    additive Gaussian noise.  ``gap_len_range`` optionally inserts short
    low-amplitude "rest" gaps between segments; gap frames inherit the
    preceding segment's label so dense labels stay blank-free.
    """

    classes: int = 6
    dim: int = 4
    num_sequences: int = 120
    seg_len_range: tuple[int, int] = (8, 16)
    segments_range: tuple[int, int] = (3, 5)
    noise: float = 0.3
    gap_len_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.classes < 2:
            raise ValueError("need at least 2 classes")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.num_sequences < 1:
            raise ValueError("num_sequences must be >= 1")
        for name, rng_ in (("seg_len_range", self.seg_len_range),
                           ("segments_range", self.segments_range),
                           ("gap_len_range", self.gap_len_range)):
            if rng_ is None:
                continue
            lo, hi = rng_
            if lo > hi or lo < 1:
                raise ValueError(f"invalid {name}: ({lo}, {hi})")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")


def default_label_names(classes: int) -> list[str]:
    if classes <= 26:
        return list(string.ascii_uppercase[:classes])
    return [f"c{i}" for i in range(classes)]


class _Prototypes:
    """Per-class smooth trajectories evaluated at any segment length."""

    def __init__(self, classes: int, dim: int, rng: np.random.Generator) -> None:
        # quadratic coefficients plus one sinusoid per (class, dim)
        self.poly = rng.uniform(-1.0, 1.0, size=(classes, dim, 3))
        self.amp = rng.uniform(0.5, 1.5, size=(classes, dim))
        self.freq = rng.integers(1, 3, size=(classes, dim)).astype(np.float64)
        self.phase = rng.uniform(0.0, 2.0 * math.pi, size=(classes, dim))

    def segment(self, label: int, length: int) -> np.ndarray:
        u = np.linspace(0.0, 1.0, length)[:, None]  # (length, 1)
        a0 = self.poly[label, :, 0]
        a1 = self.poly[label, :, 1]
        a2 = self.poly[label, :, 2]
        curve = a0 + a1 * u + a2 * u**2
        curve = curve + self.amp[label] * np.sin(
            2.0 * math.pi * self.freq[label] * u + self.phase[label]
        )
        return curve  # (length, dim)


def generate_synthetic(config: GeneratorConfig, seed: int) -> Dataset:
    """Generate a dataset of concatenated class-prototype segments.

    Deterministic for a fixed seed.  Every sequence carries dense
    frame_labels plus the collapsed label_seq, and per-sequence segment
    boundaries are recorded in dataset meta for subsequence extraction.
    """
    rng = np.random.default_rng(seed)
    label_set = LabelSet.from_names(default_label_names(config.classes))
    protos = _Prototypes(config.classes, config.dim, rng)

    sequences: list[Sequence] = []
    meta: dict[str, str] = {
        "generator": json.dumps({**asdict(config), "seed": seed}, sort_keys=True)
    }
    width = len(str(config.num_sequences - 1))
    for i in range(config.num_sequences):
        n_seg = int(rng.integers(config.segments_range[0], config.segments_range[1] + 1))
        parts: list[np.ndarray] = []
        labels: list[int] = []
        boundaries: list[list] = []  # [start, end, label_name]
        pos = 0
        for k in range(n_seg):
            if k > 0 and config.gap_len_range is not None:
                gap = int(rng.integers(config.gap_len_range[0], config.gap_len_range[1] + 1))
                # rest frames: noise around zero, labeled like the previous segment
                parts.append(rng.normal(0.0, max(config.noise, 1e-3), size=(gap, config.dim)))
                labels.extend([labels[-1]] * gap)
                pos += gap
            cls = int(rng.integers(config.classes))
            length = int(rng.integers(config.seg_len_range[0], config.seg_len_range[1] + 1))
            seg = protos.segment(cls, length)
            if config.noise > 0:
                seg = seg + rng.normal(0.0, config.noise, size=seg.shape)
            parts.append(seg)
            labels.extend([cls] * length)
            boundaries.append([pos, pos + length, label_set.name_of(cls)])
            pos += length
        sid = f"seq{i:0{width}d}"
        frame_labels = labels
        sequences.append(
            Sequence(
                id=sid,
                frames=np.vstack(parts),
                frame_labels=frame_labels,
                label_seq=collapse(frame_labels, label_set.blank_id),
            )
        )
        meta[SEGMENTS_META_PREFIX + sid] = json.dumps(boundaries, separators=(",", ":"))
    return Dataset(label_set=label_set, sequences=sequences, meta=meta)


def segment_boundaries(dataset: Dataset, seq: Sequence) -> list[tuple[int, int, int]]:
    """(start, end, label_id) segments recorded in meta for ``seq``, one of
    the dataset's sequences.

    Raises DatasetFormatError unless the entry is a JSON list of
    [start, end, label] triples with 0 <= start < end <= the sequence's
    frame count and a real (non-blank) label name.
    """
    key = SEGMENTS_META_PREFIX + seq.id
    if key not in dataset.meta:
        raise DatasetFormatError(f"dataset meta carries no segment boundaries for {seq.id!r}")
    where = f"segment boundaries of sequence {seq.id!r}"
    try:
        entries = json.loads(dataset.meta[key])
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{where}: bad JSON: {exc}") from None
    if not isinstance(entries, list):
        raise DatasetFormatError(f"{where} must be a list of [start, end, label] triples")
    real = dataset.label_set.real_names
    out = []
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3
                and type(entry[0]) is int and type(entry[1]) is int):
            raise DatasetFormatError(f"{where}: {entry!r} is not a [start, end, label] triple")
        start, end, name = entry
        if not 0 <= start < end <= seq.num_frames:
            raise DatasetFormatError(
                f"{where}: [{start}, {end}) does not fit 0 <= start < end <= {seq.num_frames}"
            )
        if name not in real:
            raise DatasetFormatError(f"{where}: {name!r} is not a real label name")
        out.append((start, end, dataset.label_set.id_of(name)))
    return out


def extract_segment_subsequences(dataset: Dataset) -> Dataset:
    """Split every sequence at its recorded boundaries into single-class pieces.

    Gap frames inserted by the generator fall outside the recorded
    segments and are dropped.  The result is a frame-labeled dataset of
    short uniform-label subsequences suitable for supervised pretraining.
    """
    pieces: list[Sequence] = []
    for seq in dataset.sequences:
        for k, (start, end, label) in enumerate(segment_boundaries(dataset, seq)):
            pieces.append(
                Sequence(
                    id=f"{seq.id}#{k}",
                    frames=seq.frames[start:end].copy(),
                    frame_labels=[label] * (end - start),
                    label_seq=[label],
                )
            )
    return Dataset(label_set=dataset.label_set, sequences=pieces, meta=dict(dataset.meta))


# ---------------------------------------------------------------------------
# Folds
# ---------------------------------------------------------------------------


def make_folds(dataset: Dataset, k: int, seed: int) -> FoldPlan:
    """Seeded uniform shuffle, then round-robin assignment into k folds."""
    n = len(dataset.sequences)
    if k < 2 or k > n:
        raise ValueError(f"k must satisfy 2 <= k <= {n}, got {k}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    assignments = {dataset.sequences[int(idx)].id: pos % k for pos, idx in enumerate(order)}
    # keep dict in dataset order for reproducible serialization
    assignments = {s.id: assignments[s.id] for s in dataset.sequences}
    return FoldPlan(k=k, assignments=assignments, seed=seed)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

Labelings = SequenceT[SequenceT[int]]  # one label id per frame, per sequence


def _pooled(predicted: Labelings, truth: Labelings) -> tuple[np.ndarray, np.ndarray]:
    """Predicted and true labels of aligned sequences, each concatenated."""
    if len(predicted) != len(truth):
        raise ValueError(f"{len(predicted)} predicted sequences vs {len(truth)} truth sequences")
    for i, (pred, true) in enumerate(zip(predicted, truth)):
        if len(pred) != len(true):
            raise ValueError(
                f"sequence {i}: predicted length {len(pred)} != truth length {len(true)}")
    flat = itertools.chain.from_iterable
    return np.fromiter(flat(predicted), np.int64), np.fromiter(flat(truth), np.int64)


def frame_accuracy(predicted: Labelings, truth: Labelings) -> float:
    """Percentage of frames labeled correctly, pooled over all sequences."""
    pred, true = _pooled(predicted, truth)
    if true.size == 0:
        raise ValueError("no frames to score")
    return 100.0 * int((pred == true).sum()) / true.size


def confusion_matrix(predicted: Labelings, truth: Labelings, num_labels: int) -> np.ndarray:
    """Counts indexed [true label, predicted label]."""
    pred, true = _pooled(predicted, truth)
    cells = np.bincount(true * num_labels + pred, minlength=num_labels * num_labels)
    return cells.reshape(num_labels, num_labels)


def remap_blank_predictions(labels: SequenceT[int], blank_id: int,
                            policy: str = "previous") -> list[int]:
    """Replace blank predictions before frame-accuracy scoring.

    policy "previous": each blank takes the nearest preceding non-blank
    label; leading blanks take the first non-blank one; an all-blank
    sequence maps to label 0.  policy "keep" leaves blanks in place (they
    then score as errors).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if policy == "keep":
        return labels.tolist()
    if policy != "previous":
        raise ValueError(f"unknown blank policy {policy!r}")
    real = labels != blank_id
    if not real.any():
        return [0] * labels.size
    # each frame takes the nearest non-blank frame at or before it, leading blanks the first
    last = np.maximum.accumulate(np.where(real, np.arange(labels.size), real.argmax()))
    return labels[last].tolist()


def roc_curve(
    scores: SequenceT[float], truth: SequenceT[int]
) -> tuple[list[tuple[float, float]], float]:
    """Threshold-sweep ROC points (FPR, TPR) from (0,0) to (1,1), plus AUC.

    One point per distinct score value, predicting positive at score >=
    threshold; AUC by the trapezoidal rule.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
    if scores.shape != truth.shape or scores.ndim != 1:
        raise ValueError("scores and truth must be aligned 1-D arrays")
    pos = int(np.sum(truth == 1))
    neg = int(np.sum(truth == 0))
    if pos == 0 or neg == 0:
        raise ValueError("truth must contain both classes")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_truth = truth[order]
    tp = np.cumsum(sorted_truth == 1)
    fp = np.cumsum(sorted_truth == 0)
    # keep only the last index of each run of equal scores
    distinct = np.nonzero(np.diff(sorted_scores, append=-np.inf))[0]
    points = [(0.0, 0.0)]
    points.extend((fp[i] / neg, tp[i] / pos) for i in distinct)
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return points, auc
