"""Outside-in tracing of the seqcrf layers.

The tracer replaces each traced function with a wrapper under every name
a seqcrf module looks it up by (``seqcrf.trainer.forward_backward``,
``seqcrf.ldcrf.forward_backward``, ``seqcrf.forward_backward``, ...), so
calls between modules are seen without touching the package.  Each call
becomes a span (name, start, end, parent, run id) plus the work counts
its arguments or result show.  Spans stay in memory; ``write`` puts them
in a file once, at the end of the run.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

Counts = dict[str, float]
PACKAGE = "seqcrf"


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _frames_of(sequences) -> int:
    return sum(seq.num_frames for seq in sequences)


def _seq(args, kwargs, result) -> Counts:
    return {"frames": _arg(args, kwargs, 0, "seq").num_frames, "seqs": 1}


def _batch(args, kwargs, result) -> Counts:
    batch = _arg(args, kwargs, 0, "batch")
    return {"frames": _frames_of(batch), "seqs": len(batch)}


def _chain(args, kwargs, result) -> Counts:
    t, h = _arg(args, kwargs, 0, "node_scores").shape
    counts = {"frames": t, "seqs": 1, "cells": max(t - 1, 0) * h * h}
    edges = getattr(result, "edge_marginals", None)
    if edges is not None:
        counts["edge_bytes"] = edges.nbytes
    return counts


def _q_table(pos: int, name: str) -> Callable[[tuple, dict, object], Counts]:
    def measure(args, kwargs, result) -> Counts:
        return {"frames": _arg(args, kwargs, pos, name).shape[0], "seqs": 1}
    return measure


def _ctc_lattice(args, kwargs, result) -> Counts:
    t = _arg(args, kwargs, 0, "q").shape[0]
    return {"frames": t, "seqs": 1, "lattice_cells": t * len(result.augmented)}


def _train(args, kwargs, result) -> Counts:
    dataset = _arg(args, kwargs, 0, "dataset")
    epochs = _arg(args, kwargs, 1, "config").epochs
    return {"frames": _frames_of(dataset.sequences) * epochs, "seqs": len(dataset.sequences)}


def _dataset_arg(args, kwargs, result) -> Counts:
    dataset = _arg(args, kwargs, 0, "dataset")
    return {"frames": _frames_of(dataset.sequences), "seqs": len(dataset.sequences)}


def _dataset_result(args, kwargs, result) -> Counts:
    return {"frames": _frames_of(result.sequences), "seqs": len(result.sequences)}


def _none(args, kwargs, result) -> Counts:
    return {}


# traced function -> what one call counts; names are "<module>.<function>"
TRACED: dict[str, Callable[[tuple, dict, object], Counts]] = {
    "features.observation_matrix": _seq,
    "chain.forward_backward": _chain,
    "chain.masked_forward_backward": _chain,
    "chain.fb_adjoint": _chain,
    "chain.viterbi": _chain,
    "ldcrf.label_marginals": _seq,
    "ldcrf.ldcrf_frame_objective": _batch,
    "ctc.ctc_forward_backward": _ctc_lattice,
    "ctc.ctc_error_table": _q_table(1, "q"),
    "ctc.best_path_decode": _q_table(0, "q"),
    "trainer.ctc_ldcrf_loss_and_grad": _batch,
    "trainer.train": _train,
    "trainer.evaluate": _dataset_arg,
    "seqdata.load_dataset": _dataset_result,
    "seqdata.extract_segment_subsequences": _dataset_result,
    "cli.main": _none,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    run_id: str
    counts: Counts = field(default_factory=dict)


class Tracer:
    """Installs wrappers on the seqcrf modules and collects spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, measure: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.counts = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, measure in TRACED.items():
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
            wrapper = self._wrap(name, original, measure)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Write every span as one JSON line, once, at the end of the run."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}, sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part its child spans cover.

    Calls nest on one thread, so children never overlap and their cover
    is the sum of their durations.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], train_run: str, skipped_seqs: int) -> dict[str, float]:
    """Per-function calls, frames, self time and us/frame, plus derived ratios."""
    own = self_times(spans)
    frames = [s.counts.get("frames", 0) for s in spans]
    for s in spans:
        # cli.main counts the frames of the datasets it loads
        if s.name == "seqdata.load_dataset" and s.parent >= 0 \
                and spans[s.parent].name == "cli.main":
            frames[s.parent] += s.counts["frames"]
    out: dict[str, float] = {}
    totals = {name: {"calls": 0, "frames": 0, "self_s": 0.0} for name in TRACED}
    for s, self_s, n_frames in zip(spans, own, frames):
        row = totals[s.name]
        row["calls"] += 1
        row["frames"] += n_frames
        row["self_s"] += self_s
    for name, row in totals.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.frames"] = row["frames"]
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.us_per_frame"] = 1e6 * row["self_s"] / row["frames"] if row["frames"] else 0.0

    def total(pred: Callable[[Span], bool], key: str) -> float:
        return sum(s.counts.get(key, 0) for s in spans if pred(s))

    sweeps = {"chain.forward_backward", "chain.masked_forward_backward", "chain.fb_adjoint"}
    losses = {"trainer.ctc_ldcrf_loss_and_grad", "ldcrf.ldcrf_frame_objective"}
    passes = sum(1 for s in spans if s.run_id == train_run and s.name in sweeps)
    train_seqs = total(lambda s: s.run_id == train_run and s.name in losses, "seqs")
    chain_self = sum(t for s, t in zip(spans, own) if s.name.startswith("chain."))
    cells = total(lambda s: s.name.startswith("chain."), "cells")
    out["chain.passes_per_train_seq"] = passes / train_seqs if train_seqs else 0.0
    out["chain.ns_per_cell"] = 1e9 * chain_self / cells if cells else 0.0
    # the largest (T-1, H, H) tensor one call returned: what it adds to peak RSS
    out["chain.edge_marginal_mb"] = max(
        (s.counts.get("edge_bytes", 0) for s in spans), default=0) / 2**20
    out["ctc.lattice_cells"] = total(lambda s: s.name == "ctc.ctc_forward_backward",
                                     "lattice_cells")
    out["trainer.skipped_seqs"] = skipped_seqs
    return out
