"""seqcrf benchmark: one user's train -> eval -> decode -> label -> viterbi job.

Run from the repository root:

    python3 perfbench/run.py --workload ctc_short --seed 1 --seconds 54 --trace 0
    python3 perfbench/run.py                     # every workload, one after another

Each workload is a closed loop of one client.  The inputs are generated
once per run from ``--seed``.  A cycle trains with ``seqcrf.train`` on
the training file, then runs a few rounds on the trained model: score
the held-out file with ``seqcrf.evaluate``, decode it through
``seqcrf.cli.main(["decode", ...])``, call ``seqcrf.label_marginals`` on
each held-out sequence and run ``seqcrf.decode_frames_viterbi`` over the
held-out set (see ``Job.cycle``).  Cycles repeat while one more still
fits in ``--seconds``; there is always at least one.  Every timing is the
median of the run's whole phases (see ``end_to_end``), and set-up time
is the median of several fresh interpreters.  BLAS is pinned to one thread
and no worker process runs during a cycle.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` one untraced training run sets the tracing baseline, then
one traced cycle of fixed work gives the per-layer metrics, and the
spans are written to ``perfbench/out/``.  Inputs are written to
``perfbench/_work/`` and removed at the end.  Correctness checks run
outside the timed regions; a failed check makes the run incorrect and
the exit code 1.  Without the package sources the run exits 2 and
prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in children

import numpy as np  # noqa: E402

from gen import Shape, collapse, write_split  # noqa: E402
from reference import log_forward_backward  # noqa: E402
from tracing import TRACED, Tracer, layer_metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5  # fresh interpreters timed for setup_s, after one warm-up
ROUNDS = 2  # eval-decode-label-viterbi rounds per training run
VITERBI_PASSES = 5  # viterbi passes over the held-out set per round
LABEL_MIN_SEQS = 100  # held-out sequences needed to report label latency
REFERENCE_SAMPLE = 8  # held-out sequences checked against the oracle
LOG_Z_RTOL = 1e-10
MARGINAL_ATOL = 1e-9


@dataclass(frozen=True)
class Workload:
    shape: Shape
    train: dict  # TrainConfig fields


WORKLOADS = {
    # Paper's headline mode on criterion-7-shaped data (T about 58, H = 14):
    # per-frame Python dispatch in forward-backward and again in the adjoint.
    "ctc_short": Workload(
        Shape(classes=6, dim=4, seg_len=(8, 16), segments=(3, 5), gap=(2, 5),
              noise=0.3, train_sequences=120, heldout_sequences=100),
        dict(mode="unsegmented", hidden_per_label=2, window=1, batch_size=2,
             init_scale=1.0, learning_rate=0.015, epochs=1, seed=0),
    ),
    # Frame-wise training on few long, wide sequences (T about 1.8k, H = 39,
    # D = 25): no CTC and no adjoint; free plus masked forward-backward and
    # their edge tensors dominate.  Left out of BENCHMARK.json: its cycle of
    # about 30 s fits only once or twice in a run, too few repetitions for a
    # steady median on a shared host.  Run it by name for the long-T corner.
    "framewise_long": Workload(
        Shape(classes=12, dim=8, seg_len=(20, 40), segments=(50, 70), gap=None,
              noise=0.3, train_sequences=8, heldout_sequences=4),
        dict(mode="frame_wise", hidden_per_label=3, window=1, batch_size=4,
             epochs=1, seed=0),
    ),
    # Two-stage training on criterion-8-shaped data: hundreds of single-class
    # pieces of T about 7, where per-call overhead outweighs per-frame work.
    "twostage_pieces": Workload(
        Shape(classes=6, dim=4, seg_len=(5, 9), segments=(3, 4), gap=(2, 4),
              noise=0.3, train_sequences=200, heldout_sequences=100),
        dict(mode="pretrain_finetune", hidden_per_label=2, window=1, batch_size=4,
             epochs=2, seed=0),
    ),
}

END_TO_END = {
    "setup_s": "s",
    "train_frames_per_s": "frames/s",
    "eval_frames_per_s": "frames/s",
    "decode_frames_per_s": "frames/s",
    "viterbi_frames_per_s": "frames/s",
    "label_seq_ms_p50": "ms",
    "label_seq_ms_p90": "ms",
    "heldout_frame_acc_pct": "%",
    "ok_seq_pct": "%",
    "peak_rss_mb": "MiB",
}

_LAYER_UNITS = {"calls": "count", "frames": "frames", "self_s": "s", "us_per_frame": "us/frame"}
PER_LAYER = {f"{name}.{key}": unit for name in TRACED for key, unit in _LAYER_UNITS.items()}
PER_LAYER.update({
    "chain.passes_per_train_seq": "passes/seq",
    "chain.ns_per_cell": "ns/cell",
    "chain.edge_marginal_mb": "MiB",
    "ctc.lattice_cells": "cells",
    "trainer.skipped_seqs": "count",
    "tracing_overhead_pct": "%",
})


class SkipCounter(logging.Handler):
    """Counts the trainer's 'sequence ... skipped' warnings.

    The trainer catches its own EmptyBatchError after logging one such
    warning per sequence of the batch, so those sequences count here too.
    """

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.skipped = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("sequence "):
            self.skipped += 1


@dataclass
class Tally:
    """Sequences attempted and failed, and whether every check passed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


class Job:
    """One workload's inputs, loaded package and per-run counters."""

    def __init__(self, name: str, seed: int, work: str) -> None:
        import seqcrf
        import seqcrf.cli

        self.seqcrf = seqcrf
        self.name = name
        self.seed = seed
        self.spec = WORKLOADS[name]
        self.config = seqcrf.TrainConfig(**self.spec.train)
        self.train_path = os.path.join(work, "train.jsonl")
        self.heldout_path = os.path.join(work, "heldout.jsonl")
        self.model_path = os.path.join(work, "model.json")
        self.decoded_path = os.path.join(work, "decoded.json")
        self.tally = Tally()
        self.skips = SkipCounter()
        logging.getLogger("seqcrf.trainer").addHandler(self.skips)
        self.load()

    def load(self) -> None:
        self.train_set = self.seqcrf.load_dataset(self.train_path)
        self.heldout = self.seqcrf.load_dataset(self.heldout_path)
        self.train_frames = sum(s.num_frames for s in self.train_set.sequences)
        self.heldout_frames = sum(s.num_frames for s in self.heldout.sequences)

    # -- phases ------------------------------------------------------------

    def train(self):
        """Train and return (checkpoint, report, seconds); failures are tallied."""
        seqcrf = self.seqcrf
        n_seqs = len(self.train_set.sequences)
        self.tally.attempted += n_seqs * self.config.epochs
        skipped_before = self.skips.skipped
        start = time.perf_counter()
        try:
            checkpoint, report = seqcrf.train(self.train_set, self.config)
        except seqcrf.TrainingDivergedError as exc:
            self.tally.fail(n_seqs, f"training diverged: {exc}")
            checkpoint, report = exc.checkpoint, exc.report
        seconds = time.perf_counter() - start
        skipped = self.skips.skipped - skipped_before
        if skipped:
            self.tally.fail(skipped, f"{skipped} training sequences skipped")
        return checkpoint, report, seconds

    def evaluate(self, checkpoint):
        self.tally.attempted += len(self.heldout.sequences)
        start = time.perf_counter()
        report = self.seqcrf.evaluate(self.heldout, checkpoint)
        return report, time.perf_counter() - start

    def decode(self, checkpoint) -> float:
        checkpoint.save(self.model_path)
        self.tally.attempted += len(self.heldout.sequences)
        argv = ["decode", "--data", self.heldout_path, "--model", self.model_path,
                "--out", self.decoded_path]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.seqcrf.cli.main(argv)
        seconds = time.perf_counter() - start
        if code != 0:
            self.tally.fail(len(self.heldout.sequences), f"decode exited {code}")
        return seconds

    def label(self, checkpoint) -> list[float]:
        """One label_marginals call per held-out sequence; their milliseconds."""
        label_marginals = self.seqcrf.label_marginals
        ms = []
        for seq in self.heldout.sequences:
            start = time.perf_counter()
            label_marginals(seq, checkpoint.params, checkpoint.hidden_map,
                            checkpoint.feature_config)
            ms.append(1e3 * (time.perf_counter() - start))
        self.tally.attempted += len(ms)
        return ms

    def viterbi(self, checkpoint) -> tuple[list[list[int]], float]:
        """One decode_frames_viterbi pass over the held-out set: paths, seconds."""
        decode = self.seqcrf.decode_frames_viterbi
        start = time.perf_counter()
        paths = [decode(seq, checkpoint.params, checkpoint.hidden_map,
                        checkpoint.feature_config)
                 for seq in self.heldout.sequences]
        seconds = time.perf_counter() - start
        self.tally.attempted += len(paths)
        return paths, seconds

    def cycle(self, phase=lambda name: None) -> dict:
        """One job: train, then ROUNDS rounds of eval, decode, label and viterbi.

        The phases after training repeat on the same model, viterbi
        VITERBI_PASSES times a round, so each gets several timings per
        training run; all are kept.  ``phase`` is called with each phase's
        name before it starts.
        """
        phase("train")
        checkpoint, report, t_train = self.train()
        timings: dict[str, list[float]] = {"eval": [], "decode": [], "label": [], "viterbi": []}
        for _ in range(ROUNDS):
            phase("eval")
            evaluation, seconds = self.evaluate(checkpoint)
            timings["eval"].append(seconds)
            phase("decode")
            timings["decode"].append(self.decode(checkpoint))
            phase("label")
            timings["label"].extend(self.label(checkpoint))
            phase("viterbi")
            for _ in range(VITERBI_PASSES):
                paths, seconds = self.viterbi(checkpoint)
                timings["viterbi"].append(seconds)
        return {"checkpoint": checkpoint, "report": report, "evaluation": evaluation,
                "paths": paths, "train": [t_train], **timings}

    # -- checks (untimed) ----------------------------------------------------

    def check(self, result: dict, with_reference: bool) -> None:
        report = result["report"]
        if report.diverged or not all(math.isfinite(x) for x in report.epoch_losses) \
                or len(report.epoch_losses) != self.config.epochs:
            self.tally.fail(len(self.train_set.sequences),
                            f"epoch losses not all finite: {report.epoch_losses}")
        if result["evaluation"].num_frames != self.heldout_frames:
            self.tally.fail(len(self.heldout.sequences),
                            "evaluate scored the wrong number of frames")
        if with_reference:
            self.check_reference(result["checkpoint"])
        self.check_decoded()
        for seq, path in zip(self.heldout.sequences, result["paths"]):
            if len(path) != seq.num_frames:
                self.tally.fail(1, f"viterbi path of {seq.id} has the wrong length")

    def check_reference(self, checkpoint) -> None:
        seqcrf = self.seqcrf
        trans = checkpoint.params.trans_weights
        for seq in self.heldout.sequences[:REFERENCE_SAMPLE]:
            scores = seqcrf.node_scores(seq, checkpoint.params, checkpoint.feature_config)
            got = seqcrf.forward_backward(scores, trans)
            log_z, marginals = log_forward_backward(scores, trans)
            # float64 rounding in a log-domain recursion grows like
            # sqrt(T) * eps * |log Z|; at T near 2k and log Z near 7e4 it
            # alone reaches 1e-9, so the bound widens there and only there
            marginal_tol = max(MARGINAL_ATOL, 4.0 * math.sqrt(seq.num_frames)
                               * np.finfo(np.float64).eps * abs(log_z))
            if abs(got.log_z - log_z) > LOG_Z_RTOL * max(1.0, abs(log_z)) \
                    or np.max(np.abs(got.node_marginals - marginals)) > marginal_tol:
                self.tally.fail(1, f"forward_backward disagrees with the oracle on {seq.id}")

    def check_decoded(self) -> None:
        blank = self.seqcrf.BLANK_NAME
        with open(self.decoded_path, encoding="utf-8") as fh:
            decoded = json.load(fh)["sequences"]
        if [d["id"] for d in decoded] != [s.id for s in self.heldout.sequences]:
            self.tally.fail(len(self.heldout.sequences), "decode output ids do not match")
            return
        for seq, out in zip(self.heldout.sequences, decoded):
            frames = out["frame_labels"]
            if len(frames) != seq.num_frames \
                    or [a for a in collapse(frames) if a != blank] != out["label_seq"]:
                self.tally.fail(1, f"decode output of {seq.id} is inconsistent")


# ---------------------------------------------------------------------------
# Set-up time, facts and the run itself
# ---------------------------------------------------------------------------

_SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import seqcrf
seqcrf.load_dataset(sys.argv[2])
print(time.perf_counter() - start)
"""


def setup_seconds(train_path: str) -> float:
    """Median seconds of ``import seqcrf`` plus loading the training file,
    each in a fresh interpreter; the first, untimed, fills the bytecode cache."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, SRC, train_path],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def machine_facts() -> dict:
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        with contextlib.suppress(OSError):
            with open(os.path.join(index, "level")) as lv, \
                    open(os.path.join(index, "type")) as ty, \
                    open(os.path.join(index, "size")) as sz:
                level, kind, size = lv.read().strip(), ty.read().strip(), sz.read().strip()
            if kind != "Instruction":
                facts[f"L{level}_cache"] = size
    with contextlib.suppress(Exception):
        facts["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return facts


def input_facts(job: Job, digests: dict) -> dict:
    seqcrf = job.seqcrf
    facts = {
        "H": seqcrf.HiddenStateMap(job.train_set.label_set.num_labels,
                                   job.config.hidden_per_label).num_states,
        "D": seqcrf.FeatureConfig(job.train_set.dim, window=job.config.window).obs_dim,
    }
    for split, dataset in (("train", job.train_set), ("heldout", job.heldout)):
        lengths = [s.num_frames for s in dataset.sequences]
        facts[split] = {"sequences": len(lengths), "frames": sum(lengths),
                        "mean_T": sum(lengths) / len(lengths), "max_T": max(lengths),
                        "sha256": digests[split]}
    return facts


def end_to_end(job: Job, cycles: list[dict], setup_s: float) -> dict:
    """Each timing is the median of the run's whole phases: of its training
    runs, evaluations, decodes and viterbi passes.  Label latency is the
    50th and 90th percentile of all the run's label_marginals calls.

    On a host shared with other tenants a phase runs up to about twice as
    slow while a neighbour is busy, and short quiet spells come and go at
    random.  The fastest phase depends on whether a run caught such a
    spell; the median over many phases spread through the run repeats
    better from run to run."""
    def median(key: str) -> float:
        return statistics.median(t for c in cycles for t in c[key])

    accuracies = {c["evaluation"].frame_accuracy for c in cycles}
    if len(accuracies) != 1:
        job.tally.fail(len(job.heldout.sequences),
                       f"held-out accuracy differs between cycles: {sorted(accuracies)}")
    values = {
        "setup_s": setup_s,
        "train_frames_per_s": job.train_frames * job.config.epochs / median("train"),
        "eval_frames_per_s": job.heldout_frames / median("eval"),
        "decode_frames_per_s": job.heldout_frames / median("decode"),
        "viterbi_frames_per_s": job.heldout_frames / median("viterbi"),
        "heldout_frame_acc_pct": cycles[0]["evaluation"].frame_accuracy,
        "ok_seq_pct": 100.0 * (1.0 - job.tally.failed / job.tally.attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    label_ms = [ms for c in cycles for ms in c["label"]]
    if len(job.heldout.sequences) >= LABEL_MIN_SEQS:
        p50, p90 = np.percentile(label_ms, [50, 90])
        values.update(label_seq_ms_p50=float(p50), label_seq_ms_p90=float(p90))
    counts = {key: sum(len(c[key]) for c in cycles) for key in ("train", "eval", "viterbi")}
    print(f"# medians of {counts['train']} training runs, {counts['eval']} evaluations "
          f"and decodes, {counts['viterbi']} viterbi passes; label latency over "
          f"{len(label_ms)} calls")
    return values


def traced_cycle(job: Job, out_dir: str) -> dict:
    """One untraced training run, then one traced cycle of fixed work."""
    _, _, t_plain = job.train()
    run_id = f"{job.name}/{job.seed}"
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_id = f"{run_id}/load"
        job.load()
        skipped_before = job.skips.skipped
        result = job.cycle(lambda name: setattr(tracer, "run_id", f"{run_id}/{name}"))
    finally:
        tracer.uninstall()
    job.check(result, with_reference=True)
    values = layer_metrics(tracer.spans, f"{run_id}/train",
                           job.skips.skipped - skipped_before)
    values["tracing_overhead_pct"] = 100.0 * (result["train"][0] / t_plain - 1.0)
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{job.name}-seed{job.seed}.jsonl"))
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "seqcrf", "__init__.py")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import seqcrf

    if not os.path.abspath(seqcrf.__file__).startswith(SRC + os.sep):
        print(f"error: seqcrf imported from {seqcrf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(HERE, "_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        shape = WORKLOADS[name].shape
        digests = {split: write_split(shape, seed, split, os.path.join(work, f"{split}.jsonl"))
                   for split in ("train", "heldout")}
        job = Job(name, seed, work)
        facts = {"workload": name, "seed": seed, "machine": machine_facts(),
                 "inputs": input_facts(job, digests)}
        print("# facts " + json.dumps(facts, sort_keys=True))
        # first-call set-up (scipy's lazy imports) stays out of the timed region
        seqcrf.forward_backward(np.zeros((3, 2)), np.zeros((2, 2)))
        if trace:
            values = traced_cycle(job, os.path.join(HERE, "out"))
            units = PER_LAYER
        else:
            setup_s = setup_seconds(job.train_path)
            cycles = []
            deadline = time.perf_counter() + seconds
            while True:
                start = time.perf_counter()
                cycles.append(job.cycle())
                job.check(cycles[-1], with_reference=len(cycles) == 1)
                # start another cycle only if one more as long still fits
                if 2 * time.perf_counter() - start > deadline:
                    break
            values = end_to_end(job, cycles, setup_s)
            units = {key: unit for key, unit in END_TO_END.items() if key in values}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(HERE, "_work"))

    for key, unit in units.items():
        print(f"{name} {key} {values[key]:.6g} {unit}")
    for problem in job.tally.problems:
        print(f"# check failed: {problem}", file=sys.stderr)
    correct = not job.tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": job.tally.attempted,
        "failed": job.tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in turn, each in its own interpreter so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return 2
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=54.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
