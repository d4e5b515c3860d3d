"""How many runs ``chain.stacks`` yields to each stacked recursion.

For each of the ``ctc_short`` and ``twostage_pieces`` workloads of
``perfbench/run.py``, this writes the workload's training file and its
seed-1 held-out file with ``perfbench/gen.py``, trains once with the
workload's config, and evaluates the trained model on the held-out file
once.  For each of the two phases it prints the number of runs (stacks)
that ``stacks`` yielded to each caller: the chain pass
(``forward_backward_batch``), the CTC lattice
(``ctc_forward_backward_batch``), the adjoint (``fb_adjoint_batch``) and
the frame objective (``ldcrf_frame_objective``, which scans its free and
restricted tables itself: frame-wise training and the pretraining stage).
``stacks`` is wrapped from here, whatever its signature, so neither
``src/`` nor ``perfbench/`` changes.  It is not a test (pytest does not
collect it) and asserts nothing.  Run from the repository root:

    PYTHONPATH=src python3 tests/stack_runs.py
"""
import collections
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
sys.dont_write_bytecode = True  # leave no cache files under perfbench/

# run pins BLAS to one thread before numpy is first imported
from run import WORKLOADS  # noqa: E402
from gen import write_split  # noqa: E402

import seqcrf  # noqa: E402
import seqcrf.chain as chain  # noqa: E402
import seqcrf.ctc as ctc  # noqa: E402
import seqcrf.ldcrf as ldcrf  # noqa: E402

NAMES = ("ctc_short", "twostage_pieces")
CALLERS = {"chain": "forward_backward_batch", "lattice": "ctc_forward_backward_batch",
           "adjoint": "fb_adjoint_batch", "frame": "ldcrf_frame_objective"}
SEED = 1


def counting(runs, stacks):
    """``stacks`` with each run it yields tallied in ``runs`` under its caller's name."""
    def counted(*args):
        caller = sys._getframe(1).f_code.co_name

        def tallied():
            for run in stacks(*args):
                runs[caller] += 1
                yield run
        return tallied()
    return counted


def phases(name, runs):
    """Yield ("train" | "evaluate") after each phase on ``name`` has tallied into ``runs``."""
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory() as work:
        paths = {split: os.path.join(work, f"{split}.jsonl") for split in ("train", "heldout")}
        for split, path in paths.items():
            write_split(workload.shape, SEED, split, path)
        train_set, heldout = (seqcrf.load_dataset(path) for path in paths.values())
    checkpoint, _ = seqcrf.train(train_set, seqcrf.TrainConfig(**workload.train))
    yield "train"
    seqcrf.evaluate(heldout, checkpoint)
    yield "evaluate"


def main():
    runs = collections.Counter()
    chain.stacks = ctc.stacks = ldcrf.stacks = counting(runs, chain.stacks)
    print(f"{'workload':16s} {'phase':9s} " + " ".join(f"{c:>8s}" for c in CALLERS), flush=True)
    for name in NAMES:
        for phase in phases(name, runs):
            counts = " ".join(f"{runs[caller]:8d}" for caller in CALLERS.values())
            print(f"{name:16s} {phase:9s} {counts}", flush=True)
            runs.clear()


if __name__ == "__main__":
    main()
