"""sha256 digests of trained artifacts, one per benchmark workload and mode.

For each of the ``ctc_short`` and ``twostage_pieces`` workloads of
``perfbench/run.py``, this writes the workload's training file with
``perfbench/gen.py`` at seed 1 and trains it in each of the three modes,
with the workload's config, ``mode`` set and ``epochs=2``.  It prints the
sha256 of ``checkpoint.to_json() + report.to_json()`` of each run.  Equal
digests before and after a change mean that no last bit of training moved.
It is not a test (pytest does not collect it), asserts nothing and leaves
``perfbench/`` as it is.  Run from the repository root:

    PYTHONPATH=src python3 tests/artifact_digests.py
"""
import hashlib
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

NAMES = ("ctc_short", "twostage_pieces")
MODES = ("unsegmented", "frame_wise", "pretrain_finetune")
SEED = 1


def digests(name):
    """(mode, sha256) of each mode's two-epoch run on ``name``'s training file."""
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "train.jsonl")
        write_split(workload.shape, SEED, "train", path)
        dataset = seqcrf.load_dataset(path)
    for mode in MODES:
        config = seqcrf.TrainConfig(**{**workload.train, "mode": mode, "epochs": 2})
        checkpoint, report = seqcrf.train(dataset, config)
        artifact = (checkpoint.to_json() + report.to_json()).encode("utf-8")
        yield mode, hashlib.sha256(artifact).hexdigest()


def main():
    for name in NAMES:
        for mode, digest in digests(name):
            print(f"{name:16s} {mode:18s} {digest}", flush=True)


if __name__ == "__main__":
    main()
