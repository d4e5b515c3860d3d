"""The benchmark tracer's naming contract with the package.

``perfbench/tracing.py`` wraps functions by the module attribute names in
its ``TRACED`` table.  A rename or a call that bypasses a module global
breaks ``perfbench/run.py --trace 1``; this test runs one small job under
the tracer so that such a change fails here first.
"""
import importlib.util
import json
import os
import sys

import numpy as np

import seqcrf
import seqcrf.chain as chain_mod
import seqcrf.cli as cli_mod
import seqcrf.ctc as ctc_mod
from seqcrf.seqdata import GeneratorConfig, generate_synthetic, save_dataset

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_counted(tmp_path, monkeypatch):
    tracing = load_tracing(monkeypatch)
    dataset = generate_synthetic(
        GeneratorConfig(classes=2, dim=2, num_sequences=4, segments_range=(2, 3),
                        seg_len_range=(3, 5)),
        seed=5,
    )
    data, model, decoded = (tmp_path / name for name in ("d.jsonl", "m.json", "o.json"))
    save_dataset(dataset, data)
    config = seqcrf.TrainConfig(mode="pretrain_finetune", epochs=2, batch_size=2)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        checkpoint, _ = seqcrf.train(dataset, config)
        seqcrf.evaluate(dataset, checkpoint)
        seq = dataset.sequences[0]
        args = (checkpoint.params, checkpoint.hidden_map, checkpoint.feature_config)
        seqcrf.label_marginals(seq, *args)
        seqcrf.decode_frames_viterbi(seq, *args)
        scores = seqcrf.node_scores(seq, checkpoint.params, checkpoint.feature_config)
        chain_mod.masked_forward_backward(scores, checkpoint.params.trans_weights,
                                          np.ones(scores.shape, dtype=bool))
        checkpoint.save(model)
        assert cli_mod.main(["decode", "--data", str(data), "--model", str(model),
                             "--out", str(decoded)]) == 0
        # training runs the lattice and the adjoint only through their batch
        # forms, which TRACED does not list, so the one-item names are called
        # here, after the job whose passes are counted below
        job_spans = len(tracer.spans)
        trans = checkpoint.params.trans_weights
        chain_mod.fb_adjoint(scores, trans, np.ones(scores.shape),
                             chain_mod.forward_backward(scores, trans))
        ctc_mod.ctc_forward_backward(np.full((len(scores), 3), 1.0 / 3), [0], blank_id=2)
    finally:
        tracer.uninstall()

    assert len(json.loads(decoded.read_text())["sequences"]) == len(dataset.sequences)
    metrics = tracing.layer_metrics(tracer.spans, tracer.run_id, skipped_seqs=0)
    uncounted = [name for name in tracing.TRACED if metrics[f"{name}.calls"] == 0]
    assert uncounted == []
    job = tracing.layer_metrics(tracer.spans[:job_spans], tracer.run_id, skipped_seqs=0)
    assert job["chain.passes_per_train_seq"] > 0
