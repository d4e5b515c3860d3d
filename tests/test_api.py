"""The public surface: what ``seqcrf`` exports, and what importing it loads."""
import subprocess
import sys

import pytest

import seqcrf

REMOVED = {
    "seqcrf": ["brute_force_posteriors", "ctc_log_prob", "decode_frames",
               "frame_posterior_check", "local_vs_exact_divergence", "node_scores_from_obs",
               "pretrain_finetune", "restricted_log_partition", "sequence_label_likelihood",
               "windowed_obs"],
    "seqcrf.chain": ["BRUTE_FORCE_LIMIT", "_posteriors", "brute_force_posteriors",
                     "restricted_log_partition"],
    "seqcrf.ctc": ["ctc_log_prob", "frame_posterior_check"],
    "seqcrf.features": ["node_scores_from_obs", "windowed_obs"],
    "seqcrf.ldcrf": ["decode_frames", "sequence_label_likelihood"],
    "seqcrf.trainer": ["_StageResult", "_finish", "_init_model", "_stage_rng",
                       "local_vs_exact_divergence", "pretrain_finetune"],
}


def test_all_names_resolve_and_stay_sorted():
    assert seqcrf.__all__ == sorted(seqcrf.__all__)
    assert "forward_backward_batch" not in seqcrf.__all__
    for name in seqcrf.__all__:
        assert getattr(seqcrf, name) is not None


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    mod = sys.modules[module]
    for name in REMOVED[module]:
        assert name not in seqcrf.__all__
        assert not hasattr(mod, name)


def test_removed_methods_are_gone():
    assert not hasattr(seqcrf.HiddenStateMap, "block")
    assert not hasattr(seqcrf.HiddenStateMap, "label_of_state")
    assert not hasattr(seqcrf.Dataset, "by_id")
    assert not hasattr(seqcrf.ModelParams, "size")
    assert not hasattr(seqcrf.ModelParams, "zeros")
    assert not hasattr(seqcrf.ModelParams, "copy")
    assert "include_bias" not in seqcrf.FeatureConfig.__dataclass_fields__
    assert "edge_marginals" not in seqcrf.ChainPosteriors.__dataclass_fields__
    assert "blank_id" not in seqcrf.LabelSet.__dataclass_fields__


def test_import_loads_no_scipy():
    # the third-party modules `import seqcrf` adds beyond what start-up loaded
    code = ("import sys; before = set(sys.modules); import seqcrf; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'seqcrf'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['numpy']"
