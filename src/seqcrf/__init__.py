"""Sequence labeling with latent-state linear chains.

Each label (plus a reserved blank) owns a block of hidden states in a
linear-chain model.  Training works either from dense frame labels or
from unsegmented label sequences, where the loss marginalizes over all
frame alignments that collapse to the target (a CTC loss on top of the
latent chain).  A plain chain CRF is the one-state-per-label special
case of the same machinery.
"""

from .chain import (
    ChainPosteriors,
    fb_adjoint,
    forward_backward,
    masked_forward_backward,
    viterbi,
)
from .ctc import (
    CtcInfeasibleError,
    CtcTables,
    augment_with_blanks,
    best_path_decode,
    ctc_error_table,
    ctc_forward_backward,
    min_frames_required,
)
from .features import (
    Checkpoint,
    FeatureConfig,
    HiddenStateMap,
    ModelParams,
    node_scores,
    observation_matrix,
)
from .ldcrf import (
    decode_frames_viterbi,
    frame_label_marginals,
    label_marginals,
    ldcrf_frame_objective,
)
from .seqdata import (
    BLANK_NAME,
    Dataset,
    DatasetFormatError,
    FoldPlan,
    GeneratorConfig,
    LabelSet,
    Sequence,
    collapse,
    confusion_matrix,
    extract_segment_subsequences,
    frame_accuracy,
    generate_synthetic,
    load_dataset,
    make_folds,
    remap_blank_predictions,
    roc_curve,
    save_dataset,
)
from .trainer import (
    EvalReport,
    TrainConfig,
    TrainReport,
    TrainingDivergedError,
    ctc_ldcrf_loss_and_grad,
    evaluate,
    gradient_check,
    gradient_check_suite,
    train,
)

__all__ = [
    "BLANK_NAME",
    "ChainPosteriors",
    "Checkpoint",
    "CtcInfeasibleError",
    "CtcTables",
    "Dataset",
    "DatasetFormatError",
    "EvalReport",
    "FeatureConfig",
    "FoldPlan",
    "GeneratorConfig",
    "HiddenStateMap",
    "LabelSet",
    "ModelParams",
    "Sequence",
    "TrainConfig",
    "TrainReport",
    "TrainingDivergedError",
    "augment_with_blanks",
    "best_path_decode",
    "collapse",
    "confusion_matrix",
    "ctc_error_table",
    "ctc_forward_backward",
    "ctc_ldcrf_loss_and_grad",
    "decode_frames_viterbi",
    "evaluate",
    "extract_segment_subsequences",
    "fb_adjoint",
    "forward_backward",
    "frame_accuracy",
    "frame_label_marginals",
    "generate_synthetic",
    "gradient_check",
    "gradient_check_suite",
    "label_marginals",
    "ldcrf_frame_objective",
    "load_dataset",
    "make_folds",
    "masked_forward_backward",
    "min_frames_required",
    "node_scores",
    "observation_matrix",
    "remap_blank_predictions",
    "roc_curve",
    "save_dataset",
    "train",
    "viterbi",
]
