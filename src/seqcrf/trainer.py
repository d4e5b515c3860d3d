"""Training loop and objectives.

Three configurations are supported: frame-supervised training of the
latent chain, training from unsegmented label sequences through the
alignment-marginalizing (CTC) loss, and a two-stage protocol that
pretrains frame-wise on single-class subsequences before fine-tuning on
full unsegmented sequences.  ``train`` turns each stage's objective
into a function of a batch and the flat weight vector; the optimizer,
``_run_sgd``, sees only those functions and knows nothing of the model.

Unsegmented training (``unsegmented`` and the fine-tuning stage of
``pretrain_finetune``) divides each frame's label marginals q by the
batch label prior -- the mean of q over every frame of the batch, blank
included -- before the alignment lattice, and treats that prior as a
constant for the gradient (Zeyer, Schlueter & Ney 2021, "Why does CTC
result in peaky behavior?").  The plain alignment likelihood is
minimized by blank-heavy alignments in which real labels survive only as
isolated spikes; dividing by the prior removes the reward for putting
mass on the label that is already most frequent.  Called directly,
``ctc_ldcrf_loss_and_grad`` still returns the plain -sum log P(z | x).

The unsegmented objective offers two gradient modes.  "exact"
differentiates through the forward-backward recursions (fb_adjoint);
"local" treats each frame's hidden-state marginal as an independent
softmax of its node scores and applies that per-frame Jacobian,
ignoring the coupling through shared transitions and neighbouring
frames.  The two coincide when the transition weights are zero (the
chain then factorizes over frames) and generally differ otherwise.
Transition-weight gradients have no per-frame form, so local mode
reuses the exact ones.
"""
from __future__ import annotations

import dataclasses
import json
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .chain import fb_adjoint_batch, forward_backward_batch
from .ctc import (
    Q_FLOOR,
    CtcInfeasibleError,
    check_target,
    ctc_error_table,
    ctc_forward_backward,
    ctc_forward_backward_batch,
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
from .ldcrf import frame_label_marginals, label_marginals, ldcrf_frame_objective
from .seqdata import (
    Dataset,
    FoldPlan,
    Sequence,
    confusion_matrix,
    extract_segment_subsequences,
    frame_accuracy,
    remap_blank_predictions,
    roc_curve,
)

logger = logging.getLogger(__name__)

MODES = ("unsegmented", "frame_wise", "pretrain_finetune")
GRAD_MODES = ("exact", "local")
# TrainConfig's annotations, strings under the __future__ import; bool is never accepted
_ACCEPTED_TYPES = {"str": str, "int": int, "float": (int, float), "int | None": (int, type(None))}


class TrainingDivergedError(RuntimeError):
    """Training stopped early, for the cause its message names; carries the
    partial report and checkpoint."""

    def __init__(self, message: str, report: "TrainReport | None" = None,
                 checkpoint: Checkpoint | None = None) -> None:
        super().__init__(message)
        self.report = report
        self.checkpoint = checkpoint


class EmptyBatchError(ValueError):
    """Every sequence in a batch was skipped; the batch loss is undefined."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for all training configurations.

    ``pretrain_epochs`` only matters in pretrain_finetune mode and
    defaults to half the epoch budget; the remainder goes to the
    unsegmented fine-tuning stage.
    """

    mode: str = "unsegmented"
    grad_mode: str = "exact"
    learning_rate: float = 0.02
    momentum: float = 0.9
    epochs: int = 30
    batch_size: int = 8
    l2: float = 1e-3
    seed: int = 0
    window: int = 1
    hidden_per_label: int = 2
    pretrain_epochs: int | None = None
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _ACCEPTED_TYPES[f.type]):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.grad_mode not in GRAD_MODES:
            raise ValueError(f"grad_mode must be one of {GRAD_MODES}, got {self.grad_mode!r}")
        if self.mode == "frame_wise" and self.grad_mode != "exact":
            raise ValueError("grad_mode only acts on the CTC objective; frame_wise takes 'exact'")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError("learning_rate must be positive and finite")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (self.l2 >= 0 and math.isfinite(self.l2)):
            raise ValueError("l2 must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if self.hidden_per_label < 1:
            raise ValueError("hidden_per_label must be >= 1")
        if self.pretrain_epochs is not None and not 0 <= self.pretrain_epochs <= self.epochs:
            raise ValueError("pretrain_epochs must lie in [0, epochs]")
        # the initial weights are drawn from a range of width 2 * init_scale
        if not (self.init_scale >= 0 and math.isfinite(2 * self.init_scale)):
            raise ValueError("init_scale must be >= 0 with 2 * init_scale finite")

    def stage_epochs(self) -> tuple[int, int]:
        """(pretraining epochs, fine-tuning epochs) summing to ``epochs``."""
        pre = self.epochs // 2 if self.pretrain_epochs is None else self.pretrain_epochs
        return pre, self.epochs - pre

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)


@dataclass
class TrainReport:
    """What happened during a run; it holds no wall-clock time, so reports
    are byte-identical across repeated runs.

    ``epoch_losses`` sums each epoch's batch losses.  Unsegmented epochs
    report the prior-normalized loss -sum log P(z | q / prior) plus the
    l2 term, which is not a log-likelihood and can be negative; frame-wise
    epochs report the frame objective.
    """

    mode: str
    grad_mode: str
    epochs_completed: int
    epoch_losses: list[float]
    grad_norms: list[float]
    pretrain_epochs: int | None = None
    diverged: bool = False
    checkpoint_path: str | None = None
    evaluation: dict | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Composite objective
# ---------------------------------------------------------------------------


def ctc_ldcrf_loss_and_grad(
    batch: list[Sequence],
    params: ModelParams,
    hidden_map: HiddenStateMap,
    feature_config: FeatureConfig,
    blank_id: int,
    grad_mode: str = "exact",
    l2: float = 0.0,
    label_prior: bool = False,
) -> tuple[float, np.ndarray]:
    """Summed negative alignment log-likelihood plus l2 * ||theta||^2.

    Per sequence: node scores -> chain posteriors -> per-frame label
    marginals q -> alignment lattice over label_seq.  The upstream
    gradient on a hidden state's marginal is minus the error-table entry
    of its owning label; it is pulled back onto the weights either
    exactly or with the per-frame local Jacobian (see module docstring).

    By default the data term is the plain -sum log P(z | x).  With
    ``label_prior`` each q is first divided by the batch label prior (see
    ``_batch_label_prior``), which is held constant for the gradient: the
    loss is then -sum log P(z | q / prior), can be negative, and its
    error table is the one over q / prior, multiplied by 1 / prior.

    Sequences whose target cannot be aligned, or whose alignment mass
    underflows to zero, are skipped with a logged warning; if that
    leaves nothing, EmptyBatchError is raised.  Label marginals whose rows
    do not sum to one (scores too large for the chain) raise
    FloatingPointError.
    """
    if grad_mode not in GRAD_MODES:
        raise ValueError(f"grad_mode must be one of {GRAD_MODES}, got {grad_mode!r}")
    grad_state = np.zeros_like(params.state_weights)
    grad_trans = np.zeros_like(params.trans_weights)
    owner = hidden_map.state_owner()
    # bad and infeasible targets stay out of the lattice stack, in batch order
    rejected: list[ValueError | None] = [None] * len(batch)
    for i, seq in enumerate(batch):
        if seq.label_seq is None:
            raise ValueError(f"sequence {seq.id!r} has no label_seq")
        try:
            check_target(seq.label_seq, seq.num_frames, hidden_map.num_labels, blank_id)
        except ValueError as exc:  # CtcInfeasibleError included
            rejected[i] = exc
    obs = [observation_matrix(seq, feature_config) for seq in batch]
    scores = [o @ params.state_weights.T for o in obs]
    posts = forward_backward_batch(scores, params.trans_weights)
    forward = [(seq, o, s, post, frame_label_marginals(post, hidden_map))
               for seq, o, s, post in zip(batch, obs, scores, posts)]
    # per-label factor on q; also scales the error table, since the prior
    # is a constant for the gradient
    if label_prior:
        scale = 1.0 / _batch_label_prior([q for *_, q in forward])
    else:
        scale = np.ones(hidden_map.num_labels)
    q_norms = [q * scale for *_, q in forward]
    lattices = ctc_forward_backward_batch(
        [q for q, exc in zip(q_norms, rejected) if exc is None],
        [seq.label_seq for seq, exc in zip(batch, rejected) if exc is None], blank_id)
    loss, used = 0.0, []
    for (seq, obs, scores, post, _), q_norm, exc in zip(forward, q_norms, rejected):
        if isinstance(exc, CtcInfeasibleError):
            logger.warning("sequence %s skipped: %s", seq.id, exc)
            continue
        if exc is not None:
            raise exc
        tables = next(lattices)
        if not np.isfinite(tables.log_prob):
            logger.warning("sequence %s skipped: alignment mass underflowed to zero", seq.id)
            continue
        loss -= tables.log_prob
        err = ctc_error_table(tables, q_norm) * scale  # d log P / d q, (T, L)
        used.append((obs, scores, post, -err[:, owner]))  # d loss / d mu, (T, H)
    if not used:
        raise EmptyBatchError("every sequence in the batch was skipped; loss undefined")
    obs, scores, posts, upstreams = zip(*used)
    adjoints = fb_adjoint_batch(scores, params.trans_weights, upstreams, posts)
    for o, post, upstream, (g_scores, g_trans) in zip(obs, posts, upstreams, adjoints):
        if grad_mode == "local":
            mu = post.node_marginals
            inner = np.sum(upstream * mu, axis=1, keepdims=True)
            g_scores = mu * (upstream - inner)
        grad_state += g_scores.T @ o
        grad_trans += g_trans
    theta = params.flatten()
    loss += l2 * float(theta @ theta)
    return loss, ModelParams(grad_state, grad_trans).flatten() + 2.0 * l2 * theta


def _batch_label_prior(qs: list[np.ndarray]) -> np.ndarray:
    """Mean label marginal over every frame of a batch, blank included.

    Floored at Q_FLOOR so that a label with zero mass on every frame
    divides its (zero) marginals into zeros rather than NaNs.
    """
    return np.maximum(np.concatenate(qs).mean(axis=0), Q_FLOOR)


def _composite_loss(
    seq: Sequence,
    theta: np.ndarray,
    hidden_map: HiddenStateMap,
    feature_config: FeatureConfig,
    blank_id: int,
    l2: float,
    prior: np.ndarray | None = None,
) -> float:
    """Loss-only evaluation used by the finite-difference checks; a given
    ``prior`` divides q as a fixed constant."""
    params = ModelParams.unflatten(theta, hidden_map.num_states, feature_config.obs_dim)
    q = label_marginals(seq, params, hidden_map, feature_config)
    if prior is not None:
        q = q * (1.0 / prior)
    log_prob = ctc_forward_backward(q, seq.label_seq, blank_id).log_prob
    return -log_prob + l2 * float(theta @ theta)


# ---------------------------------------------------------------------------
# Optimization loop
# ---------------------------------------------------------------------------


def _run_sgd(
    sequences: list[Sequence],
    theta: np.ndarray,
    objective: Callable[[list[Sequence], np.ndarray], tuple[float, np.ndarray]],
    config: TrainConfig,
    epochs: int,
    shuffle_rng: np.random.Generator,
    losses: list[float],
    norms: list[float],
) -> tuple[np.ndarray, str | None]:
    """One stage of mini-batch momentum SGD on ``objective(batch, theta) -> (loss, grad)``.

    Returns (theta, cause), where cause is None unless the stage stopped
    early, and appends each finished epoch's summed loss and mean gradient
    norm to ``losses`` and ``norms``; the given ``theta`` is never written
    into.  The step uses the batch-mean gradient so the learning rate
    keeps its meaning for partial batches.  The step size holds at the
    configured rate for the first half of the stage's epochs, then decays
    linearly to rate * 2 / epochs in the last one, so that the weights
    settle instead of wandering with the batch noise; stages of one or two
    epochs keep the full rate.  Batch
    accumulation order follows the shuffled order, which is deterministic
    for a fixed generator state.  An epoch whose every batch is skipped
    (EmptyBatchError) trained nothing, so it ends the stage as diverged,
    and so do a FloatingPointError and a loss or an update that is not
    finite; ``cause`` then names which, and the returned ``theta`` is the
    last finite one.  Each finished epoch logs one INFO line.
    """
    n = len(sequences)
    velocity = np.zeros_like(theta)
    for epoch in range(epochs):
        lr = config.learning_rate * min(1.0, 2 * (epochs - epoch) / epochs)
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        batch_norms: list[float] = []
        skipped = 0
        for start in range(0, n, config.batch_size):
            batch = [sequences[int(i)] for i in order[start:start + config.batch_size]]
            try:
                loss, grad = objective(batch, theta)
            except EmptyBatchError:
                logger.warning("batch starting at %d skipped entirely", start)
                skipped += 1
                continue
            except FloatingPointError as exc:
                return theta, str(exc)
            if not np.isfinite(loss):
                return theta, "training loss became non-finite"
            step_grad = grad / len(batch)
            velocity = config.momentum * velocity - lr * step_grad
            updated = theta + velocity
            if not np.all(np.isfinite(updated)):
                return theta, "a weight update overflowed"
            theta = updated
            epoch_loss += loss
            batch_norms.append(float(np.linalg.norm(step_grad)))
        if not batch_norms:
            logger.warning("epoch %d: every batch was skipped; stopping", epoch + 1)
            return theta, f"epoch {epoch + 1} skipped every batch"
        losses.append(float(epoch_loss))
        norms.append(float(np.mean(batch_norms)))
        logger.info(
            "epoch %d/%d (%s): loss %.6g, mean grad norm %.4g, step size %.4g, "
            "skipped batches %d",
            epoch + 1, epochs, objective.__name__, losses[-1], norms[-1], lr, skipped,
        )
    return theta, None


def train(dataset: Dataset, config: TrainConfig) -> tuple[Checkpoint, TrainReport]:
    """Train per ``config.mode``; deterministic for fixed seed/config/data.

    Every mode is a list of (sequences, epochs, objective) stages run in
    order from one initialization: ``frame_wise`` and ``unsegmented`` are
    one frame or CTC stage over the dataset, and ``pretrain_finetune`` is
    a frame stage on the single-class subsequences of the recorded
    segments followed by a CTC stage on the full sequences, splitting the
    epoch budget per ``TrainConfig.stage_epochs``.  Stage k (from 1)
    shuffles with its own generator spawned from the seed.

    Raises DatasetFormatError when ``pretrain_finetune`` finds missing or
    malformed segment boundaries in the dataset meta, ValueError when a
    sequence lacks the labels its mode trains on, and TrainingDivergedError
    (with the partial report and the checkpoint of the last finite weights
    attached) if the loss or the weights stop being finite, the marginals
    stop summing to one, or an epoch skips every batch; a diverged stage
    ends the run, and the error's message names the cause.
    """
    hidden_map = HiddenStateMap(dataset.label_set.num_labels, config.hidden_per_label)
    feature_config = FeatureConfig(input_dim=dataset.dim, window=config.window)

    def frame(batch: list[Sequence], theta: np.ndarray) -> tuple[float, np.ndarray]:
        params = ModelParams.unflatten(theta, hidden_map.num_states, feature_config.obs_dim)
        return ldcrf_frame_objective(batch, params, hidden_map, feature_config, l2=config.l2)

    def ctc(batch: list[Sequence], theta: np.ndarray) -> tuple[float, np.ndarray]:
        params = ModelParams.unflatten(theta, hidden_map.num_states, feature_config.obs_dim)
        return ctc_ldcrf_loss_and_grad(
            batch, params, hidden_map, feature_config, dataset.label_set.blank_id,
            grad_mode=config.grad_mode, l2=config.l2, label_prior=True,
        )

    pretrain_epochs = None
    if config.mode == "pretrain_finetune":
        pieces = extract_segment_subsequences(dataset).sequences
        pretrain_epochs, finetune_epochs = config.stage_epochs()
        stages = [(pieces, pretrain_epochs, frame), (dataset.sequences, finetune_epochs, ctc)]
    else:
        objective = frame if config.mode == "frame_wise" else ctc
        stages = [(dataset.sequences, config.epochs, objective)]
    required = "frame_labels" if config.mode == "frame_wise" else "label_seq"
    for seq in dataset.sequences:
        if getattr(seq, required) is None:
            raise ValueError(f"sequence {seq.id!r} has no {required}, required by this mode")

    theta = ModelParams.random_init(
        hidden_map.num_states, feature_config.obs_dim,
        seed=config.seed, scale=config.init_scale,
    ).flatten()
    losses: list[float] = []
    norms: list[float] = []
    cause = None
    for k, (sequences, epochs, objective) in enumerate(stages, start=1):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(k,)))
        theta, cause = _run_sgd(sequences, theta, objective, config, epochs, rng, losses, norms)
        if cause is not None:
            break

    report = TrainReport(
        mode=config.mode,
        grad_mode=config.grad_mode,
        epochs_completed=len(losses),
        epoch_losses=losses,
        grad_norms=norms,
        pretrain_epochs=pretrain_epochs,
        diverged=cause is not None,
    )
    checkpoint = Checkpoint(
        dataset.label_set,
        hidden_map,
        feature_config,
        ModelParams.unflatten(theta, hidden_map.num_states, feature_config.obs_dim),
    )
    if cause is not None:
        raise TrainingDivergedError(f"training diverged: {cause}",
                                    report=report, checkpoint=checkpoint)
    return checkpoint, report


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    """Frame-level metrics; confusion rows are true labels, columns predicted."""

    frame_accuracy: float
    num_sequences: int
    num_frames: int
    confusion: list[list[int]]
    blank_policy: str
    fold_accuracies: list[float] | None = None
    fold_mean_accuracy: float | None = None
    roc_points: list[list[float]] | None = None
    roc_auc: float | None = None
    positive_label: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def dataset_label_marginals(
    dataset: Dataset, checkpoint: Checkpoint
) -> Iterator[tuple[Sequence, np.ndarray]]:
    """(sequence, q table) for every sequence of ``dataset``, in order.

    The label sets must match; that is checked here, before any marginal
    is computed.
    """
    if dataset.label_set.names != checkpoint.label_set.names:
        raise ValueError("dataset and checkpoint use different label sets")
    params = checkpoint.params
    posts = forward_backward_batch(
        (node_scores(seq, params, checkpoint.feature_config) for seq in dataset.sequences),
        params.trans_weights)
    # map, unlike a generator expression, keeps no posterior (and so no
    # pass buffer) alive while the next pass runs
    return zip(dataset.sequences,
               map(lambda post: frame_label_marginals(post, checkpoint.hidden_map), posts))


def evaluate(
    dataset: Dataset,
    checkpoint: Checkpoint,
    fold_plan: FoldPlan | None = None,
    blank_policy: str = "previous",
    positive_label: str | None = None,
) -> EvalReport:
    """Score marginal-argmax frame decoding against ground-truth labels.

    Blank predictions are remapped per ``blank_policy`` before scoring.
    With a fold plan, per-fold accuracies and their mean are added.  For
    binary label sets a frame-level ROC (score = marginal probability of
    the positive label, default the last real label) is included when
    both classes occur in the data.
    """
    marginals = dataset_label_marginals(dataset, checkpoint)
    label_set = checkpoint.label_set
    pos_id: int | None = None
    if len(label_set.real_names) == 2:
        pos_name = positive_label if positive_label is not None else label_set.real_names[-1]
        if pos_name not in label_set.real_names:
            raise ValueError(f"positive label must be one of {list(label_set.real_names)}, "
                             f"got {pos_name!r}")
        pos_id = label_set.id_of(pos_name)
    elif positive_label is not None:
        raise ValueError("positive_label only applies to binary label sets")

    # id -> (prediction, truth, positive-label scores), in dataset order
    table: dict[str, tuple[list[int], list[int], np.ndarray | None]] = {}
    for seq, q in marginals:
        if seq.frame_labels is None:
            raise ValueError(f"sequence {seq.id!r} has no frame_labels; cannot score")
        pred = remap_blank_predictions(np.argmax(q, axis=1), label_set.blank_id,
                                       policy=blank_policy)
        table[seq.id] = (pred, seq.frame_labels, None if pos_id is None else q[:, pos_id])

    preds, truths, scores = zip(*table.values())
    report = EvalReport(
        frame_accuracy=frame_accuracy(preds, truths),
        num_sequences=len(dataset.sequences),
        num_frames=sum(map(len, truths)),
        confusion=confusion_matrix(preds, truths, label_set.num_labels).tolist(),
        blank_policy=blank_policy,
    )
    if fold_plan is not None:
        report.fold_accuracies = []
        for fold in range(fold_plan.k):
            rows = [table[sid] for sid in fold_plan.fold_ids(fold) if sid in table]
            if not rows:
                raise ValueError(f"fold {fold} contains no scored sequences")
            report.fold_accuracies.append(
                frame_accuracy([r[0] for r in rows], [r[1] for r in rows])
            )
        report.fold_mean_accuracy = float(np.mean(report.fold_accuracies))
    if pos_id is not None:
        report.positive_label = label_set.name_of(pos_id)
        truth = np.equal(np.concatenate(truths), pos_id)
        if 0 < truth.sum() < truth.size:
            points, report.roc_auc = roc_curve(np.concatenate(scores), truth)
            report.roc_points = [[float(x), float(y)] for x, y in points]
    return report


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def gradient_check(
    seq: Sequence,
    params: ModelParams,
    hidden_map: HiddenStateMap,
    feature_config: FeatureConfig,
    blank_id: int,
    l2: float = 0.0,
    step: float = 1e-5,
    label_prior: bool = False,
) -> float:
    """Worst deviation between the exact analytic gradient and central finite
    differences of the composite loss, relative to max(1, |a|, |b|).

    With ``label_prior`` the differences are taken with the prior held at
    its value at theta, which is what the analytic gradient assumes.
    """
    _, grad = ctc_ldcrf_loss_and_grad(
        [seq], params, hidden_map, feature_config, blank_id, l2=l2, label_prior=label_prior
    )
    prior = None
    if label_prior:
        prior = _batch_label_prior([label_marginals(seq, params, hidden_map, feature_config)])
    theta = params.flatten()
    worst = 0.0
    for k in range(theta.size):
        up = theta.copy()
        up[k] += step
        down = theta.copy()
        down[k] -= step
        fd = (
            _composite_loss(seq, up, hidden_map, feature_config, blank_id, l2, prior)
            - _composite_loss(seq, down, hidden_map, feature_config, blank_id, l2, prior)
        ) / (2.0 * step)
        rel = abs(grad[k] - fd) / max(1.0, abs(grad[k]), abs(fd))
        worst = max(worst, rel)
    return worst


def _random_instance(
    rng: np.random.Generator,
) -> tuple[Sequence, ModelParams, HiddenStateMap, FeatureConfig, int]:
    """Small random model + sequence with a feasible target, for the
    finite-difference and mode-comparison sweeps: at most 6 frames, 4
    hidden states and 4 input dimensions, weights uniform in [-0.5, 0.5]."""
    combos = [(labels, h) for labels in range(2, 5) for h in range(1, 5) if labels * h <= 4]
    num_labels, h = combos[int(rng.integers(len(combos)))]
    t = int(rng.integers(2, 7))
    d = int(rng.integers(1, 5))
    hidden_map = HiddenStateMap(num_labels, h)
    feature_config = FeatureConfig(input_dim=d, window=int(rng.integers(0, 2)))
    blank_id = num_labels - 1
    while True:
        m = int(rng.integers(1, min(t, 3) + 1))
        z = [int(a) for a in rng.integers(0, num_labels - 1, size=m)]
        if min_frames_required(z) <= t:
            break
    seq = Sequence(id="probe", frames=rng.normal(size=(t, d)), label_seq=z)
    params = ModelParams(
        state_weights=rng.uniform(-0.5, 0.5, size=(hidden_map.num_states, feature_config.obs_dim)),
        trans_weights=rng.uniform(-0.5, 0.5, size=(hidden_map.num_states, hidden_map.num_states)),
    )
    return seq, params, hidden_map, feature_config, blank_id


def gradient_check_suite(
    trials: int = 100,
    seed: int = 1,
    step: float = 1e-5,
    l2: float = 1e-3,
    label_prior: bool = False,
) -> float:
    """Max relative gradient error across random small instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        seq, params, hidden_map, feature_config, blank_id = _random_instance(rng)
        worst = max(
            worst,
            gradient_check(seq, params, hidden_map, feature_config, blank_id,
                           l2=l2, step=step, label_prior=label_prior),
        )
    return worst

