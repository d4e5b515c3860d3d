"""Windowed feature functions and the flat parameter vector shared by all models.

State features are linear in a windowed observation vector: the frames in
a symmetric window around each position, zero-padded at the boundaries,
with a constant trailing bias component.  Pairwise features are
position-independent transition indicators, one weight per ordered pair
of hidden states.
"""
from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .seqdata import BLANK_NAME, DatasetFormatError, LabelSet, Sequence, atomic_write_text


@dataclass(frozen=True)
class FeatureConfig:
    """Window size and observation layout."""

    input_dim: int
    window: int = 1

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")

    @property
    def obs_dim(self) -> int:
        """D = d * (2w + 1), plus one for the bias."""
        return self.input_dim * (2 * self.window + 1) + 1


@dataclass(frozen=True)
class HiddenStateMap:
    """Disjoint contiguous block of hidden states for every label.

    Label a owns states [a*h, (a+1)*h); the blank label gets the same
    number of states as real labels.
    """

    num_labels: int
    states_per_label: int

    def __post_init__(self) -> None:
        if self.num_labels < 1 or self.states_per_label < 1:
            raise ValueError("num_labels and states_per_label must be >= 1")

    @property
    def num_states(self) -> int:
        return self.num_labels * self.states_per_label

    def state_owner(self) -> np.ndarray:
        """Length-H vector giving the owning label of every hidden state."""
        return np.repeat(np.arange(self.num_labels), self.states_per_label)


@dataclass
class ModelParams:
    """State weights (H x D) and transition weights (H x H).

    Flattening order is state weights row-major, then transitions
    row-major; flatten/unflatten round-trips exactly.
    """

    state_weights: np.ndarray
    trans_weights: np.ndarray

    def __post_init__(self) -> None:
        self.state_weights = np.asarray(self.state_weights, dtype=np.float64)
        self.trans_weights = np.asarray(self.trans_weights, dtype=np.float64)
        h = self.state_weights.shape[0]
        if self.trans_weights.shape != (h, h):
            raise ValueError(
                f"trans_weights shape {self.trans_weights.shape} does not match "
                f"{h} hidden states"
            )

    @property
    def num_states(self) -> int:
        return self.state_weights.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.state_weights.shape[1]

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.state_weights.ravel(), self.trans_weights.ravel()])

    @classmethod
    def unflatten(cls, theta: np.ndarray, num_states: int, obs_dim: int) -> "ModelParams":
        theta = np.asarray(theta, dtype=np.float64)
        n_state = num_states * obs_dim
        if theta.shape != (n_state + num_states * num_states,):
            raise ValueError(
                f"parameter vector length {theta.shape} does not match "
                f"H={num_states}, D={obs_dim}"
            )
        return cls(
            state_weights=theta[:n_state].reshape(num_states, obs_dim).copy(),
            trans_weights=theta[n_state:].reshape(num_states, num_states).copy(),
        )

    @classmethod
    def random_init(
        cls, num_states: int, obs_dim: int, seed: int, scale: float = 0.1
    ) -> "ModelParams":
        """Uniform init in [-scale, scale]; small range keeps exp well-conditioned."""
        rng = np.random.default_rng(seed)
        return cls(
            state_weights=rng.uniform(-scale, scale, size=(num_states, obs_dim)),
            trans_weights=rng.uniform(-scale, scale, size=(num_states, num_states)),
        )


# ---------------------------------------------------------------------------
# Observations and node scores
# ---------------------------------------------------------------------------


def observation_matrix(seq: Sequence, config: FeatureConfig) -> np.ndarray:
    """T x D matrix of windowed observations for the whole sequence."""
    if seq.dim != config.input_dim:
        raise ValueError(
            f"sequence dimension {seq.dim} != configured input_dim {config.input_dim}"
        )
    t, d = seq.frames.shape
    w = config.window
    padded = np.zeros((t + 2 * w, d))
    padded[w : w + t] = seq.frames
    cols = [padded[off : off + t] for off in range(2 * w + 1)]
    return np.concatenate(cols + [np.ones((t, 1))], axis=1)


def node_scores(seq: Sequence, params: ModelParams, config: FeatureConfig) -> np.ndarray:
    """T x H matrix of linear state scores (no exponentiation)."""
    if config.obs_dim != params.obs_dim:
        raise ValueError(
            f"observation dimension {config.obs_dim} != parameter dimension {params.obs_dim}"
        )
    return observation_matrix(seq, config) @ params.state_weights.T


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """Everything needed to run a trained model: labels, layout, weights."""

    label_set: LabelSet
    hidden_map: HiddenStateMap
    feature_config: FeatureConfig
    params: ModelParams

    def __post_init__(self) -> None:
        if self.hidden_map.num_labels != self.label_set.num_labels:
            raise ValueError("hidden map label count does not match label set")
        if self.params.num_states != self.hidden_map.num_states:
            raise ValueError("parameter state count does not match hidden map")
        if self.params.obs_dim != self.feature_config.obs_dim:
            raise ValueError("parameter obs dim does not match feature config")

    def to_json(self) -> str:
        payload = {
            "labels": list(self.label_set.names),
            "blank_id": self.label_set.blank_id,
            "states_per_label": self.hidden_map.states_per_label,
            "window": self.feature_config.window,
            "input_dim": self.feature_config.input_dim,
            "theta": self.params.flatten().tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    def save(self, path: str | os.PathLike) -> None:
        atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        """Inverse of ``to_json``.  A value of a type it does not write, or a
        ``blank_id`` other than the last label's index, raises DatasetFormatError;
        ``load`` reports every failure here as a malformed file."""
        payload = json.loads(text)
        if not isinstance(payload["labels"], list):
            raise DatasetFormatError("labels must be a list")
        label_set = LabelSet(tuple(payload["labels"]))
        ints = {k: payload[k] for k in ("blank_id", "states_per_label", "input_dim", "window")}
        for key, value in ints.items():
            if type(value) is not int:  # not bool, nor a float such as 2.0
                raise DatasetFormatError(f"{key} must be an integer, got {value!r}")
        if ints["blank_id"] != label_set.blank_id:
            raise DatasetFormatError(f"blank_id {ints['blank_id']} is not {label_set.blank_id}, "
                                     f"the index of the last label, {BLANK_NAME!r}")
        theta = payload["theta"]
        if not isinstance(theta, list) or not all(type(x) in (int, float) for x in theta):
            raise DatasetFormatError("theta must be a flat list of numbers")
        if not all(abs(x) <= sys.float_info.max for x in theta):  # NaN, inf, ints beyond float64
            raise DatasetFormatError("theta must be finite")
        theta = np.asarray(theta, dtype=np.float64)
        hidden_map = HiddenStateMap(label_set.num_labels, ints["states_per_label"])
        feature_config = FeatureConfig(input_dim=ints["input_dim"], window=ints["window"])
        params = ModelParams.unflatten(theta, hidden_map.num_states, feature_config.obs_dim)
        return cls(label_set, hidden_map, feature_config, params)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Checkpoint":
        """Read a checkpoint file; a malformed one raises DatasetFormatError."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            return cls.from_json(text)
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetFormatError(
                f"checkpoint {path} is malformed: {type(exc).__name__}: {exc}"
            ) from exc
