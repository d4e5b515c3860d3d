"""Windowed observations, hidden-state layout, parameter vectors, checkpoints."""
import numpy as np
import pytest

from seqcrf.features import (
    Checkpoint,
    FeatureConfig,
    HiddenStateMap,
    ModelParams,
    node_scores,
    observation_matrix,
)
from seqcrf.seqdata import LabelSet, Sequence


class TestFeatureConfig:
    @pytest.mark.parametrize("d,w,expect", [(3, 0, 4), (3, 1, 10), (2, 2, 11)])
    def test_obs_dim(self, d, w, expect):
        assert FeatureConfig(input_dim=d, window=w).obs_dim == expect

    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureConfig(input_dim=0)
        with pytest.raises(ValueError):
            FeatureConfig(input_dim=2, window=-1)


class TestHiddenStateMap:
    def test_contiguous_blocks(self):
        hm = HiddenStateMap(num_labels=3, states_per_label=2)
        assert hm.num_states == 6
        np.testing.assert_array_equal(hm.state_owner(), [0, 0, 1, 1, 2, 2])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            HiddenStateMap(0, 1)


class TestObservations:
    def test_window_zero_is_frames_plus_bias(self):
        seq = Sequence(id="s", frames=np.arange(6.0).reshape(3, 2))
        obs = observation_matrix(seq, FeatureConfig(input_dim=2, window=0))
        np.testing.assert_array_equal(
            obs, [[0, 1, 1], [2, 3, 1], [4, 5, 1]]
        )

    def test_window_one_stacks_neighbors_with_zero_padding(self):
        seq = Sequence(id="s", frames=np.array([[1.0], [2.0], [3.0]]))
        obs = observation_matrix(seq, FeatureConfig(input_dim=1, window=1))
        # columns: frame j-1, frame j, frame j+1, bias
        np.testing.assert_array_equal(
            obs, [[0, 1, 2, 1], [1, 2, 3, 1], [2, 3, 0, 1]]
        )

    def test_dim_mismatch_raises(self):
        seq = Sequence(id="s", frames=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            observation_matrix(seq, FeatureConfig(input_dim=4))

    def test_node_scores_are_linear_in_observations(self):
        rng = np.random.default_rng(1)
        seq = Sequence(id="s", frames=rng.normal(size=(4, 2)))
        config = FeatureConfig(input_dim=2, window=1)
        params = ModelParams.random_init(5, config.obs_dim, seed=2)
        scores = node_scores(seq, params, config)
        assert scores.shape == (4, 5)
        obs = observation_matrix(seq, config)
        np.testing.assert_allclose(scores, obs @ params.state_weights.T, atol=0)
        with pytest.raises(ValueError):
            node_scores(seq, params, FeatureConfig(input_dim=2, window=0))


class TestModelParams:
    def test_flatten_unflatten_round_trip(self):
        params = ModelParams.random_init(4, 3, seed=7)
        theta = params.flatten()
        assert theta.shape == (4 * 3 + 4 * 4,)
        back = ModelParams.unflatten(theta, 4, 3)
        np.testing.assert_array_equal(back.state_weights, params.state_weights)
        np.testing.assert_array_equal(back.trans_weights, params.trans_weights)

    def test_unflatten_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ModelParams.unflatten(np.zeros(5), 2, 2)

    def test_random_init_seeded_and_bounded(self):
        a = ModelParams.random_init(3, 2, seed=0, scale=0.25)
        b = ModelParams.random_init(3, 2, seed=0, scale=0.25)
        c = ModelParams.random_init(3, 2, seed=1, scale=0.25)
        np.testing.assert_array_equal(a.flatten(), b.flatten())
        assert not np.array_equal(a.flatten(), c.flatten())
        assert np.all(np.abs(a.flatten()) <= 0.25)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ModelParams(state_weights=np.zeros((2, 3)), trans_weights=np.zeros((3, 3)))


class TestCheckpoint:
    def make(self):
        ls = LabelSet.from_names(["a", "b"])
        hm = HiddenStateMap(ls.num_labels, 2)
        fc = FeatureConfig(input_dim=3, window=1)
        params = ModelParams.random_init(hm.num_states, fc.obs_dim, seed=3)
        return Checkpoint(ls, hm, fc, params)

    def test_json_round_trip_is_exact(self):
        ck = self.make()
        back = Checkpoint.from_json(ck.to_json())
        assert back.label_set == ck.label_set
        assert back.hidden_map == ck.hidden_map
        assert back.feature_config == ck.feature_config
        np.testing.assert_array_equal(back.params.flatten(), ck.params.flatten())

    def test_file_round_trip_and_determinism(self, tmp_path):
        ck = self.make()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        ck.save(p1)
        ck.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = Checkpoint.load(p1)
        np.testing.assert_array_equal(back.params.flatten(), ck.params.flatten())

    def test_consistency_validation(self):
        ck = self.make()
        with pytest.raises(ValueError):
            Checkpoint(ck.label_set, HiddenStateMap(5, 2), ck.feature_config, ck.params)
        with pytest.raises(ValueError):
            Checkpoint(
                ck.label_set,
                ck.hidden_map,
                FeatureConfig(input_dim=9),
                ck.params,
            )
