"""Dataset model, JSONL round-trips, synthetic generator, folds, metrics."""
import json
import math

import numpy as np
import pytest

from seqcrf.seqdata import (
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
    segment_boundaries,
)


def tiny_dataset():
    ls = LabelSet.from_names(["walk", "run"])
    seqs = [
        Sequence(id="a", frames=np.arange(6.0).reshape(3, 2),
                 frame_labels=[0, 0, 1], label_seq=[0, 1]),
        Sequence(id="b", frames=np.ones((2, 2)), frame_labels=[1, 1], label_seq=[1]),
    ]
    return Dataset(label_set=ls, sequences=seqs, meta={"origin": "unit-test"})


class TestLabelSet:
    def test_blank_is_appended_last(self):
        ls = LabelSet.from_names(["a", "b", "c"])
        assert ls.names == ("a", "b", "c", BLANK_NAME)
        assert ls.blank_id == 3
        assert ls.num_labels == 4
        assert ls.real_names == ("a", "b", "c")

    @pytest.mark.parametrize("names", [("a", "b"), (BLANK_NAME, "a"), (BLANK_NAME,),
                                       (1, BLANK_NAME), ("a", "a", BLANK_NAME)])
    def test_names_must_be_unique_strings_ending_in_blank(self, names):
        with pytest.raises(DatasetFormatError):
            LabelSet(names)

    def test_name_id_round_trip(self):
        ls = LabelSet.from_names(["x", "y"])
        for i, name in enumerate(ls.names):
            assert ls.id_of(name) == i
            assert ls.name_of(i) == name

    def test_rejects_duplicates_reserved_and_unknown(self):
        with pytest.raises(DatasetFormatError):
            LabelSet.from_names(["a", "a"])
        with pytest.raises(DatasetFormatError):
            LabelSet.from_names(["a", BLANK_NAME])
        with pytest.raises(DatasetFormatError):
            LabelSet.from_names([])
        with pytest.raises(DatasetFormatError):
            LabelSet.from_names(["a"]).id_of("zzz")


class TestSequenceValidation:
    def test_frame_labels_must_match_length(self):
        with pytest.raises(DatasetFormatError):
            Sequence(id="s", frames=np.zeros((3, 2)), frame_labels=[0, 1])

    def test_label_seq_cannot_exceed_frames(self):
        with pytest.raises(DatasetFormatError):
            Sequence(id="s", frames=np.zeros((2, 2)), label_seq=[0, 1, 0])

    def test_frames_must_be_2d(self):
        with pytest.raises(DatasetFormatError):
            Sequence(id="s", frames=np.zeros(4))

    def test_unlabeled_sequence_is_fine(self):
        seq = Sequence(id="s", frames=np.zeros((2, 3)))
        assert seq.num_frames == 2 and seq.dim == 3


class TestDataset:
    def test_lookup_and_subset(self):
        ds = tiny_dataset()
        sub = ds.subset(["b"])
        assert [s.id for s in sub.sequences] == ["b"]
        assert sub.label_set is ds.label_set

    def test_duplicate_ids_rejected(self):
        ls = LabelSet.from_names(["a"])
        seqs = [Sequence(id="x", frames=np.zeros((1, 2))) for _ in range(2)]
        with pytest.raises(DatasetFormatError):
            Dataset(label_set=ls, sequences=seqs)

    def test_adjacent_repeats_in_label_seq_rejected(self):
        ls = LabelSet.from_names(["a", "b"])
        Dataset(label_set=ls, sequences=[
            Sequence(id="ok", frames=np.zeros((3, 2)), label_seq=[0, 1, 0])])
        seqs = [Sequence(id="s", frames=np.zeros((3, 2)), label_seq=[0, 0])]
        with pytest.raises(DatasetFormatError, match="adjacent"):
            Dataset(label_set=ls, sequences=seqs)

    def test_mixed_dims_rejected(self):
        ls = LabelSet.from_names(["a"])
        seqs = [
            Sequence(id="x", frames=np.zeros((1, 2))),
            Sequence(id="y", frames=np.zeros((1, 3))),
        ]
        with pytest.raises(DatasetFormatError):
            Dataset(label_set=ls, sequences=seqs)


class TestCollapse:
    @pytest.mark.parametrize(
        "labels,blank,expect",
        [
            ([0, 0, 1, 1, 1, 0], None, [0, 1, 0]),
            ([0, 0, 1, 1, 1, 0], 2, [0, 1, 0]),
            ([2, 0, 2, 0, 2], 2, [0, 0]),  # blank separator keeps the repeat
            ([0, 0, 0], 0, []),
            ([], None, []),
            ([1], None, [1]),
        ],
    )
    def test_cases(self, labels, blank, expect):
        assert collapse(labels, blank) == expect

    def test_output_is_blank_free_with_no_unseparated_repeats(self):
        # repeats in the output are legal only because a blank separated
        # them in the input; without blanks the merge is exhaustive
        rng = np.random.default_rng(3)
        for _ in range(20):
            labels = [int(a) for a in rng.integers(0, 3, size=rng.integers(0, 12))]
            out = collapse(labels, blank_id=2)
            assert 2 not in out
            no_blank_input = [a for a in labels if a != 2]
            merged = collapse(no_blank_input)
            assert all(x != y for x, y in zip(merged, merged[1:]))


class TestFileRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.label_set == ds.label_set
        assert back.meta == ds.meta
        assert [s.id for s in back.sequences] == ["a", "b"]
        for orig, new in zip(ds.sequences, back.sequences):
            np.testing.assert_array_equal(orig.frames, new.frames)
            assert orig.frame_labels == new.frame_labels
            assert orig.label_seq == new.label_seq

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = tiny_dataset()
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_labels_stored_as_names_not_ids(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(tiny_dataset(), path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["labels"] == ["walk", "run"]  # blank never serialized
        assert json.loads(lines[1])["frame_labels"] == ["walk", "walk", "run"]

    @pytest.mark.parametrize(
        "lines",
        [
            [],  # empty file
            ['{"labels": ["a"], "dim": 2}'],  # header only
            ['{"dim": 2}', '{"id": "s", "frames": [[0, 0]]}'],  # no labels key
            ['{"labels": ["a"], "dim": 2}', "not json"],
            ['{"labels": ["a"], "dim": 2}', '{"id": "s", "frames": [[0.0]]}'],  # dim
            ['{"labels": ["a"], "dim": 1}', '{"id": "s", "frames": [[0.0]], "frame_labels": ["q"]}'],
            ['{"labels": ["a"], "dim": 1}', '{"id": "s", "frames": [["NaN"]]}'],
        ],
    )
    def test_malformed_files_raise_format_error(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_label_seq_consistency_enforced_on_load(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"labels": ["a", "b"], "dim": 1}\n'
            '{"id": "s", "frames": [[0.0], [0.0]], "frame_labels": ["a", "a"], '
            '"label_seq": ["b"]}\n'
        )
        with pytest.raises(DatasetFormatError, match="collapse"):
            load_dataset(path)


class TestGenerator:
    def test_shapes_labels_and_meta(self):
        config = GeneratorConfig(classes=4, dim=3, num_sequences=8)
        ds = generate_synthetic(config, seed=11)
        assert len(ds.sequences) == 8
        assert ds.label_set.num_labels == 5  # 4 + blank
        for seq in ds.sequences:
            assert seq.dim == 3
            assert len(seq.frame_labels) == seq.num_frames
            assert seq.label_seq == collapse(seq.frame_labels, ds.label_set.blank_id)
            assert 3 <= len(segment_boundaries(ds, seq)) <= 5
            assert ds.label_set.blank_id not in seq.frame_labels

    def test_segment_lengths_respect_range(self):
        config = GeneratorConfig(classes=3, dim=2, num_sequences=6, seg_len_range=(5, 7))
        ds = generate_synthetic(config, seed=0)
        for seq in ds.sequences:
            for start, end, _ in segment_boundaries(ds, seq):
                assert 5 <= end - start <= 7

    def test_deterministic_per_seed(self):
        config = GeneratorConfig(classes=3, dim=2, num_sequences=4)
        a = generate_synthetic(config, seed=5)
        b = generate_synthetic(config, seed=5)
        c = generate_synthetic(config, seed=6)
        for sa, sb in zip(a.sequences, b.sequences):
            np.testing.assert_array_equal(sa.frames, sb.frames)
            assert sa.frame_labels == sb.frame_labels
        assert any(
            not np.array_equal(sa.frames, sc.frames)
            for sa, sc in zip(a.sequences, c.sequences)
        )

    def test_gap_frames_inherit_previous_label(self):
        config = GeneratorConfig(
            classes=3, dim=2, num_sequences=5, gap_len_range=(2, 4)
        )
        ds = generate_synthetic(config, seed=2)
        found_gap = False
        for seq in ds.sequences:
            bounds = segment_boundaries(ds, seq)
            for (s0, e0, lab0), (s1, _e1, _lab1) in zip(bounds, bounds[1:]):
                for j in range(e0, s1):  # the gap, if any
                    found_gap = True
                    assert seq.frame_labels[j] == lab0
        assert found_gap

    def test_noise_zero_gives_repeatable_class_trajectories(self):
        config = GeneratorConfig(classes=2, dim=2, num_sequences=10, noise=0.0,
                                 seg_len_range=(6, 6), segments_range=(3, 3))
        ds = generate_synthetic(config, seed=4)
        by_label = {}
        for seq in ds.sequences:
            for start, end, lab in segment_boundaries(ds, seq):
                chunk = seq.frames[start:end]
                if lab in by_label:
                    np.testing.assert_allclose(chunk, by_label[lab], atol=1e-12)
                else:
                    by_label[lab] = chunk

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(classes=1)
        with pytest.raises(ValueError):
            GeneratorConfig(seg_len_range=(5, 3))
        with pytest.raises(ValueError):
            GeneratorConfig(noise=-0.1)
        with pytest.raises(ValueError):
            GeneratorConfig(gap_len_range=(0, 2))


class TestSegmentExtraction:
    def test_pieces_match_recorded_slices(self):
        ds = generate_synthetic(GeneratorConfig(classes=3, dim=2, num_sequences=3), seed=9)
        pieces = extract_segment_subsequences(ds)
        by_id = {p.id: p for p in pieces.sequences}
        for seq in ds.sequences:
            for k, (start, end, lab) in enumerate(segment_boundaries(ds, seq)):
                piece = by_id[f"{seq.id}#{k}"]
                np.testing.assert_array_equal(piece.frames, seq.frames[start:end])
                assert piece.frame_labels == [lab] * (end - start)
                assert piece.label_seq == [lab]

    def test_gap_frames_are_dropped(self):
        ds = generate_synthetic(
            GeneratorConfig(classes=3, dim=2, num_sequences=4, gap_len_range=(2, 3)),
            seed=9,
        )
        pieces = extract_segment_subsequences(ds)
        total_piece_frames = sum(p.num_frames for p in pieces.sequences)
        total_frames = sum(s.num_frames for s in ds.sequences)
        assert total_piece_frames < total_frames

    def test_missing_boundaries_raise(self):
        ds = tiny_dataset()
        with pytest.raises(DatasetFormatError):
            segment_boundaries(ds, ds.sequences[0])
        with pytest.raises(DatasetFormatError):
            extract_segment_subsequences(ds)


class TestFolds:
    def test_split_partitions_dataset(self):
        ds = generate_synthetic(GeneratorConfig(classes=2, dim=2, num_sequences=11), seed=1)
        plan = make_folds(ds, k=3, seed=0)
        all_ids = {s.id for s in ds.sequences}
        seen = set()
        for fold in range(3):
            train, test = plan.split(ds, fold)
            train_ids = {s.id for s in train.sequences}
            test_ids = {s.id for s in test.sequences}
            assert train_ids | test_ids == all_ids
            assert not train_ids & test_ids
            seen |= test_ids
        assert seen == all_ids

    def test_fold_sizes_balanced(self):
        ds = generate_synthetic(GeneratorConfig(classes=2, dim=2, num_sequences=10), seed=1)
        plan = make_folds(ds, k=4, seed=3)
        sizes = sorted(len(plan.fold_ids(f)) for f in range(4))
        assert sizes == [2, 2, 3, 3]

    def test_seed_changes_assignment(self):
        ds = generate_synthetic(GeneratorConfig(classes=2, dim=2, num_sequences=12), seed=1)
        a = make_folds(ds, k=3, seed=0)
        b = make_folds(ds, k=3, seed=0)
        c = make_folds(ds, k=3, seed=99)
        assert a.assignments == b.assignments
        assert a.assignments != c.assignments

    def test_k_bounds(self):
        ds = tiny_dataset()
        with pytest.raises(ValueError):
            make_folds(ds, k=1, seed=0)
        with pytest.raises(ValueError):
            make_folds(ds, k=3, seed=0)


class TestMetrics:
    def test_frame_accuracy_pools_over_sequences(self):
        acc = frame_accuracy([[0, 1], [1, 1, 1]], [[0, 0], [1, 1, 0]])
        assert acc == pytest.approx(100.0 * 3 / 5)

    def test_frame_accuracy_validates_alignment(self):
        with pytest.raises(ValueError):
            frame_accuracy([[0]], [[0], [1]])
        with pytest.raises(ValueError):
            frame_accuracy([[0, 1]], [[0]])
        with pytest.raises(ValueError):
            frame_accuracy([], [])

    def test_confusion_matrix_indexing(self):
        cm = confusion_matrix([[0, 1, 1]], [[0, 0, 1]], num_labels=3)
        expect = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 0]])
        np.testing.assert_array_equal(cm, expect)
        assert cm.sum() == 3

    def test_remap_previous_fills_forward(self):
        assert remap_blank_predictions([0, 9, 9, 1, 9], blank_id=9) == [0, 0, 0, 1, 1]

    def test_remap_leading_blanks_borrow_from_the_right(self):
        assert remap_blank_predictions([9, 9, 2, 9], blank_id=9) == [2, 2, 2, 2]

    def test_remap_all_blank_falls_back_to_zero(self):
        assert remap_blank_predictions([9, 9], blank_id=9) == [0, 0]

    def test_remap_keep_and_unknown_policy(self):
        assert remap_blank_predictions([9, 1], blank_id=9, policy="keep") == [9, 1]
        with pytest.raises(ValueError):
            remap_blank_predictions([0], blank_id=9, policy="nearest")


class TestRocCurve:
    def test_perfect_scorer_auc_one(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        truth = [1, 1, 0, 0]
        points, auc = roc_curve(scores, truth)
        assert auc == 1.0
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)

    def test_inverted_scorer_auc_zero(self):
        _, auc = roc_curve([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert auc == 0.0

    def test_random_ties_give_half(self):
        # all scores equal: single step from (0,0) to (1,1), trapezoid 0.5
        _, auc = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert auc == pytest.approx(0.5)

    def test_matches_rank_statistic(self):
        # AUC equals P(score_pos > score_neg) + 0.5 P(tie): check against
        # direct pair counting on random data
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = 30
            truth = [int(a) for a in rng.integers(0, 2, size=n)]
            if len(set(truth)) < 2:
                truth[0], truth[1] = 0, 1
            scores = [float(a) for a in rng.normal(size=n)]
            _, auc = roc_curve(scores, truth)
            pairs = wins = 0
            for s, t in zip(scores, truth):
                if t != 1:
                    continue
                for s2, t2 in zip(scores, truth):
                    if t2 == 0:
                        pairs += 1
                        wins += 1 if s > s2 else 0.5 if s == s2 else 0
            assert auc == pytest.approx(wins / pairs, abs=1e-12)

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            roc_curve([0.1, 0.2], [1, 1])
