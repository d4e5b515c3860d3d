"""Command-line surface: artifacts, exit codes, config merging."""
import json
import subprocess
import sys

import numpy as np
import pytest

import seqcrf.cli as cli_mod
import seqcrf.trainer as trainer_mod
from seqcrf.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_GRADCHECK,
    EXIT_IO,
    EXIT_OK,
    main,
)
from seqcrf.features import Checkpoint
from seqcrf.seqdata import DatasetFormatError, load_dataset


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def nan_loss(monkeypatch):
    """Make every unsegmented batch loss NaN, so training diverges."""
    real = trainer_mod.ctc_ldcrf_loss_and_grad

    def poisoned(*args, **kwargs):
        _, grad = real(*args, **kwargs)
        return float("nan"), grad

    monkeypatch.setattr(trainer_mod, "ctc_ldcrf_loss_and_grad", poisoned)


@pytest.fixture()
def tiny_data(tmp_path):
    """A small generated dataset on disk, shared across CLI tests."""
    path = tmp_path / "data.jsonl"
    code = run(
        "gen", "--out", str(path), "--classes", "3", "--dim", "2",
        "--sequences", "8", "--segments", "2..3", "--seg-len", "4..6",
        "--noise", "0.2", "--seed", "3",
    )
    assert code == EXIT_OK
    return path


class TestGen:
    def test_writes_loadable_dataset(self, tiny_data):
        ds = load_dataset(tiny_data)
        assert len(ds.sequences) == 8
        assert ds.label_set.num_labels == 4
        assert ds.dim == 2

    def test_same_seed_same_bytes(self, tmp_path):
        args = ["--classes", "2", "--dim", "2", "--sequences", "3",
                "--seg-len", "4..5", "--segments", "2..2", "--seed", "9"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run("gen", "--out", str(a), *args) == EXIT_OK
        assert run("gen", "--out", str(b), *args) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range_syntax_is_config_error(self, tmp_path, capsys):
        code = run("gen", "--out", str(tmp_path / "x.jsonl"), "--seg-len", "5-4")
        assert code == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_invalid_generator_values_exit_config(self, tmp_path):
        code = run("gen", "--out", str(tmp_path / "x.jsonl"), "--classes", "1")
        assert code == EXIT_CONFIG


class TestTrain:
    def test_train_writes_checkpoint_and_report(self, tiny_data, tmp_path):
        model = tmp_path / "model.json"
        report = tmp_path / "report.json"
        code = run(
            "train", "--data", str(tiny_data), "--out", str(model),
            "--report", str(report), "--epochs", "2", "--seed", "1",
        )
        assert code == EXIT_OK
        ck = Checkpoint.load(model)
        assert ck.hidden_map.states_per_label == 2  # default h
        parsed = json.loads(report.read_text())
        assert parsed["mode"] == "unsegmented"
        assert len(parsed["epoch_losses"]) == 2
        assert parsed["checkpoint_path"] == str(model)
        assert "wall_clock_seconds" not in parsed  # reports stay byte-stable

    def test_train_artifacts_are_deterministic(self, tiny_data, tmp_path):
        # identical invocation twice, same output path both times: the
        # report embeds the checkpoint path, so that must match too
        model = tmp_path / "model.json"
        out = []
        for tag in ("one", "two"):
            report = tmp_path / f"{tag}_report.json"
            code = run("train", "--data", str(tiny_data), "--out", str(model),
                       "--report", str(report), "--epochs", "2", "--seed", "7")
            assert code == EXIT_OK
            out.append((model.read_bytes(), report.read_bytes()))
        assert out[0] == out[1]

    def test_eval_data_flag_embeds_held_out_metrics(self, tiny_data, tmp_path, capsys):
        model = tmp_path / "model.json"
        report = tmp_path / "report.json"
        code = run(
            "train", "--data", str(tiny_data), "--out", str(model),
            "--report", str(report), "--epochs", "1", "--eval-data", str(tiny_data),
        )
        assert code == EXIT_OK
        parsed = json.loads(report.read_text())
        assert "frame_accuracy" in parsed["evaluation"]
        assert "held-out frame accuracy" in capsys.readouterr().out

    def test_adjacent_repeat_in_label_seq_is_io_error(self, tmp_path, capsys):
        data = tmp_path / "repeats.jsonl"
        rows = [{"id": f"s{i}", "frames": [[0.0], [1.0]], "label_seq": ["A", "A"]}
                for i in range(4)]
        data.write_text("\n".join(json.dumps(r) for r in
                                   [{"labels": ["A", "B"], "dim": 1}] + rows) + "\n")
        code = run("train", "--data", str(data), "--out", str(tmp_path / "m.json"))
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "adjacent" in err and "repeats.jsonl: line 2" in err

    def test_bad_eval_data_fails_before_training(self, tiny_data, tmp_path, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before loading --eval-data")

        monkeypatch.setattr(cli_mod, "train", no_training)
        code = run("train", "--data", str(tiny_data), "--out", str(tmp_path / "m.json"),
                   "--eval-data", str(tmp_path / "missing.jsonl"))
        assert code == EXIT_IO

    def test_divergence_writes_partial_artifacts_and_exits_4(self, tiny_data, tmp_path,
                                                             nan_loss):
        model = tmp_path / "m.json"
        report = tmp_path / "r.json"
        code = run("train", "--data", str(tiny_data), "--out", str(model),
                   "--report", str(report), "--epochs", "2", "--eval-data", str(tiny_data))
        assert code == EXIT_DIVERGED
        assert Checkpoint.load(model).hidden_map.states_per_label == 2
        parsed = json.loads(report.read_text())
        assert parsed["diverged"] is True
        assert parsed["evaluation"] is None and parsed["checkpoint_path"] == str(model)

    @pytest.mark.parametrize("epochs, batch_size, lr, cause", [
        # the run's last update overflows to inf
        ("1", "8", "1e308", "a weight update overflowed"),
        # finite weights too large for the chain's marginals
        ("3", "2", "1e150", "do not sum to one"),
    ], ids=["last-update-overflows", "huge-finite-weights"])
    def test_overflowing_run_ends_as_diverged(self, tmp_path, capsys, epochs, batch_size, lr,
                                              cause):
        data = tmp_path / "data.jsonl"
        assert run("gen", "--out", str(data), "--classes", "3", "--dim", "2",
                   "--sequences", "4", "--segments", "2..3", "--seg-len", "4..6",
                   "--seed", "0") == EXIT_OK
        model = tmp_path / "m.json"
        report = tmp_path / "r.json"
        with np.errstate(all="ignore"):
            code = run("train", "--data", str(data), "--out", str(model),
                       "--report", str(report), "--mode", "unsegmented", "--momentum", "0",
                       "--epochs", epochs, "--batch-size", batch_size, "--lr", lr)
        assert code == EXIT_DIVERGED
        assert np.all(np.isfinite(Checkpoint.load(model).params.flatten()))
        assert json.loads(report.read_text())["diverged"] is True
        captured = capsys.readouterr()
        assert cause in captured.err
        out = captured.out
        assert "diverged before finishing an epoch" in out and "raw initialization" not in out

    def test_eval_data_that_cannot_be_scored_keeps_the_checkpoint(self, tiny_data, tmp_path,
                                                                 capsys, monkeypatch):
        def overflowing(*args, **kwargs):
            raise FloatingPointError("chain marginals do not sum to one")

        monkeypatch.setattr(cli_mod, "evaluate", overflowing)
        model = tmp_path / "m.json"
        code = run("train", "--data", str(tiny_data), "--out", str(model), "--epochs", "1",
                   "--report", str(tmp_path / "r.json"), "--eval-data", str(tiny_data))
        assert code == EXIT_IO
        assert "do not sum to one" in capsys.readouterr().err
        Checkpoint.load(model)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("entry", [
        '[[0,6,"C"]', "7", '[[0,999,"A"]]', "[[0,3]]", '[[0,3,"<blank>"]]', '[[5,3,"A"]]',
        '[[false,3,"A"]]',
    ], ids=["bad-json", "not-a-list", "past-the-end", "not-a-triple", "blank-label",
            "end-before-start", "bool-start"])
    def test_malformed_segment_metadata_is_io_error(self, tmp_path, capsys, entry):
        data = tmp_path / "data.jsonl"
        assert run("gen", "--out", str(data), "--classes", "3", "--dim", "2",
                   "--sequences", "6", "--segments", "2..3", "--seg-len", "4..6",
                   "--seed", "0") == EXIT_OK
        header, *rows = data.read_text().splitlines()
        meta = json.loads(header)
        meta["meta"]["segments/seq0"] = entry
        data.write_text("\n".join([json.dumps(meta), *rows]) + "\n")
        code = run("train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                   "--mode", "pretrain_finetune", "--epochs", "2")
        assert code == EXIT_IO
        assert "segment boundaries of sequence 'seq0'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--init-scale", "1e308"), ("--init-scale", "inf"), ("--init-scale", "nan"),
        ("--lr", "nan"), ("--lr", "inf"), ("--l2", "nan"), ("--l2", "inf"),
    ])
    def test_non_finite_hyperparameter_is_config_error(self, tiny_data, tmp_path, capsys,
                                                       flag, value):
        code = run("train", "--data", str(tiny_data), "--out", str(tmp_path / "m.json"),
                   "--epochs", "1", flag, value)
        assert code == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_local_grad_mode_trains(self, tiny_data, tmp_path):
        reports = {}
        for mode in ("exact", "local"):
            code = run("train", "--data", str(tiny_data), "--out", str(tmp_path / f"{mode}.json"),
                       "--report", str(tmp_path / f"{mode}_report.json"),
                       "--epochs", "2", "--grad-mode", mode)
            assert code == EXIT_OK
            reports[mode] = json.loads((tmp_path / f"{mode}_report.json").read_text())
        assert reports["local"]["grad_mode"] == "local"
        assert reports["local"]["epochs_completed"] == 2
        assert (tmp_path / "local.json").read_text() != (tmp_path / "exact.json").read_text()

    def test_verbose_logs_epochs_without_changing_the_report(self, tiny_data, tmp_path):
        reports = []
        for flags in ([], ["--verbose"]):
            report = tmp_path / f"report{len(flags)}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "seqcrf", *flags, "train", "--data", str(tiny_data),
                 "--out", str(tmp_path / "m.json"), "--report", str(report),
                 "--epochs", "2", "--seed", "1"],
                capture_output=True, text=True,
            )
            assert proc.returncode == EXIT_OK
            epoch_lines = [ln for ln in proc.stderr.splitlines() if "epoch " in ln]
            assert len(epoch_lines) == (2 if flags else 0)
            reports.append(report.read_bytes())
        assert "epoch 2/2" in epoch_lines[-1] and "step size" in epoch_lines[-1]
        assert reports[0] == reports[1]

    def test_missing_data_file_is_io_error(self, tmp_path):
        code = run("train", "--data", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "m.json"))
        assert code == EXIT_IO

    def test_unknown_config_key_in_file_is_config_error(self, tiny_data, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text('{"learning_rte": 0.1}')
        code = run("train", "--data", str(tiny_data), "--out", str(tmp_path / "m.json"),
                   "--config", str(conf))
        assert code == EXIT_CONFIG
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        '"epochs": 1.5', '"batch_size": 2.5', '"hidden_per_label": 1.5', '"window": 0.5',
        '"mode": "pretrain_finetune", "pretrain_epochs": 0.5', '"learning_rate": "0.1"',
        '"momentum": null', '"epochs": true',
    ])
    def test_config_value_of_wrong_type_is_config_error(self, tiny_data, tmp_path, capsys,
                                                        entry):
        conf = tmp_path / "conf.json"
        conf.write_text("{" + entry + "}")
        code = run("train", "--data", str(tiny_data), "--out", str(tmp_path / "m.json"),
                   "--config", str(conf))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "must be of type" in err and "Traceback" not in err

    @pytest.mark.parametrize("header, change, message", [
        ({"dim": True}, {}, "'dim' must be a positive integer"),
        ({}, {"id": 5}, "'id' must be a string"),
        ({}, {"id": None}, "'id' must be a string"),
        ({}, {"label_seq": "AB"}, "'label_seq' must be an array of label names"),
        ({}, {"frame_labels": "AABB"}, "'frame_labels' must be an array of label names"),
        ({"labels": ["1", "2"]}, {"frame_labels": [1, 1, 2, 2], "label_seq": [1, 2]},
         "'frame_labels' must be an array of label names"),
        ({}, {"frames": [[0.0], [True], [0.5], [0.2]]}, "array of rows of numbers"),
        ({}, {"frames": [[0.0], ["1.5"], [0.5], [0.2]]}, "array of rows of numbers"),
        ({"dim": 2}, {"frames": [[0.0, 1.0], [1.0, True], [0.5, 0.1], [0.2, 0.3]]},
         "array of rows of numbers"),
        ({}, {"frames": [[0.0], [10**400], [0.5], [0.2]]}, "bad frames"),
    ], ids=["dim-true", "id-5", "id-null", "label-seq-string", "frame-labels-string",
            "numeric-labels", "bool-frame", "string-frame", "bool-in-number-row",
            "int-beyond-float"])
    def test_data_field_of_wrong_type_is_io_error(self, tmp_path, capsys, header, change,
                                                  message):
        head = {"labels": ["A", "B"], "dim": 1, **header}
        names = head["labels"]
        seq = {"id": "s0", "frames": [[0.0], [1.0], [0.5], [0.2]],
               "frame_labels": [names[0]] * 2 + [names[1]] * 2, "label_seq": names, **change}
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps(head) + "\n" + json.dumps(seq) + "\n")
        code = run("train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                   "--mode", "frame_wise", "--epochs", "1")
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("lines, bad", [
        (["5"], 1),
        (['"labels dim"'], 1),
        (["null", '{"id": "s0", "frames": [[0.0]]}'], 1),
        (['{"labels": ["A"], "dim": 1}', "7"], 2),
        (['{"labels": ["A"], "dim": 1}', '["id", "frames"]'], 2),
        (['{"labels": ["A"], "dim": 1}', '{"id": "s0", "frames": [[0.0]]}', '"s1"'], 3),
    ], ids=["header-number", "header-string", "header-null", "sequence-number",
            "sequence-array", "third-line-string"])
    @pytest.mark.parametrize("entry", ["api", "cli"])
    def test_non_object_line_is_io_error(self, tmp_path, capsys, lines, bad, entry):
        data = tmp_path / "data.jsonl"
        data.write_text("\n".join(lines) + "\n")
        message = f"line {bad}: expected a JSON object"
        if entry == "api":
            with pytest.raises(DatasetFormatError, match=message):
                load_dataset(data)
            return
        code = run("train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                   "--mode", "frame_wise", "--epochs", "1")
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("entry", ["api", "cli"])
    def test_header_error_names_the_header_line(self, tmp_path, capsys, entry):
        # blank lines are skipped, so the header here is line 2
        data = tmp_path / "data.jsonl"
        data.write_text('\n{"labels": ["A"], "dim": 0}\n')
        message = "line 2: 'dim' must be a positive integer"
        if entry == "api":
            with pytest.raises(DatasetFormatError, match=message):
                load_dataset(data)
            return
        code = run("train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                   "--mode", "frame_wise", "--epochs", "1")
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_flags_override_config_file(self, tiny_data, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text('{"epochs": 1, "seed": 4, "hidden_per_label": 3}')
        model = tmp_path / "m.json"
        code = run("train", "--data", str(tiny_data), "--out", str(model),
                   "--config", str(conf), "--hidden", "1")
        assert code == EXIT_OK
        assert Checkpoint.load(model).hidden_map.states_per_label == 1
        # a file that is invalid on its own but valid once the flags are merged in
        conf.write_text('{"epochs": 1, "pretrain_epochs": 2}')
        code = run("train", "--data", str(tiny_data), "--out", str(model),
                   "--report", str(tmp_path / "r.json"), "--config", str(conf),
                   "--epochs", "2", "--mode", "pretrain_finetune")
        assert code == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        assert (report["epochs_completed"], report["pretrain_epochs"]) == (2, 2)

    def test_model_preset_crf_forces_h1_frame_wise(self, tiny_data, tmp_path):
        model = tmp_path / "m.json"
        report = tmp_path / "r.json"
        code = run("train", "--data", str(tiny_data), "--out", str(model),
                   "--report", str(report), "--model", "crf", "--epochs", "1")
        assert code == EXIT_OK
        assert Checkpoint.load(model).hidden_map.states_per_label == 1
        assert json.loads(report.read_text())["mode"] == "frame_wise"

    def test_model_preset_conflict_is_config_error(self, tiny_data, tmp_path, capsys):
        code = run("train", "--data", str(tiny_data), "--out", str(tmp_path / "m.json"),
                   "--model", "crf", "--hidden", "2")
        assert code == EXIT_CONFIG
        assert "requires" in capsys.readouterr().err

    def test_unsupported_mode_value_rejected_by_parser(self, tiny_data, tmp_path):
        code = run("train", "--data", str(tiny_data), "--out", str(tmp_path / "m.json"),
                   "--mode", "banana")
        assert code == EXIT_CONFIG


class TestEvalAndDecode:
    @pytest.fixture()
    def trained(self, tiny_data, tmp_path):
        model = tmp_path / "model.json"
        assert run("train", "--data", str(tiny_data), "--out", str(model),
                   "--epochs", "2", "--seed", "0") == EXIT_OK
        return model

    def test_eval_writes_metrics_json(self, tiny_data, trained, tmp_path):
        out = tmp_path / "metrics.json"
        code = run("eval", "--data", str(tiny_data), "--model", str(trained),
                   "--out", str(out))
        assert code == EXIT_OK
        parsed = json.loads(out.read_text())
        assert 0.0 <= parsed["frame_accuracy"] <= 100.0
        assert parsed["fold_accuracies"] is None

    def test_eval_stdout_and_folds(self, tiny_data, trained, capsys):
        code = run("eval", "--data", str(tiny_data), "--model", str(trained),
                   "--folds", "4")
        assert code == EXIT_OK
        parsed = json.loads(capsys.readouterr().out)
        assert len(parsed["fold_accuracies"]) == 4

    def test_eval_missing_model_is_io_error(self, tiny_data, tmp_path):
        code = run("eval", "--data", str(tiny_data),
                   "--model", str(tmp_path / "ghost.json"))
        assert code == EXIT_IO

    def test_checkpoint_missing_key_is_io_error(self, tiny_data, trained, capsys):
        payload = json.loads(trained.read_text())
        del payload["theta"]
        trained.write_text(json.dumps(payload))
        code = run("eval", "--data", str(tiny_data), "--model", str(trained))
        assert code == EXIT_IO
        assert "theta" in capsys.readouterr().err

    def test_unknown_positive_label_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "binary.jsonl"
        model = tmp_path / "m.json"
        assert run("gen", "--out", str(data), "--classes", "2", "--dim", "2",
                   "--sequences", "4", "--segments", "2..3", "--seg-len", "4..6") == EXIT_OK
        assert run("train", "--data", str(data), "--out", str(model), "--epochs", "1") == EXIT_OK
        code = run("eval", "--data", str(data), "--model", str(model),
                   "--positive-label", "nope")
        assert code == EXIT_CONFIG
        assert "'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_checkpoint_weight_is_io_error(self, tiny_data, trained, capsys, value):
        payload = json.loads(trained.read_text())
        payload["theta"][0] = float(value)
        trained.write_text(json.dumps(payload))
        for command in ("eval", "decode"):
            assert run(command, "--data", str(tiny_data), "--model", str(trained)) == EXIT_IO
        assert "theta must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "decode"])
    def test_checkpoint_overflowing_the_chain_is_io_error(self, tiny_data, trained, capsys,
                                                          command):
        # weights times 1e12 leave the chain's marginal rows off unit mass
        payload = json.loads(trained.read_text())
        payload["theta"] = [w * 1e12 for w in payload["theta"]]
        trained.write_text(json.dumps(payload))
        code = run(command, "--data", str(tiny_data), "--model", str(trained))
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "do not sum to one" in err and "Traceback" not in err

    def test_only_the_last_sequence_overflowing_is_io_error(self, tiny_data, trained,
                                                            capsys):
        # the earlier sequences score and stream out before the last one fails
        header, *rows = tiny_data.read_text().splitlines()
        last = json.loads(rows[-1])
        last["frames"] = [[x * 1e12 for x in frame] for frame in last["frames"]]
        tiny_data.write_text("\n".join([header, *rows[:-1], json.dumps(last)]) + "\n")
        for command in ("eval", "decode"):
            assert run(command, "--data", str(tiny_data), "--model", str(trained)) == EXIT_IO
            err = capsys.readouterr().err
            assert "do not sum to one" in err and "Traceback" not in err

    @pytest.mark.parametrize("change", [
        {"blank_id": 0},
        {"blank_id": 3.7},
        {"labels": ["<blank>", "A", "B", "C"], "blank_id": 0},
        {"labels": ["A", "B", "C", "D"]},
        {"labels": [1, 2, 3, "<blank>"]},
        {"input_dim": 2.9},
        {"window": 1.0},
        {"theta": lambda theta: [str(w) for w in theta]},
    ], ids=["blank-id-0", "blank-id-3.7", "blank-first", "no-blank", "int-labels",
            "input-dim-2.9", "window-1.0", "string-theta"])
    def test_checkpoint_off_its_written_form_is_io_error(self, tiny_data, trained, capsys,
                                                         change):
        payload = json.loads(trained.read_text())
        for key, value in change.items():
            payload[key] = value(payload[key]) if callable(value) else value
        trained.write_text(json.dumps(payload))
        for command in ("eval", "decode"):
            assert run(command, "--data", str(tiny_data), "--model", str(trained)) == EXIT_IO
            err = capsys.readouterr().err
            assert "is malformed" in err and "Traceback" not in err

    def test_truncated_checkpoint_is_io_error(self, tiny_data, trained):
        trained.write_text(trained.read_text()[:40])
        code = run("decode", "--data", str(tiny_data), "--model", str(trained))
        assert code == EXIT_IO

    def test_decode_emits_frame_and_segment_labels(self, tiny_data, trained, tmp_path):
        out = tmp_path / "decoded.json"
        code = run("decode", "--data", str(tiny_data), "--model", str(trained),
                   "--out", str(out))
        assert code == EXIT_OK
        ds = load_dataset(tiny_data)
        parsed = json.loads(out.read_text())
        assert len(parsed["sequences"]) == 8
        first = parsed["sequences"][0]
        assert len(first["frame_labels"]) == ds.sequences[0].num_frames
        valid = set(ds.label_set.names)
        assert set(first["frame_labels"]) <= valid
        # segment output is blank-free by construction of best-path collapse
        assert all(n in ds.label_set.real_names for n in first["label_seq"])


class TestKfold:
    def test_writes_per_fold_and_aggregate_artifacts(self, tiny_data, tmp_path):
        out_dir = tmp_path / "folds"
        code = run("kfold", "--data", str(tiny_data), "--out-dir", str(out_dir),
                   "--k", "3", "--epochs", "1", "--seed", "0")
        assert code == EXIT_OK
        aggregate = json.loads((out_dir / "aggregate.json").read_text())
        assert aggregate["k"] == 3
        assert len(aggregate["fold_accuracies"]) == 3
        assert aggregate["mean_accuracy"] == pytest.approx(
            float(np.mean(aggregate["fold_accuracies"]))
        )
        for fold in range(3):
            assert (out_dir / f"fold{fold}_model.json").exists()
            report = json.loads((out_dir / f"fold{fold}_report.json").read_text())
            assert report["evaluation"]["frame_accuracy"] == pytest.approx(
                aggregate["fold_accuracies"][fold]
            )

    def test_divergence_writes_fold_artifacts_and_exits_4(self, tiny_data, tmp_path,
                                                          nan_loss):
        out_dir = tmp_path / "folds"
        code = run("kfold", "--data", str(tiny_data), "--out-dir", str(out_dir),
                   "--k", "2", "--epochs", "1")
        assert code == EXIT_DIVERGED
        Checkpoint.load(out_dir / "fold0_model.json")
        report = json.loads((out_dir / "fold0_report.json").read_text())
        assert report["diverged"] is True and report["evaluation"] is None
        assert not (out_dir / "aggregate.json").exists()

    def test_k_larger_than_dataset_is_config_error(self, tiny_data, tmp_path):
        code = run("kfold", "--data", str(tiny_data),
                   "--out-dir", str(tmp_path / "folds"), "--k", "9")
        assert code == EXIT_CONFIG


class TestGradcheck:
    def test_passes_under_default_threshold(self, capsys):
        code = run("gradcheck", "--trials", "5", "--seed", "2")
        assert code == EXIT_OK
        assert "max relative error" in capsys.readouterr().out

    def test_unreachable_threshold_fails_with_code_5(self, capsys):
        code = run("gradcheck", "--trials", "3", "--seed", "2",
                   "--threshold", "1e-18")
        assert code == EXIT_GRADCHECK
        assert "exceeds threshold" in capsys.readouterr().err

    def test_checks_the_prior_gradient_that_training_follows(self, monkeypatch, capsys):
        seen = []

        def spy(**kwargs):
            seen.append(kwargs.get("label_prior"))
            return {False: 1e-9, True: 3e-9}[kwargs.get("label_prior")]

        monkeypatch.setattr(cli_mod, "gradient_check_suite", spy)
        assert run("gradcheck", "--trials", "2") == EXIT_OK
        assert seen == [False, True]
        assert "max relative error: 3e-09" in capsys.readouterr().out

    def test_grad_mode_flag_is_gone(self):
        # the local mode only approximates the gradient, so checking it
        # against finite differences could only fail
        assert run("gradcheck", "--trials", "2", "--grad-mode", "local") == EXIT_CONFIG


class TestParser:
    def test_no_subcommand_is_config_error(self):
        assert run() == EXIT_CONFIG

    def test_unknown_flag_is_config_error(self):
        assert run("gen", "--out", "x.jsonl", "--wat") == EXIT_CONFIG

    def test_module_entry_point_matches_cli(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seqcrf", "gradcheck", "--trials", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        assert "max relative error" in proc.stdout
