import json
import os

import numpy as np
import pytest

from hmge.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    code = main(
        [
            "synth", "--nodes", "40", "--dims", "3", "--p-in", "0.4",
            "--p-out", "0.1", "--seed", "7", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    return out


class TestSynth:
    def test_writes_expected_files(self, dataset_dir):
        names = {p.name for p in dataset_dir.iterdir()}
        assert {"meta.json", "features.csv", "labels.csv", "labels_per_dim.csv"} <= names
        assert {f"dim_{k}.tsv" for k in range(3)} <= names
        meta = json.loads((dataset_dir / "meta.json").read_text())
        assert meta == {"num_nodes": 40, "num_dims": 3, "num_features": 3}

    def test_rerun_byte_identical(self, tmp_path):
        args = ["synth", "--nodes", "30", "--dims", "2", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        for p in sorted(a.iterdir()):
            assert p.read_bytes() == (b / p.name).read_bytes()

    def test_missing_flags_usage_error(self, capsys):
        assert main(["synth", "--nodes", "10"]) == EXIT_USAGE
        assert "dims" in capsys.readouterr().err

    def test_unknown_flag_usage_error(self):
        assert main(["synth", "--bogus", "1"]) == EXIT_USAGE

    def test_default_probabilities(self, tmp_path):
        # defaults p_in=0.05, p_out=0.01: at 40 nodes this graph is sparse
        out = tmp_path / "d"
        assert main(["synth", "--nodes", "40", "--dims", "1", "--seed", "0", "--out", str(out)]) == EXIT_OK
        edges = (out / "dim_0.tsv").read_text().splitlines()
        assert len(edges) < 40  # far below the 0.4-density fixture


class TestTrain:
    def test_outputs(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "train", "--data", str(dataset_dir), "--out", str(out),
                "--embed-size", "4", "--layers", "1", "--epochs", "4",
                "--patience", "4", "--seed", "1",
            ]
        )
        assert code == EXIT_OK
        assert (out / "embeddings.csv").is_file()
        assert (out / "train_log.csv").is_file()
        assert (out / "model.bin").is_file()
        assert (out / "alpha_l0.csv").is_file()
        rows = (out / "embeddings.csv").read_text().splitlines()
        assert len(rows) == 40 and len(rows[0].split(",")) == 4
        alphas = np.loadtxt(out / "alpha_l0.csv", delimiter=",").reshape(3, -1)
        assert np.abs(alphas.sum(axis=0) - 1.0).max() < 1e-12

    def test_layers_zero_is_linear(self, dataset_dir, tmp_path):
        out = tmp_path / "run0"
        code = main(
            [
                "train", "--data", str(dataset_dir), "--out", str(out),
                "--embed-size", "4", "--layers", "0", "--epochs", "3",
                "--patience", "3", "--seed", "1",
            ]
        )
        assert code == EXIT_OK
        assert not (out / "alpha_l0.csv").exists()

    def test_missing_dataset_is_data_error(self, tmp_path):
        code = main(
            ["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o"),
             "--epochs", "2", "--patience", "2"]
        )
        assert code == EXIT_DATA

    def test_config_file_and_flag_precedence(self, dataset_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"embed_size": 4, "layers": 1, "epochs": 2, "patience": 2, "seed": 5}))
        out = tmp_path / "run_cfg"
        code = main(
            ["train", "--data", str(dataset_dir), "--out", str(out), "--config", str(cfg),
             "--embed-size", "6"]
        )
        assert code == EXIT_OK
        rows = (out / "embeddings.csv").read_text().splitlines()
        assert len(rows[0].split(",")) == 6  # flag beat the config file

    def test_default_patience_fits_short_run(self, dataset_dir, tmp_path):
        out = tmp_path / "short"
        code = main(
            ["train", "--data", str(dataset_dir), "--out", str(out), "--embed-size", "4",
             "--layers", "1", "--epochs", "2", "--seed", "1"]
        )
        assert code == EXIT_OK
        assert len((out / "train_log.csv").read_text().splitlines()) == 3

    def test_explicit_patience_beyond_epochs_is_usage_error(self, dataset_dir, tmp_path, capsys):
        code = main(
            ["train", "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
             "--epochs", "2", "--patience", "5"]
        )
        assert code == EXIT_USAGE
        assert "patience must lie in [1, epochs], got 5 vs 2" in capsys.readouterr().err


class TestConfigFile:
    def test_config_file_matches_flags(self, dataset_dir, tmp_path, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "1")
        values = {
            "data": str(dataset_dir), "out": str(tmp_path / "by_config"),
            "embed_size": 4, "layers": 1, "schedule": "3,1", "lr": 0.01,
            "weight_decay": 0.001, "epochs": 3, "patience": 2, "identity_features": True,
            "seed": 5, "threads": 1,
            # Flags of other subcommands are ignored, whatever their values.
            "task": "foo", "nodes": "ten",
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        by_flags = tmp_path / "by_flags"
        assert main(
            ["train", "--data", str(dataset_dir), "--out", str(by_flags), "--embed-size", "4",
             "--layers", "1", "--schedule", "3,1", "--lr", "0.01", "--weight-decay", "0.001",
             "--epochs", "3", "--patience", "2", "--identity-features", "--seed", "5",
             "--threads", "1"]
        ) == EXIT_OK
        by_config = tmp_path / "by_config"
        for name in ("model.bin", "embeddings.csv"):
            assert (by_config / name).read_bytes() == (by_flags / name).read_bytes()
        assert json.loads(np.load(by_config / "model.bin")["meta"][()])["identity_features"]

    @pytest.mark.parametrize("command,values,flag", [
        (["train"], {"lr": "abc"}, "--lr"),
        (["synth", "--dims", "2"], {"nodes": "ten"}, "--nodes"),
        (["eval"], {"task": "foo"}, "--task"),
        (["train"], {"identity_features": "false"}, "--identity-features"),
    ], ids=["lr", "nodes", "task", "identity_features"])
    def test_bad_config_value_is_usage_error(
        self, dataset_dir, tmp_path, capsys, command, values, flag
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out"
        args = command + ["--config", str(cfg), "--out", str(out)]
        if command[0] != "synth":
            args += ["--data", str(dataset_dir), "--epochs", "2", "--seed", "1"]
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: config file") and flag in err
        assert not out.exists()


class TestEvalAblateSweep:
    def test_eval_link(self, dataset_dir, tmp_path):
        out = tmp_path / "eval"
        code = main(
            [
                "eval", "--data", str(dataset_dir), "--task", "link", "--ratio", "0.2",
                "--out", str(out), "--embed-size", "4", "--layers", "1",
                "--epochs", "3", "--patience", "3", "--seed", "2",
            ]
        )
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["task"] == "link"
        assert 0.0 <= report["metrics"]["auc"] <= 1.0
        assert 0.0 <= report["metrics"]["ap"] <= 1.0

    def test_eval_link_complete_graph_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "complete"
        assert main(
            ["synth", "--nodes", "6", "--dims", "1", "--p-in", "1", "--p-out", "1",
             "--out", str(data)]
        ) == EXIT_OK
        code = main(
            ["eval", "--data", str(data), "--task", "link", "--epochs", "2",
             "--out", str(tmp_path / "eval")]
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "too dense" in err
        assert "Traceback" not in err

    def test_eval_class(self, dataset_dir, tmp_path):
        out = tmp_path / "evalc"
        code = main(
            [
                "eval", "--data", str(dataset_dir), "--task", "class",
                "--train-fraction", "0.2", "--out", str(out), "--embed-size", "4",
                "--layers", "1", "--epochs", "3", "--patience", "3", "--seed", "2",
            ]
        )
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert {"accuracy", "f1_macro", "f1_micro"} <= set(report["metrics"])

    @pytest.mark.slow
    def test_ablate_three_rows(self, dataset_dir, tmp_path):
        out = tmp_path / "abl"
        code = main(
            [
                "ablate", "--data", str(dataset_dir), "--out", str(out),
                "--embed-size", "4", "--layers", "1", "--epochs", "3",
                "--patience", "3", "--ratio", "0.2", "--train-fraction", "0.2",
                "--seed", "3",
            ]
        )
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert [r["model"] for r in report["rows"]] == ["full", "no_hierarchy", "uniform_weights"]
        for row in report["rows"]:
            assert {"auc", "ap", "f1_macro", "f1_micro"} <= set(row)

    @pytest.mark.slow
    def test_sweep_rows(self, dataset_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", "--data", str(dataset_dir), "--embed-sizes", "4,6",
                "--out", str(out), "--layers", "1", "--epochs", "3",
                "--patience", "3", "--train-fraction", "0.2", "--seed", "4",
            ]
        )
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert [r["embed_size"] for r in report["rows"]] == [4, 6]

    @pytest.mark.parametrize("command", [
        ["sweep", "--embed-sizes", "4,6"],
        ["ablate", "--ratio", "0.2"],
    ])
    def test_unlabeled_data_is_data_error_before_training(
        self, dataset_dir, tmp_path, monkeypatch, capsys, command
    ):
        import hmge.evaluation
        import hmge.training

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the labels")

        monkeypatch.setattr(hmge.training, "train", no_training)
        monkeypatch.setattr(hmge.evaluation, "train", no_training)
        (dataset_dir / "labels.csv").unlink()
        out = tmp_path / "out"
        code = main(
            command + ["--data", str(dataset_dir), "--out", str(out), "--embed-size", "4",
                       "--layers", "1", "--epochs", "2", "--seed", "1"]
        )
        assert code == EXIT_DATA
        assert "classification needs node labels" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command", [
        ["eval", "--task", "class"],
        ["sweep", "--embed-sizes", "4,6"],
        ["ablate", "--ratio", "0.2"],
    ], ids=["eval", "sweep", "ablate"])
    def test_empty_test_split_is_usage_error_before_training(
        self, tmp_path, monkeypatch, capsys, command
    ):
        import hmge.evaluation
        import hmge.training

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the split")

        data = tmp_path / "data"
        assert main(["synth", "--nodes", "60", "--dims", "3", "--seed", "1",
                     "--out", str(data)]) == EXIT_OK
        monkeypatch.setattr(hmge.training, "train", no_training)
        monkeypatch.setattr(hmge.evaluation, "train", no_training)
        out = tmp_path / "out"
        code = main(
            command + ["--data", str(data), "--train-fraction", "0.99", "--out", str(out),
                       "--embed-size", "4", "--layers", "1", "--epochs", "2", "--seed", "1"]
        )
        assert code == EXIT_USAGE
        assert "nothing is left to test" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("layers", ["0", "1"])
    def test_export_round_trip(self, dataset_dir, tmp_path, layers):
        run = tmp_path / "run"
        assert main(
            ["train", "--data", str(dataset_dir), "--out", str(run), "--embed-size", "4",
             "--layers", layers, "--epochs", "3", "--patience", "3", "--seed", "1"]
        ) == EXIT_OK
        exp = tmp_path / "exp"
        code = main(
            ["export", "--model", str(run / "model.bin"), "--data", str(dataset_dir),
             "--out", str(exp)]
        )
        assert code == EXIT_OK
        assert (exp / "embeddings.csv").read_text() == (run / "embeddings.csv").read_text()

    def test_export_pins_malloc_before_encoding(self, dataset_dir, tmp_path, monkeypatch):
        import hmge.model

        run = tmp_path / "run"
        assert main(
            ["train", "--data", str(dataset_dir), "--out", str(run), "--embed-size", "4",
             "--layers", "1", "--epochs", "2", "--patience", "2", "--seed", "1"]
        ) == EXIT_OK
        calls, forward = [], hmge.model.build_forward
        monkeypatch.setattr(hmge.model, "pin_malloc", lambda: calls.append("pin"))
        monkeypatch.setattr(hmge.model, "build_forward",
                            lambda *a, **k: calls.append("encode") or forward(*a, **k))
        assert main(
            ["export", "--model", str(run / "model.bin"), "--data", str(dataset_dir),
             "--out", str(tmp_path / "exp")]
        ) == EXIT_OK
        assert calls == ["pin", "encode"]

    @pytest.mark.parametrize("layers", ["0", "1"])
    def test_export_identity_feature_round_trip(self, tmp_path, layers, capsys):
        data = tmp_path / "d60"
        assert main(["synth", "--nodes", "60", "--dims", "3", "--out", str(data)]) == EXIT_OK
        run = tmp_path / "run"
        assert main(
            ["train", "--data", str(data), "--out", str(run), "--identity-features",
             "--layers", layers, "--embed-size", "8", "--epochs", "2", "--patience", "2"]
        ) == EXIT_OK
        exp = tmp_path / "exp"
        code = main(
            ["export", "--model", str(run / "model.bin"), "--data", str(data),
             "--out", str(exp)]
        )
        assert code == EXIT_OK
        assert (exp / "embeddings.csv").read_text() == (run / "embeddings.csv").read_text()
        # one-hot features of another node count do not fit the model
        data40 = tmp_path / "d40"
        assert main(["synth", "--nodes", "40", "--dims", "3", "--out", str(data40)]) == EXIT_OK
        code = main(
            ["export", "--model", str(run / "model.bin"), "--data", str(data40),
             "--out", str(tmp_path / "exp40")]
        )
        assert code == EXIT_DATA
        assert "takes 60 features per node, dataset has 40" in capsys.readouterr().err

    def test_export_version_one_model_is_data_error(self, dataset_dir, tmp_path, capsys):
        model = tmp_path / "model.bin"
        meta = {"format_version": 1, "kind": "hmge",
                "config": {"embed_size": 4, "num_layers": 1, "dims_schedule": None,
                           "activation": "relu"},
                "layer_dims": [3]}
        with open(model, "wb") as fh:
            np.savez(fh, meta=np.str_(json.dumps(meta)), layer0_alpha=np.zeros((3, 1)))
        code = main(
            ["export", "--model", str(model), "--data", str(dataset_dir),
             "--out", str(tmp_path / "exp")]
        )
        assert code == EXIT_DATA
        assert "unsupported model format version 1" in capsys.readouterr().err

    @pytest.mark.parametrize("layers", ["0", "1"])
    def test_export_dimension_mismatch_is_data_error(self, dataset_dir, tmp_path, layers, capsys):
        run = tmp_path / "run"
        assert main(
            ["train", "--data", str(dataset_dir), "--out", str(run), "--embed-size", "4",
             "--layers", layers, "--epochs", "2", "--patience", "2", "--seed", "1"]
        ) == EXIT_OK
        data4 = tmp_path / "d4"
        assert main(["synth", "--nodes", "40", "--dims", "4", "--out", str(data4)]) == EXIT_OK
        code = main(
            ["export", "--model", str(run / "model.bin"), "--data", str(data4),
             "--out", str(tmp_path / "exp")]
        )
        assert code == EXIT_DATA
        assert "model takes 3 dimensions, dataset has 4" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", [
        "meta-not-json", "no-config", "no-identity-features", "null-embed-size",
        "w_0-shape", "final_w-shape",
    ])
    def test_export_malformed_model_is_data_error(self, dataset_dir, tmp_path, damage, capsys):
        run = tmp_path / "run"
        assert main(
            ["train", "--data", str(dataset_dir), "--out", str(run), "--embed-size", "4",
             "--layers", "1", "--epochs", "2", "--patience", "2", "--seed", "1"]
        ) == EXIT_OK
        with np.load(run / "model.bin") as archive:
            arrays = dict(archive)
        meta = json.loads(str(arrays.pop("meta")))
        if damage == "no-config":
            del meta["config"]
        elif damage == "no-identity-features":
            del meta["identity_features"]
        elif damage == "null-embed-size":
            meta["config"]["embed_size"] = None
        elif damage == "w_0-shape":
            arrays["w_0"] = arrays["w_0"][:, :, :-1]
        elif damage == "final_w-shape":
            arrays["final_w"] = arrays["final_w"][:-1]
        text = "{not json" if damage == "meta-not-json" else json.dumps(meta)
        model = tmp_path / "model.bin"
        with open(model, "wb") as fh:
            np.savez(fh, meta=np.str_(text), **arrays)
        code = main(
            ["export", "--model", str(model), "--data", str(dataset_dir),
             "--out", str(tmp_path / "exp")]
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")

    def test_seed_determinism(self, dataset_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(
                ["train", "--data", str(dataset_dir), "--out", str(out), "--embed-size", "4",
                 "--layers", "1", "--epochs", "3", "--patience", "3", "--seed", "9"]
            ) == EXIT_OK
            outs.append((out / "embeddings.csv").read_text())
        assert outs[0] == outs[1]


class TestOutPaths:
    @pytest.mark.parametrize("command", ["train", "eval", "ablate", "sweep", "export"])
    def test_out_naming_a_file_is_data_error(self, dataset_dir, tmp_path, command, capsys):
        taken = tmp_path / "taken"
        taken.write_text("occupied")
        data = ["--data", str(dataset_dir), "--epochs", "2", "--seed", "1"]
        args = {
            "train": ["train", *data],
            "eval": ["eval", *data, "--task", "class"],
            "ablate": ["ablate", *data],
            "sweep": ["sweep", *data, "--embed-sizes", "4"],
            "export": ["export", "--data", str(dataset_dir),
                       "--model", str(tmp_path / "run" / "model.bin")],
        }[command]
        if command == "export":
            assert main(["train", *data, "--out", str(tmp_path / "run")]) == EXIT_OK
            capsys.readouterr()
        assert main(args + ["--out", str(taken)]) == EXIT_DATA
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"data error: cannot write {taken}")
        assert taken.read_text() == "occupied"


    @pytest.mark.parametrize("command,blocked", [
        ("train", "embeddings.csv"), ("train", "train_log.csv"), ("export", "embeddings.csv")])
    def test_unwritable_output_file_is_data_error(self, dataset_dir, tmp_path, command,
                                                  blocked, capsys):
        data = ["--data", str(dataset_dir), "--epochs", "2", "--seed", "1"]
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        if command == "export":
            assert main(["train", *data, "--out", str(tmp_path / "run")]) == EXIT_OK
            capsys.readouterr()
            args = ["export", "--data", str(dataset_dir),
                    "--model", str(tmp_path / "run" / "model.bin")]
        else:
            args = ["train", *data]
        assert main(args + ["--out", str(out)]) == EXIT_DATA
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"data error: {out / blocked}: ")
        assert (out / blocked).is_dir()


class TestDataFiles:
    def test_non_utf8_dimension_file_is_data_error(self, dataset_dir, capsys, tmp_path):
        (dataset_dir / "dim_0.tsv").write_bytes(b"\xff\xfe\x00\x01")
        code = main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
                     "--epochs", "2"])
        assert code == EXIT_DATA
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error: dim_0.tsv is not UTF-8")

    @pytest.mark.parametrize("command", [["eval", "--task", "class"], ["ablate"]],
                             ids=["eval", "ablate"])
    def test_negative_class_id_is_data_error(self, tmp_path, capsys, command):
        data = tmp_path / "d20"
        assert main(["synth", "--nodes", "20", "--dims", "2", "--p-in", "0.4",
                     "--seed", "1", "--out", str(data)]) == EXIT_OK
        rows = (data / "labels.csv").read_text().splitlines()
        rows[1] = "-1"
        (data / "labels.csv").write_text("\n".join(rows) + "\n")
        code = main(command + ["--data", str(data), "--out", str(tmp_path / "o"),
                               "--epochs", "2"])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == ["data error: labels.csv:2: bad class id"]


    @pytest.mark.parametrize("command", [["eval", "--task", "link"], ["ablate"]],
                             ids=["eval", "ablate"])
    def test_nothing_to_hold_out_is_data_error(self, tmp_path, capsys, monkeypatch, command):
        # One edge per dimension: the link split holds out no pair, so the
        # command exits 2 before the first epoch, not after a full run.
        import hmge.training

        epochs, build = [], hmge.training.build_loss_nodes
        monkeypatch.setattr(hmge.training, "build_loss_nodes",
                            lambda *args: epochs.append(1) or build(*args))
        data = tmp_path / "d6"
        data.mkdir()
        (data / "meta.json").write_text('{"num_nodes": 6, "num_dims": 2, "num_features": 1}')
        (data / "dim_0.tsv").write_text("0\t1\n")
        (data / "dim_1.tsv").write_text("2\t3\n")
        (data / "features.csv").write_text("1\n2\n3\n4\n5\n6\n")
        (data / "labels.csv").write_text("0\n1\n0\n1\n0\n1\n")
        code = main(command + ["--data", str(data), "--out", str(tmp_path / "o"),
                               "--epochs", "2"])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            "note: dimension 0 has 1 edge(s); skipping link removal",
            "note: dimension 1 has 1 edge(s); skipping link removal",
            "data error: no dimension has two or more edges to hold out"]
        assert epochs == []

    @pytest.mark.parametrize("command", [["eval", "--task", "link"], ["ablate"]],
                             ids=["eval", "ablate"])
    def test_skipped_dimension_is_one_note_line(self, tmp_path, capsys, command):
        # A dimension with one edge is skipped by the link split and named
        # once on stderr as a plain line, with no warning report around it;
        # the other dimension is split and the command succeeds.
        data = tmp_path / "d8"
        data.mkdir()
        (data / "meta.json").write_text('{"num_nodes": 8, "num_dims": 2, "num_features": 1}')
        (data / "dim_0.tsv").write_text("0\t1\n")
        (data / "dim_1.tsv").write_text("".join(f"{u}\t{v}\n" for u in range(8)
                                                for v in range(u + 1, 8) if (u + v) % 3))
        (data / "features.csv").write_text("".join(f"{k}\n" for k in range(1, 9)))
        (data / "labels.csv").write_text("0\n1\n" * 4)
        code = main(command + ["--data", str(data), "--out", str(tmp_path / "o"),
                               "--epochs", "2"])
        assert code == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "note: dimension 0 has 1 edge(s); skipping link removal"]


class TestThreads:
    def test_env_var_accepted(self, dataset_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("HMGE_THREADS", "1")
        blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for var in blas_vars:
            # Registered so that teardown restores the value, or its absence,
            # that the command below overwrites.
            monkeypatch.setenv(var, "0")
        out = tmp_path / "thr"
        code = main(
            ["train", "--data", str(dataset_dir), "--out", str(out), "--embed-size", "4",
             "--layers", "1", "--epochs", "2", "--patience", "2", "--seed", "1"]
        )
        assert code == EXIT_OK
        assert all(os.environ[var] == "1" for var in blas_vars)

    def test_bad_threads_value(self, dataset_dir, tmp_path):
        code = main(
            ["train", "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
             "--threads", "0", "--epochs", "2", "--patience", "2"]
        )
        assert code == EXIT_USAGE

    def test_bad_threads_env_var(self, dataset_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HMGE_THREADS", "abc")
        code = main(
            ["train", "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
             "--epochs", "2", "--patience", "2"]
        )
        assert code == EXIT_USAGE
        assert "HMGE_THREADS" in capsys.readouterr().err
