import fnmatch
import json
import os
import re

import numpy as np
import pytest

from idsaug import dataio, pipeline, san, scgan
from idsaug.cli import RunConfig, build_parser, build_run_config, main, parse_config_file
from idsaug.errors import PipelineError, StateError
from idsaug.nncore.checkpoint import read_record
from idsaug.seeding import derive_seed

import cicids_reference
from test_dataio import csv_writer_oracle


@pytest.fixture
def bench_csv(tmp_path):
    path = tmp_path / "bench.csv"
    code = main(["synthbench", "--out", str(path), "--counts", "300,24,6",
                 "--dim", "6", "--seed", "3"])
    assert code == 0
    return path


FAST_FLAGS = [
    "--scarce-min-ir", "5", "--rare-min-ir", "30",
    "--san-epochs", "6", "--san-pairs", "128",
    "--scgan-epochs", "40", "--clf-epochs", "8",
]


def run_all(bench_csv, out, method="baseline", seed="0", extra=()):
    return main(["run-all", "--dataset", str(bench_csv), "--out", str(out),
                 "--method", method, "--seed", seed, *FAST_FLAGS, *extra])


def stage_report_keys(run) -> list[str]:
    """The keys of ``stage_report.txt``, each line checked to be a key, a
    colon and a time or acceptance rate."""
    lines = (run / "stage_report.txt").read_text().splitlines()
    for line in lines:
        assert re.fullmatch(r"[a-z]+\[class_\d\]: \d+\.(\d{3}s|\d{4})", line), line
    return [line.split(":")[0] for line in lines]


def run_file_entries(run) -> dict[str, str]:
    """The pipeline.RUN_FILES entry of each file in ``run``, each file
    matching exactly one entry."""
    entries = {}
    for path in run.rglob("*"):
        if path.is_file():
            name = path.relative_to(run).as_posix()
            matches = [e for e in pipeline.WRITERS if fnmatch.fnmatchcase(name, e)]
            assert len(matches) == 1, (name, matches)
            entries[name] = matches[0]
    return entries


class TestConfigHandling:
    def test_invalid_ratio_fails_before_any_work(self, bench_csv, tmp_path, capsys):
        code = main(["run-all", "--dataset", str(tmp_path / "missing.csv"),
                     "--train-ratio", "1.5", "--out", str(tmp_path / "r")])
        assert code == 2
        assert "train_ratio" in capsys.readouterr().err
        # the dataset check runs first, so these need an existing dataset
        for flag, value, stage in [("--san-lr", "-1", "SAN"), ("--scgan-lr", "0", "SCGAN"),
                                   ("--clf-lr", "0", "classifier")]:
            code = main(["run-all", "--dataset", str(bench_csv), "--method", "s2cgan",
                         flag, value, "--out", str(tmp_path / "r"), *FAST_FLAGS])
            assert code == 2, flag
            assert f"{stage} learning rate must be positive" in capsys.readouterr().err
            assert not (tmp_path / "r").exists(), flag

    @pytest.mark.parametrize("flag, value, field", [
        ("--rare-min-ir", "nan", "rare_min_ir"), ("--scarce-min-ir", "nan", "scarce_min_ir"),
        ("--san-margin", "nan", "margin"), ("--san-margin", "inf", "margin"),
        ("--san-alpha", "nan", "alpha"), ("--san-alpha", "-1", "alpha")])
    def test_nan_and_out_of_range_model_floats_fail_before_any_work(
            self, bench_csv, tmp_path, capsys, flag, value, field):
        code = main(["run-all", "--dataset", str(bench_csv), "--method", "s2cgan",
                     "--out", str(tmp_path / "r"), *FAST_FLAGS, flag, value])
        assert code == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        # san_batch was a key once; an older config.txt that names it is refused
        config = tmp_path / "cfg.txt"
        for line, key in [("not_a_key = 1", "not_a_key"), ("san_batch = 64", "san_batch")]:
            config.write_text(line + "\n")
            code = main(["run-all", "--config", str(config), "--out", str(tmp_path / "r")])
            assert code == 2, key
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("method = baseline\nmaster_seed = 4\neta = 0.3\n")
        merged = build_run_config(parse_config_file(config),
                                  {"method": "smote", "master_seed": None})
        assert merged.method == "smote"   # flag wins
        assert merged.master_seed == 4    # file value survives
        assert merged.eta == 0.3

    def test_bool_and_comment_parsing(self, tmp_path):
        config = tmp_path / "cfg.txt"
        config.write_text("# comment\nemit_pca = true\ntrain_ratio = 0.7\n")
        merged = build_run_config(parse_config_file(config), {})
        assert merged.emit_pca is True
        assert merged.train_ratio == 0.7

    def test_invalid_level_mode_fails_before_any_work(self, bench_csv, tmp_path, capsys):
        code = main(["run-all", "--dataset", str(bench_csv), "--level-mode", "gap",
                     "--out", str(tmp_path / "r"), *FAST_FLAGS])
        assert code == 2
        assert "leveling mode 'gap'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_invalid_method_rejected(self):
        from idsaug.errors import ConfigError
        with pytest.raises(ConfigError):
            RunConfig(method="magic").validate()

    def test_snapshot_round_trips_through_parser(self, tmp_path):
        config = RunConfig(method="ros", master_seed=11, eta=0.3)
        path = tmp_path / "snap.txt"
        path.write_text(config.snapshot())
        rebuilt = build_run_config(parse_config_file(path), {})
        assert rebuilt.method == "ros"
        assert rebuilt.master_seed == 11
        assert rebuilt.eta == 0.3

    def test_stage_subcommands_take_the_config_flags_and_their_own(self):
        config_flags = [
            "-h", "--help", "--config", "--dataset", "--label-column", "--mapping",
            "--train-ratio", "--seed", "--out", "--method", "--level-mode",
            "--scarce-min-ir", "--rare-min-ir", "--san-epochs", "--san-lr", "--san-pairs",
            "--san-margin", "--san-alpha", "--scgan-epochs", "--scgan-lr", "--eta",
            "--max-attempt-factor", "--clf-epochs", "--clf-lr", "--emit-pca"]
        own = {"run-all": [], "preprocess": [], "levels": ["--run", "--scope"],
               "train-san": ["--run"], "train-scgan": ["--run", "--class-name"],
               "augment": ["--run"], "train-clf": ["--run"], "eval": ["--run"]}
        parser = build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        for name, flags in own.items():
            options = [s for action in commands[name]._actions for s in action.option_strings]
            assert options == config_flags + flags, name

    def test_default_stage_configs_are_the_librarys(self):
        # each default is stated once, in its stage config
        config = RunConfig()
        assert config.augment_config() == pipeline.AugmentConfig()
        assert config.classifier_config() == pipeline.ClassifierConfig(
            seed=derive_seed(0, "classifier"))
        assert config.split_spec() == dataio.SplitSpec(seed=derive_seed(0, "split"))


class TestSynthbench:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["synthbench", "--out", str(path), "--counts", "50,10,4",
                         "--dim", "5", "--seed", "1"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_header_width(self, tmp_path):
        path = tmp_path / "bench.csv"
        main(["synthbench", "--out", str(path), "--counts", "30,5,2", "--dim", "7"])
        assert len(path.read_text().splitlines()[0].split(",")) == 8

    def test_non_integer_count_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        assert main(["synthbench", "--out", str(path), "--counts", "10,abc"]) == 2
        assert "--counts" in capsys.readouterr().err
        assert not path.exists()


class TestRunAll:
    def test_baseline_produces_report_and_identity_augmentation(self, bench_csv,
                                                                tmp_path, capsys):
        out = tmp_path / "base"
        assert run_all(bench_csv, out) == 0
        assert "macro" in capsys.readouterr().out
        for name in ("config.txt", "levels.csv", "augmented.csv", "norm.json",
                     "classifier.ckpt", "metrics/metrics.json", "stage_report.txt",
                     "test_fingerprint.txt", "split_train.csv", "split_test.csv"):
            assert (out / name).exists(), name
        augmented, _ = dataio.load_dataset(out / "augmented.csv",
                                           ignore_columns=("provenance",))
        train, _ = dataio.load_dataset(out / "split_train.csv",
                                       ignore_columns=("provenance",))
        assert augmented.n_rows == train.n_rows
        # both tables tag every row original
        assert (out / "augmented.csv").read_bytes() == (out / "split_train.csv").read_bytes()
        assert (out / "stage_report.txt").read_text() == ""

    def test_s2cgan_method_tops_up_counts(self, bench_csv, tmp_path):
        out = tmp_path / "gan"
        assert run_all(bench_csv, out, method="s2cgan") == 0
        augmented, _ = dataio.load_dataset(out / "augmented.csv",
                                           ignore_columns=("provenance",))
        counts = {augmented.label_names[c]: n for c, n in augmented.class_counts().items()}
        # 240 train rows of the majority; both minority classes topped up
        assert counts["class_1"] == counts["class_0"]
        assert counts["class_2"] == 19  # scarce train count (24 * 0.8 rounds to 19)
        assert (out / "san.ckpt").exists()
        text = (out / "augmented.csv").read_text()
        assert "scgan" in text and "skn" in text
        assert stage_report_keys(out) == ["scgan[class_1]", "skn[class_2]",
                                          "acceptance[class_1]"]

    def test_ros_and_smote_methods_run(self, bench_csv, tmp_path):
        for method, tag in (("ros", "ros"), ("smote", "skn")):
            assert run_all(bench_csv, tmp_path / method, method=method) == 0
            assert stage_report_keys(tmp_path / method) == [f"{tag}[class_1]",
                                                            f"{tag}[class_2]"]

    def test_cicids2017_shaped_file_keeps_all_eight_families(self, tmp_path):
        # the distributed files' shape: spaced and repeated column names,
        # cp1252 Web Attack labels, Infinity and NaN cells, and the header
        # repeated where two day files were joined
        counts = [120, 20, 20, 10, 5, 8, 6, 5, 5, 6, 5, 4, 3, 2, 2]
        rng = np.random.default_rng(0)
        lines = [b",".join(b"%d" % v for v in rng.integers(0, 1000, 78)) + b"," + label
                 for label, n in zip(cicids_reference.RAW_LABELS, counts) for _ in range(n)]
        flow_bytes = cicids_reference.HEADER.split(",").index("Flow Bytes/s")
        for cell in (b"Infinity", b"NaN"):
            cells = lines[0].split(b",")
            cells[flow_bytes] = cell
            lines.insert(60, b",".join(cells))
        header = cicids_reference.HEADER.encode("ascii")
        lines.insert(100, header)
        path = tmp_path / "cicids.csv"
        path.write_bytes(b"\r\n".join([header, *lines, b""]))
        out = tmp_path / "run"
        assert main(["run-all", "--dataset", str(path), "--mapping", "builtin",
                     "--method", "ros", "--out", str(out), *FAST_FLAGS]) == 0
        families = json.loads((out / "labels.json").read_text()).values()
        assert sorted(families) == sorted(cicids_reference.CLASS_ORDER)
        assert (out / "ingest_report.txt").read_text() == (
            f"rows read: {sum(counts) + 3}\nrows kept: {sum(counts)}\nrecoded (cp1252): 11\n"
            "dropped (non_finite): 2\ndropped (non_numeric): 1\n")

    def test_missing_dataset_flag_is_config_error(self, tmp_path):
        assert main(["run-all", "--out", str(tmp_path / "r")]) == 2

    def test_split_without_test_rows_is_refused_before_any_write(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("a,Label\n1,x\n2,x\n3,y\n")
        run = tmp_path / "run"
        with pytest.warns(UserWarning, match="single sample"):
            code = main(["preprocess", "--dataset", str(path), "--out", str(run)])
        assert code == 1
        err = capsys.readouterr().err
        assert "3 train rows and 0 test rows at train_ratio 0.8" in err
        assert not run.exists()

    def test_nonexistent_dataset_path_is_config_error(self, tmp_path, capsys):
        code = main(["run-all", "--dataset", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_env_var_sets_default_output_root(self, bench_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("IDSAUG_OUT", str(tmp_path / "root"))
        assert main(["preprocess", "--dataset", str(bench_csv), "--seed", "6",
                     *FAST_FLAGS]) == 0
        assert (tmp_path / "root" / "s2cgan-seed6" / "split_train.csv").exists()


class TestStageCommands:
    def test_full_stagewise_flow(self, bench_csv, tmp_path, capsys):
        run = str(tmp_path / "staged")
        base = ["--dataset", str(bench_csv), "--out", run, "--seed", "5", *FAST_FLAGS]
        assert main(["preprocess", *base]) == 0
        assert main(["levels", "--run", run, *FAST_FLAGS]) == 0
        assert main(["levels", "--run", run, "--scope", "full", *FAST_FLAGS]) == 0
        assert main(["train-san", "--run", run, *FAST_FLAGS]) == 0
        assert main(["train-scgan", "--run", run, "--seed", "5", *FAST_FLAGS]) == 0
        assert main(["augment", "--run", run, "--method", "s2cgan", "--seed", "5",
                     *FAST_FLAGS]) == 0
        assert main(["train-clf", "--run", run, "--seed", "5", *FAST_FLAGS]) == 0
        assert main(["eval", "--run", run, "--emit-pca", "true", *FAST_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "macro" in out
        assert os.path.exists(os.path.join(run, "metrics", "metrics.json"))
        assert set(run_file_entries(tmp_path / "staged").values()) == set(pipeline.WRITERS)
        # a new split leaves only what preprocess writes
        assert main(["preprocess", *base]) == 0
        left = run_file_entries(tmp_path / "staged")
        assert {pipeline.WRITERS[e] for e in left.values()} == {"preprocess"}
        assert len(left) == len(pipeline.RUN_FILES["preprocess"])

    def test_eval_before_preprocess_fails_cleanly(self, tmp_path, capsys):
        run = tmp_path / "empty"
        run.mkdir()
        assert main(["eval", "--run", str(run)]) == 1

    def test_tampered_test_split_detected_at_eval(self, bench_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_all(bench_csv, out) == 0
        split = out / "split_test.csv"
        lines = split.read_text().splitlines()
        del lines[1]
        split.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--run", str(out), *FAST_FLAGS]) == 1
        assert "fingerprint" in capsys.readouterr().err

    @pytest.mark.parametrize("when", ["before_augment", "while_augmenting"])
    def test_augment_refuses_an_edited_training_split(self, bench_csv, tmp_path, capsys,
                                                      monkeypatch, when):
        run = tmp_path / "run"
        assert main(["preprocess", "--dataset", str(bench_csv), "--out", str(run),
                     *FAST_FLAGS]) == 0
        split = run / "split_train.csv"

        def edit():
            data = split.read_bytes()
            assert b",class_0,original\r\n" in data
            split.write_bytes(data.replace(b",class_0,original\r\n",
                                           b",class_1,original\r\n", 1))

        if when == "before_augment":
            edit()
        else:
            # after augment has read the split's record and checked its CSV
            save_run = pipeline.save_run

            def editing(*args, **kwargs):
                edit()
                return save_run(*args, **kwargs)

            monkeypatch.setattr(pipeline, "save_run", editing)
        assert (run / "split_train.tbl").exists()
        assert main(["augment", "--run", str(run), "--method", "smote", *FAST_FLAGS]) == 1
        assert f"{split} no longer matches the fingerprint" in capsys.readouterr().err
        assert not [p for p in os.listdir(run)
                    if p.startswith("augmented") or p.endswith(".tmp")]

    def test_a_run_directory_of_the_previous_format_is_refused(self, bench_csv, tmp_path,
                                                               capsys):
        run = tmp_path / "run"
        assert main(["preprocess", "--dataset", str(bench_csv), "--out", str(run),
                     *FAST_FLAGS]) == 0
        # idsaug-run-1 tables hold unscaled features; idsaug-run-2 splits have
        # no provenance column; idsaug-run-3 tables write their floats as repr;
        # idsaug-run-4 SKN rows come from one pair of draws per row
        for version in ("idsaug-run-1", "idsaug-run-2", "idsaug-run-3", "idsaug-run-4"):
            (run / "format.txt").write_text(version + "\n")
            for argv in (["levels"], ["augment", "--method", "smote"], ["eval"]):
                assert main([*argv, "--run", str(run), *FAST_FLAGS]) == 1, argv
                assert f"unsupported run format {version!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["baseline", "ros", "smote", "s2cgan"])
    def test_staged_chain_reproduces_run_all(self, bench_csv, tmp_path, method):
        seed = ["--seed", "4"]
        whole = tmp_path / "whole"
        assert run_all(bench_csv, whole, method=method, seed="4") == 0
        run = str(tmp_path / "staged")
        assert main(["preprocess", "--dataset", str(bench_csv), "--out", run,
                     *seed, *FAST_FLAGS]) == 0
        if method == "s2cgan":
            assert main(["train-san", "--run", run, *seed, *FAST_FLAGS]) == 0
            assert main(["train-scgan", "--run", run, *seed, *FAST_FLAGS]) == 0
        for command in ("augment", "train-clf", "eval"):
            assert main([command, "--run", run, "--method", method, *seed,
                         *FAST_FLAGS]) == 0
        names = ["augmented.csv", "classifier.ckpt", "metrics/metrics.json",
                 "split_train.csv", "split_test.csv", "norm.json"]
        checkpoints = sorted(p for p in os.listdir(whole)
                             if p == "san.ckpt" or p.startswith("scgan_"))
        assert sorted(p for p in os.listdir(run)
                      if p == "san.ckpt" or p.startswith("scgan_")) == checkpoints
        if method == "s2cgan":
            assert "san.ckpt" in checkpoints and len(checkpoints) > 1
        for name in names + checkpoints:
            assert (whole / name).read_bytes() == (tmp_path / "staged" / name).read_bytes(), name

    def test_augment_requires_checkpoints_or_trains(self, bench_csv, tmp_path, capsys):
        run = str(tmp_path / "nockpt")
        base = ["--dataset", str(bench_csv), "--out", run, "--seed", "2", *FAST_FLAGS]
        assert main(["preprocess", *base]) == 0
        # no train-san / train-scgan: augment trains nothing and refuses
        assert main(["augment", "--run", run, "--method", "s2cgan", "--seed", "2",
                     *FAST_FLAGS]) == 2
        assert "san.ckpt missing; run train-san first" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(run, "augmented.csv"))

    def test_augment_trains_only_the_missing_generators(self, tmp_path, capsys):
        bench = tmp_path / "bench.csv"
        assert main(["synthbench", "--out", str(bench), "--counts", "400,40,30",
                     "--dim", "3", "--seed", "3"]) == 0
        flags = ["--scarce-min-ir", "5", "--rare-min-ir", "50", "--san-epochs", "4",
                 "--san-pairs", "128", "--scgan-epochs", "20", "--clf-epochs", "2",
                 "--seed", "6"]
        whole = tmp_path / "whole"
        assert main(["run-all", "--dataset", str(bench), "--out", str(whole),
                     "--method", "s2cgan", *flags]) == 0
        run = tmp_path / "staged"
        assert main(["preprocess", "--dataset", str(bench), "--out", str(run), *flags]) == 0
        assert main(["train-san", "--run", str(run), *flags]) == 0
        assert main(["train-scgan", "--run", str(run), "--class-name", "class_1",
                     *flags]) == 0
        assert not (run / "scgan_2.ckpt").exists()
        # class_2 also needs a generator, and augment trains none
        assert main(["augment", "--run", str(run), "--method", "s2cgan", *flags]) == 2
        assert "scgan_2.ckpt missing; run train-scgan first" in capsys.readouterr().err
        assert main(["train-scgan", "--run", str(run), *flags]) == 0
        assert main(["augment", "--run", str(run), "--method", "s2cgan", *flags]) == 0
        for name in ("san.ckpt", "scgan_1.ckpt", "scgan_2.ckpt", "history_scgan_2.csv",
                     "augmented.csv", "augmented.tbl", "split_train.tbl", "split_test.tbl"):
            assert (run / name).read_bytes() == (whole / name).read_bytes(), name

    def test_augment_trains_no_model(self, bench_csv, tmp_path, monkeypatch):
        run = str(tmp_path / "run")
        assert main(["preprocess", "--dataset", str(bench_csv), "--out", run,
                     *FAST_FLAGS]) == 0
        for command in ("train-san", "train-scgan"):
            assert main([command, "--run", run, *FAST_FLAGS]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("augment synthesizes with the run's checkpoints")

        monkeypatch.setattr(san, "train_san", refuse)
        monkeypatch.setattr(scgan, "train_scgan", refuse)
        assert main(["augment", "--run", run, "--method", "s2cgan", *FAST_FLAGS]) == 0
        assert os.path.exists(os.path.join(run, "augmented.tbl"))

    def test_eval_reads_only_the_classifier(self, bench_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_all(bench_csv, out, method="s2cgan") == 0
        (out / "san.ckpt").write_bytes(b"not a checkpoint")
        assert main(["eval", "--run", str(out), *FAST_FLAGS]) == 0
        (out / "classifier.ckpt").unlink()
        assert main(["eval", "--run", str(out), *FAST_FLAGS]) == 2
        assert "classifier.ckpt missing; run train-clf first" in capsys.readouterr().err

    def test_eval_refuses_a_damaged_classifier(self, bench_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_all(bench_csv, out) == 0
        capsys.readouterr()
        blob = (out / "classifier.ckpt").read_bytes()
        at = len(blob) - 40  # a bias byte of the output layer
        (out / "classifier.ckpt").write_bytes(blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1:])
        assert main(["eval", "--run", str(out), *FAST_FLAGS]) == 1
        assert "classifier.ckpt: record checksum mismatch" in capsys.readouterr().err

    def test_augment_reads_only_the_san_and_scgans(self, bench_csv, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert run_all(bench_csv, out, method="s2cgan") == 0

        def refuse(*args, **kwargs):
            raise AssertionError("augment needs only san.ckpt and scgan_<id>.ckpt")

        monkeypatch.setattr(pipeline, "load_classifier", refuse)
        assert main(["augment", "--run", str(out), "--method", "s2cgan", *FAST_FLAGS]) == 0

    def test_train_scgan_reads_only_the_san(self, bench_csv, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert run_all(bench_csv, out, method="s2cgan") == 0

        def refuse(*args, **kwargs):
            raise AssertionError("train-scgan needs only san.ckpt")

        monkeypatch.setattr(scgan, "load_scgan", refuse)
        monkeypatch.setattr(pipeline, "load_classifier", refuse)
        assert main(["train-scgan", "--run", str(out), *FAST_FLAGS]) == 0

    def test_train_scgan_without_san_fails_cleanly(self, bench_csv, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["preprocess", "--dataset", str(bench_csv), "--out", str(run),
                     *FAST_FLAGS]) == 0
        assert main(["train-scgan", "--run", str(run), *FAST_FLAGS]) == 2
        assert "san.ckpt missing; run train-san first" in capsys.readouterr().err

    def test_test_split_is_read_only_by_eval(self, bench_csv, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["preprocess", "--dataset", str(bench_csv), "--out", str(run),
                     *FAST_FLAGS]) == 0
        (run / "split_test.csv").unlink()
        (run / "split_test.tbl").unlink()
        for argv in (["levels"], ["augment", "--method", "smote"], ["train-clf"]):
            assert main([*argv, "--run", str(run), *FAST_FLAGS]) == 0, argv
        assert main(["eval", "--run", str(run), *FAST_FLAGS]) == 2
        assert "split_test.csv missing" in capsys.readouterr().err

    @pytest.mark.parametrize("table, command, producer", [
        ("split_train", ["levels"], "preprocess"),
        ("augmented", ["train-clf"], "augment"),
        ("split_train", ["augment", "--method", "smote"], "preprocess"),
        ("san.ckpt", ["train-scgan"], "train-san"),
        ("classifier.ckpt", ["eval"], "train-clf")])
    def test_table_without_its_record_fails_cleanly(self, bench_csv, tmp_path, capsys,
                                                    table, command, producer):
        run = tmp_path / "run"
        assert main(["preprocess", "--dataset", str(bench_csv), "--out", str(run),
                     *FAST_FLAGS]) == 0
        assert main(["augment", "--run", str(run), "--method", "smote", *FAST_FLAGS]) == 0
        # a bare table name stands for its record; a smote run writes no
        # san.ckpt, and no classifier.ckpt before train-clf
        name = table if "." in table else f"{table}.tbl"
        (run / name).unlink(missing_ok=True)
        assert main([*command, "--run", str(run), *FAST_FLAGS]) == 2
        assert f"{name} missing; run {producer} first" in capsys.readouterr().err

    def test_repeated_column_names_parse_only_the_input(self, bench_csv, tmp_path,
                                                        monkeypatch):
        # the CICIDS2017 header repeats a column name (Fwd Header Length)
        header, rest = bench_csv.read_text().split("\n", 1)
        assert header.startswith("f0,f1,f2,f3,f4,f5,")
        repeated = tmp_path / "repeated.csv"
        repeated.write_text(header.replace("f5,", "f4,", 1) + "\n" + rest)
        calls = []
        original = dataio.load_dataset

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(dataio, "load_dataset", counting)
        run = str(tmp_path / "run")
        assert main(["preprocess", "--dataset", str(repeated), "--out", run,
                     *FAST_FLAGS]) == 0
        for argv in (["levels"], ["augment", "--method", "smote"], ["train-clf"], ["eval"]):
            assert main([*argv, "--run", run, *FAST_FLAGS]) == 0, argv
        for name in ("split_train", "split_test", "augmented"):
            assert os.path.exists(os.path.join(run, f"{name}.tbl")), name
        assert len(calls) == 1


class TestRunAllChain:
    """run-all runs the staged commands, so what they write is what it writes."""

    def test_rerun_into_a_used_directory_reuses_no_checkpoint(self, bench_csv, tmp_path):
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        assert run_all(bench_csv, used, method="s2cgan", seed="1") == 0
        assert run_all(bench_csv, used, method="s2cgan", seed="2") == 0
        assert run_all(bench_csv, fresh, method="s2cgan", seed="2") == 0
        checkpoints = sorted(p for p in os.listdir(fresh) if p.startswith("scgan_"))
        assert checkpoints
        for name in ["san.ckpt", "augmented.csv", "classifier.ckpt",
                     "metrics/metrics.json", *checkpoints]:
            assert (used / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_rerun_clears_the_earlier_stage_outputs(self, tmp_path):
        bench = tmp_path / "bench.csv"
        assert main(["synthbench", "--out", str(bench), "--counts", "400,40,30",
                     "--dim", "3"]) == 0
        fast = ["--dataset", str(bench), "--san-epochs", "2", "--scgan-epochs", "3",
                "--clf-epochs", "1", "--scarce-min-ir", "5", "--eta", "0.3"]
        # class_2 is scarce, then rare (no generator), then scarce again
        last = [["run-all", "--seed", "2", "--rare-min-ir", "12", *fast],
                ["train-scgan", "--seed", "2", "--rare-min-ir", "50", *fast],
                ["augment", "--method", "s2cgan", "--seed", "2", "--rare-min-ir", "50", *fast]]
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        assert main(["run-all", "--out", str(used), "--method", "s2cgan", "--seed", "1",
                     "--rare-min-ir", "50", *fast]) == 0
        (used / "notes.txt").write_text("kept")
        for run in (used, fresh):
            assert main([*last[0], "--out", str(run)]) == 0
            assert not (run / "scgan_2.ckpt").exists()
            for argv in last[1:]:
                assert main([*argv, "--run", str(run)]) == 0
        for name in ("scgan_2.ckpt", "augmented.csv"):
            assert (used / name).read_bytes() == (fresh / name).read_bytes(), name
        assert (used / "notes.txt").read_text() == "kept"

    def test_failing_stage_is_named(self, bench_csv, tmp_path, capsys):
        code = run_all(bench_csv, tmp_path / "run", method="s2cgan",
                       extra=("--eta", "1.0", "--max-attempt-factor", "1"))
        assert code == 1
        err = capsys.readouterr().err
        assert "[stage augment]" in err and "class_1" in err
        # the stages before the failure leave their artifacts behind
        assert (tmp_path / "run" / "levels_full.csv").exists()

    def test_failing_stage_keeps_the_error_fields(self, bench_csv, tmp_path):
        args = build_parser().parse_args([
            "run-all", "--dataset", str(bench_csv), "--out", str(tmp_path / "run"),
            "--method", "s2cgan", "--seed", "0", *FAST_FLAGS,
            "--eta", "1.0", "--max-attempt-factor", "1"])
        with pytest.raises(PipelineError) as excinfo:
            args.func(args)
        err = excinfo.value
        assert (err.stage, err.class_name) == ("scgan-synthesis", "class_1")
        assert str(err).startswith("[stage augment] stage scgan-synthesis failed")

    def test_stdout_is_the_stage_outputs_in_order(self, bench_csv, tmp_path, capsys):
        assert run_all(bench_csv, tmp_path / "run", method="ros") == 0
        out = capsys.readouterr().out
        marks = [out.index(m) for m in ("preprocess:", "augment[ros]:", "train-clf:", "macro")]
        assert marks == sorted(marks)

    @pytest.fixture
    def tag_csv(self, bench_csv, tmp_path):
        path = tmp_path / "tag.csv"
        header, rest = bench_csv.read_text().split("\n", 1)
        assert header.endswith(",Label")
        path.write_text(header[:-len("Label")] + "Tag\n" + rest)
        return path

    def test_label_column_names_only_the_input_column(self, tag_csv, tmp_path):
        flags = ["--label-column", "Tag", "--method", "ros", "--seed", "3", *FAST_FLAGS]
        whole, run = tmp_path / "whole", tmp_path / "staged"
        assert main(["run-all", "--dataset", str(tag_csv), "--out", str(whole), *flags]) == 0
        assert main(["preprocess", "--dataset", str(tag_csv), "--out", str(run), *flags]) == 0
        for command in ("augment", "train-clf", "eval"):
            assert main([command, "--run", str(run), *flags]) == 0, command
        for name in ("augmented.csv", "classifier.ckpt", "metrics/metrics.json"):
            assert (whole / name).read_bytes() == (run / name).read_bytes(), name
        assert (run / "split_train.csv").read_text().split("\n", 1)[0].endswith(
            ",Label,provenance")

    @pytest.mark.parametrize("name", ["Label", "provenance"])
    def test_input_feature_named_like_a_run_column_is_refused(self, tag_csv, tmp_path,
                                                              capsys, name):
        text = tag_csv.read_text()
        assert text.startswith("f0,")
        tag_csv.write_text(f"{name}," + text[len("f0,"):])
        code = main(["run-all", "--dataset", str(tag_csv), "--out", str(tmp_path / "run"),
                     "--label-column", "Tag", *FAST_FLAGS])
        assert code == 2
        err = capsys.readouterr().err
        assert "[stage ingest]" in err and f"{name!r}" in err

    @pytest.mark.parametrize("line_break", ["\n", "\r", "\r\n"])
    def test_label_with_a_line_break_runs_end_to_end(self, bench_csv, tmp_path, line_break):
        text = bench_csv.read_text()
        assert text.endswith(",class_2\n")
        bench_csv.write_text(text.replace(",class_2\n", f',"class{line_break}2"\n'))
        run = tmp_path / "run"
        assert run_all(bench_csv, run, method="smote") == 0
        train = dataio.load_table(run / "split_train.csv")
        augmented = dataio.load_table(run / "augmented.csv")
        assert f"class{line_break}2" in augmented.label_names.values()
        provenance = ([pipeline.PROV_ORIGINAL] * train.n_rows
                      + [pipeline.PROV_SKN] * (augmented.n_rows - train.n_rows))
        csv_writer_oracle(tmp_path / "oracle.csv", augmented, provenance=provenance)
        written = (run / "augmented.csv").read_bytes()
        assert written == (tmp_path / "oracle.csv").read_bytes()
        assert written.startswith((run / "split_train.csv").read_bytes())

    def test_an_input_that_leaves_no_rows_says_why(self, bench_csv, tmp_path, capsys):
        # the real label column is read as a feature, so every row is non-numeric
        code = run_all(bench_csv, tmp_path / "run", extra=("--label-column", "f0"))
        assert code == 1
        assert (f"[stage ingest] {bench_csv}: no rows left after filtering "
                "(330 rows read; dropped non_numeric: 330)") in capsys.readouterr().err


class TestRun:
    """A Run decodes each input on first use and keeps it, so run-all, which
    passes one Run through every stage, decodes each one once."""

    def test_each_table_and_checkpoint_is_decoded_once(self, bench_csv, tmp_path,
                                                        monkeypatch):
        reads = []

        def counting(path, *args, **kwargs):
            reads.append(os.path.basename(path))
            return read_record(path, *args, **kwargs)

        for module in (dataio, san, scgan, pipeline):
            monkeypatch.setattr(module, "read_record", counting)
        out = tmp_path / "run"
        assert run_all(bench_csv, out, method="s2cgan") == 0
        records = sorted(p for p in os.listdir(out) if p.endswith((".tbl", ".ckpt")))
        assert {"split_train.tbl", "split_test.tbl", "san.ckpt", "scgan_1.ckpt",
                "augmented.tbl", "classifier.ckpt"} <= set(records)
        assert sorted(reads) == records
        # so does each staged command, with its own Run
        for argv in (["levels"], ["levels", "--scope", "full"], ["train-san"], ["train-scgan"],
                     ["augment", "--method", "s2cgan"], ["train-clf"], ["eval"]):
            reads.clear()
            assert main([*argv, "--run", str(out), *FAST_FLAGS]) == 0, argv
            assert reads and len(reads) == len(set(reads)), (argv, reads)

    def test_run_all_scales_and_levels_the_training_split_once(self, bench_csv, tmp_path,
                                                               monkeypatch):
        calls = []

        def counting(name, original, rows):
            def call(first, *args, **kwargs):
                calls.append((name, rows(first)))
                return original(first, *args, **kwargs)
            return call

        for module, name, rows in ((pipeline, "level_counts", lambda c: sum(c.values())),
                                   (dataio, "normalized_dataset", lambda d: d.n_rows)):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name), rows))
        assert run_all(bench_csv, tmp_path / "run", method="s2cgan") == 0
        # preprocess scales 264 training and 66 test rows; the full-scope
        # level report levels the counts of all 330
        assert sorted(calls) == [("level_counts", 264), ("level_counts", 330),
                                 ("normalized_dataset", 66), ("normalized_dataset", 264)]

    def test_inputs_are_kept_read_only_until_a_write_replaces_them(self, bench_csv, tmp_path):
        out = tmp_path / "run"
        assert run_all(bench_csv, out, method="s2cgan") == 0
        run = pipeline.Run(out, RunConfig(scarce_min_ir=5, rare_min_ir=30))
        train, augmented = run.split("train"), run.augmented()
        assert run.split("train") is train and run.augmented() is augmented
        # a layer's arrays are views of its network's flat vector; both are read-only
        for array in (train.features, train.labels, augmented.features,
                      run.classifier().net.layers[0].weights, run.classifier().net.params,
                      run.san().encoder.params):
            with pytest.raises(ValueError, match="read-only"):
                array[0] += 1
        # nor can a layer's array be rebound round the read-only vector
        with pytest.raises(StateError, match=r"dense\.weights is a view"):
            run.classifier().net.layers[0].weights = None
        run.save(augmented=pipeline.top_up(train, train.class_counts(), None))
        assert run.split("train") is train and run.augmented() is not augmented
        run.save(split=(train, run.split("test")))
        assert run.split("train") is not train


class TestRunDirSelfDescription:
    def test_snapshotted_config_reproduces_reports_byte_for_byte(self, bench_csv,
                                                                 tmp_path):
        first = tmp_path / "first"
        assert run_all(bench_csv, first, method="s2cgan", seed="3") == 0
        second = tmp_path / "second"
        code = main(["run-all", "--config", str(first / "config.txt"),
                     "--out", str(second)])
        assert code == 0
        for name in ("metrics/metrics.json", "metrics/per_class.csv", "augmented.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_full_scope_level_report(self, bench_csv, tmp_path):
        out = tmp_path / "run"
        assert run_all(bench_csv, out) == 0
        assert (out / "levels_full.csv").exists()
        assert main(["levels", "--run", str(out), "--scope", "full",
                     *FAST_FLAGS]) == 0
        # full-scope counts cover train plus test rows
        full_rows = (out / "levels_full.csv").read_text().splitlines()[1:]
        train_rows = (out / "levels.csv").read_text().splitlines()[1:]
        full_total = sum(int(r.split(",")[1]) for r in full_rows)
        train_total = sum(int(r.split(",")[1]) for r in train_rows)
        assert full_total == 330 and train_total == 264

    def test_every_file_is_a_run_file_entry(self, bench_csv, tmp_path):
        out = tmp_path / "run"
        assert run_all(bench_csv, out, method="s2cgan", extra=("--emit-pca", "true")) == 0
        assert set(run_file_entries(out).values()) == set(pipeline.WRITERS)

    def test_pca_emission_flag(self, bench_csv, tmp_path):
        out = tmp_path / "run"
        assert run_all(bench_csv, out, extra=("--emit-pca", "true")) == 0
        pca = (out / "metrics" / "pca.csv").read_text().splitlines()
        assert pca[0] == "x,y,label"
        assert len(pca) > 1

    def test_scgan_histories_written(self, bench_csv, tmp_path):
        out = tmp_path / "gan"
        assert run_all(bench_csv, out, method="s2cgan") == 0
        histories = [p for p in os.listdir(out) if p.startswith("history_scgan_")]
        assert histories
        lines = (out / histories[0]).read_text().splitlines()
        assert lines[0] == "epoch,d_loss,g_loss"
        assert len(lines) == 41  # one row per epoch at --scgan-epochs 40


class TestCompare:
    def test_same_split_comparison(self, bench_csv, tmp_path, capsys):
        base_dir = tmp_path / "base"
        other_dir = tmp_path / "ros"
        assert run_all(bench_csv, base_dir) == 0
        assert run_all(bench_csv, other_dir, method="ros") == 0
        out_dir = tmp_path / "cmp"
        code = main(["compare", "--baseline", str(base_dir), "--runs",
                     str(other_dir), "--out", str(out_dir)])
        assert code == 0
        deltas = (out_dir / "deltas.csv").read_text()
        assert "ros" in deltas
        assert (out_dir / "aggregates.csv").exists()

    def test_self_comparison_is_zero(self, bench_csv, tmp_path):
        base_dir = tmp_path / "base"
        assert run_all(bench_csv, base_dir) == 0
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--baseline", str(base_dir), "--runs",
                     str(base_dir), "--out", str(out_dir)]) == 0
        rows = (out_dir / "deltas.csv").read_text().splitlines()
        for row in rows[1:4]:
            parts = row.split(",")
            assert float(parts[2]) == 0.0 and float(parts[4]) == 0.0

    def test_runs_sharing_a_basename_are_refused(self, bench_csv, tmp_path, capsys):
        base_dir, other_dir = tmp_path / "a" / "run", tmp_path / "b" / "run"
        assert run_all(bench_csv, base_dir) == 0
        assert run_all(bench_csv, other_dir, method="ros") == 0
        out_dir = tmp_path / "cmp"
        code = main(["compare", "--baseline", str(base_dir), "--runs", str(other_dir),
                     "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(base_dir) in err and str(other_dir) in err
        assert not out_dir.exists()

    def test_mismatched_split_rejected(self, bench_csv, tmp_path, capsys):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        assert run_all(bench_csv, a_dir, seed="0") == 0
        assert run_all(bench_csv, b_dir, seed="1") == 0  # different split
        code = main(["compare", "--baseline", str(a_dir), "--runs", str(b_dir)])
        assert code == 1
        assert "differ" in capsys.readouterr().err
