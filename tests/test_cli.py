import csv
import dataclasses
import importlib
import json
import math
import os
import pkgutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import vastsum
import vastsum.diffcore as dc
from vastsum import timeline
from vastsum.checkpoint import load_params, save_params
from vastsum.cli import build_parser, main
from vastsum.config import TrainConfig, load_run_config, run_config_from_dict
from vastsum.data import Dataset, SyntheticConfig, load_dataset, make_folds
from vastsum.decoder import budget
from vastsum.evaluation import evaluate, protocol_targets, write_report_csv
from vastsum.trainer import predict_scores, train


def run(*argv):
    return main(list(argv))


def refused_by_argparse(*argv):
    """The code argparse exits with when it refuses a flag of `argv`."""
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    return exc.value.code


def with_length(header: bytes) -> bytes:
    """A checkpoint file holding `header` behind its 8-byte length, and no payload."""
    return len(header).to_bytes(8, "little") + header


def v2_file(tensors=None, payload=b"", **header) -> bytes:
    doc = {"format": "vastsum-params-v2", "meta": {}, **header}
    if tensors is not None:
        doc["tensors"] = tensors
    return with_length(json.dumps(doc).encode("utf-8")) + payload


F8_ZERO = struct.pack("<d", 0.0)


@pytest.fixture()
def tiny_config_file(tmp_path):
    cfg = {
        "scorer": {
            "input_dim": 8, "model_dim": 16, "heads": 2, "layers": 1,
            "refine_blocks": 1, "kernel": 3, "ffn_mult": 2, "max_timesteps": 32,
        },
        "head": {"latent_dim": 4},
        "train": {"lr": 3e-3, "epochs": 3, "accumulate": 2, "seed": 1, "mode": "tvsum"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def tiny_dataset(tmp_path):
    out = tmp_path / "data.json"
    assert run(
        "gen-data", "--out", str(out), "--videos", "3", "--timesteps", "16",
        "--feature-dim", "8", "--annotators", "2", "--segments", "3", "--seed", "4",
    ) == 0
    return str(out)


@pytest.fixture()
def trained(tmp_path, tiny_config_file, tiny_dataset):
    out_dir = tmp_path / "run"
    assert run(
        "train", "--data", tiny_dataset, "--out-dir", str(out_dir),
        "--config", tiny_config_file,
    ) == 0
    return str(out_dir / "checkpoint.json")


class TestGenData:
    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["--videos", "4", "--timesteps", "8", "--segments", "2", "--seed", "7"]
        assert run("gen-data", "--out", str(a), *args) == 0
        assert run("gen-data", "--out", str(b), *args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_mode_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("gen-data", "--out", str(tmp_path / "x.json"), "--mode", "bogus")
        assert excinfo.value.code == 2

    def test_output_loadable_by_train(self, tmp_path, tiny_config_file, tiny_dataset):
        out_dir = tmp_path / "run2"
        code = run(
            "train", "--data", tiny_dataset, "--out-dir", str(out_dir),
            "--config", tiny_config_file, "--epochs", "1",
        )
        assert code == 0
        assert (out_dir / "checkpoint.json").exists()
        assert (out_dir / "train_log.csv").exists()


def parse_defaults(command, *required):
    return vars(build_parser().parse_args([command, *required]))


class TestFlagDefaults:
    """A flag that sets a config field defaults to that field's default."""

    def test_gen_data_flags_default_to_synthetic_config(self):
        args = parse_defaults("gen-data", "--out", "x.json")
        for field in dataclasses.fields(SyntheticConfig):
            assert args[field.name] == getattr(SyntheticConfig(), field.name)

    def test_rho_defaults_to_train_rho(self):
        for command in ("decode", "stability-report"):
            args = parse_defaults(command, "--checkpoint", "c", "--data", "d", "--out", "o")
            assert args["rho"] == TrainConfig().rho

    def test_a_changed_default_reaches_the_flag(self, monkeypatch):
        # the parser reads each default from the field, so none is restated
        monkeypatch.setattr(SyntheticConfig.__dataclass_fields__["n_videos"], "default", 5)
        monkeypatch.setattr(SyntheticConfig.__dataclass_fields__["feature_noise"], "default", 0.25)
        monkeypatch.setattr(TrainConfig.__dataclass_fields__["rho"], "default", 0.3)
        args = parse_defaults("gen-data", "--out", "x.json")
        assert (args["n_videos"], args["feature_noise"]) == (5, 0.25)
        assert parse_defaults("decode", "--checkpoint", "c", "--data", "d", "--out", "o")["rho"] == 0.3

    def test_train_seed_and_epochs_leave_the_run_config_alone(self):
        args = parse_defaults("train", "--data", "d", "--out-dir", "o")
        assert args["seed"] is None and args["epochs"] is None


class TestTrain:
    def test_same_seed_identical_outputs(self, tmp_path, tiny_config_file, tiny_dataset):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            assert run(
                "train", "--data", tiny_dataset, "--out-dir", str(d),
                "--config", tiny_config_file,
            ) == 0
        assert (dirs[0] / "checkpoint.json").read_bytes() == (dirs[1] / "checkpoint.json").read_bytes()
        assert (dirs[0] / "train_log.csv").read_bytes() == (dirs[1] / "train_log.csv").read_bytes()

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        code = run("train", "--data", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, vid",
        [("features", "v000"), ("picks", "v000"), ("n_frames", "v000"),
         ("change_points", "v000"), ("id", "<missing id>")],
    )
    def test_video_missing_key_exit_2(self, tmp_path, tiny_dataset, capsys, key, vid):
        doc = json.loads(Path(tiny_dataset).read_text())
        del doc["videos"][0][key]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert run("train", "--data", str(path), "--out-dir", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"video {vid!r}: missing keys [{key!r}]" in err

    @pytest.mark.parametrize(
        "mutate, message",
        [(lambda videos: [1], "videos[0] must be an object, got int"),
         (lambda videos: videos + ["v999"], "videos[3] must be an object, got str"),
         (lambda videos: {"a": 1}, "dataset 'videos' must be a list, got dict"),
         (lambda videos: videos[:1] + [dict(videos[1], id=float("nan"))],
          "videos[1]: id must be a non-empty string, got nan")],
    )
    def test_malformed_videos_exit_2(self, tmp_path, tiny_dataset, capsys, mutate, message):
        doc = json.loads(Path(tiny_dataset).read_text())
        doc["videos"] = mutate(doc["videos"])
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert run("train", "--data", str(path), "--out-dir", str(tmp_path / "o")) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, mutate",
        [("n_frames", lambda v: None), ("n_frames", lambda v: v + 0.5),
         ("picks", lambda v: 3), ("picks", lambda v: [v[0], v[1] + 0.5] + v[2:]),
         ("picks", lambda v: [False] + v[1:]), ("change_points", lambda v: [1, 2]),
         ("features", lambda v: [["x"] + v[0][1:]] + v[1:]),
         ("scores", lambda v: [[float("nan")] + v[0][1:]] + v[1:])],
        ids=["n_frames-null", "n_frames-fractional", "picks-int", "picks-fractional",
             "picks-bool", "change_points-flat", "features-string", "scores-nan"],
    )
    def test_malformed_video_field_exit_2(self, tmp_path, tiny_dataset, capsys, key, mutate):
        doc = json.loads(Path(tiny_dataset).read_text())
        doc["videos"][0][key] = mutate(doc["videos"][0][key])
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert run("train", "--data", str(path), "--out-dir", str(tmp_path / "o")) == 2
        assert "video 'v000': " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, named",
        [({"scorer": {"heads": "4"}}, "scorer.heads"), ({"train": {"lr": "x"}}, "train.lr"),
         ({"loss": {"perturbations": None}}, "loss.perturbations"),
         ({"train": {"epochs": 2.5}}, "train.epochs"), ({"train": {"seed": True}}, "train.seed"),
         ({"head": {"temperature": "1"}}, "head.temperature"),
         ({"train": {"weight_decay": float("nan")}}, "train.weight_decay"),
         ({"train": {"lr": 10**400}}, "train.lr"), ({"train": {"seed": -1}}, "train.seed")],
    )
    def test_config_value_of_wrong_type_exit_2(self, tmp_path, tiny_dataset, capsys, config, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = run(
            "train", "--data", tiny_dataset, "--out-dir", str(tmp_path / "o"), "--config", str(path)
        )
        assert code == 2
        assert f"error: {named} " in capsys.readouterr().err

    @pytest.mark.parametrize("flag, what", [("--data", "dataset"), ("--config", "config")])
    def test_file_not_utf8_exit_2_names_it(self, tmp_path, tiny_config_file, tiny_dataset, capsys,
                                           flag, what):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        files = {"--data": tiny_dataset, "--config": tiny_config_file, flag: str(bad)}
        argv = [text for pair in files.items() for text in pair]
        assert run("train", "--out-dir", str(tmp_path / "o"), *argv) == 2
        assert f"error: cannot parse {what} {bad}: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_fold_training(self, tmp_path, tiny_config_file):
        data = tmp_path / "ten.json"
        assert run(
            "gen-data", "--out", str(data), "--videos", "6", "--timesteps", "16",
            "--feature-dim", "8", "--annotators", "2", "--segments", "3", "--seed", "2",
        ) == 0
        out_dir = tmp_path / "fold0"
        assert run(
            "train", "--data", str(data), "--out-dir", str(out_dir),
            "--config", tiny_config_file, "--epochs", "2", "--fold", "0", "--folds", "3",
        ) == 0
        assert (out_dir / "best.json").exists()

    def test_fold_out_of_range(self, tmp_path, tiny_config_file, tiny_dataset, capsys):
        code = run(
            "train", "--data", tiny_dataset, "--out-dir", str(tmp_path / "o"),
            "--config", tiny_config_file, "--fold", "9", "--folds", "3",
        )
        assert code == 2


@pytest.mark.parametrize(
    "command, flag, value",
    [("gen-data", "--feature-noise", "nan"), ("gen-data", "--annotator-noise", "inf"),
     ("gen-data", "--feature-noise", "-0.1"), ("stability-report", "--sigma", "nan"),
     ("stability-report", "--sigma", "inf"), ("gradcheck", "--step", "0"),
     ("gradcheck", "--step", "nan"), ("gradcheck", "--tolerance", "inf"),
     ("train", "--seed", "-1"), ("gen-data", "--seed", "-1"), ("gradcheck", "--seed", "-1"),
     ("stability-report", "--seed", "-1")],
)
def test_non_finite_or_out_of_range_flag_exit_2(request, tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    args = {"gen-data": ["--out", str(out)], "gradcheck": []}.get(command)
    if command == "train":
        args = ["--data", request.getfixturevalue("tiny_dataset"), "--out-dir", str(out)]
    elif args is None:
        args = ["--checkpoint", request.getfixturevalue("trained"),
                "--data", request.getfixturevalue("tiny_dataset"), "--out", str(out)]
    assert refused_by_argparse(command, *args, flag, value) == 2
    if flag == "--seed":
        rule = f"must be >= 0, got {value}"
    else:
        bound = "> 0" if flag in ("--step", "--tolerance") else ">= 0"
        rule = f"must be a finite number {bound}, got {float(value)}"
    assert f"error: argument {flag}: {rule}" in capsys.readouterr().err
    assert not out.exists()


def _message_id(value):
    """A case's message without argparse's `argument FLAG:` framing, so every
    case is named by its flag and rule alike; other values keep pytest's id."""
    if isinstance(value, str) and value.startswith("error: "):
        return value.replace("argument ", "").replace(": must", " must")
    return None


@pytest.mark.parametrize(
    "command, flags, message",
    [("stability-report", ["--trials", "0"], "error: argument --trials: must be >= 1, got 0"),
     ("stability-report", ["--trials", "-3"], "error: argument --trials: must be >= 1, got -3"),
     ("train", ["--fold", "0", "--folds", "1"], "error: argument --folds: must be >= 2, got 1"),
     ("train", ["--folds", "0"], "error: argument --folds: must be >= 2, got 0"),
     ("train", ["--fold", "3", "--folds", "3"], "error: --fold must lie in [0, 2]"),
     ("gen-data", ["--videos", "0"], "error: argument --videos: must be >= 1, got 0"),
     ("gen-data", ["--timesteps", "0"], "error: argument --timesteps: must be >= 1, got 0"),
     ("gen-data", ["--feature-dim", "-2"], "error: argument --feature-dim: must be >= 1, got -2"),
     ("gen-data", ["--annotators", "0"], "error: argument --annotators: must be >= 1, got 0"),
     ("gen-data", ["--segments", "0"], "error: argument --segments: must be >= 1, got 0"),
     ("gen-data", ["--timesteps", "4", "--segments", "5"],
      "error: --segments must be <= --timesteps 4, got 5"),
     ("train", ["--epochs", "0"], "error: argument --epochs: must be >= 1, got 0"),
     ("train", ["--epochs", "-1"], "error: argument --epochs: must be >= 1, got -1")],
    ids=_message_id,
)
def test_count_flag_checked_before_any_work(
    monkeypatch, request, tmp_path, capsys, command, flags, message
):
    out = tmp_path / "out"
    if command == "gen-data":
        args = ["--out", str(out)]
    elif command == "train":
        args = ["--data", request.getfixturevalue("tiny_dataset"), "--out-dir", str(out),
                "--config", request.getfixturevalue("tiny_config_file")]
    else:
        args = ["--checkpoint", request.getfixturevalue("trained"),
                "--data", request.getfixturevalue("tiny_dataset"), "--out", str(out)]
    called = []
    for name in ("load_dataset", "load_run_config", "predict_scores", "generate_synthetic"):
        monkeypatch.setattr(vastsum.cli, name, lambda *a, name=name: called.append(name))
    if "error: argument " in message:  # a single flag: argparse refuses it
        assert refused_by_argparse(command, *args, *flags) == 2
    else:  # a relation between flags: the command refuses it
        assert run(command, *args, *flags) == 2
    assert message in capsys.readouterr().err
    assert called == [] and not out.exists()


def test_more_folds_than_videos_names_the_flag_and_file(
    monkeypatch, tmp_path, tiny_config_file, tiny_dataset, capsys
):
    called = []
    monkeypatch.setattr(vastsum.cli, "train", lambda *a, **k: called.append("train"))
    out = tmp_path / "out"
    code = run(
        "train", "--data", tiny_dataset, "--out-dir", str(out),
        "--config", tiny_config_file, "--fold", "0", "--folds", "4",
    )
    assert code == 2
    assert f"error: --folds must be <= the 3 videos in {tiny_dataset}, got 4" in capsys.readouterr().err
    assert called == [] and not out.exists()


@pytest.mark.parametrize(
    "feature_dim, timesteps, message",
    [("9", "16", "video 'v000': feature dim 9 != scorer.input_dim 8"),
     ("8", "40", "video 'v000': T=40 > scorer.max_timesteps 32")],
    ids=["feature-dim", "timesteps"],
)
def test_dataset_that_does_not_fit_the_checkpoint_names_the_video(
    tmp_path, trained, capsys, feature_dim, timesteps, message
):
    data = tmp_path / "misfit.json"
    assert run("gen-data", "--out", str(data), "--videos", "2", "--segments", "3",
               "--feature-dim", feature_dim, "--timesteps", timesteps) == 0
    capsys.readouterr()
    common = ["--checkpoint", trained, "--data", str(data), "--out", str(tmp_path / "out")]
    for argv in (["eval"], ["decode"], ["stability-report"]):
        assert run(*argv, *common) == 2
        assert f"error: {message}" in capsys.readouterr().err, argv[0]


def test_non_finite_prediction_names_the_video(tmp_path, trained, tiny_dataset, capsys):
    # every weight is finite, but one huge bias overflows the forward pass
    params, meta = load_params(trained)
    params["input.norm.bias"][0] = 1e308
    overflowing = tmp_path / "overflow.ckpt"
    save_params(params, overflowing, meta)
    out = tmp_path / "out"
    common = ["--checkpoint", str(overflowing), "--data", tiny_dataset, "--out", str(out)]
    for argv in (["eval"], ["decode"], ["stability-report"]):
        assert run(*argv, *common) == 2, argv[0]
        assert "error: video 'v000': prediction is not finite" in capsys.readouterr().err, argv[0]
        assert not out.exists()


def test_overflowing_prediction_prints_one_stderr_line(tmp_path, trained, tiny_dataset):
    # numpy's overflow warnings would come before the error line
    params, meta = load_params(trained)
    params["input.norm.bias"][0] = 1e308
    overflowing = tmp_path / "overflow.ckpt"
    save_params(params, overflowing, meta)
    src = str(Path(vastsum.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "vastsum.cli", "eval", "--checkpoint", str(overflowing),
         "--data", tiny_dataset, "--out", str(tmp_path / "out.csv")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: video 'v000': prediction is not finite (16 of 16 scores)"]


def test_overflowing_training_step_names_the_epoch_and_video(tmp_path, tiny_config_file, tiny_dataset, capsys):
    doc = json.loads(Path(tiny_dataset).read_text())
    # finite features that overflow the input projection
    doc["videos"][1]["features"] = [[1.7e308, -1.7e308] * 4 for _ in doc["videos"][1]["features"]]
    data = tmp_path / "overflow.json"
    data.write_text(json.dumps(doc))
    assert run("train", "--data", str(data), "--out-dir", str(tmp_path / "run"),
               "--config", tiny_config_file, "--epochs", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: epoch 0, video 'v001': non-finite forward value at node "), err


def test_non_finite_validation_prediction_names_the_video(tmp_path, tiny_config_file, capsys):
    data = tmp_path / "six.json"
    assert run("gen-data", "--out", str(data), "--videos", "6", "--timesteps", "16",
               "--feature-dim", "8", "--annotators", "2", "--segments", "3", "--seed", "2") == 0
    doc = json.loads(data.read_text())
    held_out = make_folds(load_dataset(str(data)), k=3, seed=1)[0][1][0]
    for video in doc["videos"]:
        if video["id"] == held_out:
            # finite features that overflow the input projection
            video["features"] = [[1.7e308, -1.7e308] * 4 for _ in video["features"]]
    data.write_text(json.dumps(doc))
    assert run("train", "--data", str(data), "--out-dir", str(tmp_path / "run"),
               "--config", tiny_config_file, "--epochs", "1", "--fold", "0", "--folds", "3") == 2
    assert f"error: video {held_out!r}: prediction is not finite" in capsys.readouterr().err


def count_calls(monkeypatch, fn):
    """Rebind `fn` in every vastsum module to a spy; returns its call list."""
    calls = []

    def spy(*args):
        calls.append(args)
        return fn(*args)

    for info in pkgutil.iter_modules(vastsum.__path__):
        module = importlib.import_module(f"vastsum.{info.name}")
        for key, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, key, spy)
    return calls


class TestOneSegmentMapPerVideo:
    def test_load_then_train_with_validation(self, monkeypatch, tiny_config_file, tiny_dataset):
        maps = count_calls(monkeypatch, timeline.assign_segment_ids)
        plans = count_calls(monkeypatch, timeline.PoolingPlan)
        dataset = load_dataset(tiny_dataset)
        cfg = load_run_config(tiny_config_file)
        train_set = Dataset(dataset.mode, dataset.videos[:2])
        for _ in range(2):
            train(train_set, cfg, val_videos=dataset.videos[2:])
        assert [args[0] for args in maps] == [v.picks for v in dataset.videos]
        # one pooling plan per training video, kept across both runs
        built = [args[0] for args in plans]
        assert len(built) == len(train_set.videos) and all(v.picks in built for v in train_set.videos)

    def test_decode_command(self, monkeypatch, tmp_path, trained, tiny_dataset):
        videos = load_dataset(tiny_dataset).videos
        maps = count_calls(monkeypatch, timeline.assign_segment_ids)
        assert run("decode", "--checkpoint", trained, "--data", tiny_dataset,
                   "--out", str(tmp_path / "m.json")) == 0
        assert [args[0] for args in maps] == [v.picks for v in videos]


def test_integer_beyond_float_range_exit_2(tmp_path, trained, tiny_dataset, capsys):
    doc = json.loads(Path(tiny_dataset).read_text())
    doc["videos"][0]["features"][0][0] = 10**400
    data = tmp_path / "huge.json"
    data.write_text(json.dumps(doc))
    capsys.readouterr()
    out = str(tmp_path / "out")
    for argv in (
        ["train", "--out-dir", out],
        ["eval", "--checkpoint", trained, "--out", out],
        ["decode", "--checkpoint", trained, "--out", out],
        ["stability-report", "--checkpoint", trained, "--out", out],
    ):
        assert run(*argv, "--data", str(data)) == 2, argv[0]
        assert capsys.readouterr().err.splitlines() == [
            "error: video 'v000': features must be numeric: int too large to convert to float"
        ], argv[0]


class TestEval:
    @pytest.mark.parametrize("protocol", ["tvsum", "summe"])
    def test_oracle_report_bytes_come_from_evaluate(self, tmp_path, trained, protocol):
        data = tmp_path / f"{protocol}.json"
        assert run("gen-data", "--out", str(data), "--mode", protocol, "--videos", "4",
                   "--timesteps", "16", "--feature-dim", "8", "--annotators", "3",
                   "--segments", "3", "--seed", "6") == 0
        out = tmp_path / "report.csv"
        assert run("eval", "--checkpoint", trained, "--data", str(data),
                   "--out", str(out), "--oracle") == 0
        videos = load_dataset(data).videos
        anns = [v.annotations for v in videos]
        report = evaluate(protocol, [v.video_id for v in videos],
                          [protocol_targets(protocol, a) for a in anns], anns)
        want = tmp_path / "want.csv"
        write_report_csv(report, want)
        assert out.read_bytes() == want.read_bytes()
        kept = [row for row in report.per_video if not row.degenerate]
        assert kept
        assert all(row.tau == 1.0 and row.rho == 1.0 for row in kept)

    def test_oracle_mode_perfect_scores(self, tmp_path, trained, tiny_dataset):
        out = tmp_path / "report.csv"
        assert run(
            "eval", "--checkpoint", trained, "--data", tiny_dataset,
            "--out", str(out), "--oracle",
        ) == 0
        rows = list(csv.DictReader(out.open()))
        footer = rows[-1]
        assert footer["video_id"] == "mean"
        assert float(footer["tau"]) == 1.0
        assert float(footer["rho"]) == 1.0

    def test_report_row_count(self, tmp_path, trained, tiny_dataset):
        out = tmp_path / "report.csv"
        assert run(
            "eval", "--checkpoint", trained, "--data", tiny_dataset,
            "--out", str(out),
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 + 1  # header + 3 videos + mean footer

    def test_determinism(self, tmp_path, trained, tiny_dataset):
        outs = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for out in outs:
            assert run(
                "eval", "--checkpoint", trained, "--data", tiny_dataset,
                "--out", str(out),
            ) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestModeFromDataset:
    """train and eval take the mode and the protocol from the dataset file."""

    @pytest.fixture()
    def summe_dataset(self, tmp_path):
        out = tmp_path / "summe.json"
        assert run("gen-data", "--out", str(out), "--mode", "summe", "--videos", "3",
                   "--timesteps", "16", "--feature-dim", "8", "--annotators", "3",
                   "--segments", "3", "--seed", "4") == 0
        return str(out)

    def test_summe_chain_with_no_mode_flag(self, tmp_path, tiny_config_file, summe_dataset):
        run_dir = tmp_path / "run"
        assert run("train", "--data", summe_dataset, "--out-dir", str(run_dir),
                   "--config", tiny_config_file, "--epochs", "1") == 0
        checkpoint = str(run_dir / "checkpoint.json")
        params, meta = load_params(checkpoint)
        assert meta["config"]["train"]["mode"] == "summe"
        common = ["--checkpoint", checkpoint, "--data", summe_dataset]
        out = {name: tmp_path / name for name in ("report.csv", "masks.json", "stability.csv")}
        assert run("eval", *common, "--out", str(out["report.csv"])) == 0
        assert run("decode", *common, "--out", str(out["masks.json"])) == 0
        assert run("stability-report", *common, "--trials", "5", "--out", str(out["stability.csv"])) == 0
        cfg = run_config_from_dict(meta["config"])
        videos = load_dataset(summe_dataset).videos
        report = evaluate("summe", [v.video_id for v in videos],
                          [predict_scores(params, v, v.segment_map, cfg)["signal"] for v in videos],
                          [v.annotations for v in videos])
        want = tmp_path / "want.csv"
        write_report_csv(report, want)
        assert out["report.csv"].read_bytes() == want.read_bytes()

    def test_a_config_mode_gives_way_to_the_dataset(self, tmp_path, tiny_config_file, summe_dataset):
        # tiny_config_file says "train": {"mode": "tvsum"}
        assert load_run_config(tiny_config_file).train.mode == "tvsum"
        doc = json.loads(Path(tiny_config_file).read_text())
        doc["train"]["mode"] = "summe"
        summe_config = tmp_path / "summe-config.json"
        summe_config.write_text(json.dumps(doc))
        runs = []
        for tag, config in (("tvsum-config", tiny_config_file), ("summe-config", str(summe_config))):
            assert run("train", "--data", summe_dataset, "--out-dir", str(tmp_path / tag),
                       "--config", config, "--epochs", "1") == 0
            runs.append((tmp_path / tag / "checkpoint.json").read_bytes())
        assert runs[0] == runs[1]
        assert load_params(tmp_path / "tvsum-config" / "checkpoint.json")[1]["config"]["train"]["mode"] == "summe"

    @pytest.mark.parametrize("command, flag", [("train", "--mode"), ("eval", "--protocol")])
    def test_removed_flags_are_unrecognized(self, tmp_path, capsys, command, flag):
        args = {"train": ["--data", "d", "--out-dir", str(tmp_path / "o")],
                "eval": ["--checkpoint", "c", "--data", "d", "--out", str(tmp_path / "o")]}[command]
        assert refused_by_argparse(command, *args, flag, "tvsum") == 2
        assert f"unrecognized arguments: {flag} tvsum" in capsys.readouterr().err


class TestDecode:
    def test_budget_respected_and_default_rho(self, tmp_path, trained, tiny_dataset):
        out = tmp_path / "masks.json"
        assert run("decode", "--checkpoint", trained, "--data", tiny_dataset, "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["rho"] == 0.15
        for entry in doc["videos"]:
            cap = budget(doc["rho"], entry["n_frames"])
            assert entry["budget"] == cap
            assert sum(entry["mask"]) <= cap
            assert entry["summary_frames"] == sum(entry["mask"])

    def test_rho_zero_rejected(self, monkeypatch, tmp_path, trained, tiny_dataset, capsys):
        called = []
        for name in ("load_params", "load_dataset"):
            monkeypatch.setattr(vastsum.cli, name, lambda *a, name=name: called.append(name))
        out = tmp_path / "m.json"
        code = refused_by_argparse(
            "decode", "--checkpoint", trained, "--data", tiny_dataset, "--rho", "0", "--out", str(out),
        )
        assert code == 2
        assert "error: argument --rho: must lie in (0, 1], got 0.0" in capsys.readouterr().err
        assert called == [] and not out.exists()

    def test_unwritable_out_names_the_requested_path(self, tmp_path, trained, tiny_dataset, capsys):
        out = tmp_path / "missing" / "m.json"
        errors = []
        for _ in range(2):
            assert run("decode", "--checkpoint", trained, "--data", tiny_dataset, "--out", str(out)) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert ".tmp" not in errors[0] and errors[1] == errors[0]

    @pytest.mark.parametrize(
        "blob, named",
        [(v2_file(), "tensors"),
         (v2_file({"pos.table": {"offset": 0}}, F8_ZERO), "pos.table"),
         (v2_file({"pos.table": {"shape": [1]}}, F8_ZERO), "pos.table"),
         (v2_file({"pos.table": {"shape": [8], "offset": 0}}, F8_ZERO * 7), "pos.table"),
         (v2_file({"pos.table": {"shape": ["a"], "offset": 0}}, F8_ZERO), "pos.table"),
         (v2_file({"pos.table": {"shape": [1], "offset": 0}}, struct.pack("<d", math.nan)),
          "pos.table"),
         (b"\x01\x00\x00", "header length"),
         ((1 << 62).to_bytes(8, "little") + b"{}", "header length"),
         (with_length(b"\xff\xfe{}"), "header is not UTF-8 JSON"),
         (with_length(b"{not json"), "header is not UTF-8 JSON"),
         (with_length(b"[1, 2]"), "header must be a JSON object"),
         (v2_file({}, meta="has config"), "'meta'"),
         (v2_file({"pos.table": {"shape": 1, "offset": 0}}, F8_ZERO), "pos.table"),
         (v2_file({"pos.table": {"shape": [1.5], "offset": 0}}, F8_ZERO), "pos.table"),
         (v2_file({"a": {"shape": [1], "offset": 0}, "pos.table": {"shape": [1], "offset": 16}},
                  F8_ZERO * 3), "pos.table"),
         (v2_file({"pos.table": {"shape": [1], "offset": 0}}, F8_ZERO * 2), "trailing bytes"),
         (v2_file({"a": {"shape": [1], "offset": 0}, "pos.table": {"shape": [1], "offset": 8}},
                  F8_ZERO + struct.pack("<d", -math.inf)), "pos.table"),
         (v2_file({}, format="vastsum-params-v1"), "vastsum-params-v2"),
         (json.dumps({"format": "vastsum-params-v1", "meta": {}, "tensors": {}}).encode(),
          "vastsum-params-v2")],
        # the first six cases keep the ids they had when checkpoints were JSON documents
        ids=["None-tensors", "tensors1-pos.table", "tensors2-pos.table", "tensors3-pos.table",
             "tensors4-pos.table", "tensors5-pos.table", "shorter-than-length", "length-past-end", "header-not-utf8",
             "header-not-json", "header-not-object", "meta-string", "shape-not-list",
             "shape-fractional", "offset-gap", "trailing-bytes", "inf-data", "format-v1",
             "v1-json-file"],
    )
    def test_malformed_checkpoint_exit_2(self, tmp_path, tiny_dataset, capsys, blob, named):
        path = tmp_path / "ckpt.json"
        path.write_bytes(blob)
        out = tmp_path / "m.json"
        code = run("decode", "--checkpoint", str(path), "--data", tiny_dataset, "--out", str(out))
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_determinism(self, tmp_path, trained, tiny_dataset):
        outs = [tmp_path / "m1.json", tmp_path / "m2.json"]
        for out in outs:
            assert run(
                "decode", "--checkpoint", trained, "--data", tiny_dataset,
                "--rho", "0.3", "--out", str(out),
            ) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestStabilityReport:
    def test_sigma_zero_rates_all_zero(self, tmp_path, trained, tiny_dataset):
        out = tmp_path / "stab.csv"
        assert run(
            "stability-report", "--checkpoint", trained, "--data", tiny_dataset,
            "--sigma", "0", "--trials", "10", "--out", str(out),
        ) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3 + 1
        assert all(float(r["flip_rate"]) == 0.0 for r in rows)

    def test_one_row_per_video_plus_mean(self, tmp_path, trained, tiny_dataset):
        out = tmp_path / "stab.csv"
        assert run(
            "stability-report", "--checkpoint", trained, "--data", tiny_dataset,
            "--sigma", "0.05", "--trials", "20", "--out", str(out),
        ) == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[-1]["video_id"] == "mean"
        rates = [float(r["flip_rate"]) for r in rows[:-1]]
        assert float(rows[-1]["flip_rate"]) == pytest.approx(
            math.fsum(rates) / len(rates), abs=1e-15
        )

    def test_same_seed_identical(self, tmp_path, trained, tiny_dataset):
        outs = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
        for out in outs:
            assert run(
                "stability-report", "--checkpoint", trained, "--data", tiny_dataset,
                "--sigma", "0.05", "--trials", "25", "--seed", "3", "--out", str(out),
            ) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestOutOfMemory:
    """An allocation the machine cannot make exits 2 with one error line, not a
    traceback. The allocating call is replaced: a test never allocates for real."""

    NUMPY_MESSAGE = "Unable to allocate 11.9 GiB for an array with shape (100000001, 16) and data type float64"

    def test_stability_report_with_huge_trials(self, tmp_path, trained, tiny_dataset, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise MemoryError(self.NUMPY_MESSAGE)

        monkeypatch.setattr(vastsum.cli, "flip_rate", refuse)
        out = tmp_path / "stab.csv"
        assert run(
            "stability-report", "--checkpoint", trained, "--data", tiny_dataset,
            "--trials", "100000000", "--out", str(out),
        ) == 2
        assert capsys.readouterr().err == f"error: out of memory: {self.NUMPY_MESSAGE}\n"
        assert not out.exists()

    def test_train_with_huge_model(self, tmp_path, tiny_config_file, tiny_dataset, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(vastsum.trainer, "init_all_params", refuse)
        out_dir = tmp_path / "run"
        assert run("train", "--data", tiny_dataset, "--out-dir", str(out_dir), "--config", tiny_config_file) == 2
        assert capsys.readouterr().err == "error: out of memory: an allocation failed\n"
        assert not (out_dir / "checkpoint.json").exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_get_the_umask_mode(tmp_path, tiny_config_file, umask, mode):
    previous = os.umask(umask)
    try:
        data, run_dir = tmp_path / "data.json", tmp_path / "run"
        masks, report = tmp_path / "masks.json", tmp_path / "report.csv"
        assert run(
            "gen-data", "--out", str(data), "--videos", "3", "--timesteps", "16",
            "--feature-dim", "8", "--annotators", "2", "--segments", "3", "--seed", "4",
        ) == 0
        assert run(
            "train", "--data", str(data), "--out-dir", str(run_dir),
            "--config", tiny_config_file, "--epochs", "1",
        ) == 0
        checkpoint = run_dir / "checkpoint.json"
        assert run(
            "decode", "--checkpoint", str(checkpoint), "--data", str(data), "--out", str(masks),
        ) == 0
        assert run(
            "eval", "--checkpoint", str(checkpoint), "--data", str(data),
            "--out", str(report),
        ) == 0
    finally:
        os.umask(previous)
    for path in (data, checkpoint, masks, report):
        assert os.stat(path).st_mode & 0o777 == mode, path.name


class TestGradcheck:
    def test_passes_on_clean_build(self, capsys):
        assert run("gradcheck", "--seed", "0") == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_backward_rule_fails(self, monkeypatch, capsys):
        original = dc.sigmoid

        def corrupted(a):
            node = original(a)
            good = node.vjp
            node.vjp = lambda g: tuple(1.1 * p for p in good(g))
            return node

        monkeypatch.setattr(dc, "sigmoid", corrupted)
        assert run("gradcheck", "--seed", "0") == 1
        assert "FAIL" in capsys.readouterr().out


class TestImportFootprint:
    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # importing scipy.stats nearly doubles the CLI's peak RSS
        src = str(Path(vastsum.__file__).resolve().parents[1])
        code = "import sys, vastsum.cli; sys.exit('scipy.stats' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60
        )
        assert proc.returncode == 0
