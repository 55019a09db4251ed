import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vastsum
import vastsum.diffcore as dc
from vastsum.cli import main
from vastsum.decoder import budget


def run(*argv):
    return main(list(argv))


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
         (lambda videos: {"a": 1}, "dataset 'videos' must be a list, got dict")],
    )
    def test_malformed_videos_exit_2(self, tmp_path, tiny_dataset, capsys, mutate, message):
        doc = json.loads(Path(tiny_dataset).read_text())
        doc["videos"] = mutate(doc["videos"])
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert run("train", "--data", str(path), "--out-dir", str(tmp_path / "o")) == 2
        assert message in capsys.readouterr().err

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


class TestEval:
    def test_oracle_mode_perfect_scores(self, tmp_path, trained, tiny_dataset):
        out = tmp_path / "report.csv"
        assert run(
            "eval", "--checkpoint", trained, "--data", tiny_dataset,
            "--protocol", "tvsum", "--out", str(out), "--oracle",
        ) == 0
        rows = list(csv.DictReader(out.open()))
        footer = rows[-1]
        assert footer["video_id"] == "mean"
        assert float(footer["tau"]) == 1.0
        assert float(footer["rho"]) == 1.0

    def test_protocol_mismatch_exit_2(self, tmp_path, trained, tiny_dataset, capsys):
        code = run(
            "eval", "--checkpoint", trained, "--data", tiny_dataset,
            "--protocol", "summe", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2
        assert "protocol" in capsys.readouterr().err

    def test_report_row_count(self, tmp_path, trained, tiny_dataset):
        out = tmp_path / "report.csv"
        assert run(
            "eval", "--checkpoint", trained, "--data", tiny_dataset,
            "--protocol", "tvsum", "--out", str(out),
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 + 1  # header + 3 videos + mean footer

    def test_determinism(self, tmp_path, trained, tiny_dataset):
        outs = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for out in outs:
            assert run(
                "eval", "--checkpoint", trained, "--data", tiny_dataset,
                "--protocol", "tvsum", "--out", str(out),
            ) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


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

    def test_rho_zero_rejected(self, tmp_path, trained, tiny_dataset, capsys):
        code = run(
            "decode", "--checkpoint", trained, "--data", tiny_dataset,
            "--rho", "0", "--out", str(tmp_path / "m.json"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "tensors, named",
        [(None, "tensors"), ({"pos.table": {"data": [0.0]}}, "pos.table"),
         ({"pos.table": {"shape": [1]}}, "pos.table")],
    )
    def test_malformed_checkpoint_exit_2(self, tmp_path, tiny_dataset, capsys, tensors, named):
        doc = {"format": "vastsum-params-v1"}
        if tensors is not None:
            doc["tensors"] = tensors
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(doc))
        code = run(
            "decode", "--checkpoint", str(path), "--data", tiny_dataset,
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert named in capsys.readouterr().err

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
            "--protocol", "tvsum", "--out", str(report),
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
