"""The benchmark's own tests: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import time
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import session  # noqa: E402
import speed  # noqa: E402
from tracer import NODE_KINDS, Tracer  # noqa: E402
from vastsum import data, decoder, evaluation, losses, trainer  # noqa: E402

SMALL = dataclasses.replace(session.WORKLOADS["desk"], epochs=2, flip_videos=2)


def _text(seed, shape):
    return json.dumps(corpus.generate(seed, shape), separators=(",", ":"))


def test_corpus_is_byte_deterministic_per_seed(tmp_path):
    assert _text(3, corpus.DESK) == _text(3, corpus.DESK)
    assert _text(3, corpus.DESK) != _text(4, corpus.DESK)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    corpus.write(5, str(a), corpus.DESK)
    corpus.write(5, str(b), corpus.DESK)
    assert a.read_bytes() == b.read_bytes()


def test_paper_corpus_loads_with_paper_shape(tmp_path):
    path = tmp_path / "paper.json"
    corpus.write(1, str(path), corpus.PAPER)
    videos = data.load_dataset(str(path)).videos
    assert len(videos) == 4
    for video in videos:
        assert video.features.shape == (320, 1024)
        assert video.n_frames == 10240
        assert video.change_points.n_segments == 80
        # even segments: 2 to 6 picks (of 32 frames) each
        lengths = [end - start + 1 for start, end in video.change_points.segments]
        assert min(lengths) >= 2 * 32 and max(lengths) <= 6 * 32
        assert video.annotations.shape == (20, 320)
        assert decoder.budget(session.RHO, video.n_frames) == 1536


def _session(tmp_path, seed=2):
    path = tmp_path / "desk.json"
    corpus.write(seed, str(path), corpus.DESK)
    sess = session.Session(SMALL, seed, str(path), str(tmp_path), session.Tally())
    sess.setup()
    return sess


def test_traced_round_artifacts_match_untraced(tmp_path):
    sess = _session(tmp_path)
    plain = sess.round(str(tmp_path / "plain"))
    tracer = Tracer()
    with tracer.install():
        seen = sess.round(str(tmp_path / "traced"))
    assert seen.digests == plain.digests
    assert sess.tally.failed == 0
    assert tracer.spans


def test_install_restores_every_binding(tmp_path):
    originals = (decoder.knapsack_select, losses.knapsack_select, evaluation.decode_summary)
    with Tracer().install():
        assert decoder.knapsack_select is not originals[0]
        assert losses.knapsack_select is not originals[1]
        assert evaluation.decode_summary is not originals[2]
    assert (decoder.knapsack_select, losses.knapsack_select, evaluation.decode_summary) == originals


def test_structural_counts(tmp_path):
    sess = _session(tmp_path)
    tracer = Tracer()
    with tracer.install():
        sess.setup()
        sess.round(str(tmp_path / "out"))
    m = {name: value for name, (value, _) in tracer.layer_metrics().items()}
    assert m["decoder.knapsack_calls_per_step"] == sess.cfg.loss.perturbations + 1 == 9
    assert m["decoder.knapsack_calls_per_flip_rate"] == session.TRIALS + 1 == 101
    kinds = sum(m[f"diffcore.nodes_per_step.{kind}"] for kind in NODE_KINDS)
    assert m["diffcore.nodes_per_step"] == pytest.approx(kinds) and kinds > 0
    assert m["diffcore.nodes_per_step.param"] == len(trainer.all_param_shapes(sess.cfg))
    assert 0.0 <= m["decoder.knapsack_repeat_share"] <= 1.0
    assert 0.0 <= m["trainer.clip_active_share"] <= 1.0
    assert m["checkpoint.save_bytes"] > 0 and m["checkpoint.load_bytes"] > 0


def test_speed_samples_inside_a_phase_and_leaves_its_time_out():
    clock = speed.Speed(sample_s=0.02)
    clock.begin()
    start, wall_start = clock.now(), time.perf_counter()
    while time.perf_counter() - wall_start < 0.3:
        sum(range(1000))
    timed, wall = clock.now() - start, time.perf_counter() - wall_start
    factor = clock.end()
    assert len(clock.references) >= 4  # two edges and at least two ticks
    assert timed < wall - 0.5 * sum(clock.references[1:-1])
    assert factor == pytest.approx(
        sum(speed.REFERENCE_S / r for r in clock.references) / len(clock.references))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10000)))

    def body():
        inner()
        return inner()

    outer = tracer.wrap("outer", body)
    outer()
    self_ns = tracer.self_times()
    durations = [end - start for _, start, end, _, _ in tracer.spans]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert self_ns[0] == durations[0] - durations[1] - durations[2]
    assert sum(self_ns) == durations[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_workload_names_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(session.WORKLOADS) == list(corpus.SHAPES)


def _result(*flags):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "4", "--seconds", "1",
         *flags], cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_run_prints_every_declared_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for flags, key in ((("--trace", "0"), "end_to_end"), (("--trace", "1"), "per_layer")):
        result = _result(*flags)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
