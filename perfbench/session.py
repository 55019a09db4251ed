"""One benchmark workload: a seeded vastsum session at one scale.

Set-up loads the inputs as the CLI does: `data.load_dataset`, then
`checkpoint.load_params` and `validate_shapes` on a checkpoint that
`checkpoint.save_params` wrote from a seeded init when the session was made.
A round then does what a user does with the CLI, through the library calls
behind it: `train` with a checkpoint directory, and `eval`, `decode` and
`stability-report` from the loaded checkpoint; eval and decode run
INFER_REPEATS times. Each command is timed on its own, so every end-to-end
rate is measured in every round, and every output is checked. Times are
calibrated (see speed.py): each phase (set-up, train, one eval-and-decode
repeat, stability-report) samples the machine's speed with reference passes
at its edges and, from a timer, inside it; the wall times are kept too, for
comparison.

Garbage is collected before each timed command, as if it started in a fresh
process: tapes are reference cycles, so otherwise a collection of the
previous command's tapes lands at a random point of the next one.

vastsum is always reached through module attributes (`trainer.train`, not a
name imported from it), so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from speed import Speed
from vastsum import checkpoint, data, decoder, evaluation, timeline, trainer
from vastsum.config import HeadConfig, LossConfig, RunConfig, ScorerConfig, TrainConfig

RHO = 0.15
SIGMA = 0.05
TRIALS = 100
# eval and decode are short next to train and stability-report: run them this
# many times a round, so their medians rest on as many samples
INFER_REPEATS = 3
ARTIFACTS = ("checkpoint.json", "train_log.csv", "masks.json", "report.csv", "stability.csv")


@dataclass(frozen=True)
class Workload:
    name: str  # also the corpus.SHAPES key
    epochs: int  # per train call
    flip_videos: int  # videos whose stability report each round computes
    min_fit_rho: float | None  # fit check on the training videos, when the model can fit

    def config(self, seed: int) -> RunConfig:
        if self.name == "desk":
            # the acceptance overfit model
            return RunConfig(
                scorer=ScorerConfig(input_dim=16, model_dim=32, heads=2, layers=1, refine_blocks=1,
                                    kernel=3, ffn_mult=2, max_timesteps=64),
                head=HeadConfig(latent_dim=8),
                loss=LossConfig(),
                train=TrainConfig(lr=5e-3, epochs=self.epochs, accumulate=4, seed=seed, mode="tvsum"),
            )
        cfg = RunConfig()  # the default dims: d=128, 4 heads, 2 layers, D=1024
        cfg.train = dataclasses.replace(cfg.train, epochs=self.epochs, seed=seed)
        return cfg


WORKLOADS = {
    # Tiny arrays: time goes to Python dispatch on the tape (~160 nodes a
    # step) and the trainer's per-parameter loops; the knapsack is trivial
    # (capacity 19). 20 epochs fit the data to rho 0.57-0.90 (median 0.82)
    # over seeds 1-100, 301-310 and 801-820.
    "desk": Workload("desk", epochs=20, flip_videos=8, min_fit_rho=0.4),
    # Paper dims: BLAS-sized matmuls, 9 knapsack solves of capacity 1536 per
    # step, a 14 MB checkpoint a epoch, a 26 MB dataset, 20 annotators to
    # correlate with, and 101 knapsack solves per stability report. One epoch
    # does not fit the model, so fit quality is reported but not checked.
    "paper": Workload("paper", epochs=1, flip_videos=1, min_fit_rho=None),
}


@dataclass
class Tally:
    """Operations attempted and failed (video-steps, evals, decodes, flip trials)."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, count: int, ok: bool, what: str = "") -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(what)


@dataclass
class RoundResult:
    samples: dict[str, list[float]]  # end-to-end rate name -> the round's calibrated samples
    wall: dict[str, list[float]]  # the same rates in wall time
    digests: dict[str, str]
    masks: dict[str, list[int]]


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _finite(h) -> bool:
    return all(math.isfinite(x) for x in (h.main, h.rank, h.stab, h.kl, h.total))


def _mask_ok(mask, video) -> bool:
    """Budget floor(rho N) holds and the mask is the union of its segments."""
    union = np.zeros(video.n_frames, dtype=bool)
    for k in mask.selected_segments:
        start, end = video.change_points.segments[k]
        union[start : end + 1] = True
    kept = int(mask.y.sum())
    return kept <= decoder.budget(RHO, video.n_frames) and bool(np.array_equal(mask.y, union))


def _correlation_ok(row) -> bool:
    if row.degenerate:
        return True
    return -1.0 <= row.tau <= 1.0 and -1.0 <= row.rho <= 1.0


class Session:
    def __init__(self, workload: Workload, seed: int, corpus_path: str, work_dir: str,
                 tally: Tally):
        self.workload = workload
        self.seed = seed
        self.corpus_path = corpus_path
        self.tally = tally
        self.cfg = workload.config(seed)
        self.dataset = None
        self.params = None
        self.speed = Speed()
        # the checkpoint that eval, decode and stability-report read
        self.checkpoint_path = os.path.join(work_dir, "init_checkpoint.json")
        init = trainer.init_all_params(self.cfg, np.random.default_rng(seed))
        meta = {"config": {part: dataclasses.asdict(getattr(self.cfg, part))
                           for part in ("scorer", "head", "loss", "train")}}
        checkpoint.save_params(init, self.checkpoint_path, meta)

    def setup(self) -> tuple[float, float]:
        """Load the dataset and the checkpoint as the CLI does; returns
        (calibrated, wall) seconds."""
        gc.collect()
        self.speed.begin()
        start = self.speed.now()
        try:
            self.dataset = data.load_dataset(self.corpus_path)
            params, _ = checkpoint.load_params(self.checkpoint_path)
            checkpoint.validate_shapes(params, trainer.all_param_shapes(self.cfg))
        except Exception:
            self.speed.disarm()
            raise
        self.params = params
        wall = self.speed.now() - start
        return wall * self.speed.end(), wall

    def round(self, out_dir: str) -> RoundResult:
        """Train, then eval, decode and stability-report from the loaded checkpoint.

        An exception fails the remaining operations of the round and propagates."""
        videos = self.dataset.videos
        n = len(videos)
        steps = self.workload.epochs * n
        flips = self.workload.flip_videos
        pending = [steps + INFER_REPEATS * 2 * n + flips * TRIALS]

        def tally(count, ok, what):
            self.tally.add(count, ok, what)
            pending[0] -= count

        os.makedirs(out_dir, exist_ok=True)
        try:
            gc.collect()
            self.speed.begin()
            start = self.speed.now()
            result = trainer.train(self.dataset, self.cfg, checkpoint_dir=out_dir)
            wall = self.speed.now() - start
            train_s = (wall, wall * self.speed.end())
            for h in result.history:
                tally(n, _finite(h), f"epoch {h.epoch}: non-finite loss")

            eval_s, decode_s = [], []  # (wall, calibrated) seconds of each repeat
            for _ in range(INFER_REPEATS):
                gc.collect()
                self.speed.begin()
                predict_s, signals = [], []
                for video in videos:
                    start = self.speed.now()
                    signals.append(self._predict(self.params, video))
                    predict_s.append(self.speed.now() - start)

                gc.collect()
                start = self.speed.now()
                report = evaluation.evaluate_tvsum(
                    [v.video_id for v in videos], signals, [v.annotations for v in videos])
                eval_wall = sum(predict_s) + self.speed.now() - start
                for row in report.per_video:
                    tally(1, _correlation_ok(row), f"{row.video_id}: tau/rho out of range")

                gc.collect()
                decode_wall, masks = sum(predict_s), {}
                for video, signal in zip(videos, signals):
                    start = self.speed.now()
                    mask = decoder.decode_summary(signal, video.picks, video.change_points, RHO)
                    decode_wall += self.speed.now() - start
                    tally(1, _mask_ok(mask, video), f"{video.video_id}: bad decode mask")
                    masks[video.video_id] = (mask.selected_segments, mask.y.astype(int).tolist())
                factor = self.speed.end()
                eval_s.append((eval_wall, eval_wall * factor))
                decode_s.append((decode_wall, decode_wall * factor))

            gc.collect()
            self.speed.begin()
            flip_wall, rates = 0.0, []
            for index in range(flips):
                video = videos[index]
                start = self.speed.now()
                rate = evaluation.flip_rate(signals[index], video.picks, video.change_points,
                                            RHO, SIGMA, TRIALS, seed=self.seed + index)
                flip_wall += self.speed.now() - start
                tally(TRIALS, 0.0 <= rate <= 1.0, f"{video.video_id}: flip rate {rate}")
                rates.append((video.video_id, rate))
            # the signals were predicted in the last repeat, at its speed
            predict_flips = sum(predict_s[:flips])
            flip_s = (predict_flips + flip_wall,
                      predict_flips * factor + flip_wall * self.speed.end())
        except Exception:
            self.speed.disarm()
            self.tally.add(pending[0], False, "round raised")
            raise

        self._write_artifacts(out_dir, report, masks, rates)
        timed = {  # rate name -> (work, [(wall, calibrated) seconds])
            "train_steps_per_s": (steps, [train_s]),
            "eval_videos_per_s": (n, eval_s),
            "decode_videos_per_s": (n, decode_s),
            "stability_trials_per_s": (flips * TRIALS, [flip_s]),
        }
        return RoundResult(
            samples={name: [work / c for _, c in runs] for name, (work, runs) in timed.items()},
            wall={name: [work / w for w, _ in runs] for name, (work, runs) in timed.items()},
            digests={name: sha256(os.path.join(out_dir, name)) for name in ARTIFACTS},
            masks={vid: m[1] for vid, m in masks.items()},
        )

    def _predict(self, params, video):
        seg = timeline.assign_segment_ids(video.picks, video.change_points)
        return trainer.predict_scores(params, video, seg, self.cfg)["signal"]

    def fit_rho(self, out_dir: str) -> float:
        """Mean Spearman rho of the checkpoint a round trained, on its own videos."""
        params, _ = checkpoint.load_params(os.path.join(out_dir, "checkpoint.json"))
        videos = self.dataset.videos
        report = evaluation.evaluate_tvsum(
            [v.video_id for v in videos], [self._predict(params, v) for v in videos],
            [v.annotations for v in videos])
        return report.mean_rho

    def _write_artifacts(self, out_dir, report, masks, rates) -> None:
        evaluation.write_report_csv(report, os.path.join(out_dir, "report.csv"))
        doc = {"rho": RHO, "videos": [{"id": vid, "selected_segments": list(sel), "mask": y}
                                      for vid, (sel, y) in masks.items()]}
        with open(os.path.join(out_dir, "masks.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        with open(os.path.join(out_dir, "stability.csv"), "w", encoding="utf-8") as fh:
            fh.write("video_id,flip_rate\n")
            fh.writelines(f"{vid},{rate!r}\n" for vid, rate in rates)

    def cli_masks(self, out_dir: str, src_dir: str) -> dict[str, list[int]]:
        """Masks from `vastsum decode` on the checkpoint the inference commands read."""
        out = os.path.join(out_dir, "cli_masks.json")
        env = dict(os.environ, PYTHONPATH=src_dir)
        subprocess.run(
            [sys.executable, "-m", "vastsum.cli", "decode", "--checkpoint", self.checkpoint_path,
             "--data", self.corpus_path, "--rho", str(RHO), "--out", out],
            env=env, check=True, timeout=150, stdout=subprocess.DEVNULL,
        )
        with open(out, encoding="utf-8") as fh:
            return {v["id"]: v["mask"] for v in json.load(fh)["videos"]}
