"""Seeded tvsum corpora, written as files `data.load_dataset` accepts.

Two shapes. `desk` is the acceptance overfit data: 8 videos, T = 64 picks on
every second frame (N = 128), D = 16, M = 6 segments, U = 3 annotators.
`paper` keeps the paper's proportions, which `vastsum gen-data` cannot reach
because it fixes N = 2T (at T = 320 its budget would be 96 frames): 4 videos,
D = 1024, T = 320 picks spaced every 32 frames (N = 10240, budget
floor(0.15 N) = 1536), M = 80 change-point segments and U = 20 annotators (the
TVSum count).

Segments are cut at pick positions, so each holds at least one pick. `desk`
cuts at uniformly random picks, as `data.generate_synthetic` does. `paper`
cuts near every (T/M)-th pick, moved by up to a quarter of that spacing, so
segments hold 2 to 6 picks: the knapsack's cost grows with the number of
segments its partial solutions hold, and under uniformly random cuts that
number, and so the cost of a decode, varies widely from seed to seed (see
README.md).
Importance is a per-segment latent embedded linearly into the features, as in
`data.generate_synthetic`. The output is canonical JSON (compact separators,
repr floats), so one seed always gives the same bytes.

    python3 perfbench/corpus.py --shape paper --seed 1 --out corpus.json
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass

import numpy as np


FEATURE_NOISE = 0.05
ANNOTATOR_NOISE = 0.05


@dataclass(frozen=True)
class CorpusShape:
    videos: int
    timesteps: int
    frames_per_pick: int
    feature_dim: int
    segments: int
    annotators: int
    even_segments: bool  # cuts on a jittered grid rather than at random picks


PAPER = CorpusShape(videos=4, timesteps=320, frames_per_pick=32, feature_dim=1024, segments=80,
                    annotators=20, even_segments=True)
DESK = CorpusShape(videos=8, timesteps=64, frames_per_pick=2, feature_dim=16, segments=6,
                   annotators=3, even_segments=False)
SHAPES = {"desk": DESK, "paper": PAPER}


def generate(seed: int, shape: CorpusShape) -> dict:
    """The dataset document for `seed`, in `data.load_dataset` format."""
    rng = np.random.default_rng(seed)
    t_len, m = shape.timesteps, shape.segments
    n_frames = t_len * shape.frames_per_pick
    picks = [t * shape.frames_per_pick for t in range(t_len)]
    embed = rng.uniform(-1.0, 1.0, (1 + m, shape.feature_dim))
    videos = []
    for v in range(shape.videos):
        if shape.even_segments:
            jitter = (t_len // m) // 4
            grid = np.round(np.arange(1, m) * t_len / m).astype(int)
            cuts = grid + rng.integers(-jitter, jitter + 1, m - 1)
        else:
            cuts = np.sort(rng.choice(np.arange(1, t_len), size=m - 1, replace=False))
        first_pick = np.concatenate([[0], cuts])
        starts = [picks[int(c)] for c in first_pick]
        ends = [s - 1 for s in starts[1:]] + [n_frames - 1]
        seg_ids = np.searchsorted(first_pick, np.arange(t_len), side="right") - 1
        importance = rng.uniform(0.0, 1.0, m)[seg_ids]
        # [importance, one-hot segment] @ embed, without BLAS, whose rounding
        # may depend on its thread count
        clean = importance[:, None] * embed[0] + embed[1:][seg_ids]
        features = clean + FEATURE_NOISE * rng.standard_normal((t_len, shape.feature_dim))
        noise = ANNOTATOR_NOISE * rng.standard_normal((shape.annotators, t_len))
        scores = np.clip(importance[None, :] + noise, 0.0, 1.0)
        videos.append(
            {
                "id": f"p{v:03d}",
                "n_frames": n_frames,
                "picks": picks,
                "change_points": [[s, e] for s, e in zip(starts, ends)],
                "features": features.tolist(),
                "scores": scores.tolist(),
            }
        )
    return {"mode": "tvsum", "videos": videos}


def write(seed: int, path: str, shape: CorpusShape) -> None:
    text = json.dumps(generate(seed, shape), separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write(args.seed, args.out, SHAPES[args.shape])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
