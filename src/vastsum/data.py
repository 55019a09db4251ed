"""Dataset file format, validation, synthetic corpus generation, and folds.

A dataset is one JSON document:

    {"mode": "tvsum" | "summe",
     "videos": [{"id": str, "n_frames": int, "picks": [int, ...],
                 "change_points": [[start, end], ...],
                 "features": [[float, ...], ...],          # T x D, row-major
                 "scores": [[float, ...], ...]             # tvsum, U x T in [0, 1]
                 | "summaries": [[0/1, ...], ...]}]}       # summe, U x T

Loading is the single validation gate: every invariant is checked and a
violation aborts with the offending video id. A `VideoRecord` keeps its
timeline once, as the `SegmentIndexMap` built at load: its `picks`,
`change_points` and `n_frames` read that map, as do training's token pool
and the decoder's pooling. The synthetic generator
embeds a per-segment latent importance linearly into the features so that a
trained model (or even a linear probe) can recover it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write
from .config import MODE, MODES, NON_NEGATIVE, at_least, check_fields, is_integral, read_json, setting
from .errors import ConfigError
from .timeline import ChangePointPartition, PickSequence, SegmentIndexMap, assign_segment_ids


@dataclass
class VideoRecord:
    """One video: features and supervision on the sampled timeline, plus the
    `SegmentIndexMap` tying it to the original timeline, the only place its
    picks and partition are kept."""

    video_id: str
    features: np.ndarray
    segment_map: SegmentIndexMap
    annotations: np.ndarray

    @property
    def picks(self) -> PickSequence:
        return self.segment_map.picks

    @property
    def change_points(self) -> ChangePointPartition:
        return self.segment_map.cps

    @property
    def n_timesteps(self) -> int:
        return self.features.shape[0]

    @property
    def n_frames(self) -> int:
        return self.segment_map.cps.n_frames


@dataclass
class Dataset:
    mode: str
    videos: list[VideoRecord]


@dataclass
class SyntheticConfig:
    n_videos: int = setting(8, at_least(1))
    timesteps: int = setting(64, at_least(1))
    feature_dim: int = setting(16, at_least(1))
    annotators: int = setting(3, at_least(1))
    segments: int = setting(6, at_least(1))
    feature_noise: float = setting(0.05, NON_NEGATIVE)
    annotator_noise: float = setting(0.05, NON_NEGATIVE)
    mode: str = setting("tvsum", MODE)
    seed: int = setting(0, at_least(0))

    def validate(self):
        check_fields("synthetic", self)
        if self.segments > self.timesteps:
            raise ConfigError("synthetic.segments cannot exceed timesteps")


ANNOTATION_KEY = {"tvsum": "scores", "summe": "summaries"}


def _fail(video_id: str, reason: str):
    raise ValueError(f"video {video_id!r}: {reason}")


# the keys whose lists become float64 arrays, and what a failed conversion raises
_ARRAY_KEYS = ("features", *ANNOTATION_KEY.values())
_NOT_NUMERIC = (TypeError, ValueError, OverflowError)  # OverflowError: an int too big for a float


def _as_float64(value) -> np.ndarray:
    """The one conversion of a JSON list to an array; a no-op on an array it made."""
    return np.asarray(value, dtype=np.float64)


def _convert_arrays(obj: dict) -> dict:
    """`json.load`'s object_hook: turn the array keys' lists into arrays as the
    parser completes each object, so one video's lists are alive at a time.
    A list that fails to convert stays, for `_validate_record` to refuse by
    video and key. The binary payload of ROADMAP item 10b deletes this hook."""
    for key in _ARRAY_KEYS:
        if isinstance(obj.get(key), list):
            try:
                obj[key] = _as_float64(obj[key])
            except _NOT_NUMERIC:
                pass
    return obj


def _float_array(video_id: str, raw: dict, key: str) -> np.ndarray:
    try:
        return _as_float64(raw[key])
    except _NOT_NUMERIC as exc:
        _fail(video_id, f"{key} must be numeric: {exc}")


def _validate_record(raw: dict, mode: str, feature_dim: int | None, index: int) -> VideoRecord:
    vid = raw.get("id", "<missing id>")
    if not isinstance(vid, str) or not vid:
        raise ValueError(f"videos[{index}]: id must be a non-empty string, got {vid!r:.40}")
    required = {"id", "n_frames", "picks", "change_points", "features"}
    missing = required - set(raw)
    if missing:
        _fail(vid, f"missing keys {sorted(missing)}")
    present_kinds = [k for k in ANNOTATION_KEY.values() if k in raw]
    if len(present_kinds) != 1:
        _fail(vid, f"expected exactly one annotation kind, found {present_kinds}")
    if present_kinds[0] != ANNOTATION_KEY[mode]:
        _fail(vid, f"annotation kind {present_kinds[0]!r} does not match mode {mode!r}")
    unknown = set(raw) - required - set(ANNOTATION_KEY.values())
    if unknown:
        _fail(vid, f"unknown keys {sorted(unknown)}")

    if not is_integral(raw["n_frames"]):
        _fail(vid, f"n_frames must be an integer, got {raw['n_frames']!r}")
    if not isinstance(raw["picks"], list) or not all(is_integral(p) for p in raw["picks"]):
        _fail(vid, "picks must be a list of integers")
    pairs = raw["change_points"]
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(is_integral(x) for x in p) for p in pairs
    ):
        _fail(vid, "change_points must be a list of [start, end] integer pairs")
    n_frames = int(raw["n_frames"])
    try:
        # a JSON integral float (2.0) passed is_integral; the constructors take ints only
        picks = PickSequence(tuple(map(int, raw["picks"])))
        cps = ChangePointPartition(tuple((int(s), int(e)) for s, e in pairs), n_frames)
        segment_map = assign_segment_ids(picks, cps)  # a CoverageError is a ValueError
    except ValueError as exc:
        _fail(vid, str(exc))

    features = _float_array(vid, raw, "features")
    if features.ndim != 2 or features.shape[0] != len(picks):
        _fail(vid, f"features shape {features.shape} does not match {len(picks)} picks")
    if feature_dim is not None and features.shape[1] != feature_dim:
        _fail(vid, f"feature dim {features.shape[1]} differs from {feature_dim} seen earlier")
    if not np.all(np.isfinite(features)):
        _fail(vid, "features contain non-finite values")

    annotations = _float_array(vid, raw, ANNOTATION_KEY[mode])
    if annotations.ndim != 2 or annotations.shape[1] != len(picks):
        _fail(vid, f"annotations shape {annotations.shape} does not match T={len(picks)}")
    if annotations.shape[0] < 1:
        _fail(vid, "need at least one annotator")
    if mode == "tvsum":
        if not np.all((annotations >= 0) & (annotations <= 1)):  # NaN fails too
            _fail(vid, "tvsum scores must lie in [0, 1]")
    else:
        if not np.all(np.isin(annotations, (0.0, 1.0))):
            _fail(vid, "summe summaries must be binary")
    return VideoRecord(video_id=vid, features=features, segment_map=segment_map, annotations=annotations)


def load_dataset(path) -> Dataset:
    """Parse and fully validate a dataset file.

    The whole text is read at once, but each video's `features` and
    annotation lists become arrays as the parser completes that video, so a
    load holds the text, the arrays so far and at most one video's lists."""
    raw = read_json(path, "dataset", ValueError, _convert_arrays)
    if not isinstance(raw, dict) or "mode" not in raw or "videos" not in raw:
        raise ValueError("dataset must be an object with 'mode' and 'videos'")
    unknown = set(raw) - {"mode", "videos"}
    if unknown:
        raise ValueError(f"dataset has unknown keys {sorted(unknown)}")
    mode = raw["mode"]
    if mode not in MODES:
        raise ValueError(f"dataset mode must be one of {MODES}, got {mode!r}")
    if not isinstance(raw["videos"], list):
        raise ValueError(f"dataset 'videos' must be a list, got {type(raw['videos']).__name__}")
    if not raw["videos"]:
        raise ValueError("dataset contains no videos")
    videos, feature_dim = [], None
    for index, entry in enumerate(raw["videos"]):
        if not isinstance(entry, dict):
            raise ValueError(f"videos[{index}] must be an object, got {type(entry).__name__}")
        record = _validate_record(entry, mode, feature_dim, index)
        feature_dim = record.features.shape[1]
        videos.append(record)
    ids = [v.video_id for v in videos]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate video ids in dataset")
    return Dataset(mode=mode, videos=videos)


def dataset_to_dict(dataset: Dataset) -> dict:
    key = ANNOTATION_KEY[dataset.mode]
    labels = np.int64 if dataset.mode == "summe" else np.float64
    videos = [
        {
            "id": v.video_id,
            "n_frames": v.n_frames,
            "picks": list(v.picks.picks),
            "change_points": [[s, e] for s, e in v.change_points.segments],
            "features": v.features.tolist(),
            key: v.annotations.astype(labels).tolist(),
        }
        for v in dataset.videos
    ]
    return {"mode": dataset.mode, "videos": videos}


def save_dataset(dataset: Dataset, path) -> None:
    """Serialize to JSON, written atomically via a temp file in the same dir."""
    atomic_write(path, json.dumps(dataset_to_dict(dataset), indent=1).encode("utf-8"))


def generate_synthetic(cfg: SyntheticConfig) -> Dataset:
    """Seeded synthetic corpus with linearly recoverable importance.

    Picks sit on every second frame of an original timeline of 2T frames.
    Segment boundaries are cut at pick positions so every segment contains at
    least one pick. Features are a fixed linear embedding of (latent segment
    importance, segment one-hot) plus Gaussian noise.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    embed = rng.uniform(-1.0, 1.0, (1 + cfg.segments, cfg.feature_dim))
    videos = []
    for v in range(cfg.n_videos):
        t_len = cfg.timesteps
        n_frames = 2 * t_len
        picks = PickSequence(tuple(2 * t for t in range(t_len)))
        if cfg.segments > 1:
            cuts = np.sort(rng.choice(np.arange(1, t_len), size=cfg.segments - 1, replace=False))
        else:
            cuts = np.array([], dtype=int)
        starts = [0] + [int(picks.picks[c]) for c in cuts]
        segments = [
            (starts[k], (starts[k + 1] - 1) if k + 1 < len(starts) else n_frames - 1)
            for k in range(len(starts))
        ]
        cps = ChangePointPartition(tuple(segments), n_frames)
        seg = assign_segment_ids(picks, cps)
        latent = rng.uniform(0.0, 1.0, cfg.segments)
        importance = latent[list(seg.segment_ids)]
        onehot = np.zeros((t_len, cfg.segments))
        onehot[np.arange(t_len), list(seg.segment_ids)] = 1.0
        clean = np.concatenate([importance[:, None], onehot], axis=1) @ embed
        features = clean + cfg.feature_noise * rng.standard_normal((t_len, cfg.feature_dim))
        if cfg.mode == "tvsum":
            noise = cfg.annotator_noise * rng.standard_normal((cfg.annotators, t_len))
            annotations = np.clip(importance[None, :] + noise, 0.0, 1.0)
        else:
            thresholds = rng.uniform(0.3, 0.7, cfg.annotators)
            noise = cfg.annotator_noise * rng.standard_normal((cfg.annotators, t_len))
            annotations = (importance[None, :] + noise >= thresholds[:, None]).astype(np.float64)
        videos.append(VideoRecord(f"v{v:03d}", features, seg, annotations))
    return Dataset(mode=cfg.mode, videos=videos)


def make_folds(dataset: Dataset, k: int = 5, seed: int = 0) -> list[tuple[list[str], list[str]]]:
    """Seeded shuffle then contiguous chunking into k near-equal test sets.

    Earlier folds absorb the remainder, so sizes differ by at most one. Every
    video lands in exactly one test set.
    """
    n = len(dataset.videos)
    if k < 2:
        raise ValueError("need at least 2 folds (k=1 leaves no train set)")
    if n < k:
        raise ValueError(f"cannot make {k} folds from {n} videos")
    ids = [v.video_id for v in dataset.videos]
    order = [ids[i] for i in np.random.default_rng(seed).permutation(n)]
    base, extra = divmod(n, k)
    folds, start = [], 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        test = order[start : start + size]
        start += size
        train = [vid for vid in order if vid not in test]
        folds.append((train, test))
    return folds
