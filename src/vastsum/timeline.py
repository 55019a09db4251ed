"""Mapping between the sampled timeline (T picks) and the original timeline (N frames).

A change-point partition splits the original timeline into contiguous segments
with inclusive bounds. Picks locate each sampled timestep on the original
timeline. Everything here is a pure function; segment indices are 0-based
throughout the code and in file formats (docs elsewhere may count from 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError


@dataclass(frozen=True)
class ChangePointPartition:
    """Ordered (start, end) frame pairs, inclusive, covering [0, n_frames-1]."""

    segments: tuple[tuple[int, int], ...]
    n_frames: int

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple((int(s), int(e)) for s, e in self.segments))
        if not self.segments:
            raise ValueError("partition needs at least one segment")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if self.segments[0][0] != 0:
            raise ValueError("first segment must start at frame 0")
        if self.segments[-1][1] != self.n_frames - 1:
            raise ValueError(
                f"last segment ends at {self.segments[-1][1]}, expected {self.n_frames - 1}"
            )
        prev_end = -1
        for k, (start, end) in enumerate(self.segments):
            if start != prev_end + 1:
                raise ValueError(f"segment {k} starts at {start}, expected {prev_end + 1}")
            if end < start:
                raise ValueError(f"segment {k} has end {end} < start {start}")
            prev_end = end

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def lengths(self) -> list[int]:
        return [end - start + 1 for start, end in self.segments]


@dataclass(frozen=True)
class PickSequence:
    """Strictly increasing frame indices of the sampled timesteps."""

    picks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "picks", tuple(int(p) for p in self.picks))
        if not self.picks:
            raise ValueError("pick sequence must be non-empty")
        if self.picks[0] < 0:
            raise ValueError("picks must be >= 0")
        for a, b in zip(self.picks, self.picks[1:]):
            if b <= a:
                raise ValueError(f"picks must be strictly increasing, got {a} then {b}")

    def __len__(self) -> int:
        return len(self.picks)


@dataclass(frozen=True)
class SegmentIndexMap:
    """Per-timestep segment ids plus the induced per-segment index structure.

    segment_ids[t] is the (0-based) segment containing pick t. index_sets[k]
    lists the sampled timesteps inside segment k (possibly empty), and
    lengths[k] is the segment length in original frames.
    """

    segment_ids: tuple[int, ...]
    index_sets: tuple[tuple[int, ...], ...]
    lengths: tuple[int, ...]

    @property
    def n_segments(self) -> int:
        return len(self.index_sets)


def assign_segment_ids(picks: PickSequence, cps: ChangePointPartition) -> SegmentIndexMap:
    """Assign each pick to the segment whose inclusive bounds contain it."""
    starts = np.array([s for s, _ in cps.segments])
    ends = np.array([e for _, e in cps.segments])
    points = np.array(picks.picks)
    ids = np.searchsorted(starts, points, side="right") - 1
    outside = (ids < 0) | (points > ends[ids])
    if outside.any():
        t = int(np.argmax(outside))
        raise CoverageError(f"pick {picks.picks[t]} (timestep {t}) lies outside every segment")
    # picks increase, so ids do too and each segment's timesteps are one run
    bounds = np.searchsorted(ids, np.arange(cps.n_segments + 1)).tolist()
    return SegmentIndexMap(
        segment_ids=tuple(ids.tolist()),
        index_sets=tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])),
        lengths=tuple(cps.lengths()),
    )


def _frame_picks(picks: PickSequence, n_frames: int) -> np.ndarray:
    """The pick whose score each frame takes: the last pick at or before it,
    and the first pick for frames before it."""
    return np.maximum(np.searchsorted(picks.picks, np.arange(n_frames), side="right") - 1, 0)


def frame_weights(picks: PickSequence, cps: ChangePointPartition) -> np.ndarray:
    """The [M, T] matrix that pools pick scores into segment values as the
    decoder does: row k holds, for each pick, the number of segment k's
    frames that take its score under `expand_scores`, divided once by the
    segment's length. So `frame_weights(picks, cps) @ s` is the mean of
    `expand_scores(s, picks, cps.n_frames)` over each segment, up to rounding.
    """
    lengths = np.array(cps.lengths())
    owner = np.repeat(np.arange(cps.n_segments), lengths)
    cells = owner * len(picks) + _frame_picks(picks, cps.n_frames)
    counts = np.bincount(cells, minlength=cps.n_segments * len(picks))
    return counts.reshape(cps.n_segments, len(picks)) / lengths[:, None]


def expand_scores(scores, picks: PickSequence, n_frames: int) -> np.ndarray:
    """Expand sampled scores to the original timeline, piecewise constant.

    Frame n takes the score of the last pick at or before it; frames before
    the first pick are backfilled with the first score. scores is [T] or
    [K, T]; each row is expanded with the same frame-to-pick index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim not in (1, 2) or scores.size == 0:
        raise ValueError("scores must be a non-empty 1-D or 2-D sequence")
    if scores.shape[-1] != len(picks):
        raise ValueError(f"got {scores.shape[-1]} scores for {len(picks)} picks")
    return scores[..., _frame_picks(picks, n_frames)]
