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
    starts = [s for s, _ in cps.segments]
    ends = [e for _, e in cps.segments]
    ids = []
    for t, p in enumerate(picks.picks):
        k = int(np.searchsorted(starts, p, side="right")) - 1
        if k < 0 or p > ends[k]:
            raise CoverageError(f"pick {p} (timestep {t}) lies outside every segment")
        ids.append(k)
    index_sets: list[list[int]] = [[] for _ in range(cps.n_segments)]
    for t, k in enumerate(ids):
        index_sets[k].append(t)
    return SegmentIndexMap(
        segment_ids=tuple(ids),
        index_sets=tuple(tuple(s) for s in index_sets),
        lengths=tuple(cps.lengths()),
    )


def expand_scores(scores, picks: PickSequence, n_frames: int) -> np.ndarray:
    """Expand sampled scores to the original timeline, piecewise constant.

    Frame n takes the score of the last pick at or before it; frames before
    the first pick are backfilled with the first score.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a non-empty 1-D sequence")
    if scores.size != len(picks):
        raise ValueError(f"got {scores.size} scores for {len(picks)} picks")
    idx = np.searchsorted(picks.picks, np.arange(n_frames), side="right") - 1
    return scores[np.maximum(idx, 0)]
