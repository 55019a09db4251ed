"""Mapping between the sampled timeline (T picks) and the original timeline (N frames).

A change-point partition splits the original timeline into contiguous segments
with inclusive bounds. Picks locate each sampled timestep on the original
timeline. Everything here is a pure function; segment indices are 0-based
throughout the code and in file formats (docs elsewhere may count from 1).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CoverageError


def _integer(name: str, x) -> int:
    """x as a Python int; a float is refused, never truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None


def _integers(name: str, xs) -> tuple[int, ...]:
    """xs as a tuple of Python ints in one pass, walked only to name the first non-integer."""
    try:
        return tuple(map(operator.index, xs))
    except TypeError:
        for k, x in enumerate(xs):
            _integer(f"{name}[{k}]", x)
        raise


@dataclass(frozen=True)
class ChangePointPartition:
    """Ordered (start, end) frame pairs, inclusive, covering [0, n_frames-1]."""

    segments: tuple[tuple[int, int], ...]
    n_frames: int

    def __post_init__(self):
        try:
            segments = tuple((operator.index(s), operator.index(e)) for s, e in self.segments)
        except TypeError:  # walk the pairs to name the first bound that is not an integer
            segments = tuple(_integers(f"segments[{k}]", pair) for k, pair in enumerate(self.segments))
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "n_frames", _integer("n_frames", self.n_frames))
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
        object.__setattr__(self, "picks", _integers("picks", self.picks))
        if not self.picks:
            raise ValueError("pick sequence must be non-empty")
        if self.picks[0] < 0:
            raise ValueError("picks must be >= 0")
        for a, b in zip(self.picks, self.picks[1:]):
            if b <= a:
                raise ValueError(f"picks must be strictly increasing, got {a} then {b}")

    def __len__(self) -> int:
        return len(self.picks)


def _count_pool(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The [M, T] integer count of each (row, col) pair."""
    m, t = shape
    return np.bincount(rows * t + cols, minlength=m * t).reshape(m, t)


@dataclass(frozen=True)
class SegmentIndexMap:
    """Per-timestep segment ids plus the per-segment lengths.

    segment_ids[t] is the (0-based) segment containing pick t, and
    lengths[k] is the length of segment k in original frames.
    """

    segment_ids: tuple[int, ...]
    lengths: tuple[int, ...]

    @property
    def n_segments(self) -> int:
        return len(self.lengths)

    @cached_property
    def token_pool(self) -> np.ndarray:
        """The [M, T] matrix whose row k averages the picks of segment k; a
        segment with no pick gets a zero row. Built once per map and kept,
        read-only, in the instance dict, outside equality and the hash."""
        counts = _count_pool(np.asarray(self.segment_ids), np.arange(len(self.segment_ids)),
                             (self.n_segments, len(self.segment_ids)))
        pool = counts / np.maximum(counts.sum(axis=1), 1)[:, None]
        pool.flags.writeable = False
        return pool


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
    return SegmentIndexMap(segment_ids=tuple(ids.tolist()), lengths=tuple(cps.lengths()))


def _frame_picks(picks: PickSequence, n_frames: int) -> np.ndarray:
    """The pick whose score each frame takes: the last pick at or before it,
    and the first pick for frames before it."""
    return np.maximum(np.asarray(picks.picks).searchsorted(np.arange(n_frames), side="right") - 1, 0)


def frame_weights(picks: PickSequence, cps: ChangePointPartition) -> np.ndarray:
    """The [M, T] matrix that pools pick scores into segment values as the
    decoder does: row k holds, for each pick, the number of segment k's
    frames that take its score (`_frame_picks`), divided once by the
    segment's length. So `frame_weights(picks, cps) @ s` is
    `segment_values(s, picks, cps)`, up to rounding.
    """
    lengths = np.array(cps.lengths())
    owner = np.arange(cps.n_segments).repeat(lengths)
    counts = _count_pool(owner, _frame_picks(picks, cps.n_frames), (cps.n_segments, len(picks)))
    return counts / lengths[:, None]


def segment_values(scores, picks: PickSequence, cps: ChangePointPartition) -> np.ndarray:
    """The mean score of each segment's frames, frame n taking the score of
    its pick (`_frame_picks`): the decoder's knapsack values. scores is [T]
    or [K, T]; values is [M] or [K, M].

    Each mean is the 1-D `.mean()` of the segment's frame scores, bit for
    bit. `np.add.reduce` gives 0.0 + the pairwise sum of a run, and `reduceat`
    the run's first element + the pairwise sum of the rest, so each segment's
    run in the padded rows starts with a 0.0: one [N + M] index gathers them
    from the scores plus a 0.0 column, a segment head taking the 0.0 and
    every other position its frame's pick. (`mean(axis=1)` over a 2-D block
    sums in another order.)
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim not in (1, 2) or scores.size == 0:
        raise ValueError("scores must be a non-empty 1-D or 2-D sequence")
    if scores.shape[-1] != len(picks):
        raise ValueError(f"got {scores.shape[-1]} scores for {len(picks)} picks")
    heads = np.array([s for s, _ in cps.segments]) + np.arange(cps.n_segments)
    source = np.full(cps.n_frames + cps.n_segments, len(picks))
    frames = np.ones(source.shape, dtype=bool)
    frames[heads] = False
    source[frames] = _frame_picks(picks, cps.n_frames)
    padded = np.concatenate((scores, np.zeros(scores.shape[:-1] + (1,))), -1)[..., source]
    return np.add.reduceat(padded, heads, axis=-1) / cps.lengths()
