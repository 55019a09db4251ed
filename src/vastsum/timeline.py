"""Mapping between the sampled timeline (T picks) and the original timeline (N frames).

A change-point partition splits the original timeline into contiguous segments
with inclusive bounds. Picks locate each sampled timestep on the original
timeline. Everything here is a pure function; segment indices are 0-based
throughout the code and in file formats (docs elsewhere may count from 1).
"""

from __future__ import annotations

import bisect
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


class SegmentIndexMap:
    """One video's timeline, built from its picks and partition:
    segment_ids[t] is the (0-based) segment holding pick t (a pick outside
    every segment raises CoverageError) and lengths[k] segment k's length in
    frames. Its two poolings are each built on first use and kept:
    `token_pool` for the scorer, and the call for the decoder and `L_stab`.

    Called on [T] or [K, T] scores, the map gives the [M] or [K, M] means of
    each segment's frame scores, frame n taking the score of the last pick at
    or before it (the first pick's if none is), each the 1-D `.mean()` bit for
    bit: `np.add.reduce` gives 0.0 + the pairwise sum of a run, and `reduceat`
    the run's first element + the pairwise sum of the rest, so `source`, one
    [N + M] index into the scores plus a 0.0 column, starts each segment's
    run with the 0.0. `adjoint` gives each run's positions g_k / len_k and
    sums them per pick with one `np.bincount` over `source`, the heads'
    shares falling in the dropped 0.0 column.
    """

    def __init__(self, picks: PickSequence, cps: ChangePointPartition):
        # the segments tile [0, n_frames - 1] and picks are >= 0 and increasing,
        # so the picks outside every segment are those from n_frames on
        if picks.picks[-1] >= cps.n_frames:
            t = bisect.bisect_left(picks.picks, cps.n_frames)
            raise CoverageError(f"pick {picks.picks[t]} (timestep {t}) lies outside every segment")
        self.picks, self.cps = picks, cps
        self._starts, self._points = np.array([s for s, _ in cps.segments]), np.array(picks.picks)
        self.segment_ids = tuple((self._starts.searchsorted(self._points, side="right") - 1).tolist())
        self.lengths = tuple(cps.lengths())

    @property
    def n_segments(self) -> int:
        return len(self.lengths)

    @cached_property
    def token_pool(self) -> np.ndarray:
        """The [M, T] matrix whose row k averages the picks of segment k; a
        segment with no pick gets a zero row. Built once per map and kept,
        read-only, in the instance dict."""
        m, t = self.n_segments, len(self.segment_ids)
        counts = np.bincount(np.asarray(self.segment_ids) * t + np.arange(t), minlength=m * t).reshape(m, t)
        pool = counts / np.maximum(counts.sum(axis=1), 1)[:, None]
        pool.flags.writeable = False
        return pool

    @cached_property
    def pooling(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`(source, heads, lengths)`, the arrays the call and `adjoint` read."""
        cps, n_picks = self.cps, len(self.picks)
        lengths = np.array(self.lengths)
        heads = self._starts + np.arange(cps.n_segments)
        source = np.full(cps.n_frames + cps.n_segments, n_picks)
        frames = np.ones(source.shape, dtype=bool)
        frames[heads] = False
        frame_picks = self._points.searchsorted(np.arange(cps.n_frames), side="right") - 1
        source[frames] = np.maximum(frame_picks, 0)
        return source, heads, lengths

    def __call__(self, scores) -> np.ndarray:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim not in (1, 2) or scores.size == 0:
            raise ValueError("scores must be a non-empty 1-D or 2-D sequence")
        if scores.shape[-1] != len(self.picks):
            raise ValueError(f"got {scores.shape[-1]} scores for {len(self.picks)} picks")
        source, heads, lengths = self.pooling
        padded = np.concatenate((scores, np.zeros(scores.shape[:-1] + (1,))), -1)[..., source]
        return np.add.reduceat(padded, heads, axis=-1) / lengths

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        """The [T] gradient of the picks for an [M] gradient of the means."""
        source, _, lengths = self.pooling
        t = len(self.picks)
        return np.bincount(source, (g / lengths).repeat(lengths + 1), t + 1)[:t]


def assign_segment_ids(picks: PickSequence, cps: ChangePointPartition) -> SegmentIndexMap:
    """Assign each pick to the segment whose inclusive bounds contain it."""
    return SegmentIndexMap(picks, cps)

