"""Rank-correlation metrics and the two dataset evaluation protocols.

`evaluate` is the one entry point: it scores each video's prediction against
its protocol targets by Kendall's tau-b and by Spearman's rho (the Pearson
correlation of tie-averaged ranks). A [T] prediction meets every target row,
a [K, T] one its rows pairwise, all in one call; non-finite input raises
ValueError. A constant row makes both undefined and is left out of its
video's means; a video with no row left is flagged degenerate and excluded
from the reported means. Every reduction is exact before its one rounding,
so no result depends on summation order: rank statistics are integer sums,
and means over rows and videos go through math.fsum.

One call ranks all its videos together. It checks every video first, in list
order, so an input error names the first bad video. The videos are then
grouped by their length T, and each group is cut, in list order, into chunks
of at most `_CHUNK_CELLS` pair-row cells (row pairs x T), never splitting a
video, so peak memory does not grow with the number of videos. A chunk
stacks its videos' prediction rows and target rows, all of one length, so no
row is padded and every row ranks as it would alone; a [T] prediction is
ranked once and indexed for each target row it meets. Each statistic is built
from exact integer counts of its own row pair put through one float formula,
so no result depends on how the videos are grouped.

Each side is ranked by one argsort (`_ranks`), and both statistics read that
one ranking. The sort is numpy's default unstable one: every rank it yields
is a function of a run of equal values (the run's start, its end, its
length), never of the order inside the run, so any order of tied entries
gives the same ranks bit for bit and stability buys nothing.

Tau counts pairs in O(T log T) time and O(T) memory per row, after Knight
("A Computer Method for Calculating Kendall's Tau with Ungrouped Data", JASA
1966). Tied pairs in a, in b and jointly in (a, b) come from the run starts of
the sorted rows. Sorting by (a, b) leaves b ascending within each tie of a, so
the discordant pairs D are exactly the inversions of b in that order, which a
bottom-up merge sort counts (`_inversions`). Its blocks are powers of two, so
a block's index and an element's half are bit operations on its position
rather than int64 divisions. Then C - D = n0 - ties_a - ties_b + ties_ab - 2D.
All of these are exact integers that feed the tau-b formula unchanged, so
each tau equals the pairwise count's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import write_csv
# decode_summary is not called here; perfbench's tracer and tests reach it as
# evaluation.decode_summary, so the name stays bound.
from .decoder import decode_summary, select_segments  # noqa: F401
from .timeline import ChangePointPartition, PickSequence, SegmentIndexMap


# Rows must be shorter than this: rho's int64 rank sums are exact
# only while T**3 < 2**63.
_MAX_T = 1 << 21

# A chunk of one length group holds at most this many pair-row cells (row
# pairs x T), unless one video alone holds more.
_CHUNK_CELLS = 1 << 16


def _pair(name: str, a, b) -> tuple[np.ndarray, np.ndarray]:
    """`a` as a float64 [T] or [K, T] array and `b` as float64 [K, T] rows,
    of one length 2 <= T < `_MAX_T` (a [T] `a` is paired with every row of
    `b`); both finite."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (
        a.ndim in (1, 2) and b.ndim == 2 and a.shape[-1] == b.shape[1] >= 2
        and (a.ndim == 1 or a.shape[0] == b.shape[0])
    ):
        raise ValueError(f"{name} needs [T] or [K, T] inputs of one length T >= 2")
    if a.shape[-1] >= _MAX_T:
        raise ValueError(
            f"{name} needs T < 2**21 = {_MAX_T} (exact int64 rank sums), got T={a.shape[-1]}"
        )
    if not (np.logical_and.reduce(np.isfinite(a), None)
            and np.logical_and.reduce(np.isfinite(b), None)):
        raise ValueError(f"{name} needs finite inputs")
    return a, b


def _run_starts(xs: np.ndarray) -> np.ndarray:
    """For each position of the sorted [K, T] rows `xs`, the position where
    its run of equal values starts."""
    pos = np.zeros(xs.shape, dtype=np.int64)
    np.multiply(xs[:, 1:] != xs[:, :-1], np.arange(1, xs.shape[1]), out=pos[:, 1:])
    return np.maximum.accumulate(pos, axis=1)


def _ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """From one argsort of each row of `x`: the 0-based min ranks (ties share
    the lowest rank of their run), the centered average ranks 2r - (n + 1)
    (twice each average rank's deviation from the mean rank, an exact int64
    in [-(n - 1), n - 1]) and the number of tied pairs in each row."""
    rows = x.reshape(-1, x.shape[-1])
    n = rows.shape[1]
    order = np.argsort(rows, axis=1)
    index = np.arange(len(rows))[:, None]
    xs = rows[index, order]
    starts = _run_starts(xs)
    # a run's last position, found as its start in the reversed rows
    ends = n - _run_starts(xs[:, ::-1])[:, ::-1]
    min_ranks, centered = np.empty_like(order), np.empty_like(order)
    min_ranks[index, order] = starts
    # a run at sorted positions [start, end) holds ranks start+1 .. end
    centered[index, order] = starts + ends - n
    ties = _tied_pairs(starts).reshape(x.shape[:-1])
    return min_ranks.reshape(x.shape), centered.reshape(x.shape), ties


def _tied_pairs(starts: np.ndarray) -> np.ndarray:
    # a run of length L adds 0 + 1 + ... + (L - 1) = L(L - 1)/2
    return np.add.reduce(np.arange(starts.shape[1]) - starts, 1)


def _inversions(seq: np.ndarray, bound: int) -> np.ndarray:
    """Per row of `seq` ([K, T] integers in [0, bound)), the number of pairs
    i < j with seq[i] > seq[j].

    A bottom-up merge sort over all rows at once. At width w each block of 2w
    holds two sorted halves; adding (bound + 1) x the block's index to the
    keys lets one stable argsort per row merge all of the row's blocks (row
    by row, a sort's cost per element does not grow with the rows). A
    right-half element then moves left by the number of left-half elements
    greater than it, so the sum of those moves is the block's cross
    inversions. Rows are padded to a power of two with `bound`, which adds
    no inversion.

    With w = 2**(shift - 1), a block's index is pos >> shift, and
    `order & w` is w for a right-half element and 0 for a left-half one, so
    the weighted moves sum to w times the cross inversions; the shift back
    is exact (the sum stays below 2**61 while T < `_MAX_T`)."""
    k, t = seq.shape
    width = 1 << (t - 1).bit_length()
    vals = np.full((k, width), bound, dtype=np.int64)
    vals[:, :t] = seq
    pos = np.arange(width)
    row_starts = np.arange(0, k * width, width)[:, None]
    counts = np.zeros(k, dtype=np.int64)
    shift = 1
    while 1 << shift <= width:
        w = 1 << (shift - 1)
        order = (vals + (pos >> shift) * (bound + 1)).argsort(axis=1, kind="stable")
        counts += np.add.reduce((order & w) * (order - pos), 1) >> (shift - 1)
        vals = vals.reshape(-1)[order + row_starts]
        shift += 1
    return counts


def _tau(ra, ties_a, rb, ties_b) -> np.ndarray:
    """Tau-b of each row pair from each side's [R, T] min ranks and tied-pair
    counts; NaN where either side is constant.

    Each count is an exact int64 below 2**53, so its float64 is exact, and
    the product, square root and division each round once, as the formula
    on Python integers does."""
    n = ra.shape[1]
    # sorting (a, b) rank keys leaves b's ranks in (a, b) order: b ascends
    # within each tie of a, so its inversions are exactly the discordant pairs
    keys = ra * n + rb
    keys.sort(axis=1)
    ties_ab = _tied_pairs(_run_starts(keys))
    discordant = _inversions(keys % n, n)
    n0 = n * (n - 1) // 2
    untied_a, untied_b = n0 - ties_a, n0 - ties_b
    den = np.sqrt(untied_a * untied_b.astype(np.float64))
    # concordant - discordant = n0 - ties_a - ties_b + ties_ab - 2 * discordant
    return np.divide(untied_a - ties_b + ties_ab - 2 * discordant, den,
                     out=np.full(len(keys), np.nan), where=den > 0)


def _rho(ca, cb) -> np.ndarray:
    """Spearman's rho per row from each side's centered ranks; NaN where
    either side is constant.

    Rho is the Pearson correlation of the ranks. With centered ranks ca and
    cb, the rank deviations' products sum to sum(ca * cb) / 4 and their
    squares to sum(ca * ca) / 4 and sum(cb * cb) / 4. Those int64 sums are
    exact while n^3 < 2^63 (`_pair` refuses longer rows), and rounding one
    to float and dividing by 4 gives the correctly rounded sum of the
    deviations' products, as `math.fsum` would."""
    cov = np.add.reduce(ca * cb, -1) / 4.0
    var_a = np.add.reduce(ca * ca, -1) / 4.0
    var_b = np.add.reduce(cb * cb, -1) / 4.0
    # a constant row has all-zero centered ranks and no variance
    den = np.sqrt(var_a * var_b)
    return np.divide(cov, den, out=np.full(cov.shape, np.nan), where=den > 0)


@dataclass
class VideoCorrelation:
    video_id: str
    tau: float
    rho: float
    degenerate: bool


@dataclass
class CorrelationReport:
    per_video: list[VideoCorrelation]
    mean_tau: float
    mean_rho: float
    degenerate_count: int


def _finish_report(rows: list[VideoCorrelation]) -> CorrelationReport:
    valid = [r for r in rows if not r.degenerate]
    mean_tau = math.fsum(r.tau for r in valid) / len(valid) if valid else float("nan")
    mean_rho = math.fsum(r.rho for r in valid) / len(valid) if valid else float("nan")
    return CorrelationReport(
        per_video=rows,
        mean_tau=mean_tau,
        mean_rho=mean_rho,
        degenerate_count=len(rows) - len(valid),
    )


def protocol_targets(protocol: str, annotations) -> np.ndarray:
    """The rows a protocol correlates each prediction with: every annotator
    row for tvsum, the elementwise mean user summary for summe."""
    annotations = np.asarray(annotations, dtype=np.float64)
    if protocol == "tvsum":
        return annotations
    if protocol == "summe":
        return np.add.reduce(annotations, 0, keepdims=True) / len(annotations)
    raise ValueError(f"unknown protocol {protocol!r}")


def _chunks(videos):
    """The index lists of the (predictions, targets) `videos` that are ranked
    together: grouped by length, in list order, and cut before a chunk would
    pass `_CHUNK_CELLS` pair-row cells, never inside a video."""
    groups: dict[int, list[int]] = {}
    for i, (_, targets) in enumerate(videos):
        groups.setdefault(targets.shape[1], []).append(i)
    for members in groups.values():
        chunk, cells = [], 0
        for i in members:
            if chunk and cells + videos[i][1].size > _CHUNK_CELLS:
                yield chunk
                chunk, cells = [], 0
            chunk.append(i)
            cells += videos[i][1].size
        yield chunk


def _chunk_rows(preds, targets) -> tuple[list[float], list[float]]:
    """Tau and rho of every row pair of one chunk's videos, video by video:
    their [T] or [K, T] `preds` against their [K, T] `targets`, all of one
    length T. Each side is ranked once, and both statistics read those
    ranks."""
    # a [T] prediction's one row is read by each of its video's target rows
    reads = []
    for pred, target in zip(preds, targets):
        reads += [1] * len(pred) if pred.ndim == 2 else [len(target)]
    rows = np.concatenate([pred.reshape(-1, pred.shape[-1]) for pred in preds])
    ra, ca, ties_a = (side.repeat(reads, axis=0) for side in _ranks(rows))
    rb, cb, ties_b = _ranks(np.concatenate(targets))
    # a constant row on either side makes both statistics NaN
    return _tau(ra, ties_a, rb, ties_b).tolist(), _rho(ca, cb).tolist()


def _video_row(video_id: str, taus: list[float], rhos: list[float]) -> VideoCorrelation:
    """Mean tau and rho over a video's row pairs where neither side is
    constant; degenerate when no pair is left."""
    kept = [(tau, rho) for tau, rho in zip(taus, rhos) if not math.isnan(tau)]
    if not kept:
        return VideoCorrelation(video_id, float("nan"), float("nan"), True)
    taus, rhos = zip(*kept)
    return VideoCorrelation(video_id, math.fsum(taus) / len(taus), math.fsum(rhos) / len(rhos), False)


def _per_video(video_ids, **columns) -> zip:
    """The video ids zipped with one entry of each column per video; lists of
    different lengths are refused rather than truncated."""
    lengths = [len(video_ids)] + [len(column) for column in columns.values()]
    if len(set(lengths)) > 1:
        counts = ", ".join(f"{n} {name}" for n, name in zip(lengths, ["video ids", *columns]))
        raise ValueError(f"one entry per video needed, got {counts}")
    return zip(video_ids, *columns.values())


def evaluate(protocol: str, video_ids, predictions, annotations) -> CorrelationReport:
    """Correlate each prediction with its protocol targets, average per video,
    then across videos. Each video's annotations are [U, T], one row per
    annotator. Constant predictions or all-constant targets are flagged
    degenerate. Every video is checked before any is ranked, and then all
    are ranked together (see the module docstring)."""
    ids, videos = [], []
    for vid, pred, ann in _per_video(video_ids, predictions=predictions, annotations=annotations):
        ann = np.asarray(ann, dtype=np.float64)
        if ann.ndim != 2:
            raise ValueError(f"video {vid!r}: evaluate needs [U, T] annotations, got shape {ann.shape}")
        pred, targets = _pair(f"video {vid!r}: evaluate", pred, protocol_targets(protocol, ann))
        ids.append(vid)
        videos.append((pred, targets))
    rows = [None] * len(videos)
    for chunk in _chunks(videos):
        taus, rhos = _chunk_rows(*zip(*(videos[i] for i in chunk)))
        start = 0
        for i in chunk:
            end = start + len(videos[i][1])
            rows[i] = _video_row(ids[i], taus[start:end], rhos[start:end])
            start = end
    return _finish_report(rows)


def evaluate_tvsum(video_ids, predictions, annotations) -> CorrelationReport:
    """tvsum protocol: every annotator row is a target."""
    return evaluate("tvsum", video_ids, predictions, annotations)


def flip_rate(
    scores,
    picks: PickSequence,
    cps: ChangePointPartition,
    rho: float,
    sigma: float,
    trials: int,
    seed: int,
) -> float:
    """Fraction of Gaussian-perturbed decodes whose selected segments differ
    from the unperturbed decode.

    Row 0 is the unperturbed decode and rows 1.. the trials; all rows are
    decoded by one `select_segments` call on one map, with the same selections
    as one `decode_summary` per row.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    noise = np.random.default_rng(seed).normal(0.0, sigma, (trials,) + scores.shape)
    rows = np.concatenate((scores[None], scores + noise))  # np.vstack's call
    selection = select_segments(rows, SegmentIndexMap(picks, cps), rho)
    return int(np.count_nonzero(np.logical_or.reduce(selection[1:] != selection[0], 1))) / trials


def write_report_csv(report: CorrelationReport, path) -> None:
    """One row per video plus a footer with the means and degenerate count."""
    rows = [[row.video_id, repr(row.tau), repr(row.rho), str(row.degenerate).lower()]
            for row in report.per_video]
    rows.append(["mean", repr(report.mean_tau), repr(report.mean_rho), report.degenerate_count])
    write_csv(path, ["video_id", "tau", "rho", "degenerate"], rows)
