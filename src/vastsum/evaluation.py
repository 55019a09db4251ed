"""Rank-correlation metrics and the two dataset evaluation protocols.

Kendall's tau uses the tau-b tie correction; Spearman's rho is the Pearson
correlation of tie-averaged ranks. Constant vectors make both undefined: the
functions return NaN and the protocols flag the video as degenerate and
exclude it from the reported means. Reductions go through math.fsum, which is
exactly rounded and therefore order-independent.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write
# decode_summary is not called here; perfbench's tracer and tests reach it as
# evaluation.decode_summary, so the name stays bound.
from .decoder import decode_summary, select_segments  # noqa: F401
from .timeline import ChangePointPartition, PickSequence


def _is_constant(x: np.ndarray) -> bool:
    return bool(np.all(x == x[0]))


def kendall_tau(a, b) -> float:
    """Kendall's tau-b; NaN when either vector is constant."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.size
    if n < 2 or b.size != n:
        raise ValueError("kendall_tau needs two vectors of equal length >= 2")
    if _is_constant(a) or _is_constant(b):
        return float("nan")
    iu = np.triu_indices(n, 1)
    sa = np.sign(a[:, None] - a[None, :])[iu]
    sb = np.sign(b[:, None] - b[None, :])[iu]
    prod = sa * sb
    concordant = int(np.count_nonzero(prod > 0))
    discordant = int(np.count_nonzero(prod < 0))
    n0 = n * (n - 1) // 2
    ties_a = int(np.count_nonzero(sa == 0))
    ties_b = int(np.count_nonzero(sb == 0))
    return (concordant - discordant) / math.sqrt(float((n0 - ties_a) * (n0 - ties_b)))


def average_ranks(x) -> np.ndarray:
    """1-based ranks with ties sharing the mean rank of their run."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size, dtype=np.float64)
    # a run at sorted positions [start, end) holds ranks start+1 .. end
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    n = a.size
    am = math.fsum(a) / n
    bm = math.fsum(b) / n
    da = a - am
    db = b - bm
    cov = math.fsum(da * db)
    var_a = math.fsum(da * da)
    var_b = math.fsum(db * db)
    return cov / math.sqrt(var_a * var_b)


def spearman_rho(a, b) -> float:
    """Spearman's rho over tie-averaged ranks; NaN when either vector is constant."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size != a.size:
        raise ValueError("spearman_rho needs two vectors of equal length >= 2")
    if _is_constant(a) or _is_constant(b):
        return float("nan")
    return _pearson(average_ranks(a), average_ranks(b))


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
    protocol: str


def _finish_report(rows: list[VideoCorrelation], protocol: str) -> CorrelationReport:
    valid = [r for r in rows if not r.degenerate]
    mean_tau = math.fsum(r.tau for r in valid) / len(valid) if valid else float("nan")
    mean_rho = math.fsum(r.rho for r in valid) / len(valid) if valid else float("nan")
    return CorrelationReport(
        per_video=rows,
        mean_tau=mean_tau,
        mean_rho=mean_rho,
        degenerate_count=len(rows) - len(valid),
        protocol=protocol,
    )


def protocol_targets(protocol: str, annotations) -> np.ndarray:
    """The rows a protocol correlates each prediction with: every annotator
    row for tvsum, the elementwise mean user summary for summe."""
    annotations = np.asarray(annotations, dtype=np.float64)
    if protocol == "tvsum":
        return annotations
    if protocol == "summe":
        return annotations.mean(axis=0, keepdims=True)
    raise ValueError(f"unknown protocol {protocol!r}")


def _correlate(video_id: str, pairs) -> VideoCorrelation:
    """Mean tau and rho over the (prediction, target) pairs where neither side
    is constant; degenerate when no pair is left."""
    taus, rhos = [], []
    for pred, target in pairs:
        if not (_is_constant(pred) or _is_constant(target)):
            taus.append(kendall_tau(pred, target))
            rhos.append(spearman_rho(pred, target))
    if not taus:
        return VideoCorrelation(video_id, float("nan"), float("nan"), True)
    return VideoCorrelation(video_id, math.fsum(taus) / len(taus), math.fsum(rhos) / len(rhos), False)


def evaluate(protocol: str, video_ids, predictions, annotations) -> CorrelationReport:
    """Correlate each prediction with its protocol targets, average per video,
    then across videos. Constant predictions or all-constant targets are
    flagged degenerate."""
    rows = []
    for vid, pred, ann in zip(video_ids, predictions, annotations):
        pred = np.asarray(pred, dtype=np.float64)
        rows.append(_correlate(vid, [(pred, t) for t in protocol_targets(protocol, ann)]))
    return _finish_report(rows, protocol)


def evaluate_tvsum(video_ids, predictions, annotations) -> CorrelationReport:
    """tvsum protocol: every annotator row is a target."""
    return evaluate("tvsum", video_ids, predictions, annotations)


def evaluate_summe(video_ids, predictions, user_summaries) -> CorrelationReport:
    """summe protocol: the mean user summary is the one target."""
    return evaluate("summe", video_ids, predictions, user_summaries)


def oracle_report(protocol: str, video_ids, annotations) -> CorrelationReport:
    """Sanity protocol run with the targets standing in for the predictions.

    Every non-degenerate comparison correlates a target with itself, so the
    means must come out at exactly 1; useful as a CI smoke check of the
    metric plumbing."""
    rows = [
        _correlate(vid, [(t, t) for t in protocol_targets(protocol, ann)])
        for vid, ann in zip(video_ids, annotations)
    ]
    return _finish_report(rows, protocol)


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
    decoded by one `select_segments` call, with the same selections as one
    `decode_summary` per row.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    noise = np.random.default_rng(seed).normal(0.0, sigma, (trials,) + scores.shape)
    selection = select_segments(np.vstack([scores, scores + noise]), picks, cps, rho)
    return int(np.count_nonzero((selection[1:] != selection[0]).any(axis=1))) / trials


def write_report_csv(report: CorrelationReport, path) -> None:
    """One row per video plus a footer with the means and degenerate count."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["video_id", "tau", "rho", "degenerate"])
    for row in report.per_video:
        writer.writerow([row.video_id, repr(row.tau), repr(row.rho), str(row.degenerate).lower()])
    writer.writerow(["mean", repr(report.mean_tau), repr(report.mean_rho), report.degenerate_count])
    atomic_write(path, buf.getvalue().encode("utf-8"))
