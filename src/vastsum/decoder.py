"""Budgeted summary decoding.

Sampled scores are expanded to the original timeline, averaged per
change-point segment, and a 0/1 knapsack over segment lengths picks the
summary under capacity floor(rho * N). The solver is an exact dynamic
program with deterministic tie-breaking (equal value: prefer the lighter
selection, then the lexicographically smallest index set), so decoding is a
pure function of its inputs.

The DP (Kellerer, Pferschy & Pisinger, *Knapsack Problems*, 2004, ch. 2)
takes items in forward index order and works on whole capacity rows at once.
Cell c holds the best set of the items seen so far that fits in c, as its
value and one int64 key; a keep[M, K, cap+1] table records whether item i
entered cell c, and one backtrack from cell cap reads the selection off.
Values accumulate as `base + v_i`, i.e. in ascending index order, as
`tests/oracles.brute_force_knapsack` sums them. Exact value ties go to the
smaller key. The key is weight * 2**shift + rank, with the rank in
(-2**shift, 0], so it orders by weight and then by rank. The rank orders
sets by "the smallest index in the symmetric difference belongs to the
better set", which at equal weight is the lexicographic rule: taking item i
subtracts 2**bit(i) from its base's rank, with earlier items on higher bits,
and every few dozen items the ranks are re-encoded densely, in the same
order, before the bits run out.

Where float sums round, two sets that differ in value can tie once an item
is added to both, and the set the DP dropped earlier may be the one the
oracle's lexicographic rule prefers. The DP's value is always the oracle's
best value; its set is the oracle's whenever the sums are exact.

`values` may be one row [M] or a batch [K, M] that shares weights and
capacity; each row is solved on its own and the selection has the shape of
`values`. The stability loss and the flip rate solve their perturbed rows in
one call this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .timeline import ChangePointPartition, PickSequence, expand_scores


@dataclass
class SegmentKnapsackInstance:
    """Per-segment values, integer frame-count weights, and the frame budget.

    values is [M], or [K, M] for K value rows that share weights and budget.
    """

    values: np.ndarray
    weights: tuple[int, ...]
    capacity: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.weights = tuple(int(w) for w in self.weights)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != len(self.weights):
            raise ValueError("values and weights must have equal length")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be >= 1")
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")


@dataclass
class SummaryMask:
    """Binary indicator on the original timeline plus the selected segment indices."""

    y: np.ndarray
    selected_segments: tuple[int, ...]


def segment_values(
    frame_scores, cps: ChangePointPartition, capacity: int = 0
) -> SegmentKnapsackInstance:
    """Mean frame score per segment as value, segment length as weight.

    frame_scores is [N] or [K, N]; values then has shape [M] or [K, M]. Each
    mean equals `frame_scores[..., s:e+1].mean()` on the 1-D run, bit for bit:
    a 1-D `np.add.reduce` starts from 0.0 and adds the pairwise sum of the
    whole run, while `reduceat` starts from a run's first element and adds
    the pairwise sum of the rest, so a 0.0 is put in front of every segment.
    (`mean(axis=1)` over a 2-D block sums in another order.)
    """
    frame_scores = np.asarray(frame_scores, dtype=np.float64)
    if frame_scores.ndim not in (1, 2) or frame_scores.shape[-1] != cps.n_frames:
        raise ValueError(f"expected {cps.n_frames} frame scores, got {frame_scores.shape}")
    starts = np.array([s for s, _ in cps.segments])
    lengths = cps.lengths()
    padded = np.insert(frame_scores, starts, 0.0, axis=-1)
    sums = np.add.reduceat(padded, starts + np.arange(len(starts)), axis=-1)
    return SegmentKnapsackInstance(values=sums / lengths, weights=lengths, capacity=capacity)


def _rerank(key: np.ndarray, shift: int, item_bits: int, cap: int) -> np.ndarray:
    """Re-encode each row's set ranks densely, in the same order, and clear
    the low item_bits bits for the next items; weights are kept."""
    weight = -(-key // (1 << shift))
    rank = key - weight * (1 << shift)
    order = np.argsort(rank, axis=1, kind="stable")
    ranked = np.take_along_axis(rank, order, axis=1)
    dense = np.zeros_like(rank)
    np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=dense[:, 1:])
    np.put_along_axis(rank, order, dense, axis=1)
    return weight * (1 << shift) + (rank - cap) * (1 << item_bits)


def knapsack_select(instance: SegmentKnapsackInstance) -> np.ndarray:
    """Exact 0/1 knapsack; returns the boolean selection, shaped like values.

    Candidates for a cell are compared by value first, then smaller weight,
    then lexicographically smaller index set (see the module docstring).
    """
    weights, cap = instance.weights, instance.capacity
    rows = np.atleast_2d(instance.values)
    k, m = rows.shape
    fits = [i for i, w in enumerate(weights) if w <= cap]  # the others change no cell
    # A dense re-rank leaves ranks in [-cap, 0] * 2**item_bits, and the next
    # item_bits items take bits item_bits-1 .. 0; weights are <= cap, so
    # every key stays below 2**62 in magnitude.
    item_bits = 62 - cap.bit_length() - (cap + 1).bit_length()
    shift = item_bits + (cap + 1).bit_length()
    value = np.zeros((k, cap + 1))
    key = np.zeros((k, cap + 1), dtype=np.int64)
    keep = np.zeros((len(fits), k, cap + 1), dtype=bool)
    cand_value, cand_key = np.empty_like(value), np.empty_like(key)
    tie, lower = np.empty((k, cap + 1), dtype=bool), np.empty((k, cap + 1), dtype=bool)
    bit = item_bits
    for j, i in enumerate(fits):
        if bit == 0:
            key, bit = _rerank(key, shift, item_bits, cap), item_bits
        bit -= 1
        w = weights[i]
        n = cap + 1 - w
        cv = np.add(value[:, :n], rows[:, i : i + 1], out=cand_value[:, :n])
        ck = np.add(key[:, :n], (w << shift) - (1 << bit), out=cand_key[:, :n])
        take = np.greater(cv, value[:, w:], out=keep[j, :, w:])
        tied = np.equal(cv, value[:, w:], out=tie[:, :n])
        tied &= np.less(ck, key[:, w:], out=lower[:, :n])
        take |= tied
        np.copyto(value[:, w:], cv, where=take)
        np.copyto(key[:, w:], ck, where=take)
    # Backtrack from cell cap of every row at once, through keep flattened:
    # cell holds each row's flat offset within one item's [k, cap+1] table.
    selection = np.zeros((k, m), dtype=bool)
    flat = keep.reshape(-1)
    cell = np.arange(k) * (cap + 1) + cap
    for j in range(len(fits) - 1, -1, -1):
        taken = flat[cell + j * k * (cap + 1)]
        selection[:, fits[j]] = taken
        np.subtract(cell, weights[fits[j]], out=cell, where=taken)
    return selection.reshape(instance.values.shape)


def budget(rho: float, n_frames: int) -> int:
    """Frame budget floor(rho * N); never rounded up."""
    if not 0 < rho <= 1:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    return int(math.floor(rho * n_frames))


def decode_summary(
    scores, picks: PickSequence, cps: ChangePointPartition, rho: float = 0.15
) -> SummaryMask:
    """Expand, pool, solve, and emit the binary summary mask."""
    capacity = budget(rho, cps.n_frames)
    frame_scores = expand_scores(scores, picks, cps.n_frames)
    instance = segment_values(frame_scores, cps, capacity=capacity)
    selection = knapsack_select(instance)
    y = np.zeros(cps.n_frames, dtype=bool)
    selected = tuple(int(k) for k in np.flatnonzero(selection))
    for k in selected:
        start, end = cps.segments[k]
        y[start : end + 1] = True
    return SummaryMask(y=y, selected_segments=selected)
