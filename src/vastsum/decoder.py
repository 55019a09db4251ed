"""Budgeted summary decoding.

Sampled scores are expanded to the original timeline, averaged per
change-point segment, and a 0/1 knapsack over segment lengths picks the
summary under capacity floor(rho * N). The solver is an exact dynamic
program with deterministic tie-breaking (equal value: prefer the lighter
selection, then the lexicographically smallest index set), so decoding is a
pure function of its inputs.

The DP (Kellerer, Pferschy & Pisinger, *Knapsack Problems*, 2004, ch. 2)
takes items in forward index order and works on all capacity cells at once.
Cell c holds the best set of the items seen so far that fits in c; a
keep table records whether item i entered cell c, and one backtrack from
cell cap reads the selection off. Values accumulate as
`base + v_i`, i.e. in ascending index order, as
`tests/oracles.brute_force_knapsack` sums them.

Every table is cell-major, [cap+1, K]: cells on axis 0, the batch's rows on
axis 1. An item of weight w reads the cells value[:cap+1-w] and writes
value[w:] and its keep[j, w:], and each of these is one contiguous run, so
each pass over an item is one flat sweep rather than K strided ones.

It runs in two passes. The first keeps values only: item i enters a cell
when `base + v_i` is strictly greater than the cell's value, and a row is
marked tied once any of its cells meets an exact tie (`base + v_i` equal to
the cell's value). The keyed DP below takes a candidate when it is greater,
or equal with a smaller key; on a row where no cell is ever equal that is
the same rule, so an untied row's keep table, and its selection, is the
keyed DP's bit for bit. The second pass re-solves only the tied rows with
the keyed DP (`_keyed_dp`); rows with continuous values rarely tie, so it
seldom runs at all. NaN and infinite values take the same path: a NaN cell
never compares equal, and equal infinities tie.

The first pass checks an item for ties with one flat `any` over its cells,
and reduces per row only when that finds one: in this layout a per-row
reduction costs over ten times as much, and exact ties are rare. Both
passes update the cell values with `np.fmax(old, cand)`, which is bit for
bit the masked copy of cand where the pass takes it. A value cell starts at
0.0 and never takes a NaN candidate, so it is never NaN; fmax then returns
cand where it is greater, and old where cand is smaller or NaN (such as
`inf + -inf`). Where the two are equal it returns an equal value, which can
differ only in the sign of a zero, and no later comparison sees that; a
keyed take on a tie keeps an equal value too, so only the keys need a masked
copy. (`np.maximum` would propagate a NaN candidate.)

The keyed DP holds each cell's set as its value and one int64 key, and
exact value ties go to the smaller key. The key is weight * 2**shift +
rank, with the rank in (-2**shift, 0], so it orders by weight and then by
rank. The rank orders sets by "the smallest index in the symmetric
difference belongs to the better set", which at equal weight is the
lexicographic rule: taking item i subtracts 2**bit(i) from its base's rank,
with earlier items on higher bits, and every few dozen items the ranks are
re-encoded densely, in the same order, before the bits run out.

Where float sums round, two sets that differ in value can tie once an item
is added to both, and the set the DP dropped earlier may be the one the
oracle's lexicographic rule prefers. The DP's value is always the oracle's
best value; its set is the oracle's whenever the sums are exact.

`values` may be one row [M] or a batch [K, M] that shares weights and
capacity; each row is solved on its own and the selection has the shape of
`values`. The stability loss and the flip rate (through `select_segments`)
solve their perturbed rows in one call this way.

A batch is solved in blocks of max(1, _BLOCK_CELLS // (cap + 1)) rows, so a
block's [cap+1, block] value and candidate tables stay in L2 through the
passes each item makes over them. Each block runs both passes on its own,
with a keep[fits, cap+1, block] table (fits: the items of weight <= cap),
and its selection fills its rows of the [K, M] result. Rows never interact,
so the blocks change no bit. A batch that fits in one block (training's
K = 9, a single decode, any small capacity) is one block: both passes run on
the whole batch, as they would unblocked.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .timeline import ChangePointPartition, PickSequence, expand_scores

# DP cells (rows * (cap + 1)) in one block of rows: 256 KiB per float64 table
_BLOCK_CELLS = 1 << 15


def _integer(name: str, x) -> int:
    """x as a Python int; a float is refused, never truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None


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
        self.weights = tuple(_integer(f"weights[{k}]", w) for k, w in enumerate(self.weights))
        self.capacity = _integer("capacity", self.capacity)
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
    """Re-encode each row's set ranks (a column of key) densely, in the same
    order, and clear the low item_bits bits for the next items; weights are
    kept."""
    weight = -(-key // (1 << shift))
    rank = key - weight * (1 << shift)
    order = np.argsort(rank, axis=0, kind="stable")
    ranked = np.take_along_axis(rank, order, axis=0)
    dense = np.zeros_like(rank)
    np.cumsum(ranked[1:] != ranked[:-1], axis=0, out=dense[1:])
    np.put_along_axis(rank, order, dense, axis=0)
    return weight * (1 << shift) + (rank - cap) * (1 << item_bits)


def _backtrack(keep: np.ndarray, weights: tuple[int, ...], fits: list[int], m: int) -> np.ndarray:
    """The [K, M] selection read off a keep[len(fits), cap+1, K] table,
    from cell cap of every row at once, through keep flattened: cell holds
    each row's flat offset within one item's [cap+1, K] table."""
    _, width, k = keep.shape
    selection = np.zeros((k, m), dtype=bool)
    flat = keep.reshape(-1)
    cell = np.arange(k) + (width - 1) * k
    for j in range(len(fits) - 1, -1, -1):
        taken = flat[cell + j * width * k]
        selection[:, fits[j]] = taken
        np.subtract(cell, weights[fits[j]] * k, out=cell, where=taken)
    return selection


def _value_dp(
    rows: np.ndarray, weights: tuple[int, ...], cap: int, fits: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """First pass: the selection with strict improvements only, and which
    rows met an exact value tie (their selection is re-solved)."""
    k = rows.shape[0]
    items = np.ascontiguousarray(rows.T)
    value = np.zeros((cap + 1, k))
    keep = np.zeros((len(fits), cap + 1, k), dtype=bool)
    cand_value, eq = np.empty_like(value), np.empty((cap + 1, k), dtype=bool)
    tied = np.zeros(k, dtype=bool)
    for j, i in enumerate(fits):
        w = weights[i]
        n = cap + 1 - w
        cv = np.add(value[:n], items[i], out=cand_value[:n])
        np.greater(cv, value[w:], out=keep[j, w:])
        tie = np.equal(cv, value[w:], out=eq[:n])
        if tie.any():
            tied |= tie.any(axis=0)
        np.fmax(value[w:], cv, out=value[w:])
    return _backtrack(keep, weights, fits, rows.shape[1]), tied


def _keyed_dp(rows: np.ndarray, weights: tuple[int, ...], cap: int, fits: list[int]) -> np.ndarray:
    """The keyed DP's selection: equal values go to the smaller key."""
    k = rows.shape[0]
    # A dense re-rank leaves ranks in [-cap, 0] * 2**item_bits, and the next
    # item_bits items take bits item_bits-1 .. 0; weights are <= cap, so
    # every key stays below 2**62 in magnitude.
    item_bits = 62 - cap.bit_length() - (cap + 1).bit_length()
    shift = item_bits + (cap + 1).bit_length()
    items = np.ascontiguousarray(rows.T)
    value = np.zeros((cap + 1, k))
    key = np.zeros((cap + 1, k), dtype=np.int64)
    keep = np.zeros((len(fits), cap + 1, k), dtype=bool)
    cand_value, cand_key = np.empty_like(value), np.empty_like(key)
    tie, lower = np.empty((cap + 1, k), dtype=bool), np.empty((cap + 1, k), dtype=bool)
    bit = item_bits
    for j, i in enumerate(fits):
        if bit == 0:
            key, bit = _rerank(key, shift, item_bits, cap), item_bits
        bit -= 1
        w = weights[i]
        n = cap + 1 - w
        cv = np.add(value[:n], items[i], out=cand_value[:n])
        ck = np.add(key[:n], (w << shift) - (1 << bit), out=cand_key[:n])
        take = np.greater(cv, value[w:], out=keep[j, w:])
        tied = np.equal(cv, value[w:], out=tie[:n])
        tied &= np.less(ck, key[w:], out=lower[:n])
        take |= tied
        np.fmax(value[w:], cv, out=value[w:])
        np.copyto(key[w:], ck, where=take)
    return _backtrack(keep, weights, fits, rows.shape[1])


def _solve_block(rows: np.ndarray, weights: tuple[int, ...], cap: int, fits: list[int]) -> np.ndarray:
    """Both passes on one block of rows: the value DP, then the keyed DP on
    the block's tied rows only."""
    selection, tied = _value_dp(rows, weights, cap, fits)
    if tied.any():
        selection[tied] = _keyed_dp(rows[tied], weights, cap, fits)
    return selection


def knapsack_select(instance: SegmentKnapsackInstance) -> np.ndarray:
    """Exact 0/1 knapsack; returns the boolean selection, shaped like values.

    Candidates for a cell are compared by value first, then smaller weight,
    then lexicographically smaller index set (see the module docstring).
    """
    weights, cap = instance.weights, instance.capacity
    rows = np.atleast_2d(instance.values)
    fits = [i for i, w in enumerate(weights) if w <= cap]  # the others change no cell
    block = max(1, _BLOCK_CELLS // (cap + 1))
    selection = np.empty(rows.shape, dtype=bool)
    for s in range(0, rows.shape[0], block):
        selection[s : s + block] = _solve_block(rows[s : s + block], weights, cap, fits)
    return selection.reshape(instance.values.shape)


def budget(rho: float, n_frames: int) -> int:
    """Frame budget floor(rho * N); never rounded up."""
    if not 0 < rho <= 1:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    return int(math.floor(rho * n_frames))


def select_segments(
    scores, picks: PickSequence, cps: ChangePointPartition, rho: float
) -> np.ndarray:
    """The decode pipeline: budget, expand, pool, solve.

    scores is [T] or [K, T]; the selection is [M] or [K, M], each row solved
    as its own decode in one knapsack call.
    """
    capacity = budget(rho, cps.n_frames)
    frames = expand_scores(scores, picks, cps.n_frames)
    instance = segment_values(frames, cps, capacity=capacity)
    del frames  # [K, N]; freed before the DP allocates its tables
    return knapsack_select(instance)


def decode_summary(
    scores, picks: PickSequence, cps: ChangePointPartition, rho: float = 0.15
) -> SummaryMask:
    """Decode one score row and emit the binary summary mask."""
    selected = tuple(int(k) for k in np.flatnonzero(select_segments(scores, picks, cps, rho)))
    y = np.zeros(cps.n_frames, dtype=bool)
    for k in selected:
        start, end = cps.segments[k]
        y[start : end + 1] = True
    return SummaryMask(y=y, selected_segments=selected)
