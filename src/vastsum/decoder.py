"""Budgeted summary decoding.

Sampled scores are pooled into the mean score of each change-point segment's
frames by calling the video's `timeline.SegmentIndexMap`, and a 0/1 knapsack
over segment lengths picks the summary under capacity floor(rho * N). The
solver is an exact dynamic program with deterministic tie-breaking (equal
value: prefer the lighter selection, then the lexicographically smallest index
set), so decoding is a pure function of its inputs.

The DP (Kellerer, Pferschy & Pisinger, *Knapsack Problems*, 2004, ch. 2)
takes items in forward index order and works on all capacity cells at once.
Cell c holds the best set of the items seen so far that fits in c. Values
accumulate as `base + v_i`, i.e. in ascending index order, as
`tests/oracles.brute_force_knapsack` sums them.

It runs in two passes. The value pass (`_value_dp`) keeps values only: item
i enters a cell when `base + v_i` is strictly greater than the cell's value,
a keep table records it, and one backtrack from cell cap reads the
selection off. A row is marked tied once any of its live cells (below)
meets an exact tie (`base + v_i` equal to the cell's value). The keyed pass
(`_keyed_dp`) re-solves only the tied rows; rows with continuous values
rarely tie, so it seldom runs at all.

Every table of the value pass is cell-major, [cap+1, K]: cells on axis 0,
the batch's rows on axis 1. An item of weight w reads the cells value[c-w]
and writes value[c] and its keep[j, c] for a range of cells c, and each of
these is one contiguous run, so each pass over an item is one flat sweep
rather than K strided ones.

The value pass touches only the cells that can matter (the same book). Let
W_upto(j) be the weight of the fitting items up to and including the j-th,
and W_after(j) that of the fitting items after it. Item j's live cells are
[lo_j, hi_j], which `_ranges` gives to the value pass and to its backtrack:
- hi_j = min(cap, W_upto(j)). Every cell above W_upto(j) can hold all the
  items so far, so it equals cell hi_j in value and in keep. Such cells are
  never computed. When hi grows, the cells above the last hi are first filled
  from it; and the backtrack reads item j's keep at min(cell, hi_j), by
  setting its cells above hi_j to cell hi_j before it reads.
- lo_j = max(w_j, min(cap - W_after(j), hi_j)). The backtrack from cell cap
  meets item j at a cell of at least cap - W_after(j), and no later item
  reads a cell below that, so no cell under it can reach cap. Where every
  fitting item fits at once (total weight below cap) that bound lies above
  hi_j, and the clamp keeps cell hi_j, the one the backtrack reads.

The keyed pass is the textbook DP over every cell [w_i, cap] of each
fitting item. Each cell holds its value (the same `base + v_i` adds), its
int64 weight and its set, a bool membership row of a [cap+1, K, M] table. A
candidate takes a cell when its value is greater; on an equal value, when
it is lighter; on an equal weight too, when it holds the smallest index
where the two sets differ, which is the lexicographic rule. The selection
is the membership row at cell cap. Each item costs O(cap * M) a row, where
the value pass costs O(cap): at paper shape (cap 1536, M = 80) one core of
a Xeon VM takes 7 ms for one tied row and 360 ms for a block of 42, where
the packed int64-key form, `tests/oracles.packed_key_dp`, takes 1 and 21.

On a row where no live cell meets an equal value, both passes take a
candidate on a live cell exactly when it is greater, and live cells read
only live cells, so the two hold the same sets there; a cell above hi_j
holds cell hi_j's set and a cell below lo_j never reaches cap, so the
untied row's selection is the keyed pass's bit for bit. For the same
reasons a tie above hi_j repeats the one on cell hi_j, so the upper bound
drops no flag, and rows tied only below lo_j keep their selection without
the keyed pass. A NaN cell never compares equal, and equal infinities tie.

The value pass adds an item's values to its range of n cells as one tiled
add. A broadcast [n, K] + [K] add runs numpy's inner loop once a cell, K
elements long. A tiled block instead holds each item's values _TILE_CELLS
times over ([M, tile*K], `np.tile`) and adds that row to a [ceil(n/tile),
tile*K] view of the value table, so each inner loop spans tile cells. The
value table has tile - 1 cells of padding for the reads of a range's last
tile, and the candidate cells past n are written but never read. The
candidate table starts on a 64-byte boundary, and a row of tile*K float64s
is a multiple of 64 bytes at tile 16, so each row of the add's output is
aligned: numpy's AVX-512 add into an unaligned output splits its stores
across cache lines. A block of one row, or one at a capacity below
_TILED_CAP, is not tiled. One row adds a scalar to one contiguous run, which
numpy already does in one SIMD loop. At small capacities the tile's fixed
costs (the tiled copy, the aligned table, one more view an item) exceed what
it saves.

The first pass checks an item for ties with one flat count over its cells,
and reduces per row only when that finds one: in this layout a per-row
reduction costs over ten times as much, and exact ties are rare. Both
passes update the cell values with `np.fmax(old, cand)`, which is bit for
bit the masked copy of cand where the pass takes it. A value cell starts at
0.0 and never takes a NaN candidate, so it is never NaN; fmax then returns
cand where it is greater, and old where cand is smaller or NaN (such as
`inf + -inf`). Where the two are equal it returns an equal value, which can
differ only in the sign of a zero, and no later comparison sees that; a
keyed take on a tie keeps an equal value too, so only the weights and sets
need a masked copy. (`np.maximum` would propagate a NaN candidate.)

Where float sums round, two sets that differ in value can tie once an item
is added to both, and the set the DP dropped earlier may be the one the
oracle's lexicographic rule prefers. The DP's value is always the oracle's
best value; its set is the oracle's whenever the sums are exact.

`values` may be one row [M] or a batch [K, M] that shares weights and
capacity; each row is solved on its own and the selection has the shape of
`values`. The stability loss and the flip rate (through `select_segments`)
solve their perturbed rows in one call this way.

A batch is solved in blocks of max(1, _BLOCK_CELLS // (cap + 1)) rows, so a
block's [cap+1, block] value and candidate tables (512 KiB each) stay in a
2 MiB L2 through the passes each item makes over them. Each block runs both
passes on its own, the value pass with a keep[kept, cap+1, block] table
(kept: the items of weight <= cap that the block's reduction, below, keeps),
and its selection fills its rows of the [K, M] result. Rows never interact,
so the blocks change no bit. A batch that fits in one block (training's
K = 9, a single decode, any small capacity) is one block: both passes run on
the whole batch, as they would unblocked.

Before its passes, a block of at least _REDUCED_ITEMS fitting items drops
each one that no row's optimum can hold (Dembo & Hammer, "A reduction
algorithm for knapsack problems", 1980; the book's section 5.1.3). Each row,
all rows at once: its items of value > 0 are sorted by v/w, descending; the
LP prefix is the longest run of them that fits, of value `pre` and weight
`used`, and r is the ratio of the break item after it (0 if none is left).
U = pre + r*(cap - used) is the Lagrangian bound L(r) = r*cap + sum_i
max(0, v_i - r*w_i), so a set that holds item j is worth at most
U - max(0, r*w_j - v_j). LB = pre plus the largest value after the prefix
that still fits in cap - used is the value of a feasible set. The row drops
item j when U - max(0, r*w_j - v_j) < LB - tol, and every item of value
<= 0: adding one never raises a float sum, and under the lighter-set rule it
is in no optimum. The block keeps an item unless every row drops it, and
skips the reduction when a row's sum of |v| is not finite (a NaN or an
infinite value); a NaN bound compares false, so it drops nothing.

tol covers the rounding. With u = 2**-53, n fitting items and S = sum |v_i|,
any float sum of the values, in any order, is within (n - 1)*u*S of its
exact sum (to first order; Higham, *Accuracy and Stability of Numerical
Algorithms*, 2002, section 4.2): `pre`, LB and the DP's ascending sum of any
set. U's and the slack's products and differences add a few u*S each, as
r*cap < pre + v_break <= S; and sorting by the rounded ratios leaves
sum max(0, ...) at most 2*u*S above what U counts. In all, a set that holds a
dropped item has a float sum below that of LB's set (hence below the row's
optimum F) by the margin tol - (4n + 9)*u*S; tol = (1 + S) *
max(1e-9, 16*(n + 4)*u) keeps that margin positive.

So the selection is the unreduced DP's, bit for bit, ties included: a set
holding a dropped item cannot win or tie at a cell on the backtrack's path,
since adding the selection's later items to it would give a float sum of at
least F (a float add is monotone) with a dropped item in it. The path's cells
keep their values and keep bits, and a tie on the path is between two sets
of kept items. Tie flags are taken over the kept items, so a row tied only
among sets that hold dropped items no longer reaches the keyed pass; its
selection is the same. The gate is an item count, not a capacity: the bound
costs ~20 numpy calls a block (~40 us for one row of 80 items on one core of
a Xeon VM), and timed over random instances at capacities 19 to 1536 it made
solves of 6 or 12 items 1.2-2.9x slower at every capacity, and solves of 32
items or more 0.54-0.91 of their time at every capacity from 40. The desk
scale (6 segments) never reduces; the paper flip rate keeps 23-37 of 80
items a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .timeline import ChangePointPartition, PickSequence, SegmentIndexMap, _integer, _integers

# DP cells (rows * (cap + 1)) in one block of rows: 512 KiB per float64 table
_BLOCK_CELLS = 1 << 16
# cells in one row of the value pass's tiled add, and the least capacity at
# which a block of more than one row is tiled
_TILE_CELLS = 16
_TILED_CAP = 320
# the least number of fitting items that a block reduces before the DP
_REDUCED_ITEMS = 32


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
        self.weights = _integers("weights", self.weights)
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


def _ranges(weights: tuple[int, ...], cap: int, fits: list[int]) -> list[tuple[int, int]]:
    """Each fitting item's live cells (lo, hi): hi = min(cap, W_upto) and
    lo = max(w, min(cap - W_after, hi)) (see the module docstring)."""
    bounds, upto, floor = [], 0, cap - sum(weights[i] for i in fits)
    for i in fits:
        w = weights[i]
        upto += w
        floor += w  # cap - W_after
        hi = upto if upto < cap else cap
        lo = floor if floor < hi else hi
        bounds.append((lo if lo > w else w, hi))
    return bounds


def _backtrack(
    keep: np.ndarray, weights: tuple[int, ...], fits: list[int], bounds: list[tuple[int, int]], m: int
) -> np.ndarray:
    """The [K, M] selection read off a keep[len(fits), cap+1, K] table,
    from cell cap of every row at once, through keep flattened: cell holds
    each row's flat offset within one item's [cap+1, K] table. Item j's keep
    is read at min(cell, hi_j): its cells above hi_j are first set to cell hi_j."""
    _, width, k = keep.shape
    for j, (_, hi) in enumerate(bounds):
        if hi == width - 1:  # and so for every later item
            break
        keep[j, hi + 1 :] = keep[j, hi]
    selection = np.zeros((k, m), dtype=bool)
    flat = keep.reshape(-1)
    cell = np.arange((width - 1) * k, width * k)
    for j in range(len(fits) - 1, -1, -1):
        taken = flat[cell + j * width * k]
        selection[:, fits[j]] = taken
        np.subtract(cell, weights[fits[j]] * k, out=cell, where=taken)
    return selection


def _aligned(n: int) -> np.ndarray:
    """An empty float64 [n] whose first element starts on a 64-byte boundary."""
    buf = np.empty(n + 7)
    skip = -buf.ctypes.data % 64 // 8
    return buf[skip : skip + n]


def _value_dp(
    rows: np.ndarray, weights: tuple[int, ...], cap: int, fits: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """First pass: the selection with strict improvements only, and which
    rows met an exact value tie on a live cell (their selection is re-solved)."""
    k, m = rows.shape
    tile = _TILE_CELLS if k > 1 and cap >= _TILED_CAP else 1
    span, cells = tile * k, -(-(cap + 1) // tile) * tile
    if tile > 1:
        items, cand = np.tile(rows.T, tile), _aligned(cells * k)
    else:
        items, cand = np.ascontiguousarray(rows.T), np.empty(cells * k)
    tiled_cand, cell_cand = cand.reshape(cells // tile, span), cand.reshape(cells, k)
    value = np.zeros((cap + tile, k))  # tile - 1 cells of padding
    flat = value.reshape(-1)
    keep = np.zeros((len(fits), cap + 1, k), dtype=bool)
    eq = np.empty((cap + 1, k), dtype=bool)
    tied = np.zeros(k, dtype=bool)
    bounds = _ranges(weights, cap, fits)
    top = bounds[0][1] if fits else 0  # cells up to it start from the empty set
    for j, i in enumerate(fits):
        lo, hi = bounds[j]
        if hi > top:
            value[top + 1 : hi + 1] = value[top]
            top = hi
        n = hi + 1 - lo
        tiles = -(-n // tile)
        src = (lo - weights[i]) * k
        np.add(flat[src : src + tiles * span].reshape(tiles, span), items[i], out=tiled_cand[:tiles])
        cv, old = cell_cand[:n], value[lo : hi + 1]
        np.greater(cv, old, out=keep[j, lo : hi + 1])
        tie = np.equal(cv, old, out=eq[:n])
        if np.count_nonzero(tie):
            tied |= tie.any(axis=0)
        np.fmax(old, cv, out=old)
    return _backtrack(keep, weights, fits, bounds, m), tied


def _keyed_dp(rows: np.ndarray, weights: tuple[int, ...], cap: int, fits: list[int]) -> np.ndarray:
    """The keyed pass's selection: each cell holds its value, weight and
    membership row, and ties break as the module docstring says."""
    k, m = rows.shape
    items = np.ascontiguousarray(rows.T)
    value = np.zeros((cap + 1, k))
    weight = np.zeros((cap + 1, k), dtype=np.int64)
    member = np.zeros((cap + 1, k, m), dtype=bool)
    for i in fits:
        w = weights[i]
        cv, cw = value[: cap + 1 - w] + items[i], weight[: cap + 1 - w] + w
        cs = member[: cap + 1 - w].copy()
        cs[:, :, i] = True
        old_value, old_weight, old_set = value[w:], weight[w:], member[w:]
        first = np.argmax(cs != old_set, axis=2)[..., None]
        earlier = np.take_along_axis(cs, first, axis=2)[..., 0]
        wins_tie = (cw < old_weight) | ((cw == old_weight) & earlier)
        take = (cv > old_value) | ((cv == old_value) & wins_tie)
        np.fmax(old_value, cv, out=old_value)
        np.copyto(old_weight, cw, where=take)
        old_set[take] = cs[take]
    return member[cap]


def _reduce(rows: np.ndarray, weights: tuple[int, ...], cap: int, fits: list[int]) -> list[int]:
    """The fitting items that some row of the block may hold in its optimum
    (see the module docstring): a row drops item j when v_j <= 0, or when
    U - max(0, r*w_j - v_j) < LB - tol."""
    v = rows[:, fits]
    total = np.add.reduce(np.abs(v), axis=1)
    if not np.logical_and.reduce(np.isfinite(total)):
        return fits
    w = np.array([weights[i] for i in fits], dtype=np.float64)
    positive = v > 0
    ratio = v / w
    # each row by ratio, descending; an item of value <= 0 weighs inf, so no prefix holds it
    at = np.negative(ratio).argsort(axis=1) + np.arange(0, v.size, len(fits))[:, None]
    sv, sw, sr = v.take(at), np.where(positive, w, np.inf).take(at), ratio.take(at)
    inside = np.add.accumulate(sw, axis=1) <= cap  # the LP prefix
    pre = np.add.reduce(sv, axis=1, where=inside)
    room = cap - np.add.reduce(sw, axis=1, where=inside)
    r = np.maximum.reduce(sr, axis=1, where=~inside, initial=0.0)  # the break item's ratio
    lb = pre + np.maximum.reduce(sv, axis=1, where=~inside & (sw <= room[:, None]), initial=0.0)
    ub = pre + r * room
    tol = (1.0 + total) * max(1e-9, (len(fits) + 4) * 2.0**-49)
    slack = np.fmax(r[:, None] * w - v, 0.0)
    held = positive & ~(ub[:, None] - slack < (lb - tol)[:, None])
    return [i for i, h in zip(fits, np.logical_or.reduce(held, axis=0)) if h]


def _solve_block(rows: np.ndarray, weights: tuple[int, ...], cap: int, fits: list[int]) -> np.ndarray:
    """Both passes on one block of rows, over the items `_reduce` keeps when
    at least _REDUCED_ITEMS fit: the value DP, then the membership-row keyed
    DP over every cell on the block's exactly tied rows only."""
    if len(fits) >= _REDUCED_ITEMS:
        fits = _reduce(rows, weights, cap, fits)
    selection, tied = _value_dp(rows, weights, cap, fits)
    if np.count_nonzero(tied):
        selection[tied] = _keyed_dp(rows[tied], weights, cap, fits)
    return selection


def knapsack_select(instance: SegmentKnapsackInstance) -> np.ndarray:
    """Exact 0/1 knapsack; returns the boolean selection, shaped like values.

    Candidates for a cell are compared by value first, then smaller weight,
    then lexicographically smaller index set (see the module docstring).
    Each block of rows first drops the items that no row's optimum can hold,
    which changes no selection.
    """
    weights, cap = instance.weights, instance.capacity
    rows = instance.values[None] if instance.values.ndim == 1 else instance.values
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


def select_segments(scores, seg: SegmentIndexMap, rho: float) -> np.ndarray:
    """The decode pipeline on the caller's map: budget, pool, solve.

    scores is [T] or [K, T]; the selection is [M] or [K, M], each row solved
    as its own decode in one knapsack call.
    """
    capacity = budget(rho, seg.cps.n_frames)
    return knapsack_select(SegmentKnapsackInstance(seg(scores), seg.lengths, capacity))


def decode_summary(
    scores, picks: PickSequence, cps: ChangePointPartition, rho: float = 0.15
) -> SummaryMask:
    """Decode one [T] score row and emit the binary summary mask."""
    if np.ndim(scores) != 1:
        raise ValueError(f"decode_summary takes one [T] score row, got shape {np.shape(scores)}; "
                         "select_segments decodes a [K, T] batch")
    seg = SegmentIndexMap(picks, cps)
    selection = select_segments(scores, seg, rho)
    selected = tuple(selection.nonzero()[0].tolist())
    return SummaryMask(y=selection.repeat(seg.lengths), selected_segments=selected)
