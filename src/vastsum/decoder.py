"""Budgeted summary decoding.

Sampled scores are pooled into the mean score of each change-point segment's
frames (`timeline.segment_values`), and a 0/1 knapsack over segment lengths
picks the summary under capacity floor(rho * N). The solver is an exact dynamic
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
axis 1. An item of weight w reads the cells value[c-w] and writes value[c]
and its keep[j, c] for a range of cells c, and each of these is one
contiguous run, so each pass over an item is one flat sweep rather than K
strided ones.

An item touches only the cells that can matter (the same book). Let
W_upto(j) be the weight of the fitting items up to and including the j-th,
and W_after(j) that of the fitting items after it. Item j's live cells are
[lo_j, hi_j], which `_ranges` gives to both passes and to the backtrack:
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

It runs in two passes. The first keeps values only: item i enters a cell
when `base + v_i` is strictly greater than the cell's value, and a row is
marked tied once any of its live cells meets an exact tie (`base + v_i`
equal to the cell's value). The keyed DP below takes a candidate when it is
greater, or equal with a smaller key; on a row where no live cell is ever
equal that is the same rule, so an untied row's keep table, on every cell
the backtrack reads, and its selection, is the keyed DP's bit for bit. A tie
above hi_j repeats the one on cell hi_j, so the upper bound drops no flag; a
tie below lo_j can change no cell that reaches cap, in either pass, so the
rows flagged only there (which a pass over every cell would flag) keep
their selection without the keyed DP. The second pass re-solves only the
tied rows with the keyed DP (`_keyed_dp`); rows with continuous values
rarely tie, so it seldom runs at all. NaN and infinite values take the same
path: a NaN cell never compares equal, and equal infinities tie.

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
block's [cap+1, block] value and candidate tables (512 KiB each) stay in a
2 MiB L2 through the passes each item makes over them. Each block runs both
passes on its own, with a keep[fits, cap+1, block] table (fits: the items of
weight <= cap), and its selection fills its rows of the [K, M] result. Rows never interact,
so the blocks change no bit. A batch that fits in one block (training's
K = 9, a single decode, any small capacity) is one block: both passes run on
the whole batch, as they would unblocked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .timeline import ChangePointPartition, PickSequence, _integer, _integers, segment_values

# DP cells (rows * (cap + 1)) in one block of rows: 512 KiB per float64 table
_BLOCK_CELLS = 1 << 16
# cells in one row of the value pass's tiled add, and the least capacity at
# which a block of more than one row is tiled
_TILE_CELLS = 16
_TILED_CAP = 320


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
    bounds = _ranges(weights, cap, fits)
    bit, top = item_bits, bounds[0][1] if fits else 0
    for j, i in enumerate(fits):
        if bit == 0:
            key, bit = _rerank(key, shift, item_bits, cap), item_bits
        bit -= 1
        lo, hi = bounds[j]
        if hi > top:
            value[top + 1 : hi + 1] = value[top]
            key[top + 1 : hi + 1] = key[top]
            top = hi
        w = weights[i]
        n = hi + 1 - lo
        cv = np.add(value[lo - w : hi + 1 - w], items[i], out=cand_value[:n])
        ck = np.add(key[lo - w : hi + 1 - w], (w << shift) - (1 << bit), out=cand_key[:n])
        old_value, old_key = value[lo : hi + 1], key[lo : hi + 1]
        take = np.greater(cv, old_value, out=keep[j, lo : hi + 1])
        tied = np.equal(cv, old_value, out=tie[:n])
        tied &= np.less(ck, old_key, out=lower[:n])
        take |= tied
        np.fmax(old_value, cv, out=old_value)
        np.copyto(old_key, ck, where=take)
    return _backtrack(keep, weights, fits, bounds, rows.shape[1])


def _solve_block(rows: np.ndarray, weights: tuple[int, ...], cap: int, fits: list[int]) -> np.ndarray:
    """Both passes on one block of rows: the value DP, then the keyed DP on
    the block's tied rows only."""
    selection, tied = _value_dp(rows, weights, cap, fits)
    if np.count_nonzero(tied):
        selection[tied] = _keyed_dp(rows[tied], weights, cap, fits)
    return selection


def knapsack_select(instance: SegmentKnapsackInstance) -> np.ndarray:
    """Exact 0/1 knapsack; returns the boolean selection, shaped like values.

    Candidates for a cell are compared by value first, then smaller weight,
    then lexicographically smaller index set (see the module docstring).
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


def select_segments(
    scores, picks: PickSequence, cps: ChangePointPartition, rho: float
) -> np.ndarray:
    """The decode pipeline: budget, pool, solve.

    scores is [T] or [K, T]; the selection is [M] or [K, M], each row solved
    as its own decode in one knapsack call.
    """
    capacity = budget(rho, cps.n_frames)
    values = segment_values(scores, picks, cps)
    return knapsack_select(SegmentKnapsackInstance(values, cps.lengths(), capacity))


def decode_summary(
    scores, picks: PickSequence, cps: ChangePointPartition, rho: float = 0.15
) -> SummaryMask:
    """Decode one [T] score row and emit the binary summary mask."""
    if np.ndim(scores) != 1:
        raise ValueError(f"decode_summary takes one [T] score row, got shape {np.shape(scores)}; "
                         "select_segments decodes a [K, T] batch")
    selection = select_segments(scores, picks, cps, rho)
    selected = tuple(selection.nonzero()[0].tolist())
    return SummaryMask(y=selection.repeat(cps.lengths()), selected_segments=selected)
