import math

import numpy as np
import pytest

import vastsum.decoder as decoder
from vastsum.decoder import (
    SegmentKnapsackInstance,
    budget,
    decode_summary,
    knapsack_select,
    select_segments,
)
from vastsum import evaluation, trainer
from vastsum.config import RunConfig
from vastsum.data import VideoRecord
from vastsum.errors import CoverageError
from vastsum.evaluation import flip_rate
from vastsum.timeline import ChangePointPartition, PickSequence, SegmentIndexMap, assign_segment_ids

import oracles
from oracles import (
    brute_force_knapsack,
    expand_scores,
    random_partition,
    random_picks,
    reference_value_dp,
    unreduced_knapsack,
)


def total_value(values, selection):
    acc = 0.0
    for i in np.flatnonzero(selection):
        acc += float(values[i])
    return acc


_KEYED_DP = decoder._keyed_dp
_BLOCK_CELLS = decoder._BLOCK_CELLS
_TILE_CELLS = decoder._TILE_CELLS
_REDUCED_ITEMS = decoder._REDUCED_ITEMS


def keyed_dp(rows, weights, cap):
    """The keyed DP alone, on every row: the selection the two passes must give."""
    fits = [i for i, w in enumerate(weights) if w <= cap]
    return _KEYED_DP(np.asarray(rows, dtype=float), tuple(weights), cap, fits)


@pytest.fixture()
def keyed_rows(monkeypatch):
    """The row batches knapsack_select hands to the keyed DP, one per call."""
    calls = []

    def spy(rows, *args):
        calls.append(rows.copy())
        return _KEYED_DP(rows, *args)

    monkeypatch.setattr(decoder, "_keyed_dp", spy)
    return calls


def every_frame(cps):
    """One pick on every frame: each frame takes its own score."""
    return PickSequence(range(cps.n_frames))


class TestSegmentValues:
    def test_constant_blocks(self):
        cps = ChangePointPartition(((0, 2), (3, 4)), 5)
        assert SegmentIndexMap(every_frame(cps), cps)([1, 1, 1, 5, 5]).tolist() == [1, 5]
        assert tuple(cps.lengths()) == (3, 2)

    def test_single_segment_global_mean(self):
        cps = ChangePointPartition(((0, 2),), 3)
        assert SegmentIndexMap(every_frame(cps), cps)([2.0, 4.0, 6.0]).tolist() == [4.0]
        assert tuple(cps.lengths()) == (3,)

    def test_two_pair_means(self):
        cps = ChangePointPartition(((0, 1), (2, 3)), 4)
        assert SegmentIndexMap(every_frame(cps), cps)([0, 2, 4, 6]).tolist() == [1, 5]
        assert tuple(cps.lengths()) == (2, 2)

    def test_length_mismatch(self):
        cps = ChangePointPartition(((0, 1),), 2)
        with pytest.raises(ValueError):
            SegmentIndexMap(every_frame(cps), cps)([1.0])

    def test_select_segments_weighs_each_segment_by_its_length(self, monkeypatch):
        instances = []

        def spy(inst):
            instances.append(inst)
            return np.zeros(inst.values.shape, dtype=bool)

        monkeypatch.setattr(decoder, "knapsack_select", spy)
        cps = ChangePointPartition(((0, 2), (3, 4)), 5)
        select_segments([1, 1, 1, 5, 5], SegmentIndexMap(every_frame(cps), cps), 0.6)
        (inst,) = instances
        assert inst.values.tolist() == [1, 5]
        assert inst.weights == (3, 2) and inst.capacity == 3

    def test_rows_equal_one_dimensional_means_bit_for_bit(self):
        # A 2-D mean(axis=1) sums in another order and differs in the last
        # bits; segment values must equal the 1-D mean of each segment's frame
        # scores, row by row.
        rng = np.random.default_rng(17)
        cases = [(rng.integers(1, 40, 6), 4), (rng.integers(60, 200, 80), 3), ([9000, 1, 300], 2)]
        for lengths, k in cases:
            ends = np.cumsum(lengths) - 1
            cps = ChangePointPartition(tuple(zip(ends - lengths + 1, ends)), int(ends[-1]) + 1)
            picks = PickSequence(tuple(range(0, cps.n_frames, 7)))
            frame_scores = rng.standard_normal((k, cps.n_frames)) * 10.0 ** rng.integers(-3, 4, (k, 1))
            for scores, pick_seq in (
                (frame_scores, every_frame(cps)),
                (rng.uniform(0, 1, (k, len(picks))), picks),
            ):
                frames = expand_scores(scores, pick_seq, cps.n_frames)
                values = SegmentIndexMap(pick_seq, cps)(scores)
                expected = [[row[a : e + 1].mean() for a, e in cps.segments] for row in frames]
                assert values.shape == (k, cps.n_segments)
                assert values.tobytes() == np.array(expected).tobytes()
                assert SegmentIndexMap(pick_seq, cps)(scores[0]).tobytes() == values[0].tobytes()


class TestKnapsackSelect:
    def test_classic_instance(self):
        inst = SegmentKnapsackInstance([60.0, 100.0, 120.0], (10, 20, 30), 50)
        selection = knapsack_select(inst)
        assert selection.tolist() == [False, True, True]
        assert total_value(inst.values, selection) == 220.0

    def test_everything_fits(self):
        inst = SegmentKnapsackInstance([1.0, 2.0, 3.0], (2, 3, 4), 100)
        assert knapsack_select(inst).all()

    def test_tie_breaks_to_lowest_index(self):
        inst = SegmentKnapsackInstance([1.0, 1.0], (1, 1), 1)
        assert knapsack_select(inst).tolist() == [True, False]

    def test_equal_value_prefers_lighter_selection(self):
        # {0} and {1} both reach value 2; segment 1 weighs less
        inst = SegmentKnapsackInstance([2.0, 2.0], (3, 2), 3)
        assert knapsack_select(inst).tolist() == [False, True]

    def test_zero_capacity(self):
        inst = SegmentKnapsackInstance([5.0, 5.0], (1, 1), 0)
        assert not knapsack_select(inst).any()

    def test_negative_values_never_forced(self):
        inst = SegmentKnapsackInstance([-1.0, 3.0, -0.5], (1, 1, 1), 3)
        assert knapsack_select(inst).tolist() == [False, True, False]

    def test_invalid_weights(self):
        with pytest.raises(ValueError, match="weights"):
            SegmentKnapsackInstance([1.0], (0,), 1)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            m = int(rng.integers(1, 16))
            weights = tuple(int(w) for w in rng.integers(1, 21, m))
            values = np.round(rng.uniform(0, 10, m), 3)
            cap = int(rng.integers(0, 61))
            selection = knapsack_select(SegmentKnapsackInstance(values, weights, cap))
            best_value, best_subset = brute_force_knapsack(values, weights, cap)
            assert total_value(values, selection) == best_value
            assert tuple(np.flatnonzero(selection)) == best_subset
            assert sum(w for w, s in zip(weights, selection) if s) <= cap


    def test_rows_equal_single_solves_and_brute_force(self):
        # Random and tie-heavy value rows, zero capacity included. Every row
        # reaches the brute-force value. Where sums are exact (constant and
        # dyadic rows) the set is the brute-force one too; with 0.1-style
        # values a rounded tie can leave the DP on another set of equal value.
        rng = np.random.default_rng(31)
        for trial in range(300):
            m = int(rng.integers(1, 11))
            weights = tuple(int(w) for w in rng.integers(1, 21, m))
            cap = 0 if trial % 10 == 0 else int(rng.integers(0, 61))
            rows = np.vstack([
                np.full(m, 0.5),
                rng.choice([0.25, 0.5, 0.75, 1.0, -0.25], m),
                np.round(rng.uniform(-2, 10, m), 3),
                rng.choice([0.1, 0.2, 0.3, 0.7, 1.0, -0.1], m),
            ])
            batch = knapsack_select(SegmentKnapsackInstance(rows, weights, cap))
            assert batch.shape == rows.shape and batch.dtype == bool
            for r, (row, selection) in enumerate(zip(rows, batch)):
                single = knapsack_select(SegmentKnapsackInstance(row, weights, cap))
                assert np.array_equal(selection, single)
                best_value, best_subset = brute_force_knapsack(row, weights, cap)
                assert total_value(row, selection) == best_value
                assert sum(w for w, s in zip(weights, selection) if s) <= cap
                if r < 2:
                    assert tuple(np.flatnonzero(selection)) == best_subset

    def test_long_instances_keep_the_tie_order(self, keyed_rows):
        # Fillers (value -1, weight 1) are never worth taking but make the
        # rows 54 to 135 items long, while the tie-heavy real items decide
        # the answer; it must still be the brute-force one.
        rng = np.random.default_rng(32)
        keyed_solves = 0
        for _ in range(20):
            real = 9
            cap = int(rng.integers(1, 40))
            spacing = int(rng.integers(6, 16))
            m = real * spacing
            real_at = np.arange(real) * spacing + int(rng.integers(0, spacing))
            values = np.full(m, -1.0)
            weights = [1] * m
            values[real_at] = rng.choice([0.25, 0.5, 0.75, 1.0], real)
            real_weights = [int(w) for w in rng.integers(1, 8, real)]
            for index, w in zip(real_at, real_weights):
                weights[index] = w
            selection = knapsack_select(SegmentKnapsackInstance(values, weights, cap))
            _, best_subset = brute_force_knapsack(values[real_at], real_weights, cap)
            assert tuple(np.flatnonzero(selection)) == tuple(real_at[list(best_subset)])
            assert all(np.array_equal(rows, values[None]) for rows in keyed_rows)
            keyed_solves += len(keyed_rows)
            keyed_rows.clear()
        # the tie-heavy rows went through the keyed DP
        assert keyed_solves >= 10

    def test_tied_rows_in_one_call_keep_each_rows_tie_order(self, keyed_rows):
        # Five tie-heavy rows in one call, each with its fillers (value -1)
        # in its own places: the keyed DP solves the five rows at once, and
        # each row must still get its own brute-force set.
        rng = np.random.default_rng(43)
        widths = []
        for _ in range(10):
            real, k = 9, 5
            cap = int(rng.integers(8, 40))
            spacing = int(rng.integers(8, 16))
            weights = tuple(int(w) for w in rng.integers(1, 8, real * spacing))
            real_at = np.arange(real) * spacing + rng.choice(spacing, (k, 1), replace=False)
            rows = np.full((k, real * spacing), -1.0)
            for row, at in zip(rows, real_at):
                row[at] = rng.choice([0.25, 0.5, 0.75, 1.0], real)
            batch = knapsack_select(SegmentKnapsackInstance(rows, weights, cap))
            for row, at, selection in zip(rows, real_at, batch):
                _, best_subset = brute_force_knapsack(row[at], [weights[i] for i in at], cap)
                assert tuple(np.flatnonzero(selection)) == tuple(at[list(best_subset)])
            widths += [len(rows) for rows in keyed_rows]
            keyed_rows.clear()
        # every keyed solve saw a batch of rows, and some saw all five
        assert widths and min(widths) > 1 and max(widths) == 5

    def test_keyed_dp_equals_the_packed_key_dp(self, monkeypatch):
        # The membership-row DP against the int64-key DP it replaced, bit for
        # bit: dyadic, constant and 0.1-step rows (rounded ties), NaN and
        # +-inf, capacity 0, 1 to 5 rows, and one instance in eight 60 to 200
        # items long, which makes the packed keys re-rank.
        rng = np.random.default_rng(44)
        reranks = []
        rerank = oracles._rerank
        monkeypatch.setattr(oracles, "_rerank", lambda *args: reranks.append(1) or rerank(*args))
        kinds = [
            lambda k, m: rng.choice([0.25, 0.5, 0.75, 1.0, -0.25], (k, m)),
            lambda k, m: np.full((k, m), 0.5),
            lambda k, m: rng.choice([0.1, 0.2, 0.3, 0.7, 1.0, -0.1], (k, m)),
            lambda k, m: np.round(rng.uniform(-1, 2, (k, m)), 1),
            lambda k, m: rng.choice([np.nan, np.inf, -np.inf, 0.5, 1.0, -1.0], (k, m)),
        ]
        for trial in range(2000):
            k = int(rng.integers(1, 6))
            long = trial % 8 == 7
            m = int(rng.integers(60, 201)) if long else int(rng.integers(1, 12))
            weights = tuple(int(w) for w in rng.integers(1, 5 if long else 21, m))
            cap = 0 if trial % 20 == 0 else int(rng.integers(1, 81))
            rows = kinds[trial % len(kinds)](k, m)
            fits = [i for i, w in enumerate(weights) if w <= cap]
            with np.errstate(invalid="ignore"):  # inf + -inf
                selection = decoder._keyed_dp(rows, weights, cap, fits)
                assert np.array_equal(selection, oracles.packed_key_dp(rows, weights, cap, fits))
        assert len(reranks) >= 250

    def test_only_tied_rows_enter_the_keyed_dp(self, keyed_rows):
        # Constant and dyadic rows whose first two items are equal and fit
        # always meet an exact tie (both make a one-item set in the larger
        # item's cell); continuous rows do not. A last item as heavy as the
        # budget keeps every cell of the first two items live (W_after >= cap),
        # so the tie lies on a cell that reaches cap. One batch interleaves them.
        rng = np.random.default_rng(33)
        tie_heavy = np.array([False, True, False, True, True, False])
        for _ in range(60):
            m = int(rng.integers(3, 12))
            cap = int(rng.integers(20, 61))
            weights = tuple(int(w) for w in rng.integers(1, 21, m - 1)) + (cap,)
            dyadic = rng.choice([0.25, 0.5, 0.75, 1.0, -0.25], m)
            dyadic[1] = dyadic[0] = 0.75
            rows = np.vstack([
                rng.uniform(-2, 10, m),
                np.full(m, 0.5),
                rng.uniform(0, 1, m),
                dyadic,
                np.full(m, 2.0),
                rng.standard_normal(m),
            ])
            batch = knapsack_select(SegmentKnapsackInstance(rows, weights, cap))
            assert len(keyed_rows) == 1 and np.array_equal(keyed_rows.pop(), rows[tie_heavy])
            assert np.array_equal(batch, keyed_dp(rows, weights, cap))
            for row, selection, tied in zip(rows, batch, tie_heavy):
                single = knapsack_select(SegmentKnapsackInstance(row, weights, cap))
                assert np.array_equal(selection, single)
                best_value, best_subset = brute_force_knapsack(row, weights, cap)
                assert total_value(row, selection) == best_value
                if tied:  # exact sums: the brute-force set too
                    assert tuple(np.flatnonzero(selection)) == best_subset
            keyed_rows.clear()

    def test_continuous_rows_skip_the_keyed_dp(self, keyed_rows):
        rng = np.random.default_rng(34)
        for k, m, cap in [(1, 80, 1536), (9, 40, 300), (101, 12, 50)]:
            weights = tuple(int(w) for w in rng.integers(1, 2 * cap // m + 3, m))
            rows = rng.uniform(0, 1, (k, m))
            batch = knapsack_select(SegmentKnapsackInstance(rows, weights, cap))
            assert keyed_rows == []
            assert np.array_equal(batch, keyed_dp(rows, weights, cap))

    def test_non_finite_rows_select_what_the_keyed_dp_selects(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            weights = tuple(int(w) for w in rng.integers(1, 11, m))
            cap = int(rng.integers(0, 31))
            rows = rng.choice([np.nan, np.inf, -np.inf, 0.5, 1.0], (4, m))
            rows[3] = rng.uniform(-1, 1, m)
            rows[3, int(rng.integers(0, m))] = rng.choice([np.nan, np.inf, -np.inf])
            with np.errstate(invalid="ignore"):  # inf + -inf
                batch = knapsack_select(SegmentKnapsackInstance(rows, weights, cap))
                assert np.array_equal(batch, keyed_dp(rows, weights, cap))

    def test_rejects_rows_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="equal length"):
            SegmentKnapsackInstance(np.zeros((2, 3)), (1, 1), 1)

    def test_rejects_fractional_weights_and_capacity(self):
        # int() used to truncate (2.7, 1.5) to (2, 1), 4.2 true frames that
        # both fit in a budget of 3
        with pytest.raises(ValueError, match=r"weights\[0\] must be an integer, got 2\.7"):
            SegmentKnapsackInstance([1.0, 1.0], (2.7, 1.5), 3)
        with pytest.raises(ValueError, match=r"weights\[1\] must be an integer, got 1\.5"):
            SegmentKnapsackInstance([1.0, 1.0], (2, 1.5), 3)
        for cap in (2.5, float("nan")):
            with pytest.raises(ValueError, match="capacity must be an integer"):
                SegmentKnapsackInstance([1.0, 1.0], (2, 1), cap)

    def test_accepts_integral_numpy_scalars(self):
        inst = SegmentKnapsackInstance([1.0, 1.0], tuple(np.array([2, 1])), np.int64(3))
        assert inst.weights == (2, 1) and inst.capacity == 3
        assert all(type(x) is int for x in (*inst.weights, inst.capacity))
        assert knapsack_select(inst).tolist() == [True, True]


def block_rows(monkeypatch, rows, cap):
    """Make knapsack_select solve `rows`-row blocks at capacity `cap`."""
    monkeypatch.setattr(decoder, "_BLOCK_CELLS", rows * (cap + 1))


@pytest.fixture()
def block_sizes(monkeypatch):
    """The row count of each block knapsack_select hands to the value DP."""
    sizes = []
    value_dp = decoder._value_dp

    def spy(rows, *args):
        sizes.append(len(rows))
        return value_dp(rows, *args)

    monkeypatch.setattr(decoder, "_value_dp", spy)
    return sizes


class TestRowBlocks:
    def test_small_blocks_equal_single_solves(self, monkeypatch):
        # 7 rows in blocks of 1, 2 and 3 (the last block ragged), continuous
        # and tie-heavy rows mixed, so some blocks re-solve rows with the keyed DP
        rng = np.random.default_rng(36)
        for _ in range(30):
            m = int(rng.integers(1, 11))
            weights = tuple(int(w) for w in rng.integers(1, 21, m))
            cap = int(rng.integers(0, 61))
            rows = np.vstack([
                rng.uniform(-2, 10, m),
                np.full(m, 0.5),
                rng.choice([0.25, 0.5, 0.75, 1.0, -0.25], m),
                rng.standard_normal(m),
                rng.choice([0.1, 0.2, 0.3, 0.7, 1.0, -0.1], m),
                np.full(m, 2.0),
                rng.uniform(0, 1, m),
            ])
            singles = [knapsack_select(SegmentKnapsackInstance(row, weights, cap)) for row in rows]
            for size in (1, 2, 3):
                block_rows(monkeypatch, size, cap)
                batch = knapsack_select(SegmentKnapsackInstance(rows, weights, cap))
                assert batch.shape == rows.shape and batch.dtype == bool
                assert np.array_equal(batch, np.array(singles))

    def test_fewer_cells_than_one_row_solve_one_row_a_block(self, monkeypatch, block_sizes):
        monkeypatch.setattr(decoder, "_BLOCK_CELLS", 10)
        rows = np.random.default_rng(37).uniform(0, 1, (3, 5))
        batch = knapsack_select(SegmentKnapsackInstance(rows, (4, 5, 6, 7, 8), 20))
        assert block_sizes == [1, 1, 1]
        assert np.array_equal(batch, keyed_dp(rows, (4, 5, 6, 7, 8), 20))

    def test_tied_rows_in_two_blocks_match_the_keyed_dp(self, monkeypatch, keyed_rows):
        # rows 1 and 4 tie exactly (value columns 0 and 1 are equal and both
        # fit, and a last item as heavy as the budget keeps the tie on a
        # cell that reaches cap); in blocks of 3 they fall in different
        # blocks, so each block sends its own tied row to the keyed DP
        rng = np.random.default_rng(38)
        for _ in range(20):
            m = int(rng.integers(3, 12))
            cap = int(rng.integers(20, 61))
            weights = tuple(int(w) for w in rng.integers(1, 21, m - 1)) + (cap,)
            rows = rng.uniform(0, 1, (6, m))
            rows[[1, 4], 1] = rows[[1, 4], 0]
            block_rows(monkeypatch, 3, cap)
            batch = knapsack_select(SegmentKnapsackInstance(rows, weights, cap))
            assert len(keyed_rows) == 2
            assert np.array_equal(keyed_rows[0], rows[[1]]) and np.array_equal(keyed_rows[1], rows[[4]])
            for row, selection in zip(rows, batch):
                assert np.array_equal(selection, keyed_dp(row[None], weights, cap)[0])
            keyed_rows.clear()

    def test_empty_batch_and_zero_capacity(self, monkeypatch):
        monkeypatch.setattr(decoder, "_BLOCK_CELLS", 2)
        empty = knapsack_select(SegmentKnapsackInstance(np.zeros((0, 4)), (1, 2, 3, 4), 10))
        assert empty.shape == (0, 4) and empty.dtype == bool
        # capacity 0: blocks of 2 rows, and nothing fits
        rows = np.random.default_rng(39).uniform(0, 1, (5, 4))
        none = knapsack_select(SegmentKnapsackInstance(rows, (1, 2, 3, 4), 0))
        assert none.shape == (5, 4) and not none.any()

    def test_paper_size_batch_equals_one_block(self, monkeypatch, block_sizes):
        # the flip rate's batch at paper scale: 101 rows, 80 segments, budget
        # 1536 of 10,240 frames, cut at frame level (weights not all multiples
        # of 32, as real change points fall on any frame)
        rng = np.random.default_rng(40)
        cuts = np.sort(rng.choice(np.arange(1, 10240), 79, replace=False))
        weights = tuple(int(w) for w in np.diff(np.concatenate([[0], cuts, [10240]])))
        assert any(w % 32 for w in weights)
        rows = rng.uniform(0, 1, 80) + rng.normal(0, 0.05, (101, 80))
        inst = SegmentKnapsackInstance(rows, weights, 1536)
        blocked = knapsack_select(inst)
        block = decoder._BLOCK_CELLS // 1537
        assert 1 < len(block_sizes) and sum(block_sizes) == 101 and max(block_sizes) == block
        block_rows(monkeypatch, 101, 1536)
        assert np.array_equal(blocked, knapsack_select(inst))
        assert block_sizes[-1] == 101


def check_against_reference(value_dp, rows, weights, cap, fits):
    """`value_dp`'s selection and tie flags on one block, checked against the
    row-major reference, which compares every cell: the selection bit for
    bit; the flags a subset of the reference's (the value pass drops ties on
    cells that cannot reach cap); and each row flagged only by the reference
    solved by the keyed DP to the same selection."""
    selection, tied = value_dp(rows, weights, cap, fits)
    reference, reference_tied = reference_value_dp(rows, weights, cap, fits)
    assert np.array_equal(selection, reference)
    assert not (tied & ~reference_tied).any()
    dropped = reference_tied & ~tied
    if dropped.any():
        assert np.array_equal(_KEYED_DP(rows[dropped], weights, cap, fits), selection[dropped])
    return selection, tied, reference_tied


@pytest.fixture()
def checked_value_dp(monkeypatch):
    """Checks every block the value DP solves against the reference (see
    `check_against_reference`); returns each block's tie flags and the
    reference's."""
    blocks = []
    value_dp = decoder._value_dp

    def check(rows, weights, cap, fits):
        selection, tied, reference_tied = check_against_reference(value_dp, rows, weights, cap, fits)
        blocks.append((tied, reference_tied))
        return selection, tied

    monkeypatch.setattr(decoder, "_value_dp", check)
    return blocks


class TestValueDpReference:
    def test_mixed_batches_in_blocks_of_every_size(self, monkeypatch, checked_value_dp):
        rng = np.random.default_rng(41)
        opposed_fit = 0
        for _ in range(40):
            m = int(rng.integers(2, 11))
            weights = tuple(int(w) for w in rng.integers(1, 21, m))
            cap = int(rng.integers(0, 61))
            opposed = rng.uniform(-1, 1, m)
            opposed[[0, -1]] = np.inf, -np.inf  # where both fit: an inf + -inf candidate
            opposed_fit += weights[0] + weights[-1] <= cap
            rows = np.vstack([
                rng.uniform(-2, 10, m),
                rng.choice([0.25, 0.5, 0.75, 1.0, -0.25], m),
                np.full(m, 0.5),
                rng.choice([0.1, 0.2, 0.3, 0.7, 1.0, -0.1], m),
                rng.choice([np.nan, np.inf, -np.inf, 0.5, 1.0], m),
                opposed,
                rng.standard_normal(m),
            ])
            inst = SegmentKnapsackInstance(rows, weights, cap)
            with np.errstate(invalid="ignore"):
                for size in (1, 2, 3):
                    block_rows(monkeypatch, size, cap)
                    knapsack_select(inst)
                monkeypatch.setattr(decoder, "_BLOCK_CELLS", _BLOCK_CELLS)
                knapsack_select(inst)
        tied = np.concatenate([flags for flags, _ in checked_value_dp])
        assert len(tied) == 40 * 4 * 7 and tied.any() and not tied.all() and opposed_fit
        # some rows tie only on cells that cannot reach cap, and the keyed DP
        # was checked on them
        assert any((reference & ~flags).any() for flags, reference in checked_value_dp)

    def test_paper_size_batch_with_frame_level_weights(self, checked_value_dp):
        # the flip rate's 101 rows at budget 1536, cut at frame level; five
        # dyadic rows tie, the noisy ones do not
        rng = np.random.default_rng(42)
        cuts = np.sort(rng.choice(np.arange(1, 10240), 79, replace=False))
        weights = tuple(int(w) for w in np.diff(np.concatenate([[0], cuts, [10240]])))
        assert sum(w % 32 != 0 for w in weights) > 70
        rows = rng.uniform(0, 1, 80) + rng.normal(0, 0.05, (101, 80))
        rows[:5] = np.round(rows[:5] * 4) / 4
        knapsack_select(SegmentKnapsackInstance(rows, weights, 1536))
        fits = [i for i, w in enumerate(weights) if w <= 1536]
        decoder._value_dp(rows, weights, 1536, fits)  # one block of 101
        tied, reference_tied = checked_value_dp[-1]
        assert len(checked_value_dp) > 2 and len(tied) == 101
        assert tied[:5].all() and not tied[5:].any() and np.array_equal(tied, reference_tied)


def mixed_rows(rng, m):
    """Continuous, dyadic, constant, 0.1-step, integer and non-finite rows."""
    return np.vstack([
        rng.uniform(-2, 10, m),
        rng.choice([0.25, 0.5, 0.75, 1.0, -0.25], m),
        np.full(m, 0.5),
        rng.choice([0.1, 0.2, 0.3, 0.7, 1.0, -0.1], m),
        rng.integers(-1, 4, m).astype(float),
        rng.choice([np.nan, np.inf, -np.inf, 0.5, 1.0], m),
        rng.standard_normal(m),
    ])


def check_live_cells(rows, weights, cap):
    """The value pass against the reference (every cell) on one block, and
    knapsack_select against brute force, row by row."""
    fits = [i for i, w in enumerate(weights) if w <= cap]
    with np.errstate(invalid="ignore"):  # inf + -inf
        check_against_reference(decoder._value_dp, rows, weights, cap, fits)
        batch = knapsack_select(SegmentKnapsackInstance(rows, weights, cap))
    for r, (row, selection) in enumerate(zip(rows, batch)):
        assert sum(w for w, s in zip(weights, selection) if s) <= cap
        if np.isfinite(row).all():
            best_value, best_subset = brute_force_knapsack(row, weights, cap)
            assert total_value(row, selection) == best_value
            if r in (1, 2, 4):  # exact sums: the brute-force set too
                assert tuple(np.flatnonzero(selection)) == best_subset


class TestLiveCells:
    """Each item's pass covers only its live cells [lo, hi] (module docstring)."""

    def test_ranges_by_hand(self):
        # weight 50 > cap 10 is no fitting item; W_upto 3, 7, 9, 14 gives hi
        # 3, 7, 9, 10 and cap - W_after -1, 3, 5, 10 gives lo 3, 4, 5, 10
        weights = (3, 50, 4, 2, 5)
        assert decoder._ranges(weights, 10, [0, 2, 3, 4]) == [(3, 3), (4, 7), (5, 9), (10, 10)]
        # everything fits (total 14 < cap 20): cap - W_after (9, 13, 15, 20)
        # lies above hi, and the clamp keeps the one cell hi
        assert decoder._ranges(weights, 20, [0, 2, 3, 4]) == [(3, 3), (7, 7), (9, 9), (14, 14)]
        assert decoder._ranges(weights, 0, []) == []

    @pytest.mark.parametrize(
        "weights, cap",
        [
            ((2, 3, 1, 4, 6, 5, 7), 12),  # the first four items: W_upto < cap
            ((9, 7, 8, 6, 9, 5), 20),  # the last items: lo above w
            ((3, 40, 5, 2, 50, 4, 6), 10),  # items heavier than cap between the others
            ((3, 4, 2, 1), 30),  # total weight < cap: unclamped, lo > hi
            ((3, 4, 2, 1), 10),  # total weight == cap
            ((3, 4, 2, 1), 0),
            ((5,), 5),
            ((5,), 9),
            ((5,), 4),
        ],
    )
    def test_bounds_against_reference_and_brute_force(self, weights, cap):
        rng = np.random.default_rng(sum(weights) * 101 + cap)
        for _ in range(20):
            check_live_cells(mixed_rows(rng, len(weights)), weights, cap)

    def test_random_instances_against_reference_and_brute_force(self):
        rng = np.random.default_rng(44)
        for _ in range(150):
            m = int(rng.integers(1, 10))
            weights = tuple(int(w) for w in rng.integers(1, 25, m))
            cap = int(rng.integers(0, sum(weights) + 5))
            check_live_cells(mixed_rows(rng, m), weights, cap)

    def test_tile_changes_no_selection_or_flag(self, monkeypatch, block_sizes):
        # every block tiled (no least capacity), at the default tile and at
        # one cell a tile (the broadcast add), in blocks of 1, 2 and 3 rows
        solved = []
        value_dp = decoder._value_dp

        def spy(*args):
            solved.append(value_dp(*args))
            return solved[-1]

        monkeypatch.setattr(decoder, "_value_dp", spy)
        monkeypatch.setattr(decoder, "_TILED_CAP", 0)
        rng = np.random.default_rng(45)
        for _ in range(40):
            m = int(rng.integers(1, 10))
            weights = tuple(int(w) for w in rng.integers(1, 25, m))
            cap = int(rng.integers(0, 70))
            rows = mixed_rows(rng, m)
            results = []
            for tile in (_TILE_CELLS, 1):
                monkeypatch.setattr(decoder, "_TILE_CELLS", tile)
                for size in (1, 2, 3):
                    block_rows(monkeypatch, size, cap)
                    solved.clear()
                    with np.errstate(invalid="ignore"):
                        batch = knapsack_select(SegmentKnapsackInstance(rows, weights, cap))
                    tied = np.concatenate([flags for _, flags in solved])
                    results.append((batch, tied))
            for batch, tied in results[1:]:
                assert np.array_equal(batch, results[0][0]) and np.array_equal(tied, results[0][1])

    def test_candidate_table_starts_on_a_cache_line(self):
        assert _TILE_CELLS * 8 % 64 == 0  # so every tile row of it does too
        for n in (1, 7, 16 * 21, 1537 * 42):
            table = decoder._aligned(n)
            assert table.shape == (n,) and table.ctypes.data % 64 == 0


def paper_flip_batch(seed):
    """The flip rate's batch at paper scale, from a seeded-init model: 320
    picks 32 frames apart (10,240 frames), 80 segments cut at frame level on
    a jittered grid, each pick's 1,024 features made as the paper corpus
    makes them (its segment's embedding, plus an importance times a shared
    one, plus noise), and the signal with 100 noisy copies (sigma 0.05),
    pooled to segment values. Returns the [101, 80] values and the segment
    lengths; the budget is 1536."""
    rng = np.random.default_rng(seed)
    picks = PickSequence(range(0, 10240, 32))
    bounds = np.concatenate([[0], np.arange(1, 80) * 128 + rng.integers(-32, 33, 79), [10240]])
    cps = ChangePointPartition(tuple((int(a), int(b) - 1) for a, b in zip(bounds[:-1], bounds[1:])), 10240)
    seg = assign_segment_ids(picks, cps)
    ids = np.array(seg.segment_ids)
    embed = rng.uniform(-1.0, 1.0, (81, 1024))
    features = rng.uniform(0.0, 1.0, 80)[ids, None] * embed[0] + embed[1:][ids]
    features += 0.05 * rng.standard_normal((320, 1024))
    cfg = RunConfig()  # the paper dims
    params = trainer.init_all_params(cfg, rng)
    video = VideoRecord("paper", features, picks, cps, np.zeros((1, 320)))
    signal = trainer.predict_scores(params, video, seg, cfg)["signal"]
    rows = np.concatenate((signal[None], signal + rng.normal(0.0, 0.05, (100, 320))))
    return SegmentIndexMap(picks, cps)(rows), cps.lengths()


@pytest.fixture()
def dp_items(monkeypatch):
    """The number of items each block's value DP receives."""
    counts = []
    value_dp = decoder._value_dp

    def spy(rows, weights, cap, fits):
        counts.append(len(fits))
        return value_dp(rows, weights, cap, fits)

    monkeypatch.setattr(decoder, "_value_dp", spy)
    return counts


def check_unreduced(rows, weights, cap):
    """knapsack_select's selection, checked against the unreduced DP's bit for bit."""
    with np.errstate(invalid="ignore"):  # inf + -inf
        batch = knapsack_select(SegmentKnapsackInstance(rows, weights, cap))
        assert np.array_equal(batch, unreduced_knapsack(rows, weights, cap))
    return batch


class TestReduction:
    """Each block drops the items that no row's optimum can hold (module
    docstring), and every selection stays the unreduced DP's."""

    def test_paper_batches_equal_the_unreduced_dp(self, dp_items):
        for seed in range(4):
            rows, weights = paper_flip_batch(seed)
            assert sum(w % 32 != 0 for w in weights) > 60  # frame-level cuts
            for k in (1, 9, 101):
                dp_items.clear()
                check_unreduced(rows[:k], weights, 1536)
                assert max(dp_items) < 80

    def test_tie_heavy_integer_and_signed_rows_equal_the_unreduced_dp(self, dp_items, keyed_rows):
        # rounded ties (0.1 steps), exact ties (integers, dyadics with signed
        # zeros), and rows of mostly negative or zero values, with enough
        # items to reduce and weights scaled up to capacities in the hundreds
        rng = np.random.default_rng(46)
        kinds = [
            lambda k, m: rng.choice([0.1, 0.2, 0.3, 0.7, 1.0, -0.1], (k, m)),
            lambda k, m: rng.integers(-1, 4, (k, m)).astype(float),
            lambda k, m: rng.choice([0.25, 0.5, 1.0, 0.0, -0.0, -0.25], (k, m)),
            lambda k, m: rng.choice([-1.0, -0.5, 0.0, -0.0, 0.5], (k, m)),
            lambda k, m: rng.uniform(-1.0, 0.3, (k, m)),
        ]
        fitting = 0
        for trial in range(100):
            m = int(rng.integers(_REDUCED_ITEMS, 49))
            weights = tuple(int(w) for w in rng.integers(1, 21, m) * int(rng.integers(1, 9)))
            cap = int(rng.integers(1, sum(weights) // 2 + 2))
            rows = kinds[trial % len(kinds)](int(rng.integers(1, 5)), m)
            dp_items.clear()
            check_unreduced(rows, weights, cap)
            fits = sum(w <= cap for w in weights)
            fitting += fits >= _REDUCED_ITEMS and max(dp_items) < fits
        # most instances dropped items, and tied rows went through the keyed pass
        assert fitting > 50 and len(keyed_rows) > 20

    def test_non_finite_rows_take_the_fallback(self, dp_items):
        # a NaN or infinite value anywhere in a block: every fitting item
        # reaches the DP, and the selection is still the unreduced one
        rng = np.random.default_rng(47)
        for _ in range(30):
            m = int(rng.integers(_REDUCED_ITEMS, 49))
            weights = tuple(int(w) for w in rng.integers(1, 21, m))
            cap = int(rng.integers(sum(weights) // 8, sum(weights) // 2))
            rows = rng.uniform(0.0, 1.0, (3, m))
            rows[int(rng.integers(0, 3)), int(rng.integers(0, m))] = rng.choice([np.nan, np.inf, -np.inf])
            dp_items.clear()
            check_unreduced(rows, weights, cap)
            assert dp_items == [sum(w <= cap for w in weights)]

    def test_small_instances_reach_the_brute_force_value(self, monkeypatch, dp_items):
        # the gate lowered to one item, so instances small enough to
        # enumerate reduce too
        monkeypatch.setattr(decoder, "_REDUCED_ITEMS", 1)
        rng = np.random.default_rng(48)
        dropped = 0
        for trial in range(300):
            m = int(rng.integers(1, 10))
            weights = tuple(int(w) for w in rng.integers(1, 21, m))
            cap = int(rng.integers(0, sum(weights) + 5))
            rows = mixed_rows(rng, m)[:5]  # continuous, dyadic, constant, 0.1-step, integer
            check_unreduced(rows, weights, cap)
            for r, row in enumerate(rows):  # one row a block, which drops the most
                dp_items.clear()
                selection = check_unreduced(row, weights, cap)
                dropped += max(dp_items, default=0) < sum(w <= cap for w in weights)
                best_value, best_subset = brute_force_knapsack(row, weights, cap)
                assert total_value(row, selection) == best_value
                if r in (1, 2, 4):  # exact sums: the brute-force set too
                    assert tuple(np.flatnonzero(selection)) == best_subset
        assert dropped > 300

    def test_the_reduction_is_live_and_gated(self, monkeypatch, dp_items):
        # paper batches: fewer than half the fitting items reach the DP, in
        # the flip rate's K = 101 blocks and in a single decode
        kept = []
        batches = [paper_flip_batch(seed) for seed in range(4)]
        for rows, weights in batches:
            dp_items.clear()
            knapsack_select(SegmentKnapsackInstance(rows, weights, 1536))
            kept += dp_items
            dp_items.clear()
            knapsack_select(SegmentKnapsackInstance(rows[0], weights, 1536))
            assert dp_items[0] < 40
        assert len(kept) > 4 and sum(kept) < 40 * len(kept)
        # below the gate, every fitting item reaches it
        rng = np.random.default_rng(49)
        for m in (6, _REDUCED_ITEMS - 1):
            weights = tuple(int(w) for w in rng.integers(1, 200, m))
            dp_items.clear()
            knapsack_select(SegmentKnapsackInstance(rng.uniform(0, 1, (9, m)), weights, 1536))
            assert dp_items == [sum(w <= 1536 for w in weights)]
        # and with the gate out of reach, every item of a paper batch does
        monkeypatch.setattr(decoder, "_REDUCED_ITEMS", 1 << 40)
        dp_items.clear()
        knapsack_select(SegmentKnapsackInstance(*batches[0], 1536))
        assert dp_items and all(n == 80 for n in dp_items)
        # by hand: ratios 2, 1.5, 1 and 0.1; the LP prefix {0, 1} weighs 9 of
        # 10, so r = 1 (item 2, the break item), U = 16 + 1 and LB = 16. A
        # set that holds the heavy item 3 is worth at most U - (1*10 - 1) = 8
        # < LB, so it goes; the break item stays; the items of value 0 and -2 go
        values = np.array([[10.0, 6.0, 4.0, 1.0, 0.0, -2.0]])
        weights = (5, 4, 4, 10, 1, 1)
        assert decoder._reduce(values, weights, 10, list(range(6))) == [0, 1, 2]
        assert knapsack_select(SegmentKnapsackInstance(values[0], weights, 10)).tolist() == [
            True, True, False, False, False, False]


class TestDecodeSummary:
    def test_refuses_a_batch_of_rows(self):
        # a [2, 3] batch used to fail inside numpy's broadcasting
        cps = ChangePointPartition(((0, 1), (2, 5)), 6)
        with pytest.raises(ValueError, match=r"shape \(2, 3\); select_segments"):
            decode_summary(np.ones((2, 3)), PickSequence((0, 2, 4)), cps, rho=0.5)

    def test_a_pick_outside_the_partition_is_refused_by_every_decode(self):
        # pick 50 lies past the last frame, so no segment holds its score
        picks = PickSequence((0, 4, 50))
        cps = ChangePointPartition(((0, 4), (5, 9)), 10)
        scores = np.array([0.3, 0.9, 0.5])
        message = r"^pick 50 \(timestep 2\) lies outside every segment$"
        for decode in (
            lambda: decode_summary(scores, picks, cps, rho=0.5),
            lambda: select_segments(np.stack((scores, scores)), SegmentIndexMap(picks, cps), rho=0.5),
            lambda: flip_rate(scores, picks, cps, 0.5, 0.1, 5, 0),
        ):
            with pytest.raises(CoverageError, match=message):
                decode()

    def test_single_oversized_segment_gives_empty_summary(self):
        mask = decode_summary(
            [1.0], PickSequence((0,)), ChangePointPartition(((0, 9),), 10), rho=0.5
        )
        assert mask.selected_segments == ()
        assert not mask.y.any()

    def test_only_weight_one_item_fits(self):
        cps = ChangePointPartition(((0, 0), (1, 9)), 10)
        mask = decode_summary([1.0, 1.0], PickSequence((0, 1)), cps, rho=0.15)
        assert mask.selected_segments == (0,)
        assert mask.y.tolist() == [True] + [False] * 9

    def test_unit_segments_pick_top_half(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 13))
            scores = rng.standard_normal(m)
            cps = ChangePointPartition(tuple((i, i) for i in range(m)), m)
            picks = PickSequence(tuple(range(m)))
            mask = decode_summary(scores, picks, cps, rho=0.5)
            cap = m // 2
            expected = set(np.argsort(-scores, kind="stable")[:cap])
            positive = {i for i in expected if scores[i] > 0}
            # all positive top-cap segments must be in; value must match brute force
            assert positive <= set(mask.selected_segments)
            best_value, _ = brute_force_knapsack(scores, [1] * m, cap)
            assert total_value(scores, np.isin(np.arange(m), mask.selected_segments)) == best_value

    def test_rho_bounds(self):
        cps = ChangePointPartition(((0, 3),), 4)
        picks = PickSequence((0, 2))
        with pytest.raises(ValueError, match="rho"):
            decode_summary([1.0, 1.0], picks, cps, rho=0.0)
        with pytest.raises(ValueError, match="rho"):
            decode_summary([1.0, 1.0], picks, cps, rho=1.5)

    def test_budget_never_exceeded_fuzz(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            segments, n = random_partition(rng, max_segments=8, max_len=6)
            picks = random_picks(rng, n)
            scores = rng.standard_normal(len(picks))
            rho = float(rng.uniform(0.01, 1.0))
            mask = decode_summary(scores, PickSequence(picks), ChangePointPartition(segments, n), rho)
            assert int(mask.y.sum()) <= budget(rho, n)

    def test_mask_matches_selected_segments(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            segments, n = random_partition(rng)
            picks = random_picks(rng, n)
            scores = rng.standard_normal(len(picks))
            cps = ChangePointPartition(segments, n)
            mask = decode_summary(scores, PickSequence(picks), cps, rho=0.4)
            expected = np.zeros(n, dtype=bool)
            for k in mask.selected_segments:
                s, e = segments[k]
                expected[s : e + 1] = True
            assert np.array_equal(mask.y, expected)

    def test_score_monotonicity_keeps_selected_segment(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            segments, n = random_partition(rng, max_segments=6, max_len=4)
            picks = tuple(range(n))  # a pick on every frame
            scores = rng.standard_normal(n)
            cps = ChangePointPartition(segments, n)
            mask = decode_summary(scores, PickSequence(picks), cps, rho=0.6)
            if not mask.selected_segments:
                continue
            k = mask.selected_segments[0]
            raised = scores.copy()
            s, e = segments[k]
            raised[s : e + 1] += rng.uniform(0.1, 2.0)
            mask2 = decode_summary(raised, PickSequence(picks), cps, rho=0.6)
            assert k in mask2.selected_segments

    def test_constant_shift_invariance_with_uniform_weights(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            m = int(rng.integers(2, 10))
            values = rng.standard_normal(m)
            shifted = values + 3.7
            sel_a = knapsack_select(SegmentKnapsackInstance(values + 10.0, [1] * m, m // 2))
            sel_b = knapsack_select(SegmentKnapsackInstance(shifted + 10.0, [1] * m, m // 2))
            # +10 keeps all values positive so exactly cap items are chosen
            assert np.array_equal(sel_a, sel_b)


def shaped_video(shape, seed):
    """A video on the benchmark corpus's timeline for `shape`: desk is 64
    picks 2 frames apart and 6 segments cut at random picks, paper 320 picks
    32 frames apart and 80 segments cut on a jittered grid."""
    rng = np.random.default_rng(seed)
    t_len, step, m = {"desk": (64, 2, 6), "paper": (320, 32, 80)}[shape]
    if shape == "desk":
        cuts = np.sort(rng.choice(np.arange(1, t_len), m - 1, replace=False))
    else:
        cuts = np.round(np.arange(1, m) * t_len / m).astype(int) + rng.integers(-1, 2, m - 1)
    starts = [0] + [int(c) * step for c in cuts]
    ends = [s - 1 for s in starts[1:]] + [t_len * step - 1]
    cps = ChangePointPartition(tuple(zip(starts, ends)), t_len * step)
    return VideoRecord(shape, np.zeros((t_len, 1)), PickSequence(range(0, t_len * step, step)), cps,
                       np.zeros((1, t_len)))


@pytest.fixture()
def maps_built(monkeypatch):
    """The number of `SegmentIndexMap`s built since the last reset."""
    built = [0]
    init = SegmentIndexMap.__init__

    def counted(self, picks, cps):
        built[0] += 1
        init(self, picks, cps)

    monkeypatch.setattr(SegmentIndexMap, "__init__", counted)
    return built


class TestOneMapPerDecode:
    @pytest.mark.parametrize("shape", ["desk", "paper"])
    def test_decode_and_flip_rate_build_one_map_each(self, shape, maps_built, monkeypatch):
        """`decode_summary` (K = 1) and `flip_rate` (K = 101) build one map a
        call and pass it to `select_segments`; `select_segments` on the
        video's cached map builds none and selects the same segments, bit
        for bit."""
        video = shaped_video(shape, 3)
        seg = video.segment_map
        signal = np.random.default_rng(4).uniform(0, 1, video.n_timesteps)
        batches = []

        def kept(rows, call_seg, rho):
            batches.append((rows, select_segments(rows, call_seg, rho)))
            return batches[-1][1]

        monkeypatch.setattr(evaluation, "select_segments", kept)
        maps_built[0] = 0
        mask = decode_summary(signal, video.picks, video.change_points, 0.15)
        assert maps_built[0] == 1
        flip_rate(signal, video.picks, video.change_points, 0.15, 0.05, 100, 7)
        assert maps_built[0] == 2
        ((rows, batch),) = batches
        single = select_segments(signal, seg, 0.15)
        again = select_segments(rows, seg, 0.15)
        assert maps_built[0] == 2
        assert single.shape == (seg.n_segments,) and batch.shape == (101, seg.n_segments)
        assert mask.selected_segments == tuple(single.nonzero()[0].tolist())
        assert mask.y.tobytes() == single.repeat(seg.lengths).tobytes()
        assert again.tobytes() == batch.tobytes()


class TestBudget:
    def test_floor_never_rounds_up(self):
        assert budget(0.15, 20) == 3
        assert budget(0.15, 10) == 1
        assert budget(0.15, 6) == 0
        assert budget(1.0, 7) == 7

    def test_matches_math_floor(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            rho = float(rng.uniform(0.01, 1.0))
            n = int(rng.integers(1, 500))
            assert budget(rho, n) == int(math.floor(rho * n))
