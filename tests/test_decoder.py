import math

import numpy as np
import pytest

from vastsum.decoder import (
    SegmentKnapsackInstance,
    budget,
    decode_summary,
    knapsack_select,
    segment_values,
)
from vastsum.timeline import ChangePointPartition, PickSequence, expand_scores

from oracles import brute_force_knapsack, random_partition, random_picks


def total_value(values, selection):
    acc = 0.0
    for i in np.flatnonzero(selection):
        acc += float(values[i])
    return acc


class TestSegmentValues:
    def test_constant_blocks(self):
        inst = segment_values([1, 1, 1, 5, 5], ChangePointPartition(((0, 2), (3, 4)), 5))
        assert inst.values.tolist() == [1, 5]
        assert inst.weights == (3, 2)

    def test_single_segment_global_mean(self):
        inst = segment_values([2.0, 4.0, 6.0], ChangePointPartition(((0, 2),), 3))
        assert inst.values.tolist() == [4.0]
        assert inst.weights == (3,)

    def test_two_pair_means(self):
        inst = segment_values([0, 2, 4, 6], ChangePointPartition(((0, 1), (2, 3)), 4))
        assert inst.values.tolist() == [1, 5]
        assert inst.weights == (2, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            segment_values([1.0], ChangePointPartition(((0, 1),), 2))

    def test_rows_equal_one_dimensional_means_bit_for_bit(self):
        # A 2-D mean(axis=1) sums in another order and differs in the last
        # bits; segment values must equal the 1-D mean of each run, row by row.
        rng = np.random.default_rng(17)
        cases = [(rng.integers(1, 40, 6), 4), (rng.integers(60, 200, 80), 3), ([9000, 1, 300], 2)]
        for lengths, k in cases:
            ends = np.cumsum(lengths) - 1
            cps = ChangePointPartition(tuple(zip(ends - lengths + 1, ends)), int(ends[-1]) + 1)
            picks = PickSequence(tuple(range(0, cps.n_frames, 7)))
            for frames in (
                rng.standard_normal((k, cps.n_frames)) * 10.0 ** rng.integers(-3, 4, (k, 1)),
                expand_scores(rng.uniform(0, 1, (k, len(picks))), picks, cps.n_frames),
            ):
                values = segment_values(frames, cps).values
                expected = [[row[a : e + 1].mean() for a, e in cps.segments] for row in frames]
                assert values.shape == (k, cps.n_segments)
                assert values.tobytes() == np.array(expected).tobytes()
                assert segment_values(frames[0], cps).values.tobytes() == values[0].tobytes()


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

    def test_long_instances_keep_the_tie_order(self):
        # Fillers (value -1, weight 1) are never worth taking but still use up
        # rank bits, so the ranks are re-encoded mid-solve while the tie-heavy
        # real items decide the answer; it must still be the brute-force one.
        rng = np.random.default_rng(32)
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

    def test_rejects_rows_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="equal length"):
            SegmentKnapsackInstance(np.zeros((2, 3)), (1, 1), 1)


class TestDecodeSummary:
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
