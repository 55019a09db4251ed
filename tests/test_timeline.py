import numpy as np
import pytest

from vastsum.errors import CoverageError
from vastsum.timeline import (
    ChangePointPartition,
    PickSequence,
    SegmentIndexMap,
    assign_segment_ids,
    expand_scores,
)

from oracles import random_partition, random_picks


def seg_map(picks, segments, n_frames):
    return assign_segment_ids(PickSequence(picks), ChangePointPartition(segments, n_frames))


class TestPartitionValidation:
    def test_valid_partition(self):
        cps = ChangePointPartition(((0, 2), (3, 5)), 6)
        assert cps.lengths() == [3, 3]

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="expected 3"):
            ChangePointPartition(((0, 2), (4, 5)), 6)

    def test_not_starting_at_zero(self):
        with pytest.raises(ValueError, match="start at frame 0"):
            ChangePointPartition(((1, 5),), 6)

    def test_not_covering_tail(self):
        with pytest.raises(ValueError, match="expected 5"):
            ChangePointPartition(((0, 4),), 6)

    def test_inverted_segment(self):
        with pytest.raises(ValueError, match="end"):
            ChangePointPartition(((0, 2), (3, 2)), 6)

    def test_picks_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PickSequence((0, 2, 2))


class TestAssignSegmentIds:
    def test_two_segments(self):
        seg = seg_map((0, 1, 3, 5), ((0, 2), (3, 5)), 6)
        assert seg.segment_ids == (0, 0, 1, 1)
        assert seg.lengths == (3, 3)
        assert [len(s) for s in seg.index_sets] == [2, 2]

    def test_single_frame_video(self):
        seg = seg_map((0,), ((0, 0),), 1)
        assert seg.segment_ids == (0,)
        assert seg.lengths == (1,)
        assert [len(s) for s in seg.index_sets] == [1]

    def test_three_segments_against_scan_oracle(self):
        picks = (0, 2, 4, 6, 8)
        segments = ((0, 3), (4, 4), (5, 9))
        seg = seg_map(picks, segments, 10)
        # brute-force scan of every pick against every interval
        expected = []
        for p in picks:
            for k, (s, e) in enumerate(segments):
                if s <= p <= e:
                    expected.append(k)
                    break
        assert list(seg.segment_ids) == expected == [0, 0, 1, 2, 2]
        assert [len(s) for s in seg.index_sets] == [2, 1, 2]
        assert seg.lengths == (4, 1, 5)

    def test_pick_outside_every_segment(self):
        with pytest.raises(CoverageError, match="pick 7"):
            seg_map((0, 7), ((0, 5),), 6)

    def test_random_against_scan_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            segments, n = random_partition(rng)
            picks = random_picks(rng, n)
            seg = seg_map(picks, segments, n)
            for t, p in enumerate(picks):
                k = seg.segment_ids[t]
                assert segments[k][0] <= p <= segments[k][1]

    def test_random_equals_per_pick_loop(self):
        # the per-pick scan, with picks past the last frame to hit coverage errors
        def per_pick(picks, segments, n):
            ids = []
            for t, p in enumerate(picks):
                k = int(np.searchsorted([a for a, _ in segments], p, side="right")) - 1
                if k < 0 or p > segments[k][1]:
                    return f"pick {p} (timestep {t}) lies outside every segment"
                ids.append(k)
            index_sets = tuple(tuple(t for t, j in enumerate(ids) if j == k)
                               for k in range(len(segments)))
            lengths = tuple(e - a + 1 for a, e in segments)
            return SegmentIndexMap(tuple(ids), index_sets, lengths)

        rng = np.random.default_rng(11)
        for _ in range(200):
            segments, n = random_partition(rng)
            picks = random_picks(rng, n + int(rng.integers(0, 3)))
            expected = per_pick(picks, segments, n)
            if isinstance(expected, str):
                with pytest.raises(CoverageError) as excinfo:
                    seg_map(picks, segments, n)
                assert str(excinfo.value) == expected
            else:
                assert seg_map(picks, segments, n) == expected

    def test_index_sets_partition_timesteps(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            segments, n = random_partition(rng)
            picks = random_picks(rng, n)
            seg = seg_map(picks, segments, n)
            flattened = [t for idx in seg.index_sets for t in idx]
            assert flattened == list(range(len(picks)))
            assert sum(len(s) for s in seg.index_sets) == len(picks)
            assert sum(seg.lengths) == n


class TestExpandScores:
    def test_even_picks(self):
        out = expand_scores([10.0, 20.0, 30.0], PickSequence((0, 2, 4)), 6)
        assert out.tolist() == [10, 10, 20, 20, 30, 30]

    def test_single_pick_tail(self):
        out = expand_scores([7.0], PickSequence((0,)), 4)
        assert out.tolist() == [7, 7, 7, 7]

    def test_leading_frames_backfilled(self):
        out = expand_scores([1.0, 2.0], PickSequence((1, 3)), 5)
        # frame 0 precedes the first pick and takes the first score;
        # frames 1-2 sit in [p_1, p_2), frames 3-4 in the tail interval
        assert out.tolist() == [1, 1, 1, 2, 2]

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            expand_scores([], PickSequence((0,)), 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 picks"):
            expand_scores([1.0], PickSequence((0, 1)), 3)

    def test_rows_expand_like_single_rows(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            _, n = random_partition(rng)
            picks = PickSequence(random_picks(rng, n))
            rows = rng.standard_normal((3, len(picks)))
            out = expand_scores(rows, picks, n)
            assert np.array_equal(out, [expand_scores(row, picks, n) for row in rows])

    def test_output_length_and_value_set(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            segments, n = random_partition(rng)
            picks = random_picks(rng, n)
            scores = rng.standard_normal(len(picks))
            out = expand_scores(scores, PickSequence(picks), n)
            assert out.shape == (n,)
            assert set(out.tolist()) <= set(scores.tolist())

    def test_frame_rule_oracle(self):
        # loop over frames applying the interval rules directly
        rng = np.random.default_rng(4)
        for _ in range(30):
            segments, n = random_partition(rng)
            picks = random_picks(rng, n)
            scores = rng.standard_normal(len(picks))
            out = expand_scores(scores, PickSequence(picks), n)
            for frame in range(n):
                owners = [t for t, p in enumerate(picks) if p <= frame]
                expected = scores[owners[-1]] if owners else scores[0]
                assert out[frame] == expected


class TestPoolSegmentScores:
    def test_round_trip_through_expansion(self):
        # expanding then resampling at the picks returns the original scores
        rng = np.random.default_rng(9)
        for _ in range(30):
            segments, n = random_partition(rng)
            picks = tuple(s for s, _ in segments)  # one pick at each segment start
            scores = rng.standard_normal(len(picks))
            expanded = expand_scores(scores, PickSequence(picks), n)
            assert np.array_equal(expanded[list(picks)], scores)
