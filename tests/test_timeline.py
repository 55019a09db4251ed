import re

import numpy as np
import pytest

import vastsum.diffcore as dc
import vastsum.scorer as scorer
from vastsum.errors import CoverageError, ShapeError
from vastsum.timeline import (
    ChangePointPartition,
    PickSequence,
    SegmentIndexMap,
    assign_segment_ids,
    segment_values,
)

from oracles import expand_scores, frame_weights, mean_rows, random_partition, random_picks


def seg_map(picks, segments, n_frames):
    return assign_segment_ids(PickSequence(picks), ChangePointPartition(segments, n_frames))


def pick_counts(seg):
    return np.bincount(seg.segment_ids, minlength=seg.n_segments).tolist()


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

    @pytest.mark.parametrize("bad", [2.5, np.float64(2.5)], ids=["float", "np.float64"])
    def test_fractional_indices_are_refused_not_truncated(self, bad):
        # int() used to load picks (0.5, 1.7, 3.2) as (0, 1, 3)
        with pytest.raises(ValueError, match=r"^picks\[1\] must be an integer, got .*2\.5"):
            PickSequence((0, bad, 3))
        for name, segments in (("segments[0][1]", ((0, bad), (3, 5))), ("segments[1][0]", ((0, 2), (bad, 5)))):
            with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer, got .*2\.5"):
                ChangePointPartition(segments, 6)
        with pytest.raises(ValueError, match=r"^n_frames must be an integer, got .*2\.5"):
            ChangePointPartition(((0, 1),), bad)
        # an integral float is refused too: a later decode would fail on it
        with pytest.raises(ValueError, match=r"^n_frames must be an integer, got 6\.0"):
            ChangePointPartition(((0, 5),), 6.0)

    def test_numpy_integers_become_python_ints(self):
        picks = PickSequence(tuple(np.array([0, 2, 4])))
        cps = ChangePointPartition(((np.int64(0), np.int64(2)), (3, np.int64(5))), np.int64(6))
        assert picks.picks == (0, 2, 4) and cps.segments == ((0, 2), (3, 5)) and cps.n_frames == 6
        assert all(type(x) is int for x in (*picks.picks, *sum(cps.segments, ()), cps.n_frames))


class TestAssignSegmentIds:
    def test_two_segments(self):
        seg = seg_map((0, 1, 3, 5), ((0, 2), (3, 5)), 6)
        assert seg.segment_ids == (0, 0, 1, 1)
        assert seg.lengths == (3, 3)
        assert pick_counts(seg) == [2, 2]

    def test_single_frame_video(self):
        seg = seg_map((0,), ((0, 0),), 1)
        assert seg.segment_ids == (0,)
        assert seg.lengths == (1,)
        assert pick_counts(seg) == [1]

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
        assert pick_counts(seg) == [2, 1, 2]
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
            return tuple(ids), tuple(e - a + 1 for a, e in segments)

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
                seg = seg_map(picks, segments, n)
                assert (seg.segment_ids, seg.lengths) == expected

    def test_segments_partition_timesteps(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            segments, n = random_partition(rng)
            picks = random_picks(rng, n)
            seg = seg_map(picks, segments, n)
            # ids never decrease: each segment's timesteps are one run, in order
            assert all(a <= b for a, b in zip(seg.segment_ids, seg.segment_ids[1:]))
            # every timestep lies in exactly one segment's row of the pool
            support = seg.token_pool != 0
            assert support.sum(axis=0).tolist() == [1] * len(picks)
            assert support.argmax(axis=0).tolist() == list(seg.segment_ids)
            assert sum(pick_counts(seg)) == len(picks)
            assert seg.n_segments == len(segments)
            assert sum(seg.lengths) == n


class TestExpandScores:
    """The frame rule `segment_values` pools under, on its reference
    `oracles.expand_scores`; `segment_values` refuses the same inputs."""

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
            segment_values([], PickSequence((0,)), ChangePointPartition(((0, 2),), 3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 picks"):
            segment_values([1.0], PickSequence((0, 1)), ChangePointPartition(((0, 2),), 3))

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


def pooling_cases(seed, draws=60):
    """Random (picks, partition) pairs; some segments hold no pick."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        segments, n = random_partition(rng)
        picks = PickSequence(random_picks(rng, n))
        yield rng, picks, ChangePointPartition(segments, n)


def has_empty_segment(picks, cps):
    return any(not any(s <= p <= e for p in picks.picks) for s, e in cps.segments)


class TestPoolingPlan:
    """The one pooling, a `SegmentIndexMap` called on scores: `segment_values`
    is a map built for the call, and training's tape node runs the video's
    cached map's forward and adjoint."""

    def test_forward_is_segment_values_bit_for_bit(self):
        empty = 0
        for rng, picks, cps in pooling_cases(41):
            seg = SegmentIndexMap(picks, cps)
            empty += has_empty_segment(picks, cps)
            for shape in ((len(picks),), (3, len(picks))):
                scores = rng.standard_normal(shape)
                assert seg(scores).tobytes() == segment_values(scores, picks, cps).tobytes()
                assert seg(scores).shape == shape[:-1] + (cps.n_segments,)
        assert empty > 0

    def test_adjoint_is_the_transposed_frame_weights(self):
        empty = 0
        for rng, picks, cps in pooling_cases(43):
            empty += has_empty_segment(picks, cps)
            g = rng.standard_normal(cps.n_segments)
            got = SegmentIndexMap(picks, cps).adjoint(g)
            assert got.shape == (len(picks),)
            np.testing.assert_allclose(got, frame_weights(picks, cps).T @ g, rtol=1e-12, atol=1e-12)
        assert empty > 0

    def test_node_value_vjp_and_gradcheck(self):
        # segments 1 and 4 hold no pick and take pick 2's and pick 5's scores
        picks = PickSequence((0, 2, 4, 6, 8, 10))
        cps = ChangePointPartition(((0, 4), (5, 5), (6, 7), (8, 13), (14, 15)), 16)
        seg = SegmentIndexMap(picks, cps)
        x = np.random.default_rng(44).standard_normal(6)
        node = dc.segment_pool(dc.Tape().param("x", x), seg)
        assert node.kind == "segment-pool"
        assert node.value.tobytes() == segment_values(x, picks, cps).tobytes()
        g = np.random.default_rng(45).standard_normal(5)
        assert node.vjp(g)[0].tobytes() == seg.adjoint(g).tobytes()

        def build(theta):
            tape = dc.Tape()
            pooled = dc.segment_pool(dc.lift_params(tape, theta)["x"], seg)
            return mean_rows(dc.square(pooled))

        assert dc.finite_difference_check(build, {"x": x}) < 1e-6

    def test_node_takes_a_single_row(self):
        seg = SegmentIndexMap(PickSequence((0, 1)), ChangePointPartition(((0, 2),), 3))
        with pytest.raises(ShapeError, match="segment-pool"):
            dc.segment_pool(dc.Tape().param("x", np.zeros((2, 2))), seg)


class TestFrameWeights:
    """The dense reference pool `oracles.frame_weights` against the decoder
    and the token pool."""

    def test_pools_unequal_pick_spans_as_the_decoder(self):
        picks = PickSequence((0, 10, 20))
        cps = ChangePointPartition(((0, 4), (5, 9), (10, 24), (25, 29)), 30)
        scores = np.array([0.9, -0.5, 0.2])
        weights = frame_weights(picks, cps)
        assert weights.shape == (4, 3)
        pooled = weights @ scores
        np.testing.assert_allclose(pooled, [0.9, 0.9, -4.0 / 15.0, 0.2], rtol=0, atol=1e-15)
        decoded = segment_values(scores, picks, cps)
        np.testing.assert_allclose(pooled, decoded, rtol=0, atol=1e-15)
        # the pick-mean pool sees [0.9, 0, -0.15, 0] here
        assert weights[2].tolist() == [0.0, 10 / 15, 5 / 15]

    def test_counts_divided_once_by_the_segment_length(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            segments, n = random_partition(rng)
            picks = PickSequence(random_picks(rng, n))
            cps = ChangePointPartition(segments, n)
            weights = frame_weights(picks, cps)
            frame_pick = np.array([max(sum(p <= f for p in picks.picks) - 1, 0) for f in range(n)])
            for k, (start, end) in enumerate(segments):
                counts = np.bincount(frame_pick[start : end + 1], minlength=len(picks))
                assert np.array_equal(weights[k], counts / (end - start + 1))
            scores = rng.standard_normal((3, len(picks)))
            decoded = segment_values(scores, picks, cps)
            np.testing.assert_allclose(scores @ weights.T, decoded, rtol=1e-12, atol=1e-12)

    def test_equal_spans_give_the_pick_mean_pool(self):
        # one pick every 3 frames and segments of whole spans: count c over
        # length c * |set| is 1 / |set| exactly, the pick mean's weight
        picks = PickSequence((0, 3, 6, 9, 12))
        cps = ChangePointPartition(((0, 5), (6, 8), (9, 14)), 15)
        seg = assign_segment_ids(picks, cps)
        expected = np.zeros((3, 5))
        for k in range(3):
            idx = [t for t, j in enumerate(seg.segment_ids) if j == k]
            expected[k, idx] = 1.0 / len(idx)
        assert np.array_equal(frame_weights(picks, cps), expected)
        assert np.array_equal(seg.token_pool, expected)


class TestTokenPool:
    def test_equals_the_per_segment_loop(self):
        rng = np.random.default_rng(13)
        empty = 0
        for _ in range(50):
            segments, n = random_partition(rng)
            picks = random_picks(rng, n)
            seg = seg_map(picks, segments, n)
            loop = np.zeros((len(segments), len(picks)))
            for k, (start, end) in enumerate(segments):
                idx = [t for t, p in enumerate(picks) if start <= p <= end]
                empty += not idx
                for t in idx:
                    loop[k, t] = 1.0 / len(idx)
            assert seg.token_pool.tobytes() == loop.tobytes()
        assert empty > 0  # the draws include segments that hold no pick

    def test_empty_segment_gives_a_zero_row(self):
        seg = seg_map((0, 10, 20), ((0, 4), (5, 9), (10, 24), (25, 29)), 30)
        with np.errstate(all="raise"):
            pool = seg.token_pool
        assert pool.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 0.0]]
        assert np.isfinite(pool).all()

    def test_built_once_read_only_and_outside_equality(self):
        seg = seg_map((0, 1, 3, 5), ((0, 2), (3, 5)), 6)
        pool = seg.token_pool
        assert seg.token_pool is pool
        assert not pool.flags.writeable
        fresh = seg_map((0, 1, 3, 5), ((0, 2), (3, 5)), 6)
        assert "token_pool" not in vars(fresh)
        assert (seg.segment_ids, seg.lengths) == (fresh.segment_ids, fresh.lengths)
        # the decoder's pooling index too is built on the first pool, and kept
        assert "pooling" not in vars(seg) and "pooling" not in vars(fresh)
        index = seg.pooling
        seg(np.zeros(4))
        seg.adjoint(np.zeros(2))
        assert seg.pooling is index and "pooling" not in vars(fresh)

    def test_segment_tokenize_gradcheck_partial_and_empty(self):
        # segments 1 and 4 hold no pick; the others hold 3, 1 and 2 of the 6
        seg = seg_map((0, 2, 4, 6, 8, 10), ((0, 4), (5, 5), (6, 7), (8, 13), (14, 15)), 16)
        assert pick_counts(seg) == [3, 0, 1, 2, 0]
        x = np.random.default_rng(26).standard_normal((6, 2))

        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            pooled = scorer.segment_tokenize(p["x"], seg)
            return mean_rows(dc.matmul(dc.square(pooled), tape.constant(np.ones(2))))

        assert dc.finite_difference_check(build, {"x": x}) < 1e-4
        tokens = scorer.segment_tokenize(dc.Tape().constant(x), seg).value
        np.testing.assert_allclose(tokens[[0, 2, 3]], [x[:3].mean(0), x[3], x[4:].mean(0)], atol=1e-15)
        assert not tokens[[1, 4]].any()
