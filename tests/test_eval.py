import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from vastsum.evaluation import (
    evaluate,
    evaluate_tvsum,
    flip_rate,
    protocol_targets,
    write_report_csv,
)
import vastsum.decoder as decoder
import vastsum.evaluation as evaluation
from vastsum.decoder import decode_summary, knapsack_select
from vastsum.timeline import ChangePointPartition, PickSequence

from oracles import (
    counting_ranks,
    naive_inversions,
    naive_kendall_tau,
    naive_spearman,
    random_partition,
    random_picks,
)


def tied_corpus(count=100, max_n=50, seed=2024):
    """Random integer-valued vectors with ties; constants redrawn."""
    rng = np.random.default_rng(seed)
    corpus = []
    while len(corpus) < count:
        n = int(rng.integers(2, max_n + 1))
        a = rng.integers(0, 10, n).astype(np.float64)
        b = rng.integers(0, 10, n).astype(np.float64)
        if np.all(a == a[0]) or np.all(b == b[0]):
            continue
        corpus.append((a, b))
    return corpus


def kendall_tau(a, b):
    """The tau `evaluate` reports for one video with prediction `a` and
    target row(s) `b`: a [T] pair's own tau, or the mean over [K, T] rows."""
    return evaluate("tvsum", ["v"], [a], [np.atleast_2d(b)]).per_video[0].tau


def spearman_rho(a, b):
    """The rho `evaluate` reports for that video; see `kendall_tau`."""
    return evaluate("tvsum", ["v"], [a], [np.atleast_2d(b)]).per_video[0].rho


def average_ranks(x):
    """1-based tie-averaged ranks, from the centered ranks `_ranks` gives
    both statistics: 2r - (n + 1) -> r."""
    x = np.asarray(x, dtype=np.float64)
    return (evaluation._ranks(x)[1] + (x.shape[-1] + 1)) / 2.0


class TestKendallTau:
    def test_identical_order(self):
        assert kendall_tau([1, 2, 3], [1, 2, 3]) == 1.0

    def test_reversed_order(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_one_discordant_pair(self):
        assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau([1.0], [1.0])

    def test_constant_vector_degenerate(self):
        assert math.isnan(kendall_tau([1, 1, 1], [1, 2, 3]))
        assert math.isnan(kendall_tau([1, 2, 3], [5, 5, 5]))


class TestSpearmanRho:
    def test_identical(self):
        assert spearman_rho([1, 2, 3], [1, 2, 3]) == 1.0

    def test_reversed(self):
        assert spearman_rho([1, 2, 3], [3, 2, 1]) == -1.0

    def test_tied_ranks_hand_value(self):
        # ranks of a are [1, 2.5, 2.5, 4]
        assert average_ranks([1, 2, 2, 3]).tolist() == [1, 2.5, 2.5, 4]
        rho = spearman_rho([1, 2, 2, 3], [1, 2, 3, 4])
        assert rho == pytest.approx(4.5 / math.sqrt(4.5 * 5.0), abs=1e-15)
        assert rho == pytest.approx(0.9487, abs=1e-4)

    def test_constant_degenerate(self):
        assert math.isnan(spearman_rho([2, 2], [1, 3]))


class TestAgainstNaiveOracles:
    def test_tau_matches_pair_counting_exactly(self):
        for a, b in tied_corpus():
            assert kendall_tau(a, b) == naive_kendall_tau(a.tolist(), b.tolist())

    def test_rho_matches_rank_pearson_exactly(self):
        for a, b in tied_corpus():
            assert spearman_rho(a, b) == naive_spearman(a.tolist(), b.tolist())

    def test_average_ranks_match_counting_ranks_exactly(self):
        rng = np.random.default_rng(31)
        for trial in range(100):
            n = int(rng.integers(1, 60))
            # integers from a small pool tie often; normal draws do not tie
            x = rng.integers(0, 6, n).astype(np.float64) if trial % 2 else rng.standard_normal(n)
            assert np.array_equal(average_ranks(x), counting_ranks(x.tolist()))

    def test_scipy_cross_check(self):
        for a, b in tied_corpus(count=30):
            assert kendall_tau(a, b) == pytest.approx(
                stats.kendalltau(a, b, variant="b").statistic, abs=1e-10
            )
            assert spearman_rho(a, b) == pytest.approx(
                stats.spearmanr(a, b).statistic, abs=1e-10
            )

    def test_strictly_increasing_transform_invariance_bitwise(self):
        transforms = [
            lambda x: 3.0 * x + 1.0,
            lambda x: x**3,
            lambda x: np.exp(x / 4.0),
            lambda x: np.arctan(x),
        ]
        for a, b in tied_corpus(count=25):
            tau = kendall_tau(a, b)
            rho = spearman_rho(a, b)
            for transform in transforms:
                assert kendall_tau(transform(a), b) == tau
                assert kendall_tau(a, transform(b)) == tau
                assert spearman_rho(transform(a), b) == rho
                assert spearman_rho(a, transform(b)) == rho


def all_tied_but_one(rng, n):
    x = np.full(n, float(rng.integers(0, 3)))
    x[rng.integers(n)] += rng.choice([-1.0, 1.0])
    return x


def correlate(pred, targets):
    """The one video of an `evaluate` call: a [T] or [K, T] prediction against
    [K, T] target rows, or against one [T] target row for every prediction
    row (repeated, as `evaluate` takes [U, T] annotations only)."""
    targets = np.asarray(targets)
    if targets.ndim == 1:
        targets = np.broadcast_to(targets, np.shape(np.atleast_2d(pred)))
    return evaluate("tvsum", ["v"], [pred], [targets]).per_video[0]


class TestBatchedRows:
    """[T] and [K, T] inputs through `evaluate` with one video, checked with
    == against the loop oracles."""

    def cases(self, seed):
        # lengths 2, 3 and non-powers of two; untied, heavily tied, all-tied-but-one
        rng = np.random.default_rng(seed)
        for n in (2, 3, 5, 7, 12, 31, 33, 50):
            yield rng.standard_normal(n), rng.standard_normal((3, n))
            yield rng.integers(0, 3, n).astype(float), rng.integers(0, 2, (5, n)).astype(float)
            yield all_tied_but_one(rng, n), np.array([all_tied_but_one(rng, n) for _ in range(6)])
            yield rng.standard_normal(n), np.array([all_tied_but_one(rng, n) for _ in range(3)])

    def test_rows_match_the_oracles_exactly(self):
        # each row on its own, then all rows in one call against the mean of
        # the oracle's values over the rows where neither side is constant
        checked = 0
        for pred, targets in self.cases(seed=41):
            want_taus, want_rhos = [], []
            for target in targets:
                row = correlate(pred, target[None])
                want_tau = naive_kendall_tau(pred.tolist(), target.tolist())
                if math.isnan(want_tau):  # a constant row
                    assert row.degenerate and math.isnan(row.tau) and math.isnan(row.rho)
                    continue
                want_rho = naive_spearman(pred.tolist(), target.tolist())
                assert row.tau == want_tau
                assert row.rho == want_rho
                want_taus.append(want_tau)
                want_rhos.append(want_rho)
                checked += 1
            row = correlate(pred, targets)
            assert row.degenerate == (not want_taus)
            if want_taus:
                assert row.tau == math.fsum(want_taus) / len(want_taus)
                assert row.rho == math.fsum(want_rhos) / len(want_rhos)
        assert checked > 80

    def test_rows_equal_single_calls(self):
        for pred, targets in self.cases(seed=42):
            for a, b in ((pred, targets), (targets, pred), (targets, targets[::-1])):
                rows = np.broadcast_arrays(a, b)
                singles = [correlate(x, y[None]) for x, y in zip(*rows)]
                kept = [r for r in singles if not r.degenerate]
                row = correlate(a, b)
                assert row.degenerate == (not kept)
                if kept:
                    assert repr(row.tau) == repr(math.fsum(r.tau for r in kept) / len(kept))
                    assert repr(row.rho) == repr(math.fsum(r.rho for r in kept) / len(kept))
            batched = evaluation._ranks(targets)
            for i, target in enumerate(targets):
                for whole, single in zip(batched, evaluation._ranks(target)):
                    assert np.array_equal(whole[i], single)

    def test_correlate_means_equal_the_public_calls(self):
        # one [T] prediction for every target row, and one [K, T] prediction a
        # row: a video's means equal evaluate's means over one video per row
        checked = 0
        for pred, targets in self.cases(seed=44):
            rng = np.random.default_rng(len(pred))
            for preds in (pred, targets[rng.permutation(len(targets))]):
                ids = [f"v{i}" for i in range(len(targets))]
                rows = np.broadcast_to(preds, targets.shape)
                report = evaluate("tvsum", ids, list(rows), [target[None] for target in targets])
                for per_row in report.per_video:
                    assert per_row.degenerate == math.isnan(per_row.tau) == math.isnan(per_row.rho)
                row = correlate(preds, targets)
                if report.degenerate_count == len(targets):
                    assert row.degenerate and math.isnan(row.tau) and math.isnan(row.rho)
                    continue
                assert not row.degenerate
                assert repr(row.tau) == repr(report.mean_tau)
                assert repr(row.rho) == repr(report.mean_rho)
                checked += 1
        assert checked > 50

    @pytest.mark.parametrize("fn", [kendall_tau, spearman_rho])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_input_rejected(self, fn, bad):
        clean = np.array([0.3, 0.1, 0.2, 0.4])
        dirty = clean.copy()
        dirty[2] = bad
        for a, b in ((dirty, clean), (clean, dirty), (clean, np.vstack([clean, dirty]))):
            with pytest.raises(ValueError, match="finite"):
                fn(a, b)

    @pytest.mark.parametrize("fn", [kendall_tau, spearman_rho])
    def test_mismatched_shapes_rejected(self, fn):
        for a, b in (([1.0, 2.0], [1.0, 2.0, 3.0]), (np.ones((2, 3)), np.ones((3, 3))),
                     (np.ones((1, 1, 3)), [1.0, 2.0, 3.0]), ([1.0], [[1.0]])):
            with pytest.raises(ValueError):
                fn(a, b)

    @pytest.mark.parametrize("fn", [kendall_tau, spearman_rho])
    def test_rows_of_2_to_the_21_rejected(self, fn):
        # spearman_rho's int64 rank sums are exact only while T**3 < 2**63;
        # a zero-stride view costs no memory
        long = np.broadcast_to(0.5, 1 << 21)
        with pytest.raises(ValueError, match=r"T < 2\*\*21 = 2097152.*got T=2097152"):
            fn(long, long)

    def test_tau_memory_is_linear_in_length(self):
        # three T x T float arrays at T = 4,000 would take ~380 MB
        rng = np.random.default_rng(43)
        a = rng.standard_normal(4000)
        b = rng.integers(0, 40, 4000).astype(np.float64)
        tracemalloc.start()
        try:
            tau = kendall_tau(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert -1.0 < tau < 1.0
        assert peak < 4 * 2**20


class TestBatchedVideos:
    """One `evaluate` call ranks all its videos together, grouped by length
    and cut into chunks; every statistic equals one call per video."""

    # nine length groups of four videos each, across the merge count's
    # power-of-two widths 2, 4, 64, 128 and 2,048
    LENGTHS = (2, 3, 4, 40, 63, 64, 65, 100, 1100)
    KINDS = ("untied", "ties", "all-tied-but-one", "constant-prediction", "constant-target-row", "rows")

    def videos(self, protocol, seed):
        """Videos of every length and kind, with 1 to 25 annotator rows
        (1 at T = 1,100, for the pairwise oracles' sake)."""
        rng = np.random.default_rng(seed)
        ids, preds, anns = [], [], []
        for i in range(4 * len(self.LENGTHS)):
            t = self.LENGTHS[i % len(self.LENGTHS)]
            u = 1 if t > 100 else 1 + (7 * i) % 25
            kind = self.KINDS[(i + i // len(self.LENGTHS)) % len(self.KINDS)]
            if kind == "ties":
                pred, ann = rng.integers(0, 3, t).astype(float), rng.integers(0, 2, (u, t)).astype(float)
            elif kind == "all-tied-but-one":
                pred, ann = all_tied_but_one(rng, t), np.array([all_tied_but_one(rng, t) for _ in range(u)])
            else:
                pred, ann = rng.standard_normal(t), rng.uniform(0, 1, (u, t))
            if kind == "constant-prediction":
                pred = np.full(t, 0.25)
            elif kind == "constant-target-row":
                ann[0] = 0.5
            elif kind == "rows":  # a [K, T] prediction, one row per target row
                pred = rng.standard_normal((u if protocol == "tvsum" else 1, t))
            ids.append(f"v{i}")
            preds.append(pred)
            anns.append(ann)
        assert {len(a) for a in anns} >= {1, 25}
        return ids, preds, anns

    @pytest.mark.parametrize("chunk_cells", [None, 1, 4096])
    @pytest.mark.parametrize("protocol", ["tvsum", "summe"])
    def test_one_call_equals_a_call_per_video(self, monkeypatch, protocol, chunk_cells):
        # the default chunks, one video a chunk, and chunks of a few videos
        if chunk_cells is not None:
            monkeypatch.setattr(evaluation, "_CHUNK_CELLS", chunk_cells)
        ids, preds, anns = self.videos(protocol, seed=61)
        report = evaluate(protocol, ids, preds, anns)
        singles = [evaluate(protocol, [i], [p], [a]).per_video[0] for i, p, a in zip(ids, preds, anns)]
        for got, want in zip(report.per_video, singles, strict=True):
            assert (got.video_id, repr(got.tau), repr(got.rho), got.degenerate) == (
                want.video_id, repr(want.tau), repr(want.rho), want.degenerate)
        kept = [row for row in singles if not row.degenerate]
        assert 0 < len(kept) < len(singles)
        assert report.degenerate_count == len(singles) - len(kept)
        assert repr(report.mean_tau) == repr(math.fsum(row.tau for row in kept) / len(kept))
        assert repr(report.mean_rho) == repr(math.fsum(row.rho for row in kept) / len(kept))

    @pytest.mark.parametrize("protocol", ["tvsum", "summe"])
    def test_rows_match_the_oracles_exactly(self, protocol):
        ids, preds, anns = self.videos(protocol, seed=62)
        report = evaluate(protocol, ids, preds, anns)
        for row, pred, ann in zip(report.per_video, preds, anns):
            targets = protocol_targets(protocol, ann)
            pairs = zip(*np.broadcast_arrays(pred, targets))
            stats = [(naive_kendall_tau(a.tolist(), b.tolist()), naive_spearman(a.tolist(), b.tolist()))
                     for a, b in pairs]
            kept = [(tau, rho) for tau, rho in stats if not math.isnan(tau)]
            assert row.degenerate == (not kept)
            if kept:
                assert row.tau == math.fsum(tau for tau, _ in kept) / len(kept)
                assert row.rho == math.fsum(rho for _, rho in kept) / len(kept)

    def test_peak_memory_does_not_grow_with_the_videos(self):
        # desk-shaped videos (T = 64, U = 20); one chunk of every row would
        # peak at ten times the 40 videos' peak
        rng = np.random.default_rng(63)
        peaks = []
        for count in (40, 400):
            preds = [rng.standard_normal(64) for _ in range(count)]
            anns = [rng.uniform(0, 1, (20, 64)) for _ in range(count)]
            tracemalloc.start()
            try:
                evaluate("tvsum", [f"v{i}" for i in range(count)], preds, anns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]

    @pytest.mark.parametrize("fault, message", [
        ("non-finite", r"^video 'v2': evaluate needs finite inputs$"),
        ("annotation-shape", r"^video 'v2': evaluate needs \[U, T\] annotations, got shape \(5,\)$"),
        ("length-mismatch", r"^video 'v2': evaluate needs \[T\] or \[K, T\] inputs of one length T >= 2$"),
    ])
    def test_the_first_bad_video_is_named(self, fault, message):
        # videos of three lengths, with a second fault in the last one: the
        # check runs in list order before any video is ranked
        rng = np.random.default_rng(64)
        preds = [rng.standard_normal(t) for t in (5, 40, 5, 70, 5)]
        anns = [rng.uniform(0, 1, (3, len(p))) for p in preds]
        preds[4] = np.full(5, np.nan)
        if fault == "non-finite":
            anns[2][1, 3] = np.inf
        elif fault == "annotation-shape":
            anns[2] = anns[2][0]
        else:
            preds[2] = preds[2][:4]
        with pytest.raises(ValueError, match=message):
            evaluate("tvsum", [f"v{i}" for i in range(5)], preds, anns)


def inversion_rows(kind, rng, k, n):
    if kind == "all-equal":
        return np.full((k, n), int(rng.integers(n)), dtype=np.int64)
    if kind == "tied":
        return rng.integers(0, min(3, n), (k, n))
    return np.array([rng.permutation(n) for _ in range(k)])


class TestRankCore:
    """The private pieces both statistics are built from."""

    LENGTHS = [2, 3] + [n for e in range(2, 11) for n in ((1 << e) - 1, 1 << e, (1 << e) + 1)] + [1100]

    @pytest.mark.parametrize("kind", ["all-equal", "tied", "permutation"])
    def test_inversions_match_the_pairwise_count(self, kind):
        # row counts cycle through 1..25 across the lengths
        rng = np.random.default_rng(51)
        for i, n in enumerate(self.LENGTHS):
            seq = inversion_rows(kind, rng, 1 + i % 25, n)
            assert evaluation._inversions(seq, n).tolist() == naive_inversions(seq)
        # every row count on one odd length
        for k in range(1, 26):
            seq = inversion_rows(kind, rng, k, 37)
            assert evaluation._inversions(seq, 37).tolist() == naive_inversions(seq)

    @pytest.mark.parametrize("tie_break", ["random", "reversed"])
    def test_ranks_do_not_depend_on_the_order_inside_a_tie(self, monkeypatch, tie_break):
        # the argsort is unstable: replay _ranks with the tied entries of each
        # row visited in another order, and every output must be the same
        rng = np.random.default_rng(52)
        argsort = np.argsort

        def reordered(x, axis=-1, **kwargs):
            rows = np.atleast_2d(x)
            n = rows.shape[-1]
            tie_keys = rng.random(n) if tie_break == "random" else -np.arange(n)
            return np.array([np.lexsort((tie_keys, row)) for row in rows]).reshape(x.shape)

        for n in (2, 3, 7, 16, 33, 200):
            for x in (rng.integers(0, 3, n).astype(float), rng.integers(0, 2, (4, n)).astype(float),
                      np.array([all_tied_but_one(rng, n) for _ in range(3)]), np.full(n, 0.5),
                      np.where(rng.random(n) < 0.5, -0.0, 0.0)):
                want = evaluation._ranks(x)
                monkeypatch.setattr(np, "argsort", reordered)
                got = evaluation._ranks(x)
                monkeypatch.setattr(np, "argsort", argsort)
                for w, g in zip(want, got):
                    assert w.dtype == g.dtype == np.int64
                    assert np.array_equal(w, g)


class TestProtocols:
    def test_tvsum_averages_over_annotators(self):
        pred = [1.0, 2.0, 3.0]
        ann = [[1.0, 2.0, 3.0], [1.0, 3.0, 2.0]]  # taus 1 and 1/3
        report = evaluate_tvsum(["v0"], [pred], [ann])
        assert report.per_video[0].tau == pytest.approx((1.0 + 1.0 / 3.0) / 2.0, abs=1e-15)
        assert not report.per_video[0].degenerate

    def test_tvsum_perfect_prediction(self):
        ann = [[0.1, 0.5, 0.9], [0.1, 0.5, 0.9]]
        report = evaluate_tvsum(["v0"], [[0.1, 0.5, 0.9]], [ann])
        assert report.mean_tau == 1.0
        assert report.mean_rho == 1.0

    def test_tvsum_mean_across_videos(self):
        preds = [[1.0, 2.0, 3.0]] * 3
        anns = [[[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]], [[3.0, 2.0, 1.0]]]
        report = evaluate_tvsum(["a", "b", "c"], preds, anns)
        assert report.mean_tau == pytest.approx((1.0 + 1.0 - 1.0) / 3.0, abs=1e-15)

    def test_summe_single_user(self):
        report = evaluate("summe", ["v0"], [[0.1, 0.9]], [[[0.0, 1.0]]])
        assert report.mean_tau == 1.0
        assert report.mean_rho == 1.0

    def test_summe_all_zero_users_degenerate(self):
        report = evaluate("summe", ["v0"], [[0.2, 0.8]], [[[0.0, 0.0], [0.0, 0.0]]])
        assert report.per_video[0].degenerate
        assert report.degenerate_count == 1
        assert math.isnan(report.mean_tau)

    def test_summe_mean_target_ordering(self):
        summaries = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]  # mean [1, 0.5, 0]
        report = evaluate("summe", ["v0"], [[0.9, 0.5, 0.1]], [summaries])
        assert report.mean_tau == 1.0
        assert report.mean_rho == 1.0

    def test_tvsum_u1_equals_summe_single_row(self):
        rng = np.random.default_rng(3)
        pred = rng.standard_normal(12)
        row = rng.integers(0, 2, 12).astype(float)
        if np.all(row == row[0]):
            row[0] = 1.0 - row[0]
        tv = evaluate_tvsum(["v"], [pred], [row[None, :]])
        sm = evaluate("summe", ["v"], [pred], [row[None, :]])
        assert tv.mean_tau == sm.mean_tau
        assert tv.mean_rho == sm.mean_rho

    def test_degenerate_videos_excluded_from_means(self):
        preds = [[1.0, 2.0], [5.0, 5.0]]
        anns = [[[1.0, 2.0]], [[1.0, 2.0]]]
        report = evaluate_tvsum(["good", "flat"], preds, anns)
        assert report.degenerate_count == 1
        assert report.mean_tau == 1.0

    def test_oracle_report_is_perfect(self):
        # `eval --oracle`: each video's protocol targets stand in for its prediction
        rng = np.random.default_rng(4)
        anns = [rng.uniform(0, 1, (3, 10)) for _ in range(4)]
        summaries = [rng.integers(0, 2, (3, 10)).astype(float) for _ in range(4)]
        for protocol, annotations in (("tvsum", anns), ("summe", summaries)):
            targets = [protocol_targets(protocol, a) for a in annotations]
            report = evaluate(protocol, [f"v{i}" for i in range(4)], targets, annotations)
            assert report.mean_tau == 1.0 and report.mean_rho == 1.0

    def test_lists_of_different_lengths_are_refused(self):
        # zip would keep one row of the two and report a mean tau of 1.0
        with pytest.raises(ValueError, match="got 2 video ids, 1 predictions, 2 annotations"):
            evaluate("tvsum", ["a", "b"], [[1.0, 2.0, 3.0]], [[[1.0, 2.0, 3.0]], [[3.0, 2.0, 1.0]]])
        with pytest.raises(ValueError, match="got 1 video ids, 2 predictions, 2 annotations"):
            evaluate("tvsum", ["a"], [[1.0, 2.0]] * 2, [[[1.0, 2.0]]] * 2)

    def test_a_length_mismatch_names_the_video(self):
        with pytest.raises(ValueError, match=r"^video 'a': .*one length T >= 2"):
            evaluate("tvsum", ["a"], [[1.0, 2.0, 3.0, 4.0]], [[[1.0, 2.0, 3.0]]])
        with pytest.raises(ValueError, match=r"^video 'b': "):
            evaluate("summe", ["a", "b"], [[1.0, 2.0], [1.0, 2.0, 3.0]], [[[0.0, 1.0]], [[0.0, 1.0]]])

    def test_a_non_finite_input_names_the_video(self):
        good, bad = [0.1, 0.2, 0.3], [0.1, float("nan"), 0.3]
        for pred, ann in ((bad, [good, good]), (good, [good, bad])):
            with pytest.raises(ValueError, match=r"^video 'v1': .*finite"):
                evaluate("tvsum", ["v0", "v1"], [good, pred], [[good], ann])
        # a non-finite prediction against all-constant targets is refused too,
        # not flagged degenerate
        with pytest.raises(ValueError, match=r"^video 'v0': .*finite"):
            evaluate("tvsum", ["v0"], [bad], [[[1.0, 1.0, 1.0]]])

    @pytest.mark.parametrize("protocol", ["tvsum", "summe"])
    def test_annotations_that_are_not_u_by_t_name_the_video(self, protocol):
        # a [T] annotation row used to reach the rank cores: tvsum raised
        # IndexError, summe a length mismatch on its one-number mean
        with pytest.raises(ValueError, match=r"^video 'v1': evaluate needs \[U, T\] annotations, got shape \(3,\)$"):
            evaluate(protocol, ["v0", "v1"], [[1.0, 2.0, 3.0]] * 2, [[[1.0, 3.0, 2.0]], [1.0, 3.0, 2.0]])


class TestFlipRate:
    def setup_method(self):
        self.picks = PickSequence((0, 1))
        self.cps = ChangePointPartition(((0, 0), (1, 1)), 2)

    def test_zero_sigma_never_flips(self):
        rate = flip_rate([0.9, 0.1], self.picks, self.cps, 0.5, 0.0, trials=20, seed=0)
        assert rate == 0.0

    def test_equal_scores_flip_about_half_the_time(self):
        rate = flip_rate([0.5, 0.5], self.picks, self.cps, 0.5, 0.2, trials=400, seed=1)
        assert rate == pytest.approx(0.5, abs=0.1)

    def test_wide_gap_tiny_noise(self):
        rate = flip_rate([0.9, 0.1], self.picks, self.cps, 0.5, 0.01, trials=100, seed=2)
        assert rate == 0.0

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            flip_rate([0.5, 0.5], self.picks, self.cps, 0.5, 0.1, trials=0, seed=0)

    def test_seeded_reproducibility(self):
        args = ([0.52, 0.5], self.picks, self.cps, 0.5, 0.1)
        assert flip_rate(*args, trials=50, seed=7) == flip_rate(*args, trials=50, seed=7)


    def test_equals_per_trial_decodes_with_one_solve(self, monkeypatch):
        # reference: one decode_summary for the base and one per noisy trial
        def per_trial(scores, picks, cps, rho, sigma, trials, seed):
            rng = np.random.default_rng(seed)
            base = decode_summary(scores, picks, cps, rho).selected_segments
            flips = 0
            for _ in range(trials):
                noisy = scores + rng.normal(0.0, sigma, scores.shape)
                flips += decode_summary(noisy, picks, cps, rho).selected_segments != base
            return flips / trials

        calls = []

        def counted(instance):
            calls.append(instance.values.shape)
            return knapsack_select(instance)

        monkeypatch.setattr(decoder, "knapsack_select", counted)
        rng = np.random.default_rng(12)
        rates = set()
        for trial in range(40):
            segments, n = random_partition(rng, max_segments=8, max_len=12)
            picks = PickSequence(random_picks(rng, n))
            cps = ChangePointPartition(segments, n)
            scores = rng.uniform(0, 1, len(picks))
            args = (scores, picks, cps, float(rng.uniform(0.1, 0.6)), 0.1, 30, trial)
            calls.clear()
            rate = flip_rate(*args)
            assert calls == [(31, len(segments))]  # before the reference adds its own
            assert rate == per_trial(*args)
            rates.add(rate)
        assert len(rates) > 3  # the rows really do flip, at varied rates


class TestReportCsv:
    def test_row_count_and_footer(self, tmp_path):
        report = evaluate_tvsum(
            ["a", "b"], [[1.0, 2.0], [2.0, 1.0]], [[[1.0, 2.0]], [[1.0, 2.0]]]
        )
        out = tmp_path / "report.csv"
        write_report_csv(report, out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 + 1  # header + videos + footer
        assert lines[0].startswith("video_id")
        assert lines[-1].startswith("mean")
