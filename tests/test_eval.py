import math

import numpy as np
import pytest
from scipy import stats

from vastsum.evaluation import (
    average_ranks,
    evaluate_summe,
    evaluate_tvsum,
    flip_rate,
    kendall_tau,
    oracle_report,
    spearman_rho,
    write_report_csv,
)
import vastsum.evaluation as evaluation
from vastsum.decoder import decode_summary, knapsack_select
from vastsum.timeline import ChangePointPartition, PickSequence

from oracles import counting_ranks, naive_kendall_tau, naive_spearman, random_partition, random_picks


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
        report = evaluate_summe(["v0"], [[0.1, 0.9]], [[[0.0, 1.0]]])
        assert report.mean_tau == 1.0
        assert report.mean_rho == 1.0

    def test_summe_all_zero_users_degenerate(self):
        report = evaluate_summe(["v0"], [[0.2, 0.8]], [[[0.0, 0.0], [0.0, 0.0]]])
        assert report.per_video[0].degenerate
        assert report.degenerate_count == 1
        assert math.isnan(report.mean_tau)

    def test_summe_mean_target_ordering(self):
        summaries = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]  # mean [1, 0.5, 0]
        report = evaluate_summe(["v0"], [[0.9, 0.5, 0.1]], [summaries])
        assert report.mean_tau == 1.0
        assert report.mean_rho == 1.0

    def test_tvsum_u1_equals_summe_single_row(self):
        rng = np.random.default_rng(3)
        pred = rng.standard_normal(12)
        row = rng.integers(0, 2, 12).astype(float)
        if np.all(row == row[0]):
            row[0] = 1.0 - row[0]
        tv = evaluate_tvsum(["v"], [pred], [row[None, :]])
        sm = evaluate_summe(["v"], [pred], [row[None, :]])
        assert tv.mean_tau == sm.mean_tau
        assert tv.mean_rho == sm.mean_rho

    def test_degenerate_videos_excluded_from_means(self):
        preds = [[1.0, 2.0], [5.0, 5.0]]
        anns = [[[1.0, 2.0]], [[1.0, 2.0]]]
        report = evaluate_tvsum(["good", "flat"], preds, anns)
        assert report.degenerate_count == 1
        assert report.mean_tau == 1.0

    def test_oracle_report_is_perfect(self):
        rng = np.random.default_rng(4)
        anns = [rng.uniform(0, 1, (3, 10)) for _ in range(4)]
        report = oracle_report("tvsum", [f"v{i}" for i in range(4)], anns)
        assert report.mean_tau == 1.0 and report.mean_rho == 1.0
        summaries = [rng.integers(0, 2, (3, 10)).astype(float) for _ in range(4)]
        report = oracle_report("summe", [f"v{i}" for i in range(4)], summaries)
        assert report.mean_tau == 1.0 and report.mean_rho == 1.0


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

        monkeypatch.setattr(evaluation, "knapsack_select", counted)
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
            assert rate == per_trial(*args)
            assert calls == [(31, len(segments))]
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
