import math

import numpy as np
import pytest

import vastsum.diffcore as dc
import vastsum.losses as losses
from vastsum.config import LossConfig
from vastsum.decoder import SegmentKnapsackInstance, knapsack_select


def node(values):
    return dc.Tape().constant(np.asarray(values, dtype=np.float64))


def nodes(*arrays):
    tape = dc.Tape()
    return tuple(tape.constant(np.asarray(a, dtype=np.float64)) for a in arrays)


def val(n):
    return dc.scalar_value(n)


def nll_oracle(mu, log_v, annotations, eps):
    """Direct double-loop evaluation of the multi-annotator Gaussian NLL."""
    mu = np.asarray(mu, dtype=np.float64)
    log_v = np.asarray(log_v, dtype=np.float64)
    annotations = np.asarray(annotations, dtype=np.float64)
    u, t = annotations.shape
    acc = 0.0
    for a in range(u):
        for i in range(t):
            v = math.exp(log_v[i])
            acc += 0.5 * (log_v[i] + (annotations[a, i] - mu[i]) ** 2 / (v + eps))
    return acc / (u * t)


def bce_oracle(p, targets):
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-7, 1 - 1e-7)
    targets = np.asarray(targets, dtype=np.float64)
    return float(np.mean(-targets * np.log(p) - (1 - targets) * np.log(1 - p)))


class TestTvsumNll:
    def test_zero_residual_unit_variance(self):
        mu, lv = nodes([0.0], [0.0])
        assert val(losses.tvsum_nll(mu, lv, [[0.0]], 1e-6)) == 0.0

    def test_single_annotator_residual_two(self):
        mu, lv = nodes([0.0], [0.0])
        out = val(losses.tvsum_nll(mu, lv, [[2.0]], 1e-6))
        expected = 0.5 * 4.0 / (1.0 + 1e-6)  # 1.999998...
        assert out == pytest.approx(expected, abs=1e-9)

    def test_symmetric_two_annotators(self):
        mu, lv = nodes([1.0], [0.0])
        out = val(losses.tvsum_nll(mu, lv, [[0.0], [2.0]], 1e-6))
        assert out == pytest.approx(nll_oracle([1.0], [0.0], [[0.0], [2.0]], 1e-6), abs=1e-12)
        assert out == pytest.approx(0.5, abs=1e-5)

    def test_matches_loop_oracle_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = int(rng.integers(1, 9))
            u = int(rng.integers(1, 5))
            mu = rng.standard_normal(t)
            log_v = rng.uniform(-2, 2, t)
            ann = rng.uniform(0, 1, (u, t))
            mu_n, lv_n = nodes(mu, log_v)
            out = val(losses.tvsum_nll(mu_n, lv_n, ann, 1e-6))
            assert out == pytest.approx(nll_oracle(mu, log_v, ann, 1e-6), abs=1e-9)

    def test_u1_logv0_is_half_mse_plus_eps_correction(self):
        rng = np.random.default_rng(2)
        mu = rng.uniform(0, 1, 6)
        ann = rng.uniform(0, 1, (1, 6))
        mu_n, lv_n = nodes(mu, np.zeros(6))
        out = val(losses.tvsum_nll(mu_n, lv_n, ann, 1e-6))
        half_mse = 0.5 * float(np.mean((ann[0] - mu) ** 2))
        assert out == pytest.approx(half_mse, abs=1e-6)

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        ann = rng.uniform(0, 1, (3, 5))
        params = {"mu": rng.standard_normal(5), "log_v": rng.uniform(-1, 1, 5)}

        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            return losses.tvsum_nll(p["mu"], p["log_v"], ann, 1e-6)

        assert dc.finite_difference_check(build, params) < 1e-4


class TestSoftminBce:
    def test_single_annotator_reduces_to_bce(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0.05, 0.95, 7)
        targets = rng.integers(0, 2, 7).astype(float)
        out = val(losses.summe_softmin_bce(node(p), targets[None, :], 0.5))
        assert out == pytest.approx(bce_oracle(p, targets), rel=1e-12)

    def test_two_known_bces(self):
        # engineer p so BCE_1 = 1.0 and BCE_2 = 3.0 exactly: with T=1,
        # BCE_a = -log p for target 1 and -log(1-p) for target 0
        p_val = math.exp(-1.0)  # -log p = 1 for annotator [1]
        ann = np.array([[1.0], [0.0]])
        # -log(1 - e^-1) = 0.458..., not 3; instead check against the formula
        out = val(losses.summe_softmin_bce(node([p_val]), ann, 0.5))
        b1 = bce_oracle([p_val], [1.0])
        b2 = bce_oracle([p_val], [0.0])
        expected = -0.5 * math.log(math.exp(-b1 / 0.5) + math.exp(-b2 / 0.5))
        assert out == pytest.approx(expected, abs=1e-12)

    def test_equal_bces_closed_form(self):
        # identical annotators: L = b - tau * ln(U)
        p = np.array([0.7, 0.3, 0.9])
        targets = np.array([[1.0, 0.0, 1.0]] * 2)
        tau = 0.25
        out = val(losses.summe_softmin_bce(node(p), targets, tau))
        b = bce_oracle(p, targets[0])
        assert out == pytest.approx(b - tau * math.log(2.0), abs=1e-12)

    def test_softmin_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            t = int(rng.integers(2, 8))
            u = int(rng.integers(1, 6))
            p = rng.uniform(0.02, 0.98, t)
            ann = rng.integers(0, 2, (u, t)).astype(float)
            tau = float(rng.uniform(0.05, 1.0))
            out = val(losses.summe_softmin_bce(node(p), ann, tau))
            best = min(bce_oracle(p, row) for row in ann)
            assert best - tau * math.log(u) - 1e-12 <= out <= best + 1e-12

    def test_small_tau_approaches_min(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.1, 0.9, 10)
        ann = rng.integers(0, 2, (4, 10)).astype(float)
        out = val(losses.summe_softmin_bce(node(p), ann, 1e-3))
        best = min(bce_oracle(p, row) for row in ann)
        assert abs(out - best) < 1e-3

    def test_probability_clamp_keeps_loss_finite(self):
        out = val(losses.summe_softmin_bce(node([0.0, 1.0]), [[1.0, 0.0]], 0.1))
        assert math.isfinite(out)

    def test_gradient_check(self):
        rng = np.random.default_rng(7)
        ann = rng.integers(0, 2, (3, 6)).astype(float)

        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            probs = dc.sigmoid(p["logits"])
            return losses.summe_softmin_bce(probs, ann, 0.2)

        params = {"logits": rng.standard_normal(6)}
        assert dc.finite_difference_check(build, params) < 1e-4


class TestRankingHinge:
    def test_satisfied_pair_contributes_zero(self):
        out = losses.ranking_hinge(node([0.5, 0.0]), [1.0, 0.0], [(0, 1)], margin=0.3)
        assert val(out) == 0.0

    def test_violated_pair(self):
        out = losses.ranking_hinge(node([0.1, 0.0]), [1.0, 0.0], [(0, 1)], margin=0.3)
        assert val(out) == pytest.approx(0.2, abs=1e-12)

    def test_equal_targets_drop_all_pairs(self):
        out = losses.ranking_hinge(node([1.0, 2.0]), [0.5, 0.5], [(0, 1), (1, 0)], margin=0.1)
        assert val(out) == 0.0

    def test_mean_over_kept_pairs(self):
        q = node([0.0, 0.1, 0.4])
        r = [3.0, 2.0, 1.0]
        pairs = [(0, 1), (0, 2), (2, 0)]  # last pair has r_i < r_j and is dropped
        out = val(losses.ranking_hinge(q, r, pairs, margin=0.3))
        expected = (max(0.0, 0.3 - (0.0 - 0.1)) + max(0.0, 0.3 - (0.0 - 0.4))) / 2.0
        assert out == pytest.approx(expected, abs=1e-12)

    def test_translation_invariance_exact_on_dyadic_grid(self):
        rng = np.random.default_rng(8)
        q_vals = rng.integers(0, 128, 10) / 64.0  # exactly representable
        r = rng.standard_normal(10)
        pairs = [(int(i), int(j)) for i, j in rng.integers(0, 10, (30, 2))]
        base = val(losses.ranking_hinge(node(q_vals), r, pairs, margin=0.25))
        shifted = val(losses.ranking_hinge(node(q_vals + 0.5), r, pairs, margin=0.25))
        assert base == shifted

    def test_translation_invariance_approx_for_general_floats(self):
        rng = np.random.default_rng(9)
        q_vals = rng.standard_normal(8)
        r = rng.standard_normal(8)
        pairs = [(int(i), int(j)) for i, j in rng.integers(0, 8, (40, 2))]
        base = val(losses.ranking_hinge(node(q_vals), r, pairs, margin=0.1))
        shifted = val(losses.ranking_hinge(node(q_vals + 1.234), r, pairs, margin=0.1))
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_gradient_check_away_from_kinks(self):
        # hinge arguments sit at 0.3-(±0.5) = -0.2 or 0.8, far from the kink
        params = {"q": np.array([0.5, 0.0, 1.0])}
        pairs = [(0, 1), (2, 0)]
        r = [2.0, 1.0, 3.0]

        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            return losses.ranking_hinge(p["q"], r, pairs, margin=0.3)

        assert dc.finite_difference_check(build, params) < 1e-4


class TestSelectRankingTargets:
    def test_tvsum_uses_annotator_mean(self):
        mu = node([0.0, 0.0])
        _, r = losses.select_ranking_targets("tvsum", mu, None, [[0.0, 1.0], [2.0, 3.0]])
        assert r.tolist() == [1.0, 2.0]

    def test_summe_single_annotator(self):
        p = node([0.5, 0.5])
        chosen, r = losses.select_ranking_targets("summe", node([0.0, 0.0]), p, [[1.0, 0.0]])
        assert chosen is p
        assert r.tolist() == [1.0, 0.0]

    def test_summe_picks_best_matching_annotator(self):
        p = node([0.9, 0.1])
        a1 = [1.0, 0.0]
        a2 = [0.0, 1.0]
        _, r = losses.select_ranking_targets("summe", node([0.0, 0.0]), p, [a1, a2])
        assert r.tolist() == a1

    def test_summe_tie_goes_to_lowest_index(self):
        p = node([0.5, 0.5])
        _, r = losses.select_ranking_targets("summe", node([0.0, 0.0]), p, [[1.0, 0.0], [0.0, 1.0]])
        assert r.tolist() == [1.0, 0.0]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            losses.select_ranking_targets("other", node([0.0]), None, [[0.0]])


class TestKlStandardNormal:
    def test_prior_equals_posterior(self):
        out = losses.kl_standard_normal(*nodes([[0.0]], [[0.0]]))
        assert val(out) == 0.0

    def test_unit_mean_shift(self):
        out = losses.kl_standard_normal(*nodes([[1.0]], [[0.0]]))
        assert val(out) == pytest.approx(0.5, abs=1e-12)

    def test_variance_e(self):
        out = losses.kl_standard_normal(*nodes([[0.0]], [[1.0]]))
        assert val(out) == pytest.approx(0.5 * (math.e - 2.0), abs=1e-12)
        assert val(out) == pytest.approx(0.35914, abs=1e-5)

    def test_sum_over_dims_mean_over_time(self):
        rng = np.random.default_rng(10)
        mu = rng.standard_normal((5, 3))
        log_var = rng.uniform(-1, 1, (5, 3))
        out = val(losses.kl_standard_normal(*nodes(mu, log_var)))
        per_elem = 0.5 * (mu**2 + np.exp(log_var) - 1.0 - log_var)
        assert out == pytest.approx(float(per_elem.sum(axis=1).mean()), abs=1e-12)

    def test_gradient_check(self):
        rng = np.random.default_rng(11)
        params = {"mu": rng.standard_normal((4, 2)), "lv": rng.uniform(-1, 1, (4, 2))}

        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            return losses.kl_standard_normal(p["mu"], p["lv"])

        assert dc.finite_difference_check(build, params) < 1e-4


class TestStabilityLoss:
    def cfg(self, **kw):
        base = LossConfig()
        for k, v in kw.items():
            setattr(base, k, v)
        return base

    def test_zero_noise_means_no_instability(self):
        out = losses.stability_loss(
            node([0.6, 0.55, 0.5]), (1, 1, 1), 1, self.cfg(stab_margin=0.1), np.zeros((2, 3))
        )
        assert val(out) == 0.0

    def test_fixed_perturbation_hand_value(self):
        noise = np.array([[0.0, 0.0, 0.0], [-0.2, 0.0, 0.0]])
        out = losses.stability_loss(
            node([0.6, 0.55, 0.5]), (1, 1, 1), 1, self.cfg(stab_margin=0.1), noise
        )
        assert val(out) == pytest.approx(0.10, abs=1e-9)

    def test_wide_gap_resists_small_noise(self):
        noise = np.array([[0.05, -0.05], [-0.05, 0.05], [0.01, -0.02]])
        out = losses.stability_loss(
            node([0.9, 0.1]), (1, 1), 1, self.cfg(stab_margin=0.1, sigma_perturb=0.01), noise
        )
        assert val(out) == 0.0

    def test_all_segments_selected_contributes_zero_first_bracket(self):
        # capacity admits everything: no unselected anchor exists
        noise = np.array([[5.0, -5.0], [-5.0, 5.0]])
        out = losses.stability_loss(node([0.5, 0.4]), (1, 1), 2, self.cfg(), noise)
        assert val(out) == 0.0

    def test_gradient_flows_only_through_scores(self):
        tape = dc.Tape()
        s = tape.param("s", np.array([0.6, 0.55, 0.5]))
        noise = np.array([[0.0, 0.0, 0.0], [-0.2, 0.0, 0.0]])
        out = losses.stability_loss(s, (1, 1, 1), 1, self.cfg(stab_margin=0.1), noise)
        grads = dc.backward(tape, out)
        # d/ds0 [0.1-(s0-s1)] + d/ds0 [0.1-(s0-s1)] => -1 -1 = -2; s1 gets +2
        assert grads["s"].tolist() == [-2.0, 2.0, 0.0]

    def test_gradient_check_away_from_kinks(self):
        noise = np.array([[0.0, 0.0, 0.0], [-0.2, 0.0, 0.0]])

        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            return losses.stability_loss(p["s"], (1, 1, 1), 1, self.cfg(stab_margin=0.1), noise)

        # hinge arguments are 0.05, far from 0 relative to the fd step
        assert dc.finite_difference_check(build, {"s": np.array([0.6, 0.55, 0.5])}) < 1e-4


    def test_equals_per_trial_solves_with_one_solve(self, monkeypatch):
        # reference: the base solve and one solve per noise row, each 1-D
        rng = np.random.default_rng(21)
        for _ in range(40):
            m = int(rng.integers(2, 12))
            weights = tuple(int(w) for w in rng.integers(1, 9, m))
            cap = int(rng.integers(1, sum(weights)))
            scores = rng.uniform(0, 1, m)
            noise = rng.normal(0, 0.1, (8, m))
            outcomes = []
            for batched in (True, False):
                calls = []

                def solve(instance, batched=batched):
                    calls.append(instance.values.shape)
                    if batched:
                        return knapsack_select(instance)
                    rows = [scores] + [scores + row for row in noise]
                    return np.array([
                        knapsack_select(SegmentKnapsackInstance(row, weights, cap)) for row in rows
                    ])

                monkeypatch.setattr(losses, "knapsack_select", solve)
                tape = dc.Tape()
                s = tape.param("s", scores)
                out = losses.stability_loss(s, weights, cap, self.cfg(), noise)
                assert calls == [(9, m)]
                outcomes.append((val(out), dc.backward(tape, out)["s"].tobytes()))
            assert outcomes[0] == outcomes[1]


class TestTotalLoss:
    def test_warmup_ramp(self):
        cfg = LossConfig(lambda_rank=1.0, warmup_rank=10)
        assert losses.lambda_schedule(0, cfg)[0] == pytest.approx(0.1, abs=1e-15)
        assert losses.lambda_schedule(4, cfg)[0] == pytest.approx(0.5, abs=1e-15)
        assert losses.lambda_schedule(9, cfg)[0] == 1.0
        assert losses.lambda_schedule(50, cfg)[0] == 1.0

    def test_zero_warmup_is_immediate(self):
        cfg = LossConfig(lambda_kl=0.7, warmup_kl=0)
        assert losses.lambda_schedule(0, cfg)[2] == 0.7

    def test_schedule_non_decreasing_and_reaches_target(self):
        cfg = LossConfig(lambda_rank=0.3, lambda_stab=0.2, lambda_kl=0.05,
                         warmup_rank=7, warmup_stab=13, warmup_kl=1)
        prev = (0.0, 0.0, 0.0)
        for e in range(30):
            cur = losses.lambda_schedule(e, cfg)
            assert all(c >= p for c, p in zip(cur, prev))
            prev = cur
        assert losses.lambda_schedule(6, cfg)[0] == 0.3
        assert losses.lambda_schedule(12, cfg)[1] == 0.2
        assert losses.lambda_schedule(0, cfg)[2] == 0.05

    def test_zero_targets_leave_main_only(self):
        cfg = LossConfig(lambda_rank=0.0, lambda_stab=0.0, lambda_kl=0.0)
        tape = dc.Tape()
        main = tape.constant(np.array([1.25]))
        other = tape.constant(np.array([9.0]))
        total, lambdas = losses.total_loss(main, other, other, other, 5, cfg)
        assert lambdas == (0.0, 0.0, 0.0)
        assert val(total) == 1.25

    def test_breakdown_composition_matches_graph(self):
        cfg = LossConfig(lambda_rank=0.3, lambda_stab=0.2, lambda_kl=0.05,
                         warmup_rank=4, warmup_stab=4, warmup_kl=4)
        tape = dc.Tape()
        parts = [tape.constant(np.array([x])) for x in (0.817, 0.231, 0.047, 1.733)]
        for epoch in (0, 2, 7):
            total, lambdas = losses.total_loss(*parts, epoch, cfg)
            breakdown = losses.LossBreakdown.compose(
                *(val(p) for p in parts), lambdas, epoch
            )
            assert breakdown.total == val(total)
            assert breakdown.epoch == epoch
