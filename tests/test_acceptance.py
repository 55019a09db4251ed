"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import dataclasses
import math
import time

import numpy as np
import pytest

import vastsum.diffcore as dc
import vastsum.gradcheck as gradcheck
import vastsum.losses as losses
from vastsum.cli import main as cli_main
from vastsum.config import HeadConfig, LossConfig, RunConfig, ScorerConfig, TrainConfig
from vastsum.data import SyntheticConfig, generate_synthetic
from vastsum.decoder import SegmentKnapsackInstance, budget, decode_summary, knapsack_select
from vastsum.evaluation import evaluate, evaluate_tvsum, flip_rate
from vastsum.timeline import ChangePointPartition, PickSequence, assign_segment_ids
from vastsum.trainer import predict_scores, train

from oracles import (
    brute_force_knapsack,
    naive_kendall_tau,
    naive_spearman,
    random_partition,
    random_picks,
)


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def scalar(node):
    return dc.scalar_value(node)


def make_node(values):
    return dc.Tape().constant(np.asarray(values, dtype=np.float64))


def make_nodes(*arrays):
    tape = dc.Tape()
    return tuple(tape.constant(np.asarray(a, dtype=np.float64)) for a in arrays)


# ---------------------------------------------------------------------------
# shared synthetic-overfit fixtures (criteria 7 and 8 reuse the trainings)
# ---------------------------------------------------------------------------

OVERFIT_DATA = SyntheticConfig(
    n_videos=8, timesteps=64, feature_dim=16, annotators=3, segments=6,
    mode="tvsum", seed=7,
)


def overfit_config(lambda_stab: float) -> RunConfig:
    return RunConfig(
        scorer=ScorerConfig(
            input_dim=16, model_dim=32, heads=2, layers=1, refine_blocks=1,
            kernel=3, ffn_mult=2, max_timesteps=64,
        ),
        head=HeadConfig(latent_dim=8),
        loss=dataclasses.replace(LossConfig(), lambda_stab=lambda_stab),
        train=TrainConfig(lr=5e-3, epochs=300, accumulate=4, seed=3, mode="tvsum"),
    )


@pytest.fixture(scope="module")
def overfit_runs():
    dataset = generate_synthetic(OVERFIT_DATA)
    runs = {}
    for label, lam in (("regularized", LossConfig().lambda_stab), ("unregularized", 0.0)):
        cfg = overfit_config(lam)
        start = time.monotonic()
        result = train(dataset, cfg)
        runs[label] = {
            "cfg": cfg,
            "result": result,
            "seconds": time.monotonic() - start,
        }
    return {"dataset": dataset, "runs": runs}


def _signals(dataset, cfg, params):
    out = []
    for video in dataset.videos:
        seg = assign_segment_ids(video.picks, video.change_points)
        out.append(predict_scores(params, video, seg, cfg)["signal"])
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    error = gradcheck.run(seed=0, step=1e-4)
    elapsed = time.monotonic() - start
    report(
        1,
        error < 1e-4 and elapsed < 60.0,
        f"composed-loss gradcheck max relative error {error:.3e} (< 1e-4) "
        f"in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_knapsack_oracle():
    rng = np.random.default_rng(20240515)
    mismatches = violations = 0
    for _ in range(200):
        m = int(rng.integers(1, 16))
        weights = tuple(int(w) for w in rng.integers(1, 21, m))
        values = rng.uniform(0.0, 10.0, m)
        cap = int(rng.integers(0, 61))
        selection = knapsack_select(SegmentKnapsackInstance(values, weights, cap))
        dp_value = 0.0
        for i in np.flatnonzero(selection):
            dp_value += float(values[i])
        oracle_value, _ = brute_force_knapsack(values, weights, cap)
        if dp_value != oracle_value:
            mismatches += 1
        if sum(w for w, s in zip(weights, selection) if s) > cap:
            violations += 1
    report(
        2,
        mismatches == 0 and violations == 0,
        f"200 instances: {mismatches} value mismatches vs brute force (0 tolerance), "
        f"{violations} budget violations",
    )


def test_criterion_3_decode_budget_safety():
    rng = np.random.default_rng(31337)
    violations = 0
    for _ in range(1000):
        segments, n = random_partition(rng, max_segments=8, max_len=6)
        picks = random_picks(rng, n)
        scores = rng.standard_normal(len(picks))
        rho = float(rng.uniform(0.01, 1.0))
        mask = decode_summary(
            scores, PickSequence(picks), ChangePointPartition(segments, n), rho
        )
        if int(mask.y.sum()) > budget(rho, n):
            violations += 1
    report(3, violations == 0, f"1000 fuzzed decodes, {violations} budget violations")


def test_criterion_4_loss_unit_oracles():
    checks = []

    # tvsum NLL against the direct formula
    mu, log_v = make_nodes([0.0], [0.0])
    got = scalar(losses.tvsum_nll(mu, log_v, [[2.0]], 1e-6))
    checks.append(abs(got - 0.5 * 4.0 / (1.0 + 1e-6)) < 1e-9)
    mu, log_v = make_nodes([1.0], [0.0])
    got = scalar(losses.tvsum_nll(mu, log_v, [[0.0], [2.0]], 1e-6))
    checks.append(abs(got - 0.5 * (1.0 / (1.0 + 1e-6))) < 1e-9)

    # soft-min BCE: probabilities engineered so BCE_1 = 1 and BCE_2 = 3
    # exactly in float64 (p1*(1-p2) = e^-2, (1-p1)*p2 = e^-6)
    p1 = 0.13572454282179748
    p2 = 0.0028680117618511427
    ann = np.array([[1.0, 0.0], [0.0, 1.0]])
    got = scalar(losses.soft_min(losses.annotator_bces(make_node([p1, p2]), ann), 0.5))
    expected = -0.5 * math.log(math.exp(-2.0) + math.exp(-6.0))  # 0.990925036...
    checks.append(abs(got - expected) < 1e-9)

    # equal-BCE identity b - tau*ln(2)
    p = np.array([0.7, 0.3, 0.9])
    same = np.array([[1.0, 0.0, 1.0]] * 2)
    pc = np.clip(p, 1e-7, 1 - 1e-7)
    b = float(np.mean(-same[0] * np.log(pc) - (1 - same[0]) * np.log(1 - pc)))
    got = scalar(losses.soft_min(losses.annotator_bces(make_node(p), same), 0.25))
    checks.append(abs(got - (b - 0.25 * math.log(2.0))) < 1e-9)

    # KL closed forms
    checks.append(abs(scalar(losses.kl_standard_normal(*make_nodes([[1.0]], [[0.0]]))) - 0.5) < 1e-9)
    got = scalar(losses.kl_standard_normal(*make_nodes([[0.0]], [[1.0]])))
    checks.append(abs(got - 0.5 * (math.e - 2.0)) < 1e-9)

    # ranking hinge arithmetic
    got = scalar(losses.ranking_hinge(make_node([0.1, 0.0]), [1.0, 0.0], [(0, 1)], 0.3))
    checks.append(abs(got - 0.2) < 1e-9)
    got = scalar(losses.ranking_hinge(make_node([0.5, 0.0]), [1.0, 0.0], [(0, 1)], 0.3))
    checks.append(got == 0.0)

    # fixed-perturbation stability example
    noise = np.array([[0.0, 0.0, 0.0], [-0.2, 0.0, 0.0]])
    cfg = dataclasses.replace(LossConfig(), stab_margin=0.1)
    got = scalar(losses.stability_loss(make_node([0.6, 0.55, 0.5]), (1, 1, 1), 1, cfg, noise))
    checks.append(abs(got - 0.10) < 1e-9)

    report(4, all(checks), f"{sum(checks)}/{len(checks)} closed-form loss oracles within 1e-9")


def test_criterion_5_softmin_limit():
    rng = np.random.default_rng(55)
    p = rng.uniform(0.1, 0.9, 12)
    ann = rng.integers(0, 2, (4, 12)).astype(float)
    got = scalar(losses.soft_min(losses.annotator_bces(make_node(p), ann), 1e-3))
    pc = np.clip(p, 1e-7, 1 - 1e-7)
    best = min(
        float(np.mean(-row * np.log(pc) - (1 - row) * np.log(1 - pc))) for row in ann
    )
    gap = abs(got - best)
    report(5, gap < 1e-3, f"|softmin - min BCE| = {gap:.2e} at tau=1e-3 with U=4 (< 1e-3)")


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(2024)
    corpus = []
    while len(corpus) < 100:
        n = int(rng.integers(2, 51))
        a = rng.integers(0, 10, n).astype(np.float64)
        b = rng.integers(0, 10, n).astype(np.float64)
        if np.all(a == a[0]) or np.all(b == b[0]):
            continue
        corpus.append((a, b))

    def tau_rho(a, b):
        # the protocol entry point, on one video with one target row
        row = evaluate("tvsum", ["v"], [a], [b[None]]).per_video[0]
        return row.tau, row.rho

    got = [tau_rho(a, b) for a, b in corpus]
    exact_tau = sum(
        tau == naive_kendall_tau(a.tolist(), b.tolist()) for (a, b), (tau, _) in zip(corpus, got)
    )
    exact_rho = sum(
        rho == naive_spearman(a.tolist(), b.tolist()) for (a, b), (_, rho) in zip(corpus, got)
    )
    invariant = 0
    for (a, b), want in zip(corpus, got):
        ta, tb = 3.0 * a + 1.0, np.exp(b / 4.0)
        if tau_rho(ta, b) == want and tau_rho(a, tb) == want:
            invariant += 1
    report(
        6,
        exact_tau == 100 and exact_rho == 100 and invariant == 100,
        f"tau exact {exact_tau}/100, rho exact {exact_rho}/100, "
        f"increasing-transform invariance bit-exact {invariant}/100",
    )


def test_criterion_7_synthetic_overfit(overfit_runs):
    run = overfit_runs["runs"]["regularized"]
    dataset = overfit_runs["dataset"]
    signals = _signals(dataset, run["cfg"], run["result"].params)
    rep = evaluate_tvsum(
        [v.video_id for v in dataset.videos], signals, [v.annotations for v in dataset.videos]
    )
    report(
        7,
        rep.mean_rho >= 0.8 and run["seconds"] < 300.0,
        f"train-set Spearman rho {rep.mean_rho:.4f} (>= 0.8) after "
        f"{run['cfg'].train.epochs} epochs in {run['seconds']:.1f}s (< 300s)",
    )


def test_criterion_8_stability_direction(overfit_runs):
    dataset = overfit_runs["dataset"]
    rates = {}
    for label, run in overfit_runs["runs"].items():
        signals = _signals(dataset, run["cfg"], run["result"].params)
        sigma = run["cfg"].loss.sigma_perturb
        per_video = [
            flip_rate(sig, v.picks, v.change_points, 0.15, sigma, trials=100, seed=100 + i)
            for i, (sig, v) in enumerate(zip(signals, dataset.videos))
        ]
        rates[label] = math.fsum(per_video) / len(per_video)
    report(
        8,
        rates["regularized"] <= rates["unregularized"] + 0.02,
        f"flip rate with stability loss {rates['regularized']:.4f} <= "
        f"{rates['unregularized']:.4f} + 0.02 without",
    )


def test_criterion_9_determinism(tmp_path):
    data = tmp_path / "data.json"
    assert cli_main([
        "gen-data", "--out", str(data), "--videos", "3", "--timesteps", "16",
        "--feature-dim", "8", "--annotators", "2", "--segments", "3", "--seed", "5",
    ]) == 0
    config = tmp_path / "cfg.json"
    config.write_text(
        '{"scorer": {"input_dim": 8, "model_dim": 16, "heads": 2, "layers": 1, '
        '"refine_blocks": 1, "kernel": 3, "ffn_mult": 2, "max_timesteps": 32}, '
        '"head": {"latent_dim": 4}, '
        '"train": {"lr": 0.003, "epochs": 3, "accumulate": 2, "seed": 1, "mode": "tvsum"}}'
    )
    artifacts = {}
    for tag in ("one", "two"):
        out_dir = tmp_path / tag
        assert cli_main([
            "train", "--data", str(data), "--out-dir", str(out_dir), "--config", str(config),
        ]) == 0
        ckpt = out_dir / "checkpoint.json"
        blobs = [ckpt.read_bytes(), (out_dir / "train_log.csv").read_bytes()]
        for cmd, name in (
            (["eval", "--checkpoint", str(ckpt), "--data", str(data),
              "--out", str(out_dir / "report.csv")], "report.csv"),
            (["decode", "--checkpoint", str(ckpt), "--data", str(data),
              "--out", str(out_dir / "masks.json")], "masks.json"),
            (["stability-report", "--checkpoint", str(ckpt), "--data", str(data),
              "--sigma", "0.05", "--trials", "25", "--seed", "2",
              "--out", str(out_dir / "stability.csv")], "stability.csv"),
        ):
            assert cli_main(cmd) == 0
            blobs.append((out_dir / name).read_bytes())
        artifacts[tag] = blobs
    identical = all(a == b for a, b in zip(artifacts["one"], artifacts["two"]))
    report(
        9,
        identical,
        "checkpoint, loss log, eval report, decode masks, and stability report "
        "are byte-identical across reruns",
    )
