import dataclasses
import gc
import itertools
import math
import sys
import weakref

import numpy as np
import pytest

import vastsum.diffcore as dc
import vastsum.scorer as scorer
import vastsum.trainer as trainer
from vastsum.checkpoint import load_params, params_to_bytes, save_params, validate_shapes
from vastsum.config import HeadConfig, LossConfig, RunConfig, ScorerConfig, TrainConfig
from vastsum.data import Dataset, SyntheticConfig, VideoRecord, generate_synthetic, make_folds
from vastsum.decoder import budget
from vastsum.errors import ConfigError, NumericError
from vastsum.timeline import (
    ChangePointPartition,
    PickSequence,
    SegmentIndexMap,
    assign_segment_ids,
)
from vastsum.trainer import OptimizerState, adamw_step, clip_global_norm, train


def small_cfg(mode="tvsum", epochs=3, **train_kw):
    train_defaults = dict(lr=3e-3, epochs=epochs, accumulate=2, seed=1, mode=mode)
    train_defaults.update(train_kw)
    return RunConfig(
        scorer=ScorerConfig(
            input_dim=8, model_dim=16, heads=2, layers=1, refine_blocks=1,
            kernel=3, ffn_mult=2, max_timesteps=32,
        ),
        head=HeadConfig(latent_dim=4),
        loss=LossConfig(),
        train=TrainConfig(**train_defaults),
    )


def small_dataset(mode="tvsum", n_videos=3, seed=5):
    return generate_synthetic(
        SyntheticConfig(
            n_videos=n_videos, timesteps=16, feature_dim=8, annotators=2,
            segments=3, mode=mode, seed=seed,
        )
    )


class TestInitRule:
    def test_zeros_ones_and_fan_in_bounds(self):
        cfg = small_cfg()
        params = trainer.init_all_params(cfg, np.random.default_rng(0))
        assert list(params) == list(trainer.all_param_shapes(cfg))
        for name, value in params.items():
            if name == "pos.table" or name.endswith((".b", ".bias", ".b1", ".b2")):
                assert not value.any(), name
            elif name.endswith(".gain"):
                assert (value == 1.0).all(), name
            else:
                fan_in = cfg.scorer.kernel if name.endswith(".depthwise") else value.shape[0]
                assert 0 < np.abs(value).max() <= 1.0 / np.sqrt(fan_in), name


def flat(**arrays) -> dc.FlatTensors:
    """FlatTensors holding copies of the given arrays."""
    out = dc.FlatTensors({name: np.shape(a) for name, a in arrays.items()})
    for name, a in arrays.items():
        out[name][...] = a
    return out


class TestClipGlobalNorm:
    def test_large_norm_scaled_to_max(self):
        grads = flat(a=np.full(4, 3.0), b=np.full(8, 4.0) * -1)
        before = grads.flat.copy()
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        clipped = clip_global_norm(grads, max_norm=1.0)
        assert clipped is not grads and list(clipped) == ["a", "b"]
        new_norm = math.sqrt(sum(float(np.sum(g * g)) for g in clipped.values()))
        assert new_norm == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(clipped["a"], grads["a"] / norm, atol=1e-15)
        assert np.array_equal(clipped.flat, before * (1.0 / norm)) and np.array_equal(grads.flat, before)

    def test_small_norm_unchanged(self):
        grads = flat(a=np.array([0.3, 0.4]))  # norm 0.5
        assert clip_global_norm(grads, max_norm=1.0) is grads

    def test_zero_gradients_unchanged(self):
        grads = flat(a=np.zeros(3))
        out = clip_global_norm(grads, max_norm=1.0)
        assert np.array_equal(out["a"], np.zeros(3))

    def test_exact_ten_to_one(self):
        grads = flat(a=np.array([10.0]))
        clipped = clip_global_norm(grads, max_norm=1.0)
        assert clipped["a"][0] == pytest.approx(1.0, abs=1e-12)


class TestAdamW:
    def cfg(self, **kw):
        base = dict(lr=0.1, beta1=0.9, beta2=0.999, adam_eps=1e-8, weight_decay=0.0)
        base.update(kw)
        return TrainConfig(**base)

    def test_first_step_unit_gradient(self):
        params = flat(w=np.array([0.0]))
        state = OptimizerState.zeros_like(params)
        adamw_step(params, flat(w=np.array([1.0])), state, self.cfg())
        # bias-corrected m_hat = v_hat = 1, so the step is lr / (1 + eps)
        assert params["w"][0] == pytest.approx(-0.1 / (1.0 + 1e-8), abs=1e-12)
        assert state.step == 1

    def test_zero_gradient_zero_decay_is_identity(self):
        params = flat(w=np.array([2.5]))
        state = OptimizerState.zeros_like(params)
        for _ in range(3):
            adamw_step(params, flat(w=np.array([0.0])), state, self.cfg())
        assert params["w"][0] == 2.5

    def test_pure_decoupled_decay(self):
        params = flat(w=np.array([1.0]))
        state = OptimizerState.zeros_like(params)
        adamw_step(params, flat(w=np.array([0.0])), state, self.cfg(weight_decay=0.01))
        assert params["w"][0] == pytest.approx(0.999, abs=1e-15)

    def test_accumulation_averaging_identity(self):
        # the mean of two identical gradient sets equals the single set, so
        # the resulting update must match bit for bit
        rng = np.random.default_rng(3)
        g = flat(w=rng.standard_normal(5))
        avg = flat(w=(g["w"] + g["w"]) / 2)
        p1 = flat(w=np.ones(5))
        p2 = flat(w=np.ones(5))
        s1 = OptimizerState.zeros_like(p1)
        s2 = OptimizerState.zeros_like(p2)
        adamw_step(p1, g, s1, self.cfg())
        adamw_step(p2, avg, s2, self.cfg())
        assert np.array_equal(p1["w"], p2["w"])

    def test_matches_the_per_tensor_update(self, monkeypatch):
        # 12 elements in one block, then in blocks of 5: the edges at 5 and
        # 10 fall inside "b" and "w", and the last block holds 2 elements
        cfg = self.cfg(weight_decay=0.03)
        shapes = {"w": (3, 2), "b": (2,), "a.gain": (4,)}
        for block in (trainer._BLOCK, 5):
            monkeypatch.setattr(trainer, "_BLOCK", block)
            rng = np.random.default_rng(8)
            params = dc.FlatTensors(shapes)
            params.flat[:] = rng.standard_normal(params.flat.size)
            state = OptimizerState.zeros_like(params)
            ref = {k: v.copy() for k, v in params.items()}
            ref_state = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in ref.items()}
            for step in range(1, 4):
                grads = dc.FlatTensors(shapes, rng.standard_normal(params.flat.size))
                adamw_step(params, grads, state, cfg)
                for name in ref:
                    ref_state[name], ref[name] = _reference_adamw(
                        ref[name], grads[name], *ref_state[name], step, cfg
                    )
            assert params_to_bytes(params) == params_to_bytes(ref), block
            assert state.step == 3
            assert all(np.array_equal(state.m[k], ref_state[k][0]) for k in shapes), block
            assert all(np.array_equal(state.v[k], ref_state[k][1]) for k in shapes), block


def _reference_adamw(p, g, m, v, t, cfg):
    """One tensor's AdamW step as the per-tensor loop wrote it: ((m, v), p)."""
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    return (m, v), p - cfg.lr * (m_hat / (np.sqrt(v_hat) + cfg.adam_eps)) - cfg.lr * cfg.weight_decay * p


def _reference_clip(grads, max_norm):
    """The per-tensor global-norm clip: (clipped grads, whether it rescaled)."""
    norm = math.sqrt(math.fsum(float(np.sum(g * g)) for g in grads.values()))
    if norm <= max_norm:
        return grads, False
    return {k: g * (max_norm / norm) for k, g in grads.items()}, True


def _reference_train(dataset, cfg):
    """`train` without validation, as per-tensor dict loops: dict accumulate,
    average, clip and a per-name AdamW. Returns (params, rescaled steps)."""
    rng = np.random.default_rng(cfg.train.seed)
    params = {k: v.copy() for k, v in trainer.init_all_params(cfg, rng).items()}
    moments = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in params.items()}
    step = clipped_steps = 0
    for epoch in range(cfg.train.epochs):
        order = rng.permutation(len(dataset.videos))
        acc, count = None, 0
        for pos, vi in enumerate(order):
            video = dataset.videos[int(vi)]
            noise = trainer.draw_noise(video, cfg, rng)
            total, _ = trainer.build_video_loss(params, video, cfg, epoch, noise)
            grads = {k: g.copy() for k, g in dc.backward(total.tape, total).items()}
            acc = grads if acc is None else {k: acc[k] + grads[k] for k in acc}
            count += 1
            if count == cfg.train.accumulate or pos == len(order) - 1:
                averaged = {k: g / count for k, g in acc.items()}
                clipped, rescaled = _reference_clip(averaged, cfg.train.clip_norm)
                clipped_steps += rescaled
                step += 1
                for name in params:
                    moments[name], params[name] = _reference_adamw(
                        params[name], clipped[name], *moments[name], step, cfg.train
                    )
                acc, count = None, 0
    return params, clipped_steps


class TestFlatOptimizer:
    def test_train_matches_the_per_tensor_loops(self, monkeypatch):
        # 5 videos, accumulate 2: windows of 2, 2 and 1 a epoch, over 2 epochs
        dataset = small_dataset(n_videos=5)
        cfg = small_cfg(epochs=2, accumulate=2, clip_norm=1.1)
        expected, clipped_steps = _reference_train(dataset, cfg)
        rescaled = []
        original = trainer.clip_global_norm

        def spy(grads, max_norm):
            out = original(grads, max_norm)
            rescaled.append(out is not grads)
            return out

        monkeypatch.setattr(trainer, "clip_global_norm", spy)
        # the default block holds every parameter; blocks of 5 put AdamW's
        # block edges inside tensors and leave a ragged last block
        size = sum(p.size for p in expected.values())
        assert size < trainer._BLOCK and size % 5 > 0
        for block in (trainer._BLOCK, 5):
            monkeypatch.setattr(trainer, "_BLOCK", block)
            rescaled.clear()
            result = train(dataset, cfg)
            assert len(rescaled) == 6 and 0 < sum(rescaled) < 6
            assert sum(rescaled) == clipped_steps
            assert params_to_bytes(result.params) == params_to_bytes(expected), block

    def test_best_params_do_not_follow_later_epochs(self, monkeypatch):
        ds = small_dataset(n_videos=4)
        rhos = iter([0.1, 0.9, 0.2, 0.3])
        snapshots = []

        def validation_rho(params, videos, cfg):
            snapshots.append(params_to_bytes(params))
            return next(rhos)

        monkeypatch.setattr(trainer, "_validation_rho", validation_rho)
        result = train(ds, small_cfg(epochs=4), val_videos=ds.videos[-1:])
        assert result.best_epoch == 1
        assert params_to_bytes(result.best_params) == snapshots[1]
        assert params_to_bytes(result.params) == snapshots[3] != snapshots[1]
        assert not any(np.shares_memory(b, result.params.flat) for b in result.best_params.values())


class TestTrainLoop:
    def test_determinism_bit_identical(self):
        ds = small_dataset()
        r1 = train(ds, small_cfg())
        r2 = train(ds, small_cfg())
        assert params_to_bytes(r1.params) == params_to_bytes(r2.params)
        assert [dataclasses.astuple(a) for a in r1.history] == [
            dataclasses.astuple(b) for b in r2.history
        ]

    def test_single_video_overfit_decreases(self):
        ds = small_dataset(n_videos=1)
        cfg = small_cfg(epochs=10, accumulate=1)
        cfg.loss = dataclasses.replace(
            LossConfig(), lambda_rank=0.0, lambda_stab=0.0, lambda_kl=0.0
        )
        result = train(ds, cfg)
        mains = [h.main for h in result.history]
        assert all(b < a for a, b in zip(mains, mains[1:]))

    def test_mode_mismatch_rejected(self):
        ds = small_dataset(mode="summe")
        with pytest.raises(ConfigError, match="mode"):
            train(ds, small_cfg(mode="tvsum"))

    def test_feature_dim_mismatch_rejected(self):
        ds = small_dataset()
        cfg = small_cfg()
        cfg.scorer.input_dim = 99
        with pytest.raises(ConfigError, match="feature dim"):
            train(ds, cfg)

    def test_summe_mode_runs(self):
        ds = small_dataset(mode="summe")
        result = train(ds, small_cfg(mode="summe", epochs=2))
        assert len(result.history) == 2
        assert all(math.isfinite(h.total) for h in result.history)

    def test_post_clip_norm_bounded_every_step(self, monkeypatch):
        seen = []
        original = trainer.clip_global_norm

        def spy(grads, max_norm):
            out = original(grads, max_norm)
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in out.values()))
            seen.append((norm, max_norm))
            return out

        monkeypatch.setattr(trainer, "clip_global_norm", spy)
        train(small_dataset(), small_cfg(epochs=2, clip_norm=0.05))
        assert seen
        assert all(norm <= max_norm + 1e-9 for norm, max_norm in seen)

    def test_epoch_breakdown_composition(self):
        result = train(small_dataset(), small_cfg(epochs=2))
        for row in result.history:
            recomposed = ((row.main + row.lambda_rank * row.rank)
                          + row.lambda_stab * row.stab) + row.lambda_kl * row.kl
            assert row.total == recomposed

    def test_validation_tracks_best_checkpoint(self):
        ds = small_dataset(n_videos=4)
        cfg = small_cfg(epochs=4)
        result = train(ds, cfg, val_videos=ds.videos[-1:])
        assert result.best_epoch is not None
        assert 0 <= result.best_epoch < 4
        assert result.best_params is not None
        assert math.isfinite(result.best_rho)

    def test_checkpoint_dir_outputs(self, tmp_path):
        ds = small_dataset()
        train(ds, small_cfg(epochs=2), checkpoint_dir=str(tmp_path))
        assert (tmp_path / "checkpoint.json").exists()
        log = (tmp_path / "train_log.csv").read_text().strip().splitlines()
        assert log[0].split(",")[:6] == ["epoch", "main", "rank", "stab", "kl", "total"]
        assert len(log) == 1 + 2

    def test_accumulate_covers_partial_window(self):
        # 3 videos with accumulate=2 leaves a trailing window of one video
        result = train(small_dataset(n_videos=3), small_cfg(epochs=1, accumulate=2))
        assert len(result.history) == 1

    def test_negative_seed_names_the_key(self):
        with pytest.raises(ConfigError, match="train.seed must be >= 0, got -1"):
            train(small_dataset(), small_cfg(seed=-1))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            train(Dataset("tvsum", []), small_cfg())

    def test_numeric_error_names_the_epoch_and_video(self):
        dataset = small_dataset()
        # finite features that overflow the input projection
        dataset.videos[1].features[:] = [1.7e308, -1.7e308] * 4
        with np.errstate(all="ignore"), pytest.raises(NumericError) as excinfo:
            train(dataset, small_cfg(epochs=1))
        message = str(excinfo.value)
        assert message.startswith(f"epoch 0, video {dataset.videos[1].video_id!r}: non-finite forward value")
        assert isinstance(excinfo.value.node_id, int)
        assert f"at node {excinfo.value.node_id} (affine)" in message


@pytest.fixture()
def tape_refs(monkeypatch):
    """Weak references to every tape made while the test runs, with the
    cyclic collector off, so a tape is dead only if reference counting
    freed it."""
    refs = []
    make = dc.Tape.__init__

    def init(tape, *args, **kwargs):
        make(tape, *args, **kwargs)
        refs.append(weakref.ref(tape))

    monkeypatch.setattr(dc.Tape, "__init__", init)
    enabled = gc.isenabled()
    gc.disable()
    yield refs
    if enabled:
        gc.enable()


class TestTapeRelease:
    """Each tape `train` and `predict_scores` make is freed when the call
    returns, without waiting for the cyclic collector."""

    @staticmethod
    def desk():
        # the acceptance overfit model and corpus (the benchmark's desk scale)
        dataset = generate_synthetic(
            SyntheticConfig(n_videos=8, timesteps=64, feature_dim=16, annotators=3, segments=6, seed=7)
        )
        cfg = RunConfig(
            scorer=ScorerConfig(
                input_dim=16, model_dim=32, heads=2, layers=1, refine_blocks=1,
                kernel=3, ffn_mult=2, max_timesteps=64,
            ),
            head=HeadConfig(latent_dim=8),
            loss=LossConfig(),
            train=TrainConfig(lr=5e-3, epochs=1, accumulate=4, seed=3, mode="tvsum"),
        )
        return dataset, cfg

    def test_train_epoch_frees_its_tapes(self, tape_refs):
        dataset, cfg = self.desk()
        train(dataset, cfg)
        assert len(tape_refs) == len(dataset.videos)
        assert [r for r in tape_refs if r() is not None] == []

    def test_predict_scores_frees_its_tape(self, tape_refs):
        dataset, cfg = self.desk()
        video = dataset.videos[0]
        params = trainer.init_all_params(cfg, np.random.default_rng(0))
        scores = trainer.predict_scores(params, video, assign_segment_ids(video.picks, video.change_points), cfg)
        assert len(tape_refs) == 1 and tape_refs[0]() is None
        assert np.isfinite(scores["signal"]).all()


class TestNoGradForward:
    """`predict_scores` reads the posterior-mean logit on a gradient-free
    tape, which gives the graph forward's signal at zero latent noise bit
    for bit."""

    @pytest.mark.parametrize(
        "shape, mode",
        [
            ((64, 16, 6), "tvsum"),  # desk dims
            ((64, 16, 6), "summe"),
            ((320, 1024, 80), "tvsum"),  # paper dims: T, D, M (default RunConfig)
        ],
        ids=["desk", "desk-summe", "paper"],
    )
    def test_no_grad_forward_equals_the_graph_forward(self, shape, mode):
        t_len, feature_dim, segments = shape
        video = generate_synthetic(
            SyntheticConfig(n_videos=1, timesteps=t_len, feature_dim=feature_dim, segments=segments,
                            mode=mode, seed=11)
        ).videos[0]
        cfg = RunConfig() if feature_dim == 1024 else TestTapeRelease.desk()[1]
        cfg.train = dataclasses.replace(cfg.train, mode=mode)
        params = trainer.init_all_params(cfg, np.random.default_rng(2))
        seg = assign_segment_ids(video.picks, video.change_points)
        latent = np.zeros((t_len, cfg.head.latent_dim))
        _, graph_signal = trainer.model_forward(params, video.features, seg, cfg, latent)
        scores = trainer.predict_scores(params, video, seg, cfg)
        assert set(scores) == {"signal"}
        assert scores["signal"].tobytes() == graph_signal.value.tobytes()

    def test_predict_scores_records_no_graph(self, monkeypatch):
        dataset, cfg = TestTapeRelease.desk()
        video = dataset.videos[0]
        tapes = []
        make = dc.Tape.__init__

        def init(tape, *args, **kwargs):
            make(tape, *args, **kwargs)
            tapes.append(tape)

        monkeypatch.setattr(dc.Tape, "__init__", init)
        params = trainer.init_all_params(cfg, np.random.default_rng(0))
        trainer.predict_scores(params, video, assign_segment_ids(video.picks, video.change_points), cfg)
        assert len(tapes) == 1 and tapes[0].grad is False and tapes[0].nodes == []


class TestInferenceReadsNoVarianceHead:
    """Inference evaluates only the posterior-mean logit: neither
    log-variance head, nor the latent draw's exp and clips."""

    VARIANCE_HEADS = ("head.latent_logvar.w", "head.latent_logvar.b", "head.logv.w", "head.logv.b")

    @pytest.mark.parametrize("mode", ["tvsum", "summe"])
    def test_nan_variance_heads_leave_the_prediction_alone(self, mode):
        dataset, cfg = TestTapeRelease.desk()
        cfg.train = dataclasses.replace(cfg.train, mode=mode)
        video = dataset.videos[0]
        params = trainer.init_all_params(cfg, np.random.default_rng(4))
        poisoned = {name: value.copy() for name, value in params.items()}
        for name in self.VARIANCE_HEADS:
            poisoned[name].fill(np.nan)
        want = trainer.predict_scores(params, video, video.segment_map, cfg)["signal"]
        got = trainer.predict_scores(poisoned, video, video.segment_map, cfg)["signal"]
        assert got.tobytes() == want.tobytes()

    def test_predict_calls_no_exp_or_clip(self, monkeypatch):
        dataset, cfg = TestTapeRelease.desk()
        video = dataset.videos[0]
        params = trainer.init_all_params(cfg, np.random.default_rng(0))
        calls = []

        def spy(name):
            primitive = getattr(dc, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return primitive(*args, **kwargs)
            monkeypatch.setattr(dc, name, wrapped)

        spy("exp")
        spy("clip")
        scores = trainer.predict_scores(params, video, video.segment_map, cfg)
        assert calls == [] and np.isfinite(scores["signal"]).all()


class TestStabilityPool:
    """What the stability loss receives is the decoder's segment values (a
    `SegmentIndexMap` called on the decode signal), exactly."""

    # picks (0, 10, 20) span 10, 10 and 10 frames across segments of
    # 5, 5, 15 and 5 frames: the pick mean would give [s0, 0, mean(s1, s2), 0]
    PICKS = PickSequence((0, 10, 20))
    CPS = ChangePointPartition(((0, 4), (5, 9), (10, 24), (25, 29)), 30)

    def train_and_check_pool(self, monkeypatch, mode, labels):
        rng = np.random.default_rng(6)
        video = VideoRecord("v", rng.standard_normal((3, 8)), self.PICKS, self.CPS, labels(rng))
        seen = {}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                seen[name] = args[0].value.copy()
                return fn(*args, **kwargs)
            monkeypatch.setattr(trainer.losses, name, wrapped)

        spy("ranking_hinge", trainer.losses.ranking_hinge)
        spy("stability_loss", trainer.losses.stability_loss)
        train(Dataset(mode, [video]), small_cfg(mode, epochs=1, accumulate=1))
        signal, pooled = seen["ranking_hinge"], seen["stability_loss"]
        assert np.array_equal(pooled, SegmentIndexMap(self.PICKS, self.CPS)(signal))
        assert pooled[0] == pooled[1] == signal[0]
        return signal

    def test_stability_loss_sees_the_decoders_segment_values(self, monkeypatch):
        self.train_and_check_pool(monkeypatch, "tvsum", lambda rng: rng.uniform(0, 1, (2, 3)))

    def test_summe_stability_loss_pools_the_calibrated_probabilities(self, monkeypatch):
        summaries = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        signal = self.train_and_check_pool(monkeypatch, "summe", lambda rng: summaries)
        assert ((signal > 0) & (signal < 1)).all()

    def test_stability_capacity_is_the_decoders_budget(self, monkeypatch):
        # a record's frame count is its partition's: stretching the last
        # segment to four times the frames moves the budget with it
        video = small_dataset(n_videos=1).videos[0]
        n = 4 * video.change_points.n_frames
        *head, (start, _) = video.change_points.segments
        cps = ChangePointPartition((*head, (start, n - 1)), n)
        video = dataclasses.replace(video, change_points=cps)
        assert video.n_frames == n
        capacities = []
        stability_loss = trainer.losses.stability_loss

        def spy(pooled, lengths, capacity, *rest):
            capacities.append(capacity)
            return stability_loss(pooled, lengths, capacity, *rest)

        monkeypatch.setattr(trainer.losses, "stability_loss", spy)
        cfg = small_cfg(epochs=2, accumulate=1)
        train(Dataset("tvsum", [video]), cfg)
        assert capacities == [budget(cfg.train.rho, cps.n_frames)] * 2
        assert budget(cfg.train.rho, cps.n_frames) != budget(cfg.train.rho, n // 4)


class TestEmptySegment:
    def test_training_on_a_segment_with_no_pick(self, monkeypatch):
        # picks fall on even frames; frame p0 + 1 alone is a segment with no pick
        ds = small_dataset()
        video = ds.videos[1]
        p0, p1, n = video.picks.picks[0], video.picks.picks[1], video.n_frames
        cps = ChangePointPartition(((0, p0), (p0 + 1, p1 - 1), (p1, n - 1)), n)
        ds.videos[1] = video = dataclasses.replace(video, change_points=cps)
        seg = assign_segment_ids(video.picks, cps)
        assert np.bincount(seg.segment_ids, minlength=3)[1] == 0

        steps = []
        build = trainer.build_video_loss

        def spy(*args):
            total, breakdown = build(*args)
            steps.append(breakdown)
            return total, breakdown

        monkeypatch.setattr(trainer, "build_video_loss", spy)
        cfg = small_cfg(epochs=2)
        result = train(ds, cfg)
        assert len(steps) == 2 * len(ds.videos)
        for row in steps + result.history:
            assert all(math.isfinite(x) for x in dataclasses.astuple(row)), row

        tape = dc.Tape()
        params = dc.lift_params(tape, result.params)
        h0 = scorer.project_and_embed(tape.constant(video.features), params)
        tokens = scorer.segment_tokenize(h0, seg).value
        assert not tokens[1].any() and tokens[[0, 2]].all()
        pred = trainer.predict_scores(result.params, video, seg, cfg)
        assert all(np.isfinite(a).all() for a in pred.values())


class TestCheckpointRoundTrip:
    def test_save_load_identity(self, tmp_path):
        cfg = small_cfg()
        params = trainer.init_all_params(cfg, np.random.default_rng(0))
        path = tmp_path / "ckpt.json"
        save_params(params, path, meta={"config": dataclasses.asdict(cfg)})
        loaded, meta = load_params(path)
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])
        assert meta["config"]["train"]["mode"] == "tvsum"
        validate_shapes(loaded, trainer.all_param_shapes(cfg))

    def test_bit_patterns_survive(self, tmp_path):
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        params = {
            "edge": np.array([-0.0, tiny, -tiny, sys.float_info.max, -sys.float_info.max]),
            "pos.table": np.random.default_rng(3).standard_normal((320, 128)),
            "scalar": np.array(-0.0),
            "transposed": np.arange(6.0).reshape(2, 3).T,  # written in row-major order
        }
        path = tmp_path / "ckpt.json"
        save_params(params, path)
        loaded, meta = load_params(path)
        assert meta == {}
        assert list(loaded) == sorted(params)
        for name, value in params.items():
            assert loaded[name].shape == value.shape, name
            assert np.array_equal(loaded[name].view(np.int64), value.view(np.int64)), name

    def test_loaded_arrays_are_writable_and_disjoint(self, tmp_path):
        params = trainer.init_all_params(small_cfg(), np.random.default_rng(0))
        path = tmp_path / "ckpt.json"
        save_params(params, path)
        loaded, _ = load_params(path)
        for name, value in loaded.items():
            assert value.flags.writeable, name
        for (a, x), (b, y) in itertools.combinations(loaded.items(), 2):
            assert not np.shares_memory(x, y), (a, b)
        loaded["pos.table"] += 1.0
        assert np.array_equal(load_params(path)[0]["pos.table"], params["pos.table"])

    def test_header_length_with_brace_low_byte_loads(self, tmp_path):
        # a header of 123 bytes mod 256 starts the file with 0x7B, '{'
        params = {"w": np.array([1.5, -2.0])}
        base = len(params_to_bytes(params, {"pad": ""})) - 8 - 16
        meta = {"pad": "x" * ((123 - base) % 256)}
        path = tmp_path / "ckpt.json"
        save_params(params, path, meta)
        assert path.read_bytes()[:1] == b"{"
        loaded, loaded_meta = load_params(path)
        assert loaded_meta == meta
        assert np.array_equal(loaded["w"].view(np.int64), params["w"].view(np.int64))

    def test_bytes_ignore_insertion_order(self):
        params = trainer.init_all_params(small_cfg(), np.random.default_rng(0))
        backwards = dict(reversed(list(params.items())))
        assert list(backwards) != list(params)
        meta = {"b": 1, "a": [2.5, {"d": 0, "c": 1}]}
        assert params_to_bytes(params, meta) == params_to_bytes(backwards, meta)

    def test_best_checkpoint_holds_the_best_epoch(self, tmp_path):
        ds = small_dataset(n_videos=6, seed=1)
        by_id = {v.video_id: v for v in ds.videos}
        train_ids, test_ids = make_folds(ds, k=3, seed=1)[0]
        result = train(
            Dataset(ds.mode, [by_id[i] for i in train_ids]), small_cfg(epochs=4),
            val_videos=[by_id[i] for i in test_ids], checkpoint_dir=str(tmp_path),
        )
        assert result.best_epoch is not None
        best, _ = load_params(tmp_path / "best.json")
        last, _ = load_params(tmp_path / "checkpoint.json")
        assert params_to_bytes(best) == params_to_bytes(result.best_params)
        assert params_to_bytes(last) == params_to_bytes(result.params)
        # best.json differs from the last save exactly when an earlier epoch won
        won_early = result.best_epoch < len(result.history) - 1
        assert (params_to_bytes(best) != params_to_bytes(last)) == won_early

    def test_shape_validation_catches_mismatch(self, tmp_path):
        cfg = small_cfg()
        params = trainer.init_all_params(cfg, np.random.default_rng(0))
        params["pos.table"] = params["pos.table"][:4]
        with pytest.raises(ValueError, match="pos.table"):
            validate_shapes(params, trainer.all_param_shapes(cfg))
