import math

import numpy as np
import pytest

import vastsum.diffcore as dc
import vastsum.scorer as scorer
from vastsum.config import RunConfig, ScorerConfig
from vastsum.data import VideoRecord
from vastsum.errors import ShapeError
from vastsum.timeline import ChangePointPartition, PickSequence, SegmentIndexMap, assign_segment_ids
from vastsum.trainer import init_all_params, init_from_shapes, predict_scores

from oracles import mean_rows


def tiny_cfg(**kw):
    base = dict(
        input_dim=3, model_dim=4, heads=2, layers=1, refine_blocks=1,
        kernel=3, ffn_mult=2, max_timesteps=8,
    )
    base.update(kw)
    cfg = ScorerConfig(**base)
    cfg.validate()
    return cfg


def init(cfg, seed=0):
    return init_from_shapes(scorer.param_shapes(cfg), np.random.default_rng(seed))


def lifted(params):
    tape = dc.Tape()
    return tape, dc.lift_params(tape, params)


def zero_residual_branches(params, cfg):
    """Zero attention, FFN, and refinement weights; keep LN affines at (1, 0)."""
    for i in range(cfg.layers):
        for h in range(cfg.heads):
            for w in ("wq", "wk", "wv"):
                params[f"seg{i}.head{h}.{w}"][:] = 0.0
        params[f"seg{i}.attn.wo"][:] = 0.0
        for name in ("ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2"):
            params[f"seg{i}.{name}"][:] = 0.0
    for j in range(cfg.refine_blocks):
        params[f"refine{j}.depthwise"][:] = 0.0
        params[f"refine{j}.pointwise.w"][:] = 0.0
        params[f"refine{j}.pointwise.b"][:] = 0.0
    return params


def simple_seg(ids, n_segments):
    """A map whose segment lengths are their pick counts (at least 1)."""
    counts = np.bincount(ids, minlength=n_segments)
    return SegmentIndexMap(segment_ids=tuple(ids), lengths=tuple(max(int(c), 1) for c in counts))


class TestProjectAndEmbed:
    def test_all_zero_inputs_stay_zero(self):
        cfg = tiny_cfg()
        params = init(cfg)
        params["input.proj.w"][:] = 0.0
        params["pos.table"][:] = 0.0
        tape, p = lifted(params)
        x = tape.constant(np.zeros((5, cfg.input_dim)))
        out = scorer.project_and_embed(x, p)
        assert np.array_equal(out.value, np.zeros((5, cfg.model_dim)))

    def test_hand_layer_norm_plus_position(self):
        cfg = tiny_cfg(input_dim=2, model_dim=2, heads=1, max_timesteps=4)
        params = init(cfg)
        params["input.proj.w"][:] = np.eye(2)
        params["input.proj.b"][:] = 0.0
        params["pos.table"][:] = 0.0
        params["pos.table"][0] = [0.1, 0.2]
        tape, p = lifted(params)
        out = scorer.project_and_embed(tape.constant([[1.0, -1.0]]), p)
        # LN([1,-1]) has mean 0, var 1; the eps shrinks it slightly below [1,-1]
        np.testing.assert_allclose(out.value, [[1.1, -0.8]], atol=1e-4)

    def test_capacity_boundary(self):
        cfg = tiny_cfg(max_timesteps=6)
        params = init(cfg)
        tape, p = lifted(params)
        ok = tape.constant(np.zeros((6, cfg.input_dim)))
        scorer.project_and_embed(ok, p)
        too_long = tape.constant(np.zeros((7, cfg.input_dim)))
        with pytest.raises(ShapeError, match="gather-rows: index out of range"):
            scorer.project_and_embed(too_long, p)
        # a library caller that skips `check_videos_fit` still gets an error
        run_cfg = RunConfig(scorer=cfg)
        video = VideoRecord("long", 7, np.zeros((7, cfg.input_dim)), PickSequence(tuple(range(7))),
                            ChangePointPartition(((0, 6),), 7), np.zeros((1, 7)))
        params = init_all_params(run_cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            predict_scores(params, video, video.segment_map, run_cfg)


class TestSegmentTokenize:
    def test_single_segment_is_column_mean(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((5, 3))
        tape = dc.Tape()
        z = scorer.segment_tokenize(tape.constant(h), simple_seg([0] * 5, 1))
        np.testing.assert_allclose(z.value, h.mean(axis=0, keepdims=True), atol=1e-15)

    def test_one_segment_per_frame_is_identity(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((4, 3))
        tape = dc.Tape()
        z = scorer.segment_tokenize(tape.constant(h), simple_seg([0, 1, 2, 3], 4))
        assert np.array_equal(z.value, h)

    def test_two_row_mean(self):
        tape = dc.Tape()
        h = tape.constant([[1.0, 1.0], [3.0, 3.0]])
        z = scorer.segment_tokenize(h, simple_seg([0, 0], 1))
        assert z.value.tolist() == [[2.0, 2.0]]


def reference_layer(z, params, cfg, i):
    """Independent numpy evaluation of one pre-norm encoder layer."""

    def ln(x, gain, bias):
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * gain + bias

    def gelu(x):
        return x * 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))

    zn = ln(z, params[f"seg{i}.norm1.gain"], params[f"seg{i}.norm1.bias"])
    heads = []
    for h in range(cfg.heads):
        q = zn @ params[f"seg{i}.head{h}.wq"]
        k = zn @ params[f"seg{i}.head{h}.wk"]
        v = zn @ params[f"seg{i}.head{h}.wv"]
        logits = q @ k.T / math.sqrt(cfg.head_dim)
        weights = np.exp(logits - logits.max(-1, keepdims=True))
        weights /= weights.sum(-1, keepdims=True)
        heads.append(weights @ v)
    u = z + np.concatenate(heads, axis=-1) @ params[f"seg{i}.attn.wo"]
    un = ln(u, params[f"seg{i}.norm2.gain"], params[f"seg{i}.norm2.bias"])
    ffn = gelu(un @ params[f"seg{i}.ffn.w1"] + params[f"seg{i}.ffn.b1"])
    return u + ffn @ params[f"seg{i}.ffn.w2"] + params[f"seg{i}.ffn.b2"]


class TestSegmentTransformer:
    def test_zero_init_identity(self):
        cfg = tiny_cfg(layers=2)
        params = zero_residual_branches(init(cfg, seed=3), cfg)
        rng = np.random.default_rng(4)
        z0 = rng.standard_normal((3, cfg.model_dim))
        tape, p = lifted(params)
        out = scorer.segment_transformer(tape.constant(z0), p, cfg)
        assert np.array_equal(out.value, z0)

    def test_single_token_attention_is_linear(self):
        cfg = tiny_cfg(heads=1)
        params = init(cfg, seed=5)
        rng = np.random.default_rng(6)
        z0 = rng.standard_normal((1, cfg.model_dim))
        tape, p = lifted(params)
        out = scorer.segment_transformer(tape.constant(z0), p, cfg)
        np.testing.assert_allclose(out.value, reference_layer(z0, params, cfg, 0), atol=1e-12)

    def test_hand_weights_match_reference(self):
        cfg = tiny_cfg(model_dim=2, heads=1, input_dim=2)
        params = init(cfg, seed=7)
        params["seg0.head0.wq"][:] = [[0.5, -0.2], [0.1, 0.3]]
        params["seg0.head0.wk"][:] = [[0.2, 0.4], [-0.3, 0.1]]
        params["seg0.head0.wv"][:] = [[1.0, 0.0], [0.0, 1.0]]
        params["seg0.attn.wo"][:] = [[0.7, -0.1], [0.2, 0.5]]
        z0 = np.array([[1.0, 2.0], [-1.0, 0.5]])
        tape, p = lifted(params)
        out = scorer.segment_transformer(tape.constant(z0), p, cfg)
        np.testing.assert_allclose(out.value, reference_layer(z0, params, cfg, 0), atol=1e-12)

    def test_multilayer_matches_reference(self):
        cfg = tiny_cfg(layers=2, model_dim=4, heads=2)
        params = init(cfg, seed=8)
        rng = np.random.default_rng(9)
        z = rng.standard_normal((5, cfg.model_dim))
        tape, p = lifted(params)
        out = scorer.segment_transformer(tape.constant(z), p, cfg)
        ref = reference_layer(reference_layer(z, params, cfg, 0), params, cfg, 1)
        np.testing.assert_allclose(out.value, ref, atol=1e-12)

    def test_segment_permutation_equivariance(self):
        cfg = tiny_cfg()
        params = init(cfg, seed=10)
        rng = np.random.default_rng(11)
        z = rng.standard_normal((4, cfg.model_dim))
        perm = np.array([2, 0, 3, 1])
        tape, p = lifted(params)
        out = scorer.segment_transformer(tape.constant(z), p, cfg).value
        tape2, p2 = lifted(params)
        out_perm = scorer.segment_transformer(tape2.constant(z[perm]), p2, cfg).value
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)


class TestGatedFusion:
    def test_zero_gate_weights_give_half_alpha(self):
        cfg = tiny_cfg()
        params = init(cfg, seed=12)
        params["fusion.gate.w"][:] = 0.0
        params["fusion.gate.b"][:] = 0.0
        rng = np.random.default_rng(13)
        h0 = rng.standard_normal((3, cfg.model_dim))
        context = rng.standard_normal((2, cfg.model_dim))
        seg = simple_seg([0, 0, 1], 2)
        tape, p = lifted(params)
        out = scorer.gated_fusion(tape.constant(h0), tape.constant(context), seg, p)
        fused = h0 + 0.5 * context[[0, 0, 1]]
        mu = fused.mean(-1, keepdims=True)
        var = ((fused - mu) ** 2).mean(-1, keepdims=True)
        expected = (fused - mu) / np.sqrt(var + 1e-5)
        expected = expected * params["fusion.norm.gain"] + params["fusion.norm.bias"]
        np.testing.assert_allclose(out.value, expected, atol=1e-12)

    def test_saturated_negative_bias_shuts_the_gate(self):
        cfg = tiny_cfg()
        params = init(cfg, seed=14)
        params["fusion.gate.w"][:] = 0.0
        params["fusion.gate.b"][:] = -30.0
        rng = np.random.default_rng(15)
        h0 = rng.standard_normal((3, cfg.model_dim))
        context = rng.standard_normal((1, cfg.model_dim))
        seg = simple_seg([0, 0, 0], 1)
        tape, p = lifted(params)
        out = scorer.gated_fusion(tape.constant(h0), tape.constant(context), seg, p)
        tape2, p2 = lifted(params)
        bare = scorer.gated_fusion(
            tape2.constant(h0), tape2.constant(np.zeros((1, cfg.model_dim))), seg, p2
        )
        np.testing.assert_allclose(out.value, bare.value, atol=1e-9)

    def test_zero_context_passes_h0_through(self):
        cfg = tiny_cfg()
        params = init(cfg, seed=16)
        rng = np.random.default_rng(17)
        h0 = rng.standard_normal((4, cfg.model_dim))
        seg = simple_seg([0, 0, 1, 1], 2)
        tape, p = lifted(params)
        out = scorer.gated_fusion(tape.constant(h0), tape.constant(np.zeros((2, cfg.model_dim))), seg, p)
        mu = h0.mean(-1, keepdims=True)
        var = ((h0 - mu) ** 2).mean(-1, keepdims=True)
        expected = (h0 - mu) / np.sqrt(var + 1e-5)
        expected = expected * params["fusion.norm.gain"] + params["fusion.norm.bias"]
        np.testing.assert_allclose(out.value, expected, atol=1e-15)


class TestTemporalRefine:
    def test_zero_weights_identity(self):
        cfg = tiny_cfg(refine_blocks=2)
        params = zero_residual_branches(init(cfg, seed=18), cfg)
        rng = np.random.default_rng(19)
        h = rng.standard_normal((6, cfg.model_dim))
        tape, p = lifted(params)
        out = scorer.temporal_refine(tape.constant(h), p, cfg)
        assert np.array_equal(out.value, h)

    def test_identity_kernel_gelu_hand_value(self):
        cfg = tiny_cfg(model_dim=1, heads=1, input_dim=1, kernel=3)
        params = init(cfg, seed=20)
        params["refine0.depthwise"][:] = [[0.0, 1.0, 0.0]]
        params["refine0.pointwise.w"][:] = [[1.0]]
        params["refine0.pointwise.b"][:] = 0.0
        tape, p = lifted(params)
        out = scorer.temporal_refine(tape.constant([[2.0], [2.0], [2.0]]), p, cfg)
        g2 = 2.0 * 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0)))  # 1.9545
        np.testing.assert_allclose(out.value, np.full((3, 1), 2.0 + g2), atol=1e-12)
        assert out.value[0, 0] == pytest.approx(3.9545, abs=1e-4)

    def test_one_residual_around_the_whole_stack(self):
        # out = h + B2(B1(h)); a residual per block would give x1 + B2(x1), x1 = h + B1(h)
        cfg = tiny_cfg(model_dim=1, heads=1, input_dim=1, kernel=3, refine_blocks=2)
        params = init(cfg, seed=20)
        for j in range(2):
            params[f"refine{j}.depthwise"][:] = [[0.0, 1.0, 0.0]]
            params[f"refine{j}.pointwise.w"][:] = [[1.0]]
            params[f"refine{j}.pointwise.b"][:] = 0.0
        tape, p = lifted(params)
        out = scorer.temporal_refine(tape.constant([[2.0], [2.0], [2.0]]), p, cfg)

        def gelu(x):
            return x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

        whole = 2.0 + gelu(gelu(2.0))
        per_block = (2.0 + gelu(2.0)) + gelu(2.0 + gelu(2.0))
        np.testing.assert_allclose(out.value, np.full((3, 1), whole), atol=1e-12)
        assert abs(whole - per_block) > 1.0

    def test_single_timestep_padding(self):
        cfg = tiny_cfg(kernel=3)
        params = init(cfg, seed=21)
        tape, p = lifted(params)
        out = scorer.temporal_refine(tape.constant(np.ones((1, cfg.model_dim))), p, cfg)
        assert out.value.shape == (1, cfg.model_dim)
        assert np.all(np.isfinite(out.value))


class TestForward:
    def _setup(self, cfg, seed):
        picks = PickSequence(tuple(range(6)))
        cps = ChangePointPartition(((0, 1), (2, 3), (4, 5)), 6)
        seg = assign_segment_ids(picks, cps)
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((6, cfg.input_dim))
        return seg, features

    def test_cross_segment_isolation_with_zeroed_branches(self):
        # with attention/FFN/refinement zeroed, a frame's output depends only
        # on its own h0 and its segment's mean
        cfg = tiny_cfg()
        params = zero_residual_branches(init(cfg, seed=22), cfg)
        seg, features = self._setup(cfg, 23)
        tape, p = lifted(params)
        base = scorer.forward(tape.constant(features), seg, p, cfg).value

        poked = features.copy()
        poked[5] += 1.0  # segment 2
        tape2, p2 = lifted(params)
        out = scorer.forward(tape2.constant(poked), seg, p2, cfg).value
        np.testing.assert_array_equal(out[:4], base[:4])  # segments 0 and 1 untouched
        assert not np.allclose(out[4:], base[4:])

        poked_same = features.copy()
        poked_same[0] += 1.0  # same segment as frame 1
        tape3, p3 = lifted(params)
        out_same = scorer.forward(tape3.constant(poked_same), seg, p3, cfg).value
        assert not np.allclose(out_same[1], base[1])

    def test_end_to_end_gradient_check(self):
        cfg = tiny_cfg()
        params = init(cfg, seed=24)
        seg, features = self._setup(cfg, 25)

        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            h_hat = scorer.forward(tape.constant(features), seg, p, cfg)
            summed = dc.matmul(h_hat, tape.constant(np.ones(cfg.model_dim)))
            return mean_rows(summed)

        assert dc.finite_difference_check(build, params) < 1e-4
