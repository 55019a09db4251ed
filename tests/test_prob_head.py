import math

import numpy as np
import pytest

import vastsum.diffcore as dc
import vastsum.prob_head as prob_head
from vastsum.config import HeadConfig, ScorerConfig
from vastsum.errors import ConfigError
from vastsum.trainer import init_from_shapes

from oracles import mean_rows


def configs(d=4, dz=2, hidden=None, temperature=1.0):
    scorer_cfg = ScorerConfig(input_dim=3, model_dim=d, heads=2, max_timesteps=8)
    head_cfg = HeadConfig(latent_dim=dz, hidden_dim=hidden, temperature=temperature)
    return scorer_cfg, head_cfg


def init(scorer_cfg, head_cfg, seed=0):
    shapes = prob_head.param_shapes(scorer_cfg, head_cfg)
    return init_from_shapes(shapes, np.random.default_rng(seed))


def lifted(params):
    tape = dc.Tape()
    return tape, dc.lift_params(tape, params)


def latent_head(mu_z, log_var_z, hidden=None):
    """d = 1 head params whose latent mean and log-variance are the rows
    mu_z and log_var_z at every timestep: zero latent weights, the values as
    biases (0.0 + b is b exactly)."""
    scorer_cfg, head_cfg = configs(d=1, dz=len(mu_z), hidden=hidden)
    params = init(scorer_cfg, head_cfg)
    params["head.latent_mu.w"][:] = 0.0
    params["head.latent_mu.b"][:] = mu_z
    params["head.latent_logvar.w"][:] = 0.0
    params["head.latent_logvar.b"][:] = log_var_z
    return params


def run_forward(params, h, noise):
    tape, p = lifted(params)
    return prob_head.forward(tape.constant(np.asarray(h, dtype=np.float64)), p, np.asarray(noise))


class TestPosteriorParams:
    """The latent mean and clamped log-variance `forward` records first."""

    def test_zero_weights(self):
        scorer_cfg, head_cfg = configs()
        params = init(scorer_cfg, head_cfg)
        params["head.latent_mu.w"][:] = 0.0
        params["head.latent_logvar.w"][:] = 0.0
        out = run_forward(params, np.ones((3, 4)), np.zeros((3, 2)))
        assert np.array_equal(out.mu_z.value, np.zeros((3, 2)))
        assert np.array_equal(out.log_var_z.value, np.zeros((3, 2)))

    def test_log_variance_clamped_both_ways(self):
        scorer_cfg, head_cfg = configs(d=1, dz=1)
        params = init(scorer_cfg, head_cfg)
        params["head.latent_logvar.w"][:] = 1.0
        params["head.latent_logvar.b"][:] = 0.0
        out = run_forward(params, [[12.0], [-20.0]], np.zeros((2, 1)))
        assert out.log_var_z.value.tolist() == [[5.0], [-10.0]]

    def test_identity_projection(self):
        scorer_cfg, head_cfg = configs(d=1, dz=1)
        params = init(scorer_cfg, head_cfg)
        params["head.latent_mu.w"][:] = 1.0
        params["head.latent_mu.b"][:] = 0.0
        out = run_forward(params, [[0.3]], np.zeros((1, 1)))
        assert out.mu_z.value[0, 0] == pytest.approx(0.3, abs=1e-15)


class TestSampleLatent:
    """The reparameterized draw z = mu_z + exp(log_var_z / 2) * noise."""

    def test_zero_noise_returns_mean(self):
        out = run_forward(latent_head([0.7, -0.2], [1.0, -3.0]), [[1.0]], np.zeros((1, 2)))
        assert out.mu_z.value.tolist() == [[0.7, -0.2]]
        assert out.log_var_z.value.tolist() == [[1.0, -3.0]]
        assert np.array_equal(out.z.value, out.mu_z.value)

    def test_unit_sigma(self):
        out = run_forward(latent_head([0.0], [0.0]), [[1.0]], [[1.5]])
        assert out.z.value[0, 0] == 1.5

    def test_sigma_two(self):
        out = run_forward(latent_head([1.0], [math.log(4.0)]), [[1.0]], [[-1.0]])
        assert out.log_var_z.value[0, 0] == math.log(4.0)
        assert out.z.value[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="noise shape"):
            run_forward(latent_head([0.0], [0.0]), [[1.0]], np.zeros((2, 1)))


class TestImportanceParams:
    """The logit and clamped observation log-variance from [h; z]."""

    def test_zero_mlp(self):
        scorer_cfg, head_cfg = configs()
        params = init(scorer_cfg, head_cfg)
        params["head.latent_mu.w"][:] = 0.0
        params["head.latent_mu.b"][:] = 1.0
        for name in ("head.mlp.w", "head.mu.w", "head.logv.w"):
            params[name][:] = 0.0
        out = run_forward(params, np.ones((3, 4)), np.zeros((3, 2)))
        assert np.array_equal(out.z.value, np.ones((3, 2)))
        assert np.array_equal(out.mu.value, np.zeros(3))
        assert np.array_equal(out.log_v.value, np.zeros(3))

    def test_log_v_clamp_ceiling(self):
        scorer_cfg, head_cfg = configs()
        params = init(scorer_cfg, head_cfg)
        params["head.mlp.w"][:] = 0.0
        params["head.logv.w"][:] = 0.0
        params["head.logv.b"][:] = 7.0
        out = run_forward(params, np.zeros((2, 4)), np.zeros((2, 2)))
        assert np.array_equal(out.z.value, np.zeros((2, 2)))
        assert out.log_v.value.tolist() == [5.0, 5.0]

    def test_hand_single_hidden_unit(self):
        h_val, z_val = 0.4, -0.8
        params = latent_head([z_val], [0.0], hidden=1)
        params["head.mlp.w"][:] = [[0.5], [0.25]]
        params["head.mlp.b"][:] = 0.1
        params["head.mu.w"][:] = 2.0
        params["head.mu.b"][:] = -0.05
        out = run_forward(params, [[h_val]], np.zeros((1, 1)))
        assert out.z.value[0, 0] == z_val
        pre = 0.5 * h_val + 0.25 * z_val + 0.1
        hidden = pre * 0.5 * (1.0 + math.erf(pre / math.sqrt(2.0)))
        assert out.mu.value[0] == pytest.approx(2.0 * hidden - 0.05, abs=1e-12)


class TestTapeOrder:
    """The exact nodes each read-out records, in order, at desk dims (d = 32,
    dz = 8, T = 64): their kinds, and the weight each affine reads. Training's
    bytes follow the tape's order, so a reordered stage shows here before it
    moves a checkpoint."""

    def test_forward_and_posterior_mean_logit(self):
        scorer_cfg, head_cfg = configs(d=32, dz=8)
        params = init(scorer_cfg, head_cfg, seed=17)
        h = np.random.default_rng(18).standard_normal((64, 32))
        expected = {
            "forward": ["affine head.latent_mu.w", "affine head.latent_logvar.w", "clip",
                        "scalar-scale", "exp", "const", "multiply", "add", "concat-last-dim",
                        "affine head.mlp.w", "gelu", "affine head.mu.w", "affine head.logv.w", "clip"],
            "posterior_mean_logit": ["affine head.latent_mu.w", "const", "add", "concat-last-dim",
                                     "affine head.mlp.w", "gelu", "affine head.mu.w"],
        }
        for name, nodes in expected.items():
            tape, p = lifted(params)
            h_node = tape.constant(h)
            start = len(tape.nodes)
            if name == "forward":
                prob_head.forward(h_node, p, np.zeros((64, 8)))
            else:
                prob_head.posterior_mean_logit(h_node, p)
            recorded = [f"{node.kind} {node.parents[1].name}" if node.kind == "affine" else node.kind
                        for node in tape.nodes[start:]]
            assert recorded == nodes, name


class TestCalibrateProbability:
    def _mu(self, values):
        return dc.Tape().constant(np.asarray(values, dtype=np.float64))

    def test_zero_logit_is_half(self):
        for temp in (0.5, 1.0, 3.0):
            p = prob_head.calibrate_probability(self._mu([0.0]), temp)
            assert p.value[0] == 0.5

    def test_logit_equal_to_temperature(self):
        p = prob_head.calibrate_probability(self._mu([2.0]), 2.0)
        assert p.value[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)
        assert p.value[0] == pytest.approx(0.731059, abs=1e-6)

    def test_symmetry(self):
        temp = 1.7
        plus = prob_head.calibrate_probability(self._mu([temp]), temp).value[0]
        minus = prob_head.calibrate_probability(self._mu([-temp]), temp).value[0]
        assert minus == pytest.approx(0.268941, abs=1e-6)
        assert plus + minus == pytest.approx(1.0, abs=1e-12)

    def test_invalid_temperature(self):
        with pytest.raises(ConfigError):
            prob_head.calibrate_probability(self._mu([0.0]), 0.0)
        with pytest.raises(ConfigError):
            prob_head.calibrate_probability(self._mu([0.0]), -1.0)

    def test_monotone_in_logit_and_temperature(self):
        mus = np.linspace(-4.0, 4.0, 33)
        probs = prob_head.calibrate_probability(self._mu(mus), 0.8).value
        assert np.all(np.diff(probs) > 0)
        # for positive logits, a hotter temperature pulls p toward 0.5
        for t_lo, t_hi in [(0.5, 1.0), (1.0, 2.0), (2.0, 5.0)]:
            lo = prob_head.calibrate_probability(self._mu([1.3]), t_lo).value[0]
            hi = prob_head.calibrate_probability(self._mu([1.3]), t_hi).value[0]
            assert lo > hi > 0.5


class TestForward:
    def test_inference_determinism_bitwise(self):
        scorer_cfg, head_cfg = configs()
        params = init(scorer_cfg, head_cfg, seed=5)
        h = np.random.default_rng(6).standard_normal((5, 4))
        outs = []
        for _ in range(2):
            tape, p = lifted(params)
            out = prob_head.forward(tape.constant(h), p, np.zeros((5, 2)))
            outs.append((out.mu.value, out.log_v.value))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])
        tape, p = lifted(params)
        out = prob_head.forward(tape.constant(h), p, np.zeros((5, 2)))
        assert np.array_equal(out.z.value, out.mu_z.value)

    def test_clamp_ranges_hold_over_random_draws(self):
        scorer_cfg, head_cfg = configs()
        params = init(scorer_cfg, head_cfg, seed=7)
        rng = np.random.default_rng(8)
        # 10k timesteps in a handful of large batches, wild input scales
        for scale in (0.1, 1.0, 10.0, 100.0):
            h = scale * rng.standard_normal((2500, 4))
            tape, p = lifted(params)
            out = prob_head.forward(tape.constant(h), p, rng.standard_normal((2500, 2)))
            for arr in (out.log_v.value, out.log_var_z.value):
                assert np.all(arr >= -10.0) and np.all(arr <= 5.0)
            for arr in (out.mu.value, out.z.value):
                assert np.all(np.isfinite(arr))

    def test_gradients_away_from_clamps(self):
        scorer_cfg, head_cfg = configs()
        params = init(scorer_cfg, head_cfg, seed=9)
        h = 0.5 * np.random.default_rng(10).standard_normal((4, 4))
        noise = np.random.default_rng(11).standard_normal((4, 2))

        def build(theta):
            tape = dc.Tape()
            p = dc.lift_params(tape, theta)
            out = prob_head.forward(tape.constant(h), p, noise)
            total = dc.add(
                mean_rows(dc.square(out.mu)),
                mean_rows(dc.square(out.log_v)),
            )
            kl_ish = mean_rows(dc.matmul(dc.square(out.z), out.mu_z.tape.constant(np.ones(2))))
            return dc.add(total, kl_ish)

        assert dc.finite_difference_check(build, params) < 1e-4


class TestPosteriorMeanLogit:
    """The inference read-out equals the training forward at zero noise,
    bit for bit."""

    @staticmethod
    def both(params, h, temperature=None):
        tape, p = lifted(params)
        mean = prob_head.posterior_mean_logit(tape.constant(h), p)
        tape, p = lifted(params)
        drawn = prob_head.forward(tape.constant(h), p, np.zeros((h.shape[0], 2))).mu
        if temperature is not None:
            mean = prob_head.calibrate_probability(mean, temperature)
            drawn = prob_head.calibrate_probability(drawn, temperature)
        return mean.value, drawn.value

    def test_random_heads(self):
        scorer_cfg, head_cfg = configs()
        rng = np.random.default_rng(12)
        for seed in range(5):
            params = init(scorer_cfg, head_cfg, seed=seed)
            for name in ("head.latent_mu.b", "head.latent_logvar.b", "head.mlp.b", "head.mu.b"):
                params[name][:] = rng.uniform(-1, 1, params[name].shape)
            mean, drawn = self.both(params, 3.0 * rng.standard_normal((7, 4)))
            assert mean.tobytes() == drawn.tobytes()

    def test_zero_latent_mean(self):
        scorer_cfg, head_cfg = configs()
        params = init(scorer_cfg, head_cfg, seed=13)
        params["head.latent_mu.w"][:] = 0.0
        params["head.latent_mu.b"][:] = 0.0
        h = np.random.default_rng(14).standard_normal((6, 4))
        assert not run_forward(params, h, np.zeros((6, 2))).mu_z.value.any()
        mean, drawn = self.both(params, h)
        assert mean.tobytes() == drawn.tobytes()

    def test_summe_probabilities(self):
        scorer_cfg, head_cfg = configs(temperature=0.7)
        params = init(scorer_cfg, head_cfg, seed=15)
        h = np.random.default_rng(16).standard_normal((9, 4))
        mean, drawn = self.both(params, h, head_cfg.temperature)
        assert mean.tobytes() == drawn.tobytes()
        assert ((mean > 0) & (mean < 1)).all()
