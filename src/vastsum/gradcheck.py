"""End-to-end gradient verification on a tiny model instance.

Builds the full scorer + head graph and a smooth objective composed of the
entry points training calls (`likelihood`'s NLL and soft-min BCE, the latent
KL; all C1), then compares tape gradients against central differences over
every parameter entry. The instance is small enough to finish in seconds
while touching every primitive the training path uses.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from . import losses, trainer
from .config import HeadConfig, LossConfig, RunConfig, ScorerConfig, TrainConfig
from .timeline import ChangePointPartition, PickSequence, assign_segment_ids

TOLERANCE = 1e-4


def tiny_config(seed: int = 0) -> RunConfig:
    return RunConfig(
        scorer=ScorerConfig(
            input_dim=8,
            model_dim=16,
            heads=2,
            layers=1,
            refine_blocks=1,
            kernel=3,
            ffn_mult=2,
            max_timesteps=12,
        ),
        head=HeadConfig(latent_dim=4, temperature=1.0),
        loss=LossConfig(),
        # summe mode makes the model's signal the calibrated probabilities,
        # which the soft-min BCE term needs
        train=TrainConfig(seed=seed, mode="summe"),
    )


def build_problem(seed: int = 0):
    """Returns (f, params) where f rebuilds the composed loss from a param dict."""
    cfg = tiny_config(seed)
    rng = np.random.default_rng(seed)
    t_len = 12
    picks = PickSequence(tuple(2 * t for t in range(t_len)))
    cps = ChangePointPartition(((0, 7), (8, 15), (16, 23)), 24)
    seg = assign_segment_ids(picks, cps)
    features = 0.5 * rng.standard_normal((t_len, cfg.scorer.input_dim))
    continuous = rng.uniform(0.1, 0.9, (2, t_len))
    binary = (continuous > 0.5).astype(np.float64)
    latent_noise = rng.standard_normal((t_len, cfg.head.latent_dim))

    params = trainer.init_all_params(cfg, rng)

    def f(theta):
        out, p = trainer.model_forward(theta, features, seg, cfg, latent_noise)
        nll = losses.likelihood("tvsum", out.mu, out.log_v, continuous, cfg.loss)[0]
        kl = losses.kl_standard_normal(out.mu_z, out.log_var_z)
        soft = losses.likelihood("summe", p, out.log_v, binary, cfg.loss)[0]
        return dc.add(dc.add(nll, kl), soft)

    return f, params


def run(seed: int = 0, step: float = 1e-4) -> float:
    """Worst relative error between tape gradients and central differences."""
    f, params = build_problem(seed)
    return dc.finite_difference_check(f, params, step)
