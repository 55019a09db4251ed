"""Variational frame-importance head.

A diagonal Gaussian posterior over a per-frame latent, sampled with the
reparameterization trick during training, feeding a small MLP that emits an
importance logit and an observation log-variance per timestep. Log-variances
are clamped to keep the heteroscedastic likelihood well-behaved.

Inference reads the logit at the posterior mean (`posterior_mean_logit`) and
evaluates neither log-variance head. It is the training forward at zero
noise, bit for bit: there z = mu_z + sigma * 0, and the clamp keeps
sigma = exp(0.5 * log_var) finite and positive, so sigma * 0 is +0.0. The
mean path adds a +0.0 constant in its place, which turns a -0.0 of mu_z into
+0.0 as that sum does, and then runs the same hidden layer and logit affine
(`_logit_and_hidden`) as `forward`. Only a NaN log-variance, which
makes sigma * 0 NaN, tells the two apart: the mean path never reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import diffcore as dc
from .config import HeadConfig, ScorerConfig
from .errors import ConfigError

LOGVAR_MIN = -10.0
LOGVAR_MAX = 5.0


@dataclass
class ImportanceOutput:
    """Per-timestep head outputs, all tape nodes."""

    mu: dc.Node
    log_v: dc.Node
    mu_z: dc.Node
    log_var_z: dc.Node
    z: dc.Node


def param_shapes(scorer_cfg: ScorerConfig, head_cfg: HeadConfig) -> dict[str, tuple[int, ...]]:
    d = scorer_cfg.model_dim
    dz = head_cfg.latent_dim
    hidden = head_cfg.hidden_dim if head_cfg.hidden_dim is not None else d
    return {
        "head.latent_mu.w": (d, dz),
        "head.latent_mu.b": (dz,),
        "head.latent_logvar.w": (d, dz),
        "head.latent_logvar.b": (dz,),
        "head.mlp.w": (d + dz, hidden),
        "head.mlp.b": (hidden,),
        "head.mu.w": (hidden,),
        "head.mu.b": (1,),
        "head.logv.w": (hidden,),
        "head.logv.b": (1,),
    }


def _latent_mean(h_hat: dc.Node, params: Mapping[str, dc.Node]) -> dc.Node:
    return dc.affine(h_hat, params["head.latent_mu.w"], params["head.latent_mu.b"])


def _logit_and_hidden(
    h_hat: dc.Node, z: dc.Node, params: Mapping[str, dc.Node]
) -> tuple[dc.Node, dc.Node]:
    """Importance logit mu_t from [h; z], and the hidden layer it reads."""
    joint = dc.concat_last([h_hat, z])
    hidden = dc.gelu(dc.affine(joint, params["head.mlp.w"], params["head.mlp.b"]))
    return dc.affine(hidden, params["head.mu.w"], params["head.mu.b"]), hidden


def posterior_mean_logit(h_hat: dc.Node, params: Mapping[str, dc.Node]) -> dc.Node:
    """Importance logit at the posterior-mean latent, the inference read-out:
    `forward(h_hat, params, zeros).mu` bit for bit (see the module docstring),
    without the log-variance heads or the sampling arithmetic."""
    mu_z = _latent_mean(h_hat, params)
    z = dc.add(mu_z, mu_z.tape.constant(np.zeros(mu_z.value.shape)))
    return _logit_and_hidden(h_hat, z, params)[0]


def calibrate_probability(mu: dc.Node, temperature: float) -> dc.Node:
    """Temperature-scaled sigmoid of the importance logits."""
    if not temperature > 0:
        raise ConfigError(f"calibration temperature must be > 0, got {temperature}")
    return dc.sigmoid(dc.scale(mu, 1.0 / temperature))


def forward(
    h_hat: dc.Node, params: Mapping[str, dc.Node], noise: np.ndarray
) -> ImportanceOutput:
    """Posterior, latent draw, and importance outputs in one pass: the latent
    mean and clamped log-variance, the reparameterized draw
    z = mu_z + exp(log_var_z / 2) * noise (zero noise gives the mean), then the
    logit and clamped observation log-variance from [h; z]."""
    mu_z = _latent_mean(h_hat, params)
    raw_z = dc.affine(h_hat, params["head.latent_logvar.w"], params["head.latent_logvar.b"])
    log_var_z = dc.clip(raw_z, LOGVAR_MIN, LOGVAR_MAX)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != mu_z.value.shape:
        raise ValueError(f"noise shape {noise.shape} does not match {mu_z.value.shape}")
    sigma = dc.exp(dc.scale(log_var_z, 0.5))
    z = dc.add(mu_z, dc.multiply(sigma, mu_z.tape.constant(noise)))
    mu, hidden = _logit_and_hidden(h_hat, z, params)
    raw_v = dc.affine(hidden, params["head.logv.w"], params["head.logv.b"])
    log_v = dc.clip(raw_v, LOGVAR_MIN, LOGVAR_MAX)
    return ImportanceOutput(mu=mu, log_v=log_v, mu_z=mu_z, log_var_z=log_var_z, z=z)
