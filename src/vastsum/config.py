"""Configuration dataclasses and the merged run-config file format.

A run config is one JSON document with four sections (scorer, head, loss,
train); unknown sections or keys are rejected before any work starts.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field

from .errors import ConfigError

MODES = ("tvsum", "summe")


def is_integral(value) -> bool:
    """True for an integral JSON number (2 or 2.0); False for 2.5, NaN and bools."""
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ScorerConfig:
    """Shapes and depths of the hierarchical scorer."""

    input_dim: int = 1024
    model_dim: int = 128
    heads: int = 4
    layers: int = 2
    refine_blocks: int = 2
    kernel: int = 5
    ffn_mult: int = 4
    max_timesteps: int = 1024

    def validate(self):
        for name in ("input_dim", "model_dim", "heads", "layers", "refine_blocks",
                     "kernel", "ffn_mult", "max_timesteps"):
            if int(getattr(self, name)) < 1:
                raise ConfigError(f"scorer.{name} must be >= 1")
        if self.model_dim % self.heads != 0:
            raise ConfigError(
                f"scorer.model_dim {self.model_dim} not divisible by heads {self.heads}"
            )
        if self.kernel % 2 == 0:
            raise ConfigError(f"scorer.kernel must be odd, got {self.kernel}")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads


@dataclass
class HeadConfig:
    """Variational importance head: latent size, decoder width, calibration."""

    latent_dim: int = 16
    hidden_dim: int | None = None  # defaults to the scorer model_dim
    temperature: float = 1.0

    def validate(self):
        if self.latent_dim < 1:
            raise ConfigError("head.latent_dim must be >= 1")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ConfigError("head.hidden_dim must be >= 1")
        if not self.temperature > 0:
            raise ConfigError("head.temperature must be > 0")


@dataclass
class LossConfig:
    """Weights, margins and noise scales of the training objectives."""

    epsilon: float = 1e-6
    tau_softmin: float = 0.1
    rank_margin: float = 0.05
    stab_margin: float = 0.05
    sigma_perturb: float = 0.05
    perturbations: int = 8
    rank_pairs: int = 256
    lambda_rank: float = 0.3
    lambda_stab: float = 0.3
    lambda_kl: float = 0.01
    warmup_rank: int = 10
    warmup_stab: int = 20
    warmup_kl: int = 10

    def validate(self):
        for name in ("epsilon", "tau_softmin", "rank_margin", "stab_margin", "sigma_perturb"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"loss.{name} must be > 0")
        if self.perturbations < 1:
            raise ConfigError("loss.perturbations must be >= 1")
        if self.rank_pairs < 1:
            raise ConfigError("loss.rank_pairs must be >= 1")
        for name in ("lambda_rank", "lambda_stab", "lambda_kl"):
            if getattr(self, name) < 0:
                raise ConfigError(f"loss.{name} must be >= 0")
        for name in ("warmup_rank", "warmup_stab", "warmup_kl"):
            if getattr(self, name) < 0:
                raise ConfigError(f"loss.{name} must be >= 0")


@dataclass
class TrainConfig:
    """Optimizer and loop settings."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 1e-2
    clip_norm: float = 1.0
    epochs: int = 100
    accumulate: int = 4
    seed: int = 0
    mode: str = "tvsum"
    rho: float = 0.15

    def validate(self):
        if not self.lr > 0:
            raise ConfigError("train.lr must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("train.betas must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ConfigError("train.adam_eps must be > 0")
        if self.weight_decay < 0:
            raise ConfigError("train.weight_decay must be >= 0")
        if not self.clip_norm > 0:
            raise ConfigError("train.clip_norm must be > 0")
        if self.epochs < 1:
            raise ConfigError("train.epochs must be >= 1")
        if self.accumulate < 1:
            raise ConfigError("train.accumulate must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"train.seed must be >= 0, got {self.seed}")
        if self.mode not in MODES:
            raise ConfigError(f"train.mode must be one of {MODES}, got {self.mode!r}")
        if not 0 < self.rho <= 1:
            raise ConfigError("train.rho must lie in (0, 1]")


@dataclass
class RunConfig:
    """Merged view of every tunable, loadable from one JSON file."""

    scorer: ScorerConfig = field(default_factory=ScorerConfig)
    head: HeadConfig = field(default_factory=HeadConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self):
        self.scorer.validate()
        self.head.validate()
        self.loss.validate()
        self.train.validate()
        return self


_SECTIONS = {"scorer": ScorerConfig, "head": HeadConfig, "loss": LossConfig, "train": TrainConfig}


_EXPECTED = {"int": "an integer", "int | None": "an integer or null", "float": "a finite number",
             "str": "a string"}


def _checked(section: str, field: dataclasses.Field, value):
    """value, checked against the field's declared type; an int field's
    integral number is returned as an int."""
    if value is None and field.type == "int | None":
        return value
    if field.type.startswith("int") and is_integral(value):
        return int(value)
    number = isinstance(value, float) or is_integral(value)
    # int/float comparison is exact: NaN, infinities and ints past the float range fail
    if field.type == "float" and number and abs(value) <= sys.float_info.max:
        return value
    if field.type == "str" and isinstance(value, str):
        return value
    raise ConfigError(f"{section}.{field.name} must be {_EXPECTED[field.type]}, got {value!r}")


def _build_section(section: str, cls, values: dict):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(values) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**{key: _checked(section, fields[key], value) for key, value in values.items()})


def run_config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        kwargs[name] = _build_section(name, cls, section)
    return RunConfig(**kwargs).validate()


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return run_config_from_dict(raw)
