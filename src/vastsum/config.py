"""Configuration dataclasses and the merged run-config file format.

A run config is one JSON document with four sections (scorer, head, loss,
train); unknown sections or keys are rejected before any work starts.

Each setting declares its type and its rule once, on its dataclass field
(`setting(default, rule)`). `check_fields` holds every field to both, so a
config file, a config built in Python and a CLI flag that sets the same
value (whose argparse type `cli` builds from the field) all refuse a bad
value by the same rule, naming it by `section.key` or by flag.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from typing import Callable

from .errors import ConfigError

MODES = ("tvsum", "summe")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_integral(value) -> bool:
    """True for an integral JSON number (2 or 2.0); False for 2.5, NaN and bools."""
    return value.is_integer() if isinstance(value, float) else _is_int(value)


@dataclass(frozen=True)
class Rule:
    """A bound on a setting of the right type: `text` finishes "must …", and
    `accept` is true for the values the bound allows."""

    text: str
    accept: Callable[[object], bool]

    def refusal(self, value) -> str:
        return f"must {self.text}, got {value!r}"


def at_least(low: int) -> Rule:
    return Rule(f"be >= {low}", lambda v: v >= low)


# int/float comparison is exact: NaN, infinities and ints past the float range fail
_MAX = sys.float_info.max
POSITIVE = Rule("be a finite number > 0", lambda v: 0 < v <= _MAX)
NON_NEGATIVE = Rule("be a finite number >= 0", lambda v: 0 <= v <= _MAX)
FRACTION = Rule("lie in (0, 1]", lambda v: 0 < v <= 1)
DECAY = Rule("lie in [0, 1)", lambda v: 0 <= v < 1)
ODD = Rule("be odd and >= 1", lambda v: v >= 1 and v % 2 == 1)
MODE = Rule(f"be one of {MODES}", lambda v: v in MODES)


def setting(default, rule: Rule):
    """A dataclass field defaulting to `default` whose values must keep `rule`."""
    return field(default=default, metadata={"rule": rule})


# each field annotation in use (a string, under `from __future__ import
# annotations`): the noun a refusal names it by, and its test
_KINDS = {
    "int": ("an integer", _is_int),
    "int | None": ("an integer or null", lambda v: v is None or _is_int(v)),
    "float": ("a finite number",
              lambda v: (isinstance(v, float) or _is_int(v)) and abs(v) <= _MAX),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def check_fields(section: str, obj) -> None:
    """Hold each field of the dataclass `obj` to its declared type, then to
    its rule; a refusal names the field as `section.key`."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        noun, is_kind = _KINDS[f.type]
        if not is_kind(value):
            raise ConfigError(f"{section}.{f.name} must be {noun}, got {value!r}")
        rule = f.metadata["rule"]
        if value is not None and not rule.accept(value):
            raise ConfigError(f"{section}.{f.name} {rule.refusal(value)}")


@dataclass
class ScorerConfig:
    """Shapes and depths of the hierarchical scorer."""

    input_dim: int = setting(1024, at_least(1))
    model_dim: int = setting(128, at_least(1))
    heads: int = setting(4, at_least(1))
    layers: int = setting(2, at_least(1))
    refine_blocks: int = setting(2, at_least(1))
    kernel: int = setting(5, ODD)
    ffn_mult: int = setting(4, at_least(1))
    max_timesteps: int = setting(1024, at_least(1))

    def validate(self):
        check_fields("scorer", self)
        if self.model_dim % self.heads != 0:
            raise ConfigError(
                f"scorer.model_dim {self.model_dim} not divisible by heads {self.heads}"
            )

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads


@dataclass
class HeadConfig:
    """Variational importance head: latent size, decoder width, calibration."""

    latent_dim: int = setting(16, at_least(1))
    hidden_dim: int | None = setting(None, at_least(1))  # defaults to the scorer model_dim
    temperature: float = setting(1.0, POSITIVE)

    def validate(self):
        check_fields("head", self)


@dataclass
class LossConfig:
    """Weights, margins and noise scales of the training objectives."""

    epsilon: float = setting(1e-6, POSITIVE)
    tau_softmin: float = setting(0.1, POSITIVE)
    rank_margin: float = setting(0.05, POSITIVE)
    stab_margin: float = setting(0.05, POSITIVE)
    sigma_perturb: float = setting(0.05, POSITIVE)
    perturbations: int = setting(8, at_least(1))
    rank_pairs: int = setting(256, at_least(1))
    lambda_rank: float = setting(0.3, NON_NEGATIVE)
    lambda_stab: float = setting(0.3, NON_NEGATIVE)
    lambda_kl: float = setting(0.01, NON_NEGATIVE)
    warmup_rank: int = setting(10, at_least(0))
    warmup_stab: int = setting(20, at_least(0))
    warmup_kl: int = setting(10, at_least(0))

    def validate(self):
        check_fields("loss", self)


@dataclass
class TrainConfig:
    """Optimizer and loop settings."""

    lr: float = setting(1e-4, POSITIVE)
    beta1: float = setting(0.9, DECAY)
    beta2: float = setting(0.999, DECAY)
    adam_eps: float = setting(1e-8, POSITIVE)
    weight_decay: float = setting(1e-2, NON_NEGATIVE)
    clip_norm: float = setting(1.0, POSITIVE)
    epochs: int = setting(100, at_least(1))
    accumulate: int = setting(4, at_least(1))
    seed: int = setting(0, at_least(0))
    mode: str = setting("tvsum", MODE)
    rho: float = setting(0.15, FRACTION)

    def validate(self):
        check_fields("train", self)


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


def _build_section(cls, values: dict):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(values) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    # JSON may write an integer as 2.0; an int field keeps it as 2
    return cls(**{
        key: int(value) if fields[key].type.startswith("int") and is_integral(value) else value
        for key, value in values.items()
    })


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
        kwargs[name] = _build_section(cls, section)
    return RunConfig(**kwargs).validate()


def read_json(path, what: str, error: type[Exception] = ConfigError):
    """The JSON document in the file at `path`. A file that is not UTF-8 JSON
    raises `error`, naming `what` the file holds and its path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise error(f"cannot parse {what} {path}: {exc}") from exc


def load_run_config(path) -> RunConfig:
    return run_config_from_dict(read_json(path, "config"))
