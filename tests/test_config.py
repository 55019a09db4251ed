"""Every config field refuses a bad value by its `section.key`, whichever way
the config is built: directly in Python or from a run-config document."""

import dataclasses

import pytest

from vastsum.config import MODES, HeadConfig, LossConfig, ScorerConfig, TrainConfig, run_config_from_dict
from vastsum.data import SyntheticConfig
from vastsum.errors import ConfigError

SECTIONS = {"scorer": ScorerConfig, "head": HeadConfig, "loss": LossConfig, "train": TrainConfig,
            "synthetic": SyntheticConfig}
FILE_SECTIONS = ("scorer", "head", "loss", "train")  # the sections of a run-config file

WRONG_TYPE = {
    "int": [True, "1", 2.5],
    "int | None": [True, "1", 2.5],
    "float": [True, "1", float("nan"), float("inf"), -float("inf"), 10**400],
    "str": [True, 1],
}
# values of the right type that each rule refuses, keyed by the rule's text
OUT_OF_RULE = {
    "be >= 0": [-1],
    "be >= 1": [0, -3],
    "be odd and >= 1": [4, 0, -1],
    "be a finite number > 0": [0.0, 0, -1e-3],
    "be a finite number >= 0": [-1e-3, -1],
    "lie in (0, 1]": [0.0, 1.5],
    "lie in [0, 1)": [-0.1, 1.0, 1],
    f"be one of {MODES}": ["other", ""],
}

FIELDS = [(section, spec) for section, cls in SECTIONS.items() for spec in dataclasses.fields(cls)]


@pytest.mark.parametrize("section, spec", FIELDS, ids=[f"{s}.{spec.name}" for s, spec in FIELDS])
def test_every_field_refuses_wrong_type_and_out_of_rule_value_by_name(section, spec):
    cls = SECTIONS[section]
    cls().validate()  # the defaults keep every rule
    for value in WRONG_TYPE[spec.type] + OUT_OF_RULE[spec.metadata["rule"].text]:
        named = rf"^{section}\.{spec.name} must .*, got "
        with pytest.raises(ConfigError, match=named):
            cls(**{spec.name: value}).validate()
        if section in FILE_SECTIONS:
            with pytest.raises(ConfigError, match=named):
                run_config_from_dict({section: {spec.name: value}})


def test_integral_json_number_becomes_an_int_only_in_an_int_field():
    cfg = run_config_from_dict({"train": {"epochs": 2.0, "lr": 1, "rho": 1.0},
                                "head": {"hidden_dim": 8.0}})
    assert (cfg.train.epochs, cfg.head.hidden_dim) == (2, 8)
    assert type(cfg.train.epochs) is int and type(cfg.head.hidden_dim) is int
    assert type(cfg.train.lr) is int and type(cfg.train.rho) is float


def test_model_dim_divisible_by_heads():
    with pytest.raises(ConfigError, match="scorer.model_dim 16 not divisible by heads 3"):
        ScorerConfig(model_dim=16, heads=3).validate()
