"""Run configuration: JSON loading, nested sections, strict keys."""

import json

import pytest

from lanecast.config import (
    DataConfig, ModelConfig, RunConfig, TrainConfig, config_hash, load_config,
)
from lanecast.errors import ConfigError, ParseError


def test_defaults_validate():
    RunConfig().validate()


def test_load_nested_sections():
    doc = {
        "seed": 5,
        "model": {"d": 32, "l_graph": 2},
        "train": {"batch_size": 4, "total_epochs": 20},
        "data": {"n_scenes": 3, "gen": {"n_lanes": 3, "noise_sigma": 0.2}},
    }
    cfg = load_config(json.dumps(doc))
    assert cfg.seed == 5
    assert cfg.model.d == 32
    assert cfg.train.batch_size == 4
    assert cfg.data.gen.n_lanes == 3
    assert cfg.data.gen.noise_sigma == 0.2
    # untouched fields keep defaults
    assert cfg.model.k_modes == 6
    assert cfg.train.periods == (6, 12, 24, 48)


def test_unknown_key_reports_path():
    with pytest.raises((ConfigError, ParseError)) as e:
        load_config(json.dumps({"model": {"dd": 1}}))
    assert "dd" in str(e.value)


def test_tuple_fields_come_back_as_tuples():
    cfg = load_config(json.dumps({
        "train": {"periods": [6, 12], "stage2_start_epoch": 6},
        "data": {"gen": {"speed_range": [3, 6]}}}))
    assert cfg.train.periods == (6, 12)
    assert cfg.data.gen.speed_range == (3.0, 6.0)


def test_stage2_start_must_match_first_period():
    with pytest.raises(ConfigError):
        TrainConfig(stage2_start_epoch=4).validate()


def test_model_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d=7).validate()
    with pytest.raises(ConfigError):
        ModelConfig(tau_actor=0.0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(output_scale=-1.0).validate()


def test_precision_restricted():
    with pytest.raises(ConfigError):
        TrainConfig(precision="float16").validate()


def test_config_hash_stable_and_sensitive():
    a = RunConfig()
    b = RunConfig()
    assert config_hash(a) == config_hash(b)
    c = RunConfig(seed=99)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 12


def test_bad_json_rejected():
    with pytest.raises(ConfigError):
        load_config("{not json")


def test_values_are_kept_as_given():
    """Ints in float fields stay ints, so configs hash as they always did."""
    cfg = load_config('{"seed": 3, "model": {"tau_lane": 5, "d": 32}, '
                      '"data": {"gen": {"speed_range": [3, 6.5]}}, "train": {"periods": [6, 12]}}')
    assert cfg.model.tau_lane == 5 and type(cfg.model.tau_lane) is int
    assert cfg.data.gen.speed_range == (3, 6.5) and cfg.train.periods == (6, 12)
    assert config_hash(cfg) == "af77b41150d7"
    assert config_hash(load_config("{}")) == "bf36811839f4"


@pytest.mark.parametrize("doc, field", [
    ({"data": {"gen": {"speed_range": [1.0, 2.0, 3.0]}}}, "data.gen.speed_range"),
    ({"data": {"gen": {"speed_range": [1.0, "x"]}}}, "data.gen.speed_range[1]"),
    ({"train": {"periods": [6, 1.5]}}, "train.periods[1]"),
    ({"model": {"tau_lane": True}}, "model.tau_lane"),
    ({"model": {"tau_lane": 10**400}}, "model.tau_lane"),
    ({"train": {"precision": 32}}, "train.precision"),
    ({"model": []}, "model"),
    ({"seed": -1}, "seed"),
])
def test_values_must_match_their_annotation(doc, field):
    with pytest.raises(ConfigError) as e:
        load_config(json.dumps(doc))
    assert field in str(e.value)


@pytest.mark.parametrize("p", [7, -0.1, 1.0000001])
def test_lane_change_prob_outside_unit_interval_rejected(p):
    with pytest.raises(ConfigError) as e:
        load_config(json.dumps({"data": {"gen": {"lane_change_prob": p}}}))
    assert "data.gen.lane_change_prob" in str(e.value)


@pytest.mark.parametrize("p, digest", [(0, "2fc3f994d664"), (1, "0b87f70b5df0"),
                                       (0.0, "59b8ad2e4817"), (1.0, "e34fa1f99c21")])
def test_lane_change_prob_bounds_load_with_their_old_hash(p, digest):
    cfg = load_config(json.dumps({"data": {"gen": {"lane_change_prob": p}}}))
    assert config_hash(cfg) == digest


@pytest.mark.parametrize("doc, message", [
    ({"train": {"periods": 6}}, "train.periods: expected a list, got 6"),
    ({"train": {"periods": "6"}}, "train.periods: expected a list, got '6'"),
    ({"data": {"gen": {"curvature_range": 0.5}}},
     "data.gen.curvature_range: expected a list of 2 values, got 0.5"),
    ({"data": {"gen": {"speed_range": [1.0]}}},
     "data.gen.speed_range: expected a list of 2 values, got [1.0]"),
])
def test_tuple_field_messages_count_only_fixed_lengths(doc, message):
    with pytest.raises(ConfigError) as e:
        load_config(json.dumps(doc))
    assert str(e.value) == message
