import json

import pytest

from bootparse.config import (
    PipelineConfig,
    config_from_dict,
    load_config,
    synthetic_profile,
)
from bootparse.errors import ConfigError


def test_default_round_trip():
    cfg = PipelineConfig()
    assert config_from_dict(json.loads(cfg.to_json())) == cfg


def test_synthetic_profile_round_trip():
    cfg = synthetic_profile(rng_seed=3)
    assert config_from_dict(json.loads(cfg.to_json())) == cfg


def test_to_json_is_stable():
    a = PipelineConfig().to_json()
    b = PipelineConfig().to_json()
    assert a == b
    assert a.endswith("\n")


def test_defaults_match_recipe():
    cfg = PipelineConfig()
    assert cfg.self_train.K == 5
    assert cfg.co_train.K == 2
    assert cfg.self_train.thresholds.tau_min == 0.0005
    assert cfg.self_train.thresholds.tau_max == 0.995
    assert cfg.self_train.pool_cap == 5000
    assert cfg.heuristics.enabled is True
    assert cfg.renormalize is False


def test_rng_seed_propagates_to_sections():
    cfg = config_from_dict({"rng_seed": 7})
    assert cfg.rng_seed == 7
    assert cfg.seeds.rng_seed == 7
    assert cfg.training.rng_seed == 7
    assert cfg.self_train.rng_seed == 7
    assert cfg.co_train.rng_seed == 7


def test_section_seed_beats_top_level():
    cfg = config_from_dict({"rng_seed": 7, "training": {"rng_seed": 2}})
    assert cfg.training.rng_seed == 2
    assert cfg.seeds.rng_seed == 7


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"bogus": {}})


def test_unknown_loop_key_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"self_train": {"nope": 1}})


def test_bad_loop_value_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"self_train": {"K": 0}})


def test_bad_thresholds_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"self_train": {"tau_min": 0.9, "tau_max": 0.1}})


def test_external_backend_needs_command():
    with pytest.raises(ConfigError):
        config_from_dict({"scorer": {"backend": "external"}})
    cfg = config_from_dict(
        {"scorer": {"backend": "external", "command": ["python3", "x.py"]}}
    )
    assert cfg.scorer.command == ("python3", "x.py")


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"scorer": {"backend": "quantum"}})


def test_env_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rng_seed": 1, "self_train": {"K": 3}}))
    cfg = load_config(
        path,
        env={
            "BOOTPARSE_RNG_SEED": "9",
            "BOOTPARSE_SELF_TRAIN__K": "4",
            "BOOTPARSE_HEURISTICS__ENABLED": "false",
        },
    )
    assert cfg.rng_seed == 9
    assert cfg.self_train.K == 4
    assert cfg.heuristics.enabled is False


def test_env_unknown_section_rejected():
    with pytest.raises(ConfigError):
        load_config(None, env={"BOOTPARSE_NOPE__X": "1"})


def test_env_ignores_unprefixed_keys():
    cfg = load_config(None, env={"PATH": "/bin", "HOME": "/root"})
    assert cfg == PipelineConfig()


def test_load_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


def test_load_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_none_gives_defaults():
    assert load_config(None, env={}) == PipelineConfig()


def test_renormalize_must_be_bool():
    with pytest.raises(ConfigError):
        config_from_dict({"renormalize": "yes"})


def test_heuristic_lists_become_frozensets():
    cfg = config_from_dict(
        {"heuristics": {"enabled": True, "top_frequency_set": ["the", "a"]}}
    )
    assert cfg.heuristics.top_frequency_set == frozenset({"the", "a"})


@pytest.mark.parametrize(
    "raw, env",
    [({"heuristics": {}}, {}),
     ({"heuristics": {"common_start_word": "the"}}, {}),
     ({}, {"BOOTPARSE_HEURISTICS__COMMON_START_WORD": "the"})],
)
def test_partial_heuristics_keep_the_defaults(tmp_path, raw, env):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path, env=env)
    assert cfg.heuristics.enabled is True
    assert cfg.heuristics.top_frequency_set == frozenset()


def test_synthetic_profile_distinct_seeds_differ():
    assert synthetic_profile(0) != synthetic_profile(1)
    assert synthetic_profile(1).training.rng_seed == 1


def test_loop_key_spellings_override_defaults():
    cfg = config_from_dict({"self_train": {"accumulate": True, "k": 3}})
    assert cfg.self_train.accumulate is True
    assert cfg.self_train.K == 3
    assert cfg.self_train.d == 5000  # the rest keeps the recipe default
    assert cfg.co_train == PipelineConfig().co_train
