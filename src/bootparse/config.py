"""Run configuration: one JSON file plus environment-variable overrides.

A bare ``PipelineConfig()`` carries the reference recipe defaults
(self-train K=5, co-train K=2, thresholds (0.0005, 0.995), pool cap
5000) so an empty config file reproduces the recipe shape on whatever
corpus the paths point at.  ``synthetic_profile`` returns the tuned
desk-scale configuration used by the bundled synthetic-grammar demo and
the acceptance checks.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

from .decoder import HeuristicConfig
from .errors import ConfigError, check_bool, check_int
from .evaluation import EvalConfig
from .loops import LoopConfig
from .scorer import Thresholds, TrainingMeta
from .seeds import SeedConfig

ENV_PREFIX = "BOOTPARSE_"
# Names the treebank of the data-gated PTB test; it is not a config override.
PTB_TEST_ENV = "BOOTPARSE_PTB_TEST"

BUILTIN_BACKEND = "builtin"
EXTERNAL_BACKEND = "external"


@dataclass(frozen=True)
class Paths:
    """Input and output locations for a pipeline run."""

    corpus: str | None = None
    gold: str | None = None
    model_dir: str = "models"
    report_dir: str = "reports"


@dataclass(frozen=True)
class ScorerBackend:
    """Which classifier implementation the pipeline drives."""

    backend: str = BUILTIN_BACKEND
    command: tuple[str, ...] = ()
    timeout: float = 10.0

    def __post_init__(self):
        if self.backend not in (BUILTIN_BACKEND, EXTERNAL_BACKEND):
            raise ConfigError(
                f"scorer backend must be builtin or external, got {self.backend!r}"
            )
        object.__setattr__(self, "command", tuple(self.command))
        if self.backend == EXTERNAL_BACKEND and not self.command:
            raise ConfigError("external scorer backend needs a command")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a subcommand needs, resolved and validated."""

    paths: Paths = field(default_factory=Paths)
    rng_seed: int = 0
    seeds: SeedConfig = field(default_factory=SeedConfig)
    self_train: LoopConfig = field(
        default_factory=lambda: LoopConfig(
            K=5,
            c=500,
            d=5000,
            thresholds=Thresholds(tau_min=0.0005, tau_max=0.995),
            pool_cap=5000,
        )
    )
    co_train: LoopConfig = field(
        default_factory=lambda: LoopConfig(
            K=2,
            c=500,
            d=5000,
            thresholds=Thresholds(tau_min=0.0005, tau_max=0.995),
            pool_cap=5000,
        )
    )
    training: TrainingMeta = field(default_factory=TrainingMeta)
    heuristics: HeuristicConfig = field(
        default_factory=lambda: HeuristicConfig(enabled=True)
    )
    eval: EvalConfig = field(default_factory=EvalConfig)
    scorer: ScorerBackend = field(default_factory=ScorerBackend)
    renormalize: bool = False

    def to_json(self) -> str:
        return json.dumps(_as_plain(self), sort_keys=True, indent=2) + "\n"


def synthetic_profile(rng_seed: int = 0) -> PipelineConfig:
    """The tuned desk-scale recipe for the bundled synthetic grammar.

    Deviations from the reference defaults, each forced by the scale of
    the indicator-feature classifiers: casing augmentation on (the
    grammar's title-case entities are the interior-constituent signal);
    both loops harvest distituents only (c=0; measured pseudo-constituent
    precision is far below the labeled sets' purity, while pseudo-
    distituent precision is ~1.0); self-training accumulates instead of
    replacing; thresholds widened to keep pools populated.
    """
    return PipelineConfig(
        rng_seed=rng_seed,
        seeds=SeedConfig(casing_augmentation=True, rng_seed=rng_seed),
        self_train=LoopConfig(
            K=2,
            c=0,
            d=1200,
            thresholds=Thresholds(tau_min=0.005, tau_max=0.9),
            pool_cap=1000,
            rng_seed=rng_seed,
            accumulate_self_train=True,
        ),
        co_train=LoopConfig(
            K=3,
            c=0,
            d=2400,
            thresholds=Thresholds(tau_min=0.1, tau_max=0.9),
            pool_cap=1000,
            rng_seed=rng_seed,
        ),
        training=TrainingMeta(rng_seed=rng_seed, epochs=30, l2=1e-6),
        heuristics=HeuristicConfig(enabled=False),
    )


# Sections of the config file, in the order they are merged.
_SECTIONS = (
    "paths",
    "rng_seed",
    "seeds",
    "self_train",
    "co_train",
    "training",
    "heuristics",
    "eval",
    "scorer",
    "renormalize",
)


def _as_plain(obj):
    if isinstance(obj, LoopConfig):
        # flat file form: thresholds inline, short accumulate key
        return {
            "K": obj.K,
            "c": obj.c,
            "d": obj.d,
            "tau_min": obj.thresholds.tau_min,
            "tau_max": obj.thresholds.tau_max,
            "pool_cap": obj.pool_cap,
            "rng_seed": obj.rng_seed,
            "accumulate": obj.accumulate_self_train,
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in dataclasses.fields(obj):
            out[f.name] = _as_plain(getattr(obj, f.name))
        return out
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, tuple):
        return list(obj)
    return obj


# Short spellings of LoopConfig fields: the file form writes accumulate,
# and environment overrides lower-case every name, so K arrives as k.
_LOOP_ALIASES = {"k": "K", "accumulate": "accumulate_self_train"}


def _merged(section: str, data: dict, rng_seed: int, aliases=None) -> dict:
    """data over the top-level rng_seed (in sections that have one) over
    PipelineConfig's default for the section, merged by canonical name."""
    default = _as_plain(getattr(PipelineConfig(), section))
    seed = {"rng_seed": rng_seed} if "rng_seed" in default else {}
    aliases = aliases or {}
    return {
        aliases.get(key, key): value
        for part in (default, seed, data)
        for key, value in part.items()
    }


def _loop_config(raw: dict, section: str, rng_seed: int) -> LoopConfig:
    merged = _merged(section, raw.get(section, {}), rng_seed, _LOOP_ALIASES)
    try:
        thresholds = Thresholds(
            tau_min=merged.pop("tau_min"), tau_max=merged.pop("tau_max")
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section} thresholds: {exc}") from exc
    allowed = {f.name for f in dataclasses.fields(LoopConfig)} - {"thresholds"}
    unknown = set(merged) - allowed
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    try:
        return LoopConfig(thresholds=thresholds, **merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section} section: {exc}") from exc


def _dataclass_section(cls, raw: dict, section: str, rng_seed: int):
    data = _merged(section, raw.get(section, {}), rng_seed)
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section} section: {exc}") from exc


def _apply_env(raw: dict, env) -> dict:
    """BOOTPARSE_SECTION__FIELD=value overrides; values parse as JSON."""
    out = json.loads(json.dumps(raw))
    for key in sorted(env):
        if not key.startswith(ENV_PREFIX) or key == PTB_TEST_ENV:
            continue
        spec = key[len(ENV_PREFIX):].lower()
        try:
            value = json.loads(env[key])
        except ValueError:
            value = env[key]
        if "__" in spec:
            section, field_name = spec.split("__", 1)
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section in {key}")
            out.setdefault(section, {})
            if not isinstance(out[section], dict):
                raise ConfigError(f"{key} overrides a non-section value")
            out[section][field_name] = value
        else:
            if spec not in ("rng_seed", "renormalize"):
                raise ConfigError(f"unknown top-level override {key}")
            out[spec] = value
    return out


def config_from_dict(raw: dict) -> PipelineConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for section in _SECTIONS:
        scalar = section in ("rng_seed", "renormalize")
        if not scalar and not isinstance(raw.get(section, {}), dict):
            raise ConfigError(f"config section {section} must be an object")
    rng_seed = raw.get("rng_seed", PipelineConfig.rng_seed)
    renormalize = raw.get("renormalize", PipelineConfig.renormalize)
    try:
        check_int("rng_seed", rng_seed, 0)
        check_bool("renormalize", renormalize)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return PipelineConfig(
        paths=_dataclass_section(Paths, raw, "paths", rng_seed),
        rng_seed=rng_seed,
        seeds=_dataclass_section(SeedConfig, raw, "seeds", rng_seed),
        self_train=_loop_config(raw, "self_train", rng_seed),
        co_train=_loop_config(raw, "co_train", rng_seed),
        training=_dataclass_section(TrainingMeta, raw, "training", rng_seed),
        heuristics=_dataclass_section(HeuristicConfig, raw, "heuristics", rng_seed),
        eval=_dataclass_section(EvalConfig, raw, "eval", rng_seed),
        scorer=_dataclass_section(ScorerBackend, raw, "scorer", rng_seed),
        renormalize=renormalize,
    )


def load_config(path=None, env=None) -> PipelineConfig:
    """Read the JSON config file, then apply environment overrides."""
    if env is None:
        env = os.environ
    raw = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return config_from_dict(_apply_env(raw, env))
