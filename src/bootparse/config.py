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
from .errors import ConfigError, check_bool, check_int, check_number
from .evaluation import EvalConfig
from .loops import LoopConfig, SelfTrainConfig
from .scorer import TrainingMeta
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

    def __post_init__(self):
        for name, value in dataclasses.asdict(self).items():
            optional = name in ("corpus", "gold")
            if not (isinstance(value, str) or (optional and value is None)):
                kind = "a string or null" if optional else "a string"
                raise ValueError(f"{name} must be {kind}, got {value!r}")


# An external scorer's reply timeout in seconds, at most one day: the
# selector that waits for a reply cannot take a much larger value.
MAX_SCORER_TIMEOUT = 86400

@dataclass(frozen=True)
class ScorerBackend:
    """Which classifier implementation the pipeline drives."""

    backend: str = BUILTIN_BACKEND
    command: tuple[str, ...] = ()
    timeout: float = 10.0

    def __post_init__(self):
        if self.backend not in (BUILTIN_BACKEND, EXTERNAL_BACKEND):
            raise ValueError(
                f"scorer backend must be builtin or external, got {self.backend!r}"
            )
        if not isinstance(self.command, (list, tuple)) or not all(
            isinstance(arg, str) and arg for arg in self.command
        ):
            raise ValueError(
                f"command must be a list of non-empty strings, got {self.command!r}"
            )
        object.__setattr__(self, "command", tuple(self.command))
        check_number(
            "timeout", self.timeout, 0, inclusive=False, high=MAX_SCORER_TIMEOUT
        )
        if self.backend == EXTERNAL_BACKEND and not self.command:
            raise ValueError("external scorer backend needs a command")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a subcommand needs, resolved and validated."""

    paths: Paths = field(default_factory=Paths)
    rng_seed: int = 0
    seeds: SeedConfig = field(default_factory=SeedConfig)
    self_train: SelfTrainConfig = field(
        default_factory=lambda: SelfTrainConfig(K=5, c=500, d=5000)
    )
    co_train: LoopConfig = field(default_factory=lambda: LoopConfig(K=2, c=500, d=5000))
    training: TrainingMeta = field(default_factory=TrainingMeta)
    heuristics: HeuristicConfig = field(
        default_factory=lambda: HeuristicConfig(enabled=True)
    )
    eval: EvalConfig = field(default_factory=EvalConfig)
    scorer: ScorerBackend = field(default_factory=ScorerBackend)
    renormalize: bool = False

    def to_json(self) -> str:
        # sets are written as sorted lists
        plain = dataclasses.asdict(self)
        return json.dumps(plain, default=sorted, sort_keys=True, indent=2) + "\n"


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
        self_train=SelfTrainConfig(
            K=2,
            c=0,
            d=1200,
            tau_min=0.005,
            tau_max=0.9,
            pool_cap=1000,
            rng_seed=rng_seed,
            accumulate=True,
        ),
        co_train=LoopConfig(
            K=3,
            c=0,
            d=2400,
            tau_min=0.1,
            tau_max=0.9,
            pool_cap=1000,
            rng_seed=rng_seed,
        ),
        training=TrainingMeta(rng_seed=rng_seed, epochs=30, l2=1e-6),
        heuristics=HeuristicConfig(enabled=False),
    )


# Top-level keys of the config file: a section per PipelineConfig field,
# of which these two are plain values.
_SECTIONS = tuple(f.name for f in dataclasses.fields(PipelineConfig))
_SCALARS = ("rng_seed", "renormalize")


def _section(raw: dict, name: str, rng_seed: int):
    """The name section: raw's keys over the top-level rng_seed (in sections
    that have one) over PipelineConfig's default for the section."""
    data = raw.get(name, {})
    if not isinstance(data, dict):
        raise ConfigError(f"config section {name} must be an object")
    default = getattr(PipelineConfig(), name)
    merged = dataclasses.asdict(default)
    if "rng_seed" in merged:
        merged["rng_seed"] = rng_seed
    # environment overrides lower-case every key, so LoopConfig's K arrives as k
    spelling = {key.lower(): key for key in merged}
    merged.update((spelling.get(key, key), value) for key, value in data.items())
    unknown = set(merged) - set(spelling.values())
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    try:
        return type(default)(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} section: {exc}") from exc


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
            if spec not in _SCALARS:
                raise ConfigError(f"unknown top-level override {key}")
            out[spec] = value
    return out


def config_from_dict(raw: dict) -> PipelineConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    top = {name: raw.get(name, getattr(PipelineConfig, name)) for name in _SCALARS}
    try:
        check_int("rng_seed", top["rng_seed"], 0)
        check_bool("renormalize", top["renormalize"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sections = {
        name: _section(raw, name, top["rng_seed"])
        for name in _SECTIONS
        if name not in _SCALARS
    }
    return PipelineConfig(**top, **sections)


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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is not UTF-8 JSON: {exc}") from exc
    return config_from_dict(_apply_env(raw, env))
