"""Run configuration: one JSON file plus environment-variable overrides,
and every settings class a stage takes.

A bare ``PipelineConfig()`` carries the reference recipe defaults
(self-train K=5, co-train K=2, thresholds (0.0005, 0.995), pool cap
5000) so an empty config file reproduces the recipe shape on whatever
corpus the paths point at.  ``synthetic_profile`` returns the tuned
desk-scale configuration used by the bundled synthetic-grammar demo and
the acceptance checks.

This module imports nothing of the package but errors, so a stage loads
its settings without the code of the stages it does not run.  The
settings classes are imported from here by the modules that take them
(``SeedConfig`` by seeds, ``TrainingMeta`` and ``Thresholds`` by scorer,
``LoopConfig`` and ``SelfTrainConfig`` by loops, ``HeuristicConfig`` by
decoder, ``EvalConfig`` by evaluation), and each can be imported from
either place.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

from .errors import ConfigError, check_bool, check_int, check_number, json_value

ENV_PREFIX = "BOOTPARSE_"
# Names the treebank of the data-gated PTB test; it is not a config override.
PTB_TEST_ENV = "BOOTPARSE_PTB_TEST"

BUILTIN_BACKEND = "builtin"
EXTERNAL_BACKEND = "external"

# seed and training labels
CONSTITUENT = 1
DISTITUENT = 0

# eval counting modes
MACRO_SENTENCE = "macro_sentence"
MICRO_CORPUS = "micro_corpus"
EVALB_STYLE = "evalb_style"
EVAL_MODES = (MACRO_SENTENCE, MICRO_CORPUS, EVALB_STYLE)


# ------------------------------------------------------ stage settings


@dataclass(frozen=True)
class SeedConfig:
    """Controls the seed templates.

    num_slices=None picks the per-branching default (6 slices from the
    right template, 4 from the left).  random_slices replaces template
    distituents with uniformly drawn prefixes/suffixes, an intentionally
    weaker scheme kept for comparison runs.
    """

    branching: str = "right"
    num_slices: int | None = None
    min_span_len: int = 2
    casing_augmentation: bool = False
    star_split: bool = False
    random_slices: bool = False
    lowercase_copy_label: int = CONSTITUENT
    rng_seed: int = 0

    def __post_init__(self):
        if self.branching not in ("right", "left"):
            raise ValueError(f"branching must be right or left, got {self.branching!r}")
        if self.num_slices is not None:
            check_int("num_slices", self.num_slices, 1)
        check_int("min_span_len", self.min_span_len, 1)
        check_int("lowercase_copy_label", self.lowercase_copy_label, 0, 1)
        check_int("rng_seed", self.rng_seed, 0)
        for name in ("casing_augmentation", "star_split", "random_slices"):
            check_bool(name, getattr(self, name))

    @property
    def slices(self) -> int:
        if self.num_slices is not None:
            return self.num_slices
        return 6 if self.branching == "right" else 4


@dataclass(frozen=True)
class TrainingMeta:
    """Optimization settings, stored alongside the weights."""

    epochs: int = 30
    learning_rate: float = 0.5
    batch_size: int = 64
    l2: float = 1e-5
    rng_seed: int = 0

    def __post_init__(self):
        check_int("epochs", self.epochs, 1)
        check_int("batch_size", self.batch_size, 1)
        check_int("rng_seed", self.rng_seed, 0)
        check_number("learning_rate", self.learning_rate, 0, inclusive=False)
        check_number("l2", self.l2, 0)


@dataclass(frozen=True)
class Thresholds:
    """Confidence cutoffs; both comparisons are strict."""

    tau_min: float = 0.0005
    tau_max: float = 0.995

    def __post_init__(self):
        if not (0.0 <= self.tau_min < self.tau_max <= 1.0):
            raise ValueError(f"bad thresholds ({self.tau_min}, {self.tau_max})")


@dataclass(frozen=True)
class LoopConfig:
    """The knobs of one bootstrapping loop; co-training takes these alone.

    c and d are the per-iteration harvest sizes; their ratio sets the
    class balance of the pseudo-labeled data (roughly 1:10 constituent
    to distituent in the reference setup).  tau_min and tau_max are the
    strict confidence cutoffs of the harvest, and pool_cap bounds how
    many corpus sentences are scored each iteration.
    """

    K: int
    c: int
    d: int
    tau_min: float = Thresholds.tau_min
    tau_max: float = Thresholds.tau_max
    pool_cap: int = 5000
    rng_seed: int = 0

    def __post_init__(self):
        check_int("K", self.K, 1)
        check_int("c", self.c, 0)
        check_int("d", self.d, 0)
        check_int("pool_cap", self.pool_cap, 1)
        check_int("rng_seed", self.rng_seed, 0)
        self.thresholds  # checks the pair

    @property
    def thresholds(self) -> Thresholds:
        return Thresholds(self.tau_min, self.tau_max)


@dataclass(frozen=True)
class SelfTrainConfig(LoopConfig):
    """LoopConfig plus self-training's update rule.

    accumulate is the alternative reading of that update: keep earlier
    examples instead of replacing the labeled set each iteration.
    Co-training always accumulates, so it has no such switch.
    """

    accumulate: bool = False

    def __post_init__(self):
        super().__post_init__()
        check_bool("accumulate", self.accumulate)


@dataclass(frozen=True)
class HeuristicConfig:
    """Corpus statistics driving the chart refinement rules.

    All statistics come from the training corpus, never from the text
    being parsed.  ``None`` disables the corresponding rule.
    """

    enabled: bool = False
    comma_successor_word: str | None = None
    common_start_word: str | None = None
    top_frequency_set: frozenset[str] = frozenset()
    stopword_set: frozenset[str] = frozenset()

    def __post_init__(self):
        check_bool("enabled", self.enabled)
        for name in ("comma_successor_word", "common_start_word"):
            word = getattr(self, name)
            if word is not None and not isinstance(word, str):
                raise ValueError(f"{name} must be a string or null, got {word!r}")
        for name in ("top_frequency_set", "stopword_set"):
            words = getattr(self, name)
            if not isinstance(words, (list, set, frozenset)) or not all(
                isinstance(w, str) for w in words
            ):
                raise ValueError(f"{name} must be a list of strings, got {words!r}")
            object.__setattr__(self, name, frozenset(words))
        if len(self.top_frequency_set) > 100:
            raise ValueError("top_frequency_set is capped at 100 tokens")


@dataclass(frozen=True)
class EvalConfig:
    """Counting conventions for one evaluation run.

    evalb_style overrides exclude_trivial and dedup_spans: that scorer
    counts whole-sentence spans and keeps duplicated gold spans.
    max_len drops longer sentences entirely; bucket_width controls the
    by-length breakdown.
    """

    mode: str = MACRO_SENTENCE
    exclude_trivial: bool = True
    dedup_spans: bool = True
    max_len: int | None = None
    bucket_width: int = 5

    def __post_init__(self):
        if self.mode not in EVAL_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_len is not None:
            check_int("max_len", self.max_len, 1)
        check_int("bucket_width", self.bucket_width, 1)
        check_bool("exclude_trivial", self.exclude_trivial)
        check_bool("dedup_spans", self.dedup_spans)
        if self.mode == EVALB_STYLE:
            object.__setattr__(self, "exclude_trivial", False)
            object.__setattr__(self, "dedup_spans", False)


# ---------------------------------------------------- pipeline config


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
            if value is not None:
                _check_os_text(name, value)


def _check_os_text(name: str, value: str) -> None:
    """Raise ValueError unless value can be a path or a program argument:
    no NUL, and no character the file system encoding cannot write."""
    try:
        if b"\0" not in os.fsencode(value):
            return
    except UnicodeEncodeError:
        pass
    raise ValueError(f"{name} cannot be passed to the operating system, got {value!r}")


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
        for arg in self.command:
            _check_os_text("command", arg)
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


def _apply_env(raw, env):
    """BOOTPARSE_SECTION__FIELD=value overrides; values parse as JSON.

    raw is not changed: each section is copied before it is written to.
    A root that is not an object is returned as it is, for
    config_from_dict to refuse.
    """
    if not isinstance(raw, dict):
        return raw
    out = {name: dict(value) if isinstance(value, dict) else value for name, value in raw.items()}
    for key in sorted(env):
        if not key.startswith(ENV_PREFIX) or key == PTB_TEST_ENV:
            continue
        spec = key[len(ENV_PREFIX):].lower()
        try:
            value = json_value(env[key], key, ConfigError)
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
                raw = json_value(fh.read(), f"config file {path}", ConfigError)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is not UTF-8 JSON: {exc}") from exc
    return config_from_dict(_apply_env(raw, env))
