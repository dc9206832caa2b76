"""Self-training and co-training loops over the two span classifiers.

Both loops alternate between training a classifier and harvesting
confidently-scored spans from an unlabeled corpus as new pseudo-labels,
through one step: _grow samples the confident extremes with
scorer.harvest and adds the new examples to a labeled set.
Self-training grows the inside view alone and derives the outside view
once at the end; co-training passes confident spans back and forth
between the views, accumulating both labeled sets.

A labeled set is a LabeledSet, integer columns with no object per
example, and _union adds new examples to it by comparing columns.  A
set keeps the feature-code rows training built for it, and a grown set
keeps those of the set it grew from, so each example's row is built
once per loop run: train builds the rows of the examples it has not
seen and picks each retrain's training and validation rows from them.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpus, SingleClassInput, check_bool, check_int, check_number
from .scorer import Thresholds, TrainingMeta, harvest, train
from .seeds import CONCAT, CONSTITUENT, DISTITUENT, INSIDE, OUTSIDE, VIEW_CODES, LabeledSet


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


def _check_map(name: str, value, check) -> None:
    """Raise ValueError unless value is a dict keyed by strings whose
    every item passes check(its name, item)."""
    if not (isinstance(value, dict) and all(isinstance(key, str) for key in value)):
        raise ValueError(f"{name} must be an object keyed by strings, got {value!r}")
    for key, item in value.items():
        check(f"{name}[{key!r}]", item)


@dataclass(frozen=True)
class IterationRecord:
    """Sizes and validation metrics observed in one loop iteration.

    The iteration and the sizes are ints >= 0, pools and selected map
    names to ints >= 0, and metrics maps each view to its metrics'
    finite numbers; anything else is a ValueError.
    """

    iteration: int
    inside_size: int
    outside_size: int
    pools: dict[str, int]
    selected: dict[str, int]
    metrics: dict[str, dict]

    def __post_init__(self):
        for name in ("iteration", "inside_size", "outside_size"):
            check_int(name, getattr(self, name), 0)
        for name in ("pools", "selected"):
            _check_map(name, getattr(self, name), lambda what, n: check_int(what, n, 0))
        _check_map(
            "metrics", self.metrics, lambda view, values: _check_map(view, values, check_number)
        )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


@dataclass(frozen=True)
class LoopTrace:
    """One record per completed iteration, in order."""

    records: tuple[IterationRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_jsonl(self) -> str:
        return "".join(rec.to_json() + "\n" for rec in self.records)

    @classmethod
    def from_jsonl(cls, text: str) -> "LoopTrace":
        """Parse to_jsonl output; a bad record is a ValueError naming its line."""
        records = []
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                records.append(IterationRecord(**json.loads(line)))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {number}: {exc!r}") from exc
        return cls(records=tuple(records))


@dataclass(frozen=True)
class LoopResult:
    """Models, per-iteration trace, and the final labeled sets.

    Unpacks as (m_in, m_out, trace); the labeled sets ride along so a
    later co-training stage can pick up where this loop stopped.
    """

    m_in: object
    m_out: object
    trace: LoopTrace
    inside_examples: LabeledSet
    outside_examples: LabeledSet

    def __iter__(self):
        return iter((self.m_in, self.m_out, self.trace))


def _loop_sentences(unlabeled, lookup, cfg: LoopConfig, loop: str):
    """Sentences to resolve example ids in, and the ones scored each
    iteration: the first pool_cap unlabeled sentences by id."""
    unlabeled = list(unlabeled)
    if not unlabeled:
        raise EmptyCorpus(f"{loop} needs at least one unlabeled sentence")
    pool_sents = sorted(unlabeled, key=lambda s: s.id)[: cfg.pool_cap]
    return _merge_corpora(lookup or [], unlabeled), pool_sents


def _merge_corpora(*corpora):
    seen: dict[int, object] = {}
    for corpus in corpora:
        for sent in corpus:
            seen.setdefault(sent.id, sent)
    return list(seen.values())


def _in_view(labeled: LabeledSet, view: str) -> LabeledSet:
    """The examples of labeled, all in view."""
    columns = labeled.columns.copy()
    columns[4] = VIEW_CODES[view]
    return LabeledSet(columns)


def _union(labeled: LabeledSet, new: LabeledSet) -> LabeledSet:
    """labeled as it is, then each example of new, in order, that neither
    labeled nor an earlier example of new holds.

    An example is its five columns, label and view included.  The grown
    set keeps the rows labeled kept for training.
    """
    both = np.concatenate((labeled.columns, new.columns), axis=1)
    # a stable sort puts equal examples together in the order they come
    order = np.lexsort(both[::-1])
    ranked = both[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    fresh = np.empty_like(first)
    fresh[order] = first
    grown = LabeledSet(np.concatenate(
        (labeled.columns, new.columns[:, fresh[len(labeled):]]), axis=1
    ))
    grown.rows = labeled.rows
    return grown


def _grow(labeled: LabeledSet, view: str, model, pool_sents, cfg: LoopConfig, stream: int, k: int):
    """Harvest c constituents and d distituents and add them to labeled.

    The harvest draws from its own RNG stream, (rng_seed, stream,
    iteration k), and its examples join labeled in view, after it and in
    sample order, unless already there (_union).  Returns the grown set,
    the pool sizes keyed by the model's view and the class, and the
    sample size of each class before duplicates were dropped.
    """
    rng = np.random.default_rng((cfg.rng_seed, stream, k))
    const, dist, (n_const, n_dist) = harvest(model, pool_sents, cfg.thresholds, cfg.c, cfg.d, rng)
    new = LabeledSet(np.concatenate((const.columns, dist.columns), axis=1))
    grown = _union(labeled, _in_view(new, view))
    pools = {f"{model.view}_constituent": n_const, f"{model.view}_distituent": n_dist}
    return grown, pools, {"constituent": len(const), "distituent": len(dist)}


def self_train(
    inside_examples,
    unlabeled,
    cfg: SelfTrainConfig,
    *,
    lookup=None,
    meta: TrainingMeta | None = None,
    trainer=train,
) -> LoopResult:
    """Grow the inside classifier by pseudo-labeling its own output.

    Each iteration trains on the current labeled set, harvests c
    confident constituents and d confident distituents from the corpus
    with the RNG stream (rng_seed, 1, iteration), and replaces the
    labeled set with the harvest.  After the last
    iteration the surviving examples are converted to the outside view
    and the outside classifier is trained on them once.

    The replacement update means seed examples are gone after one
    iteration; a SelfTrainConfig with accumulate=True keeps them.  A
    replaced set must hold both classes, since every set is trained on:
    when a harvest leaves it with one class or none, SingleClassInput
    names the iteration, its pool sizes and its sample sizes.
    """
    sentences, pool_sents = _loop_sentences(unlabeled, lookup, cfg, "self_train")

    current = LabeledSet.of(inside_examples)
    records = []
    m_in = None
    for k in range(cfg.K):
        m_in = trainer(current, sentences, INSIDE, meta)
        current, pools, selected = _grow(
            current if cfg.accumulate else LabeledSet.of([]), INSIDE, m_in, pool_sents, cfg, 1, k
        )
        labels = set(current.columns[3].tolist())
        if not cfg.accumulate and labels != {CONSTITUENT, DISTITUENT}:
            raise SingleClassInput(
                f"self_train iteration {k}: the harvest that replaces the labeled set "
                f"holds {len(current)} examples of classes {sorted(labels)}, and training "
                f"needs both (pools {pools}, selected {selected}); raise c or d, widen "
                "tau_min and tau_max, or set accumulate"
            )
        records.append(
            IterationRecord(
                iteration=k,
                inside_size=len(current),
                outside_size=0,
                pools=pools,
                selected=selected,
                metrics={"inside": dict(m_in.val_metrics)},
            )
        )

    outside = _in_view(current, OUTSIDE)
    m_out = trainer(outside, sentences, OUTSIDE, meta)
    return LoopResult(
        m_in=m_in,
        m_out=m_out,
        trace=LoopTrace(records=tuple(records)),
        inside_examples=current,
        outside_examples=outside,
    )


def co_train(
    inside_examples,
    outside_examples,
    unlabeled,
    cfg: LoopConfig,
    *,
    lookup=None,
    meta: TrainingMeta | None = None,
    trainer=train,
) -> LoopResult:
    """Let each view teach the other, from inside- and outside-view examples.

    Per iteration: the outside model's confident spans join the inside
    set (as inside-view examples), the inside model is retrained, its
    confident spans join the outside set, and the outside model is
    retrained.  The two harvests draw from the RNG streams (rng_seed, 2,
    iteration) and (rng_seed, 3, iteration).  Both sets only grow; models
    are re-trained from scratch each time so runs are reproducible.
    """
    sentences, pool_sents = _loop_sentences(unlabeled, lookup, cfg, "co_train")

    inside_set, outside_set = LabeledSet.of(inside_examples), LabeledSet.of(outside_examples)
    m_out = trainer(outside_set, sentences, OUTSIDE, meta)
    m_in = None
    records = []
    for k in range(cfg.K):
        inside_set, out_pools, from_outside = _grow(
            inside_set, INSIDE, m_out, pool_sents, cfg, 2, k
        )
        m_in = trainer(inside_set, sentences, INSIDE, meta)
        outside_set, in_pools, from_inside = _grow(
            outside_set, OUTSIDE, m_in, pool_sents, cfg, 3, k
        )
        m_out = trainer(outside_set, sentences, OUTSIDE, meta)

        records.append(
            IterationRecord(
                iteration=k,
                inside_size=len(inside_set),
                outside_size=len(outside_set),
                pools={**out_pools, **in_pools},
                selected={
                    "from_outside": sum(from_outside.values()),
                    "from_inside": sum(from_inside.values()),
                },
                metrics={
                    "inside": dict(m_in.val_metrics),
                    "outside": dict(m_out.val_metrics),
                },
            )
        )

    return LoopResult(
        m_in=m_in,
        m_out=m_out,
        trace=LoopTrace(records=tuple(records)),
        inside_examples=inside_set,
        outside_examples=outside_set,
    )


def concat_baseline(
    inside_examples,
    outside_examples,
    unlabeled,
    cfg: LoopConfig,
    *,
    lookup=None,
    meta: TrainingMeta | None = None,
    trainer=train,
):
    """Single classifier over joined inside+outside features.

    An ablation arm: instead of two cooperating models, one model sees
    both views of every labeled span at once.  No bootstrapping is
    involved; the corpus argument only resolves sentence ids.
    """
    sentences = _merge_corpora(lookup or [], unlabeled)
    both = LabeledSet(np.concatenate(
        [LabeledSet.of(examples).columns for examples in (inside_examples, outside_examples)],
        axis=1,
    ))
    return trainer(_union(LabeledSet.of([]), _in_view(both, CONCAT)), sentences, CONCAT, meta)
