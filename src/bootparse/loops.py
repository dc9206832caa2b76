"""Self-training and co-training loops over the two span classifiers.

Both loops alternate between training a classifier and harvesting
confidently-scored spans from an unlabeled corpus as new pseudo-labels,
through one step: _grow samples the confident extremes with
scorer.harvest and adds the new examples to a labeled set.
Self-training grows the inside view alone; co-training trains the first
outside model on self-training's last set and passes confident spans
back and forth between the views, accumulating both labeled sets.

A labeled set is a LabeledSet, integer columns with no object per
example, and LabeledSet.union adds new examples to it by comparing
columns.  A set holds its columns alone: each retrain builds the
feature rows of its whole set once, in its shuffled order, and keeps
none of them.

The loop settings (LoopConfig, SelfTrainConfig) live in config and the
trace records (IterationRecord, LoopTrace) in trace; both can be
imported from here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LoopConfig, SelfTrainConfig, TrainingMeta
from .errors import EmptyCorpus, SingleClassInput
from .scorer import harvest, train
from .seeds import CONCAT, CONSTITUENT, DISTITUENT, INSIDE, OUTSIDE, LabeledSet
from .trace import IterationRecord, LoopTrace


@dataclass(frozen=True)
class LoopResult:
    """Models (self_train's m_out is None), trace and final labeled sets,
    from which a co-training stage picks up where this loop stopped."""

    m_in: object
    m_out: object | None
    trace: LoopTrace
    inside_examples: LabeledSet
    outside_examples: LabeledSet


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


def _grow(labeled: LabeledSet, view: str, model, pool_sents, cfg: LoopConfig, stream: int, k: int):
    """Harvest c constituents and d distituents and add them to labeled.

    The harvest draws from its own RNG stream, (rng_seed, stream,
    iteration k), and its examples join labeled in view, after it and in
    sample order, unless already there (LabeledSet.union).  Returns the
    grown set, the pool sizes keyed by the model's view and the class,
    and the sample size of each class before duplicates were dropped.
    """
    rng = np.random.default_rng((cfg.rng_seed, stream, k))
    const, dist, (n_const, n_dist) = harvest(model, pool_sents, cfg.thresholds, cfg.c, cfg.d, rng)
    new = LabeledSet(np.concatenate((const.columns, dist.columns), axis=1))
    grown = labeled.union(new.in_view(view))
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
    labeled set with the harvest.  The last set is returned in both views,
    and no outside model is trained on it (m_out is None): co_train trains
    the first one.

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

    return LoopResult(
        m_in=m_in,
        m_out=None,
        trace=LoopTrace(records=tuple(records)),
        inside_examples=current,
        outside_examples=current.in_view(OUTSIDE),
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
    return trainer(LabeledSet.of([]).union(both.in_view(CONCAT)), sentences, CONCAT, meta)
