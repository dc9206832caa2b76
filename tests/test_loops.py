from __future__ import annotations

import warnings
import zlib

import numpy as np
import pytest

from bootparse import scorer
from bootparse.errors import EmptyCorpus, PoolExhaustedWarning, SingleClassInput
from bootparse.loops import (
    IterationRecord,
    LoopConfig,
    LoopTrace,
    SelfTrainConfig,
    _grow,
    co_train,
    concat_baseline,
    self_train,
)
from bootparse.scorer import TrainingMeta, harvest, score_chart, train
from bootparse.seeds import (
    CONCAT,
    CONSTITUENT,
    DISTITUENT,
    INSIDE,
    OUTSIDE,
    LabeledSet,
    LabeledSpanExample,
    SeedConfig,
    generate_seeds,
)
from bootparse.treebank import Sentence, Span


class ScriptedModel:
    """Stand-in scorer driven by a (sentence, span) -> prob rule."""

    def __init__(self, view, rule):
        self.view = view
        self.rule = rule
        self.val_metrics = {"val_loss": 0.0, "val_accuracy": 1.0}
        self.scored_ids = []

    def score_spans(self, sentence, spans):
        self.scored_ids.append(sentence.id)
        return [self.rule(sentence, sp) for sp in spans]


def scripted_trainer(rule):
    def trainer(examples, corpus, view, meta=None):
        trainer.calls.append((view, tuple(examples)))
        model = ScriptedModel(view, rule)
        trainer.models.append(model)
        return model

    trainer.calls = []
    trainer.models = []
    return trainer


def whole_vs_pair(sentence, span):
    # whole sentence: confident constituent; length-2: confident
    # distituent; everything else undecided
    n = len(sentence)
    if span == Span(0, n - 1):
        return 0.999
    if span.j - span.i == 1:
        return 0.0001
    return 0.5


def tiny_corpus(count=6, length=5):
    return [
        Sentence(id=k, tokens=tuple(f"w{k}t{p}" for p in range(length)))
        for k in range(count)
    ]


def word_corpus():
    # small patterned language; last token distinguishes full sentences
    patterns = [
        "the dog chased the cat",
        "a bird saw the dog",
        "the cat ate a fish",
        "a fish saw the bird",
        "the bird chased a fish",
        "a dog ate the cat",
        "the fish saw a cat",
        "a cat chased the bird",
    ]
    return [
        Sentence(id=k, tokens=tuple(patterns[k % len(patterns)].split()))
        for k in range(24)
    ]


def test_loop_config_validation():
    with pytest.raises(ValueError):
        LoopConfig(K=0, c=1, d=1)
    with pytest.raises(ValueError):
        LoopConfig(K=1, c=-1, d=1)
    with pytest.raises(ValueError):
        LoopConfig(K=1, c=1, d=1, pool_cap=0)


def test_self_train_replaces_seed_set():
    corpus = tiny_corpus()
    seeds = [
        LabeledSpanExample(0, Span(0, 4), CONSTITUENT, INSIDE),
        LabeledSpanExample(0, Span(0, 3), DISTITUENT, INSIDE),
    ]
    trainer = scripted_trainer(whole_vs_pair)
    cfg = SelfTrainConfig(K=2, c=3, d=3, rng_seed=0)
    result = self_train(seeds, corpus, cfg, trainer=trainer)

    assert len(result.trace) == 2
    # seed span (0, 3) has length 4: the scripted model never selects
    # it, so replacement must have dropped it
    kept = {(e.sentence_id, e.span) for e in result.inside_examples}
    assert (0, Span(0, 3)) not in kept
    for ex in result.inside_examples:
        n = 5
        if ex.label == CONSTITUENT:
            assert ex.span == Span(0, n - 1)
        else:
            assert ex.span.j - ex.span.i == 1


def test_self_train_accumulate_keeps_seeds():
    corpus = tiny_corpus()
    marker = LabeledSpanExample(0, Span(0, 3), DISTITUENT, INSIDE)
    seeds = [LabeledSpanExample(0, Span(0, 4), CONSTITUENT, INSIDE), marker]
    trainer = scripted_trainer(whole_vs_pair)
    cfg = SelfTrainConfig(K=2, c=3, d=3, accumulate=True)
    result = self_train(seeds, corpus, cfg, trainer=trainer)
    assert marker in result.inside_examples


def test_self_train_outside_derived_from_final_inside():
    corpus = tiny_corpus()
    seeds = [
        LabeledSpanExample(0, Span(0, 4), CONSTITUENT, INSIDE),
        LabeledSpanExample(0, Span(0, 3), DISTITUENT, INSIDE),
    ]
    trainer = scripted_trainer(whole_vs_pair)
    result = self_train(
        seeds, corpus, SelfTrainConfig(K=1, c=4, d=4), trainer=trainer
    )
    assert [
        (e.sentence_id, e.span, e.label) for e in result.outside_examples
    ] == [(e.sentence_id, e.span, e.label) for e in result.inside_examples]
    assert all(e.view == OUTSIDE for e in result.outside_examples)
    # outside model was trained last, on the outside view
    assert trainer.calls[-1][0] == OUTSIDE


def test_self_train_returns_both_models_and_trace():
    corpus = tiny_corpus()
    seeds = [
        LabeledSpanExample(0, Span(0, 4), CONSTITUENT, INSIDE),
        LabeledSpanExample(0, Span(0, 3), DISTITUENT, INSIDE),
    ]
    trainer = scripted_trainer(whole_vs_pair)
    result = self_train(seeds, corpus, SelfTrainConfig(K=1, c=2, d=2), trainer=trainer)
    assert result.m_in.view == INSIDE
    assert result.m_out.view == OUTSIDE
    assert isinstance(result.trace, LoopTrace)


def test_self_train_degenerate_config_raises():
    corpus = word_corpus()
    seeds = generate_seeds(corpus, SeedConfig())
    with pytest.raises(SingleClassInput):
        self_train(seeds, corpus, SelfTrainConfig(K=1, c=0, d=0))


def test_self_train_empty_corpus():
    with pytest.raises(EmptyCorpus):
        self_train([], [], SelfTrainConfig(K=1, c=1, d=1))


def test_self_train_respects_pool_cap():
    corpus = tiny_corpus(count=10)
    seeds = [
        LabeledSpanExample(0, Span(0, 4), CONSTITUENT, INSIDE),
        LabeledSpanExample(0, Span(0, 3), DISTITUENT, INSIDE),
    ]
    trainer = scripted_trainer(whole_vs_pair)
    cfg = SelfTrainConfig(K=1, c=100, d=100, pool_cap=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PoolExhaustedWarning)
        result = self_train(seeds, corpus, cfg, trainer=trainer)
    assert set(trainer.models[0].scored_ids) == {0, 1, 2}
    assert {e.sentence_id for e in result.inside_examples} <= {0, 1, 2}


def test_self_train_trace_counts_pools():
    corpus = tiny_corpus(count=4, length=4)
    seeds = [
        LabeledSpanExample(0, Span(0, 3), CONSTITUENT, INSIDE),
        LabeledSpanExample(0, Span(0, 2), DISTITUENT, INSIDE),
    ]
    trainer = scripted_trainer(whole_vs_pair)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PoolExhaustedWarning)
        result = self_train(
            seeds, corpus, SelfTrainConfig(K=1, c=99, d=99), trainer=trainer
        )
    rec = result.trace.records[0]
    # 4 sentences: 1 whole-sentence span and 3 length-2 spans each
    assert rec.pools == {"inside_constituent": 4, "inside_distituent": 12}
    assert rec.selected == {"constituent": 4, "distituent": 12}
    assert rec.inside_size == 16
    assert rec.metrics["inside"]["val_accuracy"] == 1.0


def test_co_train_trace_counts_pools_and_selections():
    corpus = tiny_corpus(count=4, length=4)
    inside = [
        LabeledSpanExample(0, Span(0, 3), CONSTITUENT, INSIDE),
        LabeledSpanExample(0, Span(0, 2), DISTITUENT, INSIDE),
    ]
    outside = [
        LabeledSpanExample(e.sentence_id, e.span, e.label, OUTSIDE) for e in inside
    ]
    trainer = scripted_trainer(whole_vs_pair)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PoolExhaustedWarning)
        result = co_train(
            inside, outside, corpus, LoopConfig(K=2, c=99, d=99), trainer=trainer
        )
    for rec in result.trace:
        # 4 sentences: 1 whole-sentence span and 3 length-2 spans each
        assert rec.pools == {
            "outside_constituent": 4, "outside_distituent": 12,
            "inside_constituent": 4, "inside_distituent": 12,
        }
        # counted before dedup: the seed (0, 3) and, in iteration 1, the
        # whole harvest are already in the sets
        assert rec.selected == {"from_outside": 16, "from_inside": 16}
        assert (rec.inside_size, rec.outside_size) == (17, 17)


def test_co_train_growth_bounded_and_monotone():
    corpus = tiny_corpus(count=8)
    inside = [
        LabeledSpanExample(0, Span(0, 4), CONSTITUENT, INSIDE),
        LabeledSpanExample(0, Span(0, 3), DISTITUENT, INSIDE),
    ]
    outside = [
        LabeledSpanExample(0, Span(0, 4), CONSTITUENT, OUTSIDE),
        LabeledSpanExample(0, Span(0, 3), DISTITUENT, OUTSIDE),
    ]
    trainer = scripted_trainer(whole_vs_pair)
    cfg = LoopConfig(K=3, c=2, d=2)
    result = co_train(inside, outside, corpus, cfg, trainer=trainer)

    prev_in, prev_out = len(inside), len(outside)
    for rec in result.trace:
        assert rec.inside_size - prev_in <= cfg.c + cfg.d
        assert rec.outside_size - prev_out <= cfg.c + cfg.d
        assert rec.inside_size >= prev_in
        assert rec.outside_size >= prev_out
        prev_in, prev_out = rec.inside_size, rec.outside_size


def test_co_train_trains_outside_first_and_dedups():
    corpus = tiny_corpus(count=2, length=3)
    inside = [
        LabeledSpanExample(0, Span(0, 2), CONSTITUENT, INSIDE),
        LabeledSpanExample(0, Span(0, 1), DISTITUENT, INSIDE),
    ]
    outside = [LabeledSpanExample(0, sp, lab, OUTSIDE) for (_, sp, lab) in [
        (0, Span(0, 2), CONSTITUENT), (0, Span(0, 1), DISTITUENT)
    ]]
    trainer = scripted_trainer(whole_vs_pair)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PoolExhaustedWarning)
        result = co_train(
            inside, outside, corpus, LoopConfig(K=3, c=50, d=50), trainer=trainer
        )
    assert trainer.calls[0][0] == OUTSIDE
    # scripted scores never change, so iterations 2-3 re-select the
    # same spans and the union stops growing
    sizes = [rec.inside_size for rec in result.trace]
    assert sizes[0] == sizes[1] == sizes[2]
    keys = [(e.sentence_id, e.span, e.label) for e in result.inside_examples]
    assert len(keys) == len(set(keys))


def test_co_train_examples_carry_target_views():
    corpus = tiny_corpus(count=4)
    inside = [
        LabeledSpanExample(0, Span(0, 4), CONSTITUENT, INSIDE),
        LabeledSpanExample(0, Span(0, 3), DISTITUENT, INSIDE),
    ]
    outside = [
        LabeledSpanExample(0, Span(0, 4), CONSTITUENT, OUTSIDE),
        LabeledSpanExample(0, Span(0, 3), DISTITUENT, OUTSIDE),
    ]
    trainer = scripted_trainer(whole_vs_pair)
    result = co_train(
        inside, outside, corpus, LoopConfig(K=1, c=2, d=2), trainer=trainer
    )
    assert all(e.view == INSIDE for e in result.inside_examples)
    assert all(e.view == OUTSIDE for e in result.outside_examples)


def test_co_train_oracle_fixed_point():
    corpus = tiny_corpus(count=6)
    oracle_in = ScriptedModel(INSIDE, whole_vs_pair)
    oracle_out = ScriptedModel(OUTSIDE, whole_vs_pair)

    def trainer(examples, corpus_, view, meta=None):
        return oracle_in if view == INSIDE else oracle_out

    inside = [
        LabeledSpanExample(0, Span(0, 4), CONSTITUENT, INSIDE),
        LabeledSpanExample(0, Span(0, 3), DISTITUENT, INSIDE),
    ]
    outside = [LabeledSpanExample(0, Span(0, 4), CONSTITUENT, OUTSIDE)]
    held_out = Sentence(id=99, tokens=("a", "b", "c", "d"))
    before = score_chart((oracle_in, oracle_out), held_out).cells.copy()

    result = co_train(
        inside, outside, corpus, LoopConfig(K=2, c=3, d=3), trainer=trainer
    )
    after = score_chart((result.m_in, result.m_out), held_out).cells
    assert np.array_equal(before, after)
    assert len(result.inside_examples) >= len(inside)


def test_real_self_train_runs_and_is_deterministic():
    corpus = word_corpus()
    seeds = generate_seeds(corpus, SeedConfig())
    cfg = SelfTrainConfig(
        K=2,
        c=5,
        d=10,
        tau_min=0.3,
        tau_max=0.7,
        accumulate=True,
        rng_seed=11,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PoolExhaustedWarning)
        r1 = self_train(seeds, corpus, cfg)
        r2 = self_train(seeds, corpus, cfg)
    assert r1.trace.to_jsonl() == r2.trace.to_jsonl()
    assert r1.inside_examples == r2.inside_examples
    assert np.array_equal(r1.m_in.weights, r2.m_in.weights)
    assert np.array_equal(r1.m_out.weights, r2.m_out.weights)


def test_real_co_train_runs_and_is_deterministic():
    corpus = word_corpus()
    seeds = generate_seeds(corpus, SeedConfig())
    outside = [
        LabeledSpanExample(e.sentence_id, e.span, e.label, OUTSIDE) for e in seeds
    ]
    cfg = LoopConfig(
        K=1, c=5, d=10, tau_min=0.3, tau_max=0.7, rng_seed=4
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PoolExhaustedWarning)
        r1 = co_train(seeds, outside, corpus, cfg)
        r2 = co_train(seeds, outside, corpus, cfg)
    assert r1.trace.to_jsonl() == r2.trace.to_jsonl()
    assert np.array_equal(r1.m_in.weights, r2.m_in.weights)
    assert np.array_equal(r1.m_out.weights, r2.m_out.weights)
    assert all(e.view == OUTSIDE for e in r1.outside_examples)


def test_concat_baseline_dimension_is_sum():
    corpus = word_corpus()
    seeds = generate_seeds(corpus, SeedConfig())
    outside = [
        LabeledSpanExample(e.sentence_id, e.span, e.label, OUTSIDE) for e in seeds
    ]
    m_in = train(seeds, corpus, INSIDE)
    m_out = train(outside, corpus, OUTSIDE)
    m_cat = concat_baseline(seeds, outside, corpus, LoopConfig(K=1, c=0, d=0))
    assert m_cat.view == "concat"
    assert m_cat.space.dim == m_in.space.dim + m_out.space.dim


def test_trace_jsonl_round_trip():
    rec = IterationRecord(
        iteration=0,
        inside_size=4,
        outside_size=2,
        pools={"inside_constituent": 9},
        selected={"constituent": 4},
        metrics={"inside": {"val_loss": 0.25}},
    )
    trace = LoopTrace(records=(rec,))
    text = trace.to_jsonl()
    assert text.endswith("\n") and "\n" not in text[:-1]
    assert LoopTrace.from_jsonl(text) == trace


def test_self_train_replaced_set_of_one_class_names_loop_and_pools():
    # the harvest finds confident distituents only, so the replaced set
    # holds one class, and the loop says where before any training on it
    def pairs_only(sentence, span):
        return 0.0001 if span.j - span.i == 1 else 0.5

    corpus = tiny_corpus(count=4, length=4)
    seeds = [
        LabeledSpanExample(0, Span(0, 3), CONSTITUENT, INSIDE),
        LabeledSpanExample(0, Span(0, 2), DISTITUENT, INSIDE),
    ]
    trainer = scripted_trainer(pairs_only)
    with pytest.warns(PoolExhaustedWarning), pytest.raises(SingleClassInput) as caught:
        self_train(seeds, corpus, SelfTrainConfig(K=2, c=5, d=5), trainer=trainer)
    message = str(caught.value)
    assert message.startswith("self_train iteration 0: ")
    assert "5 examples of classes [0]" in message
    assert "'inside_constituent': 0, 'inside_distituent': 12" in message
    assert "'constituent': 0, 'distituent': 5" in message
    assert len(trainer.calls) == 1
    # keeping the seeds keeps both classes
    with pytest.warns(PoolExhaustedWarning):
        result = self_train(
            seeds, corpus, SelfTrainConfig(K=2, c=5, d=5, accumulate=True),
            trainer=scripted_trainer(pairs_only),
        )
    assert len(result.trace) == 2


# --- labeled sets as columns against lists of examples ---


def list_grow(labeled, view, model, pool_sents, cfg, stream, k):
    """_grow over a list of example objects, as the loops grew their sets
    before they held them as columns."""
    rng = np.random.default_rng((cfg.rng_seed, stream, k))
    const, dist, (n_const, n_dist) = harvest(model, pool_sents, cfg.thresholds, cfg.c, cfg.d, rng)
    seen = set(labeled)
    new = (LabeledSpanExample(ex.sentence_id, ex.span, ex.label, view) for ex in [*const, *dist])
    grown = [*labeled, *dict.fromkeys(ex for ex in new if ex not in seen)]
    pools = {f"{model.view}_constituent": n_const, f"{model.view}_distituent": n_dist}
    return grown, pools, {"constituent": len(const), "distituent": len(dist)}


def coin_rule(sentence, span):
    """A score fixed by the sentence's tokens and the span: confident
    either way for most spans, so two sentences with one id and other
    tokens can label one span both ways."""
    roll = zlib.crc32(f"{sentence.tokens} {span.i} {span.j}".encode()) % 10
    return 0.999 if roll < 4 else 0.0001 if roll < 8 else 0.5


@pytest.mark.parametrize(
    "model_view, view", [(INSIDE, INSIDE), (OUTSIDE, INSIDE), (INSIDE, OUTSIDE)]
)
@pytest.mark.parametrize("c, d", [(6, 9), (40, 40), (0, 7)])
def test_grow_matches_list_grow_over_duplicate_heavy_harvests(model_view, view, c, d):
    # pool sentences out of id order, repeated (so a sample repeats a
    # span), and two sentences with id 3 but other tokens (so one span
    # comes under both labels)
    base = tiny_corpus(count=5, length=4)
    twin = Sentence(id=3, tokens=("x", "y", "z", "w"))
    pool = [base[4], base[1], base[1], twin, base[3], base[0], base[4], base[2], base[3]]
    model = ScriptedModel(model_view, coin_rule)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PoolExhaustedWarning)
        const, dist, _ = harvest(model, pool, LoopConfig(K=1, c=1, d=1).thresholds, 99, 99,
                                 np.random.default_rng(0))
    # the whole pools: repeated spans, and a span under both labels
    assert len(set(const)) < len(const) and len(set(dist)) < len(dist)
    assert {(ex.sentence_id, ex.span) for ex in const} & {(ex.sentence_id, ex.span) for ex in dist}
    some = [*const][:3] + [*dist][:3]
    old = [
        *(LabeledSpanExample(ex.sentence_id, ex.span, ex.label, view) for ex in some),
        LabeledSpanExample(0, Span(0, 3), CONSTITUENT, view),
        LabeledSpanExample(0, Span(0, 3), CONSTITUENT, view),  # a duplicate kept
        LabeledSpanExample(0, Span(0, 3), DISTITUENT, view),  # its span, other label
        LabeledSpanExample(1, Span(0, 1), CONSTITUENT, CONCAT),  # a row of another view
    ]
    for start in (old, []):  # accumulating, and replace mode's empty set
        want, got = start, LabeledSet.of(start)
        for k in range(3):
            cfg = LoopConfig(K=1, c=c, d=d, rng_seed=k)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PoolExhaustedWarning)
                want, want_pools, want_selected = list_grow(want, view, model, pool, cfg, 2, k)
                got, pools, selected = _grow(got, view, model, pool, cfg, 2, k)
            assert isinstance(got, LabeledSet)
            assert list(got) == want
            assert (pools, selected) == (want_pools, want_selected)
        assert len(want) > len(start)


def grown_twice(corpus, meta):
    seeds = LabeledSet.of(generate_seeds(corpus, SeedConfig()))
    sets = [seeds]
    model = train(seeds, corpus, INSIDE, meta)
    for k in range(2):
        cfg = LoopConfig(K=1, c=5, d=10, tau_min=0.3, tau_max=0.7, rng_seed=k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PoolExhaustedWarning)
            grown, _, _ = _grow(sets[-1], INSIDE, model, corpus, cfg, 2, k)
        sets.append(grown)
        model = train(grown, corpus, INSIDE, meta)
    return sets


def assert_same_model(got, want):
    assert np.array_equal(got.weights.view(np.int64), want.weights.view(np.int64))
    assert got.bias == want.bias
    assert got.val_metrics == want.val_metrics
    assert got.space.names == want.space.names
    assert got.example_count == want.example_count


def test_train_on_grown_set_matches_train_on_list():
    corpus = word_corpus()
    meta = TrainingMeta(epochs=8, rng_seed=3)
    sets = grown_twice(corpus, meta)
    assert len(sets[0]) < len(sets[1]) < len(sets[2])
    for labeled in sets:
        assert_same_model(
            train(labeled, corpus, INSIDE, meta), train(list(labeled), corpus, INSIDE, meta)
        )
    # a set trained over one corpus trains over another with the same ids
    other = [Sentence(s.id, tuple(reversed(s.tokens))) for s in corpus]
    assert_same_model(
        train(sets[2], other, INSIDE, meta), train(list(sets[2]), other, INSIDE, meta)
    )


def test_each_train_call_builds_the_rows_of_its_whole_set_once(monkeypatch):
    # no rows are kept between calls: each retrain of a growing set
    # builds the rows of every example it trains on, in one call
    built, trained = [], []
    example_rows = scorer.example_rows

    def counting(examples, by_id, view):
        built.append(len(examples))
        return example_rows(examples, by_id, view)

    def counting_train(examples, *args):
        trained.append(len(examples))
        return train(examples, *args)

    monkeypatch.setattr(scorer, "example_rows", counting)
    corpus = word_corpus()
    seeds = generate_seeds(corpus, SeedConfig())
    outside = [LabeledSpanExample(e.sentence_id, e.span, e.label, OUTSIDE) for e in seeds]
    cfg = LoopConfig(K=3, c=5, d=10, tau_min=0.3, tau_max=0.7, rng_seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PoolExhaustedWarning)
        result = co_train(seeds, outside, corpus, cfg, meta=TrainingMeta(epochs=5),
                          trainer=counting_train)
    assert len(result.inside_examples) > len(seeds)
    assert len(result.outside_examples) > len(seeds)
    assert len(trained) == 1 + 2 * cfg.K
    assert built == trained
    assert trained[-2:] == [len(result.inside_examples), len(result.outside_examples)]
