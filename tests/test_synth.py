from __future__ import annotations

import numpy as np
import pytest

from bootparse.errors import NonterminatingGrammar
from bootparse.evaluation import LEFT, RIGHT, trivial_baselines
from bootparse.synth import SyntheticGrammar, builtin_grammar, generate_corpus
from bootparse.treebank import serialize


def test_grammar_validation():
    with pytest.raises(ValueError, match="sum"):
        SyntheticGrammar(
            start="S",
            rules={"S": ((0.5, ("N",)),)},
            lexicon={"N": ("dog",)},
        )
    with pytest.raises(ValueError, match="undefined"):
        SyntheticGrammar(
            start="S",
            rules={"S": ((1.0, ("Missing",)),)},
            lexicon={"N": ("dog",)},
        )
    with pytest.raises(ValueError, match="start"):
        SyntheticGrammar(start="Q", rules={}, lexicon={"N": ("dog",)})
    with pytest.raises(ValueError, match="symbol 'N P'"):
        SyntheticGrammar(start="S", rules={"S": ((1.0, ("N P",)),)}, lexicon={"N P": ("dog",)})
    with pytest.raises(ValueError, match="word under 'N' 'dog\\)'"):
        SyntheticGrammar(start="N", rules={}, lexicon={"N": ("dog)",)})
    with pytest.raises(ValueError, match="both"):
        SyntheticGrammar(
            start="S",
            rules={"S": ((1.0, ("S",)),)},
            lexicon={"S": ("dog",)},
        )


def test_generate_corpus_deterministic():
    grammar = builtin_grammar()
    a = generate_corpus(grammar, 25, rng_seed=7)
    b = generate_corpus(grammar, 25, rng_seed=7)
    assert [serialize(t) for t in a] == [serialize(t) for t in b]
    c = generate_corpus(grammar, 25, rng_seed=8)
    assert [serialize(t) for t in a] != [serialize(t) for t in c]


def test_generate_corpus_ids_and_lengths():
    trees = generate_corpus(builtin_grammar(), 40, rng_seed=0, min_len=3, max_len=9)
    assert [t.sentence.id for t in trees] == list(range(40))
    assert all(3 <= len(t.sentence) <= 9 for t in trees)


def test_trees_cover_their_sentences():
    # GoldTree validates leaf indices against the sentence on build, so
    # a constructed corpus is proof enough; spot-check serialization
    trees = generate_corpus(builtin_grammar(), 10, rng_seed=3)
    text = serialize(trees[0])
    assert text.startswith("(S ")
    for token in trees[0].sentence.tokens:
        assert token in text


def test_divergent_grammar_raises():
    runaway = SyntheticGrammar(
        start="S",
        rules={"S": ((1.0, ("S", "S")),)},
        lexicon={"N": ("dog",)},
        max_depth=10,
    )
    with pytest.raises(NonterminatingGrammar):
        generate_corpus(runaway, 1, rng_seed=0)


def test_impossible_length_window_raises():
    tiny = SyntheticGrammar(
        start="S",
        rules={"S": ((1.0, ("N", "N")),)},
        lexicon={"N": ("dog", "cat")},
    )
    with pytest.raises(NonterminatingGrammar):
        generate_corpus(tiny, 1, rng_seed=0, min_len=5, max_len=6)


def test_builtin_grammar_leans_right():
    golds = generate_corpus(builtin_grammar(), 150, rng_seed=1)
    rb = trivial_baselines(golds, RIGHT)
    lb = trivial_baselines(golds, LEFT)
    assert rb.f1 > lb.f1 + 0.1


def test_sampling_advances_shared_rng():
    grammar = builtin_grammar()
    rng = np.random.default_rng(5)
    from bootparse.synth import sample_tree

    first = sample_tree(grammar, rng, sentence_id=0)
    second = sample_tree(grammar, rng, sentence_id=1)
    assert serialize(first) != serialize(second) or len(first.sentence) != len(
        second.sentence
    )


def test_cdf_draws_match_generator_choice():
    # one rng.random() searched in a rule's cumulative sum picks what
    # rng.choice(p=...) picks from the same state, and leaves the same state
    rules = dict(builtin_grammar().rules)
    rules["Z"] = ((0.3, ("N",)), (0.0, ("N", "N")), (0.7, ("N", "N", "N")))
    grammar = SyntheticGrammar(start="Z", rules=rules, lexicon=builtin_grammar().lexicon)
    for lhs, expansions in grammar.rules.items():
        probs = np.array([p for p, _ in expansions])
        by_choice, by_cdf = np.random.default_rng(11), np.random.default_rng(11)
        picks = [int(by_choice.choice(len(expansions), p=probs / probs.sum()))
                 for _ in range(5000)]
        cdf = grammar.cdfs[lhs]
        assert picks == [int(cdf.searchsorted(by_cdf.random(), side="right"))
                         for _ in range(5000)]
        assert by_choice.bit_generator.state == by_cdf.bit_generator.state
        if lhs == "Z":
            assert 1 not in picks and {0, 2} <= set(picks)
