from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from bootparse.seeds import (
    CONSTITUENT,
    DISTITUENT,
    INSIDE,
    LabeledSpanExample,
    SeedConfig,
    cased_runs,
    casing_copy_sentences,
    generate_seeds,
    most_common_first_word,
    read_seed_file,
    write_seed_file,
)
from bootparse.treebank import Sentence, Span


def sent(sid, text):
    return Sentence(id=sid, tokens=tuple(text.split()))


def spans_by_label(examples):
    return (
        {ex.span for ex in examples if ex.label == CONSTITUENT},
        {ex.span for ex in examples if ex.label == DISTITUENT},
    )


def test_right_template_ten_tokens():
    corpus = [sent(0, "t0 t1 t2 t3 t4 t5 t6 t7 t8 t9")]
    examples = generate_seeds(corpus, SeedConfig(branching="right"))
    const, dist = spans_by_label(examples)
    assert const == {Span(0, 9)}
    assert dist == {Span(0, 8), Span(0, 7), Span(0, 6), Span(0, 5), Span(0, 4), Span(0, 3)}


def test_right_template_short_sentence_clips():
    corpus = [sent(0, "a b c d")]
    examples = generate_seeds(corpus, SeedConfig(branching="right", num_slices=6))
    const, dist = spans_by_label(examples)
    assert const == {Span(0, 3)}
    assert dist == {Span(0, 2), Span(0, 1)}


def test_left_template_five_tokens():
    corpus = [sent(0, "a b c d e")]
    examples = generate_seeds(corpus, SeedConfig(branching="left"))
    const, dist = spans_by_label(examples)
    assert const == {Span(0, 4)}
    assert dist == {Span(1, 4), Span(2, 4), Span(3, 4)}


def test_default_slice_counts():
    assert SeedConfig(branching="right").slices == 6
    assert SeedConfig(branching="left").slices == 4
    assert SeedConfig(branching="left", num_slices=9).slices == 9


def test_star_split_fragments():
    corpus = [sent(0, "a b * c d e * f")]
    cfg = SeedConfig(star_split=True)
    const, _ = spans_by_label(generate_seeds(corpus, cfg))
    assert Span(0, 1) in const
    assert Span(3, 5) in const
    # single-token tail fragment is skipped, whole span is already there
    assert Span(7, 7) not in const
    no_star = generate_seeds(corpus, SeedConfig(star_split=False))
    assert Span(3, 5) not in spans_by_label(no_star)[0]
    # fragments shorter than min_span_len are skipped too
    corpus = [sent(0, "* a b c * * d e * f g h i")]
    cfg = SeedConfig(star_split=True, min_span_len=3, num_slices=1)
    const, dist = spans_by_label(generate_seeds(corpus, cfg))
    assert const == {Span(0, 12), Span(1, 3), Span(9, 12)}
    assert dist == {Span(0, 11)}


def test_cased_runs():
    s = sent(0, "He said Boston Red Sox won")
    assert cased_runs(s) == [Span(2, 4)]
    assert cased_runs(sent(1, "O'Neill Jones lost")) == [Span(0, 1)]
    assert cased_runs(sent(2, "nothing cased here")) == []
    # length-1 runs are skipped
    assert cased_runs(sent(3, "He lost")) == []
    # an ASCII capital only; the decoder's rare_cased_runs takes any
    assert cased_runs(sent(4, "Über Alles here")) == []


def test_casing_augmentation_spans():
    corpus = [sent(0, "He said Boston Red Sox won")]
    cfg = SeedConfig(casing_augmentation=True)
    const, _ = spans_by_label(generate_seeds(corpus, cfg))
    assert Span(2, 4) in const


def test_most_common_first_word_ties_lexical():
    corpus = [sent(0, "b x"), sent(1, "a y"), sent(2, "a z"), sent(3, "b w")]
    assert most_common_first_word(corpus) == "a"


def test_lowercase_copies_ride_on_carriers():
    corpus = [
        sent(0, "The Big Dog barked loudly"),
        sent(1, "The cat slept"),
        sent(2, "A Big Dog is here"),
    ]
    cfg = SeedConfig(casing_augmentation=True)
    carriers = casing_copy_sentences(corpus, cfg)
    assert [c.tokens for c in carriers] == [("the", "big", "dog")]
    assert carriers[0].id == 3  # appended after the corpus
    examples = generate_seeds(corpus, cfg)
    carrier_examples = [ex for ex in examples if ex.sentence_id == 3]
    assert carrier_examples == [
        LabeledSpanExample(sentence_id=3, span=Span(0, 2), label=CONSTITUENT, view=INSIDE)
    ]
    # runs not starting with the most common first word get no copy
    assert all(ex.sentence_id <= 3 for ex in examples)


def test_lowercase_copy_label_flag():
    corpus = [sent(0, "The Big Dog barked"), sent(1, "The cat slept")]
    cfg = SeedConfig(casing_augmentation=True, lowercase_copy_label=DISTITUENT)
    examples = generate_seeds(corpus, cfg)
    carrier_examples = [ex for ex in examples if ex.sentence_id == 2]
    assert [ex.label for ex in carrier_examples] == [DISTITUENT]


def test_no_duplicates_and_corpus_order():
    corpus = [sent(0, "a b"), sent(1, "c d e")]
    examples = generate_seeds(corpus, SeedConfig())
    keys = [(ex.sentence_id, ex.span, ex.label) for ex in examples]
    assert len(keys) == len(set(keys))
    assert [ex.sentence_id for ex in examples] == sorted(ex.sentence_id for ex in examples)
    assert examples == generate_seeds(corpus, SeedConfig())


def test_random_slices_stay_proper():
    corpus = [sent(k, "w0 w1 w2 w3 w4 w5 w6") for k in range(20)]
    cfg = SeedConfig(random_slices=True, rng_seed=5)
    _, dist = spans_by_label(generate_seeds(corpus, cfg))
    assert dist  # something was drawn
    for span in dist:
        assert 2 <= span.length <= 6  # never trivial, never the whole sentence
        assert span.i == 0  # right-branching slices are prefixes
    assert generate_seeds(corpus, cfg) == generate_seeds(corpus, cfg)
    other = generate_seeds(corpus, SeedConfig(random_slices=True, rng_seed=6))
    assert other != generate_seeds(corpus, cfg)


def test_seed_file_round_trip(tmp_path):
    corpus = [sent(0, "a b c d"), sent(1, "e f g")]
    examples = generate_seeds(corpus, SeedConfig())
    path = tmp_path / "seeds.tsv"
    write_seed_file(examples, path)
    assert read_seed_file(path) == examples
    first = path.read_text().splitlines()[0]
    assert first == "0\t0\t3\tconstituent\tinside"


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("a b c The Dog *".split()), min_size=1, max_size=12),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from(["right", "left"]),
    st.booleans(),
    st.booleans(),
)
def test_seed_validity_property(token_lists, branching, casing, star):
    corpus = [Sentence(id=k, tokens=tuple(toks)) for k, toks in enumerate(token_lists)]
    cfg = SeedConfig(branching=branching, casing_augmentation=casing, star_split=star)
    examples = generate_seeds(corpus, cfg)
    by_id = {s.id: s for s in corpus}
    for carrier in casing_copy_sentences(corpus, cfg):
        by_id[carrier.id] = carrier
    keys = set()
    for ex in examples:
        assert ex.sentence_id in by_id
        assert ex.span.j < len(by_id[ex.sentence_id])
        key = (ex.sentence_id, ex.span, ex.label, ex.view)
        assert key not in keys
        keys.add(key)
    # every sentence contributes its whole span as a constituent
    for s in corpus:
        assert (
            LabeledSpanExample(s.id, Span(0, len(s) - 1), CONSTITUENT, INSIDE)
            in examples
        )
