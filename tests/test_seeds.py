from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootparse.errors import MalformedFile
from bootparse.seeds import (
    CONCAT,
    CONSTITUENT,
    DISTITUENT,
    INSIDE,
    OUTSIDE,
    LabeledSet,
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


# --- seed files read a column at a time against a line-by-line reader ---


def reference_read_seed_file(path) -> list[LabeledSpanExample]:
    """The seed-file reader as it was, one example object per line."""
    text = Path(path).read_text(encoding="utf-8-sig")
    out = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise MalformedFile(f"{path}:{lineno}: expected 5 columns, got {len(parts)}")
        sid, i, j, label, view = parts
        labels = {"constituent": CONSTITUENT, "distituent": DISTITUENT}
        if label not in labels:
            raise MalformedFile(f"{path}:{lineno}: unknown label {label!r}")
        try:
            out.append(LabeledSpanExample(int(sid), Span(int(i), int(j)), labels[label], view))
        except ValueError as exc:
            raise MalformedFile(f"{path}:{lineno}: {exc}") from exc
    return out


BIG_ID = "1234567890123456789012345"
# numbers int() reads (Arabic-Indic digits, signs, padding, underscores,
# values past 64 bits) and some it does not
SEED_NUMBERS = [
    "0", "1", "2", "3", "7", "\u0663", "+3", " 3", "3 ", "3_0", "-1", "-0", BIG_ID,
    "-" + BIG_ID, "9223372036854775808", "x", "", "3.0", "1e3", "_3",
]
SEED_LABELS = ["constituent", "distituent", "Constituent", "", "bogus"]
SEED_VIEWS = [INSIDE, OUTSIDE, CONCAT, "inside\r", "sideways", ""]


@st.composite
def seed_file_bytes(draw):
    """Seed-file text, mostly well formed, over the traps above, with CRLF
    line ends, a byte order mark, blank lines and no final newline drawn."""
    good = st.tuples(
        st.sampled_from(["0", "1", "2", "12"]), st.sampled_from(["0", "1"]),
        st.sampled_from(["1", "2", "3"]), st.sampled_from(["constituent", "distituent"]),
        st.sampled_from([INSIDE, OUTSIDE]),
    ).map("\t".join)
    trap = st.tuples(
        st.sampled_from(SEED_NUMBERS), st.sampled_from(SEED_NUMBERS),
        st.sampled_from(SEED_NUMBERS), st.sampled_from(SEED_LABELS), st.sampled_from(SEED_VIEWS),
    ).map("\t".join)
    odd = st.lists(st.sampled_from(["0", "1", "inside", "constituent", "\r"]), max_size=7).map(
        "\t".join
    )
    lines = draw(st.lists(st.one_of(good, good, trap, odd, st.just("")), max_size=12))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8")


def read_or_error(reader, path):
    try:
        return reader(path)
    except MalformedFile as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(seed_file_bytes())
def test_read_seed_file_matches_line_by_line_reader(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seeds.tsv"
        path.write_bytes(data)
        want = read_or_error(reference_read_seed_file, path)
        got = read_or_error(read_seed_file, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, LabeledSet)
        assert list(got) == want
        assert got == want


@pytest.mark.parametrize(
    "line, value",
    [("\u0663\t0\t1\tconstituent\tinside", 3), ("+3\t0\t1\tconstituent\tinside", 3),
     (" 3\t0\t1\tconstituent\tinside", 3), ("3_0\t0\t1\tconstituent\tinside", 30),
     (f"{BIG_ID}\t0\t1\tconstituent\tinside", int(BIG_ID))],
)
def test_read_seed_file_reads_ids_as_int_does(tmp_path, line, value):
    path = tmp_path / "seeds.tsv"
    path.write_text("0\t0\t1\tdistituent\tinside\n" + line + "\n")
    got = read_seed_file(path)
    assert got == reference_read_seed_file(path)
    assert got[1].sentence_id == value


def test_read_seed_file_names_first_bad_line(tmp_path):
    path = tmp_path / "seeds.tsv"
    path.write_text(
        "0\t0\t1\tconstituent\tinside\n\n0\t2\t1\tconstituent\tsideways\n"
        "0\t0\t1\tbogus\tinside\n"
    )
    with pytest.raises(MalformedFile) as caught:
        read_seed_file(path)
    assert str(caught.value) == f"{path}:3: invalid span (2, 1)"


def test_write_seed_file_same_bytes_for_set_and_list(tmp_path):
    corpus = [sent(0, "a b c d"), sent(1, "e f g"), sent(7, "The Dog runs")]
    examples = generate_seeds(corpus, SeedConfig(casing_augmentation=True))
    examples += [
        LabeledSpanExample(int(BIG_ID), Span(0, 1), DISTITUENT, OUTSIDE),
        LabeledSpanExample(2, Span(1, 3), CONSTITUENT, CONCAT),
    ]
    labeled = LabeledSet.of(examples)
    assert labeled.columns.dtype == object
    small = LabeledSet.of(examples[:-2])
    for name, value in (("list", examples), ("set", labeled), ("int64", small)):
        write_seed_file(value, tmp_path / f"{name}.tsv")
    assert (tmp_path / "list.tsv").read_bytes() == (tmp_path / "set.tsv").read_bytes()
    assert (tmp_path / "int64.tsv").read_bytes() == b"".join(
        (tmp_path / "list.tsv").read_bytes().splitlines(keepends=True)[:-2]
    )
    assert read_seed_file(tmp_path / "set.tsv") == examples
    write_seed_file([], tmp_path / "empty.tsv")
    assert (tmp_path / "empty.tsv").read_bytes() == b""
    assert read_seed_file(tmp_path / "empty.tsv") == []
