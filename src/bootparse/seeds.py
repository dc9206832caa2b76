"""Seed examples for span classifiers, built from raw text alone.

The templates exploit branching bias: the whole sentence is a
constituent, and progressively shorter slices from one end are almost
always distituents.  Optional augmentations add capitalized runs and
text fragments delimited by '*' marks as extra constituents.

A set of labeled examples is held as integer columns (LabeledSet): the
loops grow their sets and training reads them without an object per
example, and seed files are read and written a column at a time.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpus, MalformedFile, check_bool, check_int, read_text
from .treebank import Sentence, Span, token_runs

INSIDE = "inside"
OUTSIDE = "outside"
# a combined view used only by the concatenation baseline
CONCAT = "concat"

# the views in the order of their codes in a LabeledSet
VIEWS = (INSIDE, OUTSIDE, CONCAT)
VIEW_CODES = {view: code for code, view in enumerate(VIEWS)}

CONSTITUENT = 1
DISTITUENT = 0

_LABEL_NAMES = {CONSTITUENT: "constituent", DISTITUENT: "distituent"}
_LABEL_VALUES = {name: value for value, name in _LABEL_NAMES.items()}

# a capitalized token: leading uppercase letter, apostrophes and other
# word-internal marks allowed after it
_CASED_TOKEN = re.compile(r"[A-Z][^\s]*")


@dataclass(frozen=True)
class LabeledSpanExample:
    """A (sentence, span) pair labeled constituent (1) or distituent (0)."""

    sentence_id: int
    span: Span
    label: int
    view: str = INSIDE

    def __post_init__(self):
        if self.label not in (CONSTITUENT, DISTITUENT):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
        if self.view not in (INSIDE, OUTSIDE, CONCAT):
            raise ValueError(f"unknown view {self.view!r}")


def _int_columns(values) -> np.ndarray:
    """values as an int64 array, or as an array of Python ints when one
    does not fit in 64 bits."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class LabeledSet(Sequence):
    """Labeled examples as five parallel integer columns.

    columns is a (5, N) array whose column k is example k: its sentence
    id, its span's bounds i and j, its label and the code of its view in
    VIEWS.  The array is int64, or holds Python ints when a value does
    not fit in 64 bits, as one in a seed file may.  The set reads as a
    sequence of LabeledSpanExamples, each built when it is read, and
    equals any sequence of the same examples in the same order.

    rows is for scorer.train alone: the feature-code rows of the set's
    first examples and the sentences they were built from, kept so that
    a set that grows builds the rows of its new examples only.
    """

    def __init__(self, columns: np.ndarray):
        self.columns = columns
        self.rows = None

    @classmethod
    def of(cls, examples) -> "LabeledSet":
        """A LabeledSet as it is, any other LabeledSpanExamples as a set, in order."""
        if isinstance(examples, LabeledSet):
            return examples
        return cls.from_rows(
            (ex.sentence_id, ex.span.i, ex.span.j, ex.label, VIEW_CODES[ex.view])
            for ex in examples
        )

    @classmethod
    def from_rows(cls, rows) -> "LabeledSet":
        """The set of (sentence id, i, j, label, view code) rows, in order."""
        return cls(_int_columns(list(rows)).reshape(-1, 5).T)

    def __len__(self) -> int:
        return self.columns.shape[1]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return LabeledSet(self.columns[:, k])
        sid, i, j, label, view = self.columns[:, k].tolist()
        return LabeledSpanExample(sid, Span(i, j), label, VIEWS[view])

    def __iter__(self):
        for sid, i, j, label, view in zip(*self.columns.tolist()):
            yield LabeledSpanExample(sid, Span(i, j), label, VIEWS[view])

    def __eq__(self, other):
        if isinstance(other, LabeledSet):
            return len(self) == len(other) and bool(np.all(self.columns == other.columns))
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"LabeledSet({list(self)!r})"


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


def most_common_first_word(corpus) -> str | None:
    """The most frequent sentence-initial token; ties break lexically."""
    counts = Counter(sent.tokens[0] for sent in corpus)
    return min(counts, key=lambda tok: (-counts[tok], tok), default=None)


def cased_runs(sentence: Sentence) -> list[Span]:
    """Maximal runs (length >= 2) of capitalized tokens."""
    return token_runs(sentence.tokens, _CASED_TOKEN.fullmatch)


def casing_copy_sentences(corpus, cfg: SeedConfig) -> list[Sentence]:
    """Carrier sentences holding lower-cased copies of capitalized runs.

    Runs beginning with the corpus's most common sentence-initial word
    are duplicated in lower case so the classifier cannot treat casing
    itself as evidence.  The copies are new token sequences, so each one
    is materialized as a fresh sentence appended after the corpus; the
    matching examples span the whole carrier.
    """
    if not cfg.casing_augmentation:
        return []
    first_word = most_common_first_word(corpus)
    if first_word is None:
        return []
    next_id = 1 + max(sent.id for sent in corpus)
    seen: dict[tuple[str, ...], None] = {}
    for sent in corpus:
        for run in cased_runs(sent):
            if sent.tokens[run.i] != first_word:
                continue
            lowered = tuple(t.lower() for t in sent.tokens[run.i : run.j + 1])
            if lowered not in seen:
                seen[lowered] = None
    out = []
    for tokens in seen:  # dict preserves first-seen order
        out.append(Sentence(id=next_id, tokens=tokens))
        next_id += 1
    return out


def _slice_distituents(sentence: Sentence, cfg: SeedConfig) -> list[Span]:
    n = len(sentence)
    spans = []
    if cfg.random_slices:
        rng = np.random.default_rng((cfg.rng_seed, sentence.id))
        lo = cfg.min_span_len
        hi = n - 1  # slice length strictly below the sentence length
        if hi < lo:
            return []
        for _ in range(cfg.slices):
            length = int(rng.integers(lo, hi + 1))
            if cfg.branching == "right":
                spans.append(Span(0, length - 1))
            else:
                spans.append(Span(n - length, n - 1))
        return spans
    for k in range(1, cfg.slices + 1):
        length = n - k
        if length < cfg.min_span_len:
            break
        if cfg.branching == "right":
            spans.append(Span(0, length - 1))
        else:
            spans.append(Span(k, n - 1))
    return spans


def generate_seeds(corpus, cfg: SeedConfig) -> list[LabeledSpanExample]:
    """Deterministic seed set over the corpus, in corpus order.

    Per sentence: the whole-sentence constituent, slice distituents,
    then optional star fragments and capitalized runs as constituents.
    Lower-cased run copies ride on carrier sentences appended after the
    corpus (see casing_copy_sentences); train on corpus + carriers.
    Duplicates (same sentence, span, label, view) are dropped.
    """
    corpus = list(corpus)
    if not corpus:
        raise EmptyCorpus("no sentences to seed from")
    emitted: dict[LabeledSpanExample, None] = {}

    def emit(sid: int, span: Span, label: int):
        emitted.setdefault(LabeledSpanExample(sid, span, label), None)

    for sent in corpus:
        n = len(sent)
        emit(sent.id, Span(0, n - 1), CONSTITUENT)
        for span in _slice_distituents(sent, cfg):
            emit(sent.id, span, DISTITUENT)
        if cfg.star_split:
            stars = token_runs(sent.tokens, lambda tok: tok != "*", cfg.min_span_len)
            for span in stars:
                emit(sent.id, span, CONSTITUENT)
        if cfg.casing_augmentation:
            for run in cased_runs(sent):
                emit(sent.id, run, CONSTITUENT)
    for carrier in casing_copy_sentences(corpus, cfg):
        emit(carrier.id, Span(0, len(carrier) - 1), cfg.lowercase_copy_label)

    return list(emitted)


def write_seed_file(examples, path) -> None:
    """sentence_id, i, j, label, view as tab-separated columns, one line
    per example."""
    sid, i, j, label, view = LabeledSet.of(examples).columns.tolist()
    label = [_LABEL_NAMES[value] for value in label]
    view = [VIEWS[value] for value in view]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{a}\t{b}\t{c}\t{d}\t{e}\n" for a, b, c, d, e in zip(sid, i, j, label, view)
        )


def _read_line(path, number: int, parts: list[str]) -> tuple:
    """The five columns of one split seed-file line; MalformedFile names
    path:line and the line's first fault."""
    if len(parts) != 5:
        raise MalformedFile(f"{path}:{number}: expected 5 columns, got {len(parts)}")
    sid, i, j, label, view = parts
    if label not in _LABEL_VALUES:
        raise MalformedFile(f"{path}:{number}: unknown label {label!r}")
    try:
        ex = LabeledSpanExample(int(sid), Span(int(i), int(j)), _LABEL_VALUES[label], view)
    except ValueError as exc:
        raise MalformedFile(f"{path}:{number}: {exc}") from exc
    return ex.sentence_id, ex.span.i, ex.span.j, ex.label, VIEW_CODES[ex.view]


def _seed_columns(lines: list[str]) -> np.ndarray | None:
    """The columns of a seed file's non-blank lines, read a column at a
    time by the rules of _read_line; None when a line breaks one."""
    if {line.count("\t") for line in lines} - {4}:
        return None
    fields = "\t".join(lines).split("\t") if lines else []
    sid, i, j, label, view = (fields[k::5] for k in range(5))
    try:
        columns = _int_columns([
            list(map(int, sid)), list(map(int, i)), list(map(int, j)),
            list(map(_LABEL_VALUES.__getitem__, label)), list(map(VIEW_CODES.__getitem__, view)),
        ])
    except (KeyError, ValueError):
        return None
    if np.any(columns[1] < 0) or np.any(columns[2] < columns[1]):
        return None
    return columns


def read_seed_file(path) -> LabeledSet:
    """Read a file written by write_seed_file; MalformedFile names path:line.

    Blank lines are skipped.  The columns are read a column at a time;
    only a file with a bad line is read line by line, which names the
    first bad line and its fault.
    """
    lines = read_text(path).split("\n")
    columns = _seed_columns([line for line in lines if line])
    if columns is None:
        return LabeledSet.from_rows(
            _read_line(path, number, line.split("\t"))
            for number, line in enumerate(lines, 1)
            if line
        )
    return LabeledSet(columns)
