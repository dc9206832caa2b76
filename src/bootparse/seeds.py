"""Seed examples for span classifiers, built from raw text alone.

The templates exploit branching bias: the whole sentence is a
constituent, and progressively shorter slices from one end are almost
always distituents.  Optional augmentations add capitalized runs and
text fragments delimited by '*' marks as extra constituents.

A set of labeled examples is held as integer columns (LabeledSet) and
nothing else: the loops grow their sets and training reads them without
an object per example, and seed files are read and written a column at
a time.  generate_seeds emits its seeds as integer rows, and
LabeledSet.union, the one rule by which the loops grow their sets,
drops its duplicates.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import CONSTITUENT, DISTITUENT, SeedConfig
from .errors import EmptyCorpus, MalformedFile, read_text
from .treebank import Sentence, Span, token_runs

INSIDE = "inside"
OUTSIDE = "outside"
# a combined view used only by the concatenation baseline
CONCAT = "concat"

# the views in the order of their codes in a LabeledSet
VIEWS = (INSIDE, OUTSIDE, CONCAT)
VIEW_CODES = {view: code for code, view in enumerate(VIEWS)}

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
    equals any sequence of the same examples in the same order.  It
    holds nothing but its columns.
    """

    def __init__(self, columns: np.ndarray):
        self.columns = columns

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
        """The set of (sentence id, i, j, label, view code) rows, in order,
        given one after another or flat."""
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

    def in_view(self, view: str) -> "LabeledSet":
        """The set's examples, all in view."""
        columns = self.columns.copy()
        columns[4] = VIEW_CODES[view]
        return LabeledSet(columns)

    def union(self, new: "LabeledSet") -> "LabeledSet":
        """This set as it is, then each example of new, in order, that
        neither this set nor an earlier example of new holds.

        An example is its five columns, label and view included.
        """
        both = np.concatenate((self.columns, new.columns), axis=1)
        # a stable sort puts equal examples together in the order they come
        order = np.lexsort(both[::-1])
        ranked = both[:, order]
        keep = np.ones(len(order), dtype=bool)
        keep[order[1:]] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
        keep[: len(self)] = True
        return LabeledSet(both[:, keep])


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


def _slice_distituents(sentence: Sentence, cfg: SeedConfig) -> list[tuple[int, int]]:
    """The bounds (i, j) of the sentence's slice distituents: prefixes
    for the right template, suffixes for the left."""
    n = len(sentence)
    if cfg.random_slices:
        rng = np.random.default_rng((cfg.rng_seed, sentence.id))
        # slice lengths strictly below the sentence length
        lo, hi = cfg.min_span_len, n - 1
        lengths = [int(rng.integers(lo, hi + 1)) for _ in range(cfg.slices)] if lo <= hi else []
    else:
        # the slices of length n - 1 down to min_span_len, at most slices of them
        lengths = [n - k for k in range(1, min(cfg.slices, n - cfg.min_span_len) + 1)]
    return [(0, m - 1) if cfg.branching == "right" else (n - m, n - 1) for m in lengths]


def generate_seeds(corpus, cfg: SeedConfig) -> LabeledSet:
    """Deterministic seed set over the corpus, in corpus order, all in
    the inside view.

    Per sentence: the whole-sentence constituent, slice distituents,
    then optional star fragments and capitalized runs as constituents.
    Lower-cased run copies ride on carrier sentences appended after the
    corpus (see casing_copy_sentences); train on corpus + carriers.
    Duplicates (same sentence, span, label, view) are dropped.
    """
    corpus = list(corpus)
    if not corpus:
        raise EmptyCorpus("no sentences to seed from")
    view = VIEW_CODES[INSIDE]
    # (sentence id, i, j, label, view code) of each seed, flat
    rows: list[int] = []
    for sent in corpus:
        rows += (sent.id, 0, len(sent) - 1, CONSTITUENT, view)
        for i, j in _slice_distituents(sent, cfg):
            rows += (sent.id, i, j, DISTITUENT, view)
        runs = []
        if cfg.star_split:
            runs += token_runs(sent.tokens, lambda tok: tok != "*", cfg.min_span_len)
        if cfg.casing_augmentation:
            runs += cased_runs(sent)
        for run in runs:
            rows += (sent.id, run.i, run.j, CONSTITUENT, view)
    for carrier in casing_copy_sentences(corpus, cfg):
        rows += (carrier.id, 0, len(carrier) - 1, cfg.lowercase_copy_label, view)
    seeds = LabeledSet.from_rows(rows)
    del rows  # freed before the dedup's copies are made
    return LabeledSet.of([]).union(seeds)


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


def _seed_columns(path, lines: list[str], first: int = 1) -> np.ndarray:
    """The columns of a seed file's lines, numbered from first, read a
    column at a time; blank lines are skipped.

    A fault raises MalformedFile naming path:line and the line's first
    fault.  Of several lines, each is read alone by these same checks
    until one raises, so the first bad line is the one named.
    """

    def bad(why: str) -> MalformedFile:
        for number, line in enumerate(lines, first) if len(lines) > 1 else ():
            if line:
                _seed_columns(path, [line], number)
        return MalformedFile(f"{path}:{first}: {why}")

    kept = [line for line in lines if line]
    tabs = {line.count("\t") for line in kept}
    if tabs - {4}:
        raise bad(f"expected 5 columns, got {tabs.pop() + 1}")
    fields = "\t".join(kept).split("\t") if kept else []
    sid, i, j, label, view = (fields[k::5] for k in range(5))
    if set(label) - _LABEL_VALUES.keys():
        raise bad(f"unknown label {label[0]!r}")
    try:
        columns = _int_columns([
            list(map(int, sid)), list(map(int, i)), list(map(int, j)),
            list(map(_LABEL_VALUES.get, label)), [VIEW_CODES.get(name, -1) for name in view],
        ])
    except ValueError as exc:
        raise bad(str(exc)) from exc
    if np.any(columns[1] < 0) or np.any(columns[2] < columns[1]):
        raise bad(f"invalid span ({columns[1, 0]}, {columns[2, 0]})")
    if np.any(columns[4] < 0):
        raise bad(f"unknown view {view[0]!r}")
    return columns


def read_seed_file(path) -> LabeledSet:
    """Read a file written by write_seed_file; MalformedFile names path:line.

    Blank lines are skipped.  The columns are read a column at a time.
    """
    return LabeledSet(_seed_columns(path, read_text(path).split("\n")))
