"""Seed examples for span classifiers, built from raw text alone.

The templates exploit branching bias: the whole sentence is a
constituent, and progressively shorter slices from one end are almost
always distituents.  Optional augmentations add capitalized runs and
text fragments delimited by '*' marks as extra constituents.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpus, MalformedFile, check_bool, check_int, read_text
from .treebank import Sentence, Span, token_runs

INSIDE = "inside"
OUTSIDE = "outside"
# a combined view used only by the concatenation baseline
CONCAT = "concat"

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
    """sentence_id, i, j, label, view as tab-separated columns."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(
                f"{ex.sentence_id}\t{ex.span.i}\t{ex.span.j}"
                f"\t{_LABEL_NAMES[ex.label]}\t{ex.view}\n"
            )


def read_seed_file(path) -> list[LabeledSpanExample]:
    """Read a file written by write_seed_file; MalformedFile names path:line."""
    out = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise MalformedFile(
                f"{path}:{lineno}: expected 5 columns, got {len(parts)}"
            )
        sid, i, j, label, view = parts
        if label not in _LABEL_VALUES:
            raise MalformedFile(f"{path}:{lineno}: unknown label {label!r}")
        try:
            out.append(
                LabeledSpanExample(
                    sentence_id=int(sid),
                    span=Span(int(i), int(j)),
                    label=_LABEL_VALUES[label],
                    view=view,
                )
            )
        except ValueError as exc:
            raise MalformedFile(f"{path}:{lineno}: {exc}") from exc
    return out
