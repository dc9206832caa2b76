"""Reading, normalizing and interrogating treebanks and raw text corpora.

Token indices are 0-based and spans are inclusive on both ends, so the
span (i, j) covers tokens x_i .. x_j.  A tree is flat: a GoldTree holds
its sentence and its brackets (label, i, j) in pre-order, the root
first.  Trees are immutable; every transformation returns a new tree.

No tree operation recurses.  A bracketed file is read in one pass over
one lazy stream of brackets and words, which skips only markup lines
(first and last characters other than white space '<' and '>') before
and between top-level trees.  normalize, labeled_spans and serialize
are flat passes over a tree's brackets, so a tree may nest deeper than
the interpreter's recursion limit.  GoldTree.codes keeps a tree's
labeled spans as the integer codes that evaluation counts: the code of
the span (i, j) of an n-token sentence is its chart cell, i * n + j.

One writer, bracketed, puts (label, i, j) brackets on a line of tokens
for serialize, BinaryTree.to_bracketed and parse, which writes each
decoded tree straight from its codes.  check_bracket_words refuses a
label or token that no bracketed line can hold, for synth and parse.

Whatever works a sentence length at a time (pool scoring, training
rows, parse) takes its fills from length_fills, under one cap.
"""

from __future__ import annotations

import functools
import itertools
import re
import warnings
from dataclasses import dataclass
from operator import itemgetter

from .errors import (
    AllTokensRemoved,
    EmptyCorpus,
    EmptyLabel,
    EmptyTree,
    TreeSyntaxError,
    UnbalancedBrackets,
    read_text,
)

# Preterminal tags treated as punctuation when cleaning gold trees.
PUNCT_TAGS = frozenset({",", ".", ":", "``", "''", "-LRB-", "-RRB-"})

# Preterminal tag of trace / null elements.
TRACE_TAG = "-NONE-"

# A word or label that the bracket writer can write and parse_bracketed
# read back: one or more characters, none of them white space or a
# bracket.  re's \s matches exactly the characters str.isspace accepts.
_BRACKET_WORD = re.compile(r"[^\s()]+")
# a UTF-16 surrogate code point, U+D800 to U+DFFF, alone in a str
_SURROGATE = re.compile(r"[\ud800-\udfff]")
# A bracket, or a bracket word.
_SEXPR_TOKEN = re.compile(r"[()]|" + _BRACKET_WORD.pattern)
# a token: one or more characters, none of them white space
_WORD = re.compile(r"\S+")
# A markup line's first and last characters other than white space are
# '<' and '>', as in CTB's <DOC>, <DOCID> CTB_001 </DOCID>, <S ID=1> and
# </S>, but not in <s> dog runs.  _MARKUP matches one from its '<', and
# _MARKUP_LINE from the start of the line.
_MARKUP = r"<[^\n]*>[^\S\n]*(?=\n|\Z)"
_MARKUP_LINE = re.compile(r"[^\S\n]*" + _MARKUP)
# white space and markup lines before a treebank's first tree
_TREEBANK_HEAD = re.compile(rf"(?:\s*{_MARKUP})*\s*")


@dataclass(frozen=True)
class Sentence:
    """A tokenized sentence with a corpus-unique id."""

    id: int
    tokens: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError(f"sentence {self.id} has no tokens")
        for tok in self.tokens:
            if not _WORD.fullmatch(tok):
                raise ValueError(f"bad token {tok!r} in sentence {self.id}")

    def __len__(self):
        return len(self.tokens)


# the most chart cells (n * n for an n-token sentence) one fill of
# length_fills holds, with one sentence at least
FILL_CELLS = 1 << 16


def length_fills(sentences):
    """Yield (n, positions): the positions in sentences of up to
    FILL_CELLS // n² sentences of n tokens, one at least, in input order.

    The lengths come in order of each length's first sentence, and each
    length's sentences are cut into fills in input order, so whatever
    stacks a fill's charts holds at most FILL_CELLS cells of them at once.
    """
    groups: dict[int, list[int]] = {}
    for pos, sentence in enumerate(sentences):
        groups.setdefault(len(sentence), []).append(pos)
    for n, positions in groups.items():
        size = max(1, FILL_CELLS // (n * n))
        for start in range(0, len(positions), size):
            yield n, positions[start : start + size]


@dataclass(frozen=True, order=True)
class Span:
    """Inclusive token interval i..j within one sentence."""

    i: int
    j: int

    def __post_init__(self):
        if self.i < 0 or self.j < self.i:
            raise ValueError(f"invalid span ({self.i}, {self.j})")

    @property
    def length(self) -> int:
        return self.j - self.i + 1


@dataclass(frozen=True)
class GoldTree:
    """A parsed sentence: its labeled brackets, flat, in pre-order.

    Each bracket is (label, i, j) over tokens i..j.  The root comes
    first and covers the whole sentence, and each later bracket lies
    inside the last bracket before it that is still open.  A bracket
    over one token with no bracket inside it is a preterminal, whose
    label tags that token; a token under no preterminal is a bare word.
    """

    sentence: Sentence
    brackets: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        n = len(self.sentence)
        if not self.brackets or self.brackets[0][1:] != (0, n - 1):
            raise ValueError(
                f"tree root does not cover sentence {self.sentence.id} of length {n}"
            )
        spans = [(0, n - 1)]  # the open brackets' spans, innermost last
        for label, i, j in self.brackets[1:]:
            while spans[-1][1] < i and len(spans) > 1:
                spans.pop()
            first, last = spans[-1]
            if not first <= i <= j <= last:
                raise ValueError(
                    f"bracket {label!r} ({i}, {j}) of sentence {self.sentence.id} "
                    f"does not nest in ({first}, {last})"
                )
            spans.append((i, j))

    @functools.cached_property
    def codes(self) -> tuple[tuple[str, int], ...]:
        """(label, i * n + j) for each span (i, j) of labeled_spans that
        covers two or more tokens, in pre-order.  The tree is immutable,
        so it is read once, however many scores (the parse, each
        baseline, the oracle) an evaluation computes against it."""
        n = len(self.sentence)
        return tuple((label, sp.i * n + sp.j) for label, sp in labeled_spans(self) if sp.j > sp.i)


def _tokens(text: str):
    """The brackets and words of text, lazily, in order."""
    return map(itemgetter(0), _SEXPR_TOKEN.finditer(text))


def _read_tree(toks, sentence_id: int) -> GoldTree:
    """The tree whose opening '(' toks has just yielded, through its ')'.

    A PTB-style wrapper with an empty label, ``( (S ...) )``, is unwrapped.
    """
    words: list[str] = []
    brackets: list = [0]  # an open bracket's slot holds its first word's index
    outer: list[tuple[int, str]] = []  # the enclosing open brackets' (slot, label)
    slot, label = 0, ""
    for tok in toks:
        if tok == "(":
            outer.append((slot, label))
            slot, label = len(brackets), ""
            brackets.append(len(words))
        elif tok == ")":
            first = brackets[slot]
            if first == len(words):
                raise EmptyTree(f"bracket {label!r} has no children")
            if label:
                brackets[slot] = (label, first, len(words) - 1)
            # a wrapper opens with a bracket, which must hold all its words
            elif outer or brackets[1][1:] != (0, len(words) - 1):
                raise EmptyLabel("node with empty label")
            else:
                del brackets[0]  # a PTB-style wrapper
            if not outer:
                sentence = Sentence(id=sentence_id, tokens=words)
                return GoldTree(sentence=sentence, brackets=tuple(brackets))
            slot, label = outer.pop()
        elif label or len(words) > brackets[slot]:
            words.append(tok)
        else:
            label = tok
    raise UnbalancedBrackets("unclosed '(' at end of input")


def parse_bracketed(text: str, sentence_id: int = 0) -> GoldTree:
    """Parse one bracketed tree like ``(S (NP (DT the) (NN dog)) (VP ran))``.

    A PTB-style wrapper with an empty root label, ``( (S ...) )``, is
    unwrapped.  Raises UnbalancedBrackets / EmptyTree / EmptyLabel on
    malformed input.
    """
    toks = _tokens(text)
    first = next(toks, None)
    if first is None:
        raise EmptyTree("no tree in input")
    if first != "(":
        raise UnbalancedBrackets("expected '(' at token 0")
    tree = _read_tree(toks, sentence_id)
    if next(toks, None) is not None:
        raise UnbalancedBrackets("trailing material after the tree")
    return tree


def bracketed(tokens, brackets) -> str:
    """tokens under brackets (label, i, j) on one line; the brackets that
    open at one token are written in the order given, outermost first."""
    opens = [""] * len(tokens)  # the brackets opening at each token, in order
    closes = [0] * len(tokens)
    for label, i, j in brackets:
        opens[i] += f"({label} "
        closes[j] += 1
    return " ".join(o + tok + ")" * c for o, tok, c in zip(opens, tokens, closes))


def check_bracket_words(words, what: str) -> None:
    """Raise ValueError, naming what and the word, at the first of words
    that is empty or holds white space, '(' or ')', which no bracketed
    line can hold as one word, or a lone surrogate, which no UTF-8 file
    can hold."""
    for word in words:
        if not _BRACKET_WORD.fullmatch(word):
            raise ValueError(
                f"{what} {word!r} cannot be bracketed: it is empty or holds "
                "white space, '(' or ')'"
            )
        if _SURROGATE.search(word):
            raise ValueError(f"{what} {word!r} holds a lone surrogate, which UTF-8 cannot encode")


def serialize(tree: GoldTree) -> str:
    """Canonical single-line bracketed form; inverse of parse_bracketed."""
    return bracketed(tree.sentence.tokens, tree.brackets)


def _preterminals(tree: GoldTree) -> list[bool]:
    """Whether each bracket is a preterminal: one token, no bracket inside."""
    after = [i for _, i, _ in tree.brackets[1:]] + [len(tree.sentence)]
    return [i == j < nxt for (_, i, j), nxt in zip(tree.brackets, after)]


def normalize(
    tree: GoldTree,
    punct_tags: frozenset[str] = PUNCT_TAGS,
    collapse_unary: bool = True,
) -> GoldTree:
    """Strip punctuation / traces, collapse unary chains, re-number tokens.

    Punctuation is recognized by preterminal tag; a bare word falls back
    to its own token so label-free trees behave sensibly.  A bracket
    left with no token is dropped, and unary collapse drops each bracket
    over the same tokens as its nearest kept ancestor, so a chain keeps
    its topmost label.  Raises AllTokensRemoved if nothing survives.
    Idempotent.
    """
    tokens = tree.sentence.tokens
    pruned = punct_tags | {TRACE_TAG}
    tags = {
        i: label
        for (label, i, _), pre in zip(tree.brackets, _preterminals(tree))
        if pre
    }
    keep = [
        tags[k] not in pruned if k in tags else tok not in punct_tags
        for k, tok in enumerate(tokens)
    ]
    new = list(itertools.accumulate(keep, initial=0))  # kept tokens before each
    if not new[-1]:
        raise AllTokensRemoved(f"sentence {tree.sentence.id}")
    brackets = []
    ancestors: list[tuple[int, tuple[int, int]]] = []  # kept: (old j, new span)
    for label, i, j in tree.brackets:
        span = (new[i], new[j + 1] - 1)
        while ancestors and ancestors[-1][0] < i:
            ancestors.pop()
        unary = collapse_unary and ancestors and ancestors[-1][1] == span
        if span[1] < span[0] or unary:
            continue
        brackets.append((label, *span))
        ancestors.append((j, span))
    sentence = Sentence(id=tree.sentence.id, tokens=itertools.compress(tokens, keep))
    return GoldTree(sentence=sentence, brackets=tuple(brackets))


def labeled_spans(tree: GoldTree) -> list[tuple[str, Span]]:
    """(label, span) for phrasal brackets, in pre-order, duplicates kept."""
    return [
        (label, Span(i, j))
        for (label, i, j), pre in zip(tree.brackets, _preterminals(tree))
        if not pre
    ]


def token_runs(tokens, keep, min_len: int = 2) -> list[Span]:
    """Maximal runs of at least min_len consecutive tokens that keep accepts."""
    runs = []
    start = 0
    for pos, tok in enumerate(tokens):
        if not keep(tok):
            if pos - start >= min_len:
                runs.append(Span(start, pos - 1))
            start = pos + 1
    if len(tokens) - start >= min_len:
        runs.append(Span(start, len(tokens) - 1))
    return runs


@dataclass(frozen=True)
class BinaryTree:
    """An unlabeled binary bracketing of a sentence.

    ``spans`` holds the spans of length >= 2 (n-1 of them for a sentence
    of n >= 2 tokens, whole-sentence span included).  Single tokens are
    implicit, except that a one-token sentence is represented by the
    span (0, 0).
    """

    sentence: Sentence
    spans: frozenset[Span]

    def __post_init__(self):
        object.__setattr__(self, "spans", frozenset(self.spans))
        n = len(self.sentence)
        if n == 1:
            if self.spans != frozenset({Span(0, 0)}):
                raise ValueError("one-token tree must be {(0, 0)}")
            return
        if Span(0, n - 1) not in self.spans:
            raise ValueError("missing whole-sentence span")
        if any(sp.length < 2 for sp in self.spans):
            raise ValueError("single-token spans are implicit")
        if len(self.spans) != n - 1:
            raise ValueError(
                f"expected {n - 1} spans for {n} tokens, got {sorted(self.spans)}"
            )
        # n-1 nested spans of length >= 2 under the whole-sentence span
        # form a tree in which every node has two children
        enclosing = [Span(0, n - 1)]
        for sp in sorted(self.spans, key=lambda s: (s.i, -s.j)):
            if sp.j >= n:
                raise ValueError(f"span {sp} exceeds sentence length {n}")
            while enclosing[-1].j < sp.i:
                enclosing.pop()
            if sp.j > enclosing[-1].j:
                raise ValueError(f"span {sp} crosses {enclosing[-1]}")
            enclosing.append(sp)

    def to_bracketed(self, label: str = "X") -> str:
        return bracketed(self.sentence.tokens, [(label, sp.i, sp.j) for sp in self.spans])


def binary_from_tree(tree: GoldTree) -> BinaryTree:
    """Interpret a parsed prediction as a binary bracketing."""
    n = len(tree.sentence)
    spans = {Span(*divmod(code, n)) for _, code in tree.codes} | {Span(0, n - 1)}
    return BinaryTree(sentence=tree.sentence, spans=spans)


def read_treebank(path) -> list[GoldTree]:
    """Read a file of bracketed trees (trees may span multiple lines).

    A treebank opens with '(' once leading markup lines (those whose
    first and last characters other than white space are '<' and '>')
    are skipped, the rule by which read_corpus tells one from plain
    text, so any other word before the first tree is a TreeSyntaxError.
    Between top-level trees, markup lines are skipped and any other word
    is a TreeSyntaxError naming it and the tree before it.  Traces
    are dropped here so yields match raw-text conventions; a tree of
    nothing but traces is skipped with a warning.  Full normalization
    (punctuation, unary chains) is a separate step.  Ids are assigned
    0..N-1 over the kept trees.  A TreeSyntaxError names the path and
    the tree, counted from 1 over the file's top-level brackets.
    """
    text = read_text(path)
    return _read_trees(text[_TREEBANK_HEAD.match(text).end() :], path)


def _read_trees(text: str, path) -> list[GoldTree]:
    # without a trace anywhere, normalize would rebuild each tree unchanged
    traces = TRACE_TAG in text
    trees: list[GoldTree] = []
    matches = _SEXPR_TOKEN.finditer(text)
    # _read_tree takes the words of each tree from the same stream
    toks = map(itemgetter(0), matches)
    count = 0
    markup_end = 0  # the end of the last markup line found between trees
    try:
        for match in matches:
            tok = match[0]
            if tok not in "()":  # a word between trees
                if not count:
                    raise TreeSyntaxError(f"word {tok!r} before the first tree")
                if match.start() >= markup_end:
                    line = text.rfind("\n", 0, match.start()) + 1
                    markup = _MARKUP_LINE.match(text, line)
                    if not markup:
                        raise TreeSyntaxError(f"word {tok!r} after the tree")
                    markup_end = markup.end()
                continue
            count += 1
            if tok == ")":
                raise UnbalancedBrackets("stray ')' where a tree should open")
            tree = _read_tree(toks, len(trees))
            if traces:
                try:
                    tree = normalize(tree, punct_tags=frozenset(), collapse_unary=False)
                except AllTokensRemoved:
                    warnings.warn(f"tree {len(trees)} in {path} is all traces; skipped")
                    continue
            trees.append(tree)
    except TreeSyntaxError as exc:
        where = f"tree {count}: " if count else ""
        raise type(exc)(f"{path}: {where}{exc}") from exc
    if not trees:
        raise EmptyCorpus(str(path))
    return trees


def read_corpus(path) -> list[Sentence]:
    """Read sentences from plain text (one per line) or a treebank file.

    A file whose first character other than white space, past any
    leading markup lines, is '(' is a treebank, read as in read_treebank,
    traces dropped; its sentences are the tree yields.  Any other file
    is plain text, which read_treebank refuses.
    Ids are assigned 0..N-1 in file order.
    """
    text = read_text(path)
    start = _TREEBANK_HEAD.match(text).end()
    if text.startswith("(", start):
        return [tree.sentence for tree in _read_trees(text[start:], path)]
    sentences: list[Sentence] = []
    for line in text.splitlines():
        tokens = tuple(line.split())
        if tokens:
            sentences.append(Sentence(id=len(sentences), tokens=tokens))
    if not sentences:
        raise EmptyCorpus(str(path))
    return sentences


def write_corpus(sentences, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            fh.write(" ".join(sent.tokens))
            fh.write("\n")
