"""Reading, normalizing and interrogating treebanks and raw text corpora.

Token indices are 0-based and spans are inclusive on both ends, so the
span (i, j) covers tokens x_i .. x_j.  Trees are immutable; every
transformation returns a new tree.
"""

from __future__ import annotations

import functools
import re
import warnings
from collections import Counter
from dataclasses import dataclass

from .errors import (
    AllTokensRemoved,
    EmptyCorpus,
    EmptyLabel,
    EmptyTree,
    UnbalancedBrackets,
    read_text,
)

# Preterminal tags treated as punctuation when cleaning gold trees.
PUNCT_TAGS = frozenset({",", ".", ":", "``", "''", "-LRB-", "-RRB-"})

# Preterminal tag of trace / null elements.
TRACE_TAG = "-NONE-"

# A bracket, or a run of anything else up to whitespace or a bracket.
# re's \s matches exactly the characters str.isspace accepts.
_SEXPR_TOKEN = re.compile(r"[()]|[^\s()]+")


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
            if not tok or any(ch.isspace() for ch in tok):
                raise ValueError(f"bad token {tok!r} in sentence {self.id}")

    def __len__(self):
        return len(self.tokens)


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
class TreeNode:
    """One node of an n-ary tree.

    Internal nodes carry a label and children; leaves carry the index of
    the token they cover.  A leaf's label is None when the source text
    put a bare token directly under a phrasal bracket.
    """

    label: str | None
    children: tuple["TreeNode", ...] = ()
    index: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if self.is_leaf:
            if self.children:
                raise ValueError("leaf node cannot have children")
        elif not self.children:
            raise ValueError(f"internal node {self.label!r} has no children")

    @property
    def is_leaf(self) -> bool:
        return self.index is not None

    @property
    def is_preterminal(self) -> bool:
        return (
            not self.is_leaf
            and len(self.children) == 1
            and self.children[0].is_leaf
        )


def leaf_indices(node: TreeNode) -> list[int]:
    """The token indices of the leaves under node, left to right."""
    out = []
    stack = [node]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            out.append(node.index)
        else:
            stack.extend(reversed(node.children))
    return out


@dataclass(frozen=True)
class GoldTree:
    """A parsed sentence: n-ary labeled tree over its tokens."""

    sentence: Sentence
    root: TreeNode

    def __post_init__(self):
        indices = leaf_indices(self.root)
        if indices != list(range(len(self.sentence))):
            raise ValueError(
                f"tree leaves {indices} do not cover sentence "
                f"{self.sentence.id} of length {len(self.sentence)}"
            )

    @functools.cached_property
    def labeled(self) -> tuple[tuple[str, Span], ...]:
        """labeled_spans of this tree.  The tree is immutable, so it is
        walked once, however many scores (the parse, each baseline, the
        oracle) an evaluation computes against it."""
        return tuple(labeled_spans(self))


def parse_bracketed(text: str, sentence_id: int = 0) -> GoldTree:
    """Parse one bracketed tree like ``(S (NP (DT the) (NN dog)) (VP ran))``.

    A PTB-style wrapper with an empty root label, ``( (S ...) )``, is
    unwrapped.  Raises UnbalancedBrackets / EmptyTree / EmptyLabel on
    malformed input.
    """
    toks = _SEXPR_TOKEN.findall(text)
    if not toks:
        raise EmptyTree("no tree in input")

    words: list[str] = []
    pos = 0

    def parse_node(depth: int) -> TreeNode:
        nonlocal pos
        if toks[pos] != "(":
            raise UnbalancedBrackets(f"expected '(' at token {pos}")
        pos += 1
        if pos >= len(toks):
            raise UnbalancedBrackets("input ends inside a bracket")
        label = ""
        if toks[pos] not in "()":
            label = toks[pos]
            pos += 1
        children: list[TreeNode] = []
        while pos < len(toks) and toks[pos] != ")":
            if toks[pos] == "(":
                children.append(parse_node(depth + 1))
            else:
                children.append(TreeNode(label=None, index=len(words)))
                words.append(toks[pos])
                pos += 1
        if pos >= len(toks):
            raise UnbalancedBrackets("missing ')'")
        pos += 1  # consume ')'
        if not children:
            raise EmptyTree(f"bracket {label!r} has no children")
        if not label:
            if depth == 0 and len(children) == 1 and not children[0].is_leaf:
                return children[0]
            raise EmptyLabel("node with empty label")
        return TreeNode(label=label, children=tuple(children))

    root = parse_node(0)
    if pos != len(toks):
        raise UnbalancedBrackets("trailing material after the tree")
    sent = Sentence(id=sentence_id, tokens=tuple(words))
    return GoldTree(sentence=sent, root=root)


def serialize(tree: GoldTree) -> str:
    """Canonical single-line bracketed form; inverse of parse_bracketed."""

    def render(node: TreeNode) -> str:
        if node.is_leaf:
            return tree.sentence.tokens[node.index]
        inner = " ".join(render(c) for c in node.children)
        return f"({node.label} {inner})"

    return render(tree.root)


def normalize(
    tree: GoldTree,
    punct_tags: frozenset[str] = PUNCT_TAGS,
    collapse_unary: bool = True,
) -> GoldTree:
    """Strip punctuation / traces, collapse unary chains, re-number tokens.

    Punctuation is recognized by preterminal tag; a bare leaf falls back
    to its own token so label-free trees behave sensibly.  Unary collapse
    keeps the topmost label of each chain.  Raises AllTokensRemoved if
    nothing survives.  Idempotent.
    """
    tokens = tree.sentence.tokens

    def prune(node: TreeNode) -> TreeNode | None:
        if node.is_leaf:
            if tokens[node.index] in punct_tags:
                return None
            return node
        if node.is_preterminal:
            tag = node.label
            if tag in punct_tags or tag == TRACE_TAG:
                return None
            return node
        new_children = [c for c in (prune(child) for child in node.children) if c]
        if not new_children:
            return None
        return TreeNode(label=node.label, children=tuple(new_children))

    def collapse(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            return node
        while len(node.children) == 1 and not node.children[0].is_leaf:
            node = TreeNode(label=node.label, children=node.children[0].children)
        return TreeNode(
            label=node.label,
            children=tuple(collapse(c) for c in node.children),
        )

    root = prune(tree.root)
    if root is None:
        raise AllTokensRemoved(f"sentence {tree.sentence.id}")
    if collapse_unary:
        root = collapse(root)

    old_indices = leaf_indices(root)
    renumber = {old: new for new, old in enumerate(old_indices)}
    kept_tokens = tuple(tokens[i] for i in old_indices)

    def rebuild(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            return TreeNode(label=None, index=renumber[node.index])
        return TreeNode(
            label=node.label, children=tuple(rebuild(c) for c in node.children)
        )

    sent = Sentence(id=tree.sentence.id, tokens=kept_tokens)
    return GoldTree(sentence=sent, root=rebuild(root))


def labeled_spans(tree: GoldTree) -> list[tuple[str, Span]]:
    """(label, span) for phrasal nodes, in pre-order, duplicates kept."""
    order: list[tuple[str, Span] | None] = []

    def walk(node: TreeNode) -> Span:
        if node.is_leaf:
            return Span(node.index, node.index)
        emit = not node.is_preterminal
        slot = len(order)
        if emit:
            order.append(None)  # reserve the pre-order position
        child_spans = [walk(c) for c in node.children]
        sp = Span(child_spans[0].i, child_spans[-1].j)
        if emit:
            order[slot] = (node.label, sp)
        return sp

    walk(tree.root)
    return order


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
        opens = Counter(sp.i for sp in self.spans)
        closes = Counter(sp.j for sp in self.spans)
        return " ".join(
            f"({label} " * opens[k] + tok + ")" * closes[k]
            for k, tok in enumerate(self.sentence.tokens)
        )


def binary_from_tree(tree: GoldTree) -> BinaryTree:
    """Interpret a parsed prediction as a binary bracketing."""
    n = len(tree.sentence)
    if n == 1:
        return BinaryTree(sentence=tree.sentence, spans=frozenset({Span(0, 0)}))
    spans = {sp for _, sp in labeled_spans(tree) if sp.length >= 2}
    spans.add(Span(0, n - 1))
    return BinaryTree(sentence=tree.sentence, spans=frozenset(spans))


def _split_balanced(text: str):
    """Split concatenated bracketed trees on top-level balance points."""
    depth = 0
    start = None
    for pos, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                start = pos
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UnbalancedBrackets(f"stray ')' at offset {pos}")
            if depth == 0:
                yield text[start : pos + 1]
                start = None
    if depth != 0:
        raise UnbalancedBrackets("unclosed '(' at end of input")


def read_treebank(path) -> list[GoldTree]:
    """Read a file of bracketed trees (trees may span multiple lines).

    Traces are dropped here so yields match raw-text conventions; a tree
    of nothing but traces is skipped with a warning.  Full normalization
    (punctuation, unary chains) is a separate step.  Ids are assigned
    0..N-1 over the kept trees.
    """
    return _parse_trees(read_text(path), path)


def _parse_trees(text: str, path) -> list[GoldTree]:
    trees: list[GoldTree] = []
    for chunk in _split_balanced(text):
        tree = parse_bracketed(chunk, sentence_id=len(trees))
        if TRACE_TAG not in chunk:
            # nothing to drop: normalize would rebuild the same tree
            trees.append(tree)
            continue
        try:
            tree = normalize(
                tree,
                punct_tags=frozenset(),
                collapse_unary=False,
            )
        except AllTokensRemoved:
            warnings.warn(f"tree {len(trees)} in {path} is all traces; skipped")
            continue
        trees.append(tree)
    if not trees:
        raise EmptyCorpus(str(path))
    return trees


def read_corpus(path) -> list[Sentence]:
    """Read sentences from plain text (one per line) or a treebank file.

    Bracketed input is detected by a leading '(' and read as in
    read_treebank, traces dropped; its sentences are the tree yields.
    Ids are assigned 0..N-1 in file order.
    """
    text = read_text(path)
    stripped = text.lstrip()
    if not stripped:
        raise EmptyCorpus(str(path))
    if stripped[0] == "(":
        return [tree.sentence for tree in _parse_trees(text, path)]
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
