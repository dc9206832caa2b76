from __future__ import annotations

import itertools
import sys
import warnings
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootparse import treebank
from bootparse.decoder import enumerate_trees
from bootparse.errors import (
    AllTokensRemoved,
    EmptyCorpus,
    EmptyLabel,
    EmptyTree,
    TreeSyntaxError,
    UnbalancedBrackets,
)
from bootparse.treebank import (
    _SEXPR_TOKEN,
    _TREEBANK_HEAD,
    FILL_CELLS,
    PUNCT_TAGS,
    TRACE_TAG,
    BinaryTree,
    GoldTree,
    Sentence,
    Span,
    binary_from_tree,
    labeled_spans,
    length_fills,
    normalize,
    parse_bracketed,
    read_corpus,
    read_treebank,
    serialize,
    token_runs,
)

DOG = "(S (NP (DT the) (NN dog)) (VP (VBD ran)))"
DOG_BRACKETS = (
    ("S", 0, 2), ("NP", 0, 1), ("DT", 0, 0), ("NN", 1, 1), ("VP", 2, 2), ("VBD", 2, 2)
)


def test_parse_simple():
    tree = parse_bracketed(DOG)
    assert tree.sentence.tokens == ("the", "dog", "ran")
    assert tree.brackets == DOG_BRACKETS


def test_parse_wrapped_root():
    tree = parse_bracketed("( (S (NP (DT the) (NN dog)) (VP (VBD ran))) )")
    assert tree.brackets == DOG_BRACKETS
    assert tree.sentence.tokens == ("the", "dog", "ran")


@pytest.mark.parametrize(
    "brackets",
    [
        (),  # no root
        (("S", 0, 1),),  # a root short of the sentence
        (("S", 0, 2), ("A", 0, 1), ("B", 1, 2)),  # crossing brackets
        (("S", 0, 2), ("A", 1, 2), ("B", 0, 0)),  # out of pre-order
        (("S", 0, 2), ("A", 2, 3)),  # past the root
        (("S", 0, 2), ("A", 1, 0)),  # over no token
    ],
)
def test_gold_tree_brackets_nest_under_one_root(brackets):
    with pytest.raises(ValueError):
        GoldTree(sentence=Sentence(id=0, tokens=("a", "b", "c")), brackets=brackets)


def test_deep_tree_compares_hashes_and_prints():
    # a right-branching tree of 1,200 tokens, 1,199 brackets deep
    n = 1200
    text = "".join(f"(S w{k} " for k in range(n - 1)) + f"w{n - 1}" + ")" * (n - 1)
    a, b = parse_bracketed(text), parse_bracketed(text)
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert serialize(a) == text


def test_sentence_refuses_white_space_in_a_token():
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    for bad in ["", *(tok for ch in spaces for tok in (ch, "a" + ch, ch + "b"))]:
        with pytest.raises(ValueError) as info:
            Sentence(id=3, tokens=("ok", bad, bad + " "))
        assert str(info.value) == f"bad token {bad!r} in sentence 3"
    # every other code point is a token of its own
    others = [chr(c) for c in range(sys.maxunicode + 1) if not chr(c).isspace()]
    assert len(Sentence(id=4, tokens=others)) == len(others)


def test_parse_bare_terminals():
    tree = parse_bracketed("(S (NP the dog) ran)")
    assert tree.sentence.tokens == ("the", "dog", "ran")
    assert [lbl for lbl, _ in labeled_spans(tree)] == ["S", "NP"]


@pytest.mark.parametrize(
    "text,exc",
    [
        ("(S (NP the", UnbalancedBrackets),
        ("(S the) )", UnbalancedBrackets),
        ("(S the) extra", UnbalancedBrackets),
        ("", EmptyTree),
        ("()", EmptyTree),
        ("(S)", EmptyTree),
        ("((S a) (S b))", EmptyLabel),
        ("(S a ((NP b) (VP c)))", EmptyLabel),
        ("(S a ( b))", EmptyTree),
    ],
)
def test_parse_errors(text, exc):
    with pytest.raises(exc):
        parse_bracketed(text)


def test_serialize_round_trip():
    tree = parse_bracketed(DOG)
    assert serialize(tree) == DOG
    assert serialize(parse_bracketed(serialize(tree))) == DOG


def test_normalize_drops_punct_and_collapses():
    tree = parse_bracketed("(S (NP (DT the) (NN dog)) (VP (VBD ran)) (. .))")
    out = normalize(tree)
    assert out.sentence.tokens == ("the", "dog", "ran")
    spans = {sp for _, sp in labeled_spans(out)}
    assert Span(0, 1) in spans
    # VP -> VBD chain collapsed into a preterminal keeping the top label
    assert serialize(out) == "(S (NP (DT the) (NN dog)) (VP ran))"


def test_normalize_removes_traces_and_renumbers():
    tree = parse_bracketed(
        "(S (NP-SBJ (-NONE- *T*-1)) (VP (VBD fell) (NP (CD 5) (NN %))))"
    )
    out = normalize(tree)
    assert out.sentence.tokens == ("fell", "5", "%")
    assert {sp for _, sp in labeled_spans(out)} == {Span(0, 2), Span(1, 2)}


def test_normalize_all_removed():
    with pytest.raises(AllTokensRemoved):
        normalize(parse_bracketed("(S (. .) (, ,))"))


def test_normalize_idempotent():
    tree = parse_bracketed(
        "(S (NP (NP (DT the) (JJ old) (NN dog))) (VP (VBD ran) (PRT (RP up))) (. .))"
    )
    once = normalize(tree)
    twice = normalize(once)
    assert serialize(once) == serialize(twice)
    assert once == twice


def test_labeled_spans_keeps_duplicates():
    tree = parse_bracketed("(S (NP (NP (DT the) (NN dog))) (VP ran))")
    pairs = labeled_spans(tree)
    assert pairs.count(("NP", Span(0, 1))) == 2


def test_binary_tree_validation():
    sent = Sentence(id=0, tokens=("a", "b", "c"))
    BinaryTree(sentence=sent, spans=frozenset({Span(0, 2), Span(0, 1)}))
    with pytest.raises(ValueError):
        BinaryTree(sentence=sent, spans=frozenset({Span(0, 2)}))
    with pytest.raises(ValueError):
        # crossing spans, no consistent splits
        BinaryTree(
            sentence=Sentence(id=0, tokens=("a", "b", "c", "d")),
            spans=frozenset({Span(0, 3), Span(0, 2), Span(1, 3)}),
        )


def test_binary_tree_bracketed_output():
    sent = Sentence(id=0, tokens=("w1", "w2", "w3"))
    tree = BinaryTree(sentence=sent, spans=frozenset({Span(0, 2), Span(0, 1)}))
    assert tree.to_bracketed() == "(X (X w1 w2) w3)"
    one = BinaryTree(
        sentence=Sentence(id=1, tokens=("hi",)), spans=frozenset({Span(0, 0)})
    )
    assert one.to_bracketed() == "(X hi)"


def test_binary_round_trip_through_text():
    sent = Sentence(id=0, tokens=("a", "b", "c", "d"))
    tree = BinaryTree(
        sentence=sent, spans=frozenset({Span(0, 3), Span(1, 3), Span(2, 3)})
    )
    back = binary_from_tree(parse_bracketed(tree.to_bracketed()))
    assert back.spans == tree.spans


# reference: each span must have exactly one split point k with (i, k)
# and (k+1, j) both constituents or single tokens


def _split_point(spans, sp):
    found = None
    for k in range(sp.i, sp.j):
        left_ok = k == sp.i or Span(sp.i, k) in spans
        right_ok = k + 1 == sp.j or Span(k + 1, sp.j) in spans
        if left_ok and right_ok:
            if found is not None:
                return None
            found = k
    return found


def _reference_accepts(n, spans):
    if n == 1:
        return spans == frozenset({Span(0, 0)})
    return (
        Span(0, n - 1) in spans
        and all(sp.length >= 2 for sp in spans)
        and len(spans) == n - 1
        and all(sp.j < n and _split_point(spans, sp) is not None for sp in spans)
    )


def _reference_bracketed(tokens, spans, label):
    def render(i, j):
        if i == j:
            return tokens[i]
        k = _split_point(spans, Span(i, j))
        return f"({label} {render(i, k)} {render(k + 1, j)})"

    if len(tokens) == 1:
        return f"({label} {tokens[0]})"
    return render(0, len(tokens) - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_binary_tree_check_matches_split_point_reference(n):
    sent = Sentence(id=0, tokens=tuple(f"w{k}" for k in range(n)))
    # spans may reach one token past the end of the sentence
    candidates = [Span(i, j) for i in range(n + 1) for j in range(i, n + 1)]
    accepted = 0
    for size in range(n + 1):
        for combo in itertools.combinations(candidates, size):
            spans = frozenset(combo)
            try:
                BinaryTree(sentence=sent, spans=spans)
                ok = True
            except ValueError:
                ok = False
            assert ok == _reference_accepts(n, spans), sorted(spans)
            accepted += ok
    # Catalan(n - 1) bracketings
    assert accepted == len(enumerate_trees(n))


@pytest.mark.parametrize("n", range(1, 10))
def test_to_bracketed_matches_recursive_reference(n):
    tokens = tuple(f"w{k}" for k in range(n))
    sent = Sentence(id=0, tokens=tokens)
    for spans in enumerate_trees(n):
        tree = BinaryTree(sentence=sent, spans=spans)
        for label in ("X", "NP"):
            assert tree.to_bracketed(label) == _reference_bracketed(
                tokens, spans, label
            )


def _runs_reference(tokens, keep, min_len):
    runs = []
    pos = 0
    for kept, group in itertools.groupby(tokens, key=lambda tok: bool(keep(tok))):
        length = len(list(group))
        if kept and length >= min_len:
            runs.append(Span(pos, pos + length - 1))
        pos += length
    return runs


_RUN_PREDICATES = {
    "not_star": lambda tok: tok != "*",
    "isupper": lambda tok: tok[:1].isupper(),
    "ascii_cased": lambda tok: "A" <= tok[:1] <= "Z",
}


@pytest.mark.parametrize("cells", [FILL_CELLS, 100])
def test_length_fills_cut_each_length_in_input_order(monkeypatch, cells):
    # lengths whose fills hold many sentences, a few, exactly one
    # (n² = 256² = 2¹⁶) and one though n² is above the cap
    monkeypatch.setattr(treebank, "FILL_CELLS", cells)
    lengths = [3, 300, 1, 40, 3, 256, 100, 3] * 60 + [1] * 250 + [3]
    sentences = [("w",) * n for n in lengths]
    fills = list(length_fills(sentences))
    order = list(dict.fromkeys(n for n, _ in fills))
    assert order == list(dict.fromkeys(lengths))
    # each length's fills come together, cut from its positions in order,
    # every fill full but the last
    assert [n for n, _ in fills] == sorted((n for n, _ in fills), key=order.index)
    for length in order:
        cuts = [positions for n, positions in fills if n == length]
        size = max(1, cells // length**2)
        assert sum(cuts, []) == [pos for pos, n in enumerate(lengths) if n == length]
        assert all(len(positions) == size for positions in cuts[:-1])
        assert 1 <= len(cuts[-1]) <= size
    assert list(length_fills([])) == []


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from(["Über", "*", "X'", "the", "New", "a", "ÉTÉ"]), max_size=12
    ),
    st.sampled_from(sorted(_RUN_PREDICATES)),
    st.integers(min_value=1, max_value=3),
)
def test_token_runs_matches_groupby(tokens, predicate, min_len):
    keep = _RUN_PREDICATES[predicate]
    assert token_runs(tokens, keep, min_len) == _runs_reference(tokens, keep, min_len)



def _tokenize_reference(text: str) -> list[str]:
    """The character loop that tokenized bracketed text before the regex."""
    out: list[str] = []
    cur: list[str] = []
    for ch in text:
        if ch in "()":
            if cur:
                out.append("".join(cur))
                cur = []
            out.append(ch)
        elif ch.isspace():
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["(", ")", "NP", "dog", "é", "x=y", " ", "\t", "\n", "\x1c", "\x85",
             "\xa0", "\u2028", "\u3000", "\u200b"]
        )
        | st.characters(),
        max_size=20,
    ).map("".join)
)
def test_sexpr_regex_matches_character_loop(text):
    assert _SEXPR_TOKEN.findall(text) == _tokenize_reference(text)


def test_read_corpus_plain(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text("the dog ran .\n\nanother sentence here\n")
    sents = read_corpus(p)
    assert [s.tokens for s in sents] == [
        ("the", "dog", "ran", "."),
        ("another", "sentence", "here"),
    ]
    assert [s.id for s in sents] == [0, 1]


def test_read_corpus_bracketed(tmp_path):
    p = tmp_path / "trees.mrg"
    p.write_text(
        "( (S (NP (DT the) (NN dog))\n     (VP (VBD ran)) (. .)) )\n"
        "(S (NP (NNP Ed)) (VP (VBZ naps)))\n"
    )
    sents = read_corpus(p)
    assert sents[0].tokens == ("the", "dog", "ran", ".")
    assert sents[1].tokens == ("Ed", "naps")


def test_read_corpus_empty(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("\n  \n")
    with pytest.raises(EmptyCorpus):
        read_corpus(p)


@pytest.mark.parametrize(
    "text", ["junk (S a)", "  junk\n(S a)\n", "junk", "<S ID=1>\njunk (S a)\n"]
)
def test_both_readers_take_a_treebank_to_open_with_bracket(tmp_path, text):
    # read_corpus reads a file that does not open with '(', past markup
    # lines, as plain text, so read_treebank refuses it rather than skip
    # the words to a tree
    p = tmp_path / "mixed.txt"
    p.write_text(text)
    lines = [tuple(line.split()) for line in text.splitlines() if line.strip()]
    assert [s.tokens for s in read_corpus(p)] == lines
    with pytest.raises(TreeSyntaxError) as info:
        read_treebank(p)
    assert str(info.value) == f"{p}: word 'junk' before the first tree"
    # a word after the first tree, off a markup line, is refused by both
    p.write_text(f"{DOG} junk (S a)")
    for reader in (read_corpus, read_treebank):
        with pytest.raises(TreeSyntaxError) as info:
            reader(p)
        assert str(info.value) == f"{p}: tree 1: word 'junk' after the tree"


@pytest.mark.parametrize(
    "text, tree, word",
    [
        ("(X a b)\nthe cat sleeps\n(Y c d)\n", 1, "the"),
        ("(X a b)\n(Y c d)\n  cat <S>\n(Z e)\n", 2, "cat"),
        ("(X a b) </S>\n(Y c d)\n", 1, "</S>"),
        ("(X a b)\n(Y c d)\ntail\n", 2, "tail"),
    ],
    ids=["line", "word_then_markup", "markup_after_tree", "last"],
)
def test_words_between_trees_are_refused(tmp_path, text, tree, word):
    # only a markup line, whose first character other than white space is
    # '<', may stand between trees; any other word names the tree before it
    p = tmp_path / "gold.txt"
    p.write_text(text)
    for reader in (read_corpus, read_treebank):
        with pytest.raises(TreeSyntaxError) as info:
            reader(p)
        assert str(info.value) == f"{p}: tree {tree}: word {word!r} after the tree"


@pytest.mark.parametrize(
    "line, markup",
    [("<DOC>", True), ("<DOCID> CTB_001 </DOCID>", True), ("  <S ID=1> ", True),
     ("</S>", True), ("<s> dog runs", False), ("<s>", True), ("dog <s>", False)],
)
def test_markup_line_opens_with_angle_and_closes_with_angle(tmp_path, line, markup):
    # a markup line's first and last characters other than white space
    # are '<' and '>'; both readers skip it before and between trees, and
    # take any other line that opens with '<' as words
    p = tmp_path / "in.txt"
    p.write_text(f"{line}\n(X a b)\n")
    if markup:
        assert [s.tokens for s in read_corpus(p)] == [("a", "b")]
        assert [t.sentence.tokens for t in read_treebank(p)] == [("a", "b")]
    else:
        assert [s.tokens for s in read_corpus(p)] == [tuple(line.split()), ("(X", "a", "b)")]
        with pytest.raises(TreeSyntaxError) as info:
            read_treebank(p)
        assert str(info.value) == f"{p}: word {line.split()[0]!r} before the first tree"
    p.write_text(f"(X a b)\n{line}\n(Y c)\n")
    for reader in (read_corpus, read_treebank):
        if markup:
            assert len(reader(p)) == 2
        else:
            with pytest.raises(TreeSyntaxError) as info:
                reader(p)
            assert str(info.value) == f"{p}: tree 1: word {line.split()[0]!r} after the tree"


CTB_HEAD = "<DOC>\n<DOCID> CTB_001 </DOCID>\n  <S ID=1>\n"


@pytest.mark.parametrize(
    "head", ["\ufeff", CTB_HEAD, "\ufeff" + CTB_HEAD, "\n \n"],
    ids=["bom", "markup", "bom_markup", "blank"],
)
def test_both_readers_skip_bom_and_leading_markup(tmp_path, head):
    # a byte order mark and markup lines before the first tree are skipped
    # by both readers, and so are markup lines between trees, indented or not
    p = tmp_path / "gold.txt"
    p.write_text(
        f"{head}{DOG}\n</S>\n  <S ID=2>\n(S a)\n\t</S>\n</DOC>\n", encoding="utf-8"
    )
    want = [("the", "dog", "ran"), ("a",)]
    assert [t.sentence.tokens for t in read_treebank(p)] == want
    assert [s.tokens for s in read_corpus(p)] == want


def test_plain_text_drops_byte_order_mark(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text("\ufeff<b> the dog\nran\n", encoding="utf-8")
    assert [s.tokens for s in read_corpus(p)] == [("<b>", "the", "dog"), ("ran",)]


def test_read_treebank(tmp_path):
    p = tmp_path / "gold.mrg"
    p.write_text(f"{DOG}\n{DOG}\n")
    trees = read_treebank(p)
    assert len(trees) == 2
    assert trees[1].sentence.id == 1
    assert trees[1].sentence.tokens == ("the", "dog", "ran")


MIXED_TREES = [
    DOG,
    "( (S (NP-SBJ (-NONE- *T*-1)) (VP (VBD fell) (NP (CD 5) (NN %)))) )",
    "(S (-NONE- *) (-NONE- *?*))",  # all traces: skipped
    "(S (X (A a b) c) (. .))",
    "(S (NN -NONE-) (VP (VB x) (-NONE- *U*)))",
    "(S (NP (NNP Ed) (-NONE- 0)) (VP (VBZ naps)))",
    "(S c d)",
]


def test_read_treebank_mixed_traces_matches_normalize(tmp_path):
    p = tmp_path / "gold.mrg"
    p.write_text("\n".join(MIXED_TREES) + "\n")
    want = []
    for text in MIXED_TREES:
        tree = parse_bracketed(text, sentence_id=len(want))
        try:
            want.append(normalize(tree, punct_tags=frozenset(), collapse_unary=False))
        except AllTokensRemoved:
            pass
    with pytest.warns(UserWarning, match="all traces"):
        got = read_treebank(p)
    assert got == want
    assert [t.sentence.id for t in got] == list(range(6))
    assert got[1].sentence.tokens == ("fell", "5", "%")
    assert got[3].sentence.tokens == ("-NONE-", "x")


# property: parse . serialize round-trips on random trees

_token = st.text(alphabet="abcdef'-", min_size=1, max_size=4).filter(
    lambda s: s not in ("(", ")")
)
_label = st.sampled_from(["S", "NP", "VP", "PP", "X", "ADJP"])


def _tree_strategy():
    return st.recursive(
        st.tuples(_label, st.lists(_token, min_size=1, max_size=3)).map(
            lambda t: "(" + t[0] + " " + " ".join(t[1]) + ")"
        ),
        lambda children: st.tuples(
            _label, st.lists(children, min_size=1, max_size=3)
        ).map(lambda t: "(" + t[0] + " " + " ".join(t[1]) + ")"),
        max_leaves=8,
    )


@settings(max_examples=60, deadline=None)
@given(_tree_strategy())
def test_parse_serialize_round_trip_property(text):
    tree = parse_bracketed(text)
    again = parse_bracketed(serialize(tree))
    assert serialize(again) == serialize(tree)
    assert again.sentence.tokens == tree.sentence.tokens


@settings(max_examples=60, deadline=None)
@given(_tree_strategy())
def test_normalize_idempotent_property(text):
    tree = parse_bracketed(text)
    try:
        once = normalize(tree)
    except AllTokensRemoved:
        return
    assert normalize(once) == once


# references: the reader and normalize as they were while leaves were
# nodes carrying their token index.  Files were first split into
# top-level chunks by a character loop, then each chunk was parsed;
# normalize pruned, collapsed and renumbered in three walks.


class _RefNode(NamedTuple):
    label: str | None
    children: tuple = ()
    index: int | None = None

    @property
    def is_leaf(self):
        return self.index is not None

    @property
    def is_preterminal(self):
        return not self.is_leaf and len(self.children) == 1 and self.children[0].is_leaf


def _ref_leaves(node):
    if node.is_leaf:
        return [node.index]
    return [k for c in node.children for k in _ref_leaves(c)]


def _ref_split_balanced(text):
    """The top-level bracketed chunks of text; between them only white
    space and markup lines (first character other than white space '<')."""
    depth = 0
    start = None
    for pos, ch in enumerate(text):
        if depth == 0 and ch not in "()" and not ch.isspace():
            line = text[text.rfind("\n", 0, pos) + 1 :]
            if not line.lstrip().startswith("<"):
                raise TreeSyntaxError(f"word at offset {pos} between trees")
        elif ch == "(":
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


def _ref_parse(text):
    """(words, root) of one bracketed tree."""
    toks = _SEXPR_TOKEN.findall(text)
    if not toks:
        raise EmptyTree("no tree in input")
    words = []
    pos = 0

    def parse_node(depth):
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
        children = []
        while pos < len(toks) and toks[pos] != ")":
            if toks[pos] == "(":
                children.append(parse_node(depth + 1))
            else:
                children.append(_RefNode(None, index=len(words)))
                words.append(toks[pos])
                pos += 1
        if pos >= len(toks):
            raise UnbalancedBrackets("missing ')'")
        pos += 1
        if not children:
            raise EmptyTree(f"bracket {label!r} has no children")
        if not label:
            if depth == 0 and len(children) == 1 and not children[0].is_leaf:
                return children[0]
            raise EmptyLabel("node with empty label")
        return _RefNode(label, tuple(children))

    root = parse_node(0)
    if pos != len(toks):
        raise UnbalancedBrackets("trailing material after the tree")
    return words, root


def _ref_normalize(words, root, punct_tags, collapse_unary):
    def prune(node):
        if node.is_leaf:
            return None if words[node.index] in punct_tags else node
        if node.is_preterminal:
            return None if node.label in punct_tags or node.label == TRACE_TAG else node
        kept = [c for c in (prune(child) for child in node.children) if c]
        return _RefNode(node.label, tuple(kept)) if kept else None

    def collapse(node):
        if node.is_leaf:
            return node
        while len(node.children) == 1 and not node.children[0].is_leaf:
            node = _RefNode(node.label, node.children[0].children)
        return _RefNode(node.label, tuple(collapse(c) for c in node.children))

    root = prune(root)
    if root is None:
        raise AllTokensRemoved("nothing left")
    if collapse_unary:
        root = collapse(root)
    old = _ref_leaves(root)
    renumber = {k: new for new, k in enumerate(old)}

    def rebuild(node):
        if node.is_leaf:
            return _RefNode(None, index=renumber[node.index])
        return _RefNode(node.label, tuple(rebuild(c) for c in node.children))

    return [words[k] for k in old], rebuild(root)


def _ref_read(text):
    trees = []
    for chunk in _ref_split_balanced(text):
        words, root = _ref_parse(chunk)
        if TRACE_TAG in chunk:
            try:
                words, root = _ref_normalize(words, root, frozenset(), False)
            except AllTokensRemoved:
                continue
        trees.append((words, root))
    if not trees:
        raise EmptyCorpus("no trees")
    return trees


def _ref_serialize(words, node):
    if node.is_leaf:
        return words[node.index]
    return f"({node.label} {' '.join(_ref_serialize(words, c) for c in node.children)})"


def _ref_labeled_spans(root):
    out = []

    def walk(node):
        if node.is_leaf:
            return node.index, node.index
        slot = len(out)
        if not node.is_preterminal:
            out.append(None)
        ends = [walk(c) for c in node.children]
        if not node.is_preterminal:
            out[slot] = (node.label, Span(ends[0][0], ends[-1][1]))
        return ends[0][0], ends[-1][1]

    walk(root)
    return out


def _same_trees(got, want):
    assert [t.sentence.id for t in got] == list(range(len(want)))
    for tree, (words, root) in zip(got, want):
        assert list(tree.sentence.tokens) == words
        assert serialize(tree) == _ref_serialize(words, root)
        assert labeled_spans(tree) == _ref_labeled_spans(root)


def _outcome(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(*args)
        except (TreeSyntaxError, EmptyCorpus, AllTokensRemoved) as exc:
            return exc


_ptb_token = st.sampled_from(["a", "b", "dog", "'s", ".", ",", "-NONE-", "*"])
_ptb_leaf = st.one_of(
    st.tuples(_label, st.lists(_ptb_token, min_size=1, max_size=3)).map(
        lambda t: "(" + t[0] + " " + " ".join(t[1]) + ")"
    ),
    st.sampled_from(["(-NONE- *T*-1)", "(-NONE- 0)", "(. .)", "(, ,)", "(`` ``)",
                     "(NN -NONE-)", "(CD .)"]),
)
_ptb_tree = st.recursive(
    _ptb_leaf,
    lambda children: st.tuples(
        _label, st.lists(st.one_of(children, _ptb_token), min_size=1, max_size=3)
    ).map(lambda t: "(" + t[0] + " " + " ".join(t[1]) + ")"),
    max_leaves=10,
)
_file_item = st.one_of(
    _ptb_tree,
    _ptb_tree.map(lambda text: f"( {text} )"),
    st.sampled_from(["junk", "*", "-NONE-"]),  # bare words between trees
    st.sampled_from(["\n</S>\n", "\n  <S ID=2>\n"]),  # markup lines
    st.just(")"),  # a stray ')'
    st.just("("),  # an unclosed '(', unless a later ')' closes it
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_file_item, min_size=1, max_size=6),
    st.sampled_from([" ", "\n", "\n\n", ""]),
)
def test_stream_reader_matches_chunk_reference(tmp_path_factory, items, sep):
    text = sep.join(items)
    path = tmp_path_factory.getbasetemp() / "trees.mrg"
    path.write_text(text)
    want = _outcome(_ref_read, text)
    got = _outcome(read_treebank, path)
    rest = text[_TREEBANK_HEAD.match(text).end() :]
    if rest and rest[0] not in "()":
        # a word first, past any markup lines: read_corpus reads the file
        # as plain text, and read_treebank refuses it
        assert type(got) is TreeSyntaxError
        assert str(got).startswith(f"{path}: word ")
        return
    if isinstance(want, Exception):
        if isinstance(got, TreeSyntaxError):
            assert str(got).startswith(f"{path}: tree ")
        # The one difference: a bad bracket inside a last tree that never
        # closes.  The stream reader reports the bad bracket, the first
        # fault in reading order, as parse_bracketed does; the chunk
        # splitter never handed that tree to the parser and reported
        # the unclosed '('.
        if not (
            isinstance(got, (EmptyTree, EmptyLabel))
            and str(want) == "unclosed '(' at end of input"
        ):
            assert type(got) is type(want), (got, want)
        return
    _same_trees(got, want)
    assert [s.tokens for s in read_corpus(path)] == [t.sentence.tokens for t in got]


@settings(max_examples=300, deadline=None)
@given(_ptb_tree)
def test_one_walk_normalize_matches_three_pass_reference(text):
    tree = parse_bracketed(text)
    words, root = _ref_parse(text)
    for punct_tags, collapse in itertools.product((PUNCT_TAGS, frozenset()), (True, False)):
        want = _outcome(_ref_normalize, words, root, punct_tags, collapse)
        got = _outcome(normalize, tree, punct_tags, collapse)
        if isinstance(want, Exception):
            assert type(got) is type(want)
        else:
            _same_trees([got], [want])
