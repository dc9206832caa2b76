"""Span-sum tree decoding and chart post-processing.

The decoder picks the binary tree whose spans maximize the sum of chart
scores.  ``cyk_decode_stack`` decodes a stack of charts of one length
into span codes in one fill, as parse does one treebank.length_fills
fill at a time; ``cyk_decode`` decodes one chart as a stack of one.
A span's code is its chart cell, i * n + j for the span (i, j) of an
n-token chart, in the fill, scoring, parse's writer and evaluation.
``enumerate_trees`` provides the brute-force reference used to test the
dynamic program; it is exponential (Catalan numbers) and guarded
accordingly.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import HeuristicConfig
from .errors import TooLarge
from .seeds import most_common_first_word
from .treebank import BinaryTree, Sentence, Span, token_runs

# enumerate_trees(13) would yield 208012 trees; stop before that.
MAX_ENUMERATION = 12


@dataclass(eq=False)
class ScoreChart:
    """Upper-triangular matrix of span scores for one sentence."""

    n: int
    cells: np.ndarray = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("chart needs at least one token")
        if self.cells is None:
            self.cells = np.zeros((self.n, self.n), dtype=float)
        else:
            self.cells = np.asarray(self.cells, dtype=float)
            if self.cells.shape != (self.n, self.n):
                raise ValueError(
                    f"cells shape {self.cells.shape} does not match n={self.n}"
                )
        if not np.all(np.isfinite(self.cells)):
            raise ValueError("chart contains non-finite scores")

    def copy(self) -> "ScoreChart":
        return ScoreChart(n=self.n, cells=self.cells.copy())


def _placeholder_sentence(n: int) -> Sentence:
    return Sentence(id=-1, tokens=tuple(f"w{k}" for k in range(n)))


@functools.lru_cache(maxsize=256)
def _fill_plan(n: int) -> tuple:
    """Flat chart offsets for filling span lengths 2..n of an n-token chart.

    For span length L, row r holds the cell (r, r + L - 1) at flat index
    base[r] + L - 1, with base[r] = r * n + r the cell (r, r), so the
    cells of one length are the slice cells.  The split of row r after
    token r + k reads best(r, r + k) at base[r] + left[k] and
    best(r + k + 1, r + L - 1) at base[r] + right[k].  Only these O(n)
    offsets are kept per length, about n^2 ints per chart size in all;
    they are broadcast against the row bases on each call.
    """
    idx = np.arange(n)
    base = idx * n + idx
    plan = []
    for length in range(2, n + 1):
        rows = n - length + 1
        left = idx[: length - 1]
        entry = (base[:rows, None], left, (left + 1) * n + length - 1, idx[:rows, None])
        for arr in entry:
            arr.setflags(write=False)
        plan.append((*entry, slice(length - 1, length - 1 + rows * (n + 1), n + 1)))
    return tuple(plan)


def cyk_decode(chart: ScoreChart, sentence: Sentence | None = None) -> BinaryTree:
    """Best binary tree under the span-score sum, ties to the smallest split.

    best(i, j) = s(i, j) + max_k [best(i, k) + best(k+1, j)], with
    best(i, i) = s(i, i).  Leaf scores shift every tree's total by the
    same amount, so they never change the argmax.  The chart is decoded
    as a stack of one by cyk_decode_stack.
    """
    n = chart.n
    if sentence is None:
        sentence = _placeholder_sentence(n)
    if len(sentence) != n:
        raise ValueError(f"sentence has {len(sentence)} tokens, chart has {n}")
    (codes,) = cyk_decode_stack(chart.cells[None])
    spans = [Span(*divmod(code, n)) for code in codes] if n > 1 else [Span(0, 0)]
    return BinaryTree(sentence=sentence, spans=spans)


def cyk_decode_stack(charts: np.ndarray) -> list[list[int]]:
    """The best tree of every chart of a (B, n, n) stack, in one fill, as
    the split_codes of its spans of two or more tokens, in pre-order.

    Each step of the fill takes one span length of all B charts at once.
    Each cell still takes the same two additions, best(i, k) +
    best(k+1, j) and then s(i, j) + that candidate, and argmax keeps the
    first (smallest k) of tied candidates, so each chart and tree are
    those of a cell-by-cell loop over that chart alone.
    """
    count, n, _ = charts.shape
    # one row per chart cell, one column per chart; cells of length >= 2
    # still hold their scores when their length is filled
    best = np.asarray(charts, dtype=float).reshape(count, n * n).T.copy()
    if not np.all(np.isfinite(best)):
        raise ValueError("chart contains non-finite scores")
    split = np.zeros((n * n, count), dtype=np.intp)
    for base, left, right, rows, cells in _fill_plan(n):
        cand = best.take(base + left, axis=0)
        cand += best.take(base + right, axis=0)
        split[cells] = rows + cand.argmax(axis=1)
        best[cells] += cand.max(axis=1)
    # span (i, j) splits after picks[i * n + j]
    return [split_codes(n, lambda i, j: picks[i * n + j]) for picks in split.T.tolist()]


def split_codes(n: int, pick) -> list[int]:
    """The code i * n + j of each span (i, j) of two or more tokens of
    the binary tree that splits each span after token pick(i, j).

    Spans are visited in pre-order, left subtree first, so a pick that
    draws random numbers draws them in a fixed order.
    """
    codes = []
    stack = [(0, n - 1)] if n > 1 else []
    while stack:
        i, j = stack.pop()
        codes.append(i * n + j)
        k = pick(i, j)
        if k + 1 < j:
            stack.append((k + 1, j))
        if k > i:
            stack.append((i, k))
    return codes


def enumerate_trees(n: int) -> list[frozenset[Span]]:
    """All binary bracketings of n tokens, as span sets (length >= 2 spans).

    Returns Catalan(n-1) trees.  Raises TooLarge above MAX_ENUMERATION.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_ENUMERATION:
        raise TooLarge(f"n={n} exceeds enumeration guard {MAX_ENUMERATION}")
    if n == 1:
        return [frozenset({Span(0, 0)})]

    memo: dict[tuple[int, int], list[frozenset[Span]]] = {}

    def trees(i: int, j: int) -> list[frozenset[Span]]:
        if i == j:
            return [frozenset()]
        key = (i, j)
        if key in memo:
            return memo[key]
        out = []
        for k in range(i, j):
            for left in trees(i, k):
                for right in trees(k + 1, j):
                    out.append(left | right | {Span(i, j)})
        memo[key] = out
        return out

    return trees(0, n - 1)


def tree_score(chart: ScoreChart, spans) -> float:
    """Sum of chart scores over a tree's spans plus all leaf cells.

    Matches the decoder objective, which includes best(i, i) = s(i, i)
    for every token.
    """
    total = float(sum(chart.cells[i, i] for i in range(chart.n)))
    for sp in spans:
        if sp.length >= 2:
            total += chart.cells[sp.i, sp.j]
    return total


def rare_cased_runs(sentence: Sentence, top_frequency_set) -> list[Span]:
    """Maximal runs (length >= 2) of capitalized tokens outside the
    frequency list.  Unlike the seeds' ASCII pattern, any Unicode capital
    opens a run."""
    return token_runs(
        sentence.tokens,
        lambda tok: tok[:1].isupper() and tok not in top_frequency_set,
    )


def load_stopwords() -> frozenset[str]:
    """The bundled English stopword list (179 words, one per line)."""
    from importlib import resources

    text = (
        resources.files("bootparse.data")
        .joinpath("english_stopwords.txt")
        .read_text(encoding="utf-8")
    )
    return frozenset(line for line in text.splitlines() if line)


def heuristics_from_corpus(sentences) -> HeuristicConfig:
    """Collect the refinement statistics from training text.

    Statistics never come from the text being parsed: the word most
    often following a comma, the most common sentence-start word, and
    the 100 most frequent tokens, with the bundled stopwords.  Count
    ties break toward the lexicographically smaller token so the result
    is deterministic.
    """
    sentences = list(sentences)
    comma_succ = Counter()
    freq = Counter()
    for s in sentences:
        toks = s.tokens
        freq.update(toks)
        for prev, cur in zip(toks, toks[1:]):
            if prev == ",":
                comma_succ[cur] += 1

    top = sorted(freq, key=lambda tok: (-freq[tok], tok))[:100]
    return HeuristicConfig(
        enabled=True,
        comma_successor_word=min(
            comma_succ, key=lambda tok: (-comma_succ[tok], tok), default=None
        ),
        common_start_word=most_common_first_word(sentences),
        top_frequency_set=frozenset(top),
        stopword_set=load_stopwords(),
    )


def apply_heuristics(
    chart: ScoreChart, sentence: Sentence, cfg: HeuristicConfig
) -> ScoreChart:
    """Overwrite chart cells according to the refinement rules.

    (a) spans that start or end with the word most commonly following a
        comma are killed; (b) two-token spans opening the sentence with
        the most common sentence-start word followed by a non-stopword
        are forced in; (c) proper sub-spans of a rare capitalized run are
        killed so the run is kept whole.  Idempotent.
    """
    if not cfg.enabled:
        return chart
    if len(sentence) != chart.n:
        raise ValueError("sentence does not match chart size")
    out = chart.copy()
    toks = sentence.tokens

    if cfg.comma_successor_word is not None:
        # the cells (i, j), i <= j, of a row or column of the word
        hit = np.array([tok == cfg.comma_successor_word for tok in toks])
        out.cells[np.triu(hit[:, None] | hit)] = 0.0

    if cfg.common_start_word is not None and chart.n >= 2:
        if toks[0] == cfg.common_start_word and toks[1] not in cfg.stopword_set:
            out.cells[0, 1] = 1.0

    for run in rare_cased_runs(sentence, cfg.top_frequency_set):
        # the run's block above its diagonal, but for the whole run's cell
        block = out.cells[run.i : run.j + 1, run.i : run.j + 1]
        whole = block[0, -1]
        block[np.triu_indices(len(block), 1)] = 0.0
        block[0, -1] = whole

    return out
