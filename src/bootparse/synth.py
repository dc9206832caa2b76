"""Synthetic PCFG corpora for desk-scale pipeline validation.

Real treebanks cannot ship with the package, so end-to-end behavior is
exercised on sentences sampled from a small grammar whose gold trees
are the derivations themselves.  The built-in grammar leans right:
verb phrases and prepositional phrases extend to the right edge, which
keeps the corpus qualitatively close to English bracketing statistics.
A derivation is drawn with an explicit stack, not by recursion, so it
may nest as deep as its grammar's max_depth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonterminatingGrammar, check_int
from .treebank import GoldTree, Sentence, check_bracket_words

_PROB_TOL = 1e-9


@dataclass(frozen=True)
class SyntheticGrammar:
    """A PCFG: expansion rules over nonterminals plus a lexicon.

    rules maps a nonterminal to weighted right-hand sides; lexicon maps
    a preterminal to its word choices (sampled uniformly).  A symbol
    must appear in exactly one of the two.  Symbols and words must be
    bracket words (treebank.check_bracket_words), so that every gold
    tree can be written and read back.
    """

    start: str
    rules: dict[str, tuple[tuple[float, tuple[str, ...]], ...]]
    lexicon: dict[str, tuple[str, ...]]
    max_depth: int = 40

    def __post_init__(self):
        overlap = set(self.rules) & set(self.lexicon)
        if overlap:
            raise ValueError(f"symbols in both rules and lexicon: {sorted(overlap)}")
        check_bracket_words([*self.rules, *self.lexicon], "symbol")
        known = set(self.rules) | set(self.lexicon)
        if self.start not in known:
            raise ValueError(f"unknown start symbol {self.start!r}")
        for lhs, expansions in self.rules.items():
            if not expansions:
                raise ValueError(f"no expansions for {lhs!r}")
            total = sum(p for p, _ in expansions)
            if abs(total - 1.0) > _PROB_TOL:
                raise ValueError(f"probabilities for {lhs!r} sum to {total}")
            for p, rhs in expansions:
                if p < 0:
                    raise ValueError(f"negative probability under {lhs!r}")
                if not rhs:
                    raise ValueError(f"empty right-hand side under {lhs!r}")
                missing = [sym for sym in rhs if sym not in known]
                if missing:
                    raise ValueError(f"undefined symbols under {lhs!r}: {missing}")
        for pre, words in self.lexicon.items():
            if not words:
                raise ValueError(f"empty lexicon entry for {pre!r}")
            check_bracket_words(words, f"word under {pre!r}")
        check_int("max_depth", self.max_depth, 1)

    @functools.cached_property
    def cdfs(self) -> dict[str, np.ndarray]:
        """Each rule's cumulative expansion probabilities, normalized as
        Generator.choice normalizes them, so that searchsorted of one
        rng.random() draw picks the expansion choice(p=...) would."""
        cdfs = {}
        for lhs, expansions in self.rules.items():
            probs = np.array([p for p, _ in expansions])
            cdf = (probs / probs.sum()).cumsum()
            cdfs[lhs] = cdf / cdf[-1]
        return cdfs


def builtin_grammar() -> SyntheticGrammar:
    """Small English-like grammar with a right-branching tilt.

    Title-case two-token entities stand in for proper names so the
    casing-based seed augmentation has material to work with, the way
    newswire text supplies it.
    """
    rules = {
        "S": ((1.0, ("NP", "VP")),),
        "NP": (
            (0.2, ("Det", "N")),
            (0.05, ("Det", "Adj", "N")),
            (0.5, ("Name",)),
            (0.2, ("Entity",)),
            (0.05, ("Det", "N", "PP")),
        ),
        "Entity": ((1.0, ("EntMod", "EntHead")),),
        "VP": (
            (0.2, ("Vi",)),
            (0.45, ("Vt", "NP")),
            (0.2, ("Vt", "NP", "PP")),
            (0.15, ("Vs", "Comp", "S")),
        ),
        "PP": ((1.0, ("P", "NP")),),
    }
    lexicon = {
        "Det": ("the", "a", "every", "some"),
        "N": ("dog", "cat", "bird", "fish", "horse", "farmer", "child", "story"),
        "Adj": ("big", "small", "old", "happy"),
        "Name": ("alice", "bob", "carol", "dave"),
        "EntMod": ("North", "South", "Green", "Royal"),
        "EntHead": ("Bay", "Valley", "Harbor", "Market"),
        "Vi": ("sleeps", "runs", "smiles", "waits"),
        "Vt": ("sees", "chases", "likes", "finds"),
        "Vs": ("says", "thinks", "hopes"),
        "P": ("with", "near", "under"),
        "Comp": ("that",),
    }
    return SyntheticGrammar(start="S", rules=rules, lexicon=lexicon)


def _expand(grammar: SyntheticGrammar, rng) -> tuple[list[str], list]:
    """One derivation of the start symbol, its draws made in pre-order:
    its words and its brackets (symbol, first word, last word)."""
    words: list[str] = []
    brackets: list = []
    # (symbol, depth) left to derive, the next one last, and (slot, None)
    # to close the bracket at that slot once its words are all drawn
    todo: list[tuple] = [(grammar.start, 0)]
    while todo:
        item, depth = todo.pop()
        if depth is None:
            label, first, _ = brackets[item]
            brackets[item] = (label, first, len(words) - 1)
            continue
        if depth > grammar.max_depth:
            raise _DepthExceeded
        if item in grammar.lexicon:
            choices = grammar.lexicon[item]
            brackets.append((item, len(words), len(words)))
            words.append(choices[int(rng.integers(len(choices)))])
            continue
        expansions = grammar.rules[item]
        choice = int(grammar.cdfs[item].searchsorted(rng.random(), side="right"))
        todo.append((len(brackets), None))
        brackets.append((item, len(words), None))
        todo.extend((sym, depth + 1) for sym in reversed(expansions[choice][1]))
    return words, brackets


class _DepthExceeded(Exception):
    pass


def sample_tree(
    grammar: SyntheticGrammar,
    rng,
    sentence_id: int = 0,
    min_len: int = 1,
    max_len: int | None = None,
    retries: int = 200,
) -> GoldTree:
    """One derivation within the length bounds; retries on misses.

    Raises NonterminatingGrammar when `retries` consecutive attempts
    blow the depth guard or the length window, which is what happens
    when recursive rules carry too much probability mass.
    """
    for _ in range(retries):
        try:
            tokens, brackets = _expand(grammar, rng)
        except _DepthExceeded:
            continue
        n = len(tokens)
        if n < min_len or (max_len is not None and n > max_len):
            continue
        sentence = Sentence(id=sentence_id, tokens=tuple(tokens))
        return GoldTree(sentence=sentence, brackets=tuple(brackets))
    raise NonterminatingGrammar(
        f"no derivation of length {min_len}..{max_len} within depth "
        f"{grammar.max_depth} after {retries} attempts"
    )


def generate_corpus(
    grammar: SyntheticGrammar,
    count: int,
    rng_seed: int = 0,
    min_len: int = 3,
    max_len: int | None = 12,
) -> list[GoldTree]:
    """Deterministic sample of `count` gold trees, ids 0..count-1."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(rng_seed)
    return [
        sample_tree(grammar, rng, sentence_id=k, min_len=min_len, max_len=max_len)
        for k in range(count)
    ]
