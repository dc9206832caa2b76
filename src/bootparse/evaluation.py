"""Bracketing metrics against gold treebanks.

Three counting modes: macro_sentence averages per-sentence F1 (the
headline number), micro_corpus pools span counts over the corpus, and
evalb_style emulates the classic scorer's conventions (duplicates kept,
whole-sentence spans counted, plus a short-sentence section).  All
modes ignore single-token spans; a binary prediction cannot produce
them and preterminal brackets are not constituents here.

Spans are counted as integer codes, each its chart cell: i * n + j for
the span (i, j) of an n-token sentence.  A gold tree's codes are made
once and shared by every score; eval's predictions and the baselines
are code sets.  The binary oracle puts 1 at a gold tree's codes in its
chart and decodes one chart at a time with cyk_decode: no other CLI
path calls it, and the benchmark's traced run requires it to.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

# the counting modes and EvalConfig are importable from here as well
from .config import EVALB_STYLE, MACRO_SENTENCE, MICRO_CORPUS, EvalConfig
from .decoder import ScoreChart, cyk_decode, split_codes
from .errors import EmptyCorpus, LengthMismatch, YieldMismatch
from .treebank import BinaryTree, GoldTree

# evalb emulation: the short-sentence section's length cutoff
CUTOFF_LEN = 10

LEFT = "left"
RIGHT = "right"
BALANCED = "balanced"
RANDOM = "random"
_BASELINES = (LEFT, RIGHT, BALANCED, RANDOM)


@dataclass(frozen=True)
class EvalReport:
    """Headline scores plus per-sentence and grouped breakdowns."""

    mode: str
    f1: float
    precision: float
    recall: float
    per_sentence: tuple[dict, ...]
    per_label_recall: dict[str, float]
    length_buckets: dict[str, float]
    cutoff_section: dict | None = None

    def to_json(self) -> str:
        # the fields as they are: asdict would deep-copy every per_sentence row
        return json.dumps(vars(self), sort_keys=True, indent=1) + "\n"


def _prf(matched: int, pred_total: int, gold_total: int) -> tuple[float, float, float]:
    if pred_total == 0 and gold_total == 0:
        return 1.0, 1.0, 1.0
    precision = matched / pred_total if pred_total else 0.0
    recall = matched / gold_total if gold_total else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def _pred_codes(pred, gold: GoldTree):
    """The codes of pred's spans of two or more tokens.  A BinaryTree
    must have the gold tree's tokens; a code set is taken as it is."""
    if not isinstance(pred, BinaryTree):
        return pred
    if pred.sentence.tokens != gold.sentence.tokens:
        raise YieldMismatch(
            f"prediction tokens {pred.sentence.tokens} differ from gold "
            f"{gold.sentence.tokens}"
        )
    n = len(gold.sentence)
    return frozenset(sp.i * n + sp.j for sp in pred.spans if sp.j > sp.i)


def _counts(pred, gold: GoldTree, cfg: EvalConfig) -> tuple[int, int, int]:
    """Matched, predicted and gold span counts, from the codes of the
    prediction's spans and the gold tree's."""
    gold_codes = [code for _, code in gold.codes]
    if cfg.exclude_trivial:
        whole = len(gold.sentence) - 1  # the code of (0, n - 1)
        pred = pred - {whole}
        gold_codes = [code for code in gold_codes if code != whole]
    # a prediction holds each span once, so a repeated gold span (a
    # unary chain) matches at most once
    gold_set = set(gold_codes)
    gold_total = len(gold_set) if cfg.dedup_spans else len(gold_codes)
    return len(pred & gold_set), len(pred), gold_total


def sentence_f1(pred: BinaryTree, gold: GoldTree, cfg: EvalConfig) -> float:
    """Unlabeled span F1 for one sentence; 1.0 when both sets are empty."""
    return _prf(*_counts(_pred_codes(pred, gold), gold, cfg))[2]


def corpus_eval(preds, golds, cfg: EvalConfig | None = None) -> EvalReport:
    """Aggregate bracketing scores over aligned prediction/gold lists.

    A prediction is a BinaryTree, or the frozenset of span codes of a
    binary bracketing of its gold tree's tokens: its spans of two or
    more tokens, whole sentence included.
    """
    if cfg is None:
        cfg = EvalConfig()
    preds = list(preds)
    golds = list(golds)
    if len(preds) != len(golds):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(golds)} golds")

    # each pair with its input position, which names its per_sentence row
    pairs = [
        (index, pred, gold)
        for index, (pred, gold) in enumerate(zip(preds, golds))
        if cfg.max_len is None or len(gold.sentence) <= cfg.max_len
    ]
    if not pairs:
        raise EmptyCorpus("no sentences to evaluate")

    per_sentence = []
    rows = []  # each sentence's matched, predicted and gold counts
    # per-label recall counts phrasal gold spans of length >= 2, whole
    # sentences included
    label_found = Counter()
    label_total = Counter()
    for index, pred, gold in pairs:
        pred = _pred_codes(pred, gold)
        counts = _counts(pred, gold, cfg)
        rows.append(counts)
        precision, recall, f1 = _prf(*counts)
        per_sentence.append(
            {
                "index": index,
                "length": len(gold.sentence),
                "precision": precision,
                "recall": recall,
                "f1": f1,
            }
        )
        for label, code in gold.codes:
            label_total[label] += 1
            if code in pred:
                label_found[label] += 1

    by_sentence = np.array(rows, dtype=int)
    if cfg.mode == MACRO_SENTENCE:
        precision = statistics.fmean(row["precision"] for row in per_sentence)
        recall = statistics.fmean(row["recall"] for row in per_sentence)
        f1 = statistics.fmean(row["f1"] for row in per_sentence)
    else:
        precision, recall, f1 = _prf(*by_sentence.sum(axis=0).tolist())

    cutoff_section = None
    if cfg.mode == EVALB_STYLE:
        short = np.array([row["length"] for row in per_sentence]) <= CUTOFF_LEN
        cut_p, cut_r, cut_f1 = _prf(*by_sentence[short].sum(axis=0).tolist())
        cutoff_section = {
            "max_len": CUTOFF_LEN,
            "sentences": int(short.sum()),
            "precision": cut_p,
            "recall": cut_r,
            "f1": cut_f1,
        }

    # buckets keyed by their first length: 1, 1 + width, ...
    width = cfg.bucket_width
    by_bucket: dict[int, list[float]] = defaultdict(list)
    for row in per_sentence:
        by_bucket[(row["length"] - 1) // width * width + 1].append(row["f1"])
    length_buckets = {
        f"{lo}-{lo + width - 1}": statistics.fmean(by_bucket[lo])
        for lo in sorted(by_bucket)
    }

    return EvalReport(
        mode=cfg.mode,
        f1=f1,
        precision=precision,
        recall=recall,
        per_sentence=tuple(per_sentence),
        per_label_recall={
            label: label_found[label] / label_total[label]
            for label in sorted(label_total)
        },
        length_buckets=length_buckets,
        cutoff_section=cutoff_section,
    )


def baseline_codes(
    n: int, which: str, rng_seed: int = 0, index: int = 0
) -> frozenset[int]:
    """The span codes corpus_eval takes of a baseline bracketing of n
    tokens; the random one draws from default_rng((rng_seed, index))."""
    if which == LEFT:
        return frozenset(range(1, n))  # (0, j)
    if which == RIGHT:
        return frozenset(range(n - 1, n * (n - 1), n))  # (i, n - 1)
    if which == BALANCED:
        return frozenset(split_codes(n, lambda i, j: (i + j) // 2))
    rng = np.random.default_rng((rng_seed, index))
    return frozenset(split_codes(n, lambda i, j: int(rng.integers(i, j))))


def trivial_baselines(
    golds, which: str, cfg: EvalConfig | None = None, rng_seed: int = 0
) -> EvalReport:
    """Score a structure-free baseline bracketing against the golds."""
    if which not in _BASELINES:
        raise ValueError(f"unknown baseline {which!r}, expected one of {_BASELINES}")
    golds = list(golds)
    preds = [
        baseline_codes(len(g.sentence), which, rng_seed, k) for k, g in enumerate(golds)
    ]
    return corpus_eval(preds, golds, cfg)


def oracle_tree(gold: GoldTree) -> BinaryTree:
    """Best achievable binary bracketing: decode a 0/1 gold-span chart."""
    chart = ScoreChart(n=len(gold.sentence))
    # single-token spans add the same to every tree, so they are left out
    chart.cells.put([code for _, code in gold.codes], 1.0)
    return cyk_decode(chart, gold.sentence)


def oracle_binary(golds, cfg: EvalConfig | None = None) -> EvalReport:
    """Upper bound on binary-tree scores against these golds."""
    golds = list(golds)
    return corpus_eval([oracle_tree(g) for g in golds], golds, cfg)


def render_report(report: EvalReport) -> str:
    """Human-readable summary block."""
    lines = [
        f"mode           {report.mode}",
        f"sentences      {len(report.per_sentence)}",
        f"precision      {report.precision:.4f}",
        f"recall         {report.recall:.4f}",
        f"f1             {report.f1:.4f}",
    ]
    if report.cutoff_section is not None:
        sec = report.cutoff_section
        lines.append(
            f"len<={sec['max_len']:<9}{sec['f1']:.4f} "
            f"({sec['sentences']} sentences)"
        )
    if report.per_label_recall:
        lines.append("label recall")
        for label, value in report.per_label_recall.items():
            lines.append(f"  {label:<12} {value:.4f}")
    if report.length_buckets:
        lines.append("f1 by length")
        for bucket, value in report.length_buckets.items():
            lines.append(f"  {bucket:<12} {value:.4f}")
    return "\n".join(lines) + "\n"


def render_length_buckets_tsv(report: EvalReport) -> str:
    lines = ["bucket\tf1"]
    lines += [f"{bucket}\t{f1:.6f}" for bucket, f1 in report.length_buckets.items()]
    return "\n".join(lines) + "\n"


def render_per_sentence_tsv(report: EvalReport) -> str:
    lines = ["index\tlength\tprecision\trecall\tf1"]
    for row in report.per_sentence:
        lines.append(
            f"{row['index']}\t{row['length']}\t{row['precision']:.6f}"
            f"\t{row['recall']:.6f}\t{row['f1']:.6f}"
        )
    return "\n".join(lines) + "\n"
