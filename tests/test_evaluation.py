from __future__ import annotations

import json
import math
import statistics
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootparse.decoder import ScoreChart, cyk_decode
from bootparse.errors import EmptyCorpus, LengthMismatch, YieldMismatch
from bootparse.evaluation import (
    BALANCED,
    CUTOFF_LEN,
    EVALB_STYLE,
    LEFT,
    MACRO_SENTENCE,
    MICRO_CORPUS,
    RANDOM,
    RIGHT,
    EvalConfig,
    EvalReport,
    baseline_codes,
    corpus_eval,
    oracle_binary,
    oracle_tree,
    render_length_buckets_tsv,
    render_per_sentence_tsv,
    render_report,
    sentence_f1,
    trivial_baselines,
)
from bootparse.treebank import (
    BinaryTree,
    Sentence,
    Span,
    binary_from_tree,
    labeled_spans,
    parse_bracketed,
)

# the worked example trees: an early-model parse (a), a bootstrapped
# parse (b), and the reference parse (c), all over the same sentence
TREE_A = (
    "(S (S Denis (S C. Smith)) (S was (S named (S to (S (S the new) "
    "(S (S post (S of (S vice president))) (S of (S (S world-wide "
    "(S (S advanced materials) operations)) (S for (S this "
    "(S chemicals concern)))))))))))"
)
TREE_B = (
    "(S (S Denis (S C. Smith)) (S was (S named (S to (S (S (S (S the "
    "(S new post)) (S of (S vice president))) (S of (S world-wide "
    "(S advanced (S materials operations))))) (S for (S this "
    "(S chemicals concern))))))))"
)
TREE_C = (
    "(S (NP-SBJ-1 Denis C. Smith) (VP was (VP named (PP-CLR to "
    "(NP (NP the new post) (PP of (NP (NP vice president) "
    "(PP of (NP world-wide advanced materials operations)) "
    "(PP for (NP this chemicals concern)))))))))"
)


# Span references of the four baselines: the closed forms, and a split
# walk in pre-order, left subtree first, the order in which the random
# baseline draws its splits
def right_branching_spans(n):
    if n == 1:
        return frozenset({Span(0, 0)})
    return frozenset(Span(i, n - 1) for i in range(n - 1))


def left_branching_spans(n):
    if n == 1:
        return frozenset({Span(0, 0)})
    return frozenset(Span(0, j) for j in range(1, n))


def _split_spans(n, pick):
    def walk(i, j):
        if i < j:
            k = pick(i, j)
            yield Span(i, j)
            yield from walk(i, k)
            yield from walk(k + 1, j)

    return frozenset(walk(0, n - 1)) if n > 1 else frozenset({Span(0, 0)})


def balanced_spans(n):
    return _split_spans(n, lambda i, j: (i + j) // 2)


def random_spans(n, rng):
    return _split_spans(n, lambda i, j: int(rng.integers(i, j)))


def binary(text, sentence_id=0):
    return binary_from_tree(parse_bracketed(text, sentence_id=sentence_id))


def test_config_validation_and_evalb_overrides():
    with pytest.raises(ValueError):
        EvalConfig(mode="nonsense")
    with pytest.raises(ValueError):
        EvalConfig(max_len=0)
    cfg = EvalConfig(mode=EVALB_STYLE, exclude_trivial=True, dedup_spans=True)
    assert cfg.exclude_trivial is False
    assert cfg.dedup_spans is False


def test_sentence_f1_perfect():
    gold = parse_bracketed("(S (NP (DT the) (NN dog)) (VP (VBD ran) (RB away)))")
    assert sentence_f1(binary_from_tree(gold), gold, EvalConfig()) == 1.0


def test_sentence_f1_hand_count():
    # pred {(0,1),(2,3)} vs gold {(0,1),(0,2)}: one span agrees
    pred = binary("(S (X a b) (Y c d))")
    gold = parse_bracketed("(S (X (A a b) c) d)")
    assert sentence_f1(pred, gold, EvalConfig()) == pytest.approx(0.5)


def test_sentence_f1_both_empty_scores_one():
    pred = binary("(S a b)")
    gold = parse_bracketed("(S (A a) (B b))")
    assert sentence_f1(pred, gold, EvalConfig()) == 1.0


def test_sentence_f1_yield_mismatch():
    pred = binary("(S a b)")
    gold = parse_bracketed("(S c d)")
    with pytest.raises(YieldMismatch):
        sentence_f1(pred, gold, EvalConfig())


def test_dedup_changes_duplicate_gold_counting():
    # the unary chain repeats span (0, 1) on the gold side
    gold = parse_bracketed("(S (NP (QP a b)) (VP c d))")
    pred = binary("(S (X a b) (Y c d))")
    deduped = EvalConfig(mode=MICRO_CORPUS, dedup_spans=True)
    duplicated = EvalConfig(mode=MICRO_CORPUS, dedup_spans=False)
    assert sentence_f1(pred, gold, deduped) == 1.0
    # duplicates kept: gold counts (0,1) twice, so 2 of 3 are matched
    dup = sentence_f1(pred, gold, duplicated)
    assert dup == pytest.approx(2 * 2 / (2 + 3))


def test_worked_example_fractions():
    pred_a = binary(TREE_A)
    pred_b = binary(TREE_B)
    gold = parse_bracketed(TREE_C)
    cfg = EvalConfig()
    f1_a = sentence_f1(pred_a, gold, cfg)
    f1_b = sentence_f1(pred_b, gold, cfg)
    assert f1_a == 18 / 32 == 0.5625
    assert f1_b == 22 / 32 == 0.6875
    # the two-decimal annotations on the figure are truncations
    assert math.floor(100 * f1_a) / 100 == 0.56
    assert math.floor(100 * f1_b) / 100 == 0.68


def test_corpus_eval_single_sentence_macro_equals_micro():
    gold = parse_bracketed(TREE_C)
    pred = binary(TREE_A)
    macro = corpus_eval([pred], [gold], EvalConfig(mode=MACRO_SENTENCE))
    micro = corpus_eval([pred], [gold], EvalConfig(mode=MICRO_CORPUS))
    assert macro.f1 == micro.f1 == 0.5625


def test_corpus_eval_macro_is_mean():
    golds = [
        parse_bracketed("(S (A a b) (B c d))", sentence_id=0),
        parse_bracketed("(S (X (A e f) g) h)", sentence_id=1),
    ]
    preds = [binary("(S (A a b) (B c d))"), binary("(S (Y e (Z f g)) h)")]
    report = corpus_eval(preds, golds, EvalConfig(mode=MACRO_SENTENCE))
    per = [row["f1"] for row in report.per_sentence]
    assert report.f1 == pytest.approx(sum(per) / len(per), abs=1e-12)
    assert per[0] == 1.0


def test_corpus_eval_macro_micro_disagree():
    # sentence 1: 1/1 match; sentence 2: 1 of 3 pred spans matches the
    # 3 gold spans.  macro mean vs pooled counts give different numbers
    golds = [
        parse_bracketed("(S (A a b) c)", sentence_id=0),
        parse_bracketed("(S (A (B q (C w e)) r) t y)", sentence_id=1),
    ]
    preds = [
        binary("(S (A a b) c)"),
        binary("(S (X (Y q (Z w e)) (W r t)) y)"),
    ]
    macro = corpus_eval(preds, golds, EvalConfig(mode=MACRO_SENTENCE))
    micro = corpus_eval(preds, golds, EvalConfig(mode=MICRO_CORPUS))
    s2 = sentence_f1(preds[1], golds[1], EvalConfig())
    assert macro.f1 == pytest.approx((1.0 + s2) / 2)
    # pooled: matched 1+2, pred 1+4, gold 1+3
    assert micro.precision == pytest.approx(3 / 5)
    assert micro.recall == pytest.approx(3 / 4)
    assert micro.f1 == pytest.approx(2 * (3 / 5) * (3 / 4) / (3 / 5 + 3 / 4))
    assert macro.f1 != micro.f1


def test_corpus_eval_length_mismatch_and_empty():
    gold = parse_bracketed("(S (A a b) c)")
    with pytest.raises(LengthMismatch):
        corpus_eval([binary("(S (A a b) c)")], [gold, gold])
    with pytest.raises(EmptyCorpus):
        corpus_eval([], [])


def test_corpus_eval_max_len_filters():
    golds = [
        parse_bracketed("(S (A a b) c)", sentence_id=0),
        parse_bracketed(TREE_C, sentence_id=1),
    ]
    preds = [binary("(S (A a b) c)"), binary(TREE_A)]
    report = corpus_eval(preds, golds, EvalConfig(max_len=10))
    assert len(report.per_sentence) == 1
    assert report.per_sentence[0]["length"] == 3


def test_corpus_eval_max_len_keeps_input_positions():
    # rows are numbered by input position, not by position after the filter
    trees = ["(S (A a b) (B c (C d (D e (E f (F g h))))))", "(S (A a b) c)", "(S a b)"]
    golds = [parse_bracketed(tree, sentence_id=k) for k, tree in enumerate(trees)]
    report = corpus_eval([binary(tree) for tree in trees], golds, EvalConfig(max_len=5))
    assert [(row["index"], row["length"]) for row in report.per_sentence] == [(1, 3), (2, 2)]
    assert render_per_sentence_tsv(report).splitlines()[1].startswith("1\t3\t")


def test_length_buckets():
    golds = [
        parse_bracketed("(S (A a b) c)", sentence_id=0),
        parse_bracketed("(S (A a b) (B c (C d (D e f))))", sentence_id=1),
    ]
    preds = [binary("(S (A a b) c)"), binary("(S (A a b) (B c (C d (D e f))))")]
    report = corpus_eval(preds, golds, EvalConfig())
    assert set(report.length_buckets) == {"1-5", "6-10"}
    assert report.length_buckets["1-5"] == 1.0
    narrow = corpus_eval(preds, golds, EvalConfig(bucket_width=3))
    assert set(narrow.length_buckets) == {"1-3", "4-6"}


def test_evalb_cutoff_section():
    golds = [
        parse_bracketed("(S (A a b) c)", sentence_id=0),
        parse_bracketed(TREE_C, sentence_id=1),
    ]
    preds = [binary("(S (A a b) c)"), binary(TREE_A)]
    report = corpus_eval(preds, golds, EvalConfig(mode=EVALB_STYLE))
    assert report.cutoff_section["max_len"] == CUTOFF_LEN
    assert report.cutoff_section["sentences"] == 1
    short_only = corpus_eval(preds[:1], golds[:1], EvalConfig(mode=EVALB_STYLE))
    assert report.cutoff_section["f1"] == pytest.approx(short_only.f1)


def test_evalb_agrees_with_micro_without_duplicates():
    golds = [parse_bracketed("(S (A a b) (B c (C d e)))", sentence_id=0)]
    preds = [binary("(S (A a b) (B c (C d e)))")]
    evalb = corpus_eval(preds, golds, EvalConfig(mode=EVALB_STYLE))
    micro = corpus_eval(
        preds,
        golds,
        EvalConfig(mode=MICRO_CORPUS, exclude_trivial=False, dedup_spans=False),
    )
    assert evalb.f1 == micro.f1
    assert evalb.precision == micro.precision


def test_label_recall_hand_cases():
    golds = [
        parse_bracketed("(S (NP a b) (VP c (NP d e)))", sentence_id=0),
        parse_bracketed("(S (SBAR q w) (NP e r))", sentence_id=1),
    ]
    preds = [
        binary("(S (X a b) (Y c (Z d e)))"),  # both NP spans present
        binary("(S q (W w (V e r)))"),  # misses SBAR, catches NP
    ]
    recall = corpus_eval(preds, golds).per_label_recall
    # whole-sentence spans always in pred; labels come sorted
    assert recall == {"NP": 1.0, "S": 1.0, "SBAR": 0.0, "VP": 1.0}
    assert list(recall) == ["NP", "S", "SBAR", "VP"]


def test_baseline_span_builders():
    assert right_branching_spans(4) == frozenset(
        {Span(0, 3), Span(1, 3), Span(2, 3)}
    )
    assert left_branching_spans(4) == frozenset({Span(0, 3), Span(0, 1), Span(0, 2)})
    assert balanced_spans(4) == frozenset({Span(0, 3), Span(0, 1), Span(2, 3)})
    assert right_branching_spans(1) == frozenset({Span(0, 0)})
    rng = np.random.default_rng(0)
    for n in range(2, 9):
        spans = random_spans(n, rng)
        BinaryTree(sentence=Sentence(id=0, tokens=tuple("w" * n)), spans=spans)


def _codes(spans, n):
    return frozenset(sp.i * n + sp.j for sp in spans if sp.length >= 2)


def test_baseline_codes_equal_span_builders():
    # tolerance 0: the codes eval scores are exactly the Span references'
    for n in range(1, 41):
        assert baseline_codes(n, LEFT) == _codes(left_branching_spans(n), n)
        assert baseline_codes(n, RIGHT) == _codes(right_branching_spans(n), n)
        assert baseline_codes(n, BALANCED) == _codes(balanced_spans(n), n)
        for seed, index in ((0, 0), (7, n)):
            spans = random_spans(n, np.random.default_rng((seed, index)))
            assert baseline_codes(n, RANDOM, seed, index) == _codes(spans, n)


def test_two_token_sentence_all_baselines_agree():
    gold = parse_bracketed("(S (A a) (B b))")
    scores = {
        which: trivial_baselines([gold], which).f1
        for which in (LEFT, RIGHT, BALANCED, RANDOM)
    }
    assert len(set(scores.values())) == 1


def test_trivial_baselines_ranking_on_right_branching_gold():
    # deeply right-branching golds: RB must beat LB
    text = "(S a (S b (S c (S d (S e (S f g))))))"
    golds = [parse_bracketed(text, sentence_id=k) for k in range(3)]
    rb = trivial_baselines(golds, RIGHT)
    lb = trivial_baselines(golds, LEFT)
    assert rb.f1 == 1.0
    assert lb.f1 < rb.f1


def test_random_baseline_seeded():
    golds = [parse_bracketed(TREE_C, sentence_id=k) for k in range(4)]
    a = trivial_baselines(golds, RANDOM, rng_seed=3)
    b = trivial_baselines(golds, RANDOM, rng_seed=3)
    c = trivial_baselines(golds, RANDOM, rng_seed=4)
    assert a.f1 == b.f1
    assert a.f1 != c.f1


def test_oracle_binary_perfect_on_binary_gold():
    golds = [
        parse_bracketed("(S (A a (B b c)) (C d e))", sentence_id=0),
        parse_bracketed("(S (A a b) (B c d))", sentence_id=1),
    ]
    report = oracle_binary(golds)
    assert report.f1 == 1.0


def test_oracle_binary_flat_gold():
    gold = parse_bracketed("(S a b c)")
    tree = oracle_tree(gold)
    cfg = EvalConfig(mode=MICRO_CORPUS, exclude_trivial=False)
    report = corpus_eval([tree], [gold], cfg)
    assert report.recall == 1.0
    assert report.precision < 1.0


def test_oracle_dominates_any_chart():
    rng = np.random.default_rng(12)
    cfg = EvalConfig()
    for trial in range(25):
        n = int(rng.integers(3, 9))
        tokens = tuple(f"t{p}" for p in range(n))
        gold_spans = random_spans(n, rng)
        gold = parse_bracketed(
            _spans_to_bracketed(tokens, gold_spans), sentence_id=trial
        )
        oracle_f1 = sentence_f1(oracle_tree(gold), gold, cfg)
        chart = ScoreChart(n=n, cells=rng.random((n, n)))
        decoded = cyk_decode(chart, gold.sentence)
        assert sentence_f1(decoded, gold, cfg) <= oracle_f1 + 1e-12


def _spans_to_bracketed(tokens, spans):
    def render(i, j):
        if i == j:
            return tokens[i]
        for k in range(i, j):
            if (i == k or Span(i, k) in spans) and (
                k + 1 == j or Span(k + 1, j) in spans
            ):
                return f"(X {render(i, k)} {render(k + 1, j)})"
        raise AssertionError("span set is not a binary tree")

    return render(0, len(tokens) - 1)


def test_report_json_round_trip():
    gold = parse_bracketed(TREE_C)
    report = corpus_eval([binary(TREE_A)], [gold])
    # report.json holds every field: the report is rebuilt from it
    raw = json.loads(report.to_json())
    assert EvalReport(**{**raw, "per_sentence": tuple(raw["per_sentence"])}) == report


def test_render_report_and_tsv():
    golds = [
        parse_bracketed("(S (NP a b) c)", sentence_id=0),
        parse_bracketed(TREE_C, sentence_id=1),
    ]
    preds = [binary("(S (NP a b) c)"), binary(TREE_A)]
    report = corpus_eval(preds, golds)
    text = render_report(report)
    assert "f1" in text and "NP" in text
    buckets = render_length_buckets_tsv(report)
    assert buckets.splitlines()[0] == "bucket\tf1"
    per = render_per_sentence_tsv(report)
    assert len(per.splitlines()) == 3


# gold trees with flat nodes, unary nodes over one token, a unary chain
# that repeats a span, and one- and two-token sentences
SHARED_GOLDS = (
    "(S (NP (DT the) (NN dog)) (VP (VBD ran) (ADVP (RB fast))))",
    "(S (A a) (B b) (C c) (D d) (E e))",
    "(S (NP (NP (DT a) (NN b))) (VP (V c) (NP (N d))))",
    "(S (X hi))",
    "(S (NP x y z) (VP (V w)))",
    "(S (A a) (B b))",
    TREE_C,
)


def _shared_golds():
    return [parse_bracketed(text, k) for k, text in enumerate(SHARED_GOLDS)]


def _reference_eval(preds, golds, cfg):
    """Headline (p, r, f1), per-sentence rows, label recall, length
    buckets and the evalb cutoff section, walking each gold tree with
    labeled_spans at every use and holding spans as Span objects."""
    rows = []
    pooled = [0, 0, 0]
    cut_pooled = [0, 0, 0]
    found, total = Counter(), Counter()
    by_bucket = {}
    for index, (pred, gold) in enumerate(zip(preds, golds)):
        n = len(gold.sentence)
        if cfg.max_len is not None and n > cfg.max_len:
            continue

        def keep(sp):
            return sp.length >= 2 and not (cfg.exclude_trivial and sp.length == n)

        gold_spans = [sp for _, sp in labeled_spans(gold) if keep(sp)]
        if cfg.dedup_spans:
            gold_spans = list(set(gold_spans))
        pred_spans = [sp for sp in pred.spans if keep(sp)]
        matched = sum((Counter(pred_spans) & Counter(gold_spans)).values())
        counts = (matched, len(pred_spans), len(gold_spans))
        pooled = [a + b for a, b in zip(pooled, counts)]
        if n <= CUTOFF_LEN:
            cut_pooled = [a + b for a, b in zip(cut_pooled, counts)]
        rows.append((index, n, *_reference_prf(*counts)))
        # the bucket of width w that holds n starts at 1 + a multiple of w
        lo = n - (n - 1) % cfg.bucket_width
        by_bucket.setdefault(lo, []).append(rows[-1][-1])
        for label, sp in labeled_spans(gold):
            if sp.length >= 2:
                total[label] += 1
                found[label] += sp in pred.spans
    if cfg.mode == MACRO_SENTENCE:
        headline = tuple(statistics.fmean(col) for col in list(zip(*rows))[2:])
    else:
        headline = _reference_prf(*pooled)
    buckets = {
        f"{lo}-{lo + cfg.bucket_width - 1}": statistics.fmean(by_bucket[lo])
        for lo in sorted(by_bucket)
    }
    cutoff = None
    if cfg.mode == EVALB_STYLE:
        cutoff = dict(
            zip(("precision", "recall", "f1"), _reference_prf(*cut_pooled)),
            max_len=CUTOFF_LEN,
            sentences=sum(n <= CUTOFF_LEN for _, n, *_ in rows),
        )
    labels = {label: found[label] / total[label] for label in total}
    return headline, rows, labels, buckets, cutoff


def _reference_prf(matched, pred_total, gold_total):
    if pred_total == 0 and gold_total == 0:
        return 1.0, 1.0, 1.0
    p = matched / pred_total if pred_total else 0.0
    r = matched / gold_total if gold_total else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def _assert_matches_reference(report, preds, golds, cfg):
    headline, rows, label_recall, buckets, cutoff = _reference_eval(preds, golds, cfg)
    assert (report.precision, report.recall, report.f1) == pytest.approx(
        headline, abs=1e-12
    )
    got = [
        (r["index"], r["length"], r["precision"], r["recall"], r["f1"])
        for r in report.per_sentence
    ]
    assert got == pytest.approx(rows, abs=1e-12)
    assert report.per_label_recall == pytest.approx(label_recall, abs=1e-12)
    assert report.length_buckets == pytest.approx(buckets, abs=1e-12)
    if cutoff is None:
        assert report.cutoff_section is None
    else:
        assert report.cutoff_section == pytest.approx(cutoff, abs=1e-12)


# Gold trees whose unary chains repeat a span: a phrasal node over a
# single phrasal child, or S over a single preterminal (a one-token
# sentence).
_gold_node = st.recursive(
    st.sampled_from(["a", "b", "c"]).map(lambda w: f"(T {w})"),
    lambda kids: st.tuples(
        st.sampled_from(["NP", "VP", "X"]), st.lists(kids, min_size=1, max_size=3)
    ).map(lambda t: f"({t[0]} {' '.join(t[1])})"),
    max_leaves=8,
)


@pytest.mark.parametrize(
    "cfg",
    [
        EvalConfig(),
        EvalConfig(mode=MICRO_CORPUS),
        EvalConfig(mode=EVALB_STYLE),
        EvalConfig(exclude_trivial=False, dedup_spans=False),
        EvalConfig(max_len=3),
    ],
    ids=["macro", "micro", "evalb", "keep_all", "max_len_3"],
)
@settings(max_examples=40, deadline=None)
@given(
    st.lists(_gold_node.map(lambda t: f"(S {t})"), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_shared_gold_spans_match_per_use_reference(cfg, generated, pred_seed):
    golds = _shared_golds()
    golds += [parse_bracketed(text, len(golds) + k) for k, text in enumerate(generated)]
    rng = np.random.default_rng((5, pred_seed))
    preds = [
        BinaryTree(sentence=g.sentence, spans=random_spans(len(g.sentence), rng))
        for g in golds
    ]
    # the same gold objects serve every score, in the order eval runs them
    _assert_matches_reference(corpus_eval(preds, golds, cfg), preds, golds, cfg)
    builders = {
        LEFT: left_branching_spans,
        RIGHT: right_branching_spans,
        BALANCED: balanced_spans,
    }
    for which in (LEFT, RIGHT, BALANCED, RANDOM):
        base = []
        for k, g in enumerate(golds):
            n = len(g.sentence)
            if which == RANDOM:
                spans = random_spans(n, np.random.default_rng((2, k)))
            else:
                spans = builders[which](n)
            base.append(BinaryTree(sentence=g.sentence, spans=spans))
        report = trivial_baselines(golds, which, cfg, rng_seed=2)
        _assert_matches_reference(report, base, golds, cfg)
    oracle_preds = []
    for g in golds:
        n = len(g.sentence)
        cells = np.zeros((n, n))
        for _, sp in labeled_spans(g):
            cells[sp.i, sp.j] = 1.0
        oracle_preds.append(cyk_decode(ScoreChart(n=n, cells=cells), g.sentence))
    _assert_matches_reference(oracle_binary(golds, cfg), oracle_preds, golds, cfg)


def test_eval_walks_each_gold_tree_once(monkeypatch):
    import bootparse.evaluation
    import bootparse.treebank

    calls = Counter()
    original = bootparse.treebank.labeled_spans

    def counting(tree):
        calls[id(tree)] += 1
        return original(tree)

    monkeypatch.setattr(bootparse.treebank, "labeled_spans", counting)
    monkeypatch.setattr(bootparse.evaluation, "labeled_spans", counting, raising=False)
    golds = _shared_golds()
    preds = [oracle_tree(g) for g in golds]
    corpus_eval(preds, golds)
    for which in (LEFT, RIGHT, BALANCED, RANDOM):
        trivial_baselines(golds, which)
    oracle_binary(golds)
    assert sorted(calls.values()) == [1] * len(golds)
    assert set(calls) == {id(g) for g in golds}
