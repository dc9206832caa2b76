from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootparse import scorer, treebank
from bootparse.errors import (
    ConfigError,
    ExternalScorerError,
    LengthMismatch,
    PoolExhaustedWarning,
    SingleClassInput,
    UndefinedMccWarning,
)
from bootparse.external import ExternalScorer
from bootparse.scorer import (
    BOS,
    CONCAT,
    EOS,
    PROB_EPS,
    CodeRows,
    FeatureSpace,
    SpanScorer,
    Thresholds,
    TrainingMeta,
    _all_spans,
    compute_mcc,
    example_rows,
    harvest,
    load_model,
    save_model,
    score_chart,
    select_confident,
    sigmoid,
    train,
)
from bootparse.seeds import (
    CONSTITUENT,
    DISTITUENT,
    INSIDE,
    OUTSIDE,
    VIEW_CODES,
    LabeledSet,
    LabeledSpanExample,
)
from bootparse.treebank import FILL_CELLS, Sentence, Span


def sent(sid, text):
    return Sentence(id=sid, tokens=tuple(text.split()))


@dataclass
class ConstantScorer:
    """Test double / fusion identity: the same score for every span."""

    value: float
    view: str = OUTSIDE

    def score_spans(self, sentence, spans):
        return np.full(len(list(spans)), self.value)


def score_span(model, sentence, span):
    return float(model.score_spans(sentence, [span])[0])


def expit(z):
    """The logistic function one value at a time: 1 / (1 + exp(-x)) with
    numpy's exp of each value of z, 0 where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        return np.array([1 / (1 + np.exp(-x)) for x in np.ravel(z)]).reshape(np.shape(z))


def libm_expit(z):
    """The logistic function with the C library's exp, math.exp, as
    sigmoid computed it before it used numpy's; 0 where exp(-x) overflows."""
    out = []
    for x in np.ravel(z).tolist():
        try:
            out.append(1 / (1 + math.exp(-x)))
        except OverflowError:
            out.append(0.0)
    return np.array(out).reshape(np.shape(z))


# --- the per-span feature dicts, the reference for the id path ---


def _length_bin(length):
    """The len= bin of a span length, as its name reads it."""
    return scorer._LENGTH_BINS[int(scorer._bin_start(length))]


def featurize(sentence, span, view):
    """Sparse feature map for one span under one view.

    The inside view reads the covered tokens x_i .. x_j.  The outside
    view reads only the bordering tokens x_{i-1} and x_{j+1}, with the
    sentinels <s> and </s> at the sentence edges, so any two spans with
    the same borders get identical features.  The concat view joins both.
    """
    if span.j >= len(sentence):
        raise ValueError(f"span {span} outside sentence {sentence.id}")
    if view == CONCAT:
        feats = featurize(sentence, span, INSIDE)
        feats.update(featurize(sentence, span, OUTSIDE))
        return feats

    feats = {}
    if view == OUTSIDE:
        left = sentence.tokens[span.i - 1] if span.i > 0 else BOS
        right = sentence.tokens[span.j + 1] if span.j + 1 < len(sentence) else EOS
        feats[f"left={left}"] = 1.0
        feats[f"right={right}"] = 1.0
        feats[f"lr={left}|{right}"] = 1.0
        if left == BOS:
            feats["bos"] = 1.0
        if right == EOS:
            feats["eos"] = 1.0
        return feats
    if view != INSIDE:
        raise ValueError(f"unknown view {view!r}")

    toks = sentence.tokens[span.i : span.j + 1]
    for tok in toks:
        key = f"u={tok}"
        feats[key] = feats.get(key, 0.0) + 1.0
    for a, b in zip(toks, toks[1:]):
        key = f"b={a}|{b}"
        feats[key] = feats.get(key, 0.0) + 1.0
    feats[f"first={toks[0]}"] = 1.0
    feats[f"last={toks[-1]}"] = 1.0
    feats[f"len={_length_bin(span.length)}"] = 1.0
    feats[f"pos={min(3, 4 * span.i // len(sentence))}"] = 1.0
    return feats


def occurrences(sentence, span, view):
    """A span's feature names in the order of its training row, a name
    once per occurrence: unigrams and bigrams in token order, then the
    rest of featurize's inside features, then its outside ones."""
    names = []
    if view != OUTSIDE:
        toks = sentence.tokens[span.i : span.j + 1]
        names += [f"u={tok}" for tok in toks] + [f"b={a}|{b}" for a, b in zip(toks, toks[1:])]
        names += [k for k in featurize(sentence, span, INSIDE) if not k.startswith(("u=", "b="))]
    if view != INSIDE:
        names += list(featurize(sentence, span, OUTSIDE))
    return names


class DictFeatureSpace:
    """Maps rows of feature names to columns: numbered in order of first
    occurrence, unseen features dropped."""

    def __init__(self, names=()):
        self.names = list(names)
        self.index = {name: k for k, name in enumerate(self.names)}

    def fit(self, rows):
        for row in rows:
            for name in row:
                if name not in self.index:
                    self.index[name] = len(self.names)
                    self.names.append(name)
        return self

    def transform(self, rows):
        """Rows of names, a name once per occurrence, as CodeRows of
        columns, one row at a time: each known name's column in the
        row's order, then the bias column, len(names)."""
        cols, indptr = [], [0]
        for row in rows:
            cols += [self.index[name] for name in row if name in self.index]
            cols.append(len(self.names))
            indptr.append(len(cols))
        return CodeRows(np.array(cols, dtype=np.int64), np.array(indptr, dtype=np.int64))


def test_inside_string_and_outside_triple():
    s = sent(0, "a b c d")
    inside = featurize(s, Span(1, 2), INSIDE)
    assert {k for k in inside if k.startswith("u=")} == {"u=b", "u=c"}
    assert (inside["first=b"], inside["last=c"]) == (1.0, 1.0)
    assert featurize(s, Span(1, 2), OUTSIDE) == {
        "left=a": 1.0, "right=d": 1.0, "lr=a|d": 1.0,
    }
    assert featurize(s, Span(0, 3), OUTSIDE) == {
        f"left={BOS}": 1.0, f"right={EOS}": 1.0, f"lr={BOS}|{EOS}": 1.0,
        "bos": 1.0, "eos": 1.0,
    }
    for view in (INSIDE, OUTSIDE, CONCAT):
        with pytest.raises(ValueError):
            featurize(s, Span(2, 4), view)


def test_inside_features_one_token_span():
    s = sent(0, "a b c")
    feats = featurize(s, Span(1, 1), INSIDE)
    assert feats["u=b"] == 1.0
    assert feats["first=b"] == 1.0
    assert feats["last=b"] == 1.0
    assert feats["len=1"] == 1.0
    assert not any(k.startswith("b=") for k in feats)


def test_inside_features_count_repeats():
    s = sent(0, "the dog saw the cat")
    feats = featurize(s, Span(0, 4), INSIDE)
    assert feats["u=the"] == 2.0
    assert feats["b=the|dog"] == 1.0


def test_outside_features_identical_for_identical_triples():
    s1 = sent(0, "the big dog ran home")
    s2 = sent(1, "the tiny cat ran home")
    # spans (1, 2) in both: left 'the', right 'ran'
    f1 = featurize(s1, Span(1, 2), OUTSIDE)
    f2 = featurize(s2, Span(1, 2), OUTSIDE)
    assert f1 == f2


def test_outside_features_blind_to_interior():
    s1 = sent(0, "a x y z b")
    s2 = sent(1, "a z x y b")  # interior permuted
    assert featurize(s1, Span(1, 3), OUTSIDE) == featurize(s2, Span(1, 3), OUTSIDE)


def test_concat_features_union():
    s = sent(0, "a b c")
    feats = featurize(s, Span(0, 1), CONCAT)
    assert "u=a" in feats and "left=<s>" in feats


def dense(rows, width):
    """Rows of columns as a dense matrix of counts, width columns wide."""
    matrix = np.zeros((rows.shape[0], width))
    np.add.at(matrix, (np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr)), rows.codes), 1.0)
    return matrix


def code_rows(*rows):
    """CodeRows of rows given as lists of feature names, each name as
    all of its codes."""
    codes = [[code for name in row for code in scorer._codes(name)] for row in rows]
    return CodeRows(
        np.array(sum(codes, []), dtype=np.int64), np.cumsum([0] + [len(r) for r in codes])
    )


def test_feature_space_vocab():
    # columns by first occurrence over the rows, repeats counted
    space = FeatureSpace().fit(code_rows(["u=a", "len=2"], ["u=b", "u=b", "u=a"]))
    assert space.names == ["u=a", "len=2", "u=b"]
    # each occurrence's column, in row order, then the bias column 3;
    # unseen codes dropped, also from a row that holds nothing else
    rows = space.transform(
        code_rows(["u=b", "u=unseen", "u=b"], [], ["len=2", "u=a"], ["b=un|seen", "u=unseen"])
    )
    assert rows.shape == (4,)
    assert rows.codes.tolist() == [2, 2, 3, 3, 1, 0, 3, 3]
    assert rows.indptr.tolist() == [0, 3, 4, 7, 8]
    # only an empty space is fit
    with pytest.raises(ValueError):
        space.fit(code_rows(["u=c", "u=a"]))
    assert space.names == ["u=a", "len=2", "u=b"]
    # the two codes of one name, bigrams (a|b, c) and (a, b|c), share a column
    space = FeatureSpace().fit(code_rows(["u=a"], ["b=a|b|c"]))
    assert space.names == ["u=a", "b=a|b|c"]
    assert space.transform(code_rows(["b=a|b|c"])).codes.tolist() == [1, 1, 2]


def test_fit_drops_an_index_built_before_it():
    space = FeatureSpace()
    rows = code_rows(["u=a", "b=a|b|c"])
    assert space.columns(rows.codes).tolist() == [-1, -1, -1]
    space.fit(rows)
    assert space.columns(rows.codes).tolist() == [0, 1, 1]


@pytest.mark.parametrize("view", [INSIDE, OUTSIDE, CONCAT])
def test_fit_code_index_matches_index_of_names(view):
    # A fitted space reads every code of its rows and the unseen codes
    # of names with several as the space of its names alone does, as
    # for a loaded space; tolerance 0.  The rows see one of the two
    # bigrams of b=a|b|c and a length of every bin, and hold literal
    # <s> and </s> tokens.
    corpus = [
        Sentence(0, ("a|b", "c", BOS, "x|y|z", "y", EOS)),
        Sentence(1, tuple(f"w{k % 4}" for k in range(15))),
        Sentence(2, SENTINELS),
    ]
    lengths = (1, 2, 3, 4, 5, 7, 10, 13, 15)
    examples = [
        LabeledSpanExample(s.id, Span(i, i + length - 1), [CONSTITUENT, DISTITUENT][i % 2], view)
        for s in corpus
        for length in lengths
        for i in range(len(s) - length + 1)
    ]
    by_id = {s.id: s for s in corpus}
    rows = example_rows(examples, by_id, view)
    space = FeatureSpace().fit(rows)
    names = set(space.names)
    if view != OUTSIDE:
        assert {"b=a|b|c", "len=6-8", "len=9-12", "len=13+", "u=<s>"} <= names
        assert {f"len={k}" for k in range(1, 6)} <= names
    else:
        assert {"lr=c|x|y|z", "left=<s>", "right=</s>", "bos", "eos"} <= names
    unseen = scorer._codes("b=a|b|c")
    codes = np.concatenate((rows.codes, unseen))
    got = space.columns(codes)
    assert np.array_equal(got, FeatureSpace(names=space.names).columns(codes))
    assert (got[: len(rows.codes)] >= 0).all()
    if view != OUTSIDE:
        assert len(unseen) == 2
        assert (space.columns(np.array(unseen)) >= 0).all()


def make_toy_examples(n_each=40):
    # constituents contain token A, distituents token B
    corpus = []
    examples = []
    for k in range(n_each):
        corpus.append(Sentence(id=2 * k, tokens=("A", f"w{k % 7}")))
        corpus.append(Sentence(id=2 * k + 1, tokens=("B", f"w{k % 7}")))
        examples.append(LabeledSpanExample(2 * k, Span(0, 1), CONSTITUENT, INSIDE))
        examples.append(LabeledSpanExample(2 * k + 1, Span(0, 1), DISTITUENT, INSIDE))
    return corpus, examples


def test_train_separable_toy():
    corpus, examples = make_toy_examples()
    model = train(examples, corpus, INSIDE)
    assert model.val_metrics["val_accuracy"] == 1.0
    assert score_span(model, Sentence(id=900, tokens=("A", "w0")), Span(0, 1)) > 0.9
    assert score_span(model, Sentence(id=901, tokens=("B", "w0")), Span(0, 1)) < 0.1


def test_train_single_class_raises():
    corpus, examples = make_toy_examples()
    only_pos = [ex for ex in examples if ex.label == CONSTITUENT]
    with pytest.raises(SingleClassInput):
        train(only_pos, corpus, INSIDE)
    with pytest.raises(SingleClassInput):
        train([], corpus, INSIDE)


def test_train_rejects_view_mismatch():
    corpus, examples = make_toy_examples()
    with pytest.raises(ValueError):
        train(examples, corpus, OUTSIDE)


def test_train_deterministic():
    corpus, examples = make_toy_examples()
    m1 = train(examples, corpus, INSIDE, TrainingMeta(rng_seed=3))
    m2 = train(examples, corpus, INSIDE, TrainingMeta(rng_seed=3))
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias
    m3 = train(examples, corpus, INSIDE, TrainingMeta(rng_seed=4))
    assert not np.array_equal(m1.weights, m3.weights)


@pytest.mark.parametrize("scale", [1, 10, 100, 400])
def test_sigmoid_matches_expit_bits(scale):
    # the array form against the same expression one value at a time, to
    # the bit, and within 1e-15 relative of the C library's exp where the
    # result is a normal number
    z = np.random.default_rng(scale).normal(scale=scale, size=200_000)
    got = sigmoid(z)
    assert np.array_equal(got.view(np.int64), expit(z).view(np.int64))
    normal = z > -700
    assert np.max(np.abs(got[normal] / libm_expit(z[normal]) - 1)) <= 1e-15


def test_sigmoid_matches_expit_at_edges():
    z = np.array([-1000, -745.2, -709.79, -709.78, -0.0, 0.0, 37, 38, 1000])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(z)
    assert np.array_equal(got.view(np.int64), expit(z).view(np.int64))
    assert got[0] == 0.0 and 0.0 < got[3] < 1e-300 and got[-1] == 1.0
    assert sigmoid(np.empty(0)).shape == (0,)


def test_untrained_model_scores_half():
    space = FeatureSpace(names=["u=a"])
    model = SpanScorer(
        view=INSIDE,
        space=space,
        weights=np.zeros(space.dim),
        bias=0.0,
        meta=TrainingMeta(),
    )
    assert score_span(model, sent(0, "a b"), Span(0, 1)) == 0.5


def test_scores_stay_in_open_interval():
    space = FeatureSpace(names=["u=a"])
    model = SpanScorer(
        view=INSIDE,
        space=space,
        weights=np.array([1000.0]),
        bias=500.0,
        meta=TrainingMeta(),
    )
    p = score_span(model, sent(0, "a a a"), Span(0, 2))
    assert 0.0 < p < 1.0


def test_score_chart_product_and_renormalize():
    s = sent(0, "a b")
    pair = (ConstantScorer(0.8, view=INSIDE), ConstantScorer(0.5, view=OUTSIDE))
    chart = score_chart(pair, s)
    assert chart.cells[0, 1] == pytest.approx(0.4)
    renorm = score_chart(pair, s, renormalize=True)
    assert renorm.cells[0, 1] == pytest.approx(0.8)


def test_score_chart_identity_fusion():
    corpus, examples = make_toy_examples()
    model = train(examples, corpus, INSIDE)
    s = Sentence(id=500, tokens=("A", "w1", "B", "w2"))
    alone = score_chart(model, s)
    fused = score_chart((model, ConstantScorer(1.0, view=OUTSIDE)), s)
    assert np.allclose(alone.cells, fused.cells, atol=1e-12)


def test_score_chart_rejects_misordered_pair():
    with pytest.raises(ValueError):
        score_chart(
            (ConstantScorer(0.5, view=OUTSIDE), ConstantScorer(0.5, view=INSIDE)),
            sent(0, "a b"),
        )


def test_select_confident_thresholds_strict():
    corpus = [sent(0, "A q"), sent(1, "B r"), sent(2, "A B")]
    model = ConstantScorer(0.7, view=INSIDE)
    with pytest.warns(PoolExhaustedWarning):
        const, dist = select_confident(
            model, corpus, Thresholds(tau_min=0.2, tau_max=0.6), c=10, d=10
        )
    assert len(const) == 3 and not dist  # 0.7 > 0.6, never < 0.2
    with pytest.warns(PoolExhaustedWarning):
        const, dist = select_confident(
            model, corpus, Thresholds(tau_min=0.2, tau_max=1.0), c=1, d=1
        )
    assert not const and not dist  # nothing exceeds 1.0, nothing below 0.2


def test_select_confident_boundary_not_included():
    model = ConstantScorer(0.6, view=INSIDE)
    with pytest.warns(PoolExhaustedWarning):
        const, dist = select_confident(
            model,
            [sent(0, "a b")],
            Thresholds(tau_min=0.6, tau_max=0.6 + 1e-9),
            c=5,
            d=5,
        )
    assert not const and not dist  # equal to a threshold never qualifies


def test_select_confident_sampling_deterministic():
    corpus = [sent(k, "A b c d") for k in range(30)]
    model = ConstantScorer(0.99, view=INSIDE)
    th = Thresholds(tau_min=0.1, tau_max=0.9)
    got1, _ = select_confident(model, corpus, th, c=10, d=0, rng_seed=5)
    got2, _ = select_confident(model, corpus, th, c=10, d=0, rng_seed=5)
    assert got1 == got2
    got3, _ = select_confident(model, corpus, th, c=10, d=0, rng_seed=6)
    assert got3 != got1
    # output follows corpus order
    ids = [ex.sentence_id for ex in got1]
    assert ids == sorted(ids)


def test_select_confident_whole_pool_when_small():
    corpus = [sent(0, "a b c")]
    model = ConstantScorer(0.99, view=INSIDE)
    with pytest.warns(PoolExhaustedWarning):
        const, _ = select_confident(
            model, corpus, Thresholds(0.1, 0.9), c=100, d=0
        )
    # spans of length >= 2: (0,1), (1,2), (0,2); each exactly once
    assert len(const) == 3
    assert len({(e.sentence_id, e.span) for e in const}) == 3


def test_thresholds_validation():
    with pytest.raises(ValueError):
        Thresholds(tau_min=0.9, tau_max=0.1)
    Thresholds(tau_min=0.0, tau_max=1.0)  # boundary values are allowed


def test_compute_mcc_hand_values():
    assert compute_mcc([1, 1, 0, 1], [1, 1, 0, 0]) == pytest.approx(2 / np.sqrt(12))
    assert compute_mcc([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0
    assert compute_mcc([0, 1, 0, 1], [1, 0, 1, 0]) == -1.0


def test_compute_mcc_undefined():
    with pytest.warns(UndefinedMccWarning):
        assert compute_mcc([1, 1, 1], [1, 0, 1]) == 0.0
    with pytest.raises(LengthMismatch):
        compute_mcc([1, 0], [1])


def test_model_round_trip(tmp_path):
    corpus, examples = make_toy_examples()
    model = train(examples, corpus, INSIDE)
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert again.view == model.view
    assert np.array_equal(again.weights, model.weights)
    assert again.space.names == model.space.names
    assert again.meta == model.meta
    assert again.example_count == model.example_count == len(examples)
    s = Sentence(id=700, tokens=("A", "w3"))
    assert score_span(again, s, Span(0, 1)) == score_span(model, s, Span(0, 1))


def test_model_format_version_checked(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(ValueError):
        load_model(path)


def test_names_of_no_feature_load_and_score_nothing(tmp_path):
    # len=7, pos=9 and len=x name no feature: a model file that lists
    # them loads, and scores exactly as it does without them
    model = random_model(CONCAT)
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    names, weights = payload["feature_space"]["names"], payload["weights"]
    for at, name in ((0, "len=7"), (5, "pos=9"), (len(names), "len=x")):
        names.insert(at, name)
        weights.insert(at, 1.5)
    path.write_text(json.dumps(payload))
    padded = load_model(path)
    assert padded.space.dim == model.space.dim + 3
    for s in parity_sentences():
        spans = _all_spans(len(s), min_len=1)
        assert padded.score_spans(s, spans).tolist() == model.score_spans(s, spans).tolist()


def test_save_model_stable_bytes(tmp_path):
    corpus, examples = make_toy_examples()
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(train(examples, corpus, INSIDE), p1)
    save_model(train(examples, corpus, INSIDE), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_model_refuses_non_finite_values(tmp_path):
    corpus, examples = make_toy_examples()
    model = train(examples, corpus, INSIDE)
    path = tmp_path / "model.json"
    for broken in (replace(model, bias=math.nan), replace(model, weights=model.weights * math.inf)):
        with pytest.raises(ValueError):
            save_model(broken, path)
        assert not path.exists()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from("a b c d".split()), min_size=3, max_size=8),
    st.data(),
)
def test_outside_permutation_property(tokens, data):
    s1 = Sentence(id=0, tokens=tuple(tokens))
    n = len(tokens)
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    interior = list(tokens[i : j + 1])
    data.draw(st.randoms()).shuffle(interior)
    permuted = tokens[:i] + interior + tokens[j + 1 :]
    s2 = Sentence(id=1, tokens=tuple(permuted))
    assert featurize(s1, Span(i, j), OUTSIDE) == featurize(s2, Span(i, j), OUTSIDE)


# --- closed-form scoring against the per-span feature path ---

# "|" and "=" inside tokens make feature names like b=a|b|c ambiguous;
# literal sentinel tokens switch on the bos/eos features mid-sentence
PARITY_VOCAB = ["a", "b", "c", "a|b", "b|c", "|", "=", "x=y", BOS, EOS]


def reference_scores(model, sentence, spans):
    """The per-span path: feature names -> feature row -> dot product."""
    rows = [occurrences(sentence, sp, model.view) for sp in spans]
    x = dense(DictFeatureSpace(model.space.names).transform(rows), model.space.dim + 1)
    z = x @ np.append(model.weights, model.bias)
    return np.clip(expit(z), PROB_EPS, 1.0 - PROB_EPS)


def random_tokens(rng, vocab, n):
    return tuple(vocab[k] for k in rng.integers(0, len(vocab), n))


def random_model(view, seed=0):
    """Random weights over the features of a small random corpus."""
    rng = np.random.default_rng(seed)
    space = DictFeatureSpace()
    for k in range(30):
        s = Sentence(id=k, tokens=random_tokens(rng, PARITY_VOCAB, rng.integers(1, 13)))
        space.fit(
            featurize(s, Span(i, j), view)
            for i in range(len(s))
            for j in range(i, len(s))
        )
    return SpanScorer(
        view=view,
        space=FeatureSpace(names=space.names),
        weights=rng.normal(scale=0.3, size=len(space.names)),
        bias=float(rng.normal()),
        meta=TrainingMeta(),
    )


def parity_sentences():
    """Lengths 1 to 40, with tokens the models never saw."""
    rng = np.random.default_rng(7)
    vocab = PARITY_VOCAB + ["unseen", "un|seen", "un=seen"]
    return [
        Sentence(id=n, tokens=random_tokens(rng, vocab, n)) for n in range(1, 41)
    ]


@pytest.mark.parametrize("view", [INSIDE, OUTSIDE, CONCAT])
def test_score_spans_matches_feature_path(view):
    model = random_model(view)
    for s in parity_sentences():
        n = len(s)
        spans = [Span(i, j) for i in range(n) for j in range(i, n)]
        got = model.score_spans(s, spans)
        assert np.max(np.abs(got - reference_scores(model, s, spans))) <= 1e-12
        assert model.score_spans(s, []).shape == (0,)


def test_first_scoring_finds_names_never_interned():
    # A model's names find the ids of tokens first numbered by a table
    # that another model's scoring built and shares; a sentence's table
    # finds the ids of tokens first numbered by a model's names.
    s = sent(0, "firstuse")
    assert "firstuse" not in scorer._TOKEN_IDS
    random_model(INSIDE).score_spans(s, [Span(0, 0)])
    assert "firstuse" in scorer._TOKEN_IDS
    space = FeatureSpace(names=["u=firstuse", "len=1", "u=namedfirst"])
    model = SpanScorer(INSIDE, space, np.array([2.0, -0.5, 1.5]), 0.25, TrainingMeta())
    got = model.score_spans(s, [Span(0, 0)])
    assert got.tolist() == sigmoid(np.array([1.75])).tolist()
    assert "namedfirst" in scorer._TOKEN_IDS
    got = model.score_spans(sent(1, "namedfirst"), [Span(0, 0)])
    assert got.tolist() == sigmoid(np.array([1.25])).tolist()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(PARITY_VOCAB), min_size=1, max_size=12))
def test_codes_and_names_round_trip(tokens):
    # every code of a table, the pair of every two borders included, is
    # among the codes of its name, and a bigram or pair name has one
    # code per "|" of its key, any other name one code
    table = scorer.featurize([tuple(tokens)])[0]
    pairs = table[scorer._PAIR][:, None] + table[scorer._AFTER][None, :]
    codes = np.concatenate((table[: scorer._AFTER].ravel(), pairs.ravel()))
    for code in codes[codes >= 0].tolist():
        name = scorer._name(code)
        assert code in scorer._codes(name)
        if name.startswith(("b=", "lr=")):
            assert len(scorer._codes(name)) == name.partition("=")[2].count("|")
        else:
            assert len(scorer._codes(name)) == 1


def test_name_has_one_code_but_bar_bigrams_and_pairs():
    # _codes(_name(code)) is [code] for every code of a table of up to 40
    # tokens, the pair of every two borders included, but a bigram or
    # pair code one of whose tokens holds "|"
    rng = np.random.default_rng(3)
    fixed = set()
    for n in range(1, 41):
        table = scorer.featurize([random_tokens(rng, PARITY_VOCAB, n)])[0]
        pairs = table[scorer._PAIR][:, None] + table[scorer._AFTER][None, :]
        codes = np.concatenate((table[: scorer._AFTER].ravel(), pairs.ravel()))
        for code in codes[codes >= 0].tolist():
            template, tokens = divmod(code, scorer._BASE * scorer._BASE)
            first, second = divmod(tokens, scorer._BASE)
            if template in (scorer._BIGRAM, scorer._PAIR) and any(
                "|" in scorer._TOKENS[t] for t in (first, second)
            ):
                continue
            name = scorer._name(code)
            assert scorer._codes(name) == [code], name
            if template in (scorer._LENGTH, scorer._POSITION, scorer._BOS, scorer._EOS):
                fixed.add(name)
    bins = {f"len={_length_bin(length)}" for length in range(1, 41)}
    assert fixed == bins | {f"pos={k}" for k in range(4)} | {"bos", "eos"}
    assert len(bins) == 8


@pytest.mark.parametrize("renormalize", [False, True])
def test_score_chart_pair_matches_feature_path(renormalize):
    m_in = random_model(INSIDE, seed=1)
    m_out = random_model(OUTSIDE, seed=2)
    for s in parity_sentences():
        n = len(s)
        spans = [Span(i, j) for i in range(n) for j in range(i, n)]
        p1 = reference_scores(m_in, s, spans)
        p2 = reference_scores(m_out, s, spans)
        want = p1 * p2
        if renormalize:
            want = want / (want + (1.0 - p1) * (1.0 - p2))
        cells = score_chart((m_in, m_out), s, renormalize=renormalize).cells
        assert np.max(np.abs(cells[np.triu_indices(n)] - want)) <= 1e-12
        assert not np.any(np.tril(cells, -1))


def test_score_chart_pair_builds_one_table_per_sentence(monkeypatch):
    # both models of a pair read the table score_spans built last, so a
    # parse builds each sentence's table once, scored again or not
    built = []
    featurize = scorer.featurize

    def counted(group):
        built.append(list(group))
        return featurize(group)

    monkeypatch.setattr(scorer, "featurize", counted)
    pair = (random_model(INSIDE, seed=1), random_model(OUTSIDE, seed=2))
    sentences = [sent(k, f"once{k} a b") for k in range(3)] + [sent(3, "once0 a")]
    for s in sentences:
        score_chart(pair, s)
        score_chart(pair, s, renormalize=True)
    assert built == [[s.tokens] for s in sentences]


def test_score_spans_rejects_span_beyond_sentence():
    model = random_model(INSIDE)
    with pytest.raises(ValueError):
        model.score_spans(sent(0, "a b"), [Span(1, 2)])


@pytest.mark.parametrize("view", [INSIDE, OUTSIDE, CONCAT])
def test_score_spans_span_list_matches_chart_order(view):
    # an unsorted span list with repeats, against the chart's span order
    model = random_model(view, seed=4)
    rng = np.random.default_rng(5)
    for s in parity_sentences():
        table = _all_spans(len(s), min_len=1)
        spans = list(table)
        picks = rng.integers(0, len(table), 2 * len(table))
        got = model.score_spans(s, [spans[k] for k in picks])
        assert np.array_equal(got, model.score_spans(s, table)[picks])


@pytest.mark.parametrize("view", [INSIDE, OUTSIDE, CONCAT])
def test_score_spans_span_tuple_matches_span_list(view):
    # the cached index arrays of _all_spans against the same spans as a
    # list of Spans, to the bit
    model = random_model(view, seed=6)
    for s in parity_sentences():
        for min_len in (1, 2):
            table = _all_spans(len(s), min_len)
            assert table.i.tolist() == [sp.i for sp in table]
            assert table.j.tolist() == [sp.j for sp in table]
            assert table.codes.tolist() == [sp.i * len(s) + sp.j for sp in table]
            assert not table.i.flags.writeable and not table.codes.flags.writeable
            got = model.score_spans(s, table)
            want = model.score_spans(s, list(table))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_all_spans_one_cache_entry_per_table():
    assert _all_spans(5) is _all_spans(5, 2) is _all_spans(5, min_len=2)
    assert _all_spans(5, min_len=1) is _all_spans(5, 1) is _all_spans(5, 0)
    for n in range(1, 41):
        for min_len in range(4):
            want = [(i, j) for i in range(n) for j in range(i, n) if j - i + 1 >= min_len]
            table = _all_spans(n, min_len)
            assert len(table) == len(want)
            assert list(zip(table.i.tolist(), table.j.tolist())) == want
            assert table.codes.tolist() == [i * n + j for i, j in want]
            assert not any(arr.flags.writeable for arr in (table.i, table.j, table.codes))
            assert list(table) == [Span(i, j) for i, j in want]


# --- length groups against per-sentence references ---


def reference_table(tokens):
    """featurize's table of one sentence, built on its own."""
    n = len(tokens)
    ids = np.array([scorer._token_id(tok) for tok in tokens], dtype=np.int64)
    before = np.concatenate(([0], ids[:-1]))
    after = np.concatenate((ids[1:], [1]))
    k = np.arange(n)
    base = scorer._BASE
    table = np.zeros((scorer._AFTER + 1, n), dtype=np.int64)
    table[[scorer._UNIGRAM, scorer._FIRST, scorer._LAST]] = ids
    table[scorer._BIGRAM, :-1] = ids[:-1] * base + ids[1:]
    table[scorer._LENGTH] = [max(m for m in (1, 2, 3, 4, 5, 6, 9, 13) if m <= x) for x in k + 1]
    table[scorer._POSITION] = np.minimum(3, 4 * k // n)
    table[scorer._LEFT] = before
    table[scorer._RIGHT] = after
    table[scorer._PAIR] = before * base
    table[: scorer._AFTER] += np.arange(scorer._AFTER)[:, None] * (base * base)
    table[scorer._AFTER] = after
    table[scorer._BIGRAM, -1] = -1
    table[scorer._BOS, before != 0] = -1
    table[scorer._EOS, after != 1] = -1
    return table


def reference_sentence_scores(model, table, i, j):
    """The closed form of score_spans, one sentence at a time, with the
    additions in the order the group core makes them."""
    padded = np.append(model.weights, 0.0)

    def weights(codes):
        return padded[model.space.columns(codes)]

    z = np.full(len(i), model.bias, dtype=float)
    if model.view in (INSIDE, CONCAT):
        unigram, bigram, first, last, length, position = weights(
            table[scorer._UNIGRAM : scorer._POSITION + 1]
        )
        unigrams = np.concatenate(([0.0], np.cumsum(unigram)))
        bigrams = np.concatenate(([0.0], np.cumsum(bigram[:-1])))
        z += unigrams[j + 1] - unigrams[i] + bigrams[j] - bigrams[i]
        z += first[i]
        z += last[j]
        z += length[j - i]
        z += position[i]
    if model.view in (OUTSIDE, CONCAT):
        left, right, bos, eos = weights(table[scorer._LEFT : scorer._EOS + 1])
        z += left[i]
        z += right[j]
        z += weights(table[scorer._PAIR, i] + table[scorer._AFTER, j])
        z += bos[i]
        z += eos[j]
    return np.clip(expit(z), PROB_EPS, 1.0 - PROB_EPS)


def length_groups(seed, sizes=(1, 2, 9)):
    """For each length 1-40, groups of each size of random sentences over
    the parity vocabulary, tokens no model saw and literal sentinels."""
    rng = np.random.default_rng(seed)
    vocab = PARITY_VOCAB + ["unseen", "un|seen", "|x|", BOS, EOS]
    return [
        [random_tokens(rng, vocab, n) for _ in range(size)]
        for n in range(1, 41)
        for size in sizes
    ]


def test_group_tables_match_per_sentence_tables():
    for group in length_groups(seed=12):
        tables = scorer.featurize(group)
        assert not tables.flags.writeable
        assert np.array_equal(tables, np.stack([reference_table(t) for t in group]))


@pytest.mark.parametrize("view", [INSIDE, OUTSIDE, CONCAT])
def test_group_scores_match_per_sentence_reference(view):
    # every span of each sentence, the multi-token spans and a random
    # span list with repeats, to the bit, in groups of 1, 2 and 9
    model = random_model(view, seed=13)
    rng = np.random.default_rng(14)
    for group in length_groups(seed=15):
        n = len(group[0])
        tables = scorer.featurize(group)
        picks = rng.integers(0, n, (2, 3 * n))
        for i, j in (
            (_all_spans(n, 1).i, _all_spans(n, 1).j),
            (_all_spans(n).i, _all_spans(n).j),
            (picks.min(axis=0), picks.max(axis=0)),
        ):
            got = model._group_scores(tables, i, j)
            assert got.shape == (len(group), len(i))
            for row, tokens in zip(got, group):
                want = reference_sentence_scores(model, reference_table(tokens), i, j)
                assert np.array_equal(row.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("view", [INSIDE, OUTSIDE, CONCAT])
def test_score_spans_is_a_group_of_one(view):
    model = random_model(view, seed=16)
    for group in length_groups(seed=17, sizes=(3,)):
        sentences = [Sentence(id=k, tokens=tokens) for k, tokens in enumerate(group)]
        spans = _all_spans(len(group[0]), 1)
        got = model._group_scores(scorer.featurize(group), spans.i, spans.j)
        for s, row in zip(sentences, got):
            assert np.array_equal(model.score_spans(s, spans).view(np.int64), row.view(np.int64))


@dataclass
class ScoresOnly:
    """A model with nothing but score_spans, which it takes from another."""

    model: SpanScorer
    calls: int = 0

    @property
    def view(self):
        return self.model.view

    def score_spans(self, sentence, spans):
        self.calls += 1
        return self.model.score_spans(sentence, list(spans))


def reference_pools(model, corpus, thresholds):
    """confidence_pools one sentence at a time, in corpus order: each
    pool's (pos, i, j) rows."""
    hits = ([], [])
    for pos, s in enumerate(corpus):
        spans = list(_all_spans(len(s)))
        probs = model.score_spans(s, spans) if spans else np.empty(0)
        for found, sure in zip(hits, (probs > thresholds.tau_max, probs < thresholds.tau_min)):
            found += [(pos, spans[k].i, spans[k].j) for k in np.flatnonzero(sure).tolist()]
    return hits


def mixed_corpus(seed):
    """Shuffled sentences of lengths 1-40, some lengths often, one once."""
    rng = np.random.default_rng(seed)
    lengths = [1, 1, 2, 40, 23] + [int(n) for n in rng.integers(2, 13, 120)]
    corpus = [
        Sentence(id=k, tokens=random_tokens(rng, PARITY_VOCAB + ["unseen"], n))
        for k, n in enumerate(lengths)
    ]
    return [corpus[k] for k in rng.permutation(len(corpus))]


@pytest.mark.parametrize("cells", [1, 64, FILL_CELLS])
@pytest.mark.parametrize("view", [INSIDE, OUTSIDE])
def test_confidence_pools_match_per_sentence_reference(monkeypatch, view, cells):
    # fills of one sentence, of a few and of whole groups, for a scorer
    # and for a model that has only score_spans
    monkeypatch.setattr(treebank, "FILL_CELLS", cells)
    model = random_model(view, seed=18)
    corpus = mixed_corpus(seed=19)
    th = Thresholds(tau_min=0.5, tau_max=0.8)
    want = reference_pools(model, corpus, th)
    assert all(want)
    scores_only = ScoresOnly(model)
    for scoring in (model, scores_only):
        got = scorer.confidence_pools(scoring, corpus, th)
        assert [list(zip(*(column.tolist() for column in pool))) for pool in got] == list(want)
    assert scores_only.calls == sum(len(s) > 1 for s in corpus)


def test_confidence_pools_of_one_token_sentences_are_empty():
    model = random_model(INSIDE, seed=18)
    for corpus in ([], [sent(0, "a"), sent(1, "b")]):
        for pool in scorer.confidence_pools(model, corpus, Thresholds(0.4, 0.6)):
            assert [column.shape for column in pool] == [(0,)] * 3


# --- feature-id rows against the feature dicts ---

# b=a|b|c twice from two different bigrams, and literal sentinels
AMBIGUOUS = ("a|b", "c", "a", "b|c")
SENTINELS = (BOS, "a", EOS, "b")


def parity_examples(view):
    """Training and validation examples over the parity sentences.

    Every span of the short sentences and of the two above, spans at both
    edges and random ones of the long sentences; validation also reads a
    sentence of tokens no training example sees.
    """
    rng = np.random.default_rng(9)
    corpus = parity_sentences() + [
        Sentence(id=100, tokens=AMBIGUOUS),
        Sentence(id=101, tokens=SENTINELS),
        Sentence(id=102, tokens=("never", "seen", "a|b")),
    ]
    examples = []
    for s in corpus:
        n = len(s)
        if n <= 6:
            spans = [Span(i, j) for i in range(n) for j in range(i, n)]
        else:
            spans = [Span(0, n - 1), Span(0, 0), Span(n - 1, n - 1), Span(0, n - 2)]
            spans += [Span(*sorted(rng.integers(0, n, 2).tolist())) for _ in range(4)]
        label = [CONSTITUENT, DISTITUENT]
        examples += [LabeledSpanExample(s.id, sp, label[k % 2], view) for k, sp in enumerate(spans)]
    unseen = [ex for ex in examples if ex.sentence_id == 102]
    examples = [ex for ex in examples if ex.sentence_id != 102]
    order = rng.permutation(len(examples))
    examples = [examples[k] for k in order]
    cut = 4 * len(examples) // 5
    return corpus, examples[:cut], examples[cut:] + unseen


@pytest.mark.parametrize("view", [INSIDE, OUTSIDE, CONCAT])
def test_example_rows_match_feature_dicts(view):
    corpus, train_ex, val_ex = parity_examples(view)
    by_id = {s.id: s for s in corpus}

    def names(examples):
        return [occurrences(by_id[ex.sentence_id], ex.span, view) for ex in examples]

    reference = DictFeatureSpace().fit(names(train_ex))
    train_rows = example_rows(train_ex, by_id, view)
    space = FeatureSpace().fit(train_rows)
    assert space.names == reference.names
    assert any(name not in reference.index for row in names(val_ex) for name in row)
    # the validation rows, then one whose codes are all unseen
    unseen = ["u=never", "b=never|seen", "left=never", "lr=never|seen"]
    assert not set(unseen) & set(space.names)
    val_rows, last = example_rows(val_ex, by_id, view), code_rows(unseen)
    val_rows = CodeRows(
        np.concatenate((val_rows.codes, last.codes)),
        np.append(val_rows.indptr, val_rows.indptr[-1] + len(last.codes)),
    )
    for rows, want in ((train_rows, names(train_ex)), (val_rows, names(val_ex) + [unseen])):
        got = space.transform(rows)
        want = reference.transform(want)
        assert got.shape == want.shape
        assert np.array_equal(got.codes, want.codes)
        assert np.array_equal(got.indptr, want.indptr)
    if view != OUTSIDE:
        assert featurize(Sentence(0, AMBIGUOUS), Span(0, 3), INSIDE)["b=a|b|c"] == 2.0
        # the two codes of b=a|b|c in one row read its column twice
        rows = space.transform(train_rows)
        k = space.names.index("b=a|b|c")
        assert 2 in {np.count_nonzero(row == k) for row in np.split(rows.codes, rows.indptr[1:-1])}


def test_example_rows_reject_span_beyond_sentence():
    s = sent(0, "a b")
    with pytest.raises(ValueError, match="outside sentence 0"):
        example_rows([LabeledSpanExample(0, Span(1, 2), CONSTITUENT, INSIDE)], {0: s}, INSIDE)


def test_example_rows_and_train_reject_unknown_sentences():
    corpus = [sent(0, "a b c")]
    examples = [LabeledSpanExample(k, Span(0, 1), k % 2, INSIDE) for k in (9, 0, 3, 0)]
    match = r"examples reference unknown sentences \[3, 9\]$"
    with pytest.raises(ValueError, match=match):
        example_rows(examples, {0: corpus[0]}, INSIDE)
    with pytest.raises(ValueError, match=match):
        train(examples, corpus, INSIDE, TrainingMeta(epochs=1))


@pytest.mark.parametrize("view", [INSIDE, OUTSIDE, CONCAT])
def test_rows_of_a_reordered_set_are_its_rows_reordered(view):
    # train builds its rows in its shuffled order: they are the rows of
    # the set in set order, taken row by row in that order (tolerance 0),
    # here over 40-token sentences that span two fills
    rng = np.random.default_rng(7)
    corpus = [Sentence(k, tuple(f"w{t}" for t in range(k, k + 40))) for k in range(45)]
    corpus += [
        Sentence(45 + k, tuple(f"v{t}" for t in rng.integers(0, 9, n)))
        for k, n in enumerate([1, 2, 5, 5, 12])
    ]
    assert sum(n == 40 for n, _ in treebank.length_fills(corpus)) == 2
    by_id = {s.id: s for s in corpus}
    labeled = LabeledSet.from_rows(
        (s.id, *sorted(rng.integers(0, len(s), 2).tolist()), int(rng.integers(2)),
         VIEW_CODES[view])
        for s in corpus for _ in range(3)
    )
    order = rng.permutation(len(labeled))
    rows = example_rows(labeled, by_id, view)
    want = [rows.codes[rows.indptr[k] : rows.indptr[k + 1]] for k in order.tolist()]
    got = example_rows(LabeledSet(labeled.columns[:, order]), by_id, view)
    assert np.array_equal(got.indptr, np.cumsum([0] + [len(row) for row in want]))
    assert np.array_equal(got.codes, np.concatenate(want))


# Trains a model per view, interns an unrelated corpus (featurizing it
# and training on it) and trains the same models again.  With argv[2]
# "late" it interns the unrelated corpus first, so every id differs.
# argv[1] is the output directory.
RETRAIN_SCRIPT = """
import sys
import numpy as np
from bootparse.scorer import featurize, save_model, train
from bootparse.seeds import CONCAT, INSIDE, OUTSIDE, LabeledSpanExample
from bootparse.treebank import FILL_CELLS, Sentence, Span

def corpus_and_examples(vocab, seed):
    rng = np.random.default_rng(seed)
    corpus, examples = [], []
    for k in range(60):
        toks = tuple(vocab[t] for t in rng.integers(0, len(vocab), rng.integers(2, 9)))
        i = int(rng.integers(0, len(toks) - 1))
        j = int(rng.integers(i + 1, len(toks)))
        corpus.append(Sentence(id=k, tokens=toks))
        examples.append((k, Span(i, j), k % 2))
    return corpus, examples

def fit_all(corpus, examples, tag=None):
    for view in (INSIDE, OUTSIDE, CONCAT):
        exs = [LabeledSpanExample(k, span, label, view) for k, span, label in examples]
        model = train(exs, corpus, view)
        if tag:
            save_model(model, f"{sys.argv[1]}/{view}_{sys.argv[2]}_{tag}.json")

def intern_unrelated():
    other, other_examples = corpus_and_examples(["z", "c", "b", "y", "a", "b|c"], 1)
    for s in other:
        featurize([s.tokens[::-1]])
    fit_all(other, other_examples)

corpus, examples = corpus_and_examples(["a", "b", "c", "a|b", "<s>"], 0)
if sys.argv[2] == "late":
    intern_unrelated()
fit_all(corpus, examples, "first")
intern_unrelated()
fit_all(corpus, examples, "again")
"""


def test_interner_state_never_reaches_saved_models(tmp_path):
    # fresh processes, so the first training of one sees an empty interner
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for order in ("early", "late"):
        subprocess.run(
            [sys.executable, "-c", RETRAIN_SCRIPT, str(tmp_path), order],
            env=env, check=True,
        )
    for view in (INSIDE, OUTSIDE, CONCAT):
        first = (tmp_path / f"{view}_early_first.json").read_bytes()
        for name in ("early_again", "late_first", "late_again"):
            assert (tmp_path / f"{view}_{name}.json").read_bytes() == first


@pytest.mark.parametrize("view", [INSIDE, OUTSIDE, CONCAT])
def test_scores_unchanged_when_interner_grows(view):
    model = random_model(view, seed=6)
    sentences = parity_sentences()
    before = [model.score_spans(s, _all_spans(len(s), 1)) for s in sentences]
    grown = [f"grow{view}{k}" for k in range(1000)]
    size = len(scorer._TOKENS)
    assert [scorer._token_id(t) for t in grown] == list(range(size, size + 1000))
    assert scorer._TOKENS[size:] == grown
    fresh = Sentence(id=99, tokens=(f"fresh{view}", "a", f"fresh{view}|a"))
    spans = _all_spans(len(fresh), 1)
    assert np.max(np.abs(
        model.score_spans(fresh, spans) - reference_scores(model, fresh, spans)
    )) <= 1e-12
    for s, want in zip(sentences, before):
        assert np.array_equal(model.score_spans(s, _all_spans(len(s), 1)), want)


def number_tokens_anew(monkeypatch):
    """Give the process an empty token table, sentinels only, and an empty
    cache of the last sentence's table; both come back after the test."""
    monkeypatch.setattr(scorer, "_TOKEN_IDS", {BOS: 0, EOS: 1})
    monkeypatch.setattr(scorer, "_TOKENS", [BOS, EOS])
    table = functools.lru_cache(maxsize=1)(lambda tokens: scorer.featurize([tokens]))
    monkeypatch.setattr(scorer, "_last_table", table)


@pytest.mark.parametrize("view", [INSIDE, OUTSIDE])
def test_training_and_scores_unchanged_when_token_ids_shift(monkeypatch, view):
    # Train a set and score its sentences; then number the tokens anew,
    # featurizing a corpus of new tokens with the set's own in reverse
    # order, so that every id of the set moves and their order flips, and
    # train and score again.  The names, the weights and bias to the bit,
    # and the charts must not move.
    corpus, examples = repetitive_examples(view, 150)
    number_tokens_anew(monkeypatch)
    first = train(examples, corpus, view)
    charts = [score_chart(first, s).cells for s in corpus]
    # the set's tokens by id
    vocab = sorted("abc", key=scorer._TOKEN_IDS.get)
    ids = [scorer._TOKEN_IDS[tok] for tok in vocab]
    number_tokens_anew(monkeypatch)
    scorer.featurize([("shift0", vocab[2], "shift1", vocab[1], "shift2", vocab[0])])
    shifted = [scorer._TOKEN_IDS[tok] for tok in vocab]
    assert sorted(shifted, reverse=True) == shifted
    assert all(old != new for old, new in zip(ids, shifted))
    again = train(examples, corpus, view)
    assert again.space.names == first.space.names
    assert np.array_equal(again.weights.view(np.int64), first.weights.view(np.int64))
    assert again.bias == first.bias
    for s, want in zip(corpus, charts):
        assert np.array_equal(score_chart(again, s).cells, want)


# --- minibatch SGD against a per-row loop ---


def reference_split(examples, corpus, view, meta):
    """train()'s shuffle and split: its rng after the split, the feature
    space of the training rows, each training row as the columns of its
    feature occurrences, the validation rows as CodeRows of columns, the
    bias's last, and the labels of both."""
    by_id = {s.id: s for s in corpus}
    rng = np.random.default_rng(meta.rng_seed)
    perm = rng.permutation(len(examples))
    n_val = len(examples) // 5
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    def build(idx):
        rows = [occurrences(by_id[examples[k].sentence_id], examples[k].span, view) for k in idx]
        return rows, np.array([float(examples[k].label) for k in idx])

    train_rows, y_train = build(train_idx)
    val_rows, y_val = build(val_idx)
    space = DictFeatureSpace().fit(train_rows)
    train_cols = [[space.index[name] for name in row] for row in train_rows]
    x_val = space.transform(val_rows)
    return rng, space, train_cols, x_val, y_train, y_val


def reference_val_loss(x_val, y_val, w):
    """The validation log loss, each row's logit the weights of its
    columns summed in row order, the bias last; w ends with the bias."""
    z = []
    for k in range(x_val.shape[0]):
        logit = 0.0
        for col in x_val.codes[x_val.indptr[k] : x_val.indptr[k + 1]]:
            logit += w[col]
        z.append(logit)
    p_val = np.clip(expit(np.array(z)), PROB_EPS, 1.0 - PROB_EPS)
    return float(-np.mean(y_val * np.log(p_val) + (1.0 - y_val) * np.log(1.0 - p_val)))


def reference_train(examples, corpus, view, meta):
    """train() as a plain loop over the rows of each minibatch.

    A training row lists the column of each of its feature occurrences,
    then column dim, the bias's.  Each step sums each row's weights in
    row order into its logit, takes the logistic function of each logit,
    adds each residual into the columns of its row, row by row, then
    decays the weights but not the bias, scales the sums by
    step / size and subtracts them.  Returns the weights, the bias, the
    training rows and the lowest logit of any step.
    """
    rng, space, train_cols, x_val, y_train, y_val = reference_split(examples, corpus, view, meta)
    dim = len(space.names)
    train_cols = [row + [dim] for row in train_cols]
    step = meta.learning_rate
    decay = 1 - step * meta.l2
    w = np.zeros(dim + 1)
    best = (np.inf, w.copy())
    stale, lowest = 0, np.inf
    n, n_val = len(train_cols), len(y_val)
    for _ in range(meta.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, meta.batch_size):
            rows = order[lo : lo + meta.batch_size]
            logits = []
            for k in rows:
                logit = 0.0
                for col in train_cols[k]:
                    logit += w[col]
                logits.append(logit)
            lowest = min(lowest, *logits)
            resid = expit(np.array(logits)) - y_train[rows]
            g = np.zeros(dim + 1)
            for k, r in zip(rows, resid):
                for col in train_cols[k]:
                    g[col] += r
            w[:dim] *= decay
            g *= step / len(rows)
            w -= g
        if n_val == 0:
            continue
        val_loss = reference_val_loss(x_val, y_val, w)
        if val_loss < best[0]:
            best = (val_loss, w.copy())
            stale = 0
        else:
            stale += 1
            if stale >= 2:
                break
    if n_val > 0 and np.isfinite(best[0]):
        _, w = best
    return w[:dim], w[dim], train_cols, lowest


def old_rule_train(examples, corpus, view, meta):
    """The update rule train() ran before its bias became a column: rows
    of per-column counts, w -= step * (X^T r / size + l2 * w) and
    b -= step * mean(r), with the C library's exp.  Dense, in numpy's
    summation order, so it bounds train() and does not match its bits."""
    rng, space, train_cols, x_val, y_train, y_val = reference_split(examples, corpus, view, meta)
    x_train = np.zeros((len(train_cols), len(space.names)))
    for k, row in enumerate(train_cols):
        np.add.at(x_train[k], row, 1.0)
    w = np.zeros(len(space.names))
    b = 0.0
    best = (np.inf, w.copy(), b)
    stale = 0
    n, n_val = x_train.shape[0], len(y_val)
    for _ in range(meta.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, meta.batch_size):
            rows = order[lo : lo + meta.batch_size]
            xb = x_train[rows]
            resid = libm_expit(xb @ w + b) - y_train[rows]
            w -= meta.learning_rate * (xb.T @ resid / len(rows) + meta.l2 * w)
            b -= meta.learning_rate * float(np.mean(resid))
        if n_val == 0:
            continue
        val_loss = reference_val_loss(x_val, y_val, np.append(w, b))
        if val_loss < best[0]:
            best = (val_loss, w.copy(), b)
            stale = 0
        else:
            stale += 1
            if stale >= 2:
                break
    if n_val > 0 and np.isfinite(best[0]):
        _, w, b = best
    return w, b


def assert_near_old_rule(model, examples, corpus, view, meta):
    """train()'s weights and bias within 1e-9 of the old update rule's,
    relative to the largest of them."""
    w, b = old_rule_train(examples, corpus, view, meta)
    scale = np.max(np.abs(np.append(w, b)))
    assert np.max(np.abs(np.append(model.weights - w, model.bias - b))) <= 1e-9 * scale


def repetitive_examples(view, count, seed=0):
    """Noisy labels over spans of three-token sentences: inside features
    repeat unigrams and bigrams, so feature values of 2 and 3 occur."""
    rng = np.random.default_rng(seed)
    corpus, examples = [], []
    for k in range(count):
        s = Sentence(id=k, tokens=random_tokens(rng, ["a", "b", "c"], rng.integers(2, 10)))
        i = int(rng.integers(0, len(s) - 1))
        j = int(rng.integers(i + 1, len(s)))
        label = CONSTITUENT if (s.tokens[i] == "a") ^ (rng.random() < 0.2) else DISTITUENT
        corpus.append(s)
        examples.append(LabeledSpanExample(k, Span(i, j), label, view))
    # both classes, whatever the draw
    examples[0] = replace(examples[0], label=CONSTITUENT)
    examples[1] = replace(examples[1], label=DISTITUENT)
    return corpus, examples


@pytest.mark.parametrize("batch_size", [1, 7, 64, 500])
@pytest.mark.parametrize("view", [INSIDE, OUTSIDE])
def test_train_matches_sparse_minibatch_loop(view, batch_size):
    corpus, examples = repetitive_examples(view, 150)
    meta = TrainingMeta(batch_size=batch_size, rng_seed=2)
    model = train(examples, corpus, view, meta)
    w, b, rows, _ = reference_train(examples, corpus, view, meta)
    assert np.array_equal(model.weights, w)
    assert model.bias == b
    if view == INSIDE:
        assert {2, 3} <= {count for row in rows for count in Counter(row).values()}
    assert_near_old_rule(model, examples, corpus, view, meta)


@pytest.mark.parametrize("batch_size", [1, 3, 64])
@pytest.mark.parametrize("view", [INSIDE, OUTSIDE])
def test_train_matches_sparse_minibatch_loop_without_validation(view, batch_size):
    corpus, examples = repetitive_examples(view, 4, seed=5)
    meta = TrainingMeta(batch_size=batch_size, epochs=7)
    model = train(examples, corpus, view, meta)
    assert model.val_metrics == {}
    w, b, _, _ = reference_train(examples, corpus, view, meta)
    assert np.array_equal(model.weights, w)
    assert model.bias == b


@pytest.mark.parametrize("view", [INSIDE, OUTSIDE, CONCAT])
def test_val_loss_matches_row_order_loss(view):
    # tolerance 0: the loss of the trained weights and bias over the
    # validation rows, summed in row order with the bias last, where
    # some validation rows hold features that no training row holds
    rng = np.random.default_rng(4)
    corpus = [Sentence(k, random_tokens(rng, PARITY_VOCAB, rng.integers(2, 12))) for k in range(80)]
    label = [CONSTITUENT, DISTITUENT]
    spans = [Span(*sorted(rng.integers(0, len(s), 2).tolist())) for s in corpus]
    examples = [
        LabeledSpanExample(s.id, sp, label[k % 2], view)
        for k, (s, sp) in enumerate(zip(corpus, spans))
    ]
    meta = TrainingMeta(batch_size=8, rng_seed=3)
    model = train(examples, corpus, view, meta)
    _, space, _, x_val, _, y_val = reference_split(examples, corpus, view, meta)
    assert model.space.names == space.names
    by_id = {s.id: s for s in corpus}
    assert any(
        name not in space.index
        for ex in examples
        for name in occurrences(by_id[ex.sentence_id], ex.span, view)
    )
    want = reference_val_loss(x_val, y_val, np.append(model.weights, model.bias))
    assert model.val_metrics["val_loss"] == want


@pytest.mark.parametrize("view", [INSIDE, OUTSIDE])
def test_train_matches_sparse_minibatch_loop_when_exp_overflows(view):
    # a large learning rate drives logits below -709.78, where exp(-z)
    # overflows and the logistic function reads 0; train's logits are the
    # reference's, since its weights are, to the bit
    corpus, examples = repetitive_examples(view, 150)
    meta = TrainingMeta(batch_size=7, learning_rate=400.0, rng_seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train(examples, corpus, view, meta)
    w, b, _, lowest = reference_train(examples, corpus, view, meta)
    assert lowest < -710
    assert np.all(np.isfinite(w))
    assert np.array_equal(model.weights.view(np.int64), w.view(np.int64))
    assert model.bias == b
    assert_near_old_rule(model, examples, corpus, view, meta)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("overrides", [{"learning_rate": 1e308, "l2": 0}, {"l2": 1e6}])
def test_train_that_diverges_is_a_config_error(overrides):
    # a step too large for the data overflows the weights; a decay
    # 1 - learning_rate * l2 of 0 or below is refused before any step
    corpus, examples = repetitive_examples(INSIDE, 150)
    meta = TrainingMeta(batch_size=1, **overrides)
    why = "diverged to non-finite weights" if meta.l2 == 0 else r"\* training\.l2 is 500000,"
    end = r".*; lower training\.learning_rate or training\.l2$"
    with pytest.raises(ConfigError, match=why + end):
        train(examples, corpus, INSIDE, meta)


@pytest.mark.parametrize("view", [INSIDE, OUTSIDE])
def test_batch_of_the_rows_or_more_is_one_batch(view):
    corpus, examples = repetitive_examples(view, 150)
    rows = len(examples) - len(examples) // 5
    want = train(examples, corpus, view, TrainingMeta(batch_size=rows))
    for batch_size in (rows + 1, 2**63, 2**80):
        got = train(examples, corpus, view, TrainingMeta(batch_size=batch_size))
        assert np.array_equal(got.weights.view(np.int64), want.weights.view(np.int64))
        assert (got.bias, got.val_metrics) == (want.bias, want.val_metrics)


@pytest.mark.parametrize(
    "field, value",
    [("epochs", 0), ("epochs", 2.5), ("epochs", True), ("batch_size", 0),
     ("batch_size", "64"), ("learning_rate", 0), ("learning_rate", "x"),
     ("learning_rate", float("inf")), ("learning_rate", 10**400), ("l2", -1e-9),
     ("l2", float("nan")), ("l2", False)],
)
def test_training_meta_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        TrainingMeta(**{field: value})
    TrainingMeta(learning_rate=1, l2=0)  # ints and a zero penalty are fine


# --- confident pools against list-building pools ---


def reference_harvest(model, corpus, thresholds, c, d, rng):
    """Confident examples sampled from pools of built examples."""
    pools = {CONSTITUENT: [], DISTITUENT: []}
    for s in corpus:
        n = len(s)
        spans = [Span(i, j) for i in range(n) for j in range(i + 1, n)]
        if not spans:
            continue
        for sp, p in zip(spans, model.score_spans(s, spans)):
            if p > thresholds.tau_max:
                pools[CONSTITUENT].append(LabeledSpanExample(s.id, sp, CONSTITUENT, model.view))
            elif p < thresholds.tau_min:
                pools[DISTITUENT].append(LabeledSpanExample(s.id, sp, DISTITUENT, model.view))

    def sample(pool, want):
        take = min(want, len(pool))
        if take == 0:
            return []
        return [pool[k] for k in sorted(rng.choice(len(pool), size=take, replace=False))]

    sizes = {label: len(pool) for label, pool in pools.items()}
    return sample(pools[CONSTITUENT], c), sample(pools[DISTITUENT], d), sizes


@pytest.mark.parametrize("c, d", [(40, 300), (5000, 7), (0, 5000)])
@pytest.mark.parametrize("view", [INSIDE, OUTSIDE])
def test_harvest_matches_list_pools(view, c, d):
    model = random_model(view, seed=3)
    corpus = parity_sentences()[::-1]  # ids out of order; one 1-token sentence
    th = Thresholds(tau_min=0.3, tau_max=0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PoolExhaustedWarning)
        want_c, want_d, sizes = reference_harvest(
            model, corpus, th, c, d, np.random.default_rng(11)
        )
        assert 0 < sizes[CONSTITUENT] and 0 < sizes[DISTITUENT]
        assert select_confident(model, corpus, th, c, d, rng_seed=11) == (want_c, want_d)

        want_c, want_d, sizes = reference_harvest(
            model, corpus, th, c, d, np.random.default_rng((4, 2, 1))
        )
        assert harvest(model, corpus, th, c, d, np.random.default_rng((4, 2, 1))) == (
            want_c,
            want_d,
            (sizes[CONSTITUENT], sizes[DISTITUENT]),
        )


def test_harvest_warns_when_a_pool_runs_short():
    model = random_model(INSIDE, seed=3)
    corpus = parity_sentences()
    th = Thresholds(tau_min=0.3, tau_max=0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PoolExhaustedWarning)
        _, _, (n_const, n_dist) = harvest(model, corpus, th, 0, 0, np.random.default_rng(0))
    with pytest.warns(PoolExhaustedWarning) as caught:
        const, dist, _ = harvest(
            model, corpus, th, n_const + 1, n_dist + 5, np.random.default_rng(0)
        )
    assert [str(w.message) for w in caught] == [
        f"constituent pool has {n_const} spans, wanted {n_const + 1}",
        f"distituent pool has {n_dist} spans, wanted {n_dist + 5}",
    ]
    assert (len(const), len(dist)) == (n_const, n_dist)


# --- external scorer protocol ---

HALF_SCORER = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    n = req["j"] - req["i"] + 1
    print(1.0 / (1.0 + n))
    sys.stdout.flush()
"""

GARBAGE_SCORER = """
import sys
for line in sys.stdin:
    print("not-a-number")
    sys.stdout.flush()
"""

SILENT_SCORER = """
import time, sys
for line in sys.stdin:
    time.sleep(60)
"""


def scorer_command(body):
    return [sys.executable, "-u", "-c", body]


def test_external_scorer_round_trip():
    s = sent(0, "a b c")
    with ExternalScorer(scorer_command(HALF_SCORER), view=INSIDE) as ext:
        got = ext.score_spans(s, [Span(0, 0), Span(0, 2), Span(1, 2)])
    assert got == pytest.approx([0.5, 0.25, 1 / 3])


def test_external_scorer_feeds_charts():
    s = sent(0, "a b c")
    with ExternalScorer(scorer_command(HALF_SCORER), view=INSIDE) as ext:
        chart = score_chart(ext, s)
    assert chart.cells[0, 2] == pytest.approx(0.25)
    assert chart.cells[1, 1] == pytest.approx(0.5)


def test_external_scorer_non_numeric():
    with ExternalScorer(scorer_command(GARBAGE_SCORER), view=INSIDE) as ext:
        with pytest.raises(ExternalScorerError, match="non-numeric"):
            ext.score_spans(sent(0, "a b"), [Span(0, 1)])


def test_external_scorer_timeout():
    with ExternalScorer(
        scorer_command(SILENT_SCORER), view=INSIDE, timeout=0.3
    ) as ext:
        with pytest.raises(ExternalScorerError, match="timed out"):
            ext.score_spans(sent(0, "a b"), [Span(0, 1)])


def test_external_scorer_dead_process():
    with ExternalScorer(
        [sys.executable, "-c", "import sys; sys.exit(0)"], view=INSIDE, timeout=2.0
    ) as ext:
        with pytest.raises(ExternalScorerError):
            ext.score_spans(sent(0, "a b"), [Span(0, 1)])
