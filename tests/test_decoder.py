from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from bootparse import decoder
from bootparse.decoder import (
    HeuristicConfig,
    ScoreChart,
    apply_heuristics,
    cyk_decode,
    cyk_decode_stack,
    enumerate_trees,
    rare_cased_runs,
    split_codes,
    tree_score,
)
from bootparse.errors import TooLarge
from bootparse.treebank import Sentence, Span


def chart_from(array) -> ScoreChart:
    cells = np.asarray(array, dtype=float)
    return ScoreChart(n=cells.shape[0], cells=cells)


@pytest.fixture(autouse=True)
def bounded_picks(monkeypatch):
    """Make the decoder's tree walk fail on a split outside its span: the
    walk would never end on one, so in these tests a wrong pick is an
    assertion, not a hang."""

    def checked_split_codes(n, pick):
        def checked(i, j):
            k = pick(i, j)
            assert i <= k < j, f"span ({i}, {j}) split after token {k}"
            return k

        return split_codes(n, checked)

    monkeypatch.setattr(decoder, "split_codes", checked_split_codes)


def test_catalan_counts():
    # number of binary bracketings of n tokens is Catalan(n - 1)
    expected = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    for n, count in zip(range(1, 11), expected):
        assert len(enumerate_trees(n)) == count


def test_enumerate_small():
    assert enumerate_trees(1) == [frozenset({Span(0, 0)})]
    assert enumerate_trees(2) == [frozenset({Span(0, 1)})]
    three = {frozenset(t) for t in enumerate_trees(3)}
    assert three == {
        frozenset({Span(0, 2), Span(0, 1)}),
        frozenset({Span(0, 2), Span(1, 2)}),
    }


def test_enumerate_guard():
    with pytest.raises(TooLarge):
        enumerate_trees(13)


def test_cyk_single_and_pair():
    t1 = cyk_decode(ScoreChart(n=1))
    assert t1.spans == frozenset({Span(0, 0)})
    t2 = cyk_decode(ScoreChart(n=2))
    assert t2.spans == frozenset({Span(0, 1)})


def test_cyk_hand_case():
    # n=3: s(0,1) = 0.9 dominates s(1,2) = 0.1
    chart = chart_from(
        [
            [0.0, 0.9, 0.0],
            [0.0, 0.0, 0.1],
            [0.0, 0.0, 0.0],
        ]
    )
    tree = cyk_decode(chart)
    assert tree.spans == frozenset({Span(0, 2), Span(0, 1)})


def test_cyk_tie_prefers_smallest_split():
    # all-zero chart: every tree ties; the decoder must pick k = i at
    # every span, i.e. the right-branching tree
    n = 5
    tree = cyk_decode(ScoreChart(n=n))
    assert tree.spans == frozenset(Span(i, n - 1) for i in range(n - 1))


def test_cyk_matches_brute_force():
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        trees = enumerate_trees(n)
        for _ in range(40):
            cells = np.triu(rng.uniform(0.0, 1.0, size=(n, n)))
            chart = ScoreChart(n=n, cells=cells)
            best = cyk_decode(chart)
            got = tree_score(chart, best.spans)
            want = max(tree_score(chart, t) for t in trees)
            assert got == pytest.approx(want, abs=1e-12)


def test_cyk_constant_shift_invariance():
    # adding a constant to every cell must not change the argmax tree
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        cells = np.triu(rng.uniform(0.0, 1.0, size=(n, n)))
        base = cyk_decode(ScoreChart(n=n, cells=cells))
        shifted = cyk_decode(ScoreChart(n=n, cells=cells + 0.37))
        assert base.spans == shifted.spans


def test_chart_rejects_non_finite():
    cells = np.zeros((2, 2))
    cells[0, 1] = np.nan
    with pytest.raises(ValueError):
        ScoreChart(n=2, cells=cells)


def test_heuristics_disabled_identity():
    chart = chart_from([[0.4, 0.6], [0.0, 0.2]])
    sent = Sentence(id=0, tokens=("a", "b"))
    out = apply_heuristics(chart, sent, HeuristicConfig(enabled=False))
    assert np.array_equal(out.cells, chart.cells)


def test_heuristic_comma_successor():
    sent = Sentence(id=0, tokens=("but", "he", "ran", "but", "fell"))
    chart = ScoreChart(n=5, cells=np.triu(np.full((5, 5), 0.5)))
    cfg = HeuristicConfig(enabled=True, comma_successor_word="but")
    out = apply_heuristics(chart, sent, cfg)
    for i in range(5):
        for j in range(i, 5):
            expect = 0.0 if (i in (0, 3) or j in (0, 3)) else 0.5
            assert out.cells[i, j] == expect


def test_heuristic_start_word():
    cfg = HeuristicConfig(
        enabled=True,
        common_start_word="the",
        stopword_set=frozenset({"of", "the"}),
    )
    sent = Sentence(id=0, tokens=("the", "dog", "ran"))
    out = apply_heuristics(ScoreChart(n=3), sent, cfg)
    assert out.cells[0, 1] == 1.0
    # stopword in second position blocks the rule
    sent2 = Sentence(id=1, tokens=("the", "of", "ran"))
    out2 = apply_heuristics(ScoreChart(n=3), sent2, cfg)
    assert out2.cells[0, 1] == 0.0


def test_rare_cased_run_spans():
    sent = Sentence(
        id=0, tokens=("the", "Shearson", "Lehman", "Hutton", "Inc.", "fell")
    )
    assert rare_cased_runs(sent, frozenset({"the"})) == [Span(1, 4)]
    # any Unicode capital opens a run, unlike the seeds' cased_runs
    umlaut = Sentence(id=1, tokens=("Über", "Alles", "here"))
    assert rare_cased_runs(umlaut, frozenset()) == [Span(0, 1)]


def test_heuristic_rare_run_zeroes_proper_subspans():
    sent = Sentence(
        id=0, tokens=("the", "Shearson", "Lehman", "Hutton", "Inc.", "fell")
    )
    cfg = HeuristicConfig(
        enabled=True, top_frequency_set=frozenset({"the", "fell"})
    )
    chart = ScoreChart(n=6, cells=np.triu(np.full((6, 6), 0.5)))
    out = apply_heuristics(chart, sent, cfg)
    zeroed = {
        (i, j)
        for i in range(6)
        for j in range(i, 6)
        if out.cells[i, j] == 0.0
    }
    assert zeroed == {(1, 2), (2, 3), (1, 3), (2, 4), (3, 4)}
    # the run itself and straddling spans keep their scores
    assert out.cells[1, 4] == 0.5
    assert out.cells[0, 2] == 0.5


def test_heuristics_idempotent():
    sent = Sentence(
        id=0, tokens=("the", "Shearson", "Lehman", "Hutton", "Inc.", "fell")
    )
    cfg = HeuristicConfig(
        enabled=True,
        comma_successor_word="fell",
        common_start_word="the",
        top_frequency_set=frozenset({"the"}),
    )
    rng = np.random.default_rng(3)
    chart = ScoreChart(n=6, cells=np.triu(rng.uniform(size=(6, 6))))
    once = apply_heuristics(chart, sent, cfg)
    twice = apply_heuristics(once, sent, cfg)
    assert np.array_equal(once.cells, twice.cells)


def test_heuristics_do_not_touch_unmatched_cells():
    sent = Sentence(id=0, tokens=("a", "b", "c"))
    cfg = HeuristicConfig(
        enabled=True,
        comma_successor_word="zzz",
        common_start_word="zzz",
        top_frequency_set=frozenset(),
    )
    rng = np.random.default_rng(5)
    chart = ScoreChart(n=3, cells=np.triu(rng.uniform(size=(3, 3))))
    out = apply_heuristics(chart, sent, cfg)
    assert np.array_equal(out.cells, chart.cells)


def _heuristics_loop_reference(chart: ScoreChart, sentence: Sentence, cfg) -> np.ndarray:
    """The cell-by-cell rules that apply_heuristics' masks replaced."""
    cells = chart.cells.copy()
    toks = sentence.tokens
    n = chart.n
    if cfg.comma_successor_word is not None:
        w = cfg.comma_successor_word
        for i in range(n):
            for j in range(i, n):
                if toks[i] == w or toks[j] == w:
                    cells[i, j] = 0.0
    if cfg.common_start_word is not None and n >= 2:
        if toks[0] == cfg.common_start_word and toks[1] not in cfg.stopword_set:
            cells[0, 1] = 1.0
    for run in rare_cased_runs(sentence, cfg.top_frequency_set):
        for i in range(run.i, run.j + 1):
            for j in range(i + 1, run.j + 1):
                if (i, j) != (run.i, run.j):
                    cells[i, j] = 0.0
    return cells


def test_heuristics_match_loop_reference():
    # tolerance 0, over sentences that hold the comma successor, the
    # start word and rare capitalized runs, with every rule on and each
    # rule alone; the full chart, so cells below the diagonal are
    # checked to stay as they were
    rng = np.random.default_rng(31)
    vocab = ["the", ",", "and", "of", "Big", "Apple", "Co.", "The", "runs", "fast"]
    full = HeuristicConfig(
        enabled=True,
        comma_successor_word="and",
        common_start_word="the",
        top_frequency_set=frozenset({"the", "and", "of", "The"}),
        stopword_set=frozenset({"of"}),
    )
    cfgs = [
        full,
        HeuristicConfig(enabled=True, comma_successor_word="Big"),
        HeuristicConfig(enabled=True, common_start_word="Big"),
        HeuristicConfig(enabled=True, top_frequency_set=frozenset({"Co."})),
    ]
    fired = set()
    for n in list(range(1, 30)) + [60, 100]:
        for _ in range(4):
            tokens = tuple(str(rng.choice(vocab)) for _ in range(n))
            sent = Sentence(id=n, tokens=tokens)
            chart = chart_from(rng.uniform(size=(n, n)))
            for k, cfg in enumerate(cfgs):
                got = apply_heuristics(chart, sent, cfg).cells
                want = _heuristics_loop_reference(chart, sent, cfg)
                assert np.array_equal(got, want)
                if not np.array_equal(got, chart.cells):
                    fired.add(k)
    assert fired == {0, 1, 2, 3}


def test_top_frequency_cap():
    with pytest.raises(ValueError):
        HeuristicConfig(
            enabled=True,
            top_frequency_set=frozenset(f"w{k}" for k in range(101)),
        )


def _cyk_loop_reference(cells: np.ndarray) -> frozenset[Span]:
    """The cell-by-cell CYK fill that cyk_decode's per-length fill replaced."""
    n = cells.shape[0]
    if n == 1:
        return frozenset({Span(0, 0)})
    best = np.zeros((n, n))
    split = np.zeros((n, n), dtype=int)
    for i in range(n):
        best[i, i] = cells[i, i]
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length - 1
            cand = best[i, i:j] + best[i + 1 : j + 1, j]
            k_rel = int(np.argmax(cand))
            split[i, j] = i + k_rel
            best[i, j] = cells[i, j] + cand[k_rel]
    spans = set()

    def backtrace(i: int, j: int):
        if i == j:
            return
        spans.add(Span(i, j))
        k = split[i, j]
        backtrace(i, k)
        backtrace(k + 1, j)

    backtrace(0, n - 1)
    return frozenset(spans)


@pytest.mark.parametrize("n", list(range(1, 41)) + [120])
def test_cyk_matches_loop_reference(n):
    rng = np.random.default_rng(n)
    charts = []
    for _ in range(6):
        charts.append(rng.normal(size=(n, n)))
        # values 0-2: most candidates tie, so the tie-break decides
        charts.append(rng.integers(0, 3, size=(n, n)).astype(float))
    # a column-major array exercises the flat indexing on a copy
    charts.append(np.asfortranarray(rng.uniform(size=(n, n))))
    for cells in charts:
        assert cyk_decode(chart_from(cells)).spans == _cyk_loop_reference(cells)


def test_cyk_matches_loop_reference_after_heuristics():
    rng = np.random.default_rng(29)
    vocab = ["the", ",", "and", "of", "Big", "Apple", "Co.", "runs", "fast"]
    cfg = HeuristicConfig(
        enabled=True,
        comma_successor_word="and",
        common_start_word="the",
        top_frequency_set=frozenset({"the", "and", "of"}),
        stopword_set=frozenset({"of"}),
    )
    for n in list(range(2, 41)) + [100]:
        tokens = ["the"] + [str(rng.choice(vocab)) for _ in range(n - 1)]
        sent = Sentence(id=n, tokens=tuple(tokens))
        cells = np.triu(rng.integers(0, 2, size=(n, n))).astype(float)
        chart = apply_heuristics(chart_from(cells), sent, cfg)
        tree = cyk_decode(chart, sent)
        assert tree.sentence == sent
        assert tree.spans == _cyk_loop_reference(chart.cells)


def _codes_in_split_order(spans: frozenset[Span], n: int) -> list[int]:
    """The codes of spans, a binary tree's, in the pre-order of split_codes."""
    if n == 1:
        return []
    splits = {}
    for sp in spans:
        # the split of (i, j) is the last token of its left child, the
        # longest span of the tree that starts at i inside it
        splits[sp.i, sp.j] = max(
            (o.j for o in spans if o.i == sp.i and o.j < sp.j), default=sp.i
        )
    return split_codes(n, lambda i, j: splits[i, j])


@pytest.mark.parametrize("n", range(1, 41))
@pytest.mark.parametrize("count", [1, 2, 7])
def test_cyk_stack_matches_loop_reference(n, count):
    rng = np.random.default_rng(1000 * count + n)
    stacks = [
        rng.normal(size=(count, n, n)),
        # every cell equal or 0/1 cells: most candidates tie, so the
        # tie-break to the smallest split decides
        np.full((count, n, n), 0.5),
        rng.integers(0, 2, size=(count, n, n)).astype(float),
        # each chart a different kind
        np.stack([
            [rng.normal(size=(n, n)), np.ones((n, n)), np.zeros((n, n))][b % 3]
            for b in range(count)
        ]),
        # different random and 0/1 charts in turn: each split's halves are
        # strided views of the whole stack's cells, so a view one row off
        # reads a neighbouring cell
        np.stack([
            rng.normal(size=(n, n)) if b % 2 else rng.integers(0, 2, size=(n, n)).astype(float)
            for b in range(count)
        ]),
    ]
    for charts in stacks:
        trees = cyk_decode_stack(charts)
        assert len(trees) == count
        for cells, codes in zip(charts, trees):
            # tolerance 0: the same codes in the same order
            assert codes == _codes_in_split_order(_cyk_loop_reference(cells), n)
            spans = cyk_decode(chart_from(cells)).spans - {Span(0, 0)}
            assert sorted(codes) == sorted(sp.i * n + sp.j for sp in spans)


def test_split_codes_refuses_a_pick_outside_the_span():
    # a child process under a timeout and a 1 GiB address-space cap, so
    # a walk that never ends fails here fast instead of growing without
    # bound; bounded_picks patches only this process
    child = "\n".join([
        "import resource",
        "from bootparse.decoder import split_codes",
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))",
        "for pick in (lambda i, j: i - 1, lambda i, j: j):",
        "    try:",
        "        split_codes(6, pick)",
        "    except ValueError as exc:",
        "        print(exc)",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=30, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "span (0, 5) split after token -1, outside it",
        "span (0, 5) split after token 5, outside it",
    ]


def test_decoder_caches_nothing_per_length():
    # the fill views the chart in place: no table grows with the number
    # of distinct sentence lengths decoded
    cached = [name for name, value in vars(decoder).items() if hasattr(value, "cache_info")]
    assert cached == []


def test_cyk_stack_checks_its_input():
    cells = np.zeros((1, 2, 2))
    cells[0, 0, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        cyk_decode_stack(cells)
    assert cyk_decode_stack(np.zeros((0, 4, 4))) == []
