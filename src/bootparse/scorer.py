"""Span classifiers over two views of a span.

The inside view reads the tokens x_i .. x_j themselves; the outside
view reads only the bordering tokens (x_{i-1}, x_{j+1}) with sentinels
at the sentence edges, never the material in between.  Both are scored
with a regularized logistic model over sparse indicator features, and
combined multiplicatively at decode time.

A feature is one integer code: its template and the process-wide id of
its token, or of its two tokens for the bigram b=x|y and the outside
view's pair lr=x_{i-1}|x_{j+1}; _name and _codes are the only places a
name is built or read.  A sentence trained on is featurized once, into
a table of codes per token position (featurize).  Training gathers the
example rows from those tables (example_rows) and numbers the columns
by the names of the codes (FeatureSpace), so the columns, the saved
names and the weights never depend on the ids; train runs minibatch
gradient steps with numpy alone.  Scoring builds no name: the model is
linear over indicators, so SpanScorer.score_spans looks each weight up
by code once per token position, the pair's once per span, and sums
them per span with numpy.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
import weakref
from dataclasses import asdict, dataclass, field

import numpy as np

from .decoder import ScoreChart
from .errors import (
    LengthMismatch,
    MalformedFile,
    PoolExhaustedWarning,
    SingleClassInput,
    UndefinedMccWarning,
    check_int,
    check_number,
)
from .seeds import CONCAT, CONSTITUENT, DISTITUENT, INSIDE, OUTSIDE, LabeledSpanExample
from .treebank import Sentence, Span

BOS = "<s>"
EOS = "</s>"

# scores are clipped into the open interval (0, 1)
PROB_EPS = 1e-12

MODEL_FORMAT_VERSION = 1


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-z)) of a 1-d array.

    exp comes from math.exp, the C library's, so the results are the
    same bits as scipy.special.expit's; numpy's vectorized exp differs
    from it in the last place on about 2% of inputs.  Where exp(-z)
    overflows (z below about -709.78) the result is 0.
    """
    neg = (-z).tolist()
    try:
        e = np.fromiter(map(math.exp, neg), dtype=float, count=len(neg))
    except OverflowError:
        e = np.fromiter(map(_exp_or_inf, neg), dtype=float, count=len(neg))
    e += 1.0
    return np.divide(1.0, e, out=e)


def _length_bin(length: int) -> str:
    if length <= 5:
        return str(length)
    if length <= 8:
        return "6-8"
    if length <= 12:
        return "9-12"
    return "13+"


# Token ids in the order the process first sees the tokens.  The
# sentinels come first, so a literal <s> or </s> token shares their id,
# their feature names and their bos and eos flags.  The table never
# forgets a token: it grows with the vocabulary of the text featurized
# and scored and of the feature names of the models scored.
_TOKEN_IDS: dict[str, int] = {BOS: 0, EOS: 1}
_TOKENS: list[str] = [BOS, EOS]


def _token_id(token: str) -> int:
    """The id of a token, numbering it if it is new."""
    tid = _TOKEN_IDS.get(token)
    if tid is None:
        tid = _TOKEN_IDS[token] = len(_TOKENS)
        _TOKENS.append(token)
    return tid


# Feature templates, each also the row of featurize's table that holds
# its codes.  Column k of a row is the feature of token position k: its
# unigram, the bigram it starts (-1 in the last column), the span's
# first or last token when the span starts or ends there, the length
# bin of a span of k + 1 tokens, the position bucket of a span starting
# at k, the token before k and the token after k (sentinels at the
# edges), the bos and eos flags of those (-1 where the flag is off),
# and the pair of the token before k with token id 0.  Row _AFTER, no
# template, holds the id of the token after k, so the pair code of span
# (i, j) is table[_PAIR, i] + table[_AFTER, j].
(_UNIGRAM, _BIGRAM, _FIRST, _LAST, _LENGTH, _POSITION,
 _LEFT, _RIGHT, _BOS, _EOS, _PAIR, _AFTER) = range(12)
# how the names of each template start; bos and eos are whole names
_PREFIXES = (
    "u=", "b=", "first=", "last=", "len=", "pos=", "left=", "right=", "bos", "eos", "lr="
)
_TEMPLATES = {prefix: template for template, prefix in enumerate(_PREFIXES)}
# A code is (template * _BASE + first token id) * _BASE + second token
# id, with first 0 for a one-token template.  For len= the second slot
# holds the span length, 13 for longer spans, and for pos= the bucket.
_BASE = 1 << 29


def _name(code: int) -> str:
    """The name of the feature with this code."""
    template, tokens = divmod(code, _BASE * _BASE)
    first, second = divmod(tokens, _BASE)
    prefix = _PREFIXES[template]
    if template in (_BOS, _EOS):
        return prefix
    if template == _LENGTH:
        return prefix + _length_bin(second)
    if template == _POSITION:
        return f"{prefix}{second}"
    if template in (_BIGRAM, _PAIR):
        return f"{prefix}{_TOKENS[first]}|{_TOKENS[second]}"
    return prefix + _TOKENS[second]


def _codes(name: str) -> list[int]:
    """The codes of the features named name.

    A bigram or pair name splits at each "|" of its key, since tokens
    may hold "|": b=a|b|c is the bigram of a and b|c and the bigram of
    a|b and c.  A len= name has a code per length in its bin.  The
    tokens named are numbered here if they are new.
    """
    prefix, eq, key = name.partition("=")
    template = _TEMPLATES.get(prefix + eq)
    if template is None:
        return []
    base = template * _BASE * _BASE
    if template in (_BOS, _EOS):
        return [base]
    if template in (_LENGTH, _POSITION):
        return [base + m for m in range(14) if _name(base + m) == name]
    if template in (_BIGRAM, _PAIR):
        parts = key.split("|")
        return [
            base + _token_id("|".join(parts[:k])) * _BASE + _token_id("|".join(parts[k:]))
            for k in range(1, len(parts))
        ]
    return [base + _token_id(key)]


def _feature_table(tokens: tuple[str, ...]) -> np.ndarray:
    """featurize's table of tokens, read-only."""
    n = len(tokens)
    ids = np.array(list(map(_token_id, tokens)), dtype=np.int64)
    before = np.concatenate(([0], ids[:-1]))
    after = np.concatenate((ids[1:], [1]))
    k = np.arange(n)
    table = np.zeros((_AFTER + 1, n), dtype=np.int64)
    table[[_UNIGRAM, _FIRST, _LAST]] = ids
    table[_BIGRAM, :-1] = ids[:-1] * _BASE + ids[1:]
    table[_LENGTH] = np.minimum(k + 1, 13)
    table[_POSITION] = np.minimum(3, 4 * k // n)
    table[_LEFT] = before
    table[_RIGHT] = after
    table[_PAIR] = before * _BASE
    table[:_AFTER] += np.arange(_AFTER)[:, None] * (_BASE * _BASE)
    table[_AFTER] = after
    table[_BIGRAM, -1] = -1
    table[_BOS, before != 0] = -1
    table[_EOS, after != 1] = -1
    table.flags.writeable = False
    return table


# each live sentence's featurize table
_TABLES: weakref.WeakKeyDictionary[Sentence, np.ndarray] = weakref.WeakKeyDictionary()


def featurize(sentence: Sentence) -> np.ndarray:
    """Feature codes of a sentence's token positions, as a table.

    A span (i, j) has, under the inside view, the unigrams and bigrams
    of x_i .. x_j and the first, last, length and position features of
    its bounds; under the outside view the left and right borders
    x_{i-1} and x_{j+1}, the bos and eos flags, and the pair feature
    lr=x_{i-1}|x_{j+1}; the concat view has both.  The table's rows are
    listed above.  It is kept for as long as the sentence object lives,
    so a corpus is featurized once however often it is trained on and
    rescored, and its tables go when it goes.  SpanScorer.score_spans
    reads the kept table if there is one.
    """
    table = _TABLES.get(sentence)
    if table is None:
        table = _TABLES[sentence] = _feature_table(sentence.tokens)
    return table


# The table of the last sentence scored that was never featurized, such
# as parse input, for the second model of a pair; it is not kept past
# the next one.  Token ids never change, so it never goes stale.
_unkept_table = functools.lru_cache(maxsize=1)(_feature_table)


@dataclass(frozen=True)
class CodeRows:
    """Feature rows as feature codes, before any column numbering.

    Row r lists the codes codes[indptr[r]:indptr[r+1]] in featurize's
    order (unigrams, bigrams, first, last, length, position, then left,
    right, pair, bos, eos), a code once per occurrence.
    """

    codes: np.ndarray
    indptr: np.ndarray


def _gather_rows(pieces) -> CodeRows:
    """Rows laid out piece by piece: row r's piece p is
    source[start[r] : start[r] + length[r]] of pieces[p] = (source, start, length)."""
    lengths = np.column_stack([length for _, _, length in pieces])
    ends = np.cumsum(lengths.ravel()).reshape(lengths.shape)
    codes = np.empty(ends[-1, -1], dtype=np.int64)
    for p, (source, start, length) in enumerate(pieces):
        # position of each code within its piece
        step = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length, length)
        into = np.repeat(ends[:, p] - length, length) + step
        codes[into] = source[np.repeat(start, length) + step]
    return CodeRows(codes, np.concatenate(([0], ends[:, -1])))


def example_rows(examples, by_id, view: str) -> CodeRows:
    """The feature-code rows of labeled examples under one view, in order.

    by_id maps each example's sentence id to its sentence.
    """
    if view not in (INSIDE, OUTSIDE, CONCAT):
        raise ValueError(f"unknown view {view!r}")
    slots: dict[int, int] = {}
    tables, bounds = [], []
    for ex in examples:
        sent = by_id[ex.sentence_id]
        slot = slots.get(sent.id)
        if slot is None:
            slot = slots[sent.id] = len(tables)
            tables.append(featurize(sent))
        if ex.span.j >= len(sent):
            raise ValueError(f"span {ex.span} outside sentence {sent.id}")
        bounds.append((slot, ex.span.i, ex.span.j))
    if not bounds:
        return CodeRows(np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64))

    slot, i, j = np.array(bounds, dtype=np.intp).T
    offsets = np.cumsum([0] + [t.shape[1] for t in tables[:-1]])[slot]
    table = np.concatenate(tables, axis=1)
    first, last = offsets + i, offsets + j
    one = np.ones_like(i)
    pieces = []
    if view != OUTSIDE:
        pieces += [
            (table[_UNIGRAM], first, j - i + 1),
            (table[_BIGRAM], first, j - i),
            (table[_FIRST], first, one),
            (table[_LAST], last, one),
            (table[_LENGTH], offsets + j - i, one),
            (table[_POSITION], first, one),
        ]
    if view != INSIDE:
        pieces += [
            (table[_LEFT], first, one),
            (table[_RIGHT], last, one),
            (table[_PAIR, first] + table[_AFTER, last], np.arange(len(i)), one),
            (table[_BOS], first, (table[_BOS, first] >= 0).astype(np.intp)),
            (table[_EOS], last, (table[_EOS, last] >= 0).astype(np.intp)),
        ]
    return _gather_rows(pieces)


@dataclass(frozen=True)
class CsrRows:
    """Feature rows in compressed sparse row form.

    Row r holds the values data[indptr[r]:indptr[r+1]] in the columns
    indices[indptr[r]:indptr[r+1]], in increasing column order; shape is
    (rows, columns).
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]


def _logits(rows, cols, vals, n_rows: int, w: np.ndarray, b: float) -> np.ndarray:
    """w . x + b for n_rows rows given as (row, column, value) entries.

    np.bincount adds its weights one at a time in input order, so each
    row's products are summed in the order its entries are listed.
    """
    return np.bincount(rows, vals * w[cols], minlength=n_rows) + b


@dataclass
class FeatureSpace:
    """Maps features to column indices.

    fit numbers the features it has not seen in order of first
    occurrence, naming each distinct code of its rows once; transform
    drops the features without a column.  Columns are named, and
    features with one name share a column, so a space depends only on
    the names and order of the rows it was fit on, never on token ids.
    """

    names: list[str] = field(default_factory=list)
    # the names' codes, sorted, then a sentinel above every code, and the
    # column of each (-1 for the sentinel); built on first use after a fit
    _by_code: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def dim(self) -> int:
        return len(self.names)

    def fit(self, rows: CodeRows) -> "FeatureSpace":
        seen, first = np.unique(rows.codes, return_index=True)
        fresh = map(_name, seen[np.argsort(first)].tolist())
        self.names = list({**dict.fromkeys(self.names), **dict.fromkeys(fresh)})
        self._by_code = None
        return self

    def columns(self, codes: np.ndarray) -> np.ndarray:
        """The column of each feature code, -1 for a code that is no column."""
        if self._by_code is None:
            pairs = np.fromiter(
                ((code, column) for column, name in enumerate(self.names) for code in _codes(name)),
                dtype=np.dtype((np.int64, 2)),
            )
            pairs = pairs[np.argsort(pairs[:, 0])]
            self._by_code = (
                np.append(pairs[:, 0], np.iinfo(np.int64).max),
                np.append(pairs[:, 1], -1),
            )
        keys, columns = self._by_code
        at = np.searchsorted(keys, codes)
        return np.where(keys[at] == codes, columns[at], -1)

    def transform(self, rows: CodeRows) -> CsrRows:
        """Each row's count of each column, in column order."""
        n_rows = len(rows.indptr) - 1
        cols = self.columns(rows.codes)
        row = np.repeat(np.arange(n_rows), np.diff(rows.indptr))
        keep = cols >= 0
        stride = max(self.dim, 1)
        cells, counts = np.unique(row[keep] * stride + cols[keep], return_counts=True)
        row, cols = np.divmod(cells, stride)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n_rows))))
        return CsrRows(counts.astype(float), cols, indptr, (n_rows, self.dim))


@dataclass(frozen=True)
class TrainingMeta:
    """Optimization settings, stored alongside the weights."""

    epochs: int = 30
    learning_rate: float = 0.5
    batch_size: int = 64
    l2: float = 1e-5
    rng_seed: int = 0

    def __post_init__(self):
        check_int("epochs", self.epochs, 1)
        check_int("batch_size", self.batch_size, 1)
        check_int("rng_seed", self.rng_seed, 0)
        check_number("learning_rate", self.learning_rate, 0, inclusive=False)
        check_number("l2", self.l2, 0)


@dataclass
class SpanScorer:
    """A trained logistic model over one view's features.

    Scoring reads the weights through arrays built on first use, so the
    space and weights must not change after a model has scored.
    """

    view: str
    space: FeatureSpace
    weights: np.ndarray
    bias: float
    meta: TrainingMeta
    # how many labeled examples the model was trained on
    example_count: int = 0
    val_metrics: dict[str, float] = field(default_factory=dict)
    # the weights and then a 0, which column -1 reads; built on first use
    _padded: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def score_spans(self, sentence: Sentence, spans) -> np.ndarray:
        """P(constituent) of each span, in closed form from per-token weights.

        With w[f] the weight of a feature (0 when the space does not
        know it), U and B the prefix sums of w[u=x_k] and w[b=x_k|x_k+1],
        L_i the token before position i and R_j the token after j
        (sentinels at the edges), the logit of span (i, j) is the bias plus

          inside   U[j+1] - U[i] + B[j] - B[i] + w[first=x_i] + w[last=x_j]
                   + w[len=bin(j-i+1)] + w[pos=bucket(i)]
          outside  w[left=L_i] + w[right=R_j] + w[lr=L_i|R_j]
                   + w[bos] [L_i = <s>] + w[eos] [R_j = </s>]

        and the concat view adds both.  Every term but the pair is the
        weight of one entry of featurize's table, looked up once per
        token position; the pair's code is the sum of two entries, looked
        up once per span.  A sentence never featurized gets a table that
        is not kept.  This equals the dot product of the weights with the
        span's feature row; only the order of the floating-point
        additions differs.
        """
        if self.view not in (INSIDE, OUTSIDE, CONCAT):
            raise ValueError(f"unknown view {self.view!r}")
        n = len(sentence)
        spans = list(spans)
        i = np.fromiter((sp.i for sp in spans), dtype=np.intp, count=len(spans))
        j = np.fromiter((sp.j for sp in spans), dtype=np.intp, count=len(spans))
        if len(i) and j.max() >= n:
            raise ValueError(f"span beyond the {n} tokens of sentence {sentence.id}")
        table = _TABLES.get(sentence)
        if table is None:
            table = _unkept_table(sentence.tokens)
        z = np.full(len(i), self.bias, dtype=float)
        if self.view in (INSIDE, CONCAT):
            unigram, bigram, first, last, length, position = self._weights(
                table[_UNIGRAM : _POSITION + 1]
            )
            unigrams = np.concatenate(([0.0], np.cumsum(unigram)))
            bigrams = np.concatenate(([0.0], np.cumsum(bigram[:-1])))
            z += unigrams[j + 1] - unigrams[i] + bigrams[j] - bigrams[i]
            z += first[i]
            z += last[j]
            z += length[j - i]
            z += position[i]
        if self.view in (OUTSIDE, CONCAT):
            left, right, bos, eos = self._weights(table[_LEFT : _EOS + 1])
            z += left[i]
            z += right[j]
            z += self._weights(table[_PAIR, i] + table[_AFTER, j])
            # a flag that is off, code -1, reads weight 0
            z += bos[i]
            z += eos[j]
        return np.clip(sigmoid(z), PROB_EPS, 1.0 - PROB_EPS)

    def _weights(self, codes: np.ndarray) -> np.ndarray:
        """The weight of each feature code: 0 for a code that is no column."""
        if self._padded is None:
            self._padded = np.append(self.weights, 0.0)
        return self._padded[self.space.columns(codes)]


def _log_loss(probs: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def train(
    examples,
    corpus,
    view: str,
    meta: TrainingMeta | None = None,
) -> SpanScorer:
    """Fit a logistic span classifier on labeled examples.

    Holds out 20% of the examples for validation, minimizes L2-penalized
    log loss with mini-batch gradient steps, and stops early once the
    validation loss has failed to improve twice in a row, restoring the
    best checkpoint.  Bit-for-bit reproducible for a fixed rng_seed.
    """
    if meta is None:
        meta = TrainingMeta()
    examples = list(examples)
    labels = {ex.label for ex in examples}
    if labels != {CONSTITUENT, DISTITUENT}:
        raise SingleClassInput(
            f"need both classes, got {sorted(labels)} over {len(examples)} examples"
        )
    for ex in examples:
        if ex.view != view:
            raise ValueError(f"example has view {ex.view!r}, expected {view!r}")

    by_id = {sent.id: sent for sent in corpus}
    missing = [ex.sentence_id for ex in examples if ex.sentence_id not in by_id]
    if missing:
        raise ValueError(f"examples reference unknown sentences {sorted(set(missing))[:5]}")

    rng = np.random.default_rng(meta.rng_seed)
    perm = rng.permutation(len(examples))
    n_val = len(examples) // 5
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    train_codes = example_rows([examples[k] for k in train_idx], by_id, view)
    val_codes = example_rows([examples[k] for k in val_idx], by_id, view)
    y_train = np.array([examples[k].label for k in train_idx], dtype=float)
    y_val = np.array([examples[k].label for k in val_idx], dtype=float)

    space = FeatureSpace().fit(train_codes)
    x_train = space.transform(train_codes)
    x_val = space.transform(val_codes)

    w = np.zeros(space.dim)
    b = 0.0
    best = (np.inf, w.copy(), b)
    stale = 0
    n = x_train.shape[0]
    batch = meta.batch_size
    row_len = np.diff(x_train.indptr)
    # position of each row within its minibatch
    batch_pos = np.arange(n) % batch
    val_rows = np.repeat(np.arange(n_val), np.diff(x_val.indptr))

    def val_probs(w, b):
        return sigmoid(_logits(val_rows, x_val.indices, x_val.data, n_val, w, b))

    for _ in range(meta.epochs):
        # Lay the rows out in this epoch's order, so that each minibatch
        # is one contiguous slice of entries [ptr[lo], ptr[hi]).
        order = rng.permutation(n)
        counts = row_len[order]
        ptr = np.concatenate(([0], np.cumsum(counts)))
        entry = np.repeat(x_train.indptr[order] - ptr[:-1], counts) + np.arange(ptr[-1])
        cols = x_train.indices[entry]
        vals = x_train.data[entry]
        rows = np.repeat(batch_pos, counts)
        y = y_train[order]
        for lo in range(0, n, batch):
            hi = min(lo + batch, n)
            c, v, r = (a[ptr[lo] : ptr[hi]] for a in (cols, vals, rows))
            # Row sums and column sums with np.bincount, which adds its
            # weights one at a time in input order: within a row in stored
            # order, and into each column row by row.  A CSR product with
            # w, and of the transpose with the residuals, adds in that same
            # order, so the weights are the same bits as scipy's.
            p = sigmoid(_logits(r, c, v, hi - lo, w, b))
            resid = p - y[lo:hi]
            grad_w = (
                np.bincount(c, v * resid[r], minlength=space.dim) / (hi - lo)
                + meta.l2 * w
            )
            # np.mean's bits, without its dispatch cost
            grad_b = float(resid.sum()) / (hi - lo)
            w -= meta.learning_rate * grad_w
            b -= meta.learning_rate * grad_b
        if n_val == 0:
            continue
        val_loss = _log_loss(val_probs(w, b), y_val)
        if val_loss < best[0]:
            best = (val_loss, w.copy(), b)
            stale = 0
        else:
            stale += 1
            if stale >= 2:
                break

    if n_val > 0 and np.isfinite(best[0]):
        _, w, b = best

    metrics: dict[str, float] = {}
    if n_val > 0:
        p_val = np.clip(val_probs(w, b), PROB_EPS, 1.0 - PROB_EPS)
        pred = (p_val >= 0.5).astype(int)
        yv = y_val.astype(int)
        metrics["val_loss"] = _log_loss(p_val, y_val)
        metrics["val_accuracy"] = float(np.mean(pred == yv))
        tp = int(np.sum((pred == 1) & (yv == 1)))
        fp = int(np.sum((pred == 1) & (yv == 0)))
        fn = int(np.sum((pred == 0) & (yv == 1)))
        metrics["val_f1"] = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UndefinedMccWarning)
            metrics["val_mcc"] = compute_mcc(pred.tolist(), yv.tolist())

    return SpanScorer(
        view=view,
        space=space,
        weights=w,
        bias=float(b),
        meta=meta,
        example_count=len(examples),
        val_metrics=metrics,
    )


def _all_spans(n: int, min_len: int = 2) -> tuple[Span, ...]:
    """Spans of at least min_len tokens in row-major order (by i, then j).

    Cached per length and minimum, one entry for all spellings of the
    same minimum: the tuple and its frozen spans are immutable, so every
    sentence of that length can share them.
    """
    return _span_tuple(n, max(1, min_len))


@functools.lru_cache(maxsize=256)
def _span_tuple(n: int, min_len: int) -> tuple[Span, ...]:
    return tuple(Span(i, j) for i in range(n) for j in range(i + min_len - 1, n))


def score_chart(model_or_pair, sentence: Sentence, renormalize: bool = False) -> ScoreChart:
    """Fill a chart with span scores; a pair multiplies inside by outside.

    Renormalization maps (p1, p2) to p1 p2 / (p1 p2 + (1-p1)(1-p2)),
    which leaves a pair with a constant-1/2 partner unchanged.
    """
    n = len(sentence)
    spans = _all_spans(n, min_len=1)
    if isinstance(model_or_pair, (tuple, list)):
        inside_model, outside_model = model_or_pair
        if (inside_model.view, outside_model.view) != (INSIDE, OUTSIDE):
            raise ValueError(
                "pair must be (inside, outside) models, got "
                f"({inside_model.view!r}, {outside_model.view!r})"
            )
        p1 = np.asarray(inside_model.score_spans(sentence, spans))
        p2 = np.asarray(outside_model.score_spans(sentence, spans))
        probs = p1 * p2
        if renormalize:
            probs = probs / (probs + (1.0 - p1) * (1.0 - p2))
    else:
        probs = np.asarray(model_or_pair.score_spans(sentence, spans))
    chart = ScoreChart(n=n)
    chart.cells[np.triu_indices(n)] = probs
    return chart


@dataclass(frozen=True)
class Thresholds:
    """Confidence cutoffs; both comparisons are strict."""

    tau_min: float = 0.0005
    tau_max: float = 0.995

    def __post_init__(self):
        if not (0.0 <= self.tau_min < self.tau_max <= 1.0):
            raise ValueError(f"bad thresholds ({self.tau_min}, {self.tau_max})")


def confidence_pools(model, corpus, thresholds: Thresholds):
    """Split every multi-token span into confident pools by score.

    Scores strictly above tau_max go to the constituent pool, strictly
    below tau_min to the distituent pool; everything between is dropped.
    Single-token spans carry no bracketing signal and are skipped.
    Returns the constituent pool and then the distituent pool, each as
    two integer arrays: the position in corpus of each span's sentence
    and the span's index in that sentence's _all_spans.  Each pool lists
    its spans in corpus order, then in _all_spans order.
    """
    hits: tuple[list[np.ndarray], list[np.ndarray]] = ([], [])
    for sent in corpus:
        spans = _all_spans(len(sent))
        probs = np.asarray(model.score_spans(sent, spans)) if spans else np.empty(0)
        hits[0].append(np.flatnonzero(probs > thresholds.tau_max))
        hits[1].append(np.flatnonzero(probs < thresholds.tau_min))

    def pool(per_sent: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        sent_pos = np.repeat(np.arange(len(per_sent)), [len(k) for k in per_sent])
        span_idx = np.concatenate(per_sent) if per_sent else np.empty(0, dtype=np.intp)
        return sent_pos, span_idx

    return pool(hits[0]), pool(hits[1])


def harvest(
    model, corpus, thresholds: Thresholds, c: int, d: int, rng
) -> tuple[list[LabeledSpanExample], list[LabeledSpanExample], tuple[int, int]]:
    """Sample c confident constituents and d confident distituents.

    Each pool of confidence_pools is sampled uniformly without
    replacement, the constituents first, and a sample keeps pool order.
    A pool smaller than asked for is taken whole, with a
    PoolExhaustedWarning.  Examples, in the model's view, are built only
    for the spans drawn.  Returns both samples and both pool sizes.
    """
    corpus = list(corpus)
    pools = confidence_pools(model, corpus, thresholds)
    samples = []
    for (sent_pos, span_idx), want, label, what in zip(
        pools, (c, d), (CONSTITUENT, DISTITUENT), ("constituent", "distituent")
    ):
        size = len(sent_pos)
        if want > size:
            warnings.warn(f"{what} pool has {size} spans, wanted {want}", PoolExhaustedWarning)
        take = min(want, size)
        picks = np.sort(rng.choice(size, size=take, replace=False)) if take else []
        samples.append([
            LabeledSpanExample(corpus[pos].id, _all_spans(len(corpus[pos]))[k], label, model.view)
            for pos, k in zip(sent_pos[picks].tolist(), span_idx[picks].tolist())
        ])
    return samples[0], samples[1], (len(pools[0][0]), len(pools[1][0]))


def select_confident(
    model,
    corpus,
    thresholds: Thresholds,
    c: int,
    d: int,
    rng_seed: int = 0,
) -> tuple[list[LabeledSpanExample], list[LabeledSpanExample]]:
    """Sample pseudo-labeled spans from the extremes of the score range.

    Every span of length >= 2 (whole sentences included) is scored; the
    pools score > tau_max and score < tau_min are sampled as harvest
    does, with default_rng(rng_seed), down to c and d items.  Warns when
    a pool runs short.
    """
    const, dist, _ = harvest(model, corpus, thresholds, c, d, np.random.default_rng(rng_seed))
    return const, dist


def compute_mcc(predictions, labels) -> float:
    """Matthews correlation of binary predictions against labels.

    Returns 0 (with UndefinedMccWarning) when a marginal is zero and the
    coefficient is undefined.
    """
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise LengthMismatch(
            f"{len(predictions)} predictions vs {len(labels)} labels"
        )
    tp = sum(1 for p, y in zip(predictions, labels) if p == 1 and y == 1)
    tn = sum(1 for p, y in zip(predictions, labels) if p == 0 and y == 0)
    fp = sum(1 for p, y in zip(predictions, labels) if p == 1 and y == 0)
    fn = sum(1 for p, y in zip(predictions, labels) if p == 0 and y == 1)
    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0:
        warnings.warn("MCC undefined: a marginal is zero", UndefinedMccWarning)
        return 0.0
    return (tp * tn - fp * fn) / float(np.sqrt(denom_sq))


def save_model(model: SpanScorer, path) -> None:
    """Versioned structured-text dump; stable bytes for stable inputs."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "view": model.view,
        # model format 1 has slots for two feature-space options; only
        # their off values are supported
        "feature_space": {
            "inside_context": False,
            "hash_dim": None,
            "names": model.space.names,
        },
        "weights": [float(x) for x in model.weights],
        "bias": model.bias,
        "meta": {**asdict(model.meta), "example_count": model.example_count},
        "val_metrics": model.val_metrics,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path) -> SpanScorer:
    """Read a model written by save_model.

    Raises MalformedFile for anything else, including feature names
    that are not a list of strings, weights that do not line up with the
    feature space and a feature name listed twice: scoring indexes the
    weights by feature column, and by the codes of each column's name.
    """

    def bad(why: str) -> MalformedFile:
        return MalformedFile(f"model file {path}: {why}")

    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise bad(f"not UTF-8 JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise bad("not a JSON object")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise bad(f"unsupported model format {version!r}")
    keys = {"view", "feature_space", "weights", "bias", "meta", "val_metrics"}
    missing = sorted(keys - payload.keys())
    if missing:
        raise bad(f"missing keys {missing}")
    view = payload["view"]
    if view not in (INSIDE, OUTSIDE, CONCAT):
        raise bad(f"unknown view {view!r}")
    try:
        fs = payload["feature_space"]
        retired = (fs["inside_context"], fs["hash_dim"])
        names = fs["names"]
        weights = np.asarray(payload["weights"], dtype=float)
        bias = float(payload["bias"])
        settings = {**payload["meta"]}
        example_count = settings.pop("example_count")
        check_int("example_count", example_count, 0)
        meta = TrainingMeta(**settings)
        val_metrics = dict(payload["val_metrics"])
    except (KeyError, TypeError, ValueError) as exc:
        raise bad(f"bad field: {exc!r}") from exc
    # compared by identity, since 0 == False
    if retired[0] is not False or retired[1] is not None:
        raise bad(
            f"unsupported feature space inside_context={retired[0]!r} "
            f"hash_dim={retired[1]!r}"
        )
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise bad("feature names are not a list of strings")
    space = FeatureSpace(names=names)
    if len(set(space.names)) != space.dim:
        raise bad("repeated feature names")
    if weights.shape != (space.dim,):
        raise bad(f"{weights.size} weights for {space.dim} feature columns")
    if not (np.all(np.isfinite(weights)) and np.isfinite(bias)):
        raise bad("non-finite weights")
    return SpanScorer(
        view=view,
        space=space,
        weights=weights,
        bias=bias,
        meta=meta,
        example_count=example_count,
        val_metrics=val_metrics,
    )
