"""Span classifiers over two views of a span.

The inside view reads the tokens x_i .. x_j themselves; the outside
view reads only the bordering tokens (x_{i-1}, x_{j+1}) with sentinels
at the sentence edges, never the material in between.  Both are scored
with a regularized logistic model over sparse indicator features, and
combined multiplicatively at decode time.

A feature is one integer code: its template and the process-wide id of
its token, or of its two tokens for the bigram b=x|y and the outside
view's pair lr=x_{i-1}|x_{j+1}, or the fixed code of a length bin,
position bucket or sentinel flag; _name and _codes are the only places
a name is built or read.  featurize turns a fill of same-length
sentences (treebank.length_fills) into stacked tables of codes, one
column per token position, and keeps nothing: each reader builds the
tables it reads.  Each train call gathers the rows of its examples
from those tables once, in its shuffled order (example_rows, where an
example meets its sentence), keeps none of them, and numbers the
columns by the names of the codes (FeatureSpace), so the columns, the
saved names and the weights never depend on the ids.  A space is a
value, its names: fit returns a new space, and a trained space and the
same space read back by load_model build their code index from the
names alike, on first use.  train transforms the rows of all its
examples once, each row the columns of its feature occurrences and the
bias's, splits the validation rows off, and runs each minibatch step
and validation pass as a few numpy calls on them.  Scoring builds no
name: the model is linear over indicators, so one core (_group_scores)
takes the stacked tables of a fill, looks each weight up by code once
per token position, the pair's once per span, and sums them per span
with numpy.  confidence_pools scores each fill in one call and hands
back the bounds of its confident spans, which harvest samples;
score_spans, which parse's charts call, is a group of one.  The spans
of a sentence length are index arrays, built once (_all_spans); a Span
is built, as it is read, only for a model that reads Spans.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import Thresholds, TrainingMeta
from .decoder import ScoreChart
from .errors import (
    ConfigError,
    LengthMismatch,
    MalformedFile,
    PoolExhaustedWarning,
    SingleClassInput,
    check_int,
    json_value,
)
from .seeds import (
    CONCAT,
    CONSTITUENT,
    DISTITUENT,
    INSIDE,
    OUTSIDE,
    VIEW_CODES,
    VIEWS,
    LabeledSet,
    _int_columns,
)
from .treebank import Sentence, Span, length_fills

BOS = "<s>"
EOS = "</s>"

# scores are clipped into the open interval (0, 1)
PROB_EPS = 1e-12

MODEL_FORMAT_VERSION = 1


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-z)) of an array, with numpy's exp.

    Where exp(-z) overflows (z below about -709.78) the result is 0, and
    no warning is given.
    """
    with np.errstate(over="ignore"):
        return 1 / (1 + np.exp(-z))


# the len= bins, each by its first length; a bin runs up to the next
# one's first length, and the last has no end
_LENGTH_BINS = {1: "1", 2: "2", 3: "3", 4: "4", 5: "5", 6: "6-8", 9: "9-12", 13: "13+"}
_BIN_STARTS = np.array(list(_LENGTH_BINS))


def _bin_start(lengths):
    """The first length of the len= bin of each length."""
    return _BIN_STARTS[np.searchsorted(_BIN_STARTS, lengths, side="right") - 1]


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
# A code is (template * _BASE + first token id) * _BASE + second token
# id, with first 0 for a one-token template.  For len= the second slot
# holds the first length of the span's bin, for pos= the bucket.
_BASE = 1 << 29
# how the names of each template with tokens start
_TEMPLATES = {
    "u=": _UNIGRAM, "b=": _BIGRAM, "first=": _FIRST, "last=": _LAST,
    "left=": _LEFT, "right=": _RIGHT, "lr=": _PAIR,
}
_PREFIXES = {template: prefix for prefix, template in _TEMPLATES.items()}
# the template part of the codes of each row but _AFTER
_TEMPLATE_CODES = np.arange(_AFTER)[:, None] * (_BASE * _BASE)
# the code of each name with no token, and the name of each such code
_FIXED_CODES = {
    **{f"len={name}": _LENGTH * _BASE * _BASE + m for m, name in _LENGTH_BINS.items()},
    **{f"pos={m}": _POSITION * _BASE * _BASE + m for m in range(4)},
    "bos": _BOS * _BASE * _BASE,
    "eos": _EOS * _BASE * _BASE,
}
_FIXED_NAMES = {code: name for name, code in _FIXED_CODES.items()}


def _name(code: int) -> str:
    """The name of the feature with this code."""
    if code in _FIXED_NAMES:
        return _FIXED_NAMES[code]
    template, tokens = divmod(code, _BASE * _BASE)
    first, second = divmod(tokens, _BASE)
    if template in (_BIGRAM, _PAIR):
        return f"{_PREFIXES[template]}{_TOKENS[first]}|{_TOKENS[second]}"
    return _PREFIXES[template] + _TOKENS[second]


def _codes(name: str) -> list[int]:
    """The codes of the features named name, none for a name of no feature.

    A bigram or pair name splits at each "|" of its key, since tokens
    may hold "|": b=a|b|c is the bigram of a and b|c and the bigram of
    a|b and c.  Every other name has one code.  The tokens named are
    numbered here if they are new.
    """
    if name in _FIXED_CODES:
        return [_FIXED_CODES[name]]
    prefix, eq, key = name.partition("=")
    template = _TEMPLATES.get(prefix + eq)
    if template is None:
        return []
    base = template * _BASE * _BASE
    if template in (_BIGRAM, _PAIR):
        parts = key.split("|")
        return [
            base + _token_id("|".join(parts[:k])) * _BASE + _token_id("|".join(parts[k:]))
            for k in range(1, len(parts))
        ]
    return [base + _token_id(key)]


def featurize(group) -> np.ndarray:
    """Feature codes of the token positions of same-length token tuples,
    as their stacked (B, 12, n) tables, read-only.

    A span (i, j) has, under the inside view, the unigrams and bigrams
    of x_i .. x_j and the first, last, length and position features of
    its bounds; under the outside view the left and right borders
    x_{i-1} and x_{j+1}, the bos and eos flags, and the pair feature
    lr=x_{i-1}|x_{j+1}; the concat view has both.  A table's rows are
    listed above.  Nothing is kept: example_rows and confidence_pools
    build the tables they read a length_fills fill at a time.
    """
    # each sentence's token ids between the sentinels' ids, 0 and 1
    edged = np.array([[0, *map(_token_id, tokens), 1] for tokens in group], dtype=np.int64)
    before, ids, after = edged[:, :-2], edged[:, 1:-1], edged[:, 2:]
    count, n = ids.shape
    k = np.arange(n)
    tables = np.empty((count, _AFTER + 1, n), dtype=np.int64)
    tables[:, _UNIGRAM] = tables[:, _FIRST] = tables[:, _LAST] = ids
    tables[:, _BIGRAM] = ids * _BASE + after
    tables[:, _LENGTH] = _bin_start(k + 1)
    tables[:, _POSITION] = np.minimum(3, 4 * k // n)
    tables[:, _LEFT] = before
    tables[:, _RIGHT] = tables[:, _AFTER] = after
    tables[:, _BOS] = tables[:, _EOS] = 0
    tables[:, _PAIR] = before * _BASE
    tables[:, :_AFTER] += _TEMPLATE_CODES
    tables[:, _BIGRAM, -1] = -1
    tables[:, _BOS][before != 0] = -1
    tables[:, _EOS][after != 1] = -1
    tables.flags.writeable = False
    return tables


# The table of the last sentence score_spans scored, a group of one.
# score_chart scores each sentence with both models of a pair, and
# building the table again for the second costs about 50 us a sentence:
# the pair charts of the 2,000 quick-start sentences took 0.31 s in
# place of 0.20 s, in a 0.9 s parse.  Token ids never change, so the
# table never goes stale.
_last_table = functools.lru_cache(maxsize=1)(lambda tokens: featurize([tokens]))


@dataclass(frozen=True)
class CodeRows:
    """Feature rows: row r lists codes[indptr[r]:indptr[r+1]] in
    featurize's order (unigrams, bigrams, first, last, length, position,
    then left, right, pair, bos, eos), a code once per occurrence; or,
    from FeatureSpace.transform, their columns and then the bias's.
    """

    codes: np.ndarray
    indptr: np.ndarray

    @property
    def shape(self) -> tuple[int]:
        """(rows,), as the shape of an array of the rows."""
        return (len(self.indptr) - 1,)


def _row_entries(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the entries of rows that hold lengths[r] entries
    from starts[r] on, row after row, and the bounds of the rows taken."""
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    entry = np.repeat(starts - bounds[:-1], lengths)
    entry += np.arange(bounds[-1])
    return entry, bounds


def _gather_rows(pieces) -> CodeRows:
    """Rows laid out piece by piece: row r's piece p is
    source[start[r] : start[r] + length[r]] of pieces[p] = (source, start, length)."""
    lengths = np.column_stack([length for _, _, length in pieces])
    ends = np.cumsum(lengths.ravel()).reshape(lengths.shape)
    codes = np.empty(ends[-1, -1], dtype=np.int64)
    for p, (source, start, length) in enumerate(pieces):
        into, _ = _row_entries(ends[:, p] - length, length)
        codes[into] = source[_row_entries(start, length)[0]]
    return CodeRows(codes, np.concatenate(([0], ends[:, -1])))


def example_rows(examples, by_id, view: str) -> CodeRows:
    """The feature-code rows of labeled examples under one view, in order.

    examples is a LabeledSet or any LabeledSpanExamples; by_id maps
    sentence ids to sentences, and an example whose id it lacks is a
    ValueError.
    """
    if view not in (INSIDE, OUTSIDE, CONCAT):
        raise ValueError(f"unknown view {view!r}")
    sid, i, j = LabeledSet.of(examples).columns[:3]
    if not len(sid):
        return CodeRows(np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64))
    # each example's sentence as a slot in ids, which are sorted
    ids, slot = np.unique(sid, return_inverse=True)
    ids = ids.tolist()
    missing = [key for key in ids if key not in by_id]
    if missing:
        raise ValueError(f"examples reference unknown sentences {missing[:5]}")
    sents = [by_id[key] for key in ids]
    lengths = np.array([len(sent) for sent in sents])
    beyond = np.flatnonzero(j >= lengths[slot])
    if len(beyond):
        k = beyond[0]
        raise ValueError(f"span {Span(int(i[k]), int(j[k]))} outside sentence {sents[slot[k]].id}")
    i, j = i.astype(np.intp), j.astype(np.intp)

    # one table, the columns of sentence slot from offsets[slot] on
    offsets = np.cumsum(lengths) - lengths
    table = np.empty((_AFTER + 1, lengths.sum()), dtype=np.int64)
    for n, fill in length_fills(sents):
        columns = (offsets[fill, None] + np.arange(n)).ravel()
        stacked = featurize([sents[s].tokens for s in fill])
        table[:, columns] = stacked.transpose(1, 0, 2).reshape(_AFTER + 1, -1)
    offsets = offsets[slot]
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
class FeatureSpace:
    """Maps features to column indices.

    A space is its names: column k is names[k], and every code of that
    name (_codes) reads column k.  fit, of an empty space only, returns
    the space that names each distinct code of its rows once, in order
    of first occurrence; transform drops the features without a column.
    Features with one name share a column, so a space depends only on
    the names and order of the rows it was fit on, never on token ids.
    Fitted or loaded, a space builds its code index from its names on
    first use.
    """

    names: list[str] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.names)

    def fit(self, rows: CodeRows) -> "FeatureSpace":
        if self.names:
            raise ValueError("only an empty feature space is fit")
        seen, first = np.unique(rows.codes, return_index=True)
        return FeatureSpace(list(dict.fromkeys(map(_name, seen[np.argsort(first)].tolist()))))

    @functools.cached_property
    def _by_code(self) -> tuple[np.ndarray, np.ndarray]:
        """The names' codes, sorted, then a sentinel above every code, and
        the column of each (-1 for the sentinel)."""
        pairs = np.fromiter(
            ((code, k) for k, name in enumerate(self.names) for code in _codes(name)),
            dtype=np.dtype((np.int64, 2)),
        ).reshape(-1, 2)
        keys, at = np.unique(pairs[:, 0], return_index=True)
        return np.append(keys, np.iinfo(np.int64).max), np.append(pairs[at, 1], -1)

    def columns(self, codes: np.ndarray) -> np.ndarray:
        """The column of each feature code, -1 for a code that is no column."""
        keys, columns = self._by_code
        # no more than two arrays of codes' size at once beside codes:
        # train transforms all its rows in one call
        at = keys.searchsorted(codes)
        miss = keys[at] != codes
        cols = columns[at]
        cols[miss] = -1
        return cols

    def transform(self, rows: CodeRows) -> CodeRows:
        """The rows as the SGD step reads them: each row's column of each
        of its codes, in the row's order, with the codes that are no
        column dropped, then column dim, which carries the bias."""
        cols = self.columns(rows.codes)
        dropped = np.flatnonzero(cols < 0)
        # each row bound less the entries dropped before it
        bounds = rows.indptr - dropped.searchsorted(rows.indptr)
        # a step at a time, so that each array is freed as the next is made
        cols = np.delete(cols, dropped)
        cols = np.insert(cols, bounds[1:], self.dim)
        return CodeRows(cols, bounds + np.arange(len(bounds)))


@dataclass
class SpanScorer:
    """A trained logistic model over one view's features."""

    view: str
    space: FeatureSpace
    weights: np.ndarray
    bias: float
    meta: TrainingMeta
    # how many labeled examples the model was trained on
    example_count: int = 0
    val_metrics: dict[str, float] = field(default_factory=dict)

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
        up once per span.  This equals the dot product of the weights with
        the span's feature row; only the order of the floating-point
        additions differs.  It is _group_scores for one sentence.
        """
        n = len(sentence)
        pairs = None if isinstance(spans, _Spans) else [(sp.i, sp.j) for sp in spans]
        i, j = (spans.i, spans.j) if pairs is None else np.array(pairs, np.intp).reshape(-1, 2).T
        if len(i) and j.max() >= n:
            raise ValueError(f"span beyond the {n} tokens of sentence {sentence.id}")
        return self._group_scores(_last_table(sentence.tokens), i, j)[0]

    def _group_scores(self, tables: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """score_spans of the spans (i, j) of each of B sentences of one
        length, from their stacked (B, 12, n) tables: a (B, spans) array.
        Each sentence's row is the same bits however many share the call."""
        if self.view not in (INSIDE, OUTSIDE, CONCAT):
            raise ValueError(f"unknown view {self.view!r}")
        count, _, n = tables.shape
        z = np.empty((count, len(i)))
        z.fill(self.bias)
        if self.view in (INSIDE, CONCAT):
            w = self._weights(tables[:, _UNIGRAM : _POSITION + 1].transpose(1, 0, 2))
            # the prefix sums, each after a 0; the last bigram weighs 0 and
            # its sum is never read
            sums = np.zeros((2, count, n + 1))
            w[:2].cumsum(axis=2, out=sums[:, :, 1:])
            (unigrams, bigrams), (first, last, length, position) = sums, w[2:]
            z += (unigrams[:, 1:].take(j, 1) - unigrams.take(i, 1)
                  + bigrams.take(j, 1) - bigrams.take(i, 1))
            z += first.take(i, 1)
            z += last.take(j, 1)
            z += length.take(j - i, 1)
            z += position.take(i, 1)
        if self.view in (OUTSIDE, CONCAT):
            left, right, bos, eos = self._weights(tables[:, _LEFT : _EOS + 1].transpose(1, 0, 2))
            z += left.take(i, 1)
            z += right.take(j, 1)
            z += self._weights(tables[:, _PAIR].take(i, 1) + tables[:, _AFTER].take(j, 1))
            # a flag that is off, code -1, reads weight 0
            z += bos.take(i, 1)
            z += eos.take(j, 1)
        p = sigmoid(z.ravel()).reshape(z.shape)
        np.maximum(p, PROB_EPS, out=p)
        return np.minimum(p, 1.0 - PROB_EPS, out=p)

    def _weights(self, codes: np.ndarray) -> np.ndarray:
        """The weight of each feature code: 0 for a code that is no column."""
        columns = self.space.columns(codes)
        known = columns >= 0
        weights = np.zeros(columns.shape)
        weights[known] = self.weights[columns[known]]
        return weights


def _log_loss(probs: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def train(examples, corpus, view: str, meta: TrainingMeta | None = None) -> SpanScorer:
    """Fit a logistic span classifier on labeled examples.

    Holds out 20% of the examples for validation, minimizes L2-penalized
    log loss with mini-batch gradient steps, and stops early once the
    validation loss has failed to improve twice in a row, restoring the
    best checkpoint.  Bit-for-bit reproducible for a fixed rng_seed.
    A decay 1 - learning_rate * l2 of 0 or below, refused before any row
    is built, and weights that are not finite after the restore, a step
    too large for the data, are a ConfigError.

    A training or validation row (FeatureSpace.transform) is the column
    of each of its feature occurrences, then column dim, the bias's.  A
    step of a minibatch of size rows is, with decay 1 - step * l2 (1 for
    the bias), w = w * decay - (step / size) * X^T (sigmoid(X w) - y),
    where np.bincount forms X w and X^T r, adding each row's entries and
    each column's rows in order; X w of the validation rows likewise.
    """
    if meta is None:
        meta = TrainingMeta()
    if meta.learning_rate * meta.l2 >= 1:
        raise ConfigError(
            f"training.learning_rate * training.l2 is {meta.learning_rate * meta.l2:g}, "
            "so the weight decay 1 - learning_rate * l2 is not above 0; "
            "lower training.learning_rate or training.l2"
        )
    labeled = LabeledSet.of(examples)
    label, views = labeled.columns[3:]
    labels = set(np.unique(label).tolist())
    if labels != {CONSTITUENT, DISTITUENT}:
        raise SingleClassInput(
            f"need both classes, got {sorted(labels)} over {len(labeled)} examples"
        )
    wrong = np.flatnonzero(views != VIEW_CODES.get(view, -1))
    if len(wrong):
        raise ValueError(f"example has view {VIEWS[views[wrong[0]]]!r}, expected {view!r}")

    rng = np.random.default_rng(meta.rng_seed)
    perm = rng.permutation(len(labeled))
    n_val = len(labeled) // 5
    y_val, y_train = np.split(label[perm].astype(float), [n_val])

    # the rows in shuffled order, the first n_val held out: the space is
    # fit on the others, and all are transformed at once
    by_id = {sent.id: sent for sent in corpus}
    rows = example_rows(LabeledSet(labeled.columns[:, perm]), by_id, view)
    cut = rows.indptr[n_val]
    space = FeatureSpace().fit(CodeRows(rows.codes[cut:], rows.indptr[n_val:] - cut))
    dim = space.dim
    n = len(y_train)
    rows = space.transform(rows)
    cols, indptr = rows.codes, rows.indptr[n_val:]
    # the validation entries and each one's row, for the step's own
    # forward pass
    val_cols = cols[: indptr[0]]
    val_rows = np.repeat(np.arange(n_val), np.diff(rows.indptr[: n_val + 1]))
    del rows

    # the weights, then the bias
    w = np.zeros(dim + 1)
    best = (np.inf, w.copy())
    stale = 0
    # a batch of n rows or more is the one batch of n rows
    step, batch = meta.learning_rate, min(meta.batch_size, n)
    decay = np.full(dim + 1, 1.0 - step * meta.l2)
    decay[dim] = 1.0
    # position of each row within its minibatch, and the minibatches'
    # row bounds
    batch_pos = np.arange(n) % batch
    edges = [*range(0, n, batch), n]

    def val_probs(w):
        return sigmoid(np.bincount(val_rows, w.take(val_cols), minlength=n_val))

    # a step too large for the data overflows to non-finite weights, which
    # the check after the loop reports, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(meta.epochs):
            # Lay the rows out in this epoch's order, so that each minibatch
            # is one contiguous slice of entries [ptr[lo], ptr[hi]).
            order = rng.permutation(n)
            entry, ptr = _row_entries(indptr[order], np.diff(indptr)[order])
            epoch_cols = cols[entry]
            del entry
            rows = np.repeat(batch_pos, np.diff(ptr))
            y = y_train[order]
            cuts = ptr[edges].tolist()
            for lo, hi, start, end in zip(edges, edges[1:], cuts, cuts[1:]):
                c, r = epoch_cols[start:end], rows[start:end]
                z = np.bincount(r, w.take(c), minlength=hi - lo)
                z = 1 / (1 + np.exp(-z)) - y[lo:hi]
                g = np.bincount(c, z.take(r), minlength=dim + 1)
                w *= decay
                g *= step / (hi - lo)
                w -= g
            # free this epoch's layout, its last slices too, before the next
            # is laid out, so that two layouts are never held at once
            del epoch_cols, rows, c, r
            if n_val == 0:
                continue
            val_loss = _log_loss(val_probs(w), y_val)
            if val_loss < best[0]:
                best = (val_loss, w.copy())
                stale = 0
            else:
                stale += 1
                if stale >= 2:
                    break

    if n_val > 0 and np.isfinite(best[0]):
        _, w = best
    if not np.isfinite(w).all():
        raise ConfigError(
            "training diverged to non-finite weights; "
            "lower training.learning_rate or training.l2"
        )

    metrics: dict[str, float] = {}
    if n_val > 0:
        p_val = val_probs(w)
        pred = (p_val >= 0.5).astype(int)
        yv = y_val.astype(int)
        metrics["val_loss"] = _log_loss(p_val, y_val)
        metrics["val_accuracy"] = float(np.mean(pred == yv))
        # 2 tp / (2 tp + fp + fn), the predicted and the true positives
        tp = int(np.sum((pred == 1) & (yv == 1)))
        metrics["val_f1"] = 2 * tp / int(pred.sum() + yv.sum()) if tp else 0.0
        metrics["val_mcc"] = compute_mcc(pred, yv)

    return SpanScorer(view, space, w[:dim], float(w[dim]), meta, len(labeled), metrics)


@dataclass(frozen=True, eq=False)
class _Spans:
    """Spans as read-only index arrays: i, j, and codes, each span's code
    i * n + j, which is its cell in the chart of an n-token sentence.
    Iterating builds each Span as it is read, for models that read Spans."""

    i: np.ndarray
    j: np.ndarray
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.i)

    def __iter__(self):
        return map(Span, self.i.tolist(), self.j.tolist())


@functools.lru_cache(maxsize=256)
def _all_spans(n: int, min_len: int = 2) -> _Spans:
    """Spans of at least min_len tokens, every span for a min_len below 1,
    in row-major order (by i, then j).

    Cached per call's arguments: the arrays are read-only, so every
    sentence of that length can share them.
    """
    i, j = np.triu_indices(n, max(0, min_len - 1))
    spans = _Spans(i, j, i * n + j)
    for arr in (spans.i, spans.j, spans.codes):
        arr.setflags(write=False)
    return spans


def score_chart(model_or_pair, sentence: Sentence, renormalize: bool = False) -> ScoreChart:
    """Fill a chart with span scores; a pair multiplies inside by outside.

    Renormalization maps (p1, p2) to p1 p2 / (p1 p2 + (1-p1)(1-p2)),
    which leaves a pair with a constant-1/2 partner unchanged.  The
    spans scored and their codes, the chart cells they fill, are the
    cached arrays of _all_spans(n, 1).
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
    chart.cells.put(spans.codes, probs)
    return chart


def confidence_pools(model, corpus, thresholds: Thresholds):
    """Split every multi-token span into confident pools by score.

    Scores strictly above tau_max go to the constituent pool, strictly
    below tau_min to the distituent pool; everything between is dropped.
    Single-token spans carry no bracketing signal and are skipped.
    Returns the constituent pool and then the distituent pool, each as
    three integer arrays: the position in corpus of each span's sentence
    and the span's bounds i and j.  Each pool lists its spans in corpus
    order, then in _all_spans order.  The corpus is scored a length_fills
    fill at a time, one sentence per row: a SpanScorer scores a fill in
    one _group_scores call, any other model by score_spans per sentence.
    """
    corpus = list(corpus)
    # each pool's hits, a fill at a time: corpus positions over bounds
    hits = ([np.empty((3, 0), np.intp)], [np.empty((3, 0), np.intp)])
    for n, positions in length_fills(corpus):
        spans = _all_spans(n)
        if not spans:
            continue
        sents = [corpus[pos] for pos in positions]
        if isinstance(model, SpanScorer):
            probs = model._group_scores(featurize([s.tokens for s in sents]), spans.i, spans.j)
        else:
            probs = np.array([model.score_spans(sent, spans) for sent in sents])
        for found, sure in zip(hits, (probs > thresholds.tau_max, probs < thresholds.tau_min)):
            rows, k = np.nonzero(sure)
            found.append(np.stack((np.take(positions, rows), spans.i[k], spans.j[k])))
    # each fill's hits are in row-major order, so a stable sort by corpus
    # position leaves each sentence's in _all_spans order
    pools = [np.concatenate(found, axis=1) for found in hits]
    return tuple(tuple(pool[:, np.argsort(pool[0], kind="stable")]) for pool in pools)


def harvest(
    model, corpus, thresholds: Thresholds, c: int, d: int, rng
) -> tuple[LabeledSet, LabeledSet, tuple[int, int]]:
    """Sample c confident constituents and d confident distituents.

    Each pool of confidence_pools is sampled uniformly without
    replacement, the constituents first, and a sample keeps pool order.
    A pool smaller than asked for is taken whole, with a
    PoolExhaustedWarning.  Each sample is a LabeledSet in the model's
    view.  Returns both samples and both pool sizes.
    """
    corpus = list(corpus)
    pools = confidence_pools(model, corpus, thresholds)
    ids = _int_columns([sent.id for sent in corpus])
    view = VIEW_CODES[model.view]
    samples = []
    for pool, want, label, what in zip(
        pools, (c, d), (CONSTITUENT, DISTITUENT), ("constituent", "distituent")
    ):
        size = len(pool[0])
        if want > size:
            warnings.warn(f"{what} pool has {size} spans, wanted {want}", PoolExhaustedWarning)
        take = min(want, size)
        picks = np.sort(rng.choice(size, size=take, replace=False)) if take else []
        pos, i, j = (column[picks] for column in pool)
        columns = np.stack((ids[pos], i, j, np.full(take, label), np.full(take, view)))
        samples.append(LabeledSet(columns))
    return samples[0], samples[1], (len(pools[0][0]), len(pools[1][0]))


def select_confident(
    model, corpus, thresholds: Thresholds, c: int, d: int, rng_seed: int = 0
) -> tuple[LabeledSet, LabeledSet]:
    """harvest's constituent and distituent samples, drawn with default_rng(rng_seed)."""
    const, dist, _ = harvest(model, corpus, thresholds, c, d, np.random.default_rng(rng_seed))
    return const, dist


def compute_mcc(predictions, labels) -> float:
    """Matthews correlation of binary predictions against labels.

    Returns 0 when a marginal is zero and the coefficient is undefined.
    """
    p = np.asarray(predictions)
    y = np.asarray(labels)
    if len(p) != len(y):
        raise LengthMismatch(f"{len(p)} predictions vs {len(y)} labels")
    tp, tn, fp, fn = (
        int(np.count_nonzero((p == a) & (y == b))) for a, b in ((1, 1), (0, 0), (1, 0), (0, 1))
    )
    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0:
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
    # a weight that is not finite is a ValueError before the file is opened
    text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


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
            payload = json_value(fh.read(), f"model file {path}", MalformedFile)
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
        raise bad("unsupported feature space inside_context={!r} hash_dim={!r}".format(*retired))
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise bad("feature names are not a list of strings")
    space = FeatureSpace(names=names)
    if len(set(space.names)) != space.dim:
        raise bad("repeated feature names")
    if weights.shape != (space.dim,):
        raise bad(f"{weights.size} weights for {space.dim} feature columns")
    if not (np.all(np.isfinite(weights)) and np.isfinite(bias)):
        raise bad("non-finite weights")
    return SpanScorer(view, space, weights, bias, meta, example_count, val_metrics)
