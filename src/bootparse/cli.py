"""Pipeline subcommands: synth, bootstrap, train, selftrain, cotrain,
parse, eval, report.

Every subcommand is a pure function of its config, input files, and rng
seed; outputs carry no timestamps, so re-runs are byte-identical.  Exit
codes: 0 success, 1 usage or config error, 2 data error (a DataError or
an unreadable input file), 3 internal error, 141 (128 + SIGPIPE) when
the reader of stdout closed it early.

A subcommand loads only the modules it runs, so report and --help start
without numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    BootparseError,
    ConfigError,
    DataError,
    ExternalScorerError,
    LengthMismatch,
    MalformedFile,
    PoolExhaustedWarning,
    YieldMismatch,
    check_number,
    json_value,
    read_text,
)

if TYPE_CHECKING:
    from .config import HeuristicConfig, PipelineConfig
    from .synth import SyntheticGrammar

SEED_FILE = "seeds.tsv"
INSIDE_SEED_MODEL = "inside_seed.json"
TRAIN_LOG = "train_log.json"
SELF_IN_MODEL = "self_in.json"
SELF_OUT_MODEL = "self_out.json"
SELF_TRACE = "self_trace.jsonl"
SELF_INSIDE_SET = "self_inside.tsv"
SELF_OUTSIDE_SET = "self_outside.tsv"
CO_IN_MODEL = "co_in.json"
CO_OUT_MODEL = "co_out.json"
CO_TRACE = "co_trace.jsonl"

# 128 + SIGPIPE, what a shell reports for a writer killed by a closed pipe
EXIT_STDOUT_CLOSED = 141

# exit 2: every data error of the package, and a file that cannot be read
_DATA_ERRORS = (
    DataError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
    UnicodeDecodeError,
)


class UsageError(Exception):
    pass


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as one line of its category and message, without the
    source file and line, which differ from one install to the next."""
    return f"{category.__name__}: {message}\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_from(low: int):
    """An argparse type: an integer of at least low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _load(args) -> PipelineConfig:
    from .config import load_config

    try:
        return load_config(args.config)
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc


def _output_dir(path: str) -> Path:
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc.strerror}") from exc
    return path


def _corpus(cfg: PipelineConfig):
    from .treebank import read_corpus

    if cfg.paths.corpus is None:
        raise ConfigError("paths.corpus is not set")
    return read_corpus(cfg.paths.corpus)


# ---------------------------------------------------------------- synth


def _grammar_from_file(path) -> SyntheticGrammar:
    from .synth import SyntheticGrammar

    text = read_text(path, ConfigError)
    try:
        raw = json_value(text, f"grammar file {path}", ConfigError)
        rules = {
            lhs: tuple((float(p), tuple(rhs)) for p, rhs in prods)
            for lhs, prods in raw["rules"].items()
        }
        lexicon = {pre: tuple(words) for pre, words in raw["lexicon"].items()}
        return SyntheticGrammar(
            start=raw.get("start", "S"),
            rules=rules,
            lexicon=lexicon,
            max_depth=raw.get("max_depth", 40),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad grammar file {path}: {exc}") from exc


def cmd_synth(args) -> int:
    from .synth import builtin_grammar, generate_corpus
    from .treebank import serialize, write_corpus

    grammar = (
        _grammar_from_file(args.grammar) if args.grammar else builtin_grammar()
    )
    golds = generate_corpus(
        grammar,
        args.count,
        rng_seed=args.rng_seed,
        min_len=args.min_len,
        max_len=args.max_len,
    )
    write_corpus([g.sentence for g in golds], args.out)
    if args.gold:
        with open(args.gold, "w", encoding="utf-8") as fh:
            for g in golds:
                fh.write(serialize(g))
                fh.write("\n")
    print(f"wrote {len(golds)} sentences to {args.out}")
    return 0


# ------------------------------------------------------------ bootstrap


def cmd_bootstrap(args) -> int:
    from .seeds import generate_seeds, write_seed_file

    cfg = _load(args)
    corpus = _corpus(cfg)
    examples = generate_seeds(corpus, cfg.seeds)
    out = Path(args.out) if args.out else _output_dir(cfg.paths.model_dir) / SEED_FILE
    write_seed_file(examples, out)
    print(f"wrote {len(examples)} seed examples to {out}")
    return 0


# ---------------------------------------------------------------- train


def _training_inputs(args):
    """Config, corpus, casing carriers and model directory of a stage.

    The carrier sentences that bootstrap's lower-cased run copies refer
    to are a pure function of the corpus and the seed config; each
    training stage rebuilds them.
    """
    from .seeds import casing_copy_sentences

    cfg = _load(args)
    corpus = _corpus(cfg)
    carriers = casing_copy_sentences(corpus, cfg.seeds)
    return cfg, corpus, carriers, _output_dir(cfg.paths.model_dir)


def _read_examples(path, sentences, view: str):
    """Read a seed file of spans inside known sentences, labeled in view."""
    import numpy as np

    from .seeds import VIEW_CODES, read_seed_file

    examples = read_seed_file(path)
    sid, _, j, _, views = examples.columns
    lengths = {sent.id: len(sent) for sent in sentences}
    # bools even when the columns hold Python ints
    inside = (j < np.array([lengths.get(key, 0) for key in sid.tolist()])).astype(bool)
    wrong = np.flatnonzero(~inside | (views != VIEW_CODES[view]))
    if len(wrong):
        ex = examples[wrong[0]]
        why = "is outside the corpus"
        if inside[wrong[0]]:
            why = f"has view {ex.view!r}, expected {view!r}"
        raise MalformedFile(
            f"{path}: span ({ex.span.i}, {ex.span.j}) of sentence {ex.sentence_id} {why}"
        )
    return examples


def cmd_train(args) -> int:
    from .scorer import save_model, train
    from .seeds import INSIDE

    cfg, corpus, carriers, model_dir = _training_inputs(args)
    seed_path = Path(args.seeds) if args.seeds else model_dir / SEED_FILE
    examples = _read_examples(seed_path, corpus + carriers, INSIDE)
    model = train(examples, corpus + carriers, INSIDE, cfg.training)
    save_model(model, model_dir / INSIDE_SEED_MODEL)
    log = {
        "stage": "train",
        "view": INSIDE,
        "examples": len(examples),
        "sentences": len(corpus),
    }
    (model_dir / TRAIN_LOG).write_text(
        json.dumps(log, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"trained inside model on {len(examples)} seeds -> "
          f"{model_dir / INSIDE_SEED_MODEL}")
    return 0


# ------------------------------------------------------- selftrain etc.


def _save_loop(result, model_dir: Path, in_model, out_model, trace) -> None:
    from .scorer import save_model

    save_model(result.m_in, model_dir / in_model)
    save_model(result.m_out, model_dir / out_model)
    (model_dir / trace).write_text(result.trace.to_jsonl(), encoding="utf-8")


def cmd_selftrain(args) -> int:
    from .loops import self_train
    from .seeds import INSIDE, write_seed_file

    cfg, corpus, carriers, model_dir = _training_inputs(args)
    seed_path = Path(args.seeds) if args.seeds else model_dir / SEED_FILE
    examples = _read_examples(seed_path, corpus + carriers, INSIDE)
    result = self_train(
        examples, corpus, cfg.self_train, lookup=carriers, meta=cfg.training
    )
    _save_loop(result, model_dir, SELF_IN_MODEL, SELF_OUT_MODEL, SELF_TRACE)
    write_seed_file(result.inside_examples, model_dir / SELF_INSIDE_SET)
    write_seed_file(result.outside_examples, model_dir / SELF_OUTSIDE_SET)
    print(f"self-training done: K={cfg.self_train.K}, "
          f"|I|={len(result.inside_examples)} -> {model_dir / SELF_IN_MODEL}")
    return 0


def cmd_cotrain(args) -> int:
    from .loops import co_train
    from .seeds import INSIDE, OUTSIDE

    cfg, corpus, carriers, model_dir = _training_inputs(args)
    inside = _read_examples(model_dir / SELF_INSIDE_SET, corpus + carriers, INSIDE)
    outside = _read_examples(model_dir / SELF_OUTSIDE_SET, corpus + carriers, OUTSIDE)
    result = co_train(
        inside, outside, corpus, cfg.co_train, lookup=carriers, meta=cfg.training
    )
    _save_loop(result, model_dir, CO_IN_MODEL, CO_OUT_MODEL, CO_TRACE)
    print(f"co-training done: K={cfg.co_train.K}, "
          f"|I|={len(result.inside_examples)}, "
          f"|O|={len(result.outside_examples)} -> {model_dir / CO_IN_MODEL}")
    return 0


# ---------------------------------------------------------------- parse


def _parse_scorer(cfg: PipelineConfig, stage: str, model_dir: Path):
    """The external scorer, or the stage's inside model and, for co, its
    outside model after it."""
    from .config import EXTERNAL_BACKEND
    from .scorer import load_model
    from .seeds import INSIDE, OUTSIDE

    if cfg.scorer.backend == EXTERNAL_BACKEND:
        from .external import ExternalScorer

        return ExternalScorer(list(cfg.scorer.command), INSIDE, timeout=cfg.scorer.timeout)
    names = {
        "seed": [INSIDE_SEED_MODEL], "self": [SELF_IN_MODEL], "co": [CO_IN_MODEL, CO_OUT_MODEL]
    }[stage]
    models = [load_model(model_dir / name) for name in names]
    for name, model, view in zip(names, models, (INSIDE, OUTSIDE)):
        if model.view != view:
            raise MalformedFile(
                f"model file {model_dir / name}: view {model.view!r}, expected {view!r}"
            )
    return tuple(models) if stage == "co" else models[0]


def _heuristic_stats(cfg: PipelineConfig) -> HeuristicConfig:
    """The decode statistics, a pure function of the config and its corpus.

    Statistics set in the config win, with the bundled stopwords unless
    the config lists its own; without any, they are counted from the
    training corpus at paths.corpus.
    """
    from .decoder import heuristics_from_corpus, load_stopwords
    from .treebank import read_corpus

    h = cfg.heuristics
    if not h.enabled:
        return h
    if (
        h.comma_successor_word is not None
        or h.common_start_word is not None
        or h.top_frequency_set
    ):
        if h.stopword_set:
            return h
        return dataclasses.replace(h, stopword_set=load_stopwords())
    if cfg.paths.corpus is None:
        raise ConfigError(
            "heuristics are enabled but no statistics are available; "
            "set them in the heuristics section or set paths.corpus"
        )
    return heuristics_from_corpus(read_corpus(cfg.paths.corpus))


def cmd_parse(args) -> int:
    """Decode the input a length_fills fill at a time: score and apply the
    heuristics per sentence, then decode the fill's charts in one stacked
    pass.  The trees are written in input order once every fill is
    decoded.  A token that no bracketed line can hold is refused before
    any model is loaded."""
    import numpy as np

    from .config import EXTERNAL_BACKEND
    from .decoder import apply_heuristics, cyk_decode_stack
    from .scorer import score_chart
    from .treebank import bracketed, check_bracket_words, length_fills, read_corpus

    cfg = _load(args)
    sentences = read_corpus(args.input)
    for sentence in sentences:
        try:
            check_bracket_words(sentence.tokens, "token")
        except ValueError as exc:
            raise MalformedFile(f"{args.input}: sentence {sentence.id}: {exc}") from exc
    heuristics = _heuristic_stats(cfg)
    scorer = _parse_scorer(cfg, args.stage, Path(cfg.paths.model_dir))
    lines = [""] * len(sentences)
    external = cfg.scorer.backend == EXTERNAL_BACKEND
    try:
        for n, positions in length_fills(sentences):
            group = [sentences[pos] for pos in positions]
            charts = np.empty((len(group), n, n))
            for b, sentence in enumerate(group):
                chart = score_chart(scorer, sentence, renormalize=cfg.renormalize)
                charts[b] = apply_heuristics(chart, sentence, heuristics).cells
            for sentence, pos, codes in zip(group, positions, cyk_decode_stack(charts)):
                brackets = [("X", *divmod(code, n)) for code in codes] or [("X", 0, 0)]
                lines[pos] = bracketed(sentence.tokens, brackets) + "\n"
        if external:
            scorer.finish()
    finally:
        if external:
            scorer.close()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print(f"parsed {len(sentences)} sentences -> {args.out}")
    return 0


# ----------------------------------------------------------------- eval


def _read_predictions(path):
    """(tokens, span codes) of the binary tree on each non-empty line, the
    codes as corpus_eval takes them; MalformedFile names path:line."""
    from .treebank import binary_from_tree, parse_bracketed

    preds = []
    for index, line in enumerate(read_text(path).split("\n")):
        line = line.strip()
        if not line:
            continue
        try:
            tree = parse_bracketed(line, index)
            codes = frozenset(code for _, code in tree.codes)
            # a tree's spans nest under its root, the whole sentence, so n - 1
            # distinct spans of two or more tokens form a binary tree, and
            # BinaryTree names what is wrong with any other count
            if len(codes) != len(tree.sentence) - 1:
                binary_from_tree(tree)
        except (DataError, ValueError) as exc:
            raise MalformedFile(f"{path}:{index + 1}: {exc}") from exc
        preds.append((tree.sentence.tokens, codes))
    return preds


def cmd_eval(args) -> int:
    from .evaluation import (
        BALANCED,
        LEFT,
        RANDOM,
        RIGHT,
        corpus_eval,
        oracle_binary,
        render_length_buckets_tsv,
        render_per_sentence_tsv,
        render_report,
        trivial_baselines,
    )
    from .treebank import read_treebank

    cfg = _load(args)
    gold_path = args.gold or cfg.paths.gold
    if gold_path is None:
        raise ConfigError("no gold file: pass --gold or set paths.gold")
    preds = _read_predictions(args.pred)
    golds = read_treebank(gold_path)
    if len(preds) != len(golds):
        raise LengthMismatch(
            f"{len(preds)} predictions vs {len(golds)} gold trees"
        )
    mismatches = [
        index
        for index, ((tokens, _), g) in enumerate(zip(preds, golds))
        if tokens != g.sentence.tokens
    ]
    if mismatches:
        for index in mismatches:
            print(
                f"yield mismatch at sentence {index}: "
                f"predicted {' '.join(preds[index][0])!r} "
                f"vs gold {' '.join(golds[index].sentence.tokens)!r}",
                file=sys.stderr,
            )
        raise YieldMismatch(f"{len(mismatches)} sentences with mismatched tokens")

    report = corpus_eval([codes for _, codes in preds], golds, cfg.eval)
    report_dir = _output_dir(cfg.paths.report_dir)
    lines = [render_report(report)]
    if args.baselines:
        for which in (LEFT, RIGHT, BALANCED, RANDOM):
            base = trivial_baselines(golds, which, cfg.eval, rng_seed=cfg.rng_seed)
            lines.append(f"baseline {which:<9} F1 {base.f1:.4f}")
    if args.oracle:
        oracle = oracle_binary(golds, cfg.eval)
        lines.append(f"oracle binary       F1 {oracle.f1:.4f}")
    text = "\n".join(lines) + "\n"
    (report_dir / "report.txt").write_text(text, encoding="utf-8")
    (report_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
    (report_dir / "per_sentence.tsv").write_text(
        render_per_sentence_tsv(report), encoding="utf-8"
    )
    (report_dir / "length_buckets.tsv").write_text(
        render_length_buckets_tsv(report), encoding="utf-8"
    )
    print(text, end="")
    print(f"reports written to {report_dir}")
    return 0


# --------------------------------------------------------------- report


def cmd_report(args) -> int:
    from .config import EVAL_MODES
    from .trace import LoopTrace

    cfg = _load(args)
    model_dir = Path(cfg.paths.model_dir)
    report_dir = Path(cfg.paths.report_dir)
    sections = []
    for name, trace_file in (("self-training", SELF_TRACE),
                             ("co-training", CO_TRACE)):
        path = model_dir / trace_file
        if not path.exists():
            continue
        text = read_text(path)
        try:
            trace = LoopTrace.from_jsonl(text)
        except ValueError as exc:
            raise MalformedFile(f"trace file {path}: {exc}") from exc
        rows = [f"{name} trace ({len(trace)} iterations):"]
        for rec in trace:
            pools, selected, metrics = (
                json.dumps(part, sort_keys=True) for part in (rec.pools, rec.selected, rec.metrics)
            )
            rows.append(
                f"  iter {rec.iteration}: |I|={rec.inside_size} |O|={rec.outside_size} "
                f"pools={pools} selected={selected} metrics={metrics}"
                + ("  [harvest selected nothing]" if sum(rec.selected.values()) == 0 else "")
            )
        sections.append("\n".join(rows))
    report_json = report_dir / "report.json"
    if report_json.exists():
        text = read_text(report_json)
        try:
            raw = json_value(text, "the report")
            for key in ("f1", "precision", "recall"):
                check_number(key, raw[key])
            if raw["mode"] not in EVAL_MODES:
                raise ValueError(f"unknown mode {raw['mode']!r}")
            sections.append(
                f"evaluation ({raw['mode']}): F1 {raw['f1']:.4f} "
                f"P {raw['precision']:.4f} R {raw['recall']:.4f}"
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedFile(f"report file {report_json}: {exc!r}") from exc
    if not sections:
        print("nothing to report: no trace or report files found")
        return 0
    print("\n\n".join(sections))
    return 0


# ----------------------------------------------------------------- main


def _parser() -> _Parser:
    parser = _Parser(prog="bootparse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--config", default=None, help="JSON config file")
        return p

    p = add("synth", cmd_synth, "sample a corpus from a toy grammar")
    p.add_argument("--out", required=True, help="corpus output (text lines)")
    p.add_argument("--gold", default=None, help="gold treebank output")
    p.add_argument("--count", type=_int_from(1), default=2000)
    p.add_argument("--rng-seed", type=_int_from(0), default=0)
    p.add_argument("--min-len", type=_int_from(1), default=3)
    p.add_argument("--max-len", type=_int_from(1), default=12)
    p.add_argument("--grammar", default=None, help="grammar JSON file")

    p = add("bootstrap", cmd_bootstrap, "generate template seed examples")
    p.add_argument("--out", default=None, help="seed file (default in model dir)")

    p = add("train", cmd_train, "train the inside model on seed examples")
    p.add_argument("--seeds", default=None, help="seed file to train on")

    p = add("selftrain", cmd_selftrain, "run the self-training loop")
    p.add_argument("--seeds", default=None, help="seed file to start from")

    add("cotrain", cmd_cotrain, "run the co-training loop")

    p = add("parse", cmd_parse, "decode trees for raw sentences")
    p.add_argument("--input", required=True, help="text file, one sentence per line")
    p.add_argument("--out", required=True, help="bracketed predictions output")
    p.add_argument(
        "--stage",
        choices=("seed", "self", "co"),
        default="co",
        help="which trained model(s) to decode with",
    )

    p = add("eval", cmd_eval, "score predictions against gold trees")
    p.add_argument("--pred", required=True, help="bracketed predictions file")
    p.add_argument("--gold", default=None, help="gold treebank (default from config)")
    p.add_argument("--baselines", action="store_true",
                   help="add LB/RB/balanced/random rows")
    p.add_argument("--oracle", action="store_true",
                   help="add the binary-oracle upper bound row")

    add("report", cmd_report, "summarize traces and evaluation reports")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth" and args.min_len > args.max_len:
            parser.error(f"--min-len {args.min_len} is above --max-len {args.max_len}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        with warnings.catch_warnings():
            # every short pool prints, the same one again too; -W still wins
            warnings.filterwarnings("always", category=PoolExhaustedWarning, append=True)
            code = args.fn(args)
        # flushed here, so a closed stdout is handled below, not at exit
        sys.stdout.flush()
        return code
    except (ConfigError, UsageError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ExternalScorerError as exc:
        print(f"external scorer failed: {exc}", file=sys.stderr)
        return 3
    except BootparseError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader of stdout left early (`bootparse eval ... | head -1`)
        # and the output files are complete.  What is still buffered goes
        # to /dev/null, so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED
    except Exception as exc:  # anything unforeseen is an internal error
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
