import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootparse import cli, treebank
from bootparse.cli import main
from bootparse.config import PipelineConfig, load_config
from bootparse.decoder import (
    HeuristicConfig,
    apply_heuristics,
    cyk_decode,
    heuristics_from_corpus,
    load_stopwords,
)
from bootparse.errors import (
    AllTokensRemoved,
    ConfigError,
    DataError,
    ExternalScorerError,
    TooLarge,
)
from bootparse.loops import IterationRecord, LoopTrace
from bootparse.scorer import load_model, score_chart
from bootparse.treebank import (
    FILL_CELLS,
    BinaryTree,
    Sentence,
    Span,
    parse_bracketed,
    read_corpus,
    read_treebank,
)


def right_branching_spans(n):
    return {Span(0, 0)} if n == 1 else {Span(i, n - 1) for i in range(n - 1)}


GOLDEN_RIGHT = (
    "0\t0\t4\tconstituent\tinside\n"
    "0\t0\t3\tdistituent\tinside\n"
    "0\t0\t2\tdistituent\tinside\n"
    "0\t0\t1\tdistituent\tinside\n"
    "1\t0\t1\tconstituent\tinside\n"
    "2\t0\t2\tconstituent\tinside\n"
    "2\t0\t1\tdistituent\tinside\n"
)
GOLDEN_LEFT = (
    "0\t0\t4\tconstituent\tinside\n"
    "0\t1\t4\tdistituent\tinside\n"
    "0\t2\t4\tdistituent\tinside\n"
    "0\t3\t4\tdistituent\tinside\n"
    "1\t0\t1\tconstituent\tinside\n"
    "2\t0\t2\tconstituent\tinside\n"
    "2\t1\t2\tdistituent\tinside\n"
)


def write_config(path: Path, **overrides) -> Path:
    raw = {
        "paths": {
            "corpus": str(path / "corpus.txt"),
            "gold": str(path / "gold.txt"),
            "model_dir": str(path / "models"),
            "report_dir": str(path / "reports"),
        },
        "heuristics": {"enabled": False},
    }
    raw.update(overrides)
    cfg = path / "config.json"
    cfg.write_text(json.dumps(raw))
    return cfg


def write_tiny_corpus(path: Path) -> None:
    (path / "corpus.txt").write_text(
        "the dog sees a cat\nalice runs\nNorth Bay sleeps\n"
    )


def test_bootstrap_golden_bytes(tmp_path):
    write_tiny_corpus(tmp_path)
    cfg = write_config(tmp_path)
    assert main(["bootstrap", "--config", str(cfg)]) == 0
    assert (tmp_path / "models" / "seeds.tsv").read_text() == GOLDEN_RIGHT


def test_bootstrap_left_branching_golden(tmp_path):
    write_tiny_corpus(tmp_path)
    cfg = write_config(tmp_path, seeds={"branching": "left"})
    assert main(["bootstrap", "--config", str(cfg)]) == 0
    assert (tmp_path / "models" / "seeds.tsv").read_text() == GOLDEN_LEFT


def test_synth_is_deterministic(tmp_path):
    for name in ("a", "b"):
        assert main([
            "synth", "--out", str(tmp_path / f"{name}.txt"),
            "--gold", str(tmp_path / f"{name}_gold.txt"),
            "--count", "50", "--rng-seed", "3",
        ]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert (
        (tmp_path / "a_gold.txt").read_bytes()
        == (tmp_path / "b_gold.txt").read_bytes()
    )
    lines = (tmp_path / "a.txt").read_text().splitlines()
    assert len(lines) == 50


def test_synth_respects_length_bounds(tmp_path):
    assert main([
        "synth", "--out", str(tmp_path / "c.txt"), "--count", "80",
        "--min-len", "4", "--max-len", "7",
    ]) == 0
    for line in (tmp_path / "c.txt").read_text().splitlines():
        assert 4 <= len(line.split()) <= 7


def test_synth_custom_grammar(tmp_path):
    grammar = {
        "start": "S",
        "rules": {"S": [[1.0, ["A", "B"]]]},
        "lexicon": {"A": ["left"], "B": ["right"]},
    }
    (tmp_path / "g.json").write_text(json.dumps(grammar))
    assert main([
        "synth", "--out", str(tmp_path / "c.txt"), "--count", "5",
        "--grammar", str(tmp_path / "g.json"), "--min-len", "2",
    ]) == 0
    assert (tmp_path / "c.txt").read_text() == "left right\n" * 5


def test_synth_derives_deeper_than_the_recursion_limit(tmp_path, capsys):
    # derivations 600 to 1,000 symbols deep are drawn, checked and written
    # without recursion, the gold file reads back as the corpus and scores
    # F1 1 against itself, and a rerun writes the same bytes
    grammar = {
        "start": "S",
        "max_depth": 5000,
        "rules": {"S": [[0.999, ["A", "S"]], [0.001, ["A"]]]},
        "lexicon": {"A": ["a"]},
    }
    (tmp_path / "g.json").write_text(json.dumps(grammar))
    for run in ("", "2"):
        assert main([
            "synth", "--out", str(tmp_path / f"c{run}.txt"),
            "--gold", str(tmp_path / f"g{run}.txt"),
            "--grammar", str(tmp_path / "g.json"), "--count", "2",
            "--min-len", "600", "--max-len", "1000",
        ]) == 0
    sentences = read_corpus(tmp_path / "c.txt")
    assert [t.sentence for t in read_treebank(tmp_path / "g.txt")] == sentences
    assert len(sentences) == 2
    assert all(600 <= len(s) <= 1000 for s in sentences)
    for name in ("c.txt", "g.txt"):
        assert (tmp_path / name).read_bytes() == (tmp_path / name.replace(".", "2.")).read_bytes()
    capsys.readouterr()
    cfg = write_config(tmp_path)
    gold = str(tmp_path / "g.txt")
    assert main(["eval", "--config", str(cfg), "--pred", gold, "--gold", gold]) == 0
    assert re.search(r"^f1 +1\.0000$", capsys.readouterr().out, re.M)


@pytest.mark.parametrize("flag, value", [("--count", "0"), ("--rng-seed", "-1")])
def test_synth_bad_count_or_seed_is_exit_1(tmp_path, capsys, flag, value):
    assert main(["synth", "--out", str(tmp_path / "c.txt"), flag, value]) == 1
    err = capsys.readouterr().err
    assert flag in err and "internal error" not in err
    assert not (tmp_path / "c.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [["--max-len", "0"], ["--min-len", "0"], ["--min-len", "5", "--max-len", "3"]],
)
def test_synth_bad_length_window_is_exit_1(tmp_path, capsys, argv):
    assert main(["synth", "--out", str(tmp_path / "c.txt"), *argv]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and argv[-2] in err
    assert not (tmp_path / "c.txt").exists()


@pytest.mark.parametrize(
    "case", ["probabilities_halved", "not_json", "rules_not_object"]
)
def test_bad_grammar_file_is_exit_1(tmp_path, capsys, case):
    grammar = {
        "start": "S",
        "rules": {"S": [[0.5, ["A", "B"]]]},
        "lexicon": {"A": ["left"], "B": ["right"]},
    }
    text = {
        "probabilities_halved": json.dumps(grammar),
        "not_json": "nope",
        "rules_not_object": json.dumps({**grammar, "rules": []}),
    }[case]
    (tmp_path / "g.json").write_text(text)
    assert main([
        "synth", "--out", str(tmp_path / "c.txt"),
        "--grammar", str(tmp_path / "g.json"),
    ]) == 1
    assert f"bad grammar file {tmp_path / 'g.json'}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lexicon, named",
    [
        ({"N": ["dog"], "V": [""]}, "word under 'V' ''"),
        ({"N": ["big dog"], "V": ["runs"]}, "word under 'N' 'big dog'"),
        ({"N": ["dog)"], "V": ["runs"]}, "word under 'N' 'dog)'"),
        ({"N": ["(dog"], "V": ["runs"]}, "word under 'N' '(dog'"),
        ({"N P": ["dog"], "V": ["runs"]}, "symbol 'N P'"),
        ({"N": ["\ud800"], "V": ["runs"]}, "word under 'N' '\\ud800'"),
        ({"N\udfff": ["dog"], "V": ["runs"]}, "symbol 'N\\udfff'"),
    ],
    ids=["empty_word", "spaced_word", "closing_word", "opening_word", "spaced_symbol",
         "surrogate_word", "surrogate_symbol"],
)
def test_unbracketable_grammar_is_exit_1(tmp_path, capsys, lexicon, named):
    # a word or symbol that no bracketed line can hold would write a gold
    # file that does not read back as the corpus, and one with a lone
    # surrogate a file that UTF-8 cannot encode
    pre = next(iter(lexicon))
    grammar = {"start": "S", "rules": {"S": [[1.0, [pre, "V"]]]}, "lexicon": lexicon}
    (tmp_path / "g.json").write_text(json.dumps(grammar))
    assert main([
        "synth", "--out", str(tmp_path / "c.txt"), "--gold", str(tmp_path / "g.txt"),
        "--grammar", str(tmp_path / "g.json"), "--count", "2", "--min-len", "2",
    ]) == 1
    err = capsys.readouterr().err
    assert f"config error: bad grammar file {tmp_path / 'g.json'}: {named} " in err
    assert not (tmp_path / "c.txt").exists() and not (tmp_path / "g.txt").exists()


@pytest.mark.parametrize(
    "max_depth, unending",
    [*(pytest.param(value, False, id=value)
       for value in ["NaN", "Infinity", "-Infinity", "true", "2.5", "0"]),
     pytest.param("NaN", True, id="NaN_unending")],
)
def test_grammar_max_depth_not_a_positive_integer_is_exit_1(tmp_path, max_depth, unending):
    # NaN and Infinity would switch the depth guard off, so a grammar
    # whose derivations may not end would hang synth: a subprocess with a
    # timeout, so a hang fails the test
    grammar = {**FUZZ_GRAMMAR, "max_depth": 0}
    if unending:
        # S -> S S with probability 0.7: a derivation may never end
        grammar.update(rules={"S": [[0.7, ["S", "S"]], [0.3, ["A"]]]}, lexicon={"A": ["a"]})
    text = json.dumps(grammar)
    (tmp_path / "g.json").write_text(text.replace('"max_depth": 0', f'"max_depth": {max_depth}'))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "bootparse.cli", "synth", "--out", "c.txt", "--grammar", "g.json",
         "--count", "2", "--max-len", "8"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        "config error: bad grammar file g.json: max_depth must be an integer >= 1, got "
    )
    assert not (tmp_path / "c.txt").exists()


def test_missing_config_file_is_exit_1(tmp_path):
    assert main(["bootstrap", "--config", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize(
    "text", [b'{"rng_seed": 0\xff}', b'{"rng_seed": 0'], ids=["not_utf8", "not_json"]
)
def test_unreadable_config_file_is_exit_1(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    assert main(["bootstrap", "--config", str(cfg)]) == 1
    assert f"config file {cfg} is not UTF-8 JSON" in capsys.readouterr().err


def test_unknown_config_section_is_exit_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus": 1}')
    assert main(["bootstrap", "--config", str(cfg)]) == 1


@pytest.mark.parametrize(
    "section",
    ["self_train", "co_train", "seeds", "paths", "training", "heuristics",
     "eval", "scorer"],
)
def test_non_object_config_section_is_exit_1(tmp_path, capsys, section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: 5}))
    assert main(["bootstrap", "--config", str(cfg)]) == 1
    assert f"config section {section} must be an object" in capsys.readouterr().err


def test_bad_loop_value_is_exit_1(tmp_path):
    write_tiny_corpus(tmp_path)
    cfg = write_config(tmp_path, self_train={"K": 0})
    assert main(["selftrain", "--config", str(cfg)]) == 1


@pytest.mark.parametrize(
    "field, value",
    [("learning_rate", "x"), ("epochs", 2.5), ("epochs", -1), ("epochs", True),
     ("l2", -1), ("batch_size", 0)],
)
def test_bad_training_value_is_exit_1(tmp_path, capsys, field, value):
    write_tiny_corpus(tmp_path)
    assert main(["bootstrap", "--config", str(write_config(tmp_path))]) == 0
    cfg = write_config(tmp_path, training={field: value})
    assert main(["train", "--config", str(cfg)]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, field, value",
    [("self_train", "K", 1.5), ("self_train", "K", True), ("self_train", "c", 2.5),
     ("self_train", "pool_cap", 10.5), ("self_train", "rng_seed", "x"),
     ("self_train", "accumulate", "yes"), ("seeds", "num_slices", 2.5),
     ("seeds", "min_span_len", 2.5), ("seeds", "rng_seed", "x"),
     ("seeds", "lowercase_copy_label", 2), ("training", "rng_seed", "x"),
     ("eval", "bucket_width", 2.5), ("eval", "max_len", 7.5), (None, "rng_seed", -1)],
)
def test_bad_integer_config_value_is_exit_1(tmp_path, capsys, section, field, value):
    write_tiny_corpus(tmp_path)
    overrides = {section: {field: value}} if section else {field: value}
    cfg = write_config(tmp_path, **overrides)
    assert main(["bootstrap", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert field in err and "internal error" not in err


@pytest.mark.parametrize("value", ["no", 1, None])
@pytest.mark.parametrize(
    "section, field",
    [("seeds", "casing_augmentation"), ("seeds", "star_split"),
     ("seeds", "random_slices"), ("eval", "exclude_trivial"),
     ("eval", "dedup_spans"), ("heuristics", "enabled"),
     ("self_train", "accumulate"), (None, "renormalize")],
)
def test_non_bool_config_value_is_exit_1(tmp_path, capsys, section, field, value):
    write_tiny_corpus(tmp_path)
    overrides = {section: {field: value}} if section else {field: value}
    cfg = write_config(tmp_path, **overrides)
    assert main(["bootstrap", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert field in err and "internal error" not in err


@pytest.mark.parametrize(
    "field, value",
    [("top_frequency_set", "the"), ("top_frequency_set", 5),
     ("top_frequency_set", [f"w{k}" for k in range(101)]),
     ("comma_successor_word", 5), ("stopword_set", [1])],
)
def test_bad_heuristics_value_is_exit_1(tmp_path, capsys, field, value):
    write_tiny_corpus(tmp_path)
    cfg = write_config(tmp_path, heuristics={field: value})
    assert main(["bootstrap", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert field in err and "internal error" not in err


@pytest.mark.parametrize(
    "section, field, value",
    [("training", "example_count", 5), ("self_train", "accumulate_self_train", True),
     ("co_train", "accumulate", False)],
)
def test_removed_config_key_is_exit_1(tmp_path, capsys, section, field, value):
    # a model file records its example count; accumulate is the only spelling,
    # and only self-training has it: co-training always accumulates
    write_tiny_corpus(tmp_path)
    cfg = write_config(tmp_path, **{section: {field: value}})
    assert main(["bootstrap", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"unknown {section} keys" in err and field in err


@pytest.mark.parametrize(
    "field, value",
    [("corpus", ["c.txt"]), ("corpus", 5), ("gold", 5), ("gold", ["g.txt"]),
     ("model_dir", 5), ("model_dir", None), ("report_dir", 5), ("report_dir", None)],
)
def test_bad_paths_value_is_exit_1(tmp_path, capsys, field, value):
    write_tiny_corpus(tmp_path)
    cfg = write_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["paths"][field] = value
    cfg.write_text(json.dumps(raw))
    assert main(["bootstrap", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert field in err and "internal error" not in err


@pytest.mark.parametrize(
    "field, value",
    [("command", "python3 x.py"), ("command", ["cat", ""]), ("command", ["cat", 1]),
     ("timeout", "x"), ("timeout", -1), ("timeout", 0), ("timeout", None),
     ("timeout", True)],
)
def test_bad_scorer_value_is_exit_1(tmp_path, capsys, field, value):
    write_tiny_corpus(tmp_path)
    scorer = {"backend": "external", "command": ["cat"], field: value}
    cfg = write_config(tmp_path, scorer=scorer)
    assert main([
        "parse", "--config", str(cfg), "--input", str(tmp_path / "corpus.txt"),
        "--out", str(tmp_path / "p.txt"),
    ]) == 1
    err = capsys.readouterr().err
    assert field in err and "internal error" not in err
    assert not (tmp_path / "p.txt").exists()


# An echo answers before it has read all its input, so on a long
# sentence both pipes fill unless requests and replies interleave.
ECHO_SCORER = ["cat"]
# a reply that is not UTF-8
UNDECODABLE_SCORER = [sys.executable, "-c", """
import sys
for line in sys.stdin:
    sys.stdout.buffer.write(b"\\xff\\n")
    sys.stdout.flush()
"""]
# answers the 820 spans of a 40-token sentence, then exits; logs each start
ONE_SENTENCE_SCORER = [sys.executable, "-c", """
import os, sys
open("starts.txt", "a").write("start\\n")
for _ in range(820):
    sys.stdin.readline()
    print(0.5)
sys.stdout.flush()
os._exit(0)
"""]
FORTY_TOKENS = " ".join(f"w{k}" for k in range(40))
# two replies per request, so the replies to the three spans of "a b"
# run past the third line
TWO_REPLIES_SCORER = [sys.executable, "-c", """
import sys
for line in sys.stdin:
    print(0.9)
    print(0.1, flush=True)
"""]
# the same two replies in one write, buffered or not
TWO_REPLIES_ONE_WRITE_SCORER = [sys.executable, "-c", """
import sys
for line in sys.stdin:
    sys.stdout.write("0.9\\n0.1\\n")
    sys.stdout.flush()
"""]


# answers each request once, then one reply too many when its input closes
TRAILING_REPLY_SCORER = [sys.executable, "-c", """
import sys
for line in sys.stdin:
    print(0.5, flush=True)
print(0.5, flush=True)
"""]


@pytest.mark.parametrize(
    "command, text, message",
    [
        (ECHO_SCORER, FORTY_TOKENS, "non-numeric scorer response"),
        (UNDECODABLE_SCORER, "a b", "response b'\\xff' for span Span(i=0, j=0)"),
        (ONE_SENTENCE_SCORER, FORTY_TOKENS + "\nalpha", "scorer"),
        (TWO_REPLIES_SCORER, "a b\nc d", "surplus scorer output b'0.1\\n"),
        (TWO_REPLIES_ONE_WRITE_SCORER, "a b\nc d", "surplus scorer output b'0.1\\n"),
        (TRAILING_REPLY_SCORER, "a b\nc", "surplus scorer output b'0.5\\n'"),
    ],
    ids=[
        "echo_40_tokens", "not_utf8", "exits_early", "two_replies",
        "two_replies_one_write", "trailing_reply",
    ],
)
def test_external_scorer_fault_is_exit_3(tmp_path, command, text, message):
    # a subprocess with a timeout, so a hang fails the test
    write_tiny_corpus(tmp_path)
    scorer = {"backend": "external", "command": command, "timeout": 2}
    cfg = write_config(tmp_path, scorer=scorer)
    (tmp_path / "in.txt").write_text(text + "\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "bootparse.cli", "parse", "--config", str(cfg),
         "--input", "in.txt", "--out", "out.txt"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("external scorer failed: ") and message in proc.stderr
    if command is ONE_SENTENCE_SCORER:
        # the scorer is not started again
        assert (tmp_path / "starts.txt").read_text() == "start\n"


# answers every span with 0.5, and leaves a file behind once it runs
MARKED_HALF_SCORER = """
import sys
open("scorer_started", "w").close()
for line in sys.stdin:
    print(0.5, flush=True)
"""


@pytest.mark.parametrize("timeout, code", [(1e300, 1), (86400.5, 1), (86400, 0)])
def test_scorer_timeout_bound(tmp_path, monkeypatch, capsys, timeout, code):
    # a timeout the reply selector cannot take is a config error, found
    # before any scorer process starts; with one it can take, parse
    # decodes by sentence length, and line k of the output holds the
    # words of input line k
    monkeypatch.chdir(tmp_path)
    write_tiny_corpus(tmp_path)
    # lengths out of order, repeats and one-token lines among them
    lines = (tmp_path / "corpus.txt").read_text().splitlines() + [
        "the dog saw a cat", "alice", "bob runs", "the cat sat on the mat",
        "alice", "carol sees bob", "bob runs", "dog",
    ]
    (tmp_path / "in.txt").write_text("".join(line + "\n" for line in lines))
    scorer = {
        "backend": "external",
        "command": [sys.executable, "-c", MARKED_HALF_SCORER],
        "timeout": timeout,
    }
    cfg = write_config(tmp_path, scorer=scorer)
    assert main([
        "parse", "--config", str(cfg), "--input", str(tmp_path / "in.txt"),
        "--out", str(tmp_path / "p.txt"),
    ]) == code
    err = capsys.readouterr().err
    assert (tmp_path / "scorer_started").exists() == (code == 0)
    assert (tmp_path / "p.txt").exists() == (code == 0)
    if code:
        assert "timeout" in err and "86400" in err and "internal error" not in err
    else:
        written = (tmp_path / "p.txt").read_text().splitlines()
        assert [" ".join(parse_bracketed(line, k).sentence.tokens)
                for k, line in enumerate(written)] == lines


@pytest.mark.parametrize(
    "key, code",
    [("BOOTPARSE_PTB_TEST", 0), ("BOOTPARSE_NOPE", 1), ("BOOTPARSE_NOPE__X", 1)],
)
def test_env_override_names(tmp_path, monkeypatch, capsys, key, code):
    # BOOTPARSE_PTB_TEST names the treebank of a test, not a config field
    write_tiny_corpus(tmp_path)
    monkeypatch.setenv(key, "1")
    assert main(["bootstrap", "--config", str(write_config(tmp_path))]) == code
    err = capsys.readouterr().err
    assert (key in err) if code else err == ""


DEEP_JSON = "[" * 100_000


def _deep_config(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(DEEP_JSON)
    return ["bootstrap", "--config", str(cfg)], f"config error: config file {cfg}"


def _deep_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BOOTPARSE_SEEDS__BRANCHING", DEEP_JSON)
    argv = ["bootstrap", "--config", str(write_config(tmp_path))]
    return argv, "config error: BOOTPARSE_SEEDS__BRANCHING"


def _deep_grammar(tmp_path, monkeypatch):
    grammar = tmp_path / "g.json"
    grammar.write_text(DEEP_JSON)
    argv = ["synth", "--grammar", str(grammar), "--out", str(tmp_path / "c.txt")]
    return argv, f"config error: grammar file {grammar}"


def _deep_model(tmp_path, monkeypatch):
    model = tmp_path / "models" / "inside_seed.json"
    model.parent.mkdir()
    model.write_text(DEEP_JSON)
    argv = ["parse", "--config", str(write_config(tmp_path)), "--stage", "seed",
            "--input", str(tmp_path / "corpus.txt"), "--out", str(tmp_path / "pred.txt")]
    return argv, f"data error: model file {model}"


def _deep_trace(tmp_path, monkeypatch):
    trace = tmp_path / "models" / "self_trace.jsonl"
    trace.parent.mkdir()
    trace.write_text(DEEP_JSON + "\n")
    argv = ["report", "--config", str(write_config(tmp_path))]
    return argv, f"data error: trace file {trace}: line 1"


def _deep_report(tmp_path, monkeypatch):
    report = tmp_path / "reports" / "report.json"
    report.parent.mkdir()
    report.write_text(DEEP_JSON)
    argv = ["report", "--config", str(write_config(tmp_path))]
    return argv, f"data error: report file {report}"


@pytest.mark.parametrize(
    "case",
    [_deep_config, _deep_env, _deep_grammar, _deep_model, _deep_trace, _deep_report],
    ids=["config", "env", "grammar", "model", "trace", "report"],
)
def test_deeply_nested_json_is_the_readers_error(tmp_path, monkeypatch, capsys, case):
    # JSON nested past the parser's recursion limit is the reader's own
    # error, exit 1 for settings and 2 for data, not an internal error
    write_tiny_corpus(tmp_path)
    argv, named = case(tmp_path, monkeypatch)
    assert main(argv) == (1 if named.startswith("config error") else 2)
    err = capsys.readouterr().err
    assert err.startswith(named) and err.count("\n") == 1, err
    assert "nests too deeply to read" in err


def test_override_on_a_non_object_config_is_exit_1(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]")
    for key in ("BOOTPARSE_RNG_SEED", "BOOTPARSE_SEEDS__RNG_SEED"):
        monkeypatch.setenv(key, "1")
        assert main(["bootstrap", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "config error: config root must be an object\n"


# The bootparse modules each subcommand loads, past cli and errors; the
# config's heuristics are off, so parse reads no bundled stopwords.
_TRAIN_MODULES = {"config", "seeds", "treebank", "scorer", "decoder"}
_LOOP_MODULES = _TRAIN_MODULES | {"loops", "trace"}
STAGE_MODULES = [
    (["--help"], set()),
    (["synth", "--count", "60", "--out", "corpus.txt", "--gold", "gold.txt"], {"synth", "treebank"}),
    (["bootstrap"], {"config", "seeds", "treebank"}),
    (["train"], _TRAIN_MODULES),
    (["selftrain"], _LOOP_MODULES),
    (["cotrain"], _LOOP_MODULES),
    (["parse", "--input", "corpus.txt", "--out", "pred.txt"], _TRAIN_MODULES),
    (["eval", "--pred", "pred.txt", "--baselines", "--oracle"],
     {"config", "evaluation", "decoder", "seeds", "treebank"}),
    (["report"], {"config", "trace"}),
]
_RUN_STAGE = """
import json, sys
from bootparse.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
bootparse = sorted(name for name in sys.modules if name.startswith("bootparse."))
print(json.dumps([code, bootparse, "numpy" in sys.modules]))
"""


def test_each_subcommand_loads_only_what_it_runs(tmp_path):
    # each stage of a small pipeline in a fresh interpreter, in order
    cfg = write_config(
        tmp_path,
        self_train={"K": 1, "c": 0, "d": 50, "tau_min": 0.005, "tau_max": 0.9, "accumulate": True},
        co_train={"K": 1, "c": 0, "d": 50, "tau_min": 0.1, "tau_max": 0.9},
        training={"epochs": 2},
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for argv, modules in STAGE_MODULES:
        if argv[0] not in ("--help", "synth"):
            argv = [argv[0], "--config", str(cfg), *argv[1:]]
        out = subprocess.run(
            [sys.executable, "-c", _RUN_STAGE, *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
        ).stdout
        code, loaded, numpy = json.loads(out.splitlines()[-1])
        assert code == 0, argv
        assert set(loaded) == {f"bootparse.{name}" for name in {"cli", "errors"} | modules}, argv
        if argv[0] in ("--help", "report"):
            assert not numpy, argv


def test_cli_import_leaves_scipy_out():
    code = "import sys, bootparse.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out == "[]\n"


def test_missing_corpus_is_exit_2(tmp_path):
    cfg = write_config(tmp_path)  # corpus.txt never written
    assert main(["bootstrap", "--config", str(cfg)]) == 2


def test_unset_corpus_path_is_exit_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert main(["bootstrap", "--config", str(cfg)]) == 1


def test_bad_flag_is_exit_1(capsys):
    assert main(["parse", "--nope"]) == 1
    assert main([]) == 1
    capsys.readouterr()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run synth through cotrain once; several tests share the outputs."""
    root = tmp_path_factory.mktemp("pipeline")
    profile = {
        "rng_seed": 0,
        "seeds": {"casing_augmentation": True},
        "self_train": {
            "K": 1, "c": 0, "d": 400, "tau_min": 0.005, "tau_max": 0.9,
            "pool_cap": 1000, "accumulate": True,
        },
        "co_train": {
            "K": 1, "c": 0, "d": 800, "tau_min": 0.1, "tau_max": 0.9,
            "pool_cap": 1000,
        },
        "training": {"epochs": 30, "l2": 1e-6},
    }
    cfg = write_config(root, **profile)
    written = cfg.read_text()
    steps = [
        ["synth", "--out", str(root / "corpus.txt"),
         "--gold", str(root / "gold.txt"), "--count", "500"],
        ["bootstrap", "--config", str(cfg)],
        ["train", "--config", str(cfg)],
        ["selftrain", "--config", str(cfg)],
        ["cotrain", "--config", str(cfg)],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    yield root, cfg
    # the shared config still holds the profile: a test that needs its
    # own config writes it elsewhere
    assert cfg.read_text() == written


def test_pipeline_artifacts_exist(pipeline):
    root, _ = pipeline
    models = root / "models"
    for name in (
        "seeds.tsv", "inside_seed.json", "train_log.json",
        "self_in.json", "self_out.json", "self_trace.jsonl",
        "self_inside.tsv", "self_outside.tsv",
        "co_in.json", "co_out.json", "co_trace.jsonl",
    ):
        assert (models / name).exists(), name


def test_parse_each_stage(pipeline):
    root, cfg = pipeline
    for stage in ("seed", "self", "co"):
        out = root / f"pred_{stage}.txt"
        assert main([
            "parse", "--config", str(cfg), "--input", str(root / "corpus.txt"),
            "--out", str(out), "--stage", stage,
        ]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 500
        assert all(line.startswith("(") for line in lines)


def test_parse_single_and_two_token(pipeline):
    root, cfg = pipeline
    src = root / "tiny_in.txt"
    src.write_text("alice\nthe dog\n")
    out = root / "tiny_out.txt"
    assert main([
        "parse", "--config", str(cfg), "--input", str(src),
        "--out", str(out), "--stage", "seed",
    ]) == 0
    assert out.read_text() == "(X alice)\n(X the dog)\n"


def test_parse_rerun_identical(pipeline):
    root, cfg = pipeline
    digests = []
    for name in ("r1.txt", "r2.txt"):
        out = root / name
        assert main([
            "parse", "--config", str(cfg), "--input", str(root / "corpus.txt"),
            "--out", str(out),
        ]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_parse_refuses_unbracketable_tokens(tmp_path, capsys):
    # refused before any model is read: the model directory does not exist
    cfg = write_config(tmp_path)
    out = tmp_path / "pred.txt"
    for text, named in [("alice runs\nthe dog)\n", "sentence 1: token 'dog)'"),
                        ("alice ( sees\n", "sentence 0: token '('")]:
        (tmp_path / "in.txt").write_text(text)
        assert main([
            "parse", "--config", str(cfg), "--input", str(tmp_path / "in.txt"),
            "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert f"data error: {tmp_path / 'in.txt'}: {named} " in err
        assert not out.exists()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(
            st.sampled_from(
                ["(", ")", "|", "=", "<s>", "X", "(X", "dog)", "a|b=c", "alice", "runs"]
            ),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_parse_output_reads_back(pipeline, lines):
    # the first line keeps the file plain text: a first word '(' would
    # make it a treebank, and a first word '<s>' a markup line
    root, cfg = pipeline
    lines = [["alice", "runs"]] + lines
    src, out = root / "bracket_in.txt", root / "bracket_out.txt"
    src.write_text("".join(" ".join(tokens) + "\n" for tokens in lines))
    out.unlink(missing_ok=True)
    code = main(["parse", "--config", str(cfg), "--input", str(src), "--out", str(out)])
    bracket = any("(" in tok or ")" in tok for tokens in lines for tok in tokens)
    assert code == (2 if bracket else 0)
    if code:
        assert not out.exists()
        return
    written = out.read_text().splitlines()
    assert len(written) == len(lines)
    for index, (tokens, line) in enumerate(zip(lines, written)):
        tree = parse_bracketed(line, index)
        assert tree.sentence.tokens == tuple(tokens)
        assert len({code for _, code in tree.codes}) == len(tokens) - 1


def _parse_one_by_one(cfg, stage: str, input_path) -> str:
    """parse's output by a loop over the sentences in input order: score,
    apply the heuristics and decode each chart alone."""
    config = load_config(cfg)
    models = Path(config.paths.model_dir)
    if stage == "co":
        scorer = (load_model(models / "co_in.json"), load_model(models / "co_out.json"))
    else:
        scorer = load_model(models / {"seed": "inside_seed.json", "self": "self_in.json"}[stage])
    heuristics = HeuristicConfig()
    if config.heuristics.enabled:
        heuristics = heuristics_from_corpus(read_corpus(config.paths.corpus))
    lines = []
    for sentence in read_corpus(input_path):
        chart = score_chart(scorer, sentence, renormalize=config.renormalize)
        chart = apply_heuristics(chart, sentence, heuristics)
        lines.append(cyk_decode(chart, sentence).to_bracketed() + "\n")
    return "".join(lines)


@pytest.mark.parametrize("stage", ["seed", "self", "co"])
@pytest.mark.parametrize("heuristics", [False, True])
@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize("cells", [FILL_CELLS, 100])
def test_parse_by_length_group_matches_one_by_one(
    pipeline, tmp_path, monkeypatch, stage, heuristics, renormalize, cells
):
    # Shuffled lengths 1 to 12, with one-token lines and repeated lines:
    # the trees decoded by length group, whole or in fills of 100 cells
    # (from 100 one-token charts to one chart of 10 tokens or more),
    # written in input order, are those of decoding each sentence alone.
    monkeypatch.setattr(treebank, "FILL_CELLS", cells)
    root, pipeline_cfg = pipeline
    rng = np.random.default_rng(3)
    lines = (root / "corpus.txt").read_text().splitlines()[:150]
    lines += ["alice", "the", "alice", "bob"] + lines[:20] + lines[5:8]
    lines = [lines[k] for k in rng.permutation(len(lines))]
    assert len({len(line.split()) for line in lines[:40]}) > 5
    (tmp_path / "in.txt").write_text("\n".join(lines) + "\n")
    raw = json.loads(pipeline_cfg.read_text())
    raw.update(renormalize=renormalize, heuristics={"enabled": heuristics})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "pred.txt"
    assert main([
        "parse", "--config", str(cfg), "--input", str(tmp_path / "in.txt"),
        "--out", str(out), "--stage", stage,
    ]) == 0
    assert out.read_text() == _parse_one_by_one(cfg, stage, tmp_path / "in.txt")


def test_eval_writes_reports(pipeline, tmp_path, monkeypatch, capsys):
    root, cfg = pipeline
    pred = root / "pred_co.txt"
    if not pred.exists():
        assert main([
            "parse", "--config", str(cfg), "--input", str(root / "corpus.txt"),
            "--out", str(pred),
        ]) == 0
    assert main([
        "eval", "--config", str(cfg), "--pred", str(pred),
        "--baselines", "--oracle",
    ]) == 0
    captured = capsys.readouterr().out
    assert "f1" in captured
    assert "baseline right" in captured
    assert "oracle binary" in captured
    reports = root / "reports"
    for name in ("report.txt", "report.json", "per_sentence.tsv",
                 "length_buckets.tsv"):
        assert (reports / name).exists(), name
    raw = json.loads((reports / "report.json").read_text())
    assert 0.0 <= raw["f1"] <= 1.0
    # The two pooled modes: report.json names the mode that was set, and
    # every binary tree has the same span count, so the oracle F1 is at
    # least the parse's and every baseline's; evalb_style prints its
    # short-sentence line.
    monkeypatch.setenv("BOOTPARSE_PATHS__REPORT_DIR", str(tmp_path))
    for mode in ("micro_corpus", "evalb_style"):
        monkeypatch.setenv("BOOTPARSE_EVAL__MODE", mode)
        assert main([
            "eval", "--config", str(cfg), "--pred", str(pred), "--baselines", "--oracle",
        ]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["mode"] == mode
        text = (tmp_path / "report.txt").read_text()
        f1 = float(re.search(r"^f1 +(\S+)$", text, re.M).group(1))
        baselines = [float(f) for f in re.findall(r"^baseline \S+ +F1 (\S+)$", text, re.M)]
        oracle = float(re.search(r"^oracle binary +F1 (\S+)$", text, re.M).group(1))
        assert len(baselines) == 4, text
        assert oracle >= max(f1, *baselines), text
        assert bool(re.search(r"^len<=10 ", text, re.M)) == (mode == "evalb_style"), text
    monkeypatch.delenv("BOOTPARSE_EVAL__MODE")
    # eval.max_len drops the longer sentences, and each per_sentence.tsv
    # row keeps its input position
    monkeypatch.setenv("BOOTPARSE_EVAL__MAX_LEN", "6")
    assert main(["eval", "--config", str(cfg), "--pred", str(pred)]) == 0
    lines = pred.read_text().splitlines()
    rows = (tmp_path / "per_sentence.tsv").read_text().splitlines()[1:]
    assert rows and len(rows) < len(lines)
    for row in rows:
        index, length = map(int, row.split("\t")[:2])
        assert length == len(parse_bracketed(lines[index], index).sentence.tokens) <= 6, row
    monkeypatch.delenv("BOOTPARSE_EVAL__MAX_LEN")
    # a parse, written by the shared bracket writer, reads back as its own gold
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--pred", str(pred), "--gold", str(pred)]) == 0
    assert re.search(r"^f1 +1\.0000$", capsys.readouterr().out, re.M)


def test_eval_count_mismatch_is_exit_2(pipeline, capsys):
    root, cfg = pipeline
    short = root / "short.txt"
    short.write_text("(X (X a) (X b))\n")
    assert main(["eval", "--config", str(cfg), "--pred", str(short)]) == 2
    capsys.readouterr()


def test_eval_reads_trees_deeper_than_the_recursion_limit(tmp_path, capsys):
    # parse prints a right-branching tree of n tokens n - 1 brackets deep;
    # no tree operation recurses
    n = 1200
    sentence = Sentence(id=0, tokens=tuple(f"w{k}" for k in range(n)))
    tree = BinaryTree(sentence=sentence, spans=right_branching_spans(n))
    gold = tree.to_bracketed("S")
    (tmp_path / "pred.txt").write_text(tree.to_bracketed() + "\n")
    (tmp_path / "gold.txt").write_text(gold + "\n")
    traced_gold = gold.replace(" w1199", " (-NONE- *T*) w1199")
    (tmp_path / "traced.txt").write_text(traced_gold + "\n")
    cfg = write_config(tmp_path)
    for gold_path in ("gold.txt", "traced.txt"):
        assert main([
            "eval", "--config", str(cfg), "--pred", str(tmp_path / "pred.txt"),
            "--gold", str(tmp_path / gold_path), "--baselines",
        ]) == 0
        report = json.loads((tmp_path / "reports" / "report.json").read_text())
        assert report["f1"] == 1.0
    capsys.readouterr()
    (plain,) = read_treebank(tmp_path / "gold.txt")
    (traced,) = read_treebank(tmp_path / "traced.txt")
    assert "-NONE-" in traced_gold
    assert traced == plain
    assert traced.sentence == plain.sentence
    assert traced.codes == plain.codes
    assert len(plain.codes) == n - 1


def test_eval_yield_mismatch_is_exit_2(pipeline, capsys):
    root, cfg = pipeline
    gold_lines = (root / "gold.txt").read_text().splitlines()
    bad = root / "bad_yield.txt"
    bad.write_text("(X (X zz) (X qq))\n" * len(gold_lines))
    assert main(["eval", "--config", str(cfg), "--pred", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "yield mismatch at sentence 0" in err


def test_report_consolidates(pipeline, capsys):
    root, cfg = pipeline
    assert main(["report", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "self-training trace" in out
    assert "co-training trace" in out


# "the" opens most sentences, and the start-word rule brackets "the dog"
START_WORD_CORPUS = (
    "the dog ran home now\nthe cat sat\nthe dog sat down\nalice ran home\n"
)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("stage", ["train", "selftrain"])
def test_training_that_diverges_is_exit_1(tmp_path, capsys, stage):
    # a learning rate too large for the data is a config error, and no
    # model is written
    write_tiny_corpus(tmp_path)
    cfg = write_config(tmp_path, training={"learning_rate": 1e300, "batch_size": 1})
    assert main(["bootstrap", "--config", str(cfg)]) == 0
    assert main([stage, "--config", str(cfg)]) == 1
    assert "training.learning_rate or training.l2" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "models").iterdir()) == ["seeds.tsv"]


def decay_error(product):
    """The config error of a learning_rate * l2 of 1 or more."""
    return (
        f"config error: training.learning_rate * training.l2 is {product}, so the weight "
        "decay 1 - learning_rate * l2 is not above 0; lower training.learning_rate or training.l2\n"
    )


@pytest.mark.parametrize(
    "overrides, error",
    [({"LEARNING_RATE": "1e308", "L2": "0"},
      "config error: training diverged to non-finite weights; "
      "lower training.learning_rate or training.l2\n"),
     ({"L2": "1e6"}, decay_error("500000")),
     ({"LEARNING_RATE": "1e300", "BATCH_SIZE": "64"}, decay_error("1e+295"))],
    ids=["learning_rate", "l2", "learning_rate_batch_64"],
)
def test_training_that_diverges_prints_only_the_error(tmp_path, overrides, error):
    # a fresh process, as a user runs it: numpy's overflow warnings, with
    # their source lines, stay off stderr, and no model is written; a
    # decay of 0 or below is refused before any step
    cfg = write_config(tmp_path, training={"batch_size": 1})
    assert main(["synth", "--out", str(tmp_path / "corpus.txt"), "--count", "50"]) == 0
    assert main(["bootstrap", "--config", str(cfg)]) == 0
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           **{f"BOOTPARSE_TRAINING__{key}": value for key, value in overrides.items()}}
    proc = subprocess.run(
        [sys.executable, "-m", "bootparse.cli", "train", "--config", str(cfg)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr == error
    assert sorted(p.name for p in (tmp_path / "models").iterdir()) == ["seeds.tsv"]


def test_weight_decay_of_zero_is_exit_1(pipeline, tmp_path, capsys):
    # a learning_rate * l2 of exactly 1 zeroes every weight at each step:
    # each training stage refuses it and writes no model; just below 1
    # trains
    root, _ = pipeline
    shutil.copy(root / "corpus.txt", tmp_path)
    (tmp_path / "models").mkdir()
    for name in ("seeds.tsv", "self_inside.tsv", "self_outside.tsv"):
        shutil.copy(root / "models" / name, tmp_path / "models")

    def config(l2):
        seeds = {"casing_augmentation": True}
        return str(write_config(tmp_path, seeds=seeds, training={"learning_rate": 0.5, "l2": l2}))

    for stage in ("train", "selftrain", "cotrain"):
        assert main([stage, "--config", config(2.0)]) == 1
        assert capsys.readouterr().err == decay_error("1")
        assert len(list((tmp_path / "models").iterdir())) == 3
    below = float(np.nextafter(2.0, 0))
    assert main(["train", "--config", config(below)]) == 0
    assert load_model(tmp_path / "models" / "inside_seed.json").meta.l2 == below


def test_batch_size_past_a_machine_integer_trains(tmp_path):
    # one batch of every row; a subprocess with a timeout, so a hang fails
    cfg = write_config(tmp_path)
    assert main(["synth", "--out", str(tmp_path / "corpus.txt"), "--count", "50"]) == 0
    assert main(["bootstrap", "--config", str(cfg)]) == 0
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "BOOTPARSE_TRAINING__BATCH_SIZE": str(2**63)}
    proc = subprocess.run(
        [sys.executable, "-m", "bootparse.cli", "train", "--config", str(cfg)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert load_model(tmp_path / "models" / "inside_seed.json").meta.batch_size == 2**63


def test_warning_prints_as_one_line(tmp_path):
    # a fresh process, as a user runs it: the warning's category and
    # message, without the source file and line of the install, once for
    # each of the K iterations' empty pools, the same line again too
    cfg = write_config(tmp_path, self_train={
        "K": 2, "c": 0, "d": 50, "tau_min": 0.0, "accumulate": True,
    })
    assert main(["synth", "--out", str(tmp_path / "corpus.txt"), "--count", "50"]) == 0
    assert main(["bootstrap", "--config", str(cfg)]) == 0
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "bootparse.cli", "selftrain", "--config", str(cfg)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert proc.stderr == "PoolExhaustedWarning: distituent pool has 0 spans, wanted 50\n" * 2


def test_random_slices_stop_once_every_length_is_drawn(tmp_path):
    # a subprocess with a timeout, so drawing 10^12 slices fails the test;
    # fixed slices stop at the sentence's length, so 10^12 of them write
    # the seeds of 6
    (tmp_path / "corpus.txt").write_text("the dog runs\na cat sees bob\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for random_slices, reach in ((True, 100_000), (False, 6)):
        cfg = write_config(tmp_path, seeds={"random_slices": random_slices})
        for count in (reach, 10**12):
            proc = subprocess.run(
                [sys.executable, "-m", "bootparse.cli", "bootstrap", "--config", str(cfg),
                 "--out", f"{random_slices}_{count}.tsv"],
                cwd=tmp_path, capture_output=True, text=True, timeout=60,
                env={**env, "BOOTPARSE_SEEDS__NUM_SLICES": str(count)},
            )
            assert proc.returncode == 0, proc.stderr
        assert (
            (tmp_path / f"{random_slices}_{reach}.tsv").read_text()
            == (tmp_path / f"{random_slices}_{10**12}.tsv").read_text()
        )


def _train_seed_model(tmp_path, corpus: str, **overrides) -> None:
    (tmp_path / "corpus.txt").write_text(corpus)
    cfg = write_config(tmp_path, **overrides)
    assert main(["bootstrap", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0


def _parse_seed(tmp_path, name: str, **overrides) -> list[str]:
    """Parse the corpus with the seed model under a config of overrides."""
    cfg = write_config(tmp_path, **overrides)
    assert main([
        "parse", "--config", str(cfg), "--input", str(tmp_path / "corpus.txt"),
        "--out", str(tmp_path / name), "--stage", "seed",
    ]) == 0
    return (tmp_path / name).read_text().splitlines()


def test_parse_counts_heuristics_from_corpus(tmp_path):
    _train_seed_model(tmp_path, START_WORD_CORPUS)
    stats = heuristics_from_corpus(read_corpus(tmp_path / "corpus.txt"))
    given = json.loads(PipelineConfig(heuristics=stats).to_json())["heuristics"]
    counted = _parse_seed(tmp_path, "counted.txt", heuristics={"enabled": True})
    assert counted == _parse_seed(tmp_path, "given.txt", heuristics=given)
    assert counted[0] == "(X (X the dog) (X ran (X home now)))"
    assert counted != _parse_seed(tmp_path, "off.txt")


def test_parse_follows_config_after_train(tmp_path):
    on = {"enabled": True}
    _train_seed_model(tmp_path, START_WORD_CORPUS, heuristics=on)
    counted = _parse_seed(tmp_path, "counted.txt", heuristics=on)
    assert counted[0] == "(X (X the dog) (X ran (X home now)))"
    # a start word that never occurs leaves the seed model's trees alone
    zzz = {"enabled": True, "common_start_word": "zzz"}
    assert _parse_seed(tmp_path, "zzz.txt", heuristics=zzz) == (
        _parse_seed(tmp_path, "off.txt")
    )


def test_parse_heuristics_need_stats(tmp_path, capsys):
    write_tiny_corpus(tmp_path)
    plain = write_config(tmp_path)
    assert main(["bootstrap", "--config", str(plain)]) == 0
    assert main(["train", "--config", str(plain)]) == 0
    paths = {"model_dir": str(tmp_path / "models")}
    cfg = write_config(tmp_path, paths=paths, heuristics={"enabled": True})
    assert main([
        "parse", "--config", str(cfg), "--input", str(tmp_path / "corpus.txt"),
        "--out", str(tmp_path / "p.txt"), "--stage", "seed",
    ]) == 1
    err = capsys.readouterr().err
    assert "heuristics section" in err and "paths.corpus" in err


def test_selftrain_model_hash_stable(tmp_path):
    write_tiny_corpus(tmp_path)
    digests = []
    for name in ("one", "two"):
        sub = tmp_path / name
        sub.mkdir()
        (sub / "corpus.txt").write_text((tmp_path / "corpus.txt").read_text())
        cfg = write_config(
            sub,
            self_train={"K": 1, "c": 2, "d": 4, "tau_min": 0.4, "tau_max": 0.6},
        )
        assert main(["bootstrap", "--config", str(cfg)]) == 0
        assert main(["selftrain", "--config", str(cfg)]) == 0
        digests.append(
            hashlib.sha256((sub / "models" / "self_in.json").read_bytes())
            .hexdigest()
        )
    assert digests[0] == digests[1]


# small pools, so that every stage runs in a second or two
RERUN_LOOPS = {
    "self_train": {"K": 1, "c": 0, "d": 200, "tau_min": 0.005, "tau_max": 0.9, "accumulate": True},
    "co_train": {"K": 1, "c": 0, "d": 200, "tau_min": 0.1, "tau_max": 0.9},
}


def _synth_lines(tmp_path, *argv) -> list[str]:
    out = tmp_path / "plain.txt"
    assert main(["synth", "--out", str(out), *argv]) == 0
    return out.read_text().splitlines()


def _plain_corpus(tmp_path, monkeypatch):
    return _synth_lines(tmp_path, "--count", "50"), RERUN_LOOPS


def _feature_syntax_corpus(tmp_path, monkeypatch):
    # tokens that read like feature names ("|", "=") or sentinels, so saved
    # bigram and pair names split at each "|" when they load
    text = "\n".join(_synth_lines(tmp_path, "--count", "50"))
    for word, token in [("bob", "a|b"), ("carol", "b|c|d"), ("the", "x=y"),
                        ("dog", "lr=a|b"), ("horse", "<s>"), ("fish", "</s>")]:
        text = re.sub(rf"\b{word}\b", token, text)
    assert {"a|b", "b|c|d", "x=y", "lr=a|b", "<s>", "</s>"} <= set(text.split())
    return text.splitlines(), RERUN_LOOPS


def _mixed_lengths_corpus(tmp_path, monkeypatch):
    # The loops featurize and score one length_fills fill at a time:
    # one-token lines, a length that occurs once, lengths out of order and
    # a 60-token line.  A fill holds at most 40 charts of 40 tokens, so
    # the 45 distinct 40-token lines make one length group span two fills
    # in the pools, the training rows and parse.
    lines = [
        "alice", "bob runs", "dog", *_synth_lines(tmp_path, "--count", "50", "--rng-seed", "3"),
        " ".join(f"w{k}" for k in range(1, 61)),
        *(" ".join(f"w{k}" for k in range(first, first + 40)) for first in range(1, 46)),
        "carol", "the cat sat on the mat",
    ]
    lengths = Counter(len(line.split()) for line in lines)
    assert lengths[1] >= 3 and lengths[60] == 1
    assert len({line for line in lines if len(line.split()) == 40}) == 45 > FILL_CELLS // 40**2
    return lines, RERUN_LOOPS


def _casing_corpus(tmp_path, monkeypatch):
    # "The" opens most lines, and runs of capitalized words, so bootstrap
    # writes examples on lower-cased carrier sentences after the corpus,
    # and training builds tables for sentences outside it.  The
    # environment turns casing augmentation on and accumulation off, so
    # self-training replaces its labeled set each iteration.
    monkeypatch.setenv("BOOTPARSE_SEEDS__CASING_AUGMENTATION", "true")
    monkeypatch.setenv("BOOTPARSE_SELF_TRAIN__ACCUMULATE", "false")
    plain = _synth_lines(tmp_path, "--count", "60", "--rng-seed", "5")
    lines = [
        line if k % 4 == 0 else f"{'The Green Bay' if k % 3 else 'The New York Times'} {line}"
        for k, line in enumerate(plain, 1)
    ]
    lines += ["The", "The Big Apple", "The " + " ".join(f"w{k}" for k in range(1, 41))]
    assert Counter(line.split()[0] for line in lines).most_common(1)[0][0] == "The"
    loops = {
        "self_train": {"K": 2, "c": 20, "d": 100, "tau_min": 0.15, "tau_max": 0.6,
                       "accumulate": True},
        "co_train": {"K": 1, "c": 20, "d": 100, "tau_min": 0.15, "tau_max": 0.6},
    }
    return lines, loops


@pytest.mark.parametrize(
    "case",
    [_plain_corpus, _feature_syntax_corpus, _mixed_lengths_corpus, _casing_corpus],
    ids=["plain", "feature_syntax", "mixed_lengths", "casing"],
)
def test_loop_reruns_are_byte_identical(tmp_path, monkeypatch, case):
    # Every stage runs, and parse writes a line for each corpus line.
    # Then selftrain and cotrain run again from the bootstrap and train
    # outputs into a second model directory, each in a fresh process, so
    # with other string hashes and token ids: every file must match.
    lines, loops = case(tmp_path, monkeypatch)
    (tmp_path / "corpus.txt").write_text("".join(line + "\n" for line in lines))
    cfg = write_config(tmp_path, heuristics={}, **loops)
    models = tmp_path / "models"
    for stage in ("bootstrap", "train", "selftrain", "cotrain"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    # carrier sentences, numbered after the corpus, come with casing only
    seeds = (models / "seeds.tsv").read_text().splitlines()
    carriers = any(int(row.split("\t")[0]) >= len(lines) for row in seeds)
    assert carriers == (case is _casing_corpus)
    for stage in ("seed", "self", "co"):
        out = tmp_path / f"pred_{stage}.txt"
        assert main([
            "parse", "--config", str(cfg), "--stage", stage,
            "--input", str(tmp_path / "corpus.txt"), "--out", str(out),
        ]) == 0, stage
        assert len(out.read_text().splitlines()) == len(lines)
    rerun = tmp_path / "rerun"
    rerun.mkdir()
    for name in ("seeds.tsv", "inside_seed.json", "train_log.json"):
        shutil.copy(models / name, rerun / name)
    raw = json.loads(cfg.read_text())
    raw["paths"]["model_dir"] = str(rerun)
    (tmp_path / "rerun.json").write_text(json.dumps(raw))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for stage in ("selftrain", "cotrain"):
        proc = subprocess.run(
            [sys.executable, "-m", "bootparse.cli", stage, "--config", str(tmp_path / "rerun.json")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    names = sorted(path.name for path in models.iterdir())
    assert sorted(path.name for path in rerun.iterdir()) == names
    for name in names:
        assert (rerun / name).read_bytes() == (models / name).read_bytes(), name


@pytest.mark.parametrize("heuristics", [False, True])
def test_pipeline_is_unchanged_when_tokens_are_renamed(tmp_path, heuristics):
    # Columns, saved names and weights never depend on token ids.  Every
    # token but "," and the stopwords takes a suffix that opens with "!",
    # below every character of the corpus, so the renaming keeps case,
    # the stopwords and the lexicographic order of tokens, by which the
    # heuristics break count ties.  The renamed run comes second in this
    # process, so its new tokens are numbered after every old one while
    # "," and the stopwords keep their ids: the ids fall in another order.
    stopwords = load_stopwords()
    plain = _synth_lines(tmp_path, "--count", "150", "--rng-seed", "4")
    # a comma in every fifth line, for the comma rule
    plain = [line.replace(" ", " , ", 1) if k % 5 == 0 else line for k, line in enumerate(plain)]
    assert min("".join(plain).replace(" ", "")) > "!"

    def renamed(line):
        return " ".join(
            tok if tok == "," or tok.lower() in stopwords else tok + "!" for tok in line.split()
        )

    runs = []
    for lines in (plain, [renamed(line) for line in plain]):
        root = tmp_path / f"run{len(runs)}"
        root.mkdir()
        (root / "corpus.txt").write_text("".join(line + "\n" for line in lines))
        cfg = write_config(
            root, seeds={"casing_augmentation": True}, heuristics={"enabled": heuristics},
            training={"epochs": 10}, **RERUN_LOOPS,
        )
        for stage in ("bootstrap", "train", "selftrain", "cotrain"):
            assert main([stage, "--config", str(cfg)]) == 0, stage
        assert main([
            "parse", "--config", str(cfg), "--input", str(root / "corpus.txt"),
            "--out", str(root / "pred.txt"),
        ]) == 0
        runs.append(root)
    first, second = (root / "models" for root in runs)
    for name in ("seeds.tsv", "self_inside.tsv", "self_outside.tsv",
                 "self_trace.jsonl", "co_trace.jsonl"):
        assert (second / name).read_bytes() == (first / name).read_bytes(), name
    for name in ("inside_seed.json", "self_in.json", "self_out.json", "co_in.json", "co_out.json"):
        models = [json.loads((folder / name).read_text()) for folder in (first, second)]
        names = [model["feature_space"].pop("names") for model in models]
        assert names[1] != names[0], name
        assert [feature.replace("!", "") for feature in names[1]] == names[0], name
        # the weights, the bias and the metrics, as written
        assert json.dumps(models[1]) == json.dumps(models[0]), name
    pred = (runs[1] / "pred.txt").read_text()
    assert pred.replace("!", "") == (runs[0] / "pred.txt").read_text()


# Runs the stages given as JSON in argv[1] through cli.main in its working
# directory, after writing the numpy SIMD targets it dispatches to.
_SIMD_CHILD = """
import json, sys
from pathlib import Path
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
from bootparse.cli import main
targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
Path("simd.txt").write_text(" ".join(targets) or "baseline only")
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(f"{argv[0]} failed")
"""


def test_pipeline_outputs_are_the_same_on_every_simd_path(tmp_path):
    # numpy picks exp's SIMD path at import, and its AVX-512 exp differs
    # from libm in the last bit, so model weights and val_loss may differ
    # between machines; the seeds, every labeled set, pool and
    # prediction may not.  One run with numpy's AVX-512 targets switched
    # off in its process only; on a CPU without AVX-512 both runs take
    # one path.
    assert main(["synth", "--out", str(tmp_path / "corpus.txt"),
                 "--gold", str(tmp_path / "gold.txt"), "--count", "300"]) == 0
    stages = [
        ["bootstrap", "--config", "config.json"],
        ["train", "--config", "config.json"],
        ["selftrain", "--config", "config.json"],
        ["cotrain", "--config", "config.json"],
        ["parse", "--config", "config.json", "--input", "corpus.txt", "--out", "pred.txt"],
        ["eval", "--config", "config.json", "--pred", "pred.txt", "--baselines", "--oracle"],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    runs = []
    for disabled in (None, "AVX512_SPR AVX512_ICL X86_V4"):
        root = tmp_path / f"run{len(runs)}"
        root.mkdir()
        for name in ("corpus.txt", "gold.txt"):
            shutil.copy(tmp_path / name, root / name)
        (root / "config.json").write_text(json.dumps({
            "paths": {"corpus": "corpus.txt", "gold": "gold.txt",
                      "model_dir": "models", "report_dir": "reports"},
            "seeds": {"casing_augmentation": True},
            "self_train": {"K": 2, "c": 0, "d": 200, "tau_min": 0.005, "tau_max": 0.9,
                           "accumulate": True},
            "co_train": {"K": 2, "c": 0, "d": 400, "tau_min": 0.1, "tau_max": 0.9},
            "training": {"epochs": 30, "l2": 1e-6},
            "heuristics": {"enabled": False},
        }))
        child_env = env if disabled is None else {**env, "NPY_DISABLE_CPU_FEATURES": disabled}
        proc = subprocess.run(
            [sys.executable, "-c", _SIMD_CHILD, json.dumps(stages)],
            cwd=root, capture_output=True, text=True, timeout=120, env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        print(f"NPY_DISABLE_CPU_FEATURES={disabled}: {(root / 'simd.txt').read_text()}")
        runs.append((root, proc.stdout))
    (first, first_out), (second, second_out) = runs
    # every stage's stdout, the eval table among them
    assert second_out == first_out
    for name in ("pred.txt", "models/seeds.tsv", "models/self_inside.tsv",
                 "models/self_outside.tsv", *sorted(
                     str(path.relative_to(first)) for path in (first / "reports").iterdir())):
        assert (second / name).read_bytes() == (first / name).read_bytes(), name
    for name in ("self_trace.jsonl", "co_trace.jsonl"):
        traces = [
            [{key: record[key] for key in ("inside_size", "outside_size", "pools", "selected")}
             for record in map(json.loads, (root / "models" / name).read_text().splitlines())]
            for root in (first, second)
        ]
        assert traces[1] == traces[0], name
    for name in ("inside_seed.json", "self_in.json", "self_out.json", "co_in.json", "co_out.json"):
        models = [json.loads((root / "models" / name).read_text()) for root in (first, second)]
        assert models[1]["feature_space"] == models[0]["feature_space"], name
        weights = [np.array([*model["weights"], model["bias"]]) for model in models]
        assert np.abs(weights[1] - weights[0]).max() <= 1e-9, name


def _break_model(payload: dict, case: str):
    """A broken copy of a saved model's JSON, or raw text for non-JSON."""
    if case == "not_json":
        return "{not json"
    if case == "truncated_weights":
        payload["weights"] = payload["weights"][:-1]
    elif case == "extra_weights":
        payload["weights"] = payload["weights"] + [0.0]
    elif case == "format_version":
        payload["format_version"] = 99
    elif case == "missing_key":
        del payload["bias"]
    elif case == "unknown_view":
        payload["view"] = "sideways"
    elif case == "bad_hash_dim":
        payload["feature_space"]["hash_dim"] = 0
    elif case == "hash_dim_16":
        payload["feature_space"]["hash_dim"] = 16
    elif case == "inside_context_true":
        payload["feature_space"]["inside_context"] = True
    elif case == "inside_context_zero":
        payload["feature_space"]["inside_context"] = 0
    elif case == "nan_weight":
        payload["weights"][0] = float("nan")
    elif case == "name_not_string":
        payload["feature_space"]["names"][0] = 5
    elif case == "names_not_list":
        payload["feature_space"]["names"] = dict.fromkeys(payload["feature_space"]["names"], 0)
    elif case == "repeated_name":
        payload["feature_space"]["names"][1] = payload["feature_space"]["names"][0]
    elif case == "batch_size_zero":
        payload["meta"]["batch_size"] = 0
    elif case == "example_count_missing":
        del payload["meta"]["example_count"]
    elif case.startswith("example_count_"):
        payload["meta"]["example_count"] = {
            "example_count_negative": -1, "example_count_true": True,
            "example_count_float": 1.5,
        }[case]
    return json.dumps(payload)


@pytest.mark.parametrize(
    "case",
    ["not_json", "truncated_weights", "extra_weights", "format_version",
     "missing_key", "unknown_view", "bad_hash_dim", "nan_weight",
     "hash_dim_16", "inside_context_true", "inside_context_zero",
     "batch_size_zero", "example_count_missing", "example_count_negative",
     "example_count_true", "example_count_float", "repeated_name",
     "name_not_string", "names_not_list"],
)
def test_parse_bad_model_file_is_exit_2(pipeline, tmp_path, capsys, case):
    root, _ = pipeline
    models = tmp_path / "models"
    models.mkdir()
    for name in ("co_in.json", "co_out.json"):
        (models / name).write_bytes((root / "models" / name).read_bytes())
    payload = json.loads((models / "co_in.json").read_text())
    (models / "co_in.json").write_text(_break_model(payload, case))
    cfg = write_config(tmp_path)
    (tmp_path / "in.txt").write_text("the dog sees a cat\n")
    assert main([
        "parse", "--config", str(cfg), "--input", str(tmp_path / "in.txt"),
        "--out", str(tmp_path / "out.txt"),
    ]) == 2
    assert "co_in.json" in capsys.readouterr().err


def test_parse_undecodable_model_file_is_exit_2(pipeline, tmp_path, capsys):
    root, _ = pipeline
    models = tmp_path / "models"
    models.mkdir()
    for name in ("co_in.json", "co_out.json"):
        (models / name).write_bytes((root / "models" / name).read_bytes())
    data = (models / "co_out.json").read_bytes()
    at = data.index(b'"lr=') + 4
    (models / "co_out.json").write_bytes(data[:at] + b"\xff" + data[at:])
    cfg = write_config(tmp_path)
    (tmp_path / "in.txt").write_text("the dog sees a cat\n")
    assert main([
        "parse", "--config", str(cfg), "--input", str(tmp_path / "in.txt"),
        "--out", str(tmp_path / "out.txt"),
    ]) == 2
    assert f"model file {models / 'co_out.json'}: not UTF-8 JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_line",
    ["0\t0\t1\tbogus\tinside", "0\tx\t1\tconstituent\tinside",
     "0\t3\t1\tconstituent\tinside", "0\t0\t1\tconstituent\tsideways",
     "0\t0\t1\tconstituent"],
)
def test_train_bad_seed_file_is_exit_2(tmp_path, capsys, bad_line):
    write_tiny_corpus(tmp_path)
    cfg = write_config(tmp_path)
    seeds = tmp_path / "bad_seeds.tsv"
    seeds.write_text("0\t0\t4\tconstituent\tinside\n" + bad_line + "\n")
    assert main(["train", "--config", str(cfg), "--seeds", str(seeds)]) == 2
    assert f"{seeds}:2:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, code",
    [("corpus", 2), ("gold", 2), ("seeds", 2), ("pred", 2), ("input", 2),
     ("trace", 2), ("report", 2), ("grammar", 1)],
)
def test_undecodable_input_file_is_named(pipeline, tmp_path, capsys, kind, code):
    root, _ = pipeline
    models, reports = tmp_path / "models", tmp_path / "reports"
    models.mkdir()
    reports.mkdir()
    cfg = write_config(tmp_path)
    for source, target in [
        (root / "corpus.txt", tmp_path / "corpus.txt"),
        (root / "corpus.txt", tmp_path / "in.txt"),
        (root / "gold.txt", tmp_path / "gold.txt"),
        (root / "models" / "seeds.tsv", models / "seeds.tsv"),
        (root / "models" / "inside_seed.json", models / "inside_seed.json"),
        (root / "models" / "self_trace.jsonl", models / "self_trace.jsonl"),
    ]:
        target.write_bytes(source.read_bytes())
    pred = tmp_path / "pred.txt"
    pred.write_text("".join(
        BinaryTree(s, right_branching_spans(len(s))).to_bracketed() + "\n"
        for s in read_corpus(root / "corpus.txt")
    ))
    (reports / "report.json").write_text(
        '{"mode": "macro_sentence", "f1": 1.0, "precision": 1.0, "recall": 1.0}'
    )
    grammar = tmp_path / "g.json"
    grammar.write_text(json.dumps({
        "rules": {"S": [[1.0, ["A", "A", "A"]]]}, "lexicon": {"A": ["a"]},
    }))
    path, argv = {
        "corpus": (tmp_path / "corpus.txt", ["bootstrap"]),
        "gold": (tmp_path / "gold.txt", ["eval", "--pred", str(pred)]),
        "seeds": (models / "seeds.tsv", ["train"]),
        "pred": (pred, ["eval", "--pred", str(pred)]),
        "input": (tmp_path / "in.txt", [
            "parse", "--stage", "seed", "--input", str(tmp_path / "in.txt"),
            "--out", str(tmp_path / "out.txt"),
        ]),
        "trace": (models / "self_trace.jsonl", ["report"]),
        "report": (reports / "report.json", ["report"]),
        "grammar": (grammar, [
            "synth", "--out", str(tmp_path / "c.txt"), "--grammar", str(grammar),
        ]),
    }[kind]
    # the same run succeeds before the stray byte goes in
    assert main([*argv, "--config", str(cfg)]) == 0
    with open(path, "ab") as fh:
        fh.write(b"\xff")
    capsys.readouterr()
    assert main([*argv, "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    assert f"{path} is not UTF-8 text" in err
    assert "internal error" not in err


@pytest.mark.parametrize("bad_tree", ["(S (A a) (B b) (C c))", "(X a"])
def test_eval_bad_prediction_is_exit_2(pipeline, tmp_path, capsys, bad_tree):
    root, cfg = pipeline
    pred = tmp_path / "pred.txt"
    pred.write_text("(X (X a) (X b))\n" + bad_tree + "\n")
    assert main(["eval", "--config", str(cfg), "--pred", str(pred)]) == 2
    err = capsys.readouterr().err
    assert f"{pred}:2:" in err
    if bad_tree.startswith("(S"):
        assert f"{pred}:2: expected 2 spans for 3 tokens" in err


def test_eval_truncated_gold_names_file_and_tree(pipeline, tmp_path, capsys):
    root, cfg = pipeline
    lines = (root / "gold.txt").read_text().splitlines()
    gold = tmp_path / "gold.txt"
    gold.write_text("\n".join(lines[:2] + [lines[2][: len(lines[2]) // 2]]) + "\n")
    pred = tmp_path / "pred.txt"
    pred.write_text("(X (X a) (X b))\n")
    assert main([
        "eval", "--config", str(cfg), "--pred", str(pred), "--gold", str(gold),
    ]) == 2
    assert capsys.readouterr().err == (
        f"data error: {gold}: tree 3: unclosed '(' at end of input\n"
    )


def test_corpus_and_gold_on_one_file_follow_one_format_rule(tmp_path, capsys):
    # A file that opens with a word is plain text to the corpus reader, so
    # the gold reader refuses it instead of skipping to the tree.
    text = tmp_path / "mixed.txt"
    text.write_text("junk (S a)\n")
    cfg = write_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["paths"].update(corpus=str(text), gold=str(text))
    cfg.write_text(json.dumps(raw))
    assert main(["bootstrap", "--config", str(cfg)]) == 0
    assert read_corpus(text)[0].tokens == ("junk", "(S", "a)")
    pred = tmp_path / "pred.txt"
    pred.write_text("(X a)\n")
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--pred", str(pred)]) == 2
    assert capsys.readouterr().err == (
        f"data error: {text}: word 'junk' before the first tree\n"
    )


def test_words_between_trees_are_exit_2(tmp_path, capsys):
    # a plain line between two trees is neither skipped nor read as a
    # sentence: parse and eval both refuse the file, naming the tree and
    # the word
    text = tmp_path / "mixed.txt"
    text.write_text("(X a b)\nthe cat sleeps\n(Y c d)\n")
    cfg = write_config(tmp_path)
    want = f"data error: {text}: tree 1: word 'the' after the tree\n"
    argv = ["parse", "--config", str(cfg), "--input", str(text), "--out", str(tmp_path / "p.txt")]
    assert main(argv) == 2
    assert capsys.readouterr().err == want
    assert not (tmp_path / "p.txt").exists()
    pred = tmp_path / "pred.txt"
    pred.write_text("(X a b)\n(X c d)\n")
    assert main(["eval", "--config", str(cfg), "--pred", str(pred), "--gold", str(text)]) == 2
    assert capsys.readouterr().err == want


def test_plain_first_line_opening_with_angle_is_text(tmp_path, capsys):
    # '<s> dog runs' does not end with '>', so it is no markup line: the
    # file is plain text, whose token '(X' parse refuses, and bootstrap
    # reads both lines of a plain file that opens with it
    text = tmp_path / "in.txt"
    text.write_text("<s> dog runs\n(X a b)\n")
    cfg = write_config(tmp_path)
    out = tmp_path / "pred.txt"
    assert main(["parse", "--config", str(cfg), "--input", str(text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {text}: sentence 1: token '(X' ")
    assert not out.exists()
    (tmp_path / "corpus.txt").write_text("<s> dog runs\nthe cat sleeps\n")
    assert main(["bootstrap", "--config", str(cfg)]) == 0
    rows = (tmp_path / "models" / "seeds.tsv").read_text().splitlines()
    assert {row.split("\t")[0] for row in rows} == {"0", "1"}


def test_corpus_and_gold_with_bom_and_markup_read_alike(tmp_path, capsys):
    # a byte order mark and CTB-style markup lines before and between the
    # trees: one file serves as corpus and gold, and eval scores against it
    text = tmp_path / "ctb.txt"
    text.write_text(
        "\ufeff<DOC>\n<S ID=1>\n( (IP (NP a) (VP b c)) )\n</S>\n"
        "<S ID=2>\n( (IP (NP d) (VP e)) )\n</S>\n</DOC>\n",
        encoding="utf-8",
    )
    cfg = write_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["paths"].update(corpus=str(text), gold=str(text))
    cfg.write_text(json.dumps(raw))
    assert main(["bootstrap", "--config", str(cfg)]) == 0
    assert [s.tokens for s in read_corpus(text)] == [("a", "b", "c"), ("d", "e")]
    pred = tmp_path / "pred.txt"
    pred.write_text("(X (X a) (X (X b) (X c)))\n(X (X d) (X e))\n")
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--pred", str(pred)]) == 0


@pytest.mark.parametrize(
    "bad_line",
    ["0\t0\t9\tdistituent\tinside", "77\t0\t1\tconstituent\tinside",
     # an id past 64 bits
     "1234567890123456789012345\t0\t1\tconstituent\tinside"],
)
def test_train_seed_outside_corpus_is_exit_2(tmp_path, capsys, bad_line):
    write_tiny_corpus(tmp_path)
    cfg = write_config(tmp_path)
    seeds = tmp_path / "bad_seeds.tsv"
    seeds.write_text("0\t0\t4\tconstituent\tinside\n" + bad_line + "\n")
    assert main(["train", "--config", str(cfg), "--seeds", str(seeds)]) == 2
    err = capsys.readouterr().err
    sid, i, j = bad_line.split("\t")[:3]
    assert f"{seeds}: span ({i}, {j}) of sentence {sid} is outside the corpus" in err


@pytest.mark.filterwarnings("ignore::bootparse.errors.PoolExhaustedWarning")
def test_selftrain_replaced_set_of_one_class_is_exit_2(tmp_path, capsys):
    # c = 0 harvests no constituents, so a replaced set has one class
    write_tiny_corpus(tmp_path)
    cfg = write_config(tmp_path, self_train={"K": 2, "c": 0, "d": 3, "accumulate": False})
    assert main(["bootstrap", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["selftrain", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "data error: self_train iteration 0: " in err
    assert "'inside_constituent': " in err and "'constituent': 0, 'distituent': " in err
    assert not (tmp_path / "models" / "self_in.json").exists()


@pytest.mark.parametrize("stage", ["train", "selftrain"])
def test_seed_row_of_wrong_view_is_exit_2(tmp_path, capsys, stage):
    write_tiny_corpus(tmp_path)
    cfg = write_config(tmp_path)
    seeds = tmp_path / "seeds.tsv"
    seeds.write_text(GOLDEN_RIGHT + "2\t1\t2\tdistituent\toutside\n")
    assert main([stage, "--config", str(cfg), "--seeds", str(seeds)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert f"{seeds}: span (1, 2) of sentence 2 has view 'outside', expected 'inside'" in err


@pytest.mark.parametrize(
    "name, view",
    [("self_inside.tsv", "outside"), ("self_inside.tsv", "concat"),
     ("self_outside.tsv", "inside")],
)
def test_cotrain_set_of_wrong_view_is_exit_2(pipeline, tmp_path, capsys, name, view):
    # co_train would convert the row to the other view; the file is refused
    root, _ = pipeline
    models = tmp_path / "models"
    models.mkdir()
    for set_name in ("self_inside.tsv", "self_outside.tsv"):
        (models / set_name).write_bytes((root / "models" / set_name).read_bytes())
    rows = (models / name).read_text().split("\n")
    sid, i, j, label, _ = rows[3].split("\t")
    rows[3] = "\t".join((sid, i, j, label, view))
    (models / name).write_text("\n".join(rows))
    cfg = write_config(tmp_path, paths={
        "corpus": str(root / "corpus.txt"), "model_dir": str(models),
    })
    assert main(["cotrain", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{models / name}: span ({i}, {j}) of sentence {sid} has view {view!r}" in err
    assert not (models / "co_in.json").exists()


@pytest.mark.parametrize(
    "stage, name, view",
    [("seed", "inside_seed.json", "outside"), ("self", "self_in.json", "concat"),
     ("co", "co_in.json", "outside"), ("co", "co_in.json", "concat"),
     ("co", "co_out.json", "inside")],
)
def test_parse_model_of_wrong_view_is_exit_2(pipeline, tmp_path, capsys, stage, name, view):
    root, _ = pipeline
    models = tmp_path / "models"
    models.mkdir()
    for model in ("inside_seed.json", "self_in.json", "co_in.json", "co_out.json"):
        (models / model).write_bytes((root / "models" / model).read_bytes())
    payload = json.loads((models / name).read_text())
    payload["view"] = view
    (models / name).write_text(json.dumps(payload))
    cfg = write_config(tmp_path)
    (tmp_path / "in.txt").write_text("the dog sees a cat\n")
    assert main([
        "parse", "--config", str(cfg), "--input", str(tmp_path / "in.txt"),
        "--out", str(tmp_path / "out.txt"), "--stage", stage,
    ]) == 2
    err = capsys.readouterr().err
    expected = "outside" if name == "co_out.json" else "inside"
    assert f"model file {models / name}: view {view!r}, expected {expected!r}" in err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("where", ["file", "under_file"])
@pytest.mark.parametrize("key", ["model_dir", "report_dir"])
def test_output_dir_that_cannot_be_made_is_exit_1(pipeline, tmp_path, capsys, key, where):
    root, root_cfg = pipeline
    (tmp_path / "taken").write_text("a file\n")
    path = tmp_path / "taken" / ("sub" if where == "under_file" else "")
    paths = {"corpus": str(root / "corpus.txt"), "gold": str(root / "gold.txt"),
             key: str(path)}
    cfg = write_config(tmp_path, paths=paths)
    pred = tmp_path / "pred.txt"
    if key == "model_dir":
        argv = ["bootstrap", "--config", str(cfg)]
    else:
        assert main(["parse", "--config", str(root_cfg), "--input",
                     str(root / "corpus.txt"), "--out", str(pred), "--stage", "seed"]) == 0
        argv = ["eval", "--config", str(cfg), "--pred", str(pred)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot make output directory {path}: ")


def test_parse_makes_no_model_dir(tmp_path, capsys):
    # parse only reads models: a missing model directory is not created
    write_tiny_corpus(tmp_path)
    cfg = write_config(tmp_path)
    assert main([
        "parse", "--config", str(cfg), "--input", str(tmp_path / "corpus.txt"),
        "--out", str(tmp_path / "out.txt"),
    ]) == 2
    assert "co_in.json" in capsys.readouterr().err
    assert not (tmp_path / "models").exists()
    # a model directory that is a file is a data error naming the model
    (tmp_path / "models").write_text("a file\n")
    assert main([
        "parse", "--config", str(cfg), "--input", str(tmp_path / "corpus.txt"),
        "--out", str(tmp_path / "out.txt"), "--stage", "seed",
    ]) == 2
    assert str(tmp_path / "models" / "inside_seed.json") in capsys.readouterr().err


def test_scorer_command_that_cannot_start_is_exit_1(tmp_path, capsys):
    write_tiny_corpus(tmp_path)
    scorer = {"backend": "external", "command": ["no-such-scorer"], "timeout": 2}
    cfg = write_config(tmp_path, scorer=scorer)
    assert main([
        "parse", "--config", str(cfg), "--input", str(tmp_path / "corpus.txt"),
        "--out", str(tmp_path / "out.txt"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot start scorer.command ['no-such-scorer']: ")
    assert not (tmp_path / "out.txt").exists()


def test_casing_carriers_reach_every_stage(tmp_path, capsys):
    # "The" opens most sentences and two capitalized runs, so bootstrap
    # writes examples on two carrier sentences after the corpus
    (tmp_path / "corpus.txt").write_text(
        "The New York Times reported it\nThe Big Apple is a city\n"
        "the cat sat down\nThe man ran home quickly\n"
    )
    cfg = write_config(
        tmp_path,
        seeds={"casing_augmentation": True},
        self_train={"K": 1, "c": 2, "d": 4, "tau_min": 0.4, "tau_max": 0.6,
                    "accumulate": True},
        co_train={"K": 1, "c": 2, "d": 4, "tau_min": 0.4, "tau_max": 0.6},
    )
    assert main(["bootstrap", "--config", str(cfg)]) == 0
    seeds = (tmp_path / "models" / "seeds.tsv").read_text()
    assert "4\t0\t3\tconstituent\tinside" in seeds
    for stage in ("train", "selftrain", "cotrain"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    for stage in ("seed", "self", "co"):
        assert main([
            "parse", "--config", str(cfg), "--input", str(tmp_path / "corpus.txt"),
            "--out", str(tmp_path / f"pred_{stage}.txt"), "--stage", stage,
        ]) == 0, stage
    capsys.readouterr()


def test_parse_resolves_config_stats_like_train(tmp_path):
    corpus = "the of cat sat\nthe dog ran home\nthe of dog ran\nthe cat is here now\n"
    heuristics = {"enabled": True, "common_start_word": "the"}
    _train_seed_model(tmp_path, corpus, heuristics=heuristics)
    # "of" is a bundled stopword, so the start-word rule leaves it alone
    pred = _parse_seed(tmp_path, "pred.txt", heuristics=heuristics)
    assert pred[0] == "(X the (X of (X cat sat)))"


@pytest.mark.parametrize(
    "name, text, where",
    [
        ("co_trace.jsonl", '{"x": 1}\n', "line 1"),
        ("report.json", "{}", "KeyError"),
        ("report.json", "nope", "JSONDecodeError"),
        # a mode that is none of the eval modes, a lone surrogate among
        # them, is bad data, not a failure to print it
        *(("report.json", '{"mode": ' + mode + ', "f1": 0.5, "precision": 0.5, "recall": 0.5}',
           "unknown mode") for mode in ('"\\ud800"', '"micro"', "null", '["macro_sentence"]')),
    ],
)
def test_report_bad_input_file_is_exit_2(tmp_path, name, text, where):
    # a subprocess with a timeout, so a report that hangs fails the test
    cfg = write_config(tmp_path)
    folder = tmp_path / ("models" if name.endswith(".jsonl") else "reports")
    folder.mkdir()
    (folder / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "bootparse.cli", "report", "--config", str(cfg)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert str(folder / name) in proc.stderr and where in proc.stderr
    assert "internal error" not in proc.stderr
    if where == "unknown mode":
        # the mode as Python writes it, a lone surrogate escaped
        mode = json.loads(text)["mode"]
        assert f"{folder / name}: {ValueError(f'unknown mode {mode!r}')!r}" in proc.stderr


def test_report_shows_pools_and_flags_empty_harvests(tmp_path, capsys):
    cfg = write_config(tmp_path)
    (tmp_path / "models").mkdir()
    trace = LoopTrace(records=(
        IterationRecord(0, 4, 0, {"inside_distituent": 0, "inside_constituent": 7},
                        {"constituent": 0, "distituent": 0}, {"inside": {"val_loss": 0.5}}),
        IterationRecord(1, 6, 0, {"inside_constituent": 7, "inside_distituent": 3},
                        {"constituent": 0, "distituent": 2}, {"inside": {}}),
    ))
    (tmp_path / "models" / "self_trace.jsonl").write_text(trace.to_jsonl())
    assert main(["report", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "self-training trace (2 iterations):",
        '  iter 0: |I|=4 |O|=0 pools={"inside_constituent": 7, "inside_distituent": 0} '
        'selected={"constituent": 0, "distituent": 0} metrics={"inside": {"val_loss": 0.5}}'
        "  [harvest selected nothing]",
        '  iter 1: |I|=6 |O|=0 pools={"inside_constituent": 7, "inside_distituent": 3} '
        'selected={"constituent": 0, "distituent": 2} metrics={"inside": {}}',
    ]


TRACE_RECORD = {
    "iteration": 0, "inside_size": 4, "outside_size": 5,
    "pools": {"inside_constituent": 7}, "selected": {"from_inside": 2},
    "metrics": {"inside": {"val_loss": 0.5}},
}


@pytest.mark.parametrize(
    "field, raw",
    [("metrics", "[]"), ("metrics", '{"inside": 0.5}'), ("metrics", '{"inside": {"val_f1": NaN}}'),
     ("metrics", '{"inside": {"val_f1": true}}'), ("metrics", '{"inside": {"val_f1": "0.5"}}'),
     ("pools", "3"), ("pools", '{"inside_constituent": 1.5}'), ("selected", '{"from_inside": -1}'),
     ("selected", "null"), ("inside_size", "1e400"), ("inside_size", "NaN"),
     ("outside_size", "-1"), ("iteration", "true"), ("iteration", "2.0")],
)
def test_report_bad_trace_record_is_exit_2(tmp_path, capsys, field, raw):
    cfg = write_config(tmp_path)
    (tmp_path / "models").mkdir()
    path = tmp_path / "models" / "co_trace.jsonl"
    good = json.dumps(TRACE_RECORD)
    bad = json.dumps({k: v for k, v in TRACE_RECORD.items() if k != field})[:-1]
    path.write_text(f"{good}\n{bad}, \"{field}\": {raw}}}\n")
    assert main(["report", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"trace file {path}: line 2: " in err and field in err
    assert "internal error" not in err


@pytest.mark.parametrize("key", ["f1", "precision", "recall"])
@pytest.mark.parametrize("raw", ["NaN", "Infinity", "1e400", "true", '"0.5"', "null"])
def test_report_bad_report_score_is_exit_2(tmp_path, capsys, key, raw):
    cfg = write_config(tmp_path)
    (tmp_path / "reports").mkdir()
    path = tmp_path / "reports" / "report.json"
    scores = {"f1": "0.5", "precision": "0.5", "recall": "0.5", key: raw}
    path.write_text(
        '{"mode": "macro_sentence", ' + ", ".join(f'"{k}": {v}' for k, v in scores.items()) + "}"
    )
    assert main(["report", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"report file {path}: " in err and key in err
    assert "internal error" not in err


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_is_not_an_internal_error(tmp_path, buffered):
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from bootparse.cli import main; sys.exit(main())",
         "synth", "--out", str(tmp_path / "c.txt"), "--count", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    # the reader goes away before the stage prints its line
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert err == ""
    assert len((tmp_path / "c.txt").read_text().splitlines()) == 5


# ------------------------------------------------------------ exit codes


class _NewDataError(DataError):
    """A data error that no list in the CLI names."""


def _data_errors(cls=DataError) -> list[type]:
    """DataError and every class derived from it, however deep."""
    return [cls, *(sub for direct in cls.__subclasses__() for sub in _data_errors(direct))]


_EXIT_CODES = [(error, 2, "data error: ") for error in _data_errors()] + [
    (ConfigError, 1, "config error: "),
    (ExternalScorerError, 3, "external scorer failed: "),
    (AllTokensRemoved, 3, "internal error: "),
    (TooLarge, 3, "internal error: "),
]


@pytest.mark.parametrize(
    "error, code, prefix", [pytest.param(*case, id=case[0].__name__) for case in _EXIT_CODES]
)
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, error, code, prefix):
    # every DataError exits 2, one that no list in the CLI names included
    def fail(args):
        raise error("bad input")

    monkeypatch.setattr(cli, "_load", fail)
    assert main(["report", "--config", "cfg.json"]) == code
    assert capsys.readouterr().err == f"{prefix}bad input\n"


# any JSON value, small, with a string that no path can hold and a lone
# surrogate, which UTF-8 cannot encode, among them; json.dumps writes
# NaN and Infinity, which Python's reader takes
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.just("a\0b") | st.just("\ud800"),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# any bytes, and text with brackets, markup, tabs and a byte order mark
_FILE_BYTES = st.one_of(
    st.binary(max_size=80),
    st.text(alphabet="()<>ab01 |=\t\n\ufeff", max_size=40).map(str.encode),
    st.text(max_size=40).map(str.encode),
)
# bracketed trees, markup and words, valid or not
_TREE_BYTES = st.lists(
    st.sampled_from(["(", ")", "X", "Y", "a", "b", "-NONE-", "<S>", "\n"]), max_size=12
).map(lambda toks: " ".join(toks).encode())
# seed-file rows of five fields, each near or at a valid one
_SEED_ROWS = st.lists(
    st.lists(
        st.sampled_from(
            ["0", "1", "2", "4", "9", "-1", "+1", "1e3", "", "constituent",
             "distituent", "inside", "outside", "x"]
        ),
        min_size=4,
        max_size=6,
    ).map("\t".join),
    max_size=4,
).map(lambda rows: "".join(row + "\n" for row in rows).encode())


def _json_paths(value, path=()):
    """The path of value itself and of every value inside it."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, inner in items:
        yield from _json_paths(inner, (*path, key))


def _replaced(value, path, new):
    """value with the value at path replaced by new."""
    if not path:
        return new
    copy = value.copy()
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _json_mutants(doc, dump=json.dumps):
    """The bytes of doc with one value, or the whole, replaced by any JSON value."""
    return st.sampled_from(list(_json_paths(doc))).flatmap(
        lambda path: _JSON_VALUES.map(lambda new: dump(_replaced(doc, path, new)).encode())
    )


def _jsonl(value) -> str:
    """A list as one JSON line per item, any other value as one line."""
    lines = value if isinstance(value, list) else [value]
    return "".join(json.dumps(line) + "\n" for line in lines)


FUZZ_GRAMMAR = {
    "start": "S",
    "rules": {"S": [[0.5, ["A", "S"]], [0.5, ["A", "B"]]]},
    "lexicon": {"A": ["a", "b"], "B": ["c"]},
    "max_depth": 10,
}
FUZZ_REPORT = {"mode": "macro_sentence", "f1": 0.5, "precision": 0.5, "recall": 0.5}


def _fuzz_case(kind: str, pipeline, folder: Path):
    """(the input file, the argv of the subcommand that reads it, and a
    strategy of the file's bytes) for one kind of input file."""
    root, _ = pipeline
    cfg = write_config(folder)
    write_tiny_corpus(folder)
    models, out = folder / "models", str(folder / "out.txt")
    models.mkdir(exist_ok=True)
    if kind == "corpus":
        argv = ["bootstrap", "--config", str(cfg), "--out", out]
        return folder / "corpus.txt", argv, _FILE_BYTES | _TREE_BYTES
    if kind == "gold":
        (folder / "pred.txt").write_text("(X a b)\n")
        argv = ["eval", "--config", str(cfg), "--pred", str(folder / "pred.txt")]
        return folder / "gold.txt", argv, _FILE_BYTES | _TREE_BYTES
    if kind == "config":
        doc = json.loads(cfg.read_text())
        argv = ["bootstrap", "--config", str(cfg), "--out", out]
        return cfg, argv, _FILE_BYTES | _json_mutants(doc)
    if kind == "grammar":
        grammar = folder / "grammar.json"
        argv = ["synth", "--grammar", str(grammar), "--out", out, "--count", "2", "--max-len", "8"]
        return grammar, argv, _FILE_BYTES | _json_mutants(FUZZ_GRAMMAR)
    if kind == "seeds":
        seeds = folder / "seeds.tsv"
        argv = ["train", "--config", str(cfg), "--seeds", str(seeds)]
        return seeds, argv, _FILE_BYTES | _SEED_ROWS
    if kind == "model":
        doc = json.loads((root / "models" / "inside_seed.json").read_text())
        argv = ["parse", "--config", str(cfg), "--stage", "seed",
                "--input", str(folder / "corpus.txt"), "--out", out]
        return models / "inside_seed.json", argv, _FILE_BYTES | _json_mutants(doc)
    argv = ["report", "--config", str(cfg)]
    if kind == "trace":
        lines = (root / "models" / "self_trace.jsonl").read_text().splitlines()
        doc = [json.loads(line) for line in lines]
        return models / "self_trace.jsonl", argv, _FILE_BYTES | _json_mutants(doc, _jsonl)
    (folder / "reports").mkdir(exist_ok=True)
    return folder / "reports" / "report.json", argv, _FILE_BYTES | _json_mutants(FUZZ_REPORT)


@pytest.mark.parametrize(
    "section, key, value",
    [("paths", "corpus", "a\0b"), ("paths", "model_dir", "\ud800"),
     ("scorer", "command", ["a\0b"]), ("scorer", "command", ["\ud800"])],
)
def test_config_text_the_os_cannot_take_is_exit_1(tmp_path, capsys, section, key, value):
    # a path or a scorer argument with a NUL or a lone surrogate is a
    # config error, not an internal error when the file is opened
    write_tiny_corpus(tmp_path)
    cfg = write_config(tmp_path, scorer={"backend": "external", "command": ["true"]})
    raw = json.loads(cfg.read_text())
    raw[section][key] = value
    cfg.write_text(json.dumps(raw))
    argv = ["parse", "--config", str(cfg), "--input", str(tmp_path / "corpus.txt"),
            "--out", str(tmp_path / "pred.txt")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad {section} section: {key} cannot be passed")


@pytest.mark.parametrize(
    "kind", ["corpus", "gold", "config", "grammar", "seeds", "model", "trace", "report"]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_input_file_is_exit_0_1_or_2(pipeline, tmp_path_factory, kind, data):
    # whatever an input file holds, the subcommand that reads it succeeds
    # or refuses it as bad settings or bad data, never as an internal error
    folder = tmp_path_factory.getbasetemp() / f"fuzz_{kind}"
    folder.mkdir(exist_ok=True)
    path, argv, contents = _fuzz_case(kind, pipeline, folder)
    path.write_bytes(data.draw(contents, label=path.name))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
