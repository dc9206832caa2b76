"""Run one bootparse CLI stage in-process with timing spans around its layers.

Usage: python3 bench/trace_stage.py SPANS_JSON -- <bootparse arguments>

The stage runs through ``bootparse.cli.main`` exactly as the console
script would.  Before it starts, the public functions of each module are
replaced, in every bootparse module that refers to them, by wrappers
that time each call.  Spans are aggregated per name in memory (call
count, inclusive time, self time, and a work count) and written to
SPANS_JSON when the stage ends; the exit code is the stage's own.

``self_train`` and ``co_train`` bind ``trainer=train`` as a default
argument when they are defined, so replacing ``bootparse.loops.train``
alone would time nothing: their wrappers pass the traced ``train``
through the ``trainer=`` hook instead.
"""

from __future__ import annotations

import functools
import json
import sys
import time

perf_counter = time.perf_counter


class Tracer:
    """Per-name call count, inclusive time, self time and work count."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._child_time: list[float] = []

    def wrap(self, name, fn, count=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        child_time = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
            if count is not None:
                stats[3] += count(args, result)
            return result

        return traced

    def to_json(self) -> dict:
        return {
            name: {"calls": s[0], "s": s[1], "self_s": s[2], "count": s[3]}
            for name, s in self.stats.items()
        }


def _replace_everywhere(original, replacement) -> None:
    """Point every bootparse module attribute bound to `original` at `replacement`."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "bootparse" and not mod_name.startswith("bootparse."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    import bootparse.decoder as decoder
    import bootparse.evaluation as evaluation
    import bootparse.loops as loops
    import bootparse.scorer as scorer
    import bootparse.seeds as seeds
    import bootparse.treebank as treebank

    def function(module, attr, name, count=None):
        original = getattr(module, attr)
        traced = tracer.wrap(name, original, count)
        _replace_everywhere(original, traced)
        return traced

    def method(cls, attr, name, count=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), count))

    function(seeds, "generate_seeds", "seeds.generate_seeds",
             lambda args, out: len(out))
    function(seeds, "read_seed_file", "seeds.read_seed_file",
             lambda args, out: len(out))

    function(scorer, "featurize", "scorer.featurize")
    method(scorer.FeatureSpace, "fit", "scorer.fit")
    method(scorer.FeatureSpace, "transform", "scorer.transform",
           lambda args, out: out.shape[0])
    method(scorer.SpanScorer, "score_spans", "scorer.score_spans",
           lambda args, out: len(out))
    function(scorer, "score_chart", "scorer.score_chart")
    function(scorer, "confidence_pools", "scorer.confidence_pools")
    traced_train = function(scorer, "train", "scorer.train",
                            lambda args, out: len(args[0]))

    for attr in ("self_train", "co_train"):
        original = getattr(loops, attr)

        def with_traced_trainer(*args, _original=original, **kwargs):
            kwargs.setdefault("trainer", traced_train)
            return _original(*args, **kwargs)

        traced = tracer.wrap(f"loops.{attr}", with_traced_trainer)
        _replace_everywhere(original, traced)

    function(decoder, "cyk_decode", "decoder.cyk_decode")
    function(decoder, "apply_heuristics", "decoder.apply_heuristics")

    function(evaluation, "corpus_eval", "evaluation.corpus_eval")

    function(treebank, "labeled_spans", "treebank.labeled_spans")
    method(treebank.BinaryTree, "__post_init__", "treebank.binary_tree_check")
    function(treebank, "parse_bracketed", "treebank.parse_bracketed")
    function(treebank, "read_treebank", "treebank.read_treebank")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    out_path, stage_args = argv[0], argv[2:]
    start = perf_counter()
    import bootparse.cli as cli

    import_s = perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = cli.main(stage_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.to_json()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
