"""Benchmark for the bootparse pipeline, driven through its CLI.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the package is imported from
the checkout's ``src/`` directory, and every file the benchmark writes
goes under ``.bench_work/`` at the checkout root (removed afterwards).

Each CLI stage runs as its own process, strictly one at a time, exactly
as a user would type it.  Both workloads run the README quick-start
pipeline, bootstrap -> train -> selftrain -> cotrain -> parse --stage co
-> eval --baselines --oracle -> report, with the quick-start config
(``rng_seed`` 0); the inputs come from ``--seed``:

  quickstart  2000 builtin-grammar sentences of 3-12 tokens, the README
              quick start verbatim.  Training-bound (SGD).
  long        400 sentences of 20-40 tokens from bench/long_grammar.json,
              with decode heuristics enabled.  Bound by span
              featurization, scoring and O(n^3) CYK.

--trace 0 measures whole pipelines, back to back, until --seconds have
been spent (at least one), and reports the end-to-end metrics as the
median over pipelines.  Within a pipeline, parse and eval are short and
run DECODE_REPEATS times each (interleaved; every repeat must write the
same bytes), and their median counts.  --trace 1 runs the pipeline once
untraced and once with every stage under bench/trace_stage.py, and
reports per-layer metrics.  Outputs are checked in both modes; a failed
stage or check is counted and the run goes on.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Lines before it are a readable summary and an environment record.

Reference-speed seconds.  On a shared machine the CPU speed available to
one process drifts by tens of percent within minutes, and that drift,
not the program, dominates the spread of raw stage times.  So every
process is bracketed by a fixed pure-Python calibration loop, and the
end-to-end times are its wall time scaled by REFERENCE_LOOP_S over the
mean of the loop times just before and just after it: seconds on a
machine where the loop takes REFERENCE_LOOP_S.  The summary lines print
the raw wall times next to them; per-layer times are raw.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LONG_GRAMMAR = BENCH / "long_grammar.json"
TRACE_STAGE = BENCH / "trace_stage.py"

# Set-up is repeated and its median reported, so set-up noise stays
# out of the comparison between commits.
SETUP_REPEATS = 3
DECODE_REPEATS = 2
LONG_MIN_LEN, LONG_MAX_LEN = 20, 40
# 0.07 to 0.1 s of interpreter work on a 2-CPU cloud VM with Python 3.11.
CALIBRATION_LOOPS = 1_000_000
REFERENCE_LOOP_S = 0.1

QUICKSTART_CONFIG = {
    "paths": {"corpus": "corpus.txt", "gold": "gold.txt",
              "model_dir": "models", "report_dir": "reports"},
    "rng_seed": 0,
    "seeds": {"casing_augmentation": True},
    "self_train": {"K": 2, "c": 0, "d": 1200, "tau_min": 0.005,
                   "tau_max": 0.9, "pool_cap": 1000, "accumulate": True},
    "co_train": {"K": 3, "c": 0, "d": 2400, "tau_min": 0.1,
                 "tau_max": 0.9, "pool_cap": 1000},
    "training": {"epochs": 30, "l2": 1e-6},
    "heuristics": {"enabled": False},
}

TRAIN_STAGES = ("bootstrap", "train", "selftrain", "cotrain")
MEASURED_STAGES = TRAIN_STAGES + ("parse", "eval")

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "parse_sents_per_s": "sent/s",
    "eval_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "f1": "ratio",
}


def _stage(name: str, *extra: str) -> tuple[str, list[str]]:
    return name, [name, "--config", "config.json", *extra]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    synth_args: tuple[str, ...]
    # macro-sentence F1 of this commit at workload seed 0, to 4 places
    f1_seed0: float
    # the layer expected to dominate the traced run (see layer_split)
    dominant: str

    def synth_argv(self, seed: int) -> list[str]:
        return ["synth", "--out", "corpus.txt", "--gold", "gold.txt",
                *self.synth_args, "--rng-seed", str(seed)]

    def stages(self, decode_repeats: int) -> list[tuple[str, list[str]]]:
        decode = [
            _stage("parse", "--input", "corpus.txt", "--out", "pred.txt",
                   "--stage", "co"),
            _stage("eval", "--pred", "pred.txt", "--baselines", "--oracle"),
        ]
        return ([_stage(s) for s in TRAIN_STAGES] + decode * decode_repeats
                + [_stage("report")])


# spans that must record calls in every traced run
REQUIRED_SPANS = (
    "seeds.generate_seeds", "seeds.read_seed_file", "scorer.train",
    "scorer.featurize", "scorer.fit", "scorer.transform",
    "scorer.score_spans", "scorer.score_chart", "scorer.confidence_pools",
    "loops.self_train", "loops.co_train", "decoder.cyk_decode",
    "decoder.apply_heuristics", "evaluation.corpus_eval",
    "treebank.labeled_spans", "treebank.binary_tree_check",
    "treebank.parse_bracketed", "treebank.read_treebank",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="quickstart",
            why="README quick start on 2000 short sentences; training-bound",
            config=QUICKSTART_CONFIG,
            synth_args=("--count", "2000"),
            f1_seed0=0.7531,
            dominant="sgd",
        ),
        Workload(
            name="long",
            why="400 sentences of 20-40 tokens with heuristics; "
                "featurization-, scoring- and CYK-bound",
            config={**QUICKSTART_CONFIG, "heuristics": {"enabled": True}},
            synth_args=("--grammar", str(LONG_GRAMMAR), "--count", "400",
                        "--min-len", str(LONG_MIN_LEN),
                        "--max-len", str(LONG_MAX_LEN)),
            f1_seed0=0.4697,
            dominant="featurize",
        ),
    )
}


# ------------------------------------------------------------ processes


def calibrate() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


@dataclass
class StageResult:
    name: str
    code: int
    wall_s: float
    # wall_s in reference-speed seconds (see the module docstring)
    ref_s: float
    rss_mb: float
    stderr: str


class Runner:
    """Runs processes one at a time in the work directory and times them."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        self.calibrations = [calibrate()]

    def run(self, name: str, argv: list[str]) -> StageResult:
        """One process, waited for: wall time and its own peak RSS."""
        err_path = self.workdir / f".{name}.stderr"
        with open(os.devnull, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        err_path.unlink()
        before = self.calibrations[-1]
        self.calibrations.append(calibrate())
        loop_s = (before + self.calibrations[-1]) / 2
        return StageResult(name, proc.returncode, wall,
                           wall * REFERENCE_LOOP_S / loop_s,
                           usage.ru_maxrss / 1024.0, stderr)


def stage_env() -> dict:
    """The caller's environment, the checkout's sources, at most nproc threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "bootparse.cli", *args]


def traced_argv(spans_path: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(TRACE_STAGE), str(spans_path), "--", *args]


# --------------------------------------------------------------- checks


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


_TREE_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def tree_yield(line: str) -> list[str]:
    """Leaves of one bracketed tree: every token that is not a label."""
    tokens = _TREE_TOKEN.findall(line)
    return [
        tok for k, tok in enumerate(tokens)
        if tok not in ("(", ")") and (k == 0 or tokens[k - 1] != "(")
    ]


def _lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]


def check_predictions(workdir: Path) -> str | None:
    pred = workdir / "pred.txt"
    if not pred.exists():
        return "pred.txt missing"
    sentences = [ln.split() for ln in _lines(workdir / "corpus.txt")]
    trees = _lines(pred)
    if len(trees) != len(sentences):
        return f"pred.txt has {len(trees)} trees for {len(sentences)} sentences"
    for k, (tree, sent) in enumerate(zip(trees, sentences)):
        if tree_yield(tree) != sent:
            return f"tree {k} yield differs from its sentence"
    return None


def read_f1(workdir: Path) -> float | None:
    try:
        f1 = json.loads((workdir / "reports" / "report.json").read_text())["f1"]
    except (OSError, ValueError, KeyError):
        return None
    return float(f1) if isinstance(f1, (int, float)) and 0.0 <= f1 <= 1.0 else None


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def artifact_digest(workdir: Path) -> str:
    """Saved models, loop traces, seed sets, predictions and reports."""
    paths = [p for d in ("models", "reports") for p in (workdir / d).glob("*")]
    return digest(paths + [workdir / "pred.txt"])


# ---------------------------------------------------------------- setup


def setup(workload: Workload, seed: int, runner: Runner, tally: Tally,
          notes: dict, repeats: int) -> float:
    """Generate the inputs `repeats` times; median set-up seconds."""
    workdir = runner.workdir
    times = []
    digests = set()
    for _ in range(repeats):
        res = runner.run("synth", cli_argv(workload.synth_argv(seed)))
        tally.check(res.code == 0, f"synth exited {res.code}: {res.stderr[-300:]}")
        times.append(res.ref_s)
        digests.add(digest(p for p in workdir.iterdir() if p.suffix == ".txt"))
    tally.check(len(digests) == 1, "synth output differs between repeats")
    (workdir / "config.json").write_text(json.dumps(workload.config, indent=2))

    corpus = [ln.split() for ln in _lines(workdir / "corpus.txt")]
    lengths = [len(tokens) for tokens in corpus]
    notes["corpus_lengths"] = {"min": min(lengths), "max": max(lengths),
                               "mean": statistics.fmean(lengths)}
    if workload.name == "long":
        tally.check(
            LONG_MIN_LEN <= min(lengths) and max(lengths) <= LONG_MAX_LEN,
            f"long corpus lengths {min(lengths)}..{max(lengths)} leave "
            f"{LONG_MIN_LEN}..{LONG_MAX_LEN}",
        )
        # a capitalized most common first word trips the casing-carrier
        # bug in train (exit 3), which is not what this workload measures
        first, _ = Counter(tokens[0] for tokens in corpus).most_common(1)[0]
        tally.check(first == first.lower(),
                    f"most common first word {first!r} is capitalized")
    return statistics.median(times)


# ------------------------------------------------------------- pipeline


@dataclass
class Pipeline:
    # every run of each stage, in order; parse and eval may repeat
    stages: dict[str, list[StageResult]] = field(default_factory=dict)
    f1: float | None = None
    digest: str | None = None
    ok: bool = True

    def _sum(self, names, attr: str) -> float:
        names = self.stages if names is None else names
        return sum(statistics.median(getattr(r, attr) for r in self.stages[n])
                   for n in names if n in self.stages)

    def ref(self, names=None) -> float:
        """Reference-speed seconds of the named stages (default: all),
        each the median over its runs."""
        return self._sum(names, "ref_s")

    def wall(self, names=None) -> float:
        return self._sum(names, "wall_s")

    def results(self) -> list[StageResult]:
        return [r for runs in self.stages.values() for r in runs]


def stage_output_digest(workdir: Path, name: str) -> str | None:
    if name == "parse":
        return digest([workdir / "pred.txt"])
    if name == "eval":
        return digest((workdir / "reports").glob("*"))
    return None


def run_pipeline(workload: Workload, runner: Runner, tally: Tally,
                 decode_repeats: int = 1, spans_dir: Path | None = None) -> Pipeline:
    """Every stage, from fresh model and report directories."""
    workdir = runner.workdir
    for stale in ("models", "reports"):
        shutil.rmtree(workdir / stale, ignore_errors=True)
    (workdir / "pred.txt").unlink(missing_ok=True)
    pipe = Pipeline()
    outputs: dict[str, str] = {}
    for name, args in workload.stages(decode_repeats):
        if not pipe.ok:
            tally.check(False, f"{name} skipped after an earlier failure")
            continue
        argv = (cli_argv(args) if spans_dir is None
                else traced_argv(spans_dir / f"{name}.json", args))
        res = runner.run(name, argv)
        pipe.stages.setdefault(name, []).append(res)
        pipe.ok = tally.check(
            res.code == 0, f"{name} exited {res.code}: {res.stderr[-300:]}")
        if pipe.ok and name == "parse":
            problem = check_predictions(workdir)
            pipe.ok = tally.check(problem is None, f"parse output: {problem}")
        elif pipe.ok and name == "eval":
            pipe.f1 = read_f1(workdir)
            pipe.ok = tally.check(pipe.f1 is not None, "report.json has no valid f1")
        out = stage_output_digest(workdir, name)
        if pipe.ok and out is not None:
            if name in outputs:
                pipe.ok = tally.check(out == outputs[name],
                                      f"repeated {name} wrote different bytes")
            outputs[name] = out
    if pipe.ok:
        pipe.digest = artifact_digest(workdir)
    return pipe


def check_determinism(pipes: list[Pipeline], tally: Tally) -> None:
    if len(pipes) > 1 and all(p.ok for p in pipes):
        tally.check(len({p.digest for p in pipes}) == 1,
                    "models, predictions or reports differ between runs of one seed")


def loop_counters(workdir: Path, pipe: Pipeline, config: dict) -> dict:
    """Pool sizes and harvest yield from the loop traces the CLI writes."""
    pools: Counter = Counter()
    selected = requested = 0
    for trace_file, section, harvests in (("self_trace.jsonl", "self_train", 1),
                                          ("co_trace.jsonl", "co_train", 2)):
        path = workdir / "models" / trace_file
        if not path.exists():
            continue
        want = config[section]["c"] + config[section]["d"]
        for line in _lines(path):
            rec = json.loads(line)
            pools.update(rec["pools"])
            selected += sum(rec["selected"].values())
            requested += harvests * want
    out = {f"loops.pool.{view_class}": float(pools[view_class])
           for view_class in ("inside_constituent", "inside_distituent",
                              "outside_constituent", "outside_distituent")}
    out["loops.harvest_yield"] = selected / requested if requested else 0.0
    out["loops.pool_exhausted"] = float(sum(
        res.stderr.count("PoolExhaustedWarning") for res in pipe.results()))
    return out


# -------------------------------------------------------------- metrics


def end_to_end(workdir: Path, setup_s: float, pipes: list[Pipeline]) -> dict:
    sentences = len(_lines(workdir / "corpus.txt"))
    good = [p for p in pipes if p.ok] or pipes

    def median(fn):
        return statistics.median(fn(p) for p in good)

    def rate(p):
        parse_s = p.ref(["parse"])
        return sentences / parse_s if parse_s else 0.0

    return {
        "setup_s": setup_s,
        "train_s": median(lambda p: p.ref(TRAIN_STAGES)),
        "parse_sents_per_s": median(rate),
        "eval_s": median(lambda p: p.ref(["eval"])),
        "total_s": median(lambda p: p.ref()),
        "peak_rss_mb": max((r.rss_mb for p in good for r in p.results()),
                           default=0.0),
        "f1": median(lambda p: p.f1 or 0.0),
    }


def merge_spans(spans_dir: Path) -> tuple[dict, list[float]]:
    merged: dict[str, dict] = {}
    imports = []
    for path in sorted(spans_dir.glob("*.json")):
        raw = json.loads(path.read_text())
        imports.append(raw["import_s"])
        for name, rec in raw["spans"].items():
            acc = merged.setdefault(name, dict.fromkeys(rec, 0))
            for key, value in rec.items():
                acc[key] += value
    return merged, imports


def per_layer(plain: Pipeline, traced: Pipeline, spans: dict,
              imports: list[float], counters: dict) -> dict:
    def span(name, key="s"):
        return float(spans.get(name, {}).get(key, 0))

    out = {"cli.import_s": statistics.median(imports) if imports else 0.0}
    for stage in MEASURED_STAGES:
        out[f"cli.{stage}.wall_s"] = plain.wall([stage])
        out[f"cli.{stage}.rss_mb"] = max(
            (r.rss_mb for r in plain.stages.get(stage, [])), default=0.0)
    score_s = span("scorer.score_spans")
    out.update({
        "seeds.generate_seeds.s": span("seeds.generate_seeds"),
        "seeds.read_seed_file.s": span("seeds.read_seed_file"),
        "seeds.examples": span("seeds.generate_seeds", "count"),
        "scorer.train.sgd_s": span("scorer.train", "self_s"),
        "scorer.train.calls": span("scorer.train", "calls"),
        "scorer.train.examples": span("scorer.train", "count"),
        "scorer.featurize.s": span("scorer.featurize"),
        "scorer.featurize.calls": span("scorer.featurize", "calls"),
        "scorer.transform.s": span("scorer.transform"),
        "scorer.transform.rows": span("scorer.transform", "count"),
        "scorer.confidence_pools.s": span("scorer.confidence_pools"),
        "scorer.score_chart.s": span("scorer.score_chart"),
        "scorer.score_spans.spans": span("scorer.score_spans", "count"),
        "scorer.spans_per_s": (span("scorer.score_spans", "count") / score_s
                               if score_s else 0.0),
        "loops.self_train.self_s": span("loops.self_train", "self_s"),
        "loops.co_train.self_s": span("loops.co_train", "self_s"),
        "decoder.cyk_decode.s": span("decoder.cyk_decode"),
        "decoder.cyk_decode.calls": span("decoder.cyk_decode", "calls"),
        "decoder.apply_heuristics.s": span("decoder.apply_heuristics"),
        "evaluation.corpus_eval.self_s": span("evaluation.corpus_eval", "self_s"),
        "treebank.labeled_spans.s": span("treebank.labeled_spans"),
        "treebank.labeled_spans.calls": span("treebank.labeled_spans", "calls"),
        "treebank.binary_tree_check.s": span("treebank.binary_tree_check"),
        "treebank.parse_bracketed.s": span("treebank.parse_bracketed"),
        "treebank.read_treebank.s": span("treebank.read_treebank"),
        "trace.overhead_s": traced.wall() - plain.wall(),
    })
    out.update(counters)
    return out


def layer_split(plain: Pipeline, traced: Pipeline, spans: dict) -> dict:
    """Shares of the traced pipeline's time (parse+eval: of the untraced one)."""
    traced_total = traced.wall() or 1.0

    def s(name, key="s"):
        return float(spans.get(name, {}).get(key, 0))

    return {
        "sgd": s("scorer.train", "self_s") / traced_total,
        "featurize": (s("scorer.featurize") + s("scorer.transform")) / traced_total,
        "cyk": s("decoder.cyk_decode") / traced_total,
        "parse_eval": plain.wall(["parse", "eval"]) / (plain.wall() or 1.0),
    }


# checked in order, first match wins
PER_LAYER_UNITS = {"spans_per_s": "1/s", "_s": "s", ".s": "s", "rss_mb": "MB",
                   "harvest_yield": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# ----------------------------------------------------------- environment


def environment() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    # a checkout that is not a git work tree is identified by src_sha256
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.split()
        commit = commit if Path(top).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = None
    src_files = [p for p in SRC.rglob("*")
                 if p.is_file() and "__pycache__" not in p.parts]
    return {
        "commit": commit,
        "src_sha256": digest(src_files),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ----------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bootparse" / "cli.py").is_file():
        print(f"bench: no bootparse sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = stage_env()
    record = environment()
    record["threads"] = {k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                              "MKL_NUM_THREADS")}
    record["loadavg_1m_before"] = os.getloadavg()[0]

    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir, env)
    tally = Tally()
    notes: dict = {}
    try:
        setup_s = setup(workload, args.seed, runner, tally, notes,
                        repeats=1 if args.trace else SETUP_REPEATS)
        if args.trace:
            plain = run_pipeline(workload, runner, tally)
            counters = loop_counters(workdir, plain, workload.config)
            spans_dir = workdir / "spans"
            spans_dir.mkdir()
            traced = run_pipeline(workload, runner, tally, spans_dir=spans_dir)
            check_determinism([plain, traced], tally)
            spans, imports = merge_spans(spans_dir)
            for name in REQUIRED_SPANS:
                tally.check(spans.get(name, {}).get("calls", 0) > 0,
                            f"traced span {name} recorded no calls")
            metrics = per_layer(plain, traced, spans, imports, counters)
            split = layer_split(plain, traced, spans)
            notes["layer_split"] = split
            notes["dominant"] = workload.dominant
            notes["split_confirmed"] = max(split, key=split.get) == workload.dominant
            pipes = [plain]
        else:
            pipes = []
            start = time.perf_counter()
            while True:
                pipes.append(run_pipeline(workload, runner, tally, DECODE_REPEATS))
                spent = time.perf_counter() - start
                if spent + spent / len(pipes) > args.seconds:
                    break
            check_determinism(pipes, tally)
            metrics = end_to_end(workdir, setup_s, pipes)
            notes["pipelines"] = len(pipes)
            notes["loop_counters"] = loop_counters(workdir, pipes[0], workload.config)
        notes["wall_s"] = {name: pipes[0].wall([name]) for name in pipes[0].stages}
        notes["calibration_loop_s"] = statistics.median(runner.calibrations)
        if args.seed == 0:
            f1s = [p.f1 for p in pipes]
            tally.check(all(f is not None and round(f, 4) == workload.f1_seed0
                            for f in f1s),
                        f"seed 0 F1 {f1s} is not {workload.f1_seed0}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    record["loadavg_1m_after"] = os.getloadavg()[0]
    units = END_TO_END if not args.trace else {k: unit_of(k) for k in metrics}
    print(f"bench env {json.dumps(record, sort_keys=True)}")
    print(f"bench {workload.name} seed={args.seed} trace={args.trace} "
          f"{json.dumps(notes, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'error_rate':<32} {error_rate:>14.6g} ratio "
          f"({tally.failed}/{tally.attempted} operations failed)")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
