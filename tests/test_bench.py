"""The benchmark harness under bench/ against the program it measures.

A traced benchmark run fails when a function it times is renamed or
leaves the CLI path, and the quickstart workload stands for the README
quick start and the acceptance suite's profile; these tests catch a
drift in either without running the benchmark.  They read bench/ and
write nothing there.
"""

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from bootparse.config import config_from_dict, synthetic_profile

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

# Installs bench/trace_stage.py's tracer and prints the names it wrapped
# and bench/run.py's REQUIRED_SPANS; in a process of its own, since the
# tracer replaces functions module-wide, and with PYTHONDONTWRITEBYTECODE,
# so that no __pycache__ appears under bench/.
TRACED_NAMES = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run, trace_stage
tracer = trace_stage.Tracer()
trace_stage.install(tracer)
print(json.dumps({"required": run.REQUIRED_SPANS, "wrapped": sorted(tracer.stats)}))
"""


def test_tracer_wraps_every_required_span():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_NAMES, str(BENCH)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout)
    assert names["required"]
    assert sorted(set(names["required"]) - set(names["wrapped"])) == []


def bench_constant(name: str):
    """The literal that bench/run.py assigns to name, read without running it."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    (value,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [target.id for target in node.targets if isinstance(target, ast.Name)] == [name]
    )
    return ast.literal_eval(value)


def test_readme_quick_start_config_is_the_benchmark_config():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    config = re.search(r"cat > config\.json <<'EOF'\n(.*?)\nEOF\n", quick_start, re.S)
    assert json.loads(config.group(1)) == bench_constant("QUICKSTART_CONFIG")


def test_synthetic_profile_is_the_benchmark_recipe():
    # the acceptance suite runs synthetic_profile, the benchmark and the
    # F1 pins run QUICKSTART_CONFIG: one recipe, but for the file paths
    bench = config_from_dict(bench_constant("QUICKSTART_CONFIG"))
    profile = synthetic_profile(0)
    assert dataclasses.replace(bench, paths=profile.paths) == profile


def test_traced_pipeline_records_every_required_span(tmp_path):
    # every CLI stage the benchmark traces, on a small corpus with
    # heuristics on: a name in REQUIRED_SPANS that no stage calls any
    # more fails here, not only in a traced benchmark run
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONDONTWRITEBYTECODE": "1"}

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True,
            timeout=120, env=env,
        )
        assert proc.returncode == 0, (argv, proc.stderr)

    run("-m", "bootparse.cli", "synth", "--out", "corpus.txt", "--gold", "gold.txt",
        "--count", "60")
    config = bench_constant("QUICKSTART_CONFIG")
    config["self_train"]["K"] = config["co_train"]["K"] = 1
    config["training"]["epochs"] = 2
    config["heuristics"]["enabled"] = True
    (tmp_path / "config.json").write_text(json.dumps(config))
    calls = Counter()
    for stage in (
        ["bootstrap"], ["train"], ["selftrain"], ["cotrain"],
        ["parse", "--input", "corpus.txt", "--out", "pred.txt", "--stage", "co"],
        ["eval", "--pred", "pred.txt", "--baselines", "--oracle"],
        ["report"],
    ):
        run(str(BENCH / "trace_stage.py"), "spans.json", "--", *stage, "--config", "config.json")
        spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
        calls.update({name: span["calls"] for name, span in spans.items()})
    required = bench_constant("REQUIRED_SPANS")
    assert required
    assert [name for name in required if not calls[name]] == []
