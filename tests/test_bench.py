"""The benchmark harness under bench/ against the program it measures.

A traced benchmark run fails when a function it times is renamed, and
the quickstart workload stands for the README quick start; these tests
catch a drift in either without running the benchmark.  They read bench/
and write nothing there.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_readme_quick_start_config_is_the_benchmark_config():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    config = re.search(r"cat > config\.json <<'EOF'\n(.*?)\nEOF\n", quick_start, re.S)
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    (bench_config,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [target.id for target in node.targets if isinstance(target, ast.Name)]
        == ["QUICKSTART_CONFIG"]
    )
    assert json.loads(config.group(1)) == ast.literal_eval(bench_config)
