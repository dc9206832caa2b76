"""The paper's left-branching setting, on a grammar whose trees lean left.

data/head_final_grammar.json is the bundled synth grammar with every
right-hand side reversed and the lexicon unchanged.  With seeds.branching
"left" and the README quick-start config otherwise, co-training must
beat the seed parser and the left-branching baseline.  The seed parser
itself only ties that baseline (within 0.01 F1 on every corpus below),
so no win is asserted for it.

The margins come from 1,000-sentence corpora of synth seeds 0 to 5,
which gave, as seed / co / left-branching F1: 0.6167 / 0.7042 / 0.6109,
0.6342 / 0.7293 / 0.6265, 0.6259 / 0.6909 / 0.6230, 0.6273 / 0.7067 /
0.6223, 0.6385 / 0.6737 / 0.6321 and 0.6161 / 0.6590 / 0.6129.  So co
beat seed by 0.035 to 0.095 and left-branching by 0.042 to 0.103; the
test runs synth seed 0, the default, and asserts half the smallest gap.
"""

import json
from pathlib import Path

from bootparse.cli import main
from bootparse.config import EvalConfig
from bootparse.evaluation import LEFT, trivial_baselines
from bootparse.treebank import read_treebank

GRAMMAR = Path(__file__).parent / "data" / "head_final_grammar.json"
MARGIN = 0.0175

QUICKSTART = {
    "rng_seed": 0,
    "seeds": {"casing_augmentation": True, "branching": "left"},
    "self_train": {"K": 2, "c": 0, "d": 1200, "tau_min": 0.005,
                   "tau_max": 0.9, "pool_cap": 1000, "accumulate": True},
    "co_train": {"K": 3, "c": 0, "d": 2400, "tau_min": 0.1,
                 "tau_max": 0.9, "pool_cap": 1000},
    "training": {"epochs": 30, "l2": 1e-6},
    "heuristics": {"enabled": False},
}


def _stage_f1(root: Path, cfg: Path, stage: str) -> float:
    pred = root / f"pred_{stage}.txt"
    argv = ["parse", "--config", str(cfg), "--stage", stage,
            "--input", str(root / "corpus.txt"), "--out", str(pred)]
    assert main(argv) == 0
    assert main(["eval", "--config", str(cfg), "--pred", str(pred)]) == 0
    return json.loads((root / "reports" / "report.json").read_text())["f1"]


def test_left_seeds_on_a_head_final_grammar(tmp_path):
    corpus, gold, cfg = (tmp_path / name for name in ("corpus.txt", "gold.txt", "config.json"))
    paths = {"corpus": str(corpus), "gold": str(gold), "model_dir": str(tmp_path / "models"),
             "report_dir": str(tmp_path / "reports")}
    cfg.write_text(json.dumps({"paths": paths, **QUICKSTART}))
    assert main(["synth", "--grammar", str(GRAMMAR), "--out", str(corpus),
                 "--gold", str(gold), "--count", "1000"]) == 0
    for stage in ("bootstrap", "train", "selftrain", "cotrain"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    seed = _stage_f1(tmp_path, cfg, "seed")
    co = _stage_f1(tmp_path, cfg, "co")
    left = trivial_baselines(read_treebank(gold), LEFT, EvalConfig()).f1
    assert co > seed + MARGIN, (seed, co)
    assert co > left + MARGIN, (left, co)
