"""Tests of the benchmark itself: seeded inputs and the metric list.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from superatom.cli import main as cli_main  # noqa: E402

import run  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

TIMESTAMP = re.compile(rb'\n  "timestamp": "[^"]*",')


def _configs(workload, seed):
    return [e.config_text().encode() for e in make_workload(workload, seed)]


def _outputs(workload, seed, out: Path) -> dict:
    """Every file the program writes for this seed, timestamp removed."""
    files = {}
    out.mkdir()
    for exp in make_workload(workload, seed):
        cfg = out / f"{exp.label}.cfg"
        cfg.write_text(exp.config_text())
        assert cli_main([exp.experiment, "--config", str(cfg),
                         "--out", str(out / exp.label), "--workers", "1"]) == 0
        for path in sorted((out / exp.label).iterdir()):
            files[f"{exp.label}/{path.name}"] = TIMESTAMP.sub(b"", path.read_bytes())
    return files


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_configs(workload):
    assert _configs(workload, 7) == _configs(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seeds_different_grids(workload):
    # the seeded choices come from finite lattices, so two seeds may collide;
    # ten seeds must still give several different inputs
    distinct = {tuple(_configs(workload, seed)) for seed in range(10)}
    assert len(distinct) >= 4


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_outputs(workload, tmp_path):
    first = _outputs(workload, 3, tmp_path / "a")
    second = _outputs(workload, 3, tmp_path / "b")
    assert any(name.endswith("summary.json") for name in first)
    assert first == second


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
