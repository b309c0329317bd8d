"""The committed ``BENCH_*.json`` files agree with their own runs.

Each file holds alternating parent/change pairs per workload. For every
workload block (any object with ``metrics`` of per-run lists) and every
metric, the pair count, the medians and the count of pairs the change won
must follow from the runs, with a win's direction as ``BENCHMARK.json``
gives it.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def directions() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def workload_blocks(node, path=()):
    """``(path, block)`` for every object below ``node`` whose ``metrics``
    hold per-run lists."""
    if isinstance(node, dict):
        metrics = node.get("metrics")
        if isinstance(metrics, dict) and all(
                isinstance(m, dict) and "parent_runs" in m
                for m in metrics.values()):
            yield path, node
            return
        for key, value in node.items():
            yield from workload_blocks(value, (*path, key))


def test_every_file_has_workloads():
    assert BENCH_FILES
    for f in BENCH_FILES:
        assert list(workload_blocks(json.loads(f.read_text()))), f.name


@pytest.mark.parametrize("bench", BENCH_FILES, ids=lambda f: f.name)
def test_pairs_medians_and_wins_follow_from_the_runs(bench):
    better = directions()
    checked = 0
    for path, block in workload_blocks(json.loads(bench.read_text())):
        for name, m in block["metrics"].items():
            where = (*path, name)
            parent, change = m["parent_runs"], m["change_runs"]
            assert block["pairs"] == len(parent) == len(change), where
            assert m["parent_median"] == pytest.approx(
                statistics.median(parent), abs=1e-6), where
            assert m["change_median"] == pytest.approx(
                statistics.median(change), abs=1e-6), where
            lower = better[name] == "lower"
            wins = sum(c < p if lower else c > p
                       for p, c in zip(parent, change))
            assert m["change_better_pairs"] == wins, where
            checked += 1
    assert checked
