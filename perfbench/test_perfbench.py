"""The benchmark's own tests: small instances whose exact counts must repeat.

Each workload runs on a depth-3 tree (15 peers) for a fixed number of
cycles instead of a time budget.  Every run must pass all of its output
checks with no failed operation, and two runs on the same seed must give
identical exact counts.  Run from the repository root with
``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from workloads import END_TO_END, PER_LAYER, WORKLOADS, Recorder, Settings, run_workload

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _run(name: str, seed: int, *, trace: bool, cycles: int) -> dict[str, float]:
    recorder = Recorder()
    settings = Settings(seed=seed, seconds=60.0, trace=trace, depth=3, cycles=cycles)
    metrics = run_workload(name, settings, recorder)
    assert recorder.failed == 0, recorder.errors
    assert recorder.checks and all(recorder.checks.values()), recorder.checks
    assert set(metrics) == set(PER_LAYER if trace else END_TO_END)
    return metrics


def _repeat(name: str, seed: int, *, trace: bool, cycles: int, exact: tuple[str, ...]):
    first = _run(name, seed, trace=trace, cycles=cycles)
    second = _run(name, seed, trace=trace, cycles=cycles)
    for metric in exact:
        assert first[metric] > 0, metric
        assert first[metric] == second[metric], metric


@pytest.mark.parametrize("seed", [1, 2])
def test_cold_tree_counts_repeat_exactly(seed):
    _repeat(
        "cold-tree", seed, trace=False, cycles=2,
        exact=("update_messages", "update_bytes"),
    )
    _repeat(
        "cold-tree", seed, trace=True, cycles=2,
        exact=("core.answer_rows", "core.answer_rows_new", "network.deliveries"),
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_warm_socket_counts_repeat_exactly(seed, monkeypatch):
    # The shard hosts inherit the environment: fixed hashing makes their
    # set iteration, and so the pickled payload sizes, repeat.
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    _repeat(
        "warm-socket", seed, trace=True, cycles=10,
        exact=(
            "incremental.seed_rows",
            "incremental.rows_derived",
            "sharding.collect_bytes",
            "sharding.runs_incremental",
            "sharding.runs_naive",
        ),
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_serve_pooled_checks_pass(seed):
    metrics = _run("serve-pooled", seed, trace=False, cycles=10)
    assert metrics["insert_update_p50_ms"] > 0
    assert metrics["naive_update_p50_ms"] > 0


def test_benchmark_json_matches_the_metric_tables():
    document = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == PER_LAYER
