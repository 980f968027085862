"""The benchmark's own tests: checker, tracing wrappers, metric names, determinism."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import bench
from checks import PAGERANK_RTOL, PHP_ATOL, OutputChecker, compare, same_partition
from hosttrace import LAYER_TARGETS, LAYERS, HostTrace
from workloads import ClusterFailover, GridSolo, ReplayServe, mixed_trace

from repro.bench.workloads import build_workload
from repro.obs import validate_chrome_trace
from repro.systems import make_system

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture(scope="module")
def outputs():
    """Served values of every algorithm on a small stand-in, with references."""
    checker = OutputChecker()
    served = {}
    for algorithm in ("bfs", "sssp", "cc", "pagerank", "php"):
        workload = build_workload("SK", algorithm, scale=0.05)
        system = make_system("hytgraph", workload.graph, config=workload.config)
        values = system.run(workload.program, workload.source).values
        key = "SK@0.05/%s" % algorithm
        assert checker.problem(key, workload.graph, algorithm, workload.source, values) is None
        expected = checker._references[(key, algorithm, workload.source)]
        served[algorithm] = (values, expected)
    return served


def test_checker_accepts_unchanged_outputs_and_relabelled_components(outputs):
    for algorithm, (values, expected) in outputs.items():
        assert compare(algorithm, values.copy(), expected) is None, algorithm
    labels, expected = outputs["cc"]
    relabelled = labels * 7.0 + 3.0
    assert compare("cc", relabelled, expected) is None


@pytest.mark.parametrize("algorithm", ["bfs", "sssp", "pagerank", "php"])
def test_checker_rejects_one_corrupted_value(outputs, algorithm):
    values, expected = outputs[algorithm]
    corrupted = values.copy()
    vertex = int(np.flatnonzero(np.isfinite(corrupted) & (corrupted > 0))[0])
    if algorithm in ("bfs", "sssp"):
        corrupted[vertex] = np.nextafter(corrupted[vertex], np.inf)
    elif algorithm == "pagerank":
        corrupted[vertex] *= 1.0 + 2 * PAGERANK_RTOL
    else:
        corrupted[vertex] += 2 * PHP_ATOL
    assert compare(algorithm, corrupted, expected) is not None


def test_checker_rejects_a_reachable_vertex_reported_unreachable(outputs):
    values, expected = outputs["bfs"]
    corrupted = values.copy()
    corrupted[int(np.flatnonzero(np.isfinite(corrupted) & (corrupted > 0))[0])] = np.inf
    assert compare("bfs", corrupted, expected) is not None


def test_checker_rejects_a_merged_component(outputs):
    labels, expected = outputs["cc"]
    components = np.unique(labels)
    assert components.size >= 2
    merged = np.where(labels == components[1], components[0], labels)
    assert compare("cc", merged, expected) is not None
    assert not same_partition(merged, labels)


def test_uninstall_restores_every_original_function():
    owners = []
    for _layer, owner_name, attribute in LAYER_TARGETS:
        module_name, _, class_name = owner_name.partition(":")
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        owners.append((owner, attribute, vars(owner)[attribute]))
    trace = HostTrace()
    with trace:
        assert all(vars(owner)[attribute] is not original for owner, attribute, original in owners)
    assert all(vars(owner)[attribute] is original for owner, attribute, original in owners)


def test_simulated_metrics_identical_before_during_and_after_tracing():
    workload = ReplayServe(seed=3, count=60)
    before = workload.run_pass(workload.setup())
    trace = HostTrace()
    with trace:
        traced = trace.span("bench.pass", workload.run_pass, trace.span("bench.setup", workload.setup))
    after = workload.run_pass(workload.setup())
    assert before.sim == traced.sim == after.sim
    table = trace.layer_table()
    assert table["core.engine.plan"]["calls"] > 0 and table["service.step"]["calls"] > 0
    total_self = sum(row["self_s"] for row in table.values())
    roots = table["bench.setup"]["s"] + table["bench.pass"]["s"]
    assert total_self == pytest.approx(roots, rel=1e-9)
    assert validate_chrome_trace(trace.chrome_trace(run_id=0)) == []


def test_same_seed_same_simulation_different_seed_different_trace():
    first = ReplayServe(seed=5, count=60)
    again = ReplayServe(seed=5, count=60)
    other = ReplayServe(seed=6, count=60)
    assert first.run_pass(first.setup()).sim == again.run_pass(again.setup()).sim

    def arrivals(workload):
        graph = workload.setup()[0].graph
        return [(r.arrival_s, r.algorithm, r.source) for r in mixed_trace(graph, 60, workload.RATE, workload.seed)]

    assert arrivals(first) == arrivals(again)
    assert arrivals(first) != arrivals(other)
    grid_a, grid_b = GridSolo(seed=1, scale=0.02, datasets=("SK",)), GridSolo(seed=2, scale=0.02, datasets=("SK",))
    sources = [[source for _cell, source in grid.setup()[1]] for grid in (grid_a, grid_b)]
    assert sources[0] != sources[1]


def test_cluster_replicas_run_two_devices_with_the_lru_cache():
    workload = ClusterFailover(seed=1, count=40)
    workload.calibrate()
    _, cluster = workload.setup()
    for replica in cluster.replicas:
        assert replica.system.config.num_devices == 2
        assert replica.system.context.cache_policy == "lru"
    result = workload.run_pass((_, cluster))
    assert result.problems == []
    assert result.sim["faults.injected"] >= 1


def _benchmark_names(section: str) -> dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


@pytest.mark.parametrize("traced", [False, True])
def test_every_printed_metric_is_named_in_benchmark_json(monkeypatch, capsys, traced):
    monkeypatch.setattr(bench, "MIN_CALLS", 1)
    monkeypatch.setattr(bench, "MIN_PASSES", 1)
    monkeypatch.setitem(bench.WORKLOADS, "replay-serve", lambda seed: ReplayServe(seed, count=30))
    code = bench.main(["--workload", "replay-serve", "--seed", "1", "--seconds", "0", "--trace", str(int(traced))])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = _benchmark_names("per_layer" if traced else "end_to_end")
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == names


def test_layer_names_cover_every_wrapped_target():
    assert set(LAYERS) >= {layer for layer, _, _ in LAYER_TARGETS}
    assert set(bench.per_layer_units()) == set(_benchmark_names("per_layer"))
