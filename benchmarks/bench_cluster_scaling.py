"""Cluster-scaling benchmark: aggregate qps from 1x2 to 4x2 GPUs.

Streams one saturated seeded mixed trace through
:class:`~repro.cluster.ClusterService` deployments of 1, 2 and 4
simulated hosts (2 GPUs each) behind the consistent-hash router, and
reports the aggregate simulated queries/s curve.  Two acceptance bars
are *asserted*, not just reported:

* **Scaling** — the 4x2 deployment must sustain at least 2.5x the
  aggregate qps of the 1x2 baseline, with sampled per-query values
  bitwise equal to solo single-host runs (routing changes placement,
  never semantics).
* **Failover** — the same 4x2 replay with one host lost at the
  midpoint cluster wave must complete every admitted query (the loss
  causes zero ``QueryFailed``) at no more than 25% makespan overhead
  over the fault-free run, queries still bitwise.

All latencies are simulated seconds out of the deterministic cost
model, so runs reproduce exactly for a given seed and the CI gate holds
them to a tight tolerance.

**Cluster gate.**  ``--check-against REF.json`` compares each
deployment's aggregate qps (floor: ``reference * (1 - tolerance)``),
the 4-host speedup (floor: ``reference - tolerance``) and the host-loss
makespan overhead (ceiling: ``reference + tolerance``) against a
payload of the same shape, failing with exit code 1 on regression.
``--inject-latency F`` divides the measured qps by ``F`` before the
comparison to validate that the gate actually fires.

Usage::

    python benchmarks/bench_cluster_scaling.py             # full run
    python benchmarks/bench_cluster_scaling.py --smoke     # 10^4-query CI smoke
    python benchmarks/bench_cluster_scaling.py --smoke \
        --check-against benchmarks/BENCH_cluster_smoke.json --tolerance 0.2
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.bench.workloads import build_workload
from repro.cluster import ClusterConfig, ClusterService
from repro.service import ReplayHarness, ServiceConfig, timed_mixed_trace

GPUS_PER_HOST = 2
HOST_CURVE = (1, 2, 4)
SPEEDUP_FLOOR = 2.5
LOSS_OVERHEAD_CEILING = 0.25


def build_cluster(workload, hosts: int, network: str, *, faults=None) -> ClusterService:
    """A fresh ``hosts`` x ``GPUS_PER_HOST`` cluster over the workload."""
    config = ClusterConfig(
        hosts=hosts,
        gpus_per_host=GPUS_PER_HOST,
        network=network,
        service=ServiceConfig(system="hytgraph", faults=faults),
    )
    return ClusterService.for_workload(workload, "hytgraph", config=config)


def replay_once(workload, hosts: int, count: int, seed: int, network: str, *, faults=None):
    """One saturated replay; returns ``(report, cluster)``.

    The arrival rate is effectively infinite so every makespan is
    service-bound, not arrival-bound — otherwise adding hosts could
    never shorten the replay and the curve would be flat by
    construction.
    """
    cluster = build_cluster(workload, hosts, network, faults=faults)
    # A deep lookahead keeps every replica's waves large: per-wave fixed
    # costs (partition residency transfers) amortize the same way on
    # every deployment size, so the curve measures replication, not
    # batching decay.
    harness = ReplayHarness(cluster, lookahead=1024, verify_sample=10, seed=seed)
    report = harness.replay(timed_mixed_trace(workload.graph, count, rate=1e9, seed=seed))
    return report, cluster


def run_scaling(workload, count: int, seed: int, network: str) -> dict:
    """The qps curve over the host counts; asserts the 4x speedup bar."""
    print("== scaling: %d queries, hosts x %d GPUs over %s ==" % (count, GPUS_PER_HOST, network))
    curve = {}
    waves = {}
    for hosts in HOST_CURVE:
        report, cluster = replay_once(workload, hosts, count, seed, network)
        assert report.completed == report.queries, (
            "%d-host replay dropped queries: %d of %d completed"
            % (hosts, report.completed, report.queries)
        )
        assert report.verified_bitwise is True, (
            "%d-host replay diverged bitwise from solo runs" % hosts
        )
        counters = cluster.router.counters()
        print(
            "  hosts=%d  %6d queries in %8.3f simulated s -> %8.0f q/s "
            "(%d affinity, %d spills; wall %.1f s)"
            % (
                hosts, report.completed, report.makespan_s,
                report.queries_per_second, counters["affinity_hits"],
                counters["spills"], report.wall_s,
            )
        )
        payload = report.as_dict()
        payload["hosts"] = hosts
        payload["router"] = counters
        curve["hosts%d" % hosts] = payload
        waves[hosts] = cluster._steps
    speedup = (
        curve["hosts4"]["queries_per_second"] / curve["hosts1"]["queries_per_second"]
    )
    print("  4-host speedup over 1 host: %.2fx" % speedup)
    assert speedup >= SPEEDUP_FLOOR, (
        "4x%d GPUs must sustain >= %.1fx the 1x%d aggregate qps; measured %.2fx"
        % (GPUS_PER_HOST, SPEEDUP_FLOOR, GPUS_PER_HOST, speedup)
    )
    return {"curve": curve, "speedup_4x": speedup, "cluster_waves": waves}


def run_host_loss(workload, count: int, seed: int, network: str, fault_free_waves: int) -> dict:
    """Lose one host at the midpoint wave of the 4x2 replay."""
    midpoint = max(1, fault_free_waves // 2)
    print(
        "== host loss: 4x%d GPUs, host 3 lost at cluster wave %d (midpoint of %d) =="
        % (GPUS_PER_HOST, midpoint, fault_free_waves)
    )
    baseline, _ = replay_once(workload, 4, count, seed, network)
    faults = "host-loss@%d:host=3" % midpoint
    report, cluster = replay_once(workload, 4, count, seed, network, faults=faults)

    admitted = report.queries - report.rejected
    assert report.failed == 0 and report.cancelled == 0, (
        "the host loss failed queries: %d failed, %d cancelled"
        % (report.failed, report.cancelled)
    )
    assert report.completed == admitted, (
        "host-loss replay dropped queries: %d of %d admitted completed"
        % (report.completed, admitted)
    )
    assert report.verified_bitwise is True, (
        "host-loss replay diverged bitwise from solo runs"
    )
    assert cluster.alive_hosts() == [0, 1, 2]
    overhead = report.makespan_s / baseline.makespan_s - 1.0
    print(
        "  %d migrated (%.3f MB shipped, %.6f s on the %s fabric); "
        "makespan %.3f s vs %.3f s fault-free (%.1f%% overhead)"
        % (
            cluster.router.failovers, cluster.shipped_bytes / 1e6,
            cluster.ship_time_s, network, report.makespan_s,
            baseline.makespan_s, 100.0 * overhead,
        )
    )
    assert overhead <= LOSS_OVERHEAD_CEILING, (
        "losing one of four hosts at the midpoint must cost <= %.0f%% makespan; "
        "measured %.1f%%" % (100 * LOSS_OVERHEAD_CEILING, 100 * overhead)
    )
    payload = report.as_dict()
    payload["midpoint_wave"] = midpoint
    payload["migrated"] = cluster.router.failovers
    payload["shipped_bytes"] = cluster.shipped_bytes
    payload["ship_time_s"] = cluster.ship_time_s
    payload["fault_free_makespan_s"] = baseline.makespan_s
    payload["makespan_overhead"] = overhead
    payload["events"] = cluster.events
    return payload


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------


def _gate_rows(payload) -> dict[str, float]:
    """The scalar rows the gate compares (qps floors, overhead ceiling)."""
    rows = {}
    for name, deployment in payload.get("scaling", {}).get("curve", {}).items():
        rows["qps:%s" % name] = float(deployment["queries_per_second"])
    if "speedup_4x" in payload.get("scaling", {}):
        rows["speedup_4x"] = float(payload["scaling"]["speedup_4x"])
    if "makespan_overhead" in payload.get("host_loss", {}):
        rows["loss_overhead"] = float(payload["host_loss"]["makespan_overhead"])
    return rows


def check_regressions(current, reference, tolerance) -> list[str]:
    """Hold qps and speedup to floors, the loss overhead to a ceiling."""
    current_rows = _gate_rows(current)
    reference_rows = _gate_rows(reference)
    comparable = sorted(set(current_rows) & set(reference_rows))
    if not comparable:
        return ["no comparable cluster phases between run and reference"]
    failures = []
    print("== cluster gate (tolerance %.0f%%) ==" % (tolerance * 100))
    for name in comparable:
        value = current_rows[name]
        ref = reference_rows[name]
        if name == "loss_overhead":
            bound = ref + tolerance
            ok = value <= bound
            kind = "ceiling"
        elif name == "speedup_4x":
            bound = ref - tolerance
            ok = value >= bound
            kind = "floor"
        else:
            bound = ref * (1.0 - tolerance)
            ok = value >= bound
            kind = "floor"
        print(
            "  %-14s %10.3f (ref %10.3f, %s %10.3f) %s"
            % (name, value, ref, kind, bound, "ok" if ok else "REGRESSION")
        )
        if not ok:
            failures.append(
                "%s: %.3f breaches the %s %.3f (reference %.3f, tolerance %.0f%%)"
                % (name, value, kind, bound, ref, tolerance * 100)
            )
    return failures


def _inject_latency(payload, factor: float) -> None:
    """Degrade the payload in place (gate-validation knob)."""
    for deployment in payload.get("scaling", {}).get("curve", {}).values():
        deployment["makespan_s"] = float(deployment["makespan_s"]) * factor
        deployment["queries_per_second"] = (
            float(deployment["queries_per_second"]) / factor
        )
    if "host_loss" in payload:
        payload["host_loss"]["makespan_overhead"] = (
            float(payload["host_loss"]["makespan_overhead"]) * factor + (factor - 1.0)
        )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--smoke", action="store_true",
                        help="10^4-query CI smoke run instead of the full 10^5")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--queries", type=int, default=None,
                        help="override the per-deployment query count")
    parser.add_argument("--network", default="tcp",
                        help="network preset for the fabric (default tcp)")
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the JSON payload "
                             "(default: BENCH_cluster[_smoke].json in the repo root)")
    parser.add_argument("--check-against", type=Path, default=None, metavar="REF.json",
                        help="fail (exit 1) when qps/speedup/loss-overhead regress "
                             "beyond the tolerance vs this reference")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="relative qps floor / absolute speedup+overhead "
                             "margin (default 0.2)")
    parser.add_argument("--inject-latency", type=float, default=None, metavar="F",
                        help="degrade measured qps by F before the gate "
                             "comparison (validates that the gate fires)")
    args = parser.parse_args()
    if args.check_against is not None and not args.check_against.is_file():
        # Fail before the run, not after it: a gate without its reference
        # checks nothing.
        raise SystemExit("reference file not found: %s" % args.check_against)

    graph_scale = 0.02 if args.smoke else 0.05
    count = args.queries or (10_000 if args.smoke else 100_000)

    started = time.perf_counter()
    workload = build_workload("SK", "sssp", scale=graph_scale)
    print(
        "cluster replay on SK scale=%g (%d vertices, %d edges), %s fabric"
        % (
            graph_scale, workload.graph.num_vertices,
            workload.graph.num_edges, args.network,
        )
    )
    scaling = run_scaling(workload, count, args.seed, args.network)
    host_loss = run_host_loss(
        workload, count, args.seed, args.network, scaling["cluster_waves"][4]
    )

    payload = {
        "benchmark": "cluster_scaling",
        "smoke": args.smoke,
        "seed": args.seed,
        "network": args.network,
        "gpus_per_host": GPUS_PER_HOST,
        "graph": {
            "dataset": "SK",
            "scale": graph_scale,
            "vertices": workload.graph.num_vertices,
            "edges": workload.graph.num_edges,
        },
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "scaling": scaling,
        "host_loss": host_loss,
    }
    payload["wall_s"] = time.perf_counter() - started

    if args.inject_latency is not None:
        print("injecting %gx latency into the payload (gate validation)" % args.inject_latency)
        _inject_latency(payload, args.inject_latency)

    output = args.output or (
        Path(__file__).resolve().parent.parent
        / ("BENCH_cluster_smoke.json" if args.smoke else "BENCH_cluster.json")
    )
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print("wrote %s (total wall %.1f s)" % (output, payload["wall_s"]))

    if args.check_against is not None:
        reference = json.loads(args.check_against.read_text())
        failures = check_regressions(payload, reference, args.tolerance)
        if failures:
            for failure in failures:
                print("GATE FAILURE: %s" % failure)
            raise SystemExit(1)
        print("cluster gate passed")


if __name__ == "__main__":
    main()
