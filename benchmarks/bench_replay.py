"""Trace-replay benchmark: time-aware serving at 10^4-10^5+ query scale.

Streams seeded arrival-stamped query traces through
:class:`~repro.service.GraphService` via the
:class:`~repro.service.replay.ReplayHarness` and reports what a serving
deployment would ask of the stack:

* **Scale** — one saturated mixed replay of 10^5 queries (10^4 under
  ``--smoke``), streamed without materializing the trace or its
  results; reports per-class p50/p95/p99 latency, SLA attainment and
  simulated queries/s, and bitwise-verifies a seeded sample of served
  results against solo ``system.run`` calls.
* **Preemption** — the same saturated BULK-heavy trace served twice,
  with and without super-iteration-boundary BULK preemption, holding
  everything else fixed.  The run *asserts* the PR's acceptance bars:
  INTERACTIVE p95 with preemption at least 1.5x better than
  non-preemptive priority scheduling, BULK completion (simulated
  makespan of the last BULK query) within 15% of the non-preemptive
  run, and served values bitwise equal to solo runs in both modes.
* **Regimes** — the same mix replayed under-loaded (0.3x the measured
  batched capacity), saturated (1x) and overloaded (3x, with a byte
  budget and ``reject`` admission), showing queue-wait growth, SLA
  decay and the rejection breakdown under hard back-pressure.

All latencies are *simulated* seconds out of the deterministic cost
model, so runs are exactly reproducible for a given seed and the CI
gate can hold them to a tight tolerance; wall-clock speed of the runner
cancels out.

**Replay gate.**  ``--check-against REF.json`` compares the run's
INTERACTIVE p95 latency and SLA attainment per regime (and the scale
phase) against a reference payload of the same shape and fails with
exit code 1 when p95 grows beyond ``reference * (1 + tolerance)`` or
attainment drops by more than the tolerance.  ``--inject-latency F``
multiplies the measured per-class latencies by ``F`` before the
comparison to validate that the gate actually fires.

Usage::

    python benchmarks/bench_replay.py              # full run (>= 10^5 queries)
    python benchmarks/bench_replay.py --smoke      # 10^4-query CI smoke run
    python benchmarks/bench_replay.py --smoke \
        --check-against benchmarks/BENCH_replay_smoke.json --tolerance 0.2
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.bench.workloads import build_workload
from repro.service import (
    GraphService,
    Priority,
    QueryRequest,
    ReplayHarness,
    ServiceConfig,
    timed_mixed_trace,
)

GATED_CLASS = "interactive"


# ----------------------------------------------------------------------
# Harness plumbing
# ----------------------------------------------------------------------


def build_service(workload, *, preemption=False, budget=None, policy="queue"):
    """A fresh service over the benchmark workload (default HyTGraph)."""
    config = ServiceConfig(
        system="hytgraph",
        preemption=preemption,
        admission_budget_bytes=budget,
        admission_policy=policy,
    )
    return GraphService(config, graph=workload.graph, hardware=workload.config)


def calibrate_capacity(workload, seed: int, probe: int = 400) -> float:
    """Batched serving capacity in queries per simulated second.

    Replays a short probe trace whose arrivals are effectively all at
    t~0 (a huge rate), so the service batches as hard as it can; the
    resulting completed/makespan ratio is the saturation throughput the
    regime rates are expressed against.
    """
    service = build_service(workload)
    harness = ReplayHarness(service, lookahead=256)
    report = harness.replay(
        timed_mixed_trace(workload.graph, probe, rate=1e9, seed=seed)
    )
    if report.queries_per_second <= 0:
        raise SystemExit("capacity probe served nothing; graph too small?")
    return report.queries_per_second


def replay_once(
    workload,
    count: int,
    rate: float,
    seed: int,
    *,
    preemption: bool = False,
    budget=None,
    policy: str = "queue",
    sla_s: float | None = None,
    bulk_fraction: float = 0.02,
    verify_sample: int = 0,
    lookahead: int = 256,
):
    """One full streamed replay of the seeded mix; returns the report."""
    service = build_service(workload, preemption=preemption, budget=budget, policy=policy)
    harness = ReplayHarness(
        service, lookahead=lookahead, verify_sample=verify_sample, seed=seed
    )
    return harness.replay(
        timed_mixed_trace(
            workload.graph,
            count,
            rate,
            seed=seed,
            bulk_fraction=bulk_fraction,
            interactive_sla_s=sla_s,
        )
    )


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


def run_scale(workload, count: int, capacity: float, seed: int) -> dict:
    """The headline phase: a saturated replay of ``count`` queries."""
    print("== scale: %d queries at saturation (%.0f q/s) ==" % (count, capacity))
    sla_s = 200.0 / capacity
    report = replay_once(
        workload, count, capacity, seed, sla_s=sla_s, verify_sample=10
    )
    assert report.completed == report.queries, (
        "scale replay dropped queries: %d of %d completed"
        % (report.completed, report.queries)
    )
    assert report.verified_bitwise is True, (
        "served values diverged bitwise from solo runs in the scale replay"
    )
    row = report.classes.get(GATED_CLASS, {})
    print(
        "  completed %d/%d in %.3f simulated s (%.0f q/s, wall %.1f s); "
        "interactive p95 %.6f s, SLA %.1f%%"
        % (
            report.completed, report.queries, report.makespan_s,
            report.queries_per_second, report.wall_s,
            row.get("p95_s", 0.0), 100.0 * row.get("sla_attainment", 1.0),
        )
    )
    payload = report.as_dict()
    payload["sla_s"] = sla_s
    return payload


def run_preemption(workload, count: int, capacity: float, seed: int) -> dict:
    """Preemption on vs off on one saturated BULK-heavy trace.

    Asserts the acceptance bars — this benchmark is the executable
    statement of what the preemption feature must deliver, not just a
    report.
    """
    print("== preemption: on vs off, %d queries, BULK-heavy saturated mix ==" % count)
    # The light-mix `capacity` overstates what a BULK-heavy mix can
    # sustain (analytic scans are far heavier than point lookups); at
    # genuine overload the interactive tail is backlog-dominated, which
    # any work-conserving discipline serves identically.  Probe the
    # BULK-heavy mix's own batched capacity and run the A/B just below
    # its knee, where head-of-line blocking by running scans — the thing
    # preemption removes — is what sets the interactive p95.
    mix_probe = replay_once(
        workload, min(count, 400), 1e9, seed, bulk_fraction=0.10
    )
    rate = 0.8 * mix_probe.queries_per_second
    kwargs = dict(
        rate=rate,
        sla_s=200.0 / capacity,
        bulk_fraction=0.10,
        verify_sample=10,
    )
    off = replay_once(workload, count, seed=seed, preemption=False, **kwargs)
    on = replay_once(workload, count, seed=seed, preemption=True, **kwargs)
    p95_off = off.latency_percentile(GATED_CLASS, 95)
    p95_on = on.latency_percentile(GATED_CLASS, 95)
    improvement = p95_off / p95_on if p95_on > 0 else float("inf")
    bulk_regression = (
        on.bulk_makespan_s / off.bulk_makespan_s if off.bulk_makespan_s > 0 else 1.0
    )
    print(
        "  interactive p95: %.6f s -> %.6f s (%.2fx better with preemption)"
        % (p95_off, p95_on, improvement)
    )
    print(
        "  BULK makespan: %.4f s -> %.4f s (%.1f%% regression), "
        "%d preemption(s) over %d quer(ies)"
        % (
            off.bulk_makespan_s, on.bulk_makespan_s,
            100.0 * (bulk_regression - 1.0), on.preemptions, on.preempted_queries,
        )
    )
    assert on.preemptions > 0, "the BULK-heavy saturated mix never preempted"
    assert improvement >= 1.5, (
        "preemption must improve interactive p95 by >= 1.5x over non-preemptive "
        "priority scheduling; measured %.2fx" % improvement
    )
    assert bulk_regression <= 1.15, (
        "preemption must keep BULK completion within 15%% of the non-preemptive "
        "run; measured %.1f%% regression" % (100.0 * (bulk_regression - 1.0))
    )
    assert off.verified_bitwise is True and on.verified_bitwise is True, (
        "served values diverged bitwise from solo runs"
    )
    return {
        "p95_off_s": p95_off,
        "p95_on_s": p95_on,
        "p95_improvement": improvement,
        "bulk_makespan_off_s": off.bulk_makespan_s,
        "bulk_makespan_on_s": on.bulk_makespan_s,
        "bulk_regression": bulk_regression,
        "preemptions": on.preemptions,
        "preempted_queries": on.preempted_queries,
        "off": off.as_dict(),
        "on": on.as_dict(),
    }


def run_regimes(workload, count: int, capacity: float, seed: int) -> dict:
    """Under-load / saturated / overload behaviour of one mix."""
    print("== regimes: %d queries each at 0.3x / 1x / 3x capacity ==" % count)
    sla_s = 200.0 / capacity
    # Overload gets a hard byte budget with reject admission so the
    # rejection breakdown is visible; the budget is sized off a typical
    # request estimate so a bounded number of queries fits in flight.
    probe = build_service(workload)
    estimate = probe.admission.estimate_request_bytes(
        *probe.submit(QueryRequest(algorithm="pagerank", priority=Priority.BULK))._query
    )
    budget = max(estimate * 4, 1)
    regimes = {}
    for name, factor, admission in (
        ("under_load", 0.3, {}),
        ("saturated", 1.0, {}),
        ("overload", 3.0, {"budget": budget, "policy": "reject"}),
    ):
        report = replay_once(
            workload, count, capacity * factor, seed, sla_s=sla_s, **admission
        )
        row = report.classes.get(GATED_CLASS, {})
        print(
            "  %-10s %5d done, %4d rejected | interactive p50 %.6f p95 %.6f "
            "p99 %.6f s | SLA %.1f%% | %.0f q/s"
            % (
                name, report.completed, report.rejected,
                row.get("p50_s", 0.0), row.get("p95_s", 0.0), row.get("p99_s", 0.0),
                100.0 * row.get("sla_attainment", 1.0), report.queries_per_second,
            )
        )
        payload = report.as_dict()
        payload["rate_factor"] = factor
        regimes[name] = payload
    assert regimes["overload"]["rejected"] > 0, (
        "the overloaded reject-admission regime rejected nothing; budget too high?"
    )
    return {"sla_s": sla_s, "capacity_qps": capacity, "regimes": regimes}


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------


def _gate_rows(payload) -> dict[str, dict]:
    """The (name -> {p95_s, sla_attainment}) rows the gate compares."""
    rows = {}
    scale_row = payload.get("scale", {}).get("classes", {}).get(GATED_CLASS)
    if scale_row:
        rows["scale"] = scale_row
    for name, regime in payload.get("regimes", {}).get("regimes", {}).items():
        row = regime.get("classes", {}).get(GATED_CLASS)
        if row:
            rows["regime:%s" % name] = row
    return rows


def check_regressions(current, reference, tolerance) -> list[str]:
    """Gate the interactive p95 and SLA attainment against a reference.

    Latencies are deterministic simulation outputs, so the tolerance
    absorbs intentional small model changes, not runner noise.  Returns
    the failure strings (empty = gate passes).
    """
    current_rows = _gate_rows(current)
    reference_rows = _gate_rows(reference)
    comparable = sorted(set(current_rows) & set(reference_rows))
    if not comparable:
        return ["no comparable replay phases between run and reference"]
    failures = []
    print("== replay gate (tolerance %.0f%%) ==" % (tolerance * 100))
    for name in comparable:
        p95 = float(current_rows[name]["p95_s"])
        ref_p95 = float(reference_rows[name]["p95_s"])
        ceiling = ref_p95 * (1.0 + tolerance)
        p95_ok = p95 <= ceiling or ref_p95 == 0.0
        sla = float(current_rows[name]["sla_attainment"])
        ref_sla = float(reference_rows[name]["sla_attainment"])
        floor = ref_sla - tolerance
        sla_ok = sla >= floor
        print(
            "  %-16s p95 %.6f s (ref %.6f, ceiling %.6f) %s | SLA %.1f%% "
            "(ref %.1f%%, floor %.1f%%) %s"
            % (
                name, p95, ref_p95, ceiling, "ok" if p95_ok else "REGRESSION",
                100 * sla, 100 * ref_sla, 100 * floor, "ok" if sla_ok else "REGRESSION",
            )
        )
        if not p95_ok:
            failures.append(
                "%s: interactive p95 %.6f s exceeds %.6f s (reference %.6f s + %.0f%%)"
                % (name, p95, ceiling, ref_p95, tolerance * 100)
            )
        if not sla_ok:
            failures.append(
                "%s: SLA attainment %.1f%% fell below %.1f%% (reference %.1f%% - %.0f pts)"
                % (name, 100 * sla, 100 * floor, 100 * ref_sla, tolerance * 100)
            )
    return failures


def _inject_latency(payload, factor: float) -> None:
    """Scale every per-class latency in place (gate-validation knob)."""
    def scale(row):
        for key in ("p50_s", "p95_s", "p99_s", "mean_s", "max_s", "mean_wait_s"):
            if key in row:
                row[key] = float(row[key]) * factor
        # A latency bump proportionally burns SLA headroom; approximate
        # the attainment drop so the SLA side of the gate also exercises.
        carrying = row.get("sla_met", 0) + row.get("sla_missed", 0)
        if carrying and factor > 1.0:
            row["sla_attainment"] = float(row["sla_attainment"]) / factor

    for row in payload.get("scale", {}).get("classes", {}).values():
        scale(row)
    for regime in payload.get("regimes", {}).get("regimes", {}).values():
        for row in regime.get("classes", {}).values():
            scale(row)


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
    parser.add_argument("--scale-queries", type=int, default=None,
                        help="override the scale phase's query count")
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the JSON payload "
                             "(default: BENCH_replay[_smoke].json in the repo root)")
    parser.add_argument("--check-against", type=Path, default=None, metavar="REF.json",
                        help="fail (exit 1) when interactive p95/SLA regress "
                             "beyond the tolerance vs this reference")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="relative p95 ceiling / absolute SLA floor (default 0.2)")
    parser.add_argument("--inject-latency", type=float, default=None, metavar="F",
                        help="multiply measured latencies by F before the gate "
                             "comparison (validates that the gate fires)")
    args = parser.parse_args()
    if args.check_against is not None and not args.check_against.is_file():
        # Fail before the run, not after it: a gate without its reference
        # checks nothing.
        raise SystemExit("reference file not found: %s" % args.check_against)

    graph_scale = 0.02 if args.smoke else 0.05
    scale_queries = args.scale_queries or (10_000 if args.smoke else 100_000)
    phase_queries = 1_200 if args.smoke else 5_000

    started = time.perf_counter()
    workload = build_workload("SK", "sssp", scale=graph_scale)
    print(
        "replaying on SK scale=%g (%d vertices, %d edges)"
        % (graph_scale, workload.graph.num_vertices, workload.graph.num_edges)
    )
    capacity = calibrate_capacity(workload, args.seed)

    payload = {
        "benchmark": "replay",
        "smoke": args.smoke,
        "seed": args.seed,
        "graph": {
            "dataset": "SK",
            "scale": graph_scale,
            "vertices": workload.graph.num_vertices,
            "edges": workload.graph.num_edges,
        },
        "capacity_qps": capacity,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "scale": run_scale(workload, scale_queries, capacity, args.seed),
        "preemption": run_preemption(workload, phase_queries, capacity, args.seed),
        "regimes": run_regimes(workload, phase_queries, capacity, args.seed),
    }
    payload["wall_s"] = time.perf_counter() - started

    if args.inject_latency is not None:
        print("injecting %gx latency into the payload (gate validation)" % args.inject_latency)
        _inject_latency(payload, args.inject_latency)

    output = args.output or (
        Path(__file__).resolve().parent.parent
        / ("BENCH_replay_smoke.json" if args.smoke else "BENCH_replay.json")
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
        print("replay gate passed")


if __name__ == "__main__":
    main()
