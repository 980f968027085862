"""One benchmark run of one workload (started by ``run.py`` in its own process).

Untraced (``--trace 0``): set up ``SETUP_REPEATS`` times, serve one
warm-up pass, then serve passes until ``--seconds`` have elapsed (and at
least ``MIN_PASSES`` passes and ``MIN_CALLS`` timed calls, so the p90 has
ten samples beyond it).  Serving workloads set up afresh before every
pass.  Every pass's outputs are checked after its clock stops, and its
simulated summary must equal the warm-up pass's.  Prints the end-to-end
metrics.

Traced (``--trace 1``): after a warm-up, alternate one untraced and one
traced *unit* (one set-up plus one pass) until ``--seconds`` have
elapsed.  Prints the per-layer metrics: calls per unit, total and self
host seconds per traced unit, the deterministic layer counts, and the
tracing overhead (traced / untraced unit wall time).

The last line of standard output is the JSON result; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from checks import OutputChecker
from hosttrace import LAYERS, HostTrace
from workloads import WORKLOADS

from repro.metrics.percentiles import percentile
from repro.obs import validate_chrome_trace

SETUP_REPEATS = 3
MAX_PRINTED_PROBLEMS = 20
MIN_PASSES = 3
MIN_CALLS = 100
#: Layer self times must add up to the traced wall time within this share.
SELF_SUM_TOLERANCE = 0.02
#: Host times are reported at a reference CPU speed: each timed step's
#: wall time is scaled by this over the mean of two calibration rounds
#: run right before and right after the step (see README.md, "Noise").
CALIBRATION_REFERENCE_S = 0.035

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "sim_makespan_s": "s",
    "sim_interactive_p95_s": "s",
    "success_ratio": "ratio",
}

#: Units of the deterministic per-layer counts (from ``PassResult.sim``).
COUNT_UNITS = {
    "algorithms.edges": "count",
    "algorithms.reprocess_ratio": "ratio",
    "core.combiner.tasks": "count",
    "core.combiner.partitions_per_task": "ratio",
    "transfer.tasks.filter": "count",
    "transfer.tasks.compaction": "count",
    "transfer.tasks.zero_copy": "count",
    "transfer.bytes": "bytes",
    "runtime.batch.waves": "count",
    "runtime.batch.queries_per_wave": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.evicted_mb": "MB",
    "service.preemptions": "count",
    "service.queue_wait_mean_s": "s",
    "cluster.spills": "count",
    "cluster.failovers": "count",
    "cluster.shipped_mb": "MB",
    "faults.injected": "count",
}

TRACE_UNITS = {"trace.overhead": "ratio", "trace.self_share": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".s"] = "s"
        units[layer + ".self_s"] = "s"
    units.update(COUNT_UNITS)
    units.update(TRACE_UNITS)
    return units


class Checks:
    """Output checks and determinism checks over every pass of a run."""

    def __init__(self):
        self.checker = OutputChecker()
        self.problems: list[str] = []

    def check(self, result, expected_sim=None) -> int:
        """Record ``result``'s problems; returns its number of wrong outputs."""
        wrong = 0
        for graph_key, graph, algorithm, source, values in result.outputs:
            problem = self.checker.problem(graph_key, graph, algorithm, source, values)
            if problem is not None:
                wrong += 1
                self.problems.append("%s %s source=%s: %s" % (graph_key, algorithm, source, problem))
        result.outputs = []
        self.problems.extend(result.problems)
        if expected_sim is not None and result.sim != expected_sim:
            changed = sorted(name for name in expected_sim if result.sim.get(name) != expected_sim[name])
            self.problems.append("simulated summary changed between passes: %s" % ", ".join(changed))
        return wrong


def calibration_round() -> float:
    """Host seconds of a fixed job: an interpreted loop plus NumPy array passes."""
    started = time.perf_counter()
    total = 0
    for index in range(300_000):
        total += index * index % 7
    values = np.arange(200_000.0)
    for _ in range(20):
        values = np.sqrt(values + 1.0)
    return time.perf_counter() - started


def calibrated(function):
    """``(value, wall_s, speed)`` of one call between two calibration rounds.

    ``speed`` converts this call's host seconds to reference-speed seconds:
    ``CALIBRATION_REFERENCE_S`` over the mean of the two rounds.
    """
    before = calibration_round()
    started = time.perf_counter()
    value = function()
    wall_s = time.perf_counter() - started
    return value, wall_s, CALIBRATION_REFERENCE_S / ((before + calibration_round()) / 2)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measured_run(workload, seconds: float) -> dict:
    """The untraced run: end-to-end metrics."""
    checks = Checks()
    if hasattr(workload, "calibrate"):
        checks.check(workload.calibrate())
    setup_s: list[float] = []
    for _ in range(SETUP_REPEATS):
        state, wall_s, speed = calibrated(workload.setup)
        setup_s.append(wall_s * speed)
    warm_up = workload.run_pass(state)
    expected_sim = warm_up.sim
    checks.check(warm_up)
    passes = []
    wrong = 0
    started = time.perf_counter()
    while True:
        if not workload.reuse_setup:
            state, wall_s, speed = calibrated(workload.setup)
            setup_s.append(wall_s * speed)
        result, _, speed = calibrated(lambda: workload.run_pass(state))
        wrong += checks.check(result, expected_sim)
        passes.append((result, speed))
        calls = [call * speed for result, speed in passes for call in result.call_s]
        if time.perf_counter() - started >= seconds and len(passes) >= MIN_PASSES and len(calls) >= MIN_CALLS:
            break
    submitted = sum(result.submitted for result, _ in passes)
    completed = sum(result.completed for result, _ in passes)
    raw_wall_s = sum(result.wall_s for result, _ in passes)
    speeds = [speed for _, speed in passes]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "queries_per_s": completed / sum(result.wall_s * speed for result, speed in passes),
        "call_p50_ms": percentile(calls, 50) * 1e3,
        "call_p90_ms": percentile(calls, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "sim_makespan_s": expected_sim["makespan_s"],
        "sim_interactive_p95_s": expected_sim["interactive_p95_s"],
        "success_ratio": (completed - wrong) / submitted,
    }
    return {
        "metrics": {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()},
        "attempted": submitted,
        "failed": submitted - completed + wrong,
        "problems": checks.problems,
        "notes": [
            "%d passes, %d timed calls, %d set-ups, %d outputs checked"
            % (len(passes), len(calls), len(setup_s), checks.checker.checked),
            "speed factors %.3f-%.3f; uncalibrated: %.6g queries/s over %.3f host s"
            % (min(speeds), max(speeds), completed / raw_wall_s, raw_wall_s),
        ],
    }


def traced_run(workload, seconds: float, trace_out: str | None) -> dict:
    """The traced run: per-layer host time and counts."""
    checks = Checks()
    if hasattr(workload, "calibrate"):
        checks.check(workload.calibrate())
    warm_up = workload.run_pass(workload.setup())
    expected_sim = warm_up.sim
    checks.check(warm_up)
    trace = HostTrace()
    untraced_s: list[float] = []
    traced_s: list[float] = []
    traced_wall_s = 0.0
    unit_calls = None
    layer_s = dict.fromkeys(LAYERS, 0.0)
    layer_self_s = dict.fromkeys(LAYERS, 0.0)
    submitted = completed = wrong = 0
    started = time.perf_counter()
    while not traced_s or time.perf_counter() - started < seconds:
        result, wall_s, speed = calibrated(lambda: workload.run_pass(workload.setup()))
        untraced_s.append(wall_s * speed)
        checks.check(result, expected_sim)
        trace.run_id = len(traced_s)
        with trace:
            result, wall_s, speed = calibrated(
                lambda: trace.span("bench.pass", workload.run_pass, trace.span("bench.setup", workload.setup))
            )
        traced_s.append(wall_s * speed)
        traced_wall_s += wall_s
        # Same simulated outputs with and without the wrappers.
        wrong += checks.check(result, expected_sim)
        submitted += result.submitted
        completed += result.completed
        table = trace.layer_table(trace.run_id)
        calls = {name: row["calls"] for name, row in table.items()}
        if unit_calls is None:
            unit_calls = calls
        elif calls != unit_calls:
            checks.problems.append("layer call counts changed between traced units")
        for name, row in table.items():
            layer_s[name] += row["s"] * speed
            layer_self_s[name] += row["self_s"] * speed
    units = len(traced_s)
    self_share = sum(row["self_s"] for row in trace.layer_table().values()) / traced_wall_s
    if abs(self_share - 1.0) > SELF_SUM_TOLERANCE:
        checks.problems.append("layer self times sum to %.4f of the traced wall time" % self_share)
    values = {}
    for layer in LAYERS:
        values[layer + ".calls"] = unit_calls[layer]
        values[layer + ".s"] = layer_s[layer] / units
        values[layer + ".self_s"] = layer_self_s[layer] / units
    values.update((name, expected_sim[name]) for name in COUNT_UNITS)
    values["trace.overhead"] = statistics.median(traced_s) / statistics.median(untraced_s)
    values["trace.self_share"] = self_share
    if trace_out is not None:
        payload = trace.chrome_trace(run_id=0)
        problems = validate_chrome_trace(payload)
        checks.problems.extend("chrome trace: %s" % problem for problem in problems)
        Path(trace_out).write_text(json.dumps(payload))
    units_by_name = per_layer_units()
    return {
        "metrics": {name: (value, units_by_name[name]) for name, value in values.items()},
        "attempted": submitted,
        "failed": submitted - completed + wrong,
        "problems": checks.problems,
        "layers": {
            layer: {"calls": unit_calls[layer], "s": values[layer + ".s"], "self_s": values[layer + ".self_s"]}
            for layer in LAYERS
        },
        "notes": [
            "%d traced + %d untraced units, %d spans, %d outputs checked"
            % (units, len(untraced_s), len(trace.layer), checks.checker.checked)
        ],
    }


def write_result(path: str, workload: str, seed: int, traced: bool, outcome: dict) -> None:
    """Merge this run into a result file keyed by workload (see compare.py)."""
    target = Path(path)
    payload = json.loads(target.read_text()) if target.exists() else {}
    entry = payload.setdefault(workload, {})
    entry["seed"] = seed
    entry["traced" if traced else "untraced"] = {
        "metrics": {name: value for name, (value, _unit) in outcome["metrics"].items()},
        "layers": outcome.get("layers", {}),
    }
    target.write_text(json.dumps(payload, indent=1, sort_keys=True))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="merge this run's metrics into a result file (see compare.py)")
    parser.add_argument("--trace-out", help="with --trace 1: write the first traced unit as Chrome trace JSON")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        outcome = traced_run(workload, args.seconds, args.trace_out)
    else:
        outcome = measured_run(workload, args.seconds)
    print("%s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for note in outcome["notes"]:
        print("  " + note)
    for name, (value, unit) in outcome["metrics"].items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    problems = outcome["problems"]
    for problem in problems[:MAX_PRINTED_PROBLEMS]:
        print("  CHECK FAILED: " + problem)
    if len(problems) > MAX_PRINTED_PROBLEMS:
        print("  ... and %d more failed checks" % (len(problems) - MAX_PRINTED_PROBLEMS))
    if args.out:
        write_result(args.out, args.workload, args.seed, bool(args.trace), outcome)
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome["metrics"].items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
