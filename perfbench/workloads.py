"""The benchmark's three workloads, driven only through public entry points.

Each workload makes its inputs from the seed and exposes two steps:

* :meth:`setup` — everything up to the first query (graph generation,
  hub sort, partitioning, system/service/cluster construction);
* :meth:`run_pass` — one pass of queries through the system.  Only the
  calls into the system are timed; the request list is generated before
  the clock starts and outputs are checked after it stops.

A pass is a fixed, seed-determined amount of simulated work, so its
simulated summary (:attr:`PassResult.sim`) is the same on every pass and
every run with that seed, however many passes the host clock allows.

Why these three (see README.md for the layer map):

* ``grid-solo`` — the paper's own evaluation grid, solo ``system.run``
  calls: vertex programs, kernels and graph set-up dominate.
* ``replay-serve`` — a below-saturation Poisson trace through one
  preemptive 1-GPU service: hundreds of small waves, planning dominates.
* ``cluster-failover`` — a saturated trace through 2 hosts x 2 GPUs with
  an adaptive cache and a midpoint host loss: few large waves, the only
  workload on the sharded, cached, routed and failover paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.bench.workloads import build_workload, paper_datasets
from repro.cluster import ClusterConfig, ClusterService
from repro.metrics.percentiles import percentile
from repro.service import GraphService, ReplayHarness, ServiceConfig, timed_mixed_trace
from repro.service.request import Priority, QueryRequest, RequestStatus
from repro.systems import make_system

__all__ = ["PassResult", "GridSolo", "ReplayServe", "ClusterFailover", "WORKLOADS"]

#: Engine names as they appear in ``IterationStats.engine_tasks``.
ENGINE_METRICS = {"ExpTM-F": "filter", "ExpTM-C": "compaction", "ImpTM-ZC": "zero_copy"}


@dataclass
class PassResult:
    """What one pass measured (host clock) and produced (simulated)."""

    #: Host seconds from the first call into the system to the last return.
    wall_s: float
    #: Host seconds of each blocking call (``system.run`` or one wave).
    call_s: list[float]
    submitted: int
    completed: int
    #: Failed + cancelled + rejected queries.
    unserved: int
    #: Deterministic simulated summary: makespan, p95 and layer counts.
    sim: dict[str, float]
    #: ``(graph_key, graph, algorithm, source, values)`` of completed queries.
    outputs: list[tuple] = field(default_factory=list)
    #: Problems found by the workload itself (conservation, bitwise sample).
    problems: list[str] = field(default_factory=list)


def _layer_counts(results, batches=()) -> dict[str, float]:
    """Deterministic per-layer counts read from the queries' public results."""
    processed = active = tasks = partitions = transfer_bytes = 0
    engine_tasks = dict.fromkeys(ENGINE_METRICS.values(), 0)
    hit = miss = evicted = 0
    for result in results:
        for stats in result.iterations:
            processed += stats.processed_edges
            active += stats.active_edges
            transfer_bytes += stats.transfer_bytes
            partitions += sum(stats.engine_partitions.values())
            for engine, count in stats.engine_tasks.items():
                tasks += count
                engine_tasks[ENGINE_METRICS[engine]] += count
            if not batches:
                hit += stats.cache_hit_bytes
                miss += stats.cache_miss_bytes
                evicted += stats.cache_evicted_bytes
    for batch in batches:
        hit += batch.cache_hit_bytes
        miss += batch.cache_miss_bytes
        evicted += batch.cache_evicted_bytes
    wave_queries = sum(len(batch.results) for batch in batches)
    counts = {
        "algorithms.edges": processed,
        "algorithms.reprocess_ratio": processed / active if active else 0.0,
        "core.combiner.tasks": tasks,
        "core.combiner.partitions_per_task": partitions / tasks if tasks else 0.0,
        "transfer.bytes": transfer_bytes,
        "runtime.batch.waves": len(batches),
        "runtime.batch.queries_per_wave": wave_queries / len(batches) if batches else 0.0,
        "cache.hit_ratio": hit / (hit + miss) if hit + miss else 0.0,
        "cache.evicted_mb": evicted / 1e6,
        "service.preemptions": 0,
        "service.queue_wait_mean_s": 0.0,
        "cluster.spills": 0,
        "cluster.failovers": 0,
        "cluster.shipped_mb": 0.0,
        "faults.injected": sum(batch.faults_injected for batch in batches),
    }
    counts.update(("transfer.tasks.%s" % name, count) for name, count in engine_tasks.items())
    return counts


# ----------------------------------------------------------------------
# grid-solo
# ----------------------------------------------------------------------


@dataclass
class _Cell:
    key: str
    algorithm: str
    workload: object
    system: object


class GridSolo:
    """HyTGraph ``system.run`` over the 5 stand-in datasets x 5 algorithms.

    Cells are built with ``build_workload`` as the paper benches build
    them.  Each source-driven cell runs ``SOURCES`` seeded sources drawn
    from its ``SOURCE_POOL`` highest out-degree vertices (well connected,
    like the benches' own pick); the seed also shuffles the call order.
    With 2 sources the 5 PageRank calls, the slowest, are the top 12.5%
    of a pass's 40 calls, so the call p90 falls inside them; with 3 it
    fell on the edge between PageRank and the next-slowest calls and
    moved 12% from run to run.
    """

    name = "grid-solo"
    #: The grid is built once per set-up and served by every pass.
    reuse_setup = True
    ALGORITHMS = ("bfs", "sssp", "cc", "pagerank", "php")
    SCALE = 0.25
    SOURCES = 2
    SOURCE_POOL = 16

    def __init__(self, seed: int, scale: float = SCALE, datasets=None):
        self.seed = seed
        self.scale = scale
        self.datasets = tuple(datasets or paper_datasets())

    def setup(self):
        cells = []
        for dataset in self.datasets:
            for algorithm in self.ALGORITHMS:
                workload = build_workload(dataset, algorithm, scale=self.scale)
                system = make_system("hytgraph", workload.graph, config=workload.config)
                cells.append(_Cell("%s@%g/%s" % (dataset, self.scale, algorithm), algorithm, workload, system))
        return cells, self._queries(cells)

    def _queries(self, cells) -> list[tuple[_Cell, int | None]]:
        rng = np.random.default_rng(self.seed)
        queries = []
        for cell in cells:
            workload = cell.workload
            if not workload.program.needs_source:
                queries.append((cell, None))
                continue
            pool = np.argsort(-workload.graph.out_degrees, kind="stable")[: self.SOURCE_POOL]
            picks = rng.choice(pool, size=min(self.SOURCES, pool.size), replace=False)
            queries.extend((cell, int(source)) for source in picks)
        return [queries[index] for index in rng.permutation(len(queries))]

    def run_pass(self, state) -> PassResult:
        _cells, queries = state
        call_s = []
        results = []
        started = time.perf_counter()
        for cell, source in queries:
            before = time.perf_counter()
            results.append(cell.system.run(cell.workload.program, source))
            call_s.append(time.perf_counter() - before)
        wall_s = time.perf_counter() - started
        point_times = [result.total_time for (_, source), result in zip(queries, results) if source is not None]
        sim = {
            "makespan_s": float(sum(result.total_time for result in results)),
            "interactive_p95_s": percentile(np.asarray(point_times), 95),
        }
        sim.update(_layer_counts(results))
        converged = sum(result.converged for result in results)
        return PassResult(
            wall_s=wall_s,
            call_s=call_s,
            submitted=len(queries),
            completed=converged,
            unserved=len(queries) - converged,
            sim=sim,
            outputs=[
                (cell.key, cell.workload.graph, cell.algorithm, source, result.values)
                for (cell, source), result in zip(queries, results)
                if result.converged
            ],
        )


# ----------------------------------------------------------------------
# Serving workloads (replay-serve, cluster-failover)
# ----------------------------------------------------------------------


def serve_pass(service, harness: ReplayHarness, requests, graph_key: str, graph) -> PassResult:
    """Replay ``requests`` through ``service``; times each served wave.

    The service's ``step`` and ``harvest`` are shadowed on the instance
    for the pass: ``step`` to time each blocking wave, ``harvest`` to keep
    the finished handles and batch records the harness would drop, so
    their outputs can be checked after the clock stops.
    """
    call_s: list[float] = []
    finished = []
    batches = []
    last_return = 0.0
    step, harvest = service.step, service.harvest

    def timed_step():
        nonlocal last_return
        before = time.perf_counter()
        batch = step()
        last_return = time.perf_counter()
        if batch is not None:
            call_s.append(last_return - before)
        return batch

    def keeping_harvest():
        done, served = harvest()
        finished.extend(done)
        batches.extend(served)
        return done, served

    service.step, service.harvest = timed_step, keeping_harvest
    try:
        started = time.perf_counter()
        report = harness.replay(requests)
    finally:
        del service.step, service.harvest
    done = [handle for handle in finished if handle.status is RequestStatus.DONE]
    results = [handle.result(wait=False) for handle in done]
    waits = [handle.queue_wait_s for handle in done]
    sim = {
        "makespan_s": report.makespan_s,
        "interactive_p95_s": report.latency_percentile("interactive", 95),
    }
    sim.update(_layer_counts(results, batches))
    sim["service.preemptions"] = report.preemptions
    sim["service.queue_wait_mean_s"] = float(np.mean(waits)) if waits else 0.0
    problems = []
    unserved = report.failed + report.cancelled + report.rejected
    if report.queries != report.completed + unserved:
        problems.append(
            "conservation: %d submitted != %d completed + %d failed + %d cancelled + %d rejected"
            % (report.queries, report.completed, report.failed, report.cancelled, report.rejected)
        )
    if len(done) != report.completed:
        problems.append("%d completed handles harvested, report says %d" % (len(done), report.completed))
    if harness.verify_sample and report.verified_bitwise is not True:
        problems.append("served values differ bitwise from solo runs (%d sampled)" % report.verified_queries)
    return PassResult(
        wall_s=last_return - started,
        call_s=call_s,
        submitted=report.queries,
        completed=report.completed,
        unserved=unserved,
        sim=sim,
        outputs=[
            (graph_key, graph, handle.request.algorithm, handle.request.source, run.values)
            for handle, run in zip(done, results)
        ],
        problems=problems,
    )


def mixed_trace(
    graph, count: int, rate: float, seed: int, sla_s: float | None = None, bulk: bool = True
) -> list[QueryRequest]:
    """A Poisson BFS/SSSP ``timed_mixed_trace``, plus a fixed number of BULK scans.

    ``timed_mixed_trace`` draws every request's class independently, so
    its BULK count varies from seed to seed, and with it the preemptions
    (171-378 per 1000 requests over seeds 1-5) and the wave latencies.
    With ``bulk``, 1% more requests are BULK PageRank scans, one at a
    seeded offset in each equal slice of the trace's expected span.  A
    scan runs for many waves (it is preempted and resumed), so at 2%
    about half of all waves carried one and the wave p50 sat on the
    boundary between the two kinds of wave; at 1% about a fifth do.
    """
    stream = timed_mixed_trace(graph, count, rate=rate, seed=seed, interactive_sla_s=sla_s, bulk_fraction=0.0)
    if not bulk:
        return list(stream)
    scans = max(1, count // 100)
    offsets = np.random.default_rng([seed, 0xB01C]).uniform(size=scans)
    slice_s = count / rate / scans
    bulk = [
        QueryRequest(algorithm="pagerank", priority=Priority.BULK, arrival_s=float((index + offset) * slice_s))
        for index, offset in enumerate(offsets)
    ]
    return sorted([*stream, *bulk], key=lambda request: request.arrival_s)


class ReplayServe:
    """A seeded Poisson trace through one preemptive 1-GPU service on SK@0.02.

    ``RATE`` is about 0.14x the service's batched capacity on this graph
    (~35k simulated queries/s), so the service runs below saturation and
    forms hundreds of small waves; INTERACTIVE lookups carry ``SLA_S``.
    BULK PageRank scans, the only preemptible queries, are 1% of the
    requests (see :func:`mixed_trace`).
    """

    name = "replay-serve"
    reuse_setup = False
    DATASET = "SK"
    SCALE = 0.02
    COUNT = 1000
    RATE = 5000.0
    SLA_S = 1e-3
    LOOKAHEAD = 64
    VERIFY_SAMPLE = 8

    def __init__(self, seed: int, count: int = COUNT):
        self.seed = seed
        self.count = count
        self.graph_key = "%s@%g/sssp" % (self.DATASET, self.SCALE)

    def setup(self):
        workload = build_workload(self.DATASET, "sssp", scale=self.SCALE)
        config = ServiceConfig(system="hytgraph", preemption=True)
        return workload, GraphService(config, graph=workload.graph, hardware=workload.config)

    def run_pass(self, state) -> PassResult:
        workload, service = state
        requests = mixed_trace(workload.graph, self.count, self.RATE, self.seed, sla_s=self.SLA_S)
        harness = ReplayHarness(
            service, lookahead=self.LOOKAHEAD, verify_sample=self.VERIFY_SAMPLE, seed=self.seed
        )
        return serve_pass(service, harness, requests, self.graph_key, workload.graph)


class ClusterFailover:
    """A saturated trace through 2 hosts x 2 GPUs over TCP with one host loss.

    Every replica runs HyTGraph on a 2-device platform with an ``lru``
    cache.  The last host is lost at the midpoint cluster wave of the
    same replay served fault-free (measured once per run by
    :meth:`calibrate`), and its queued and suspended queries fail over
    to the survivor through shipped checkpoints.
    """

    name = "cluster-failover"
    reuse_setup = False
    DATASET = "TW"
    SCALE = 0.1
    HOSTS = 2
    GPUS_PER_HOST = 2
    NETWORK = "tcp"
    CACHE_POLICY = "lru"
    COUNT = 800
    LOOKAHEAD = 32
    VERIFY_SAMPLE = 8

    def __init__(self, seed: int, count: int = COUNT):
        self.seed = seed
        self.count = count
        self.graph_key = "%s@%g/sssp" % (self.DATASET, self.SCALE)
        self.loss_wave: int | None = None

    def _build(self, faults: str | None):
        workload = build_workload(self.DATASET, "sssp", scale=self.SCALE, num_devices=self.GPUS_PER_HOST)
        config = ClusterConfig(
            hosts=self.HOSTS,
            gpus_per_host=self.GPUS_PER_HOST,
            network=self.NETWORK,
            service=ServiceConfig(system="hytgraph", cache_policy=self.CACHE_POLICY, faults=faults),
        )
        # ClusterService.for_workload drops gpus_per_host and the cache
        # settings of the service config (a known defect, see README):
        # the devices come from the workload and the cache policy is
        # passed as a system kwarg, then both are asserted per replica.
        cluster = ClusterService.for_workload(workload, "hytgraph", config=config, cache_policy=self.CACHE_POLICY)
        for host, replica in enumerate(cluster.replicas):
            devices = replica.system.config.num_devices
            policy = replica.system.context.cache_policy
            if devices != self.GPUS_PER_HOST or policy != self.CACHE_POLICY:
                raise RuntimeError(
                    "host %d runs %d device(s) with cache %r, expected %d with %r"
                    % (host, devices, policy, self.GPUS_PER_HOST, self.CACHE_POLICY)
                )
        return workload, cluster

    def _replay(self, workload, cluster) -> PassResult:
        # No BULK scans: in a saturated replay every request has arrived
        # before each wave forms, so nothing is preempted, and one
        # 35-iteration scan sets the length of a wave of BFS lookups.
        # With 2% scans about half the waves held one, and the wave p50
        # moved 3x from seed to seed.
        requests = mixed_trace(workload.graph, self.count, 1e9, self.seed, bulk=False)
        harness = ReplayHarness(
            cluster, lookahead=self.LOOKAHEAD, verify_sample=self.VERIFY_SAMPLE, seed=self.seed
        )
        return serve_pass(cluster, harness, requests, self.graph_key, workload.graph)

    def calibrate(self) -> PassResult:
        """Serve the replay fault-free once; the loss fires at its midpoint wave."""
        result = self._replay(*self._build(None))
        self.loss_wave = max(1, result.sim["runtime.batch.waves"] // 2)
        return result

    def setup(self):
        if self.loss_wave is None:
            raise RuntimeError("calibrate() first: the host-loss wave is not known yet")
        return self._build("host-loss@%d:host=%d" % (self.loss_wave, self.HOSTS - 1))

    def run_pass(self, state) -> PassResult:
        workload, cluster = state
        result = self._replay(workload, cluster)
        counters = cluster.router.counters()
        result.sim["cluster.spills"] = counters["spills"]
        result.sim["cluster.failovers"] = counters["failovers"]
        result.sim["cluster.shipped_mb"] = cluster.shipped_bytes / 1e6
        result.sim["faults.injected"] += len(cluster.events)
        if cluster.alive_hosts() != list(range(self.HOSTS - 1)):
            result.problems.append("host loss did not fire: alive hosts %s" % cluster.alive_hosts())
        return result


WORKLOADS = {workload.name: workload for workload in (GridSolo, ReplayServe, ClusterFailover)}
