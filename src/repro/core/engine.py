"""The HyTGraph runtime (Figure 5).

The engine alternates two stages until the algorithm converges:

1. **Cost-aware task generation** — estimate the three engine costs for
   every partition containing active edges (:mod:`repro.core.cost_model`),
   select the cheapest engine per partition (:mod:`repro.core.selection`)
   and merge the selections into scheduler tasks
   (:mod:`repro.core.combiner`).
2. **Asynchronous task scheduling** — order the tasks by contribution
   (:mod:`repro.core.priority`), execute them (vertex-program semantics
   plus transfer-engine accounting) and run the resulting stage durations
   through the execution runtime (:mod:`repro.runtime`) to obtain the
   iteration's simulated wall-clock time.

Within an iteration execution is asynchronous: a task sees every value
update made by the tasks scheduled before it, and the loaded subgraph is
re-processed once (Section VI-A, "recomputes the loaded subgraph only
once") so cheap extra GPU work replaces future transfers.

Every behavioural feature is switchable through :class:`HyTGraphOptions`
so the ablation benchmarks (Figure 8) can turn task combining and
contribution-driven scheduling on and off independently.

Execution runtime
-----------------
The engine is device-count agnostic: it plans every iteration as one
:class:`~repro.runtime.driver.IterationPlan` — per-device task lists over
the contiguous partition-range shards of its
:class:`~repro.runtime.context.ExecutionContext` — and the shared
:class:`~repro.runtime.driver.IterationDriver` schedules it.  One device
is the trivial case (one shard, no residency, no boundary exchange), so
there is no separate single-device code path; multi-device sessions add
per-device shard residency and the per-iteration boundary-delta
synchronisation.  Through the ``shared`` planning argument the same code
serves the concurrent multi-query batch runner, which deduplicates
whole-partition transfers across queries.

Performance architecture
------------------------
Everything around ``program.process`` (which runs task by task, in
order) is array-shaped: one frontier scan per iteration feeds the stats,
the cost model and the combiner; selection is one vectorised α/β rule
over an int8 engine-code array, from which the combiner cuts filter runs
(task labels are formatted only if a trace reads them); per-partition
columns built once give each task its contiguous vertex ranges (slice
views, never an O(|V|) mask) and its filter copy prices; and one scan
(:func:`~repro.sim.streams.schedule_tasks`) places the stream tasks.
The per-edge scatter work lives in the kernel layer
(:mod:`repro.core.kernels`); ``benchmarks/bench_perf_hotpaths.py``
measures both layers against the seed implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.core.combiner import ENGINE_VALUE, ScheduledTask, TaskCombiner
from repro.core.cost_model import CostModel
from repro.core.priority import ContributionScheduler
from repro.core.selection import FILTER, EngineSelector, SelectionResult, SelectionThresholds
from repro.graph.csr import CSRGraph
from repro.graph.partition import (
    DeviceShard,
    Partitioning,
    partition_by_bytes,
    partition_by_count,
)
from repro.graph.reorder import ReorderedGraph, hub_sort
from repro.metrics.results import IterationStats, RunResult
from repro.runtime.batch import SharedTransferState
from repro.runtime.context import ExecutionContext
from repro.runtime.driver import IterationDriver, IterationPlan, QuerySession
from repro.sim.config import HardwareConfig, default_config
from repro.sim.kernel import KernelModel
from repro.sim.streams import StreamScheduler, StreamTask
from repro.transfer.base import EngineKind, TransferEngine, TransferOutcome
from repro.transfer.explicit_compaction import ExplicitCompactionEngine
from repro.transfer.explicit_filter import ExplicitFilterEngine
from repro.transfer.zero_copy import ZeroCopyEngine

__all__ = ["HyTGraphOptions", "HyTGraphEngine"]

# With the paper's billion-edge graphs a 32 MB partition yields on the
# order of a hundred partitions; for arbitrary (scaled-down) graphs the
# default keeps that partition *count* rather than the absolute size.
DEFAULT_PARTITION_DIVISOR = 64



@dataclass
class HyTGraphOptions:
    """Tunable behaviour of the HyTGraph engine.

    The defaults reproduce the full system of the paper; the ablation
    benchmarks flip individual switches.

    Attributes
    ----------
    partition_bytes / num_partitions:
        Partitioning granularity.  When both are ``None`` the graph is
        split into ``DEFAULT_PARTITION_DIVISOR`` edge-balanced partitions
        (the scaled equivalent of the paper's 32 MB chunks).
    combine_factor:
        ``k`` — how many consecutive ExpTM-filter partitions merge into
        one task (4 in the paper).
    task_combining:
        Disable to schedule every partition as its own task (Figure 8's
        plain "Hybrid" bar).
    contribution_scheduling:
        Disable to drop hub-/Δ-driven priorities (Figure 8's "+TC" bar
        keeps task combining but no CDS).
    hub_sorting / hub_fraction:
        Whether to hub-sort the graph during preprocessing and how many
        vertices count as hubs (8 %).
    recompute_loaded:
        Re-process each loaded subgraph once with fresh values.
    thresholds:
        The α/β engine-selection thresholds.
    max_iterations:
        Safety bound on outer iterations.
    backend:
        Compute backend for the kernel layer (``None`` = ambient/default;
        see :mod:`repro.core.backends`).  Rides in through the options
        because the engine builds the execution context itself.
    cache_policy / cache_budget:
        Device-memory cache subsystem (:mod:`repro.cache`):
        ``"static-prefix"`` (default) pins each shard's leading
        partitions exactly as the historical residency did; ``"lru"``
        and ``"frontier-aware"`` adapt the resident set every iteration
        and work at any device count.  ``cache_budget`` is the
        per-device byte budget (default: the device's edge-cache
        memory).
    """

    partition_bytes: int | None = None
    num_partitions: int | None = None
    combine_factor: int = 4
    task_combining: bool = True
    contribution_scheduling: bool = True
    hub_sorting: bool = True
    hub_fraction: float = 0.08
    recompute_loaded: bool = True
    thresholds: SelectionThresholds = field(default_factory=SelectionThresholds)
    max_iterations: int = 10_000
    cache_policy: str = "static-prefix"
    cache_budget: int | None = None
    backend: str | None = None


class HyTGraphEngine:
    """Hybrid-transfer-management graph processing engine."""

    name = "HyTGraph"

    def __init__(
        self,
        graph: CSRGraph,
        config: HardwareConfig | None = None,
        options: HyTGraphOptions | None = None,
    ):
        self.original_graph = graph
        self.config = config or default_config()
        self.options = options or HyTGraphOptions()

        self.preprocessing_time = 0.0
        self.reordering: ReorderedGraph | None = None
        if self.options.hub_sorting and graph.num_vertices > 0:
            self.reordering = hub_sort(graph, self.options.hub_fraction)
            self.graph = self.reordering.graph
            # Hub sorting reads and rewrites the edge arrays once on the
            # host; charge it at the CPU compaction throughput.  It is a
            # one-off cost shared by all subsequent runs (Section VI-A).
            self.preprocessing_time = 2 * graph.edge_data_bytes / self.config.cpu_compaction_throughput
        else:
            self.graph = graph

        self.partitioning = self._build_partitioning()
        # Sink detection runs every iteration; the degree==0 mask is static.
        self._sink_mask = self.graph.out_degrees == 0
        self.cost_model = CostModel(self.graph, self.partitioning, self.config)
        self.selector = EngineSelector(self.options.thresholds)
        self.combiner = TaskCombiner(self.options.combine_factor, enabled=self.options.task_combining)
        self.priority = ContributionScheduler(
            self.graph, self.partitioning, enabled=self.options.contribution_scheduling
        )
        self.kernel_model = KernelModel(self.config)
        # Only the perf harness's seed-baseline mode (bench_perf_hotpaths.py)
        # schedules here; the engine itself schedules via the context.
        self.stream_scheduler = StreamScheduler(self.config)
        self.engines: dict[EngineKind, TransferEngine] = {
            EngineKind.EXP_FILTER: ExplicitFilterEngine(self.graph, self.config),
            EngineKind.EXP_COMPACTION: ExplicitCompactionEngine(self.graph, self.config),
            EngineKind.IMP_ZERO_COPY: ZeroCopyEngine(self.graph, self.config),
        }
        # Per-partition columns, read per task instead of partition objects.
        self._partitions = list(self.partitioning)
        self._vertex_start = [partition.vertex_start for partition in self._partitions]
        self._vertex_end = [partition.vertex_end for partition in self._partitions]
        self._edge_bytes = [partition.edge_bytes for partition in self._partitions]
        copy_time = self.engines[EngineKind.EXP_FILTER].pcie.explicit_copy_time
        self._copy_seconds = [copy_time(edge_bytes) for edge_bytes in self._edge_bytes]

        # Device-agnostic execution runtime: shards, the device-memory
        # cache and the shared-host scheduler.  One device is the
        # trivial case — one shard spanning every partition, no static
        # residency, no boundary exchange — so default single-device
        # runs stay bitwise identical to the historical dedicated path.
        self.context = ExecutionContext(
            self.graph,
            self.partitioning,
            self.config,
            cache_policy=self.options.cache_policy,
            cache_budget=self.options.cache_budget,
            backend=self.options.backend,
        )
        self.driver = IterationDriver(self.context)

    @property
    def max_iterations(self) -> int:
        """Outer-iteration bound (shared protocol with the systems)."""
        return self.options.max_iterations

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _build_partitioning(self) -> Partitioning:
        options = self.options
        if options.num_partitions is not None:
            return partition_by_count(self.graph, options.num_partitions)
        if options.partition_bytes is not None:
            return partition_by_bytes(self.graph, options.partition_bytes)
        target_bytes = max(
            self.graph.edge_bytes_per_edge,
            self.graph.edge_data_bytes // DEFAULT_PARTITION_DIVISOR,
        )
        return partition_by_bytes(self.graph, target_bytes)

    def _translate_source(self, source: int | None) -> int | None:
        if source is None or self.reordering is None:
            return source
        return self.reordering.translate_to_new(source)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def reset_run_state(self) -> None:
        """Reset warm cross-run state (engine caches, residency flags)."""
        for engine in self.engines.values():
            engine.reset()
        self.context.reset()

    def start_session(self, program: VertexProgram, source: int | None = None) -> QuerySession:
        """Initialise one query against the preprocessed (hub-sorted) graph."""
        program.check_graph(self.graph)
        internal_source = self._translate_source(program.validate_source(self.original_graph, source))
        state = program.create_state(self.graph, internal_source)
        frontier = program.initial_frontier(self.graph, state, internal_source)

        result = RunResult(
            system=self.name,
            algorithm=program.name,
            graph_name=self.original_graph.name,
            preprocessing_time=self.preprocessing_time,
            extra={
                "backend": self.context.backend_name,
                "num_partitions": self.partitioning.num_partitions,
                "hub_sorted": self.reordering is not None,
                "task_combining": self.options.task_combining,
                "contribution_scheduling": self.options.contribution_scheduling,
            },
        )
        if self.context.is_multi_device:
            result.extra["num_devices"] = self.config.num_devices
            result.extra["interconnect"] = self.config.interconnect_kind
            result.extra["resident_partitions"] = self.context.num_resident_partitions

        return QuerySession(
            program=program,
            source=internal_source,
            state=state,
            pending=frontier.mask.copy(),
            result=result,
        )

    def finish_session(self, session: QuerySession) -> RunResult:
        """Finalise one query: convergence flag plus original-order values."""
        result = session.result
        result.converged = not session.pending.any()
        values = session.program.vertex_result(session.state)
        if self.reordering is not None:
            values = self.reordering.values_in_original_order(values)
        result.values = values
        return result

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, program: VertexProgram, source: int | None = None) -> RunResult:
        """Run ``program`` to convergence and return the full result record."""
        self.reset_run_state()
        session = self.start_session(program, source)
        self.driver.begin_trace()
        # The loop goes through _run_iteration (rather than the driver's
        # generic loop) so the perf harness can monkeypatch the seed
        # iteration back in.
        while session.pending.any() and session.iteration < self.options.max_iterations:
            stats = self._run_iteration(session.iteration, program, session.state, session.pending)
            session.result.iterations.append(stats)
            session.iteration += 1
        return self.finish_session(session)

    def _run_iteration(
        self,
        iteration: int,
        program: VertexProgram,
        state: ProgramState,
        pending: np.ndarray,
    ) -> IterationStats:
        return self.driver.finish(
            self.driver.windowed_plan(lambda: self._plan(iteration, program, state, pending)),
            trace_iteration=iteration,
        )

    def plan_iteration(
        self, session: QuerySession, shared: SharedTransferState | None = None
    ) -> IterationPlan:
        """One planned iteration (batch-runner protocol)."""
        return self._plan(session.iteration, session.program, session.state, session.pending, shared)

    def _plan(
        self,
        iteration: int,
        program: VertexProgram,
        state: ProgramState,
        pending: np.ndarray,
        shared: SharedTransferState | None = None,
    ) -> IterationPlan:
        """Plan one iteration: task generation, execution and accounting.

        Task generation, contribution scheduling and stream scheduling
        operate per device over the context's shards (one trivial shard
        on single-device sessions); the frontier and value arrays stay
        global — every device reads and writes the same program state,
        mirroring how real sharded runtimes keep vertex values consistent
        through the boundary exchange.  The host CPU and PCIe are shared;
        multi-device iterations end with the boundary-vertex delta
        exchange over the interconnect.
        """
        graph = self.graph
        context = self.context
        # One frontier scan per iteration: the id array feeds the stats,
        # the cost model and the task combiner (the seed engine rescanned
        # the |V| mask in each of those places).
        active_ids = pending.nonzero()[0]
        active_vertex_count = int(active_ids.size)
        active_edge_count = int(graph.out_degrees[active_ids].sum())

        # Active vertices without out-edges generate no tasks (their
        # partitions carry no active edges), so handle them directly: the
        # push is a no-op for traversal algorithms and simply folds the
        # residual for accumulative ones.
        sinks = (pending & self._sink_mask).nonzero()[0]
        if sinks.size:
            pending[sinks] = False
            program.process(graph, state, sinks)

        # ----- Stage 1: per-device cost-aware task generation --------------
        costs = self.cost_model.estimate(pending, active_ids=active_ids)
        cache = context.cache
        if cache is not None and cache.adaptive:
            # Frontier observation feeds the eviction policy (committed
            # at the next iteration boundary), and the cost model learns
            # what is already on a device: resident partitions — and,
            # under the batch runner, partitions another query shipped
            # this super-iteration — price the filter engine at zero,
            # so queries B..K select the free path query A paid for.
            cache.observe_frontier(costs.active_edges)
            costs = self._discount_on_device_filter(costs, cache, shared)
        selection = self._force_resident_filter(self.selector.select(costs))
        device_task_lists: list[list[ScheduledTask]] = [
            self._device_tasks(shard, selection, pending, active_ids, program, state)
            for shard in context.sharding
        ]
        # Each device scans only its own shard's partitions, concurrently.
        widest_shard = max((shard.num_partitions for shard in context.sharding), default=0)
        generation_overhead = self.kernel_model.device_scan_time(widest_shard)

        # ----- Stage 2: per-device asynchronous task execution -------------
        stream_task_lists: list[list[StreamTask]] = context.empty_device_lists()
        remote_updates = [0] * context.num_devices
        total_transfer_bytes = 0
        total_processed_edges = 0
        engine_task_counts: dict[str, int] = {}

        # Devices drain their task queues concurrently; interleaving the
        # per-device priority orders round-robin keeps the global value
        # updates deterministic while modelling parallel progress.
        order = 0
        longest = max((len(tasks) for tasks in device_task_lists), default=0)
        for step in range(longest):
            for device, tasks in enumerate(device_task_lists):
                if step >= len(tasks):
                    continue
                task = tasks[step]
                shard = context.sharding[device]
                processed_edges, remote_count = self._execute_task(task, program, state, pending, shard)
                outcome = self._account_task_transfer(task, shared)
                kernel_time = self.kernel_model.kernel_time(processed_edges, num_kernels=1)
                engine = ENGINE_VALUE[task.engine]
                stream_task_lists[device].append(
                    StreamTask(
                        name=task,  # its label is formatted only if a trace reads it
                        engine=engine,
                        cpu_time=outcome.cpu_time,
                        transfer_time=outcome.transfer_time,
                        kernel_time=kernel_time,
                        overlapped_transfer=outcome.overlapped,
                        priority=float(order),
                    )
                )
                order += 1
                remote_updates[device] += remote_count
                total_transfer_bytes += outcome.bytes_transferred
                total_processed_edges += processed_edges
                engine_task_counts[engine] = engine_task_counts.get(engine, 0) + 1

        stats = IterationStats(
            index=iteration,
            time=0.0,
            active_vertices=active_vertex_count,
            active_edges=active_edge_count,
            transfer_bytes=total_transfer_bytes,
            processed_edges=total_processed_edges,
            engine_partitions=selection.counts(),
            engine_tasks=engine_task_counts,
        )
        return IterationPlan(
            stats=stats,
            device_tasks=stream_task_lists,
            remote_updates=remote_updates,
            overhead_time=generation_overhead,
        )

    @staticmethod
    def _discount_on_device_filter(
        costs, cache, shared: SharedTransferState | None
    ):
        """Zero the filter cost of partitions already in device memory.

        The cache-aware cost-model hook (adaptive policies only): a
        cache-resident partition — or one already shipped by a peer
        query this super-iteration — costs nothing to read through the
        filter path, so the selector sees a zero filter cost and never
        pays compaction or zero-copy for bytes a device already holds.
        This is the batch-aware pricing: query A's ship makes the
        filter engine free for queries B..K planning later in the same
        super-iteration.
        """
        free_mask = cache.resident.copy()
        if shared is not None and shared.shipped:
            free_mask[list(shared.shipped)] = True
        if not free_mask.any():
            return costs
        return replace(costs, filter_cost=np.where(free_mask, 0.0, costs.filter_cost))

    def _force_resident_filter(self, selection: SelectionResult) -> SelectionResult:
        """Pin resident partitions to the filter engine.

        A partition resident in its device's memory needs no per-iteration
        transfer at all; compacting or zero-copy-reading it would move
        bytes it already holds.  The filter path prices it correctly:
        one whole-partition copy on first touch (a miss under adaptive
        policies), free afterwards (:meth:`_account_task_transfer`).
        Cacheless sessions make this the identity.
        """
        cache = self.context.cache
        if cache is None or not cache.resident.any():
            return selection
        codes = selection.codes.copy()
        codes[cache.resident & (codes >= 0)] = FILTER
        return SelectionResult(codes=codes)

    def _device_tasks(
        self,
        shard: DeviceShard,
        selection: SelectionResult,
        pending: np.ndarray,
        active_ids: np.ndarray,
        program: VertexProgram,
        state: ProgramState,
    ) -> list[ScheduledTask]:
        """Combine and prioritise one device's shard-local tasks."""
        if shard.num_partitions == 0:
            return []
        if shard.num_partitions == self.partitioning.num_partitions:
            # The shard spans the whole partitioning (single-device case):
            # no masking needed.
            shard_selection, shard_active = selection, active_ids
        else:
            codes = np.full_like(selection.codes, -1)
            shard_range = slice(shard.partition_start, shard.partition_end)
            codes[shard_range] = selection.codes[shard_range]
            shard_selection = SelectionResult(codes=codes)
            shard_active = active_ids[
                np.searchsorted(active_ids, shard.vertex_start) : np.searchsorted(active_ids, shard.vertex_end)
            ]
        tasks = self.combiner.combine(self.partitioning, shard_selection, pending, active_ids=shard_active)
        return self.priority.prioritize(tasks, program, state)

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------
    def _task_vertex_ranges(self, task: ScheduledTask) -> list[tuple[int, int]]:
        """Contiguous ``[start, end)`` vertex ranges covered by the task.

        Partitions hold consecutive vertex ranges and ``partition_indices``
        is ascending, so adjacent partitions merge into one range.  The
        ranges replace the per-task ``|V|``-sized boolean masks the seed
        engine allocated: every frontier query below is a slice view plus
        ``nonzero`` on the slice, i.e. O(range size) not O(|V|).
        """
        starts, ends = self._vertex_start, self._vertex_end
        ranges: list[tuple[int, int]] = []
        for index in task.partition_indices:
            if ranges and ranges[-1][1] == starts[index]:
                ranges[-1] = (ranges[-1][0], ends[index])
            else:
                ranges.append((starts[index], ends[index]))
        return ranges

    @staticmethod
    def _pending_in_ranges(pending: np.ndarray, ranges: list[tuple[int, int]]) -> np.ndarray:
        """Sorted pending vertex ids inside the given ranges (slice-local scan)."""
        if len(ranges) == 1:
            start, end = ranges[0]
            return pending[start:end].nonzero()[0] + start
        chunks = [pending[start:end].nonzero()[0] + start for start, end in ranges]
        return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)

    def _execute_task(
        self,
        task: ScheduledTask,
        program: VertexProgram,
        state: ProgramState,
        pending: np.ndarray,
        shard: DeviceShard,
    ) -> tuple[int, int]:
        """Run one task's vertex program; returns (edges processed, remote updates).

        Remote updates are activation messages for vertices owned by
        another shard — each becomes one ``(index entry, value)`` delta in
        the iteration's boundary exchange (always zero on single-device
        sessions, where the one shard owns everything).
        """
        graph = self.graph
        count_remote = self.context.is_multi_device
        ranges = self._task_vertex_ranges(task)

        # Asynchronous semantics: process whatever is pending in this
        # task's partitions *now*, including activations produced by tasks
        # scheduled earlier in the same iteration.
        first_round = self._pending_in_ranges(pending, ranges)
        if first_round.size == 0:
            return 0, 0
        pending[first_round] = False
        processed_edges = int(graph.out_degrees[first_round].sum())
        remote_count = 0
        newly_active = program.process(graph, state, first_round)
        if newly_active.size:
            pending[newly_active] = True
            if count_remote:
                remote_count += shard.count_remote(newly_active)

        if not self.options.recompute_loaded:
            return processed_edges, remote_count

        # Re-process the loaded subgraph once (Section VI-A): for filter
        # tasks the whole partition is resident on the GPU, for compaction
        # and zero-copy only the originally active vertices' edges are.
        if task.engine == EngineKind.EXP_FILTER:
            second_round = self._pending_in_ranges(pending, ranges)
        else:
            second_round = first_round[pending[first_round]]
        if second_round.size:
            pending[second_round] = False
            processed_edges += int(graph.out_degrees[second_round].sum())
            newly_active = program.process(graph, state, second_round)
            if newly_active.size:
                pending[newly_active] = True
                if count_remote:
                    remote_count += shard.count_remote(newly_active)
        return processed_edges, remote_count

    # ------------------------------------------------------------------
    # Transfer accounting
    # ------------------------------------------------------------------
    def _account_transfer(self, task: ScheduledTask):
        """Price the data movement of one task with its transfer engine."""
        indices = task.partition_indices
        # active_vertices is sorted, so each partition's slice is found by
        # bisection instead of two boolean compares over the whole array.
        boundaries = [self._vertex_start[index] for index in indices]
        boundaries.append(self._vertex_end[indices[-1]])
        cuts = np.searchsorted(task.active_vertices, boundaries)
        partitions = [self._partitions[index] for index in indices]
        return self.engines[task.engine].transfer_task(partitions, task.active_vertices, cuts)

    def _account_task_transfer(
        self, task: ScheduledTask, shared: SharedTransferState | None = None
    ) -> TransferOutcome:
        """Price one task's data movement, skipping already-on-device data.

        Filter tasks may cover partitions that are cache-resident (free
        reads — a one-off first-touch copy under the static policy, an
        admission after a billed miss under the adaptive ones) or, under
        the batch runner, already shipped by another query this
        super-iteration.  Every partition inside a task holds at least
        one active vertex, so the billable filter cost is simply the
        per-partition copy sum — identical to
        :meth:`~repro.transfer.explicit_filter.ExplicitFilterEngine`'s
        whole-partition pricing.  Compaction and zero-copy transfers are
        query-specific and never shareable; resident partitions never
        choose them (:meth:`_force_resident_filter`).
        """
        cache = self.context.cache
        if task.engine != EngineKind.EXP_FILTER or (cache is None and shared is None):
            return self._account_transfer(task)
        if cache is not None:
            billable = cache.claim_billable(task.partition_indices, shared)
        else:
            billable = shared.claim_partitions(task.partition_indices, self._edge_bytes.__getitem__)
        bytes_total = 0
        transfer_time = 0.0
        for index in billable:
            bytes_total += self._edge_bytes[index]
            transfer_time += self._copy_seconds[index]
        return TransferOutcome(
            engine=EngineKind.EXP_FILTER,
            bytes_transferred=bytes_total,
            transfer_time=transfer_time,
            cpu_time=0.0,
            overlapped=False,
        )
