"""Device-agnostic execution context: one topology object per session.

:class:`ExecutionContext` bundles everything the execution layer needs to
know about *where* work runs — the device count, the contiguous
partition-range shards, the optional per-device shard residency and the
scheduler that places per-device task lists onto the shared host
resources.  It is constructed once per system (or once per batch session)
and handed to the :class:`~repro.runtime.driver.IterationDriver`.

``num_devices == 1`` is not a separate code path: the context simply
holds one shard covering the whole partitioning, every frontier split
returns one slice, every remote-activation count is zero and the
scheduler emits no boundary-synchronisation entry.  That makes the
sharded execution path bitwise identical to the historical single-device
engines while deleting their ``run``/``_run_multi`` twin code.

:class:`MultiDeviceScheduler` (formerly ``repro.sim.multi_gpu``) places
every device's tasks in one scan (:func:`~repro.sim.streams.schedule_tasks`).
The devices contend for two *shared host* resources — the CPU compaction
engine and the host PCIe complex (every explicit copy and zero-copy read
crosses the same root complex) — while each device brings its own GPU
and its own CUDA streams.  Tasks from different devices are interleaved
in global priority order, which models all devices making progress
concurrently.

Every multi-device iteration ends with a **boundary synchronisation
phase**: devices exchange the delta updates they produced for vertices
owned by other shards (one ``(compacted-index entry, value)`` message per
remote activation) plus a convergence-flag all-reduce.  The exchange runs
all-to-all over dedicated inter-GPU links, so its duration is the fixed
interconnect latency plus the busiest sender's bytes at the interconnect
bandwidth.  The phase appears in the iteration timeline as one collective
entry on the ``"interconnect"`` resource, after every device's last task.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import Partitioning, ShardedPartitioning
from repro.sim.config import HardwareConfig
from repro.sim.events import Timeline
from repro.cache.manager import CacheManager
from repro.core.backends import KernelBackend, active_backend, resolve_backend
from repro.obs.tracer import NULL_TRACER
from repro.sim.kernel import KernelModel
from repro.sim.streams import StreamTask, schedule_tasks
from repro.transfer.residency import ShardResidency

__all__ = ["ExecutionContext", "MultiDeviceScheduler"]


class MultiDeviceScheduler:
    """Schedules per-device task lists onto N GPUs sharing one host."""

    def __init__(self, config: HardwareConfig, num_devices: int | None = None):
        self.config = config
        self.num_devices = num_devices if num_devices is not None else config.num_devices
        if self.num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        #: Multiplicative boundary-exchange slowdown (>= 1; the fault
        #: injector's ``interconnect-degrade`` raises it mid-run).
        self.interconnect_slowdown = 1.0

    # ------------------------------------------------------------------
    # Boundary synchronisation
    # ------------------------------------------------------------------
    def sync_duration(self, sync_bytes_per_device: Sequence[int] | None) -> float:
        """Seconds of the per-iteration boundary synchronisation phase.

        Single-device runs synchronise nothing.  Multi-device runs always
        pay the interconnect latency (barrier + convergence all-reduce)
        plus the busiest sender's outgoing delta bytes over its link.
        """
        if self.num_devices <= 1:
            return 0.0
        busiest = max(sync_bytes_per_device, default=0) if sync_bytes_per_device else 0
        return self.interconnect_slowdown * (
            self.config.interconnect_latency + busiest / self.config.interconnect_bandwidth
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        device_tasks: Sequence[list[StreamTask]],
        sync_bytes_per_device: Sequence[int] | None = None,
    ) -> Timeline:
        """Schedule every device's tasks plus the boundary sync phase.

        ``device_tasks[d]`` is device ``d``'s task list.  Tasks are
        placed in global ``(priority, submission order, device)`` order
        onto each device's own streams/GPU while the ``cpu`` and ``pcie``
        resources are shared across all devices.
        """
        if len(device_tasks) != self.num_devices:
            raise ValueError(
                "expected %d device task lists, got %d" % (self.num_devices, len(device_tasks))
            )
        sync = self.sync_duration(sync_bytes_per_device) if self.num_devices > 1 else None
        return schedule_tasks(device_tasks, self.config.num_streams, sync)


class ExecutionContext:
    """Devices, shards, device-memory cache and schedulers of one session.

    Parameters
    ----------
    graph / partitioning / config:
        The (possibly preprocessed) graph the session executes on, its
        edge partitioning, and the hardware platform.
    residency_enabled:
        Whether multi-device sessions pin leading shard partitions into
        device memory under the default ``static-prefix`` policy
        (:class:`~repro.transfer.residency.ShardResidency`).  Static
        single-device sessions are always residency-free, exactly as in
        the paper: its testbed graphs oversubscribe one GPU's memory, so
        partitions churn and static caching buys nothing there.
    cache_policy:
        Eviction policy of the device-memory cache subsystem
        (:mod:`repro.cache`).  ``"static-prefix"`` (default) reproduces
        the historical behaviour bitwise; the adaptive policies
        (``"lru"``, ``"frontier-aware"``) start empty, admit shipped
        partitions and evict at iteration boundaries — and are active
        at *any* device count, including one.
    cache_budget:
        Per-device cache budget in bytes (default: the device's
        edge-cache memory, ``config.gpu_memory_bytes``).
    backend:
        Compute backend for the kernel layer (a name, a
        :class:`~repro.core.backends.KernelBackend` instance, or ``None``).
        ``None`` (default) leaves the session on the process-wide active
        backend (``REPRO_BACKEND`` env override, ``numpy`` otherwise); an
        explicit value pins this session's kernels — the driver scopes it
        around every planned iteration.  Resolution happens here, at
        construction, so an unknown/unavailable backend fails the session
        up front (and JIT warm-up cost lands here, never in a timed
        region).
    """

    def __init__(
        self,
        graph: CSRGraph,
        partitioning: Partitioning,
        config: HardwareConfig,
        residency_enabled: bool = True,
        cache_policy: str = "static-prefix",
        cache_budget: int | None = None,
        backend: str | KernelBackend | None = None,
    ):
        self.graph = graph
        self.partitioning = partitioning
        self.config = config
        self.backend: KernelBackend | None = (
            resolve_backend(backend) if backend is not None else None
        )
        self.num_devices = config.num_devices
        self.sharding = ShardedPartitioning(partitioning, config.num_devices)
        self.cache: CacheManager | None = None
        if cache_policy != "static-prefix":
            # Adaptive policies replace static residency wholesale and
            # apply at any device count.
            self.cache = CacheManager(
                partitioning, self.sharding, config,
                policy=cache_policy, budget_bytes=cache_budget,
            )
        elif self.is_multi_device and residency_enabled:
            self.cache = ShardResidency(
                partitioning, self.sharding, config, budget_bytes=cache_budget
            )
        self.scheduler = MultiDeviceScheduler(config)
        self.kernel_model = KernelModel(config)
        #: Span sink (no-op unless a service/CLI installs a recording
        #: tracer; see :mod:`repro.obs`).
        self.tracer = NULL_TRACER
        #: Devices lost to injected faults, in loss order.
        self.lost_devices: list[int] = []
        #: Set when the last device died and execution degraded to the
        #: host CPU (the final fallback rung: queries survive, slowly).
        self.host_fallback = False
        #: Multiplier applied to scheduled makespans (1.0 normally; the
        #: GPU/CPU edge-throughput ratio under host fallback).
        self.time_scale = 1.0

    @property
    def is_multi_device(self) -> bool:
        """Whether more than one device participates in this session."""
        return self.num_devices > 1

    @property
    def backend_name(self) -> str:
        """Name of the backend this session's kernels run on.

        Falls back to the process-wide active backend when the session
        was built without an explicit one.
        """
        backend = self.backend if self.backend is not None else active_backend()
        return backend.name

    @property
    def residency(self) -> CacheManager | None:
        """The static residency cache (``None`` under adaptive policies).

        Kept as the historical name for the ``static-prefix`` resident
        sets; code that handles both modes should use :attr:`cache`.
        """
        if self.cache is not None and not self.cache.adaptive:
            return self.cache
        return None

    @property
    def cache_policy(self) -> str:
        """Active cache policy name (``static-prefix`` when cacheless)."""
        return "static-prefix" if self.cache is None else self.cache.policy_name

    @property
    def num_resident_partitions(self) -> int:
        """Partitions resident in device memory across all shards."""
        return 0 if self.cache is None else self.cache.num_resident

    def reset(self) -> None:
        """Forget cross-run cache state (residency flags, adaptive contents)."""
        if self.cache is not None:
            self.cache.reset()

    # ------------------------------------------------------------------
    # Degraded modes (fault recovery)
    # ------------------------------------------------------------------
    def lose_device(self, device: int) -> None:
        """Permanently remove one device; re-shard onto the survivors.

        The lost shard's partitions are remapped by rebuilding the
        byte-balanced contiguous sharding over the surviving device
        count; the cache manager is re-sharded **in place** (callers
        keep their reference) with all residency invalidated — the lost
        device's memory is gone, and the survivors' contents no longer
        match their new shards.  Losing the last device degrades to
        host fallback: the session keeps executing with kernels priced
        at CPU edge throughput and no device cache.
        """
        if self.host_fallback:
            raise RuntimeError("no device left to lose: session already runs on the host")
        if not 0 <= device < self.num_devices:
            raise ValueError(
                "device %d outside the %d live device(s)" % (device, self.num_devices)
            )
        self.lost_devices.append(device)
        survivors = self.num_devices - 1
        if survivors == 0:
            self.host_fallback = True
            self.time_scale = self.config.gpu_edge_throughput / self.config.cpu_edge_throughput
            if self.cache is not None:
                self.cache.invalidate()
                self.cache.set_budget(0)
            return
        self.num_devices = survivors
        self.sharding = ShardedPartitioning(self.partitioning, survivors)
        slowdown = self.scheduler.interconnect_slowdown
        self.scheduler = MultiDeviceScheduler(self.config, num_devices=survivors)
        self.scheduler.interconnect_slowdown = slowdown
        if self.cache is not None:
            self.cache.reshard(self.sharding)

    def shrink_cache_budget(self, factor: float) -> None:
        """Mid-run memory pressure: scale the per-device cache budget.

        Silently a no-op on cacheless sessions (there is no budget to
        squeeze; the kernels already re-ship everything every iteration).
        """
        if self.cache is not None:
            self.cache.shrink_budget(factor)

    def degrade_interconnect(self, factor: float) -> None:
        """Slow the boundary exchange down by ``factor`` (>= 1)."""
        if factor < 1.0:
            raise ValueError("interconnect degradation factor must be >= 1")
        self.scheduler.interconnect_slowdown *= factor

    # ------------------------------------------------------------------
    # Frontier topology helpers
    # ------------------------------------------------------------------
    def split_frontier(self, active_ids: np.ndarray) -> list[np.ndarray]:
        """Slice a sorted active-vertex array into one view per device."""
        return self.sharding.split_sorted_vertices(active_ids)

    def count_remote(self, vertices: np.ndarray, device: int) -> int:
        """Remote-activation messages ``device`` emits for ``vertices``.

        Zero on single-device sessions (the one shard owns everything),
        so callers never branch on the device count.
        """
        if not self.is_multi_device:
            return 0
        return self.sharding[device].count_remote(vertices)

    def sync_bytes(self, remote_updates: Sequence[int]) -> list[int]:
        """Per-device outgoing boundary-delta bytes from message counts."""
        per_update = self.config.boundary_update_bytes
        return [count * per_update for count in remote_updates]

    def empty_device_lists(self) -> list[list]:
        """One empty per-device list per device (task/accumulator shells)."""
        return [[] for _ in range(self.num_devices)]

    def schedule(
        self,
        device_tasks: Sequence[list[StreamTask]],
        sync_bytes_per_device: Sequence[int] | None = None,
    ) -> Timeline:
        """Schedule per-device task lists plus the boundary sync phase."""
        return self.scheduler.schedule(device_tasks, sync_bytes_per_device)
