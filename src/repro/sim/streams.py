"""Flexible multi-stream scheduling (Section VI-B, Figure 6).

HyTGraph runs the three processing engines on multiple CUDA streams so
that CPU compaction, PCIe data transfer and GPU kernels of *different*
tasks overlap.  This module reproduces that behaviour with a small
deterministic list scheduler over three exclusive resources:

``cpu``   — the host compaction engine (ExpTM-compaction tasks only)
``pcie``  — the host-to-GPU interconnect (every task that moves bytes)
``gpu``   — the compute kernel

Each :class:`StreamTask` carries the per-stage durations computed by the
transfer engines and the kernel model.  Tasks are assigned to streams in
priority order; stages of one task run in order (compact -> transfer ->
kernel), different streams' stages overlap whenever their resources are
free.  Zero-copy tasks overlap their transfer with their kernel implicitly
(the GPU threads stall on PCIe reads), so they occupy the GPU and PCIe for
``max(transfer, kernel)`` simultaneously.

One scan (:func:`schedule_tasks`) places every schedule and computes the
:class:`~repro.sim.events.Timeline` aggregates as it goes; the makespan
is the simulated iteration time and the (lazily built) entries feed the
breakdown figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Sequence

from repro.sim.config import HardwareConfig
from repro.sim.events import INTERCONNECT_RESOURCE, SYNC_ENGINE, StageSpan, Timeline, TimelineEntry

__all__ = [
    "StreamTask", "StreamScheduler", "ResourceState", "Timeline", "TimelineEntry", "schedule_tasks",
]


@dataclass(slots=True)
class StreamTask:
    """One schedulable unit of work.

    Attributes
    ----------
    name:
        Label shown in timelines (usually the partition/task id), or an
        object whose ``label`` attribute holds it — read only when a
        timeline entry or fault event needs :attr:`label`.
    engine:
        Transfer engine name (``"ExpTM-F"``, ``"ExpTM-C"``, ``"ImpTM-ZC"``,
        ``"ImpTM-UM"`` or ``"CPU"``).
    cpu_time:
        Host compaction seconds (0 for non-compaction engines).
    transfer_time:
        PCIe seconds.
    kernel_time:
        GPU kernel seconds.
    overlapped_transfer:
        When True the transfer and kernel stages run concurrently on their
        two resources for ``max(transfer, kernel)`` seconds (zero-copy /
        unified-memory on-demand access); when False they are sequential
        (explicit copy then kernel).
    priority:
        Lower value = scheduled earlier (contribution-driven scheduling
        sets this).
    attempts:
        How many sends the task's transfer took (1 = clean; >1 means the
        fault injector drew transient failures and the retries/backoff
        are already folded into ``transfer_time``).
    owner:
        Index of the batch query the task belongs to inside a merged
        co-schedule (-1 = unowned).  Merged timelines report each owner's
        finish time, and :attr:`label` carries a ``q<owner>|`` prefix.
    """

    name: object
    engine: str
    cpu_time: float = 0.0
    transfer_time: float = 0.0
    kernel_time: float = 0.0
    overlapped_transfer: bool = False
    priority: float = 0.0
    attempts: int = 1
    owner: int = -1

    @property
    def label(self) -> str:
        """The name shown in timelines and fault events."""
        name = self.name if isinstance(self.name, str) else self.name.label
        return name if self.owner < 0 else "q%d|%s" % (self.owner, name)

    @property
    def serial_time(self) -> float:
        """Duration if the task ran alone with no overlap across stages."""
        if self.overlapped_transfer:
            return self.cpu_time + max(self.transfer_time, self.kernel_time)
        return self.cpu_time + self.transfer_time + self.kernel_time


@dataclass
class ResourceState:
    """When an exclusive simulated resource next becomes free.

    Caller-owned state for :meth:`StreamScheduler.place`: one ``cpu`` and
    one ``pcie`` state are shared by every device of a host, ``gpu``
    states are per device.
    """

    free_at: float = 0.0


class StreamScheduler:
    """Deterministic multi-stream list scheduler."""

    def __init__(self, config: HardwareConfig):
        self.config = config

    def schedule(self, tasks: list[StreamTask], num_streams: int | None = None) -> Timeline:
        """Schedule ``tasks`` onto streams and shared resources.

        Tasks are processed in ascending ``priority`` (ties broken by
        submission order, keeping the schedule deterministic).  Each stream
        runs its tasks back to back; the ``cpu``, ``pcie`` and ``gpu``
        resources serialise across streams, which is what creates the
        overlap benefit of Figure 6.
        """
        return schedule_tasks([tasks], self.config.num_streams if num_streams is None else num_streams)

    def place(
        self,
        task: StreamTask,
        stream_free: list[float],
        cpu: ResourceState,
        pcie: ResourceState,
        gpu: ResourceState,
        device: int = 0,
    ) -> TimelineEntry:
        """Place one task onto caller-owned streams and resources, advanced in place.

        A one-task run of the scheduling scan, so a loop over ``place`` in
        merge order reproduces :func:`schedule_tasks` entry for entry.
        """
        host, gpus = [cpu.free_at, pcie.free_at], {device: gpu.free_at}
        *_, placements = _place_all([(device, task)], {device: stream_free}, gpus, host)
        cpu.free_at, pcie.free_at = host
        gpu.free_at = gpus[device]
        return _entry(placements[0])

    def serial_time(self, tasks: list[StreamTask]) -> float:
        """Total time if every stage of every task ran back to back.

        The ratio ``serial_time / schedule(...).makespan`` quantifies how
        much the multi-stream overlap is worth; the single-stream ablation
        uses it.
        """
        return sum(task.serial_time for task in tasks)


def schedule_tasks(
    device_tasks: Sequence[Sequence[StreamTask]],
    num_streams: int,
    sync_duration: float | None = None,
) -> Timeline:
    """Place per-device task lists on ``num_streams`` streams per device.

    Tasks run in global ``(priority, submission position, device)``
    order; every device brings its own streams and GPU while the ``cpu``
    and ``pcie`` resources are one host's, shared by all devices.  A
    ``sync_duration`` appends the collective boundary-synchronisation
    entry on the interconnect after every task.  The aggregates come
    from one scan; the entry records are built from its placements on
    first read (with the task labels as they are then).
    """
    if num_streams <= 0:
        raise ValueError("num_streams must be positive")
    num_devices = len(device_tasks)
    if num_devices == 1:
        # A stable sort on priority alone keeps submission order on ties.
        ordered = [(0, task) for task in sorted(device_tasks[0], key=attrgetter("priority"))]
    else:
        keyed = [
            (task.priority, position, device, task)
            for device, tasks in enumerate(device_tasks)
            for position, task in enumerate(tasks)
        ]
        keyed.sort(key=itemgetter(0, 1, 2))
        ordered = [(device, task) for _, _, device, task in keyed]

    streams = [[0.0] * num_streams for _ in range(num_devices)]
    makespan, busy, finish, placements = _place_all(ordered, streams, [0.0] * num_devices, [0.0, 0.0])
    sync_start = makespan
    if sync_duration is not None:
        makespan = sync_start + sync_duration
        busy[INTERCONNECT_RESOURCE] = makespan - sync_start

    def build(entries: list[TimelineEntry]) -> None:
        entries.extend(map(_entry, placements))
        if sync_duration is not None:
            span = StageSpan(INTERCONNECT_RESOURCE, sync_start, makespan)
            entries.append(TimelineEntry("boundary-sync", SYNC_ENGINE, 0, (span,), device=-1))

    return Timeline(makespan, busy, finish, build=build)


def _entry(placement) -> TimelineEntry:
    """The timeline record of one ``(device, task, stream, spans)`` placement."""
    device, task, stream, spans = placement
    return TimelineEntry(task.label, task.engine, stream, tuple(map(StageSpan._make, spans)), device, task.owner)


def _place_all(ordered, stream_free, gpu_free, host_free):
    """Place ``(device, task)`` pairs in order; the one scheduling loop.

    ``stream_free[d]`` and ``gpu_free[d]`` are device ``d``'s stream and
    GPU free times, ``host_free`` the shared ``[cpu, pcie]`` free times;
    all advance in place.  Each task takes its device's earliest-free
    stream; each stage starts once the stream and its resource are free.
    Returns the makespan, busy seconds per resource, each owner's latest
    task end and one ``(device, task, stream, spans)`` placement per task.
    """
    cpu_free, pcie_free = host_free
    makespan = 0.0
    # Integer zeros: an idle resource reads 0, like a sum over no spans.
    busy_cpu = busy_pcie = busy_gpu = 0
    finish: dict[int, float] = {}
    placements = []
    for device, task in ordered:
        streams = stream_free[device]
        cursor = min(streams)
        stream = streams.index(cursor)
        cpu_time, transfer, kernel = task.cpu_time, task.transfer_time, task.kernel_time
        spans = []
        if cpu_time > 0:
            start = cpu_free if cpu_free > cursor else cursor
            cursor = cpu_free = start + cpu_time
            busy_cpu += cursor - start
            spans.append(("cpu", start, cursor))
        if task.overlapped_transfer:
            duration = kernel if kernel > transfer else transfer
            if duration > 0:
                start = cursor
                if pcie_free > start:
                    start = pcie_free
                if gpu_free[device] > start:
                    start = gpu_free[device]
                cursor = pcie_free = gpu_free[device] = start + duration
                if transfer > 0:
                    busy_pcie += (start + transfer) - start
                    spans.append(("pcie", start, start + transfer))
                if kernel > 0:
                    busy_gpu += (start + kernel) - start
                    spans.append(("gpu", start, start + kernel))
        else:
            if transfer > 0:
                start = pcie_free if pcie_free > cursor else cursor
                cursor = pcie_free = start + transfer
                busy_pcie += cursor - start
                spans.append(("pcie", start, cursor))
            if kernel > 0:
                start = gpu_free[device] if gpu_free[device] > cursor else cursor
                cursor = gpu_free[device] = start + kernel
                busy_gpu += cursor - start
                spans.append(("gpu", start, cursor))
        streams[stream] = cursor
        # A task with stages ends at ``cursor``; one without leaves its
        # stream's free time, never later than the makespan so far.
        if cursor > makespan:
            makespan = cursor
        owner = task.owner
        if owner >= 0 and spans and cursor > finish.get(owner, 0.0):
            finish[owner] = cursor
        placements.append((device, task, stream, spans))
    host_free[0], host_free[1] = cpu_free, pcie_free
    return makespan, {"cpu": busy_cpu, "pcie": busy_pcie, "gpu": busy_gpu}, finish, placements
