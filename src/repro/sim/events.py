"""Timeline records produced by the multi-stream scheduler.

The scheduler in :mod:`repro.sim.streams` assigns every task's stages
(CPU compaction, PCIe transfer, GPU kernel) to simulated resources; the
resulting :class:`TimelineEntry` records are what the per-iteration
breakdown figures (Figure 3b/3c, Figure 7c/7d) aggregate.

Multi-GPU runs add two things to the same records: every entry carries
the ``device`` that executed it, and each iteration ends with one
boundary-synchronisation entry occupying the ``"interconnect"`` resource
(the inter-GPU delta exchange; see :mod:`repro.runtime.context`).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["StageSpan", "TimelineEntry", "Timeline", "INTERCONNECT_RESOURCE", "SYNC_ENGINE"]

#: Resource name of the inter-GPU interconnect in multi-device timelines.
INTERCONNECT_RESOURCE = "interconnect"

#: Engine label of the per-iteration boundary-synchronisation entry.
SYNC_ENGINE = "sync"


class StageSpan(NamedTuple):
    """One resource occupancy interval: ``[start, end)`` seconds on ``resource``."""

    resource: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Length of the span in seconds."""
        return self.end - self.start


class TimelineEntry(NamedTuple):
    """Scheduling record of one task (an immutable record, cheap to build).

    ``device`` is the GPU the task ran on (0 on single-device runs; -1
    marks collective entries such as the boundary synchronisation, which
    involve every device).  ``owner`` is the index of the batch query the
    task belongs to (-1 for unowned tasks and collective entries).
    """

    name: str
    engine: str
    stream: int
    spans: tuple[StageSpan, ...]
    device: int = 0
    owner: int = -1

    @property
    def start(self) -> float:
        """When the first stage of the task started."""
        return min(span.start for span in self.spans) if self.spans else 0.0

    @property
    def end(self) -> float:
        """When the last stage of the task finished."""
        return max(span.end for span in self.spans) if self.spans else 0.0

    def time_on(self, resource: str) -> float:
        """Total seconds this task occupied ``resource``."""
        return sum(span.duration for span in self.spans if span.resource == resource)


class Timeline:
    """The full schedule of one iteration: aggregates from the scheduler's scan,
    per-task :attr:`entries` appended by ``build(entries)`` only when first read."""

    def __init__(self, makespan=0.0, busy=None, finish=None, build=None):
        #: End-to-end wall-clock time of the schedule.
        self.makespan = makespan
        self._busy = busy or {}
        #: Latest task end per owning batch query (absent: stage-less owners).
        self.finish: dict[int, float] = finish or {}
        self._build = build
        self._entries: list[TimelineEntry] | None = None

    @property
    def entries(self) -> list[TimelineEntry]:
        """One record per task in placement order, then any collective entry."""
        if self._entries is None:
            self._entries = []
            if self._build is not None:
                self._build(self._entries)
        return self._entries

    def busy_time(self, resource: str) -> float:
        """Total busy seconds of a resource across all tasks."""
        return self._busy.get(resource, 0)

    def per_engine_time(self) -> dict[str, float]:
        """Sum of task durations grouped by transfer engine."""
        totals: dict[str, float] = {}
        for entry in self.entries:
            totals[entry.engine] = totals.get(entry.engine, 0.0) + (entry.end - entry.start)
        return totals

    def device_entries(self, device: int) -> list[TimelineEntry]:
        """The entries that ran on ``device`` (excluding collective entries)."""
        return [entry for entry in self.entries if entry.device == device]

    @property
    def sync_time(self) -> float:
        """Total interconnect occupancy (boundary synchronisation phases)."""
        return self.busy_time(INTERCONNECT_RESOURCE)
