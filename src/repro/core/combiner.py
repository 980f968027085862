"""Task combination (Section V-B, Algorithm 1 lines 15-24).

HyTGraph decouples *graph partitioning* (small 32 MB partitions so the
cost analysis is fine grained) from *task scheduling* (large tasks so the
per-kernel-launch and per-transfer overheads stay negligible):

* consecutive partitions that selected **ExpTM-filter** are merged into
  tasks of at most ``k`` partitions (k = 4 in the paper);
* every partition that selected **ExpTM-compaction** contributes its
  active vertices to one single compaction task whose packed output is
  shipped with one explicit copy;
* every partition that selected **ImpTM-zero-copy** contributes its
  active vertices to one single zero-copy kernel, which lets the implicit
  transfer overlap one big kernel instead of many tiny ones.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.selection import COMPACTION, ENGINES, FILTER, ZERO_COPY, SelectionResult
from repro.graph.partition import Partitioning
from repro.transfer.base import EngineKind

__all__ = ["ScheduledTask", "TaskCombiner"]

DEFAULT_COMBINE_FACTOR = 4

#: Plain string value of each engine kind (``.value`` is a slow enum property).
ENGINE_VALUE = {kind: kind.value for kind in EngineKind}


class ScheduledTask:
    """One unit of work handed to the asynchronous task scheduler.

    Attributes
    ----------
    engine:
        The transfer engine all member partitions selected.
    partition_indices:
        The partitions merged into this task (consecutive for filter
        tasks; arbitrary for the combined compaction / zero-copy tasks).
    active_vertices:
        Active vertex ids covered by the task, in ascending order.
    priority:
        Scheduling priority (lower runs earlier); filled in by the
        contribution-driven scheduler.
    label:
        Display name; formatted from the engine and partitions on first
        read unless given.
    """

    def __init__(
        self,
        engine: EngineKind,
        partition_indices: list[int],
        active_vertices: np.ndarray,
        priority: float = 0.0,
        label: str = "",
    ):
        self.engine = engine
        self.partition_indices = partition_indices
        self.active_vertices = active_vertices
        self.priority = priority
        self._label = label

    @property
    def label(self) -> str:
        """Display name, e.g. ``ExpTM-F[3,4,5]``."""
        if not self._label:
            self._label = _format_label(self.engine, tuple(self.partition_indices))
        return self._label

    @property
    def num_active_vertices(self) -> int:
        """Number of active vertices the task processes."""
        return int(self.active_vertices.size)


@lru_cache(maxsize=4096)
def _format_label(engine: EngineKind, partition_indices: tuple[int, ...]) -> str:
    """A task label; traces name every task and partition runs recur."""
    return "%s[%s]" % (ENGINE_VALUE[engine], ",".join(map(str, partition_indices)))


class TaskCombiner:
    """Merges per-partition engine selections into scheduler tasks."""

    def __init__(self, combine_factor: int = DEFAULT_COMBINE_FACTOR, enabled: bool = True):
        if combine_factor <= 0:
            raise ValueError("combine_factor must be positive")
        self.combine_factor = combine_factor
        #: When disabled every partition becomes its own task — the
        #: "Hybrid" (no TC) configuration of the Figure 8 ablation.
        self.enabled = enabled

    def combine(
        self,
        partitioning: Partitioning,
        selection: SelectionResult,
        active_mask: np.ndarray,
        active_ids: np.ndarray | None = None,
    ) -> list[ScheduledTask]:
        """Build the task list for one iteration.

        ``active_mask`` is the frontier bitmap; callers that already hold
        the sorted active vertex ids can pass them as ``active_ids`` (the
        mask is then not scanned).
        """
        if active_ids is None:
            active_ids = np.flatnonzero(np.asarray(active_mask, dtype=bool))
        # Partitions hold consecutive vertex ranges and active_ids is
        # sorted, so one bisection of the partition starts splits the
        # frontier; any run of consecutive partitions' actives is then one
        # plain slice view.
        cuts = active_ids.searchsorted(partitioning.vertex_starts).tolist()
        cuts.append(active_ids.size)
        codes = selection.codes

        if not self.enabled:
            return [
                ScheduledTask(ENGINES[codes[index]], [index], active_ids[cuts[index] : cuts[index + 1]])
                for index in (codes >= 0).nonzero()[0].tolist()
            ]

        # --- ExpTM-filter: runs of consecutive partitions, cut every k ----
        filters = (codes == FILTER).nonzero()[0]
        run_starts = (((filters[1:] - filters[:-1]) != 1).nonzero()[0] + 1).tolist()
        filters = filters.tolist()
        tasks: list[ScheduledTask] = []
        for run_start, run_end in zip([0, *run_starts], [*run_starts, len(filters)]):
            for first in range(run_start, run_end, self.combine_factor):
                members = filters[first : min(first + self.combine_factor, run_end)]
                vertices = active_ids[cuts[members[0]] : cuts[members[-1] + 1]]
                tasks.append(ScheduledTask(EngineKind.EXP_FILTER, members, vertices))

        # --- ExpTM-compaction, then ImpTM-zero-copy: one task each --------
        for code, label in ((COMPACTION, "ExpTM-C[combined:%d]"), (ZERO_COPY, "ImpTM-ZC[combined:%d]")):
            members = (codes == code).nonzero()[0].tolist()
            if members:
                # Partition indices ascend and partitions hold consecutive
                # vertex ranges, so the concatenation is already sorted.
                vertices = np.concatenate([active_ids[cuts[index] : cuts[index + 1]] for index in members])
                tasks.append(ScheduledTask(ENGINES[code], members, vertices, label=label % len(members)))
        return tasks
