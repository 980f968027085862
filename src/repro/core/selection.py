"""Cost-aware transfer-engine selection (Algorithm 1, lines 2-13).

Given the per-partition cost estimates of
:class:`~repro.core.cost_model.CostModel`, HyTGraph picks one engine per
active partition:

* choose **ExpTM-compaction** when ``Tec_i < α·Tef_i`` *and*
  ``Tec_i < β·Tiz_i`` — the first condition is Subway's 80 % observation
  (α = 0.8), the second (β = 0.4) prefers compaction over zero-copy for
  partitions with many low-degree active vertices whose unsaturated
  requests would waste PCIe bandwidth;
* otherwise choose **ImpTM-zero-copy** if ``Tiz_i < Tef_i``;
* otherwise choose **ExpTM-filter**.

In the real system this selection runs on the GPU so that only the result
crosses PCIe; the simulated runtime charges that device-side scan via
:meth:`repro.sim.kernel.KernelModel.device_scan_time`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cost_model import PartitionCosts
from repro.transfer.base import EngineKind

__all__ = ["SelectionThresholds", "SelectionResult", "EngineSelector", "ENGINES"]

DEFAULT_ALPHA = 0.8
DEFAULT_BETA = 0.4

#: Engine of each selection code; code -1 marks an inactive partition.
ENGINES = tuple(EngineKind)
FILTER, COMPACTION, ZERO_COPY = map(
    ENGINES.index, (EngineKind.EXP_FILTER, EngineKind.EXP_COMPACTION, EngineKind.IMP_ZERO_COPY)
)


@dataclass(frozen=True)
class SelectionThresholds:
    """The α and β thresholds of Section V-A."""

    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")


class SelectionResult:
    """Chosen engine per partition for one iteration.

    ``codes[i]`` is partition ``i``'s engine as an int8 index into
    :data:`ENGINES`, -1 for inactive partitions.  HyTGraph only mixes
    three engines (unified memory is never selected by the hybrid
    runtime — Section IV explains why it is excluded as a baseline
    engine).  Build one from ``choices`` (one
    :class:`~repro.transfer.base.EngineKind` or ``None`` per partition)
    or directly from ``codes``.
    """

    def __init__(self, choices=None, codes: np.ndarray | None = None):
        if codes is None:
            codes = np.array([-1 if c is None else ENGINES.index(c) for c in choices], np.int8)
        self.codes = codes

    @property
    def choices(self) -> list[EngineKind | None]:
        """The engine of every partition (``None`` when inactive)."""
        return [ENGINES[code] if code >= 0 else None for code in self.codes.tolist()]

    def partitions_using(self, engine: EngineKind) -> list[int]:
        """Indices of partitions that selected ``engine``."""
        return np.flatnonzero(self.codes == ENGINES.index(engine)).tolist()

    def counts(self) -> dict[str, int]:
        """Number of active partitions per selected engine (Figure 7a/b).

        Keys appear in order of each engine's first partition.
        """
        active = self.codes[self.codes >= 0]
        tallies = np.bincount(active, minlength=len(ENGINES)).tolist()
        return {ENGINES[code].value: tallies[code] for code in dict.fromkeys(active.tolist())}


class EngineSelector:
    """Applies the α/β selection rule to per-partition cost estimates."""

    def __init__(self, thresholds: SelectionThresholds | None = None):
        self.thresholds = thresholds or SelectionThresholds()

    def select(self, costs: PartitionCosts) -> SelectionResult:
        """Pick the most cost-efficient engine for every active partition."""
        tef, tec, tiz = costs.filter_cost, costs.compaction_cost, costs.zero_copy_cost
        codes = np.where(tiz < tef, ZERO_COPY, FILTER).astype(np.int8)
        codes[(tec < self.thresholds.alpha * tef) & (tec < self.thresholds.beta * tiz)] = COMPACTION
        codes[costs.active_edges <= 0] = -1
        return SelectionResult(codes=codes)

    def select_single(self, filter_cost: float, compaction_cost: float, zero_copy_cost: float) -> EngineKind:
        """Selection rule for a single partition (convenience for tests)."""
        costs = PartitionCosts(
            filter_cost=np.array([filter_cost]),
            compaction_cost=np.array([compaction_cost]),
            zero_copy_cost=np.array([zero_copy_cost]),
            active_vertices=np.array([1]),
            active_edges=np.array([1]),
        )
        return self.select(costs).choices[0]
