"""The numpy kernel backend — always available, the bitwise reference.

Performance architecture
------------------------
Every push-based vertex program in this reproduction boils down to one
scatter-reduce: a batch of ``(destination, value)`` messages is combined
into a per-vertex state array, either by **minimum** (SSSP, BFS, CC — value
replacement) or by **sum** (PageRank, PHP — value accumulation), followed by
*activation detection* — which destinations changed enough to join the next
frontier.  The seed implementation expressed this as ``np.minimum.at`` /
``np.add.at`` plus a ``previous``-value snapshot and an
``np.unique(destinations[changed])`` over the **per-message** arrays.  That
``np.unique`` (a sort/hash over up to ``|E|`` elements per call) dominates
end-to-end runtime on dense frontiers; on NumPy builds without indexed
ufunc loops (< 1.25) the ``ufunc.at`` calls are a second 10-100x soft spot.

Two orthogonal dispatch decisions pick the fastest exact formulation:

* **Frontier density.**  A batch with at least one message per
  :data:`DENSE_FRONTIER_FACTOR` vertices is *dense*: it amortises
  O(|V|)-bitmap work, so the activation set comes from a touched-vertex
  bitmap (no sort at all).  Sparse batches never touch |V|-sized
  temporaries; their activation set comes from per-message comparison
  (indexed-ufunc builds) or from the sorted segment structure (portable
  path).
* **Indexed ufunc loops.**  NumPy >= 1.25 ships indexed inner loops that
  make ``ufunc.at`` run at memcpy-like speed, so the raw scatter delegates
  to it directly — the fast predicates are checked *first* so the hot path
  adds nothing beyond one branch over the seed's bare ``ufunc.at`` call.
  Older builds fall back to portable segment reductions: seeded
  ``np.bincount(..., weights=...)`` for sums (binned over vertex ids when
  dense, over rank-compacted segments when sparse) and stable sort +
  ``np.minimum.reduceat``/``np.maximum.reduceat`` for min/max — except for
  batches of at most :data:`PORTABLE_AT_CUTOFF` messages, where the
  sort/segment machinery's fixed allocation cost exceeds the slow
  ``ufunc.at`` loop it replaces, so tiny batches use ``ufunc.at`` on every
  NumPy version.

All formulations are **bitwise identical** to the ``ufunc.at`` semantics,
not merely close: sums are "seeded" so each touched bin folds ``target,
v1, v2, ...`` left to right, the exact accumulation order of
``np.add.at`` (``np.bincount`` accumulates strictly in input order;
``np.add.reduceat`` would not — it groups pairwise even on 3-element
segments), and min/max are order independent.

The :func:`legacy_kernels` context manager routes every kernel through the
original ``ufunc.at`` + snapshot + ``np.unique`` path.  The equivalence
tests (``tests/test_kernels.py``) and the before/after benchmark harness
(``benchmarks/bench_perf_hotpaths.py``) both rely on it: the former to
prove bit-for-bit agreement, the latter to measure the speedup end to end
without keeping two copies of every algorithm.  Legacy mode wins over any
active backend — it is the ground truth every backend is judged against.

All kernels mutate ``target`` in place and expect ``float64`` state arrays
(every :class:`~repro.algorithms.base.ProgramState` array is ``float64``).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "NumpyBackend",
    "scatter_add",
    "scatter_min",
    "scatter_max",
    "push_and_activate",
    "legacy_kernels",
    "using_legacy_kernels",
    "DENSE_FRONTIER_FACTOR",
    "PORTABLE_AT_CUTOFF",
]

_EMPTY = np.zeros(0, dtype=np.int64)

#: A message batch counts as *dense* when it holds at least one message per
#: ``DENSE_FRONTIER_FACTOR`` vertices; dense batches amortise O(|V|) bitmap
#: work, sparse batches avoid it entirely.
DENSE_FRONTIER_FACTOR = 8

#: Below this many messages the portable segment kernels lose to a bare
#: ``ufunc.at`` even on pre-1.25 NumPy: the stable sort plus its half dozen
#: temporaries cost more than the slow per-message inner loop they avoid.
#: Tiny batches therefore always take ``ufunc.at``, which keeps every
#: sparse-scatter microbench row at parity or better with the seed.
PORTABLE_AT_CUTOFF = 64

# NumPy 1.25 introduced indexed inner loops for ufunc.at (add / minimum /
# maximum on contiguous float64 run at native scatter speed).  Without
# them the portable bincount / sort+reduceat kernels below win by 10-100x.
_INDEXED_UFUNC_AT = np.lib.NumpyVersion(np.__version__) >= "1.25.0"

# Test hook: forces the portable segment kernels even on new NumPy so the
# equivalence suite exercises them regardless of the installed version.
_FORCE_PORTABLE = False

# Module-level dispatch switch; flipped only by legacy_kernels().
_LEGACY = False

# Hoisted bound methods: the hot paths below are wrappers around these and
# every attribute hop would show up in the scatter microbenches.
_add_at = np.add.at
_minimum_at = np.minimum.at
_maximum_at = np.maximum.at


@contextmanager
def legacy_kernels():
    """Route all kernels through the pre-kernel-layer ``ufunc.at`` path.

    Used by the equivalence tests and by the benchmark harness to obtain
    "before" timings of the exact code the kernel layer replaced.
    """
    global _LEGACY
    previous = _LEGACY
    _LEGACY = True
    try:
        yield
    finally:
        _LEGACY = previous


def using_legacy_kernels() -> bool:
    """Whether the pre-kernel-layer dispatch is currently active."""
    return _LEGACY


def _indexed_at() -> bool:
    return _INDEXED_UFUNC_AT and not _FORCE_PORTABLE


def _is_dense(destinations: np.ndarray, target: np.ndarray) -> bool:
    return destinations.size * DENSE_FRONTIER_FACTOR >= target.size


def _touched_ids(destinations: np.ndarray, num_vertices: int) -> np.ndarray:
    """Unique destination ids via a bitmap (no sort; ascending by construction)."""
    touched = np.zeros(num_vertices, dtype=bool)
    touched[destinations] = True
    return touched.nonzero()[0]


def _sorted_boundaries(destinations: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable sort by destination plus segment-boundary flags.

    Returns ``(order, sorted_destinations, is_start)`` where ``is_start``
    marks the first message of each unique-destination segment.  The sort
    is stable, so within a segment messages keep their original order
    (required for bitwise-exact sum folds).
    """
    order = np.argsort(destinations, kind="stable")
    sorted_destinations = destinations[order]
    is_start = np.empty(sorted_destinations.size, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_destinations[1:], sorted_destinations[:-1], out=is_start[1:])
    return order, sorted_destinations, is_start


def _segments(destinations: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort messages by destination and locate the segment starts.

    Returns ``(unique_destinations, sorted_values, segment_starts)`` where
    ``sorted_values[starts[i]:starts[i+1]]`` are the values aimed at
    ``unique_destinations[i]``.
    """
    order, sorted_destinations, is_start = _sorted_boundaries(destinations)
    starts = np.flatnonzero(is_start)
    return sorted_destinations[starts], values[order], starts


def _segment_ranks(destinations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compact destinations to dense ranks ``0..k-1`` in ascending-id order.

    Returns ``(unique_ids, ranks)`` with ``unique_ids[ranks[i]] ==
    destinations[i]``; ``ranks`` keeps the original message order, which
    the seeded bincount needs for its exact fold.
    """
    order, sorted_destinations, is_start = _sorted_boundaries(destinations)
    ranks = np.empty(destinations.size, dtype=np.int64)
    ranks[order] = np.cumsum(is_start) - 1
    return sorted_destinations[is_start], ranks


def _seeded_vertex_sums(
    target: np.ndarray, destinations: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dense exact sums: bincount over vertex ids, seeded with target values."""
    touched_ids = _touched_ids(destinations, target.size)
    seeded_destinations = np.concatenate([touched_ids, destinations])
    seeded_values = np.concatenate([target[touched_ids], values])
    sums = np.bincount(seeded_destinations, weights=seeded_values, minlength=target.size)
    return touched_ids, sums[touched_ids]


def _seeded_rank_sums(
    target: np.ndarray, destinations: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse exact sums: bincount over k segment ranks, seeded with target values."""
    unique_ids, ranks = _segment_ranks(destinations)
    num_segments = unique_ids.size
    seeded_ranks = np.concatenate([np.arange(num_segments, dtype=np.int64), ranks])
    seeded_values = np.concatenate([target[unique_ids], values])
    return unique_ids, np.bincount(seeded_ranks, weights=seeded_values, minlength=num_segments)


def scatter_add(target: np.ndarray, destinations: np.ndarray, values: np.ndarray) -> np.ndarray:
    """In-place ``target[destinations] += values`` with duplicate support.

    Bitwise-identical replacement for ``np.add.at(target, destinations,
    values)``: every touched bin accumulates ``target, v1, v2, ...`` in
    exactly the order the unbuffered ufunc would.
    """
    if _LEGACY or (_INDEXED_UFUNC_AT and not _FORCE_PORTABLE):
        _add_at(target, destinations, values)
        return target
    destinations = np.asarray(destinations, dtype=np.int64)
    if destinations.size == 0:
        return target
    if destinations.size <= PORTABLE_AT_CUTOFF:
        _add_at(target, destinations, values)
        return target
    values = np.asarray(values, dtype=np.float64)
    if _is_dense(destinations, target):
        touched_ids, sums = _seeded_vertex_sums(target, destinations, values)
    else:
        touched_ids, sums = _seeded_rank_sums(target, destinations, values)
    target[touched_ids] = sums
    return target


def scatter_min(target: np.ndarray, destinations: np.ndarray, values: np.ndarray) -> np.ndarray:
    """In-place ``target[d] = min(target[d], v)`` over all messages.

    Exact replacement for ``np.minimum.at``: segment minima via stable sort
    + ``np.minimum.reduceat`` on builds without indexed ufunc loops; bins
    whose minimum does not improve keep their current bits untouched.
    """
    if _LEGACY or (_INDEXED_UFUNC_AT and not _FORCE_PORTABLE):
        _minimum_at(target, destinations, values)
        return target
    destinations = np.asarray(destinations, dtype=np.int64)
    if destinations.size == 0:
        return target
    if destinations.size <= PORTABLE_AT_CUTOFF:
        _minimum_at(target, destinations, values)
        return target
    unique_ids, sorted_values, starts = _segments(destinations, np.asarray(values))
    segment_min = np.minimum.reduceat(sorted_values, starts)
    improved = segment_min < target[unique_ids]
    target[unique_ids[improved]] = segment_min[improved]
    return target


def scatter_max(target: np.ndarray, destinations: np.ndarray, values: np.ndarray) -> np.ndarray:
    """In-place ``target[d] = max(target[d], v)``; mirror of :func:`scatter_min`."""
    if _LEGACY or (_INDEXED_UFUNC_AT and not _FORCE_PORTABLE):
        _maximum_at(target, destinations, values)
        return target
    destinations = np.asarray(destinations, dtype=np.int64)
    if destinations.size == 0:
        return target
    if destinations.size <= PORTABLE_AT_CUTOFF:
        _maximum_at(target, destinations, values)
        return target
    unique_ids, sorted_values, starts = _segments(destinations, np.asarray(values))
    segment_max = np.maximum.reduceat(sorted_values, starts)
    improved = segment_max > target[unique_ids]
    target[unique_ids[improved]] = segment_max[improved]
    return target


def push_and_activate(
    target: np.ndarray,
    destinations: np.ndarray,
    values: np.ndarray,
    *,
    combine: str = "min",
    threshold: float | None = None,
) -> np.ndarray:
    """Fused scatter + activation detection.

    Applies one scatter-reduce to ``target`` in place and returns the
    unique, sorted ids of the vertices the pushes activated:

    * ``combine="min"`` / ``combine="max"`` (value replacement): the
      destinations whose value strictly improved.
    * ``combine="add"`` (value accumulation): the destinations whose
      updated value exceeds ``threshold`` (required).

    This is the operation every ``VertexProgram.process`` performs; fusing
    it lets dense frontiers derive the activation set from a touched-vertex
    bitmap and sparse ones from the reduction structure, instead of the
    ``previous`` snapshot + ``np.unique`` over per-message arrays that the
    unfused formulation needs.
    """
    destinations = np.asarray(destinations, dtype=np.int64)
    if destinations.size == 0:
        return _EMPTY
    if combine == "add":
        return _push_add(target, destinations, values, threshold)
    if combine == "min":
        return _push_extremum(target, destinations, values, np.minimum, descending=True)
    if combine == "max":
        return _push_extremum(target, destinations, values, np.maximum, descending=False)
    raise ValueError("combine must be 'min', 'max' or 'add'")


def _push_add(
    target: np.ndarray, destinations: np.ndarray, values: np.ndarray, threshold: float | None
) -> np.ndarray:
    if threshold is None:
        raise ValueError("combine='add' requires a threshold")
    if _LEGACY:
        np.add.at(target, destinations, values)
        active = target[destinations] > threshold
        return np.unique(destinations[active])
    values = np.asarray(values, dtype=np.float64)
    dense = _is_dense(destinations, target)
    if _indexed_at():
        if dense:
            touched_ids = _touched_ids(destinations, target.size)
            np.add.at(target, destinations, values)
            return touched_ids[target[touched_ids] > threshold]
        np.add.at(target, destinations, values)
        active = target[destinations] > threshold
        return np.unique(destinations[active])
    if dense:
        touched_ids, sums = _seeded_vertex_sums(target, destinations, values)
    else:
        touched_ids, sums = _seeded_rank_sums(target, destinations, values)
    target[touched_ids] = sums
    return touched_ids[sums > threshold]


def _push_extremum(
    target: np.ndarray, destinations: np.ndarray, values: np.ndarray, ufunc: np.ufunc, descending: bool
) -> np.ndarray:
    def _improved(updated, reference):
        return updated < reference if descending else updated > reference

    if _LEGACY:
        previous = target[destinations].copy()
        ufunc.at(target, destinations, values)
        changed = _improved(target[destinations], previous)
        return np.unique(destinations[changed])
    if _indexed_at():
        if _is_dense(destinations, target):
            touched_ids = _touched_ids(destinations, target.size)
            snapshot = target[touched_ids].copy()
            ufunc.at(target, destinations, values)
            return touched_ids[_improved(target[touched_ids], snapshot)]
        previous = target[destinations]
        ufunc.at(target, destinations, values)
        changed = _improved(target[destinations], previous)
        return np.unique(destinations[changed])
    unique_ids, sorted_values, starts = _segments(destinations, np.asarray(values))
    segment = ufunc.reduceat(sorted_values, starts)
    improved = _improved(segment, target[unique_ids])
    activated = unique_ids[improved]
    target[activated] = segment[improved]
    return activated


class NumpyBackend:
    """The reference :class:`~repro.core.backends.base.KernelBackend`.

    The methods *are* the module-level kernels — zero extra indirection on
    the hot path — and :meth:`warmup` is a no-op because there is nothing
    to compile.
    """

    name = "numpy"

    scatter_add = staticmethod(scatter_add)
    scatter_min = staticmethod(scatter_min)
    scatter_max = staticmethod(scatter_max)
    push_and_activate = staticmethod(push_and_activate)

    def warmup(self) -> None:
        return None
