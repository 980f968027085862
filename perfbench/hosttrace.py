"""Host-clock spans around the public calls into each layer.

:class:`HostTrace` wraps functions and methods of the ``repro`` package
in place (the program itself carries no timing code): each wrapped call
records one span — layer name, start, end, parent span and run id — into
compact in-memory columns.  :meth:`HostTrace.uninstall` puts every
original attribute back.

A layer's *total* seconds are the sum of its spans; its *self* seconds
are that minus the time its child spans cover.  A call into a layer that
is already on the stack (``IterationDriver.plan`` calling
``windowed_plan``) opens no second span, so no time is counted twice and
the self times of all spans under one root add up to the root's
duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

from repro.obs import chrome_trace
from repro.obs.tracer import Span

__all__ = ["LAYER_TARGETS", "LAYERS", "HostTrace"]

#: (layer, owner, attribute): the public calls each layer is timed at.
#: ``owner`` is ``"module"`` or ``"module:Class"``.
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("graph.load", "repro.bench.workloads", "load_dataset"),
    ("graph.hub_sort", "repro.core.engine", "hub_sort"),
    ("graph.partition", "repro.core.engine", "partition_by_bytes"),
    ("core.engine.plan", "repro.runtime.driver:IterationDriver", "plan"),
    ("core.engine.plan", "repro.runtime.driver:IterationDriver", "windowed_plan"),
    ("core.cost_model", "repro.core.cost_model:CostModel", "estimate"),
    ("core.selection", "repro.core.selection:EngineSelector", "select"),
    ("core.combiner", "repro.core.combiner:TaskCombiner", "combine"),
    ("core.priority", "repro.core.priority:ContributionScheduler", "prioritize"),
    ("algorithms.process", "repro.algorithms.bfs:BFS", "process"),
    ("algorithms.process", "repro.algorithms.sssp:SSSP", "process"),
    ("algorithms.process", "repro.algorithms.cc:ConnectedComponents", "process"),
    ("algorithms.process", "repro.algorithms.pagerank:DeltaPageRank", "process"),
    ("algorithms.process", "repro.algorithms.php:PHP", "process"),
    ("core.kernels", "repro.algorithms.bfs", "push_and_activate"),
    ("core.kernels", "repro.algorithms.sssp", "push_and_activate"),
    ("core.kernels", "repro.algorithms.cc", "push_and_activate"),
    ("core.kernels", "repro.algorithms.pagerank", "push_and_activate"),
    ("core.kernels", "repro.algorithms.php", "push_and_activate"),
    ("transfer.task", "repro.transfer.explicit_filter:ExplicitFilterEngine", "transfer_task"),
    ("transfer.task", "repro.transfer.explicit_compaction:ExplicitCompactionEngine", "transfer_task"),
    ("transfer.task", "repro.transfer.zero_copy:ZeroCopyEngine", "transfer_task"),
    ("runtime.schedule", "repro.runtime.driver:IterationDriver", "finish"),
    ("runtime.schedule", "repro.runtime.context:ExecutionContext", "schedule"),
    ("sim.streams.place", "repro.sim.streams:StreamScheduler", "place"),
    ("cache.claim", "repro.cache.manager:CacheManager", "claim_billable"),
    ("runtime.batch", "repro.runtime.batch:QueryBatchRunner", "run"),
    ("service.step", "repro.service.core:GraphService", "step"),
    ("service.harvest", "repro.service.core:GraphService", "harvest"),
    ("service.admission", "repro.service.admission:AdmissionController", "estimate_request_bytes"),
    ("service.admission", "repro.service.admission:AdmissionController", "decide"),
    ("service.admission", "repro.service.admission:AdmissionController", "take_wave"),
    ("service.admission", "repro.service.admission:AdmissionController", "release"),
    ("service.checkpoint", "repro.runtime.driver:IterationDriver", "capture_checkpoint"),
    ("service.checkpoint", "repro.runtime.driver:IterationDriver", "restore_checkpoint"),
    ("service.replay", "repro.service.replay:ReplayHarness", "replay"),
    ("cluster.route", "repro.cluster.router:Router", "route"),
    ("cluster.step", "repro.cluster.service:ClusterService", "step"),
)

#: Root spans the benchmark opens around its own phases (one traced unit
#: = one set-up plus one pass).
ROOT_LAYERS = ("bench.setup", "bench.pass")

#: Every layer name, in report order.
LAYERS: tuple[str, ...] = ROOT_LAYERS + tuple(dict.fromkeys(layer for layer, _, _ in LAYER_TARGETS))


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class HostTrace:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self._layer_ids = {name: index for index, name in enumerate(LAYERS)}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack: list[int] = []
        self._open = [0] * len(LAYERS)
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _begin(self, layer_id: int) -> int:
        index = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(index)
        self._open[layer_id] += 1
        self.start.append(time.perf_counter())
        return index

    def _end(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        self._open[self.layer[index]] -= 1

    def wrap(self, layer: str, function):
        """``function`` wrapped to record one ``layer`` span per outermost call."""
        layer_id = self._layer_ids[layer]
        open_counts = self._open

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if open_counts[layer_id]:
                return function(*args, **kwargs)
            index = self._begin(layer_id)
            try:
                return function(*args, **kwargs)
            finally:
                self._end(index)

        return wrapper

    def span(self, layer: str, function, *args, **kwargs):
        """Call ``function`` inside one root span of ``layer``."""
        return self.wrap(layer, function)(*args, **kwargs)

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target of :data:`LAYER_TARGETS` in place."""
        if self._originals:
            raise RuntimeError("host trace already installed")
        for layer, owner_name, attribute in LAYER_TARGETS:
            owner = _resolve(owner_name)
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(layer, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original object."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "HostTrace":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Reading the spans
    # ------------------------------------------------------------------
    def _columns(self):
        layer = np.frombuffer(self.layer, dtype=np.int32).copy()
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        return layer, duration, parent

    def layer_table(self, run_id: int | None = None) -> dict[str, dict[str, float]]:
        """Per layer: ``calls``, total ``s`` and ``self_s`` (of one run, or all)."""
        layer, duration, parent = self._columns()
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=layer.size)
        self_time = duration - child_time
        if run_id is not None:
            chosen = np.frombuffer(self.run, dtype=np.int32) == run_id
            layer, duration, self_time = layer[chosen], duration[chosen], self_time[chosen]
        count = len(LAYERS)
        calls = np.bincount(layer, minlength=count)
        total = np.bincount(layer, weights=duration, minlength=count)
        own = np.bincount(layer, weights=self_time, minlength=count)
        return {
            name: {"calls": int(calls[index]), "s": float(total[index]), "self_s": float(own[index])}
            for index, name in enumerate(LAYERS)
        }

    def chrome_trace(self, run_id: int | None = None) -> dict:
        """Spans (of one run, or all) as a Chrome ``trace_event`` payload."""
        chosen = [index for index in range(len(self.layer)) if run_id is None or self.run[index] == run_id]
        origin = min((self.start[index] for index in chosen), default=0.0)
        spans = [
            Span(
                index, "host", LAYERS[self.layer[index]], "host",
                self.start[index] - origin, self.end[index] - origin,
                {"parent": self.parent[index], "run": self.run[index]},
            )
            for index in chosen
        ]
        payload = chrome_trace(spans)
        payload["otherData"]["clock"] = "host"
        return payload
