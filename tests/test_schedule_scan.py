"""The scheduling scan against a place-by-place reference (bitwise).

:func:`repro.sim.streams.schedule_tasks` places every task and computes
the timeline aggregates in one loop, building entries only when read.
The reference below is the historical formulation: merge the device
lists in ``(priority, position, device)`` order, call
:meth:`StreamScheduler.place` once per task on shared resource states,
append the boundary sync, and derive every aggregate from the entries.
Both must agree to the last bit, including ``int`` zeros for idle
resources.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import HardwareConfig
from repro.sim.events import INTERCONNECT_RESOURCE, SYNC_ENGINE, StageSpan, TimelineEntry
from repro.sim.streams import ResourceState, StreamScheduler, StreamTask, schedule_tasks

RESOURCES = ("cpu", "pcie", "gpu", INTERCONNECT_RESOURCE)
CLASS_OFFSETS = (0.0, 1e6, 2e6)

durations = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-300, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False),
)
task_specs = st.tuples(
    durations,  # cpu
    durations,  # transfer
    durations,  # kernel
    st.booleans(),  # overlapped
    st.sampled_from([0.0, 1.0, 2.0, 2.5]),  # base priority (ties likely)
    st.integers(min_value=-1, max_value=3),  # owner (-1 = unowned)
    st.booleans(),  # name given as a label source instead of a string
)


def _make_tasks(device_specs, owner_class):
    device_tasks = []
    for device, specs in enumerate(device_specs):
        tasks = []
        for position, (cpu, transfer, kernel, overlapped, priority, owner, lazy) in enumerate(specs):
            name = "d%d-t%d" % (device, position)
            offset = CLASS_OFFSETS[owner_class[owner]] if owner >= 0 else 0.0
            tasks.append(
                StreamTask(
                    name=SimpleNamespace(label=name) if lazy else name,
                    engine="ExpTM-C" if cpu > 0 else ("ImpTM-ZC" if overlapped else "ExpTM-F"),
                    cpu_time=cpu,
                    transfer_time=transfer,
                    kernel_time=kernel,
                    overlapped_transfer=overlapped,
                    # Class offsets fold into the priority as in the batch merge.
                    priority=offset + priority if offset else priority,
                    owner=owner,
                )
            )
        device_tasks.append(tasks)
    return device_tasks


def _reference(device_tasks, num_streams, sync_duration):
    merged = sorted(
        (
            (task.priority, position, device, task)
            for device, tasks in enumerate(device_tasks)
            for position, task in enumerate(tasks)
        ),
        key=lambda item: item[:3],
    )
    scheduler = StreamScheduler(HardwareConfig())
    cpu, pcie = ResourceState(), ResourceState()
    gpus = [ResourceState() for _ in device_tasks]
    streams = [[0.0] * num_streams for _ in device_tasks]
    entries = [
        scheduler.place(task, streams[device], cpu, pcie, gpus[device], device=device)
        for _, _, device, task in merged
    ]
    if sync_duration is not None:
        start = max((entry.end for entry in entries), default=0.0)
        span = StageSpan(INTERCONNECT_RESOURCE, start, start + sync_duration)
        entries.append(TimelineEntry("boundary-sync", SYNC_ENGINE, 0, (span,), device=-1))
    makespan = max((entry.end for entry in entries), default=0.0)
    busy = {resource: sum(entry.time_on(resource) for entry in entries) for resource in RESOURCES}
    finish = {}
    for entry in entries:
        if entry.owner >= 0 and entry.end > finish.get(entry.owner, 0.0):
            finish[entry.owner] = entry.end
    return makespan, busy, finish, entries


def _entry_key(entry):
    spans = tuple((span.resource, repr(span.start), repr(span.end)) for span in entry.spans)
    return entry.name, entry.engine, entry.stream, entry.device, entry.owner, spans


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(task_specs, max_size=8), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=4),
    st.one_of(st.none(), durations),
    st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
)
def test_scan_matches_place_reference_bitwise(device_specs, num_streams, sync_duration, owner_class):
    device_tasks = _make_tasks(device_specs, owner_class)
    expected_makespan, expected_busy, expected_finish, expected_entries = _reference(
        device_tasks, num_streams, sync_duration
    )

    timeline = schedule_tasks(device_tasks, num_streams, sync_duration)

    # repr() distinguishes 0 from 0.0 and compares floats bit for bit.
    assert repr(timeline.makespan) == repr(expected_makespan)
    for resource in RESOURCES:
        assert repr(timeline.busy_time(resource)) == repr(expected_busy[resource]), resource
    assert repr(timeline.sync_time) == repr(expected_busy[INTERCONNECT_RESOURCE])
    assert {owner: repr(end) for owner, end in timeline.finish.items()} == {
        owner: repr(end) for owner, end in expected_finish.items()
    }
    assert [_entry_key(entry) for entry in timeline.entries] == [
        _entry_key(entry) for entry in expected_entries
    ]


def test_merged_names_carry_the_owner_tag():
    owned = StreamTask(name=SimpleNamespace(label="ExpTM-F[3,4]"), engine="ExpTM-F", kernel_time=1.0, owner=2)
    unowned = StreamTask(name="solo", engine="ExpTM-F", kernel_time=1.0)
    timeline = schedule_tasks([[owned, unowned]], num_streams=2)
    assert [entry.name for entry in timeline.entries] == ["q2|ExpTM-F[3,4]", "solo"]
    assert [entry.owner for entry in timeline.entries] == [2, -1]
    assert timeline.finish == {2: 1.0}


def test_entries_are_built_only_when_read():
    source = SimpleNamespace(reads=0)

    class CountingLabel:
        @property
        def label(self):
            source.reads += 1
            return "task"

    timeline = schedule_tasks([[StreamTask(name=CountingLabel(), engine="ExpTM-F", kernel_time=1.0)]], 1)
    assert timeline.makespan == 1.0 and source.reads == 0
    assert timeline.entries[0].name == "task"
    timeline.entries  # cached: no second build
    assert source.reads == 1
