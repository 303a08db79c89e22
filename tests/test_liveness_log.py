"""The compact access log against the hooked recorder (its oracle).

A recording reference runs on the table-driven loop with a
:class:`~repro.thor.cpu.AccessLog` and derives every element's access
trace offline (:func:`~repro.faults.liveness.traces_from_log`).  The
hooked :class:`~repro.faults.liveness.AccessRecorder` records the same
run access by access through the CPU, cache and memory hooks.  The
derived map must equal it entry for entry, and so must everything built
from it: the boundary table and every plan fault's verdict.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.liveness import (
    AccessRecorder,
    LivenessMap,
    traced_memory_ranges,
)
from repro.faults.models import (
    CACHE_PARTITION,
    MEMORY_PARTITION,
    FaultTarget,
    sample_fault_plan,
)
from repro.goofi.environment import EngineEnvironment
from repro.goofi.memfault import sample_memory_faults
from repro.goofi.target import TargetSystem
from repro.thor.cache import DataCache
from repro.thor.memory import MemoryMap


def hooked_reference(target: TargetSystem):
    """Run ``target``'s reference with an :class:`AccessRecorder` on the
    CPU, cache and memory hooks; return ``(reference, recorder)``."""
    recorder = AccessRecorder()
    for base, end in traced_memory_ranges(target.cpu.layout):
        recorder.track_memory_range(base, end - base)
    cpu = target.cpu
    load = cpu.load

    def load_and_attach(program):
        # load() rebuilds the cache and memory map: attach to the new ones.
        load(program)
        cpu.recorder = cpu.cache.recorder = cpu.memory.recorder = recorder

    cpu.load = load_and_attach
    try:
        reference = target.run_reference()
    finally:
        del cpu.load
        cpu.recorder = cpu.cache.recorder = cpu.memory.recorder = None
    return reference, recorder


def _element(key) -> FaultTarget:
    partition, element = key
    if partition == MEMORY_PARTITION:
        element = hex(element)
    return FaultTarget(partition, element, 0)


class Recorded:
    """One workload's reference, recorded three ways."""

    def __init__(self, workload, iterations: int, fast_dispatch: bool = True):
        def target() -> TargetSystem:
            system = TargetSystem(
                workload=workload,
                environment=EngineEnvironment(),
                iterations=iterations,
            )
            system.cpu.fast_dispatch = fast_dispatch
            return system

        self.hooked = target()
        self.hooked_reference, recorder = hooked_reference(self.hooked)
        self.oracle = LivenessMap.from_recorder(
            recorder, self.hooked_reference.total_instructions
        )
        self.oracle_traces = recorder.traces
        self.oracle_accesses = recorder.data_accesses
        self.logged = target()
        self.reference = self.logged.run_reference(record_access=True)
        self.plain = target()
        self.plain_reference = self.plain.run_reference()


@pytest.fixture(
    scope="module",
    params=[("I", 650), ("II", 650), ("I", 60), ("I", 200)],
    ids=["alg1", "alg2", "alg1-60", "alg1-200"],
)
def recorded(request, algorithm_i_compiled, algorithm_ii_compiled):
    algorithm, iterations = request.param
    workload = algorithm_i_compiled if algorithm == "I" else algorithm_ii_compiled
    return Recorded(workload, iterations)


def _plan(recorded: Recorded):
    """A scan-chain plan and a memory-fault plan over the reference."""
    target = recorded.logged
    plan = sample_fault_plan(
        space=target.scan_chain.location_space(),
        total_instructions=recorded.reference.total_instructions,
        count=2000,
        rng=np.random.default_rng(2001),
    )
    return plan + sample_memory_faults(target, 500, np.random.default_rng(7))


class TestDerivedTraces:
    def test_same_elements_and_entries(self, recorded):
        derived = recorded.logged.liveness
        assert set(derived._traces) == set(recorded.oracle_traces)
        for key, entries in recorded.oracle_traces.items():
            assert derived.trace(_element(key)) == entries, key

    def test_same_boundary_table(self, recorded):
        expected = recorded.oracle.boundary_table(
            recorded.hooked_reference.instructions_at
        )
        table = recorded.reference.boundary_liveness
        assert table.memory_ranges == expected.memory_ranges
        assert table.rows == expected.rows
        assert table.bit_rows == expected.bit_rows

    def test_same_verdict_for_every_plan_fault(self, recorded):
        derived = recorded.logged.liveness
        plan = _plan(recorded)
        assert any(fault.target.partition == MEMORY_PARTITION for fault in plan)
        verdicts = [derived.classify_fault(fault) for fault in plan]
        assert verdicts == [recorded.oracle.classify_fault(f) for f in plan]
        assert len(set(verdicts)) == 3

    def test_vectorised_replay_equals_the_cache_model(self, recorded):
        """Replaying the hooked run's cacheable data accesses (as the
        CPU's ``data_access`` hook reported them) in order through a
        fresh DataCache and MemoryMap with the hooks attached reproduces
        every cache and memory trace derived from the log's stream: the
        vectorised replay's exactness anchor."""
        layout = recorded.logged.cpu.layout
        recorder = AccessRecorder()
        memory = MemoryMap(layout)
        cache = DataCache()
        memory.recorder = cache.recorder = recorder
        assert recorded.oracle_accesses
        for now, address, is_write in recorded.oracle_accesses:
            recorder.now = now
            if is_write:
                cache.write(address, 0, memory)
            else:
                cache.read(address, memory)
        derived = recorded.logged.liveness
        replayed = {
            key
            for key in derived._traces
            if key[0] in (CACHE_PARTITION, MEMORY_PARTITION)
        }
        assert replayed == set(recorder.traces)
        for key, entries in recorder.traces.items():
            assert derived.trace(_element(key)) == entries, key


class TestRecordingObservesOnly:
    def test_reference_equals_a_plain_run(self, recorded):
        reference, plain = recorded.reference, recorded.plain_reference
        assert reference.outputs == plain.outputs
        assert reference.hashes == plain.hashes
        assert reference.instructions_at == plain.instructions_at
        assert reference.total_instructions == plain.total_instructions
        assert reference.max_iteration_instructions == (
            plain.max_iteration_instructions
        )
        for boundary in range(len(plain.instructions_at)):
            assert reference.snapshots[boundary] == plain.snapshots[boundary]

    def test_log_detached_after_the_run(self, recorded):
        assert recorded.logged.cpu.access_log is None
        assert recorded.logged.cpu.recorder is None


def test_chain_dispatch_logs_the_same_traces(algorithm_i_compiled):
    """With the table loop switched off every instruction runs through
    the traced step with the log as recorder; the derived map is the same."""
    chain = Recorded(algorithm_i_compiled, 30, fast_dispatch=False)
    fast = Recorded(algorithm_i_compiled, 30)
    assert set(chain.logged.liveness._traces) == set(fast.oracle_traces)
    for key, entries in fast.oracle_traces.items():
        assert chain.logged.liveness.trace(_element(key)) == entries, key
