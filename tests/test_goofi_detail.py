"""Tests for GOOFI's detail-mode error-propagation analysis."""

import pytest

from repro.errors import CampaignError
from repro.faults.models import FaultDescriptor, FaultTarget
from repro.goofi import TargetSystem, trace_propagation
from repro.thor.cache import split_address
from repro.thor.scanchain import CACHE_PARTITION, REGISTER_PARTITION


class TestTracePropagation:
    def test_requires_reference(self, algorithm_i_compiled):
        target = TargetSystem(algorithm_i_compiled, iterations=10)
        fault = FaultDescriptor(FaultTarget(REGISTER_PARTITION, "r0", 0), 5)
        with pytest.raises(CampaignError):
            trace_propagation(target, fault)

    def test_dead_register_flip_never_converges_never_propagates(
        self, short_reference_target
    ):
        fault = FaultDescriptor(FaultTarget(REGISTER_PARTITION, "r0", 9), 200)
        report = trace_propagation(short_reference_target, fault, max_instructions=400)
        assert not report.converged
        assert report.detected is None
        # Divergence is confined to r0 throughout.
        assert all(point.diverged == ("r0",) for point in report.timeline)

    def test_scratch_register_flip_converges(self, short_reference_target):
        reference = short_reference_target.reference
        # Flip r1 at an iteration boundary: the next reload overwrites it.
        fault = FaultDescriptor(
            FaultTarget(REGISTER_PARTITION, "r1", 12),
            reference.instructions_at[5],
        )
        report = trace_propagation(short_reference_target, fault, max_instructions=400)
        assert report.converged
        assert report.timeline  # it was divergent for a few instructions
        assert report.timeline[0].diverged == ("r1",)

    def test_state_corruption_propagates_into_cache_and_memory(
        self, short_reference_target
    ):
        target = short_reference_target
        reference = target.reference
        x_address = target.workload.address_of("x")
        _, x_line = split_address(x_address)
        fault = FaultDescriptor(
            FaultTarget(CACHE_PARTITION, f"line{x_line}.data", 30),
            reference.instructions_at[10] + 40,
        )
        report = trace_propagation(target, fault, max_instructions=600)
        assert report.timeline
        assert "cache" in report.timeline[0].diverged
        touched = set()
        for point in report.timeline:
            touched.update(point.diverged)
        # The corrupted line is written back / reloaded: memory and
        # registers join the divergence set.
        assert "memory" in touched or report.detected is not None

    def test_sp_flip_traces_to_detection(self, short_reference_target):
        reference = short_reference_target.reference
        fault = FaultDescriptor(
            FaultTarget(REGISTER_PARTITION, "sp", 20),
            reference.instructions_at[3],
        )
        report = trace_propagation(short_reference_target, fault, max_instructions=600)
        assert report.detected == "STORAGE ERROR"
        assert any("sp" in point.diverged for point in report.timeline)

    def test_summary_lines_render(self, short_reference_target):
        fault = FaultDescriptor(FaultTarget(REGISTER_PARTITION, "r0", 3), 100)
        report = trace_propagation(short_reference_target, fault, max_instructions=100)
        lines = report.summary_lines()
        assert lines[0].startswith("propagation of registers/r0[3]")
        assert any("r0" in line for line in lines[1:])


class TestOtherFaultModels:
    """Detail mode applies memory and program-image faults exactly as a
    campaign does at its seat, so any campaign's fault can be traced."""

    def test_memory_fault_traces_to_its_parity_check(self, short_reference_target):
        from repro.goofi.memfault import memory_fault, memory_words

        target = short_reference_target
        fault = memory_fault(
            target.reference, memory_words(target.cpu.layout)[3], 30, 5
        )
        report = trace_propagation(target, fault)
        assert report.timeline[0].instruction_index == fault.time
        assert report.timeline[0].diverged == ("memory",)
        # The stored bit flipped without its parity: the next read trips.
        assert report.detected == "DATA ERROR"

    def test_code_image_fault_traces(self, short_reference_target):
        from repro.goofi.prerun import image_fault, image_words

        target = short_reference_target
        partition, address = image_words(target.workload)[1]
        report = trace_propagation(target, image_fault(partition, address, 3))
        assert report.timeline[0].instruction_index == 0
        assert "memory" in report.timeline[0].diverged
        assert report.detected is not None
