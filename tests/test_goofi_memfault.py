"""Tests for the memory (RAM) fault model and DATA ERROR coverage.

Memory faults are seated at an iteration boundary and run by the same
``TargetSystem.run_experiment`` and ``ScifiCampaign`` as every other
fault model.
"""

import numpy as np
import pytest

from repro.errors import CampaignError
from repro.faults.models import MEMORY_PARTITION
from repro.goofi import (
    CampaignConfig,
    ScifiCampaign,
    TargetSystem,
    memory_fault,
    sample_memory_faults,
)
from repro.thor.edm import Mechanism
from repro.workloads import compile_algorithm_i


@pytest.fixture(scope="module")
def target():
    system = TargetSystem(compile_algorithm_i(), iterations=50)
    system.run_reference()
    return system


class TestMemoryFaults:
    def test_sampling_stays_in_ram(self, target):
        layout = target.cpu.layout
        plan = sample_memory_faults(target, 100, np.random.default_rng(2))
        for fault in plan:
            address = int(fault.target.element, 16)
            in_data = (
                layout.data_base <= address < layout.data_base + layout.data_size
            )
            in_stack = (
                layout.stack_base
                <= address
                < layout.stack_base + layout.stack_size
            )
            assert in_data or in_stack
            assert fault.target.partition == MEMORY_PARTITION
            assert 0 <= fault.target.bit < 32
            # Injected at an iteration boundary of the window.
            iteration = target.reference.instructions_at.index(fault.time)
            assert 0 <= iteration < 50

    def test_count_validated(self, target):
        with pytest.raises(CampaignError):
            sample_memory_faults(target, 0, np.random.default_rng(1))

    def test_iteration_validated(self, target):
        with pytest.raises(CampaignError):
            memory_fault(
                target.reference, target.cpu.layout.data_base, 0, iteration=999
            )
        # A hand-built descriptor past the run is refused at the seat.
        fault = memory_fault(target.reference, target.cpu.layout.data_base, 0, 0)
        late = type(fault)(fault.target, target.reference.total_instructions)
        with pytest.raises(CampaignError):
            target.run_experiment(late)

    def test_corrupting_a_read_word_raises_data_error(self, target):
        # The state variable x is read every iteration while its cache
        # line is refetched from RAM after each runtime tick: a RAM flip
        # under it is read with stale parity.
        x_address = target.workload.address_of("x")
        fault = memory_fault(target.reference, x_address, 30, iteration=20)
        run = target.run_experiment(fault)
        assert run.detection is not None
        assert run.detection.mechanism is Mechanism.DATA_ERROR

    def test_corrupting_an_unused_word_is_latent(self, target):
        pad = target.workload.program.symbol("__pad")
        fault = memory_fault(target.reference, pad, 5, iteration=10)
        run = target.run_experiment(fault)
        assert run.detection is None
        assert run.outputs == target.reference.outputs
        assert run.final_state_differs  # the flip survives in RAM

    def test_corrupting_an_overwritten_word_heals(self, target):
        # The RTS table is rewritten (with fresh parity) every iteration;
        # its RAM copy refreshes on the next eviction.
        rts = target.workload.program.symbol("__rts")
        fault = memory_fault(target.reference, rts + 12, 9, iteration=10)
        run = target.run_experiment(fault)
        # Either healed (overwritten/early-exit) or caught as DATA ERROR
        # if the tick's read hit the slot before the rewrite; never a
        # wrong result.
        if run.detection is not None:
            assert run.detection.mechanism is Mechanism.DATA_ERROR
        else:
            assert run.outputs == target.reference.outputs

    def test_campaign_summary(self, target):
        """Single-bit RAM corruption under a write-back cache is largely
        masked: dirty evictions rewrite the word (and its parity) before
        anything reads it, so outcomes are latent/overwritten — and the
        *only* mechanism that can fire is DATA ERROR, on the read-refill
        paths (exercised deterministically by the x-targeted test)."""
        result = ScifiCampaign(
            CampaignConfig(
                workload=target.workload,
                name="memory faults",
                faults=120,
                seed=6,
                iterations=target.iterations,
                partitions=[MEMORY_PARTITION],
            )
        ).run()
        summary = result.summary()
        assert summary.total() == 120
        # Parity catches every read of a corrupted word: no value failures.
        assert summary.count_value_failures() == 0
        for mechanism in summary.mechanisms():
            assert mechanism == "DATA ERROR"

    def test_plan_is_unchanged_by_the_descriptor_form(self, target):
        """Per fault the sampler draws word, bit, then iteration, and the
        fault lands at that iteration's boundary."""
        layout = target.cpu.layout
        words = list(range(layout.data_base, layout.data_base + layout.data_size, 4))
        words += range(layout.stack_base, layout.stack_base + layout.stack_size, 4)
        plan = sample_memory_faults(target, 40, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        expected = []
        for _ in range(40):
            address = words[int(rng.integers(0, len(words)))]
            bit = int(rng.integers(0, 32))
            iteration = int(rng.integers(0, 50))
            expected.append(
                (address, bit, target.reference.instructions_at[iteration])
            )
        assert [
            (int(f.target.element, 16), f.target.bit, f.time) for f in plan
        ] == expected
