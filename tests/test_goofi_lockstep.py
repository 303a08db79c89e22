"""Tests for the lockstep (duplication-and-comparison) target."""

import pytest

from repro.errors import CampaignError
from repro.faults.models import FaultDescriptor, FaultTarget
from repro.goofi import LockstepTarget
from repro.thor.edm import Mechanism
from repro.thor.scanchain import CACHE_PARTITION, REGISTER_PARTITION
from repro.workloads import compile_algorithm_i

ITERATIONS = 50


@pytest.fixture(scope="module")
def lockstep():
    target = LockstepTarget(compile_algorithm_i(), iterations=ITERATIONS)
    target.run_reference()
    return target


class TestLockstep:
    def test_requires_reference(self):
        target = LockstepTarget(compile_algorithm_i(), iterations=10)
        fault = FaultDescriptor(FaultTarget(REGISTER_PARTITION, "r0", 0), 5)
        with pytest.raises(CampaignError):
            target.run_experiment(fault)

    def test_dead_register_flip_is_caught_by_comparator(self, lockstep):
        """State-compare lockstep flags even benign upsets — the cost of
        duplication: availability lost to harmless divergences."""
        fault = FaultDescriptor(FaultTarget(REGISTER_PARTITION, "r0", 11), 300)
        run = lockstep.run_experiment(fault)
        assert run.detection is not None
        assert run.detection.mechanism is Mechanism.COMPARATOR_ERROR
        # Caught on the very next comparison.
        assert run.detection.instruction_index <= 302

    def test_value_path_flip_is_caught_before_output(self, lockstep):
        reference = lockstep.reference
        fault = FaultDescriptor(
            FaultTarget(REGISTER_PARTITION, "r1", 30),
            reference.instructions_at[10] + 60,
        )
        run = lockstep.run_experiment(fault)
        assert run.detection is not None
        # No wrong output was delivered: the run stops inside the
        # injection iteration.
        assert run.detected_iteration == 10

    def test_master_edm_takes_precedence(self, lockstep):
        # An SP flip trips the master's STORAGE ERROR... but the state
        # comparator sees the flipped SP first.
        fault = FaultDescriptor(FaultTarget(REGISTER_PARTITION, "sp", 20), 100)
        run = lockstep.run_experiment(fault)
        assert run.detection is not None
        assert run.detection.mechanism in (
            Mechanism.COMPARATOR_ERROR,
            Mechanism.STORAGE_ERROR,
        )

    def test_cache_flip_caught_when_it_surfaces(self, lockstep):
        reference = lockstep.reference
        fault = FaultDescriptor(
            FaultTarget(CACHE_PARTITION, "line3.data", 30),
            reference.instructions_at[20] + 5,
        )
        run = lockstep.run_experiment(fault)
        # Either the corrupt value reaches a register (comparator) or a
        # misdirected write-back trips a master EDM; either way nothing
        # wrong is delivered for more than the injection iteration.
        if run.detection is None:
            assert run.outputs == reference.outputs
        else:
            assert run.detection.mechanism in (
                Mechanism.COMPARATOR_ERROR,
                Mechanism.ADDRESS_ERROR,
                Mechanism.BUS_ERROR,
            )

    def test_lockstep_coverage_of_effective_faults(self, lockstep):
        """The economic claim: duplication catches everything a plain
        node would deliver as a wrong result."""
        import numpy as np

        from repro.faults.models import sample_fault_plan
        from repro.goofi import TargetSystem

        plain = TargetSystem(compile_algorithm_i(), iterations=ITERATIONS)
        plain.run_reference()
        rng = np.random.default_rng(14)
        plan = sample_fault_plan(
            plain.scan_chain.location_space(),
            plain.reference.total_instructions,
            30,
            rng,
        )
        for fault in plan:
            plain_run = plain.run_experiment(fault)
            delivered_wrong = (
                plain_run.detection is None
                and plain_run.outputs != plain.reference.outputs
            )
            if delivered_wrong:
                lock_run = lockstep.run_experiment(fault)
                assert lock_run.detection is not None, fault.label()


class TestOtherFaultModels:
    """The lockstep pair takes memory and program-image faults into the
    master, applied as a campaign applies them at its seat."""

    def test_memory_fault_trips_the_master_parity_check(self, lockstep):
        from repro.goofi import TargetSystem
        from repro.goofi.memfault import memory_fault, memory_words

        reference = lockstep.reference
        address = memory_words(lockstep.inner.cpu.layout)[3]
        fault = memory_fault(reference, address, 30, 5)
        run = lockstep.run_experiment(fault)
        # Invisible to the comparator until read: the master's own EDM
        # catches it at the same instruction as on a plain node.
        plain = TargetSystem(compile_algorithm_i(), iterations=ITERATIONS)
        plain.run_reference()
        plain_run = plain.run_experiment(fault)
        assert run.detection is not None
        assert run.detection.mechanism is Mechanism.DATA_ERROR
        assert (
            run.detection.instruction_index
            == plain_run.detection.instruction_index
        )
        assert run.detected_iteration == 5

    def test_code_image_fault_is_caught_by_the_comparator(self, lockstep):
        from repro.goofi.prerun import image_fault, image_words

        partition, address = image_words(lockstep.inner.workload)[1]
        run = lockstep.run_experiment(image_fault(partition, address, 3))
        # Only the master's image is corrupted: the pair diverges on the
        # first instruction that executes the faulty word.
        assert run.detection is not None
        assert run.detection.mechanism is Mechanism.COMPARATOR_ERROR
        assert run.detected_iteration == 0
