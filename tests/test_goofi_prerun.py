"""Tests for pre-runtime SWIFI (program-image mutation).

Image faults are seated at boundary 0 and run by the same
``TargetSystem.run_experiment`` and ``ScifiCampaign`` as every other
fault model.
"""

import numpy as np
import pytest

from repro.analysis.classify import OutcomeCategory
from repro.errors import CampaignError
from repro.faults.models import CODE_PARTITION, DATA_PARTITION
from repro.goofi import (
    CampaignConfig,
    ScifiCampaign,
    TargetSystem,
    image_fault,
    sample_image_faults,
)
from repro.goofi.target import _hash_state_fresh
from repro.workloads import compile_algorithm_i

ITERATIONS = 60


@pytest.fixture(scope="module")
def campaign():
    """A target with its reference run: image experiments seat its
    boundary 0."""
    target = TargetSystem(compile_algorithm_i(), iterations=ITERATIONS)
    target.run_reference()
    return target


def _image_campaign(faults, seed, include_data=True):
    partitions = [CODE_PARTITION] + ([DATA_PARTITION] if include_data else [])
    return ScifiCampaign(
        CampaignConfig(
            workload=compile_algorithm_i(),
            name="pre-runtime SWIFI",
            faults=faults,
            seed=seed,
            iterations=ITERATIONS,
            partitions=partitions,
        )
    ).run()


class TestSampling:
    def test_plan_covers_code_and_data(self):
        workload = compile_algorithm_i()
        rng = np.random.default_rng(1)
        plan = sample_image_faults(workload, 300, rng)
        partitions = {fault.target.partition for fault in plan}
        assert partitions == {CODE_PARTITION, DATA_PARTITION}

    def test_code_only(self):
        workload = compile_algorithm_i()
        rng = np.random.default_rng(1)
        plan = sample_image_faults(workload, 100, rng, include_data=False)
        assert all(fault.target.partition == CODE_PARTITION for fault in plan)

    def test_count_validated(self):
        with pytest.raises(CampaignError):
            sample_image_faults(compile_algorithm_i(), 0, np.random.default_rng(1))

    def test_label(self):
        fault = image_fault(CODE_PARTITION, 0x1004, 25)
        assert fault.label() == "code-image/0x1004[25]@t=0"

    def test_plan_is_unchanged_by_the_descriptor_form(self):
        """The sampler draws one index per fault over every image bit, in
        the order code words then data words, 32 bits each."""
        workload = compile_algorithm_i()
        plan = sample_image_faults(workload, 50, np.random.default_rng(7))
        program = workload.program
        locations = [
            (CODE_PARTITION, program.entry + 4 * i, bit)
            for i in range(len(program.code))
            for bit in range(32)
        ] + [
            (DATA_PARTITION, address, bit)
            for address in program.data
            for bit in range(32)
        ]
        indices = np.random.default_rng(7).integers(0, len(locations), size=50)
        assert [
            (f.target.partition, int(f.target.element, 16), f.target.bit, f.time)
            for f in plan
        ] == [locations[int(i)] + (0,) for i in indices]


class TestExperiments:
    def test_opcode_flip_detected_quickly(self, campaign):
        # Flip the top opcode bit of the first instruction: an undefined
        # opcode, detected at the first fetch-execute.
        entry = campaign.workload.program.entry
        fault = image_fault(CODE_PARTITION, entry, 31)
        run = campaign.run_experiment(fault)
        assert run.detection is not None
        assert run.detected_iteration == 0

    def test_corrupted_constant_gives_persistent_wrong_results(self, campaign):
        # Flip a high mantissa bit of the Kp constant slot: the control
        # law is wrong on every iteration.
        address = campaign.workload.address_of("__c0")
        fault = image_fault(DATA_PARTITION, address, 22)
        run = campaign.run_experiment(fault)
        if run.detection is None:
            assert run.outputs != campaign.reference.outputs

    def test_unused_bit_flip_is_benign(self, campaign):
        # Flip a bit of the pad region: never read, outputs unaffected.
        pad_address = campaign.workload.program.symbol("__pad")
        fault = image_fault(DATA_PARTITION, pad_address, 7)
        run = campaign.run_experiment(fault)
        assert run.detection is None
        assert run.outputs == campaign.reference.outputs

    def test_rts_table_flip_is_non_effective(self, campaign):
        rts_address = campaign.workload.program.symbol("__rts")
        fault = image_fault(DATA_PARTITION, rts_address + 8, 3)
        run = campaign.run_experiment(fault)
        # The broadcast tick rewrites the cached slot every iteration, so
        # the outputs never deviate; the stale RAM copy may survive as a
        # latent difference if its line is never evicted.
        assert run.detection is None
        assert run.outputs == campaign.reference.outputs


class TestCampaign:
    def test_small_campaign_classifies_everything(self):
        result = _image_campaign(faults=25, seed=3)
        assert len(result.outcomes) == 25
        summary = result.summary()
        assert summary.total() == 25
        # Image faults in code are detected far more often than SCIFI
        # state faults — require a sizeable detected share.
        assert summary.count_detected() >= 5

    def test_campaign_reproducible(self):
        a = _image_campaign(faults=10, seed=5)
        b = _image_campaign(faults=10, seed=5)
        assert [o.category for o in a.outcomes] == [o.category for o in b.outcomes]


class TestEarlyExitSplice:
    """The hash splice: a mutation whose effect is erased re-converges
    to the reference and takes the early exit."""

    def test_overwritten_input_mirror_splices(self, campaign):
        # The reference mirror ``r`` is rewritten from MMIO every
        # iteration before it is read, so flipping its image bit is
        # erased in the first iteration and the run re-converges.
        address = campaign.workload.variable_addresses["r"]
        fault = image_fault(DATA_PARTITION, address, 31)
        run = campaign.run_experiment(fault)
        assert run.early_exit_iteration == 1
        assert run.outputs == campaign.reference.outputs
        assert not run.final_state_differs

    def test_splice_does_not_change_outcomes(self, campaign):
        plan = sample_image_faults(
            campaign.workload, 20, np.random.default_rng(9)
        )
        for fault in plan:
            fast = campaign.run_experiment(fault, early_exit=True)
            slow = campaign.run_experiment(fault, early_exit=False)
            assert fast.outputs == slow.outputs, fault.label()
            assert fast.final_state_differs == slow.final_state_differs
            assert (fast.detection is None) == (slow.detection is None)

    def test_code_faults_never_splice(self, campaign):
        # A code-image flip keeps the loaded image — and therefore the
        # state hash — different from the reference forever.
        plan = sample_image_faults(
            campaign.workload, 15, np.random.default_rng(4), include_data=False
        )
        for fault in plan:
            run = campaign.run_experiment(fault)
            assert run.early_exit_iteration is None, fault.label()


class TestBoundaryZeroSeat:
    def test_seat_equals_a_fresh_load(self, campaign):
        """Image faults rely on boundary 0 being the loaded, reset,
        warm-started image with its first inputs written — what a fresh
        target holds before its first instruction."""
        # Dirty the machine first, so the seat has something to undo.
        campaign.run_experiment(
            image_fault(CODE_PARTITION, campaign.workload.program.entry, 30)
        )
        campaign.restore_boundary(0)

        fresh = TargetSystem(campaign.workload, iterations=ITERATIONS)
        fresh.cpu.load(campaign.workload.program)
        fresh.environment.reset()
        fresh._warm_start_workload()
        fresh.environment.write_inputs(fresh.cpu.memory.mmio)

        assert campaign.cpu.snapshot() == fresh.cpu.snapshot()
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(campaign.environment.snapshot()) == repr(
            fresh.environment.snapshot()
        )
        assert _hash_state_fresh(
            campaign.cpu, campaign.environment
        ) == _hash_state_fresh(fresh.cpu, fresh.environment)
        assert campaign.boundary_hash() == campaign.reference.hashes[0]
