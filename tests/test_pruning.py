"""Def/use access-trace pruning: liveness map, campaign equivalence,
provenance and validation."""

from __future__ import annotations

import pytest

from repro.errors import CampaignError
from repro.faults.liveness import (
    ALWAYS_LIVE,
    AccessRecorder,
    Liveness,
    LivenessMap,
)
from repro.faults.models import FaultDescriptor, FaultTarget
from repro.goofi import (
    CampaignConfig,
    CampaignDatabase,
    ScifiCampaign,
    preclassify_plan,
    synthesize_run,
    validate_pruning,
)
from repro.goofi.environment import EngineEnvironment
from repro.goofi.target import TargetSystem
from repro.analysis.classify import OutcomeCategory, classify_experiment
from repro.analysis.report import render_outcome_table
from repro.thor.cpu import FLAG_C, FLAG_Z


def _target(partition, element, bit=0):
    return FaultTarget(partition, element, bit)


class TestLivenessMap:
    """Unit-level classification semantics."""

    def test_write_before_read_is_overwritten(self):
        recorder = AccessRecorder()
        recorder.now = 10
        recorder.reg_write("r1")
        recorder.now = 20
        recorder.reg_read("r1")
        liveness = LivenessMap.from_recorder(recorder, 100)
        assert (
            liveness.classify(_target("registers", "r1"), 5)
            is Liveness.OVERWRITTEN
        )

    def test_read_first_is_live(self):
        recorder = AccessRecorder()
        recorder.now = 10
        recorder.reg_read("r1")
        recorder.now = 20
        recorder.reg_write("r1")
        liveness = LivenessMap.from_recorder(recorder, 100)
        assert liveness.classify(_target("registers", "r1"), 5) is Liveness.LIVE

    def test_never_touched_again_is_latent(self):
        recorder = AccessRecorder()
        recorder.now = 10
        recorder.reg_write("r1")
        liveness = LivenessMap.from_recorder(recorder, 100)
        # Injection after the last access: nothing ever reads the bit.
        assert (
            liveness.classify(_target("registers", "r1"), 11) is Liveness.LATENT
        )

    def test_untouched_element_is_latent(self):
        liveness = LivenessMap.from_recorder(AccessRecorder(), 100)
        assert (
            liveness.classify(_target("registers", "r7"), 0) is Liveness.LATENT
        )

    def test_access_at_injection_time_counts(self):
        # The flip happens just before the instruction at `time` runs, so
        # an access recorded at exactly `time` decides the classification.
        recorder = AccessRecorder()
        recorder.now = 10
        recorder.reg_write("r1")
        liveness = LivenessMap.from_recorder(recorder, 100)
        assert (
            liveness.classify(_target("registers", "r1"), 10)
            is Liveness.OVERWRITTEN
        )

    def test_pc_and_ir_always_live(self):
        liveness = LivenessMap.from_recorder(AccessRecorder(), 100)
        for _partition, element in sorted(ALWAYS_LIVE):
            assert (
                liveness.classify(_target("registers", element), 50)
                is Liveness.LIVE
            )

    def test_masked_write_only_covers_its_bits(self):
        # _set_flags overwrites ZNCV but passes every other PSW bit
        # through: a flip in an untouched bit stays latent.
        recorder = AccessRecorder()
        recorder.now = 10
        recorder.reg_write("psw", FLAG_Z | FLAG_C)
        liveness = LivenessMap.from_recorder(recorder, 100)
        z_bit = FLAG_Z.bit_length() - 1
        assert (
            liveness.classify(_target("registers", "psw", z_bit), 5)
            is Liveness.OVERWRITTEN
        )
        assert (
            liveness.classify(_target("registers", "psw", 20), 5)
            is Liveness.LATENT
        )

    def test_memory_outside_tracked_ranges_is_live(self):
        recorder = AccessRecorder()
        recorder.track_memory_range(0x2000, 0x100)
        liveness = LivenessMap.from_recorder(recorder, 100)
        assert (
            liveness.classify(_target("memory", "0x2000"), 0)
            is Liveness.LATENT
        )
        assert (
            liveness.classify(_target("memory", "0x9000"), 0) is Liveness.LIVE
        )

    def test_multibit_combination(self):
        from repro.faults.multibit import MultiBitFault

        recorder = AccessRecorder()
        recorder.now = 10
        recorder.reg_write("r1")
        recorder.now = 12
        recorder.reg_read("r2")
        liveness = LivenessMap.from_recorder(recorder, 100)
        over = _target("registers", "r1")
        live = _target("registers", "r2")
        latent = _target("registers", "r3")
        assert (
            liveness.classify_fault(FaultDescriptor(over, 5))
            is Liveness.OVERWRITTEN
        )
        assert (
            liveness.classify_fault(MultiBitFault((over, latent), 5))
            is Liveness.LATENT
        )
        assert (
            liveness.classify_fault(MultiBitFault((over, latent, live), 5))
            is Liveness.LIVE
        )

    def test_synthesize_refuses_live(self, short_reference_target):
        reference = short_reference_target.reference
        with pytest.raises(CampaignError):
            synthesize_run(
                FaultDescriptor(_target("registers", "r1"), 0),
                Liveness.LIVE,
                reference,
            )


class TestRecordedReference:
    """run_reference(record_access=True) behaviour."""

    @pytest.fixture(scope="class")
    def recorded_target(self, algorithm_i_compiled):
        target = TargetSystem(
            workload=algorithm_i_compiled,
            environment=EngineEnvironment(),
            iterations=60,
        )
        target.run_reference(record_access=True)
        return target

    def test_recording_does_not_change_the_reference(
        self, recorded_target, short_reference_target
    ):
        assert (
            recorded_target.reference.outputs
            == short_reference_target.reference.outputs
        )
        assert (
            recorded_target.reference.hashes
            == short_reference_target.reference.hashes
        )

    def test_recorder_detached_after_the_run(self, recorded_target):
        assert recorded_target.cpu.access_log is None
        assert recorded_target.cpu.recorder is None
        assert recorded_target.cpu.cache.recorder is None
        assert recorded_target.cpu.memory.recorder is None

    def test_liveness_only_with_record_access(self, short_reference_target):
        assert short_reference_target.liveness is None

    def test_predictions_match_simulation(self, recorded_target):
        """Every predicted fault simulates to exactly the predicted run."""
        liveness = recorded_target.liveness
        reference = recorded_target.reference
        space = recorded_target.scan_chain.location_space()
        import numpy as np

        from repro.faults.models import sample_fault_plan

        plan = sample_fault_plan(
            space=space,
            total_instructions=reference.total_instructions,
            count=120,
            rng=np.random.default_rng(11),
        )
        pruned = preclassify_plan(plan, liveness)
        assert pruned.predicted, "plan contains no prunable fault"
        for _index, fault, classification in pruned.predicted:
            simulated = recorded_target.run_experiment(fault)
            predicted = synthesize_run(fault, classification, reference)
            assert simulated.outputs == predicted.outputs, fault
            assert (
                simulated.final_state_differs == predicted.final_state_differs
            ), fault
            assert simulated.detection is None


class TestCampaignEquivalence:
    """The pruned campaign reproduces the unpruned one exactly."""

    @pytest.fixture(scope="class")
    def configs(self, algorithm_i_compiled):
        def make(prune):
            return CampaignConfig(
                workload=algorithm_i_compiled,
                faults=300,
                iterations=60,
                seed=42,
                prune=prune,
            )

        return make

    @pytest.fixture(scope="class")
    def unpruned(self, configs):
        return ScifiCampaign(configs(False)).run()

    @pytest.fixture(scope="class")
    def pruned(self, configs):
        return ScifiCampaign(configs(True)).run()

    def test_serial_outcomes_identical(self, unpruned, pruned):
        assert pruned.outcomes == unpruned.outcomes

    def test_summaries_identical(self, unpruned, pruned):
        assert render_outcome_table(pruned.summary()) == render_outcome_table(
            unpruned.summary()
        )

    def test_outcomes_equal_a_plain_classification(self, pruned):
        """Results are classified against the reference outputs converted
        once, and predicted runs without materialising their output
        view; every outcome still equals, field for field, classifying
        the run's own output list against the reference list."""
        assert any(run.predicted for run in pruned.experiments)
        reference = list(pruned.reference_outputs)
        for run, outcome in zip(pruned.experiments, pruned.outcomes):
            detected_by = run.detection.mechanism.value if run.detection else None
            assert outcome == classify_experiment(
                observed=list(run.outputs),
                reference=reference,
                detected_by=detected_by,
                final_state_differs=run.final_state_differs,
            )

    def test_simulation_reduction(self, pruned):
        predicted = sum(1 for run in pruned.experiments if run.predicted)
        assert predicted / len(pruned.experiments) >= 0.30

    def test_predicted_runs_are_non_effective(self, pruned):
        for run, outcome in zip(pruned.experiments, pruned.outcomes):
            if run.predicted:
                assert outcome.category in (
                    OutcomeCategory.OVERWRITTEN,
                    OutcomeCategory.LATENT,
                )
                assert run.instructions_executed == 0

    def test_parallel_pruned_outcomes_identical(self, configs, unpruned):
        parallel = ScifiCampaign(configs(True)).run(workers=2)
        assert parallel.outcomes == unpruned.outcomes

    def test_validate_pruning_reports_ok(self, configs):
        report = validate_pruning(configs(False))
        assert report.ok
        assert not report.mismatches
        assert report.summaries_match
        assert report.predicted + report.simulated == report.faults
        assert report.reduction >= 0.30
        assert "verdict              OK" in report.render()

    def test_database_provenance(self, configs):
        with CampaignDatabase(":memory:") as database:
            ScifiCampaign(configs(True), database=database).run()
            (campaign_id, _name, _faults) = database.list_campaigns()[0]
            counts = dict(database.provenance_counts(campaign_id))
            assert set(counts) == {"predicted", "simulated"}
            assert counts["predicted"] + counts["simulated"] == 300

    def test_pruning_counters(self, configs):
        from repro.obs import Telemetry

        telemetry = Telemetry(events_path=None)
        ScifiCampaign(configs(True)).run(telemetry=telemetry)
        metrics = telemetry.metrics
        pruned_total = sum(
            counter.value
            for key, counter in metrics.counters.items()
            if key.startswith("pruned_experiments")
        )
        simulated = metrics.counter("simulated_experiments").value
        assert pruned_total > 0
        assert pruned_total + simulated == 300


class TestMemoryCampaignPruning:
    """Memory faults are plain descriptors in the ``memory`` partition,
    so the recorded RAM traces prune them and the dead-divergence exit
    covers them like any other fault."""

    @pytest.fixture(scope="class")
    def make(self, algorithm_i_compiled):
        def make(**overrides):
            return CampaignConfig(
                workload=algorithm_i_compiled,
                faults=200,
                iterations=60,
                seed=5,
                partitions=["memory"],
                **overrides,
            )

        return make

    def test_validate_pruning_reports_ok(self, make):
        report = validate_pruning(make())
        assert report.ok
        assert not report.mismatches
        assert report.summaries_match
        # RAM words are mostly overwritten or never read again.
        assert report.reduction >= 0.5

    @pytest.mark.parametrize("prune", [False, True], ids=["plain", "pruned"])
    def test_early_exit_does_not_change_outcomes(self, make, prune):
        fast = ScifiCampaign(make(prune=prune)).run()
        slow = ScifiCampaign(make(prune=prune, early_exit=False)).run()
        assert fast.outcomes == slow.outcomes
        if not prune:
            # Pruned, only faults read before any overwrite are simulated;
            # on this plan each of them ends in DATA ERROR, not an exit.
            assert any(run.early_exit_iteration for run in fast.experiments)
        assert not any(run.early_exit_iteration for run in slow.experiments)
        for a, b in zip(fast.experiments, slow.experiments):
            assert list(a.outputs) == list(b.outputs)
            assert a.final_state_differs == b.final_state_differs
