"""Tests for GOOFI: environment, target, campaigns, SWIFI, database."""

import numpy as np
import pytest

from repro.analysis.classify import OutcomeCategory
from repro.control import GuardedPIController, PIController
from repro.errors import CampaignError
from repro.faults.models import FaultDescriptor, FaultTarget
from repro.goofi import (
    CampaignConfig,
    CampaignDatabase,
    EngineEnvironment,
    ModelFault,
    ScifiCampaign,
    TargetSystem,
    run_model_campaign,
    sample_model_faults,
)
from repro.thor.memory import MMIODevice
from repro.thor.scanchain import CACHE_PARTITION, REGISTER_PARTITION


class TestEngineEnvironment:
    def test_reset_warm_starts_at_reference(self):
        env = EngineEnvironment()
        env.reset()
        assert env.engine.speed == 2000.0
        assert env.iteration == 0

    def test_exchange_advances_engine_and_inputs(self):
        env = EngineEnvironment()
        env.reset()
        mmio = __import__("repro.thor.memory", fromlist=["MMIODevice"])
        from repro.thor.memory import MemoryMap

        memory = MemoryMap()
        env.write_inputs(memory.mmio)
        memory.mmio.write(MMIODevice.THROTTLE, 0x41400000)  # 12.0f
        throttle = env.exchange(memory.mmio)
        assert throttle == pytest.approx(12.0)
        assert env.iteration == 1

    def test_snapshot_round_trip(self):
        env = EngineEnvironment()
        env.reset()
        env.hold_output_step(12.0)
        snapshot = env.snapshot()
        env.hold_output_step(40.0)
        env.restore(snapshot)
        assert env.iteration == 1
        assert env.state_bytes() == EngineEnvironment.state_bytes(env)

    def test_initial_throttle_is_equilibrium(self):
        env = EngineEnvironment()
        env.reset()
        throttle = env.initial_throttle()
        speed0 = env.engine.speed
        env.hold_output_step(throttle)
        assert env.engine.speed == pytest.approx(speed0, abs=1e-6)


class TestReferenceRun:
    def test_reference_records_everything(self, short_reference_target):
        reference = short_reference_target.reference
        assert len(reference.outputs) == 60
        assert len(reference.hashes) == 61
        assert len(reference.snapshots) == 61
        assert reference.instructions_at[0] == 0
        assert reference.total_instructions == reference.instructions_at[-1]

    def test_locate_maps_times_to_iterations(self, short_reference_target):
        reference = short_reference_target.reference
        assert reference.locate(0) == 0
        for k in (1, 17, 42):
            t = reference.instructions_at[k]
            assert reference.locate(t) == k
            assert reference.locate(t - 1) == k - 1

    def test_locate_rejects_out_of_range(self, short_reference_target):
        reference = short_reference_target.reference
        with pytest.raises(CampaignError):
            reference.locate(-1)
        with pytest.raises(CampaignError):
            reference.locate(reference.total_instructions)

    def test_experiment_requires_reference(self, algorithm_i_compiled):
        target = TargetSystem(algorithm_i_compiled, iterations=10)
        fault = FaultDescriptor(FaultTarget(REGISTER_PARTITION, "r0", 0), 5)
        with pytest.raises(CampaignError):
            target.run_experiment(fault)


class TestExperiments:
    def test_dead_register_flip_is_latent(self, short_reference_target):
        # r0 is never used by generated code: the flip persists, outputs
        # stay correct.
        reference = short_reference_target.reference
        fault = FaultDescriptor(FaultTarget(REGISTER_PARTITION, "r0", 17), 100)
        run = short_reference_target.run_experiment(fault)
        assert run.detection is None
        assert run.outputs == reference.outputs
        assert run.final_state_differs

    def test_scratch_register_flip_usually_overwritten(self, short_reference_target):
        reference = short_reference_target.reference
        # Flip r1 right at an iteration boundary: the next iteration
        # reloads it before use.
        t = reference.instructions_at[10]
        fault = FaultDescriptor(FaultTarget(REGISTER_PARTITION, "r1", 30), t)
        run = short_reference_target.run_experiment(fault)
        assert run.detection is None
        assert run.outputs == reference.outputs
        assert not run.final_state_differs
        assert run.early_exit_iteration is not None

    def test_state_variable_corruption_causes_value_failure(
        self, short_reference_target
    ):
        target = short_reference_target
        reference = target.reference
        x_address = target.workload.address_of("x")
        from repro.thor.cache import split_address

        tag, index = split_address(x_address)
        # Find a time when x's line is cached: just after iteration 20.
        t = reference.instructions_at[20] + 119
        fault = FaultDescriptor(
            FaultTarget(CACHE_PARTITION, f"line{index}.data", 29), t
        )
        run = target.run_experiment(fault)
        # Either a value failure or (if the line held another tag at that
        # instant) a benign outcome — assert it is not detected and that
        # *some* severe/value failure arises for one of several times.
        outcomes = []
        for offset in (20, 45, 80, 110):
            fault = FaultDescriptor(
                FaultTarget(CACHE_PARTITION, f"line{index}.data", 29),
                reference.instructions_at[20] + offset,
            )
            run = target.run_experiment(fault)
            if run.detection is None and run.outputs != reference.outputs:
                outcomes.append(run)
        assert outcomes, "no x corruption produced a value failure"

    def test_sp_corruption_detected_as_storage_error(self, short_reference_target):
        reference = short_reference_target.reference
        fault = FaultDescriptor(
            FaultTarget(REGISTER_PARTITION, "sp", 16),
            reference.instructions_at[5],
        )
        run = short_reference_target.run_experiment(fault)
        assert run.detection is not None
        assert run.detection.mechanism.value == "STORAGE ERROR"

    def test_early_exit_equivalence_property(self, short_reference_target):
        """Outcomes are identical with and without the early-exit
        optimisation (the optimisation is provably behaviour-preserving)."""
        target = short_reference_target
        space = target.scan_chain.location_space()
        rng = np.random.default_rng(99)
        from repro.faults.models import sample_fault_plan

        plan = sample_fault_plan(
            space, target.reference.total_instructions, 25, rng
        )
        for fault in plan:
            fast = target.run_experiment(fault, early_exit=True)
            slow = target.run_experiment(fault, early_exit=False)
            assert fast.outputs == slow.outputs, fault.label()
            assert (fast.detection is None) == (slow.detection is None)
            if fast.detection is not None:
                assert fast.detection.mechanism == slow.detection.mechanism
            assert fast.final_state_differs == slow.final_state_differs

    def test_experiments_do_not_corrupt_the_reference(self, short_reference_target):
        target = short_reference_target
        before = list(target.reference.outputs)
        fault = FaultDescriptor(FaultTarget(REGISTER_PARTITION, "pc", 12), 500)
        target.run_experiment(fault)
        rerun = target.run_experiment(
            FaultDescriptor(FaultTarget(REGISTER_PARTITION, "r0", 0), 10)
        )
        assert target.reference.outputs == before
        assert rerun.outputs == before


class TestScifiCampaign:
    def test_small_campaign_end_to_end(self, algorithm_i_compiled):
        config = CampaignConfig(
            workload=algorithm_i_compiled,
            name="mini",
            faults=30,
            seed=5,
            iterations=40,
        )
        result = ScifiCampaign(config).run()
        assert len(result.experiments) == 30
        assert len(result.outcomes) == 30
        summary = result.summary()
        assert summary.total() == 30
        assert summary.partition_sizes == {"cache": 1824, "registers": 426}

    def test_campaign_is_reproducible(self, algorithm_i_compiled):
        config = CampaignConfig(
            workload=algorithm_i_compiled, faults=15, seed=123, iterations=30
        )
        a = ScifiCampaign(config).run()
        b = ScifiCampaign(config).run()
        assert [o.category for o in a.outcomes] == [o.category for o in b.outcomes]

    def test_partition_restriction(self, algorithm_i_compiled):
        config = CampaignConfig(
            workload=algorithm_i_compiled,
            faults=10,
            seed=1,
            iterations=20,
            partitions=["registers"],
        )
        result = ScifiCampaign(config).run()
        assert all(
            r.fault.target.partition == "registers" for r in result.experiments
        )

    def test_unknown_partition_rejected(self, algorithm_i_compiled):
        config = CampaignConfig(
            workload=algorithm_i_compiled, faults=10, partitions=["rom"]
        )
        with pytest.raises(CampaignError, match="unknown partition"):
            ScifiCampaign(config).run()

    @pytest.mark.parametrize(
        "partitions, message",
        [
            (["cache", "memory"], "mix fault models"),
            (["registers", "code-image"], "mix fault models"),
            (["memory", "data-image"], "mix fault models"),
            (["data-image"], "need code-image"),
        ],
    )
    def test_partitions_name_one_fault_model(
        self, algorithm_i_compiled, partitions, message, monkeypatch
    ):
        config = CampaignConfig(
            workload=algorithm_i_compiled, faults=10, partitions=partitions
        )
        campaign = ScifiCampaign(config)

        def no_reference_run(*_args, **_kwargs):
            raise AssertionError("refused only after the reference run")

        monkeypatch.setattr(campaign.target, "run_reference", no_reference_run)
        with pytest.raises(CampaignError, match=message):
            campaign.run()

    def test_cli_rejects_bad_partitions_cleanly(self, tmp_path):
        from repro.cli import main

        bad = ["--partitions", "cache", "memory"]
        with pytest.raises(SystemExit, match="mix fault models"):
            main(["campaign"] + bad)
        # A submission is refused before anything is queued.
        root = tmp_path / "service"
        with pytest.raises(SystemExit, match="mix fault models"):
            main(["submit", "--root", str(root)] + bad)
        assert not root.exists()

    def test_progress_callback_invoked(self, algorithm_i_compiled):
        calls = []
        config = CampaignConfig(
            workload=algorithm_i_compiled, faults=5, seed=2, iterations=20
        )
        ScifiCampaign(config).run(progress=lambda i, n, o: calls.append((i, n)))
        assert calls == [(1, 5), (2, 5), (3, 5), (4, 5), (5, 5)]

    def test_config_validation(self, algorithm_i_compiled):
        with pytest.raises(CampaignError):
            CampaignConfig(workload=algorithm_i_compiled, faults=0)
        with pytest.raises(CampaignError):
            CampaignConfig(workload=algorithm_i_compiled, iterations=0)

    def test_parallel_run_is_bit_identical_to_serial(self, algorithm_i_compiled):
        """workers=N fans the plan over processes; every experiment is a
        pure function of its fault, so results must match exactly."""
        config = CampaignConfig(
            workload=algorithm_i_compiled, faults=24, seed=21, iterations=40
        )
        serial = ScifiCampaign(config).run()
        parallel = ScifiCampaign(config).run(workers=3)
        assert [o.category for o in serial.outcomes] == [
            o.category for o in parallel.outcomes
        ]
        assert [r.outputs for r in serial.experiments] == [
            r.outputs for r in parallel.experiments
        ]


class TestDatabase:
    def test_store_and_reload_summary(self, algorithm_i_compiled):
        config = CampaignConfig(
            workload=algorithm_i_compiled, name="stored", faults=20,
            seed=9, iterations=30,
        )
        with CampaignDatabase(":memory:") as db:
            result = ScifiCampaign(config, database=db).run()
            campaigns = db.list_campaigns()
            assert len(campaigns) == 1
            campaign_id = campaigns[0][0]
            summary = db.load_summary(campaign_id)
            original = result.summary()
            assert summary.total() == original.total()
            assert summary.count_detected() == original.count_detected()
            assert summary.count_value_failures() == original.count_value_failures()
            assert summary.name == "stored"

    def test_mechanism_counts_query(self, algorithm_i_compiled):
        config = CampaignConfig(
            workload=algorithm_i_compiled, faults=40, seed=11, iterations=30
        )
        with CampaignDatabase(":memory:") as db:
            result = ScifiCampaign(config, database=db).run()
            counts = dict(db.mechanism_counts(1))
            assert sum(counts.values()) == result.summary().count_detected()

    def test_missing_campaign_raises(self):
        from repro.errors import DatabaseError

        with CampaignDatabase(":memory:") as db:
            with pytest.raises(DatabaseError):
                db.load_summary(42)


class TestModelLevelSwifi:
    def test_model_fault_application(self):
        fault = ModelFault(state_index=0, bit=31, iteration=5)
        assert fault.apply(10.0) == -10.0
        fault64 = ModelFault(0, 63, 5, representation="float64")
        assert fault64.apply(10.0) == -10.0

    def test_unknown_representation_rejected(self):
        with pytest.raises(CampaignError):
            ModelFault(0, 0, 0, representation="float16").apply(1.0)

    def test_sampling_ranges(self):
        rng = np.random.default_rng(0)
        plan = sample_model_faults(state_width=3, count=50, rng=rng, iterations=100)
        assert len(plan) == 50
        assert all(0 <= f.state_index < 3 for f in plan)
        assert all(0 <= f.bit < 32 for f in plan)
        assert all(0 <= f.iteration < 100 for f in plan)

    def test_campaign_against_plain_pi(self):
        result = run_model_campaign(
            PIController, faults=60, seed=3, iterations=120, name="pi model"
        )
        summary = result.summary()
        assert summary.total() == 60
        # Bit flips in the live state are mostly effective at model level.
        assert summary.count_value_failures() > 0

    def test_guarded_controller_reduces_severe_failures(self):
        plain = run_model_campaign(
            PIController, faults=250, seed=7, iterations=200
        ).summary()
        guarded = run_model_campaign(
            GuardedPIController, faults=250, seed=7, iterations=200
        ).summary()
        assert guarded.count_category(OutcomeCategory.SEVERE_PERMANENT) <= \
            plain.count_category(OutcomeCategory.SEVERE_PERMANENT)
        assert guarded.count_severe() < plain.count_severe()

    def test_assertion_events_counted(self):
        result = run_model_campaign(
            GuardedPIController, faults=100, seed=13, iterations=100
        )
        assert any(e.assertion_events > 0 for e in result.experiments)
