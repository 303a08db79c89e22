"""Equivalence collapse and batched execution: liveness boundaries,
collapse-class grouping, replay provenance, batch-engine equivalence,
the schema-v5 database surface and the warm pruning-validation harness."""

from __future__ import annotations

import sqlite3
from dataclasses import replace

import pytest

from repro.analysis.report import render_outcome_table
from repro.errors import CampaignError
from repro.faults.liveness import FULL_MASK, AccessRecorder, LivenessMap
from repro.faults.models import FaultDescriptor, FaultTarget
from repro.faults.multibit import MultiBitFault
from repro.goofi import (
    CampaignConfig,
    CampaignDatabase,
    ScifiCampaign,
    collapse_live_plan,
    replay_equivalent,
    validate_collapse,
    validate_pruning,
)
from repro.goofi.environment import EngineEnvironment
from repro.goofi.pool import ReferencePool, WorkerPayload, _factories_equivalent
from repro.goofi.pruning import collapse_key
from repro.goofi.target import TargetSystem
from repro.thor.cpu import FLAG_N, FLAG_Z, _FLAG_WRITE_MASK


def _fault(element, bit, time, partition="registers"):
    return FaultDescriptor(
        target=FaultTarget(partition, element, bit), time=time
    )


# -- liveness boundaries (first_live_read semantics) ---------------------------
class TestFirstLiveRead:
    def test_read_at_exactly_fault_time_is_the_site(self):
        # The flip lands just before the instruction at `time` runs, so
        # a read recorded at exactly that index consumes the flipped
        # bit — the bisect_left boundary must include it.
        recorder = AccessRecorder()
        recorder.now = 10
        recorder.reg_read("r1", value=0b100)
        liveness = LivenessMap.from_recorder(recorder, 100)
        site = liveness.first_live_read(FaultTarget("registers", "r1", 0), 10)
        assert site is not None
        assert site.index == 10
        assert site.ordinal == 0
        assert site.delivered == 0b101

    def test_write_at_exactly_fault_time_erases_the_bit(self):
        recorder = AccessRecorder()
        recorder.now = 10
        recorder.reg_write("r1")
        liveness = LivenessMap.from_recorder(recorder, 100)
        assert (
            liveness.first_live_read(FaultTarget("registers", "r1", 0), 10)
            is None
        )

    def test_masked_flag_write_does_not_hide_other_psw_bits(self):
        # An ALU result writes only Z/N/C/V; a fault in an uncovered PSW
        # bit (e.g. the mode bit 7) stays live for the next full read.
        recorder = AccessRecorder()
        recorder.now = 5
        recorder.reg_write("psw", mask=_FLAG_WRITE_MASK)
        recorder.now = 9
        recorder.reg_read("psw", mask=FULL_MASK, value=FLAG_Z)
        liveness = LivenessMap.from_recorder(recorder, 100)
        mode_site = liveness.first_live_read(
            FaultTarget("registers", "psw", 7), 4
        )
        assert mode_site is not None and mode_site.index == 9
        # ...while a flag bit the write covers is consumed only from the
        # overwrite on: a pre-write flip is erased, a post-write flip is
        # delivered to the read.
        assert (
            liveness.first_live_read(FaultTarget("registers", "psw", 0), 4)
            is None
        )
        flag_site = liveness.first_live_read(
            FaultTarget("registers", "psw", 0), 6
        )
        assert flag_site is not None and flag_site.delivered == 0

    def test_masked_read_pins_delivered_to_consumed_bits(self):
        # A conditional branch consumes a single flag: the delivered
        # value is restricted to that mask, so faults in *other* bits
        # never alias into its collapse class.
        recorder = AccessRecorder()
        recorder.now = 7
        recorder.reg_read("psw", mask=FLAG_Z, value=FLAG_Z | FLAG_N)
        liveness = LivenessMap.from_recorder(recorder, 100)
        z_site = liveness.first_live_read(FaultTarget("registers", "psw", 0), 3)
        assert z_site is not None
        assert z_site.mask == FLAG_Z
        assert z_site.delivered == 0
        # The N bit is outside the consumed mask: this read is not its
        # first live read.
        assert (
            liveness.first_live_read(FaultTarget("registers", "psw", 1), 3)
            is None
        )


# -- collapse-class grouping ---------------------------------------------------
class TestCollapseKey:
    def _map(self):
        recorder = AccessRecorder()
        recorder.now = 10
        recorder.reg_read("r1", value=0)
        recorder.now = 20
        recorder.reg_write("r1")
        recorder.now = 30
        recorder.reg_read("r2", value=0)
        return LivenessMap.from_recorder(recorder, 100)

    def test_same_site_same_value_share_a_key(self):
        liveness = self._map()
        assert collapse_key(_fault("r1", 3, 2), liveness) == collapse_key(
            _fault("r1", 3, 9), liveness
        )

    def test_different_bits_never_share_a_key(self):
        liveness = self._map()
        # Different flipped bits deliver different values to the read.
        assert collapse_key(_fault("r1", 3, 2), liveness) != collapse_key(
            _fault("r1", 4, 2), liveness
        )

    def test_multibit_fault_never_collapses(self):
        liveness = self._map()
        multi = MultiBitFault(
            targets=(
                FaultTarget("registers", "r1", 3),
                FaultTarget("registers", "r1", 4),
            ),
            time=2,
        )
        assert collapse_key(multi, liveness) is None

    def test_always_live_and_overwritten_have_no_key(self):
        liveness = self._map()
        assert collapse_key(_fault("pc", 0, 2), liveness) is None
        # Injection after the overwrite but before nothing: r1 is never
        # read again, so there is no consuming site.
        assert collapse_key(_fault("r1", 3, 21), liveness) is None

    def test_collapse_groups_with_first_member_as_representative(self):
        liveness = self._map()
        plan = [
            (4, _fault("r1", 3, 2)),
            (7, _fault("r2", 0, 25)),
            (9, _fault("r1", 3, 9)),
            (11, _fault("r1", 3, 5)),
        ]
        collapsed = collapse_live_plan(plan, liveness)
        assert [index for index, _f in collapsed.representatives] == [4, 7]
        assert {k: [i for i, _f in v] for k, v in collapsed.members.items()} == {
            4: [9, 11]
        }
        assert collapsed.collapsed == 2
        assert collapsed.classes == 1


class TestReplayEquivalent:
    @pytest.fixture(scope="class")
    def recorded_target(self, algorithm_i_compiled):
        target = TargetSystem(
            workload=algorithm_i_compiled,
            environment=EngineEnvironment(),
            iterations=40,
        )
        target.run_reference()
        return target

    def test_copies_every_observable_field(self, recorded_target):
        reference = recorded_target.reference
        fault = _fault("r1", 0, 50)
        run = recorded_target.run_experiment(fault)
        twin = replay_equivalent(_fault("r1", 0, 52), run, 3)
        assert twin.outputs == run.outputs
        assert twin.detection == run.detection
        assert twin.detected_iteration == run.detected_iteration
        assert twin.final_state_differs == run.final_state_differs
        assert twin.early_exit_iteration == run.early_exit_iteration
        assert twin.timed_out == run.timed_out
        assert twin.instructions_executed == run.instructions_executed
        assert twin.equivalent and twin.representative_index == 3
        assert reference.outputs  # the reference stayed usable

    def test_refuses_non_simulated_representative(self, recorded_target):
        fault = _fault("r1", 0, 50)
        run = recorded_target.run_experiment(fault)
        for flag in ("predicted", "quarantined"):
            broken = replace(run, **{flag: True})
            with pytest.raises(CampaignError):
                replay_equivalent(fault, broken, 0)


# -- batched execution ---------------------------------------------------------
class TestBatchedExecution:
    @pytest.fixture(scope="class")
    def live_faults(self, algorithm_i_compiled):
        target = TargetSystem(
            workload=algorithm_i_compiled,
            environment=EngineEnvironment(),
            iterations=40,
        )
        target.run_reference(record_access=True)
        import numpy as np

        from repro.faults.models import sample_fault_plan

        plan = sample_fault_plan(
            space=target.scan_chain.location_space(),
            total_instructions=target.reference.total_instructions,
            count=40,
            rng=np.random.default_rng(3),
        )
        live = [
            fault
            for fault in plan
            if target.liveness.classify_fault(fault).value == "live"
        ]
        assert len(live) >= 8
        return live[:12]

    def _target(self, workload, batch_size, fast_dispatch=True):
        target = TargetSystem(
            workload=workload,
            environment=EngineEnvironment(),
            iterations=40,
            batch_size=batch_size,
            fast_dispatch=fast_dispatch,
        )
        target.run_reference()
        return target

    # Batch lanes and serial experiments share CPU.run's table-driven
    # loop, so the serial side is also run on the reference chain.
    @pytest.mark.parametrize(
        "serial_fast_dispatch",
        [True, False],
        ids=["table_loop", "reference_chain"],
    )
    def test_batch_matches_serial_field_for_field(
        self, algorithm_i_compiled, live_faults, serial_fast_dispatch
    ):
        serial = self._target(
            algorithm_i_compiled, 1, fast_dispatch=serial_fast_dispatch
        )
        batched = self._target(algorithm_i_compiled, 4)
        expected = [serial.run_experiment(f) for f in live_faults]
        actual = batched.run_experiment_batch(list(live_faults))
        for want, got in zip(expected, actual):
            assert got.outputs == want.outputs
            assert got.detection == want.detection
            assert got.detected_iteration == want.detected_iteration
            assert got.final_state_differs == want.final_state_differs
            assert got.early_exit_iteration == want.early_exit_iteration
            assert got.timed_out == want.timed_out
            assert got.instructions_executed == want.instructions_executed

    def test_uncloneable_environment_falls_back_to_serial(
        self, algorithm_i_compiled, live_faults
    ):
        class OpaqueEnvironment(EngineEnvironment):
            """No factory, not the plain class: lanes cannot clone it."""

        target = TargetSystem(
            workload=algorithm_i_compiled,
            environment=OpaqueEnvironment(),
            iterations=40,
            batch_size=4,
        )
        target.run_reference()
        runs = target.run_experiment_batch(list(live_faults[:4]))
        assert len(runs) == 4
        assert target._lanes_unavailable


# -- campaign-level golden equivalence -----------------------------------------
class TestCampaignCollapseEquivalence:
    @pytest.fixture(scope="class")
    def base_config(self, algorithm_i_compiled):
        return CampaignConfig(
            workload=algorithm_i_compiled,
            faults=120,
            iterations=40,
            seed=42,
        )

    @pytest.fixture(scope="class")
    def baseline(self, base_config):
        return ScifiCampaign(base_config).run()

    def test_collapse_and_batch_serial(self, base_config, baseline):
        result = ScifiCampaign(
            replace(base_config, prune=True, collapse=True, batch_size=4)
        ).run()
        assert result.outcomes == baseline.outcomes
        assert render_outcome_table(result.summary()) == render_outcome_table(
            baseline.summary()
        )

    def test_collapse_and_batch_parallel(self, base_config, baseline):
        result = ScifiCampaign(
            replace(base_config, prune=True, collapse=True, batch_size=4)
        ).run(workers=2)
        assert result.outcomes == baseline.outcomes
        assert render_outcome_table(result.summary()) == render_outcome_table(
            baseline.summary()
        )

    def test_validate_collapse_reports_ok(self, base_config):
        report = validate_collapse(replace(base_config, batch_size=4))
        assert report.ok
        assert report.simulated + report.predicted + report.equivalent == (
            report.faults
        )


def _forced_collapse_plan(workload, iterations=20):
    """A crafted plan holding real equivalence classes: pairs of faults
    in the same element whose injections straddle no access, so both
    deliver the same flipped value to the same first live read."""
    target = TargetSystem(
        workload=workload, environment=EngineEnvironment(), iterations=iterations
    )
    target.run_reference(record_access=True)
    liveness = target.liveness
    plan = []
    for (partition, element), trace in liveness._traces.items():
        if partition != "registers" or element in ("pc", "ir"):
            continue
        for i in range(len(trace) - 1):
            t0 = trace[i][0]
            t1, is_write, mask, _value = trace[i + 1]
            if t1 - t0 > 2 and not is_write and mask == FULL_MASK:
                plan.append(_fault(element, 1, t0 + 1))
                plan.append(_fault(element, 1, t1 - 1))
                break
        if len(plan) >= 8:
            break
    assert len(plan) >= 4, "workload exposes no collapsible pair"
    return plan


class TestForcedCollapse:
    """Replay actually happens (sampled plans rarely collide, so these
    pin the machinery with a plan that provably collapses)."""

    @pytest.fixture(scope="class")
    def forced(self, algorithm_i_compiled):
        import repro.goofi.campaign as campaign_mod

        plan = _forced_collapse_plan(algorithm_i_compiled)
        config = CampaignConfig(
            workload=algorithm_i_compiled,
            faults=len(plan),
            iterations=20,
        )
        original = campaign_mod.sample_fault_plan
        campaign_mod.sample_fault_plan = lambda **_kw: list(plan)
        try:
            baseline = ScifiCampaign(config).run()
            serial = ScifiCampaign(
                replace(config, prune=True, collapse=True, batch_size=4)
            ).run()
            parallel = ScifiCampaign(
                replace(config, prune=True, collapse=True, batch_size=4)
            ).run(workers=2)
        finally:
            campaign_mod.sample_fault_plan = original
        return baseline, serial, parallel

    def test_serial_replays_and_matches(self, forced):
        baseline, serial, _parallel = forced
        assert sum(1 for run in serial.experiments if run.equivalent) > 0
        assert serial.outcomes == baseline.outcomes

    def test_parallel_replays_and_matches(self, forced):
        baseline, _serial, parallel = forced
        assert sum(1 for run in parallel.experiments if run.equivalent) > 0
        assert parallel.outcomes == baseline.outcomes

    def test_members_point_at_their_representative(self, forced):
        _baseline, serial, _parallel = forced
        for index, run in enumerate(serial.experiments):
            if run.equivalent:
                rep = serial.experiments[run.representative_index]
                assert run.representative_index < index
                assert not rep.equivalent and not rep.predicted
                assert run.outputs == rep.outputs

    def test_equivalent_provenance_stored_and_resumable(
        self, algorithm_i_compiled
    ):
        import repro.goofi.campaign as campaign_mod

        plan = _forced_collapse_plan(algorithm_i_compiled)
        config = CampaignConfig(
            workload=algorithm_i_compiled,
            faults=len(plan),
            iterations=20,
            prune=True,
            collapse=True,
        )
        original = campaign_mod.sample_fault_plan
        campaign_mod.sample_fault_plan = lambda **_kw: list(plan)
        try:
            with CampaignDatabase(":memory:") as database:
                first = ScifiCampaign(config, database=database).run()
                campaign_id = database.list_campaigns()[0][0]
                counts = dict(database.provenance_counts(campaign_id))
                assert counts.get("equivalent", 0) > 0
                stored = database.completed_experiments(campaign_id)
                replayed = [
                    e for e in stored.values() if e.provenance == "equivalent"
                ]
                assert replayed
                assert all(
                    e.representative_index is not None for e in replayed
                )
                # A resume of the finished campaign reconstructs the
                # equivalent rows instead of re-simulating them.
                database.abort_campaign(campaign_id)
                resumed = ScifiCampaign(config, database=database).run(
                    resume_from=campaign_id
                )
                assert resumed.outcomes == first.outcomes
                assert [
                    run.equivalent for run in resumed.experiments
                ] == [run.equivalent for run in first.experiments]
        finally:
            campaign_mod.sample_fault_plan = original


# -- schema v5 migration -------------------------------------------------------
class TestSchemaV5:
    def test_v4_database_gains_representative_index(self, tmp_path):
        path = str(tmp_path / "legacy.db")
        conn = sqlite3.connect(path)
        # A pre-v5 experiments table: everything but representative_index.
        conn.executescript(
            """
            CREATE TABLE campaigns (
                id INTEGER PRIMARY KEY AUTOINCREMENT,
                name TEXT NOT NULL, faults INTEGER NOT NULL,
                seed INTEGER NOT NULL, iterations INTEGER NOT NULL,
                partition_sizes TEXT NOT NULL, wall_seconds REAL NOT NULL,
                schema_version INTEGER NOT NULL DEFAULT 1,
                created_at TEXT,
                status TEXT NOT NULL DEFAULT 'complete',
                config_json TEXT
            );
            CREATE TABLE experiments (
                id INTEGER PRIMARY KEY AUTOINCREMENT,
                campaign_id INTEGER NOT NULL,
                partition TEXT NOT NULL, element TEXT NOT NULL,
                bit INTEGER NOT NULL, time INTEGER NOT NULL,
                category TEXT NOT NULL, mechanism TEXT,
                first_failure_iteration INTEGER,
                max_deviation REAL NOT NULL,
                early_exit_iteration INTEGER,
                timed_out INTEGER NOT NULL,
                instructions_executed INTEGER NOT NULL,
                provenance TEXT NOT NULL DEFAULT 'simulated',
                plan_index INTEGER
            );
            INSERT INTO campaigns (name, faults, seed, iterations,
                partition_sizes, wall_seconds) VALUES ('legacy', 1, 1, 1,
                '{}', 0.0);
            INSERT INTO experiments (campaign_id, partition, element, bit,
                time, category, max_deviation, timed_out,
                instructions_executed, plan_index)
                VALUES (1, 'registers', 'r1', 0, 5, 'minor-insignificant',
                0.0, 0, 10, 0);
            """
        )
        conn.commit()
        conn.close()
        with CampaignDatabase(path) as database:
            stored = database.completed_experiments(1)
            assert stored[0].representative_index is None
            assert stored[0].provenance == "simulated"


# -- warm validation harness (no cold-start bias) ------------------------------
class TestWarmValidation:
    def _record_runs(self, monkeypatch):
        import repro.goofi.campaign as campaign_mod

        calls = []
        original = campaign_mod.ScifiCampaign.run

        def recording_run(self, *args, **kwargs):
            calls.append(
                {
                    "name": self.config.name,
                    "prune": self.config.prune,
                    "collapse": self.config.collapse,
                    "pool": kwargs.get("pool"),
                }
            )
            return original(self, *args, **kwargs)

        monkeypatch.setattr(campaign_mod.ScifiCampaign, "run", recording_run)
        return calls

    def test_warmup_runs_before_both_timed_legs(
        self, monkeypatch, algorithm_i_compiled
    ):
        calls = self._record_runs(monkeypatch)
        config = CampaignConfig(
            workload=algorithm_i_compiled, faults=24, iterations=20
        )
        report = validate_pruning(config)
        assert report.ok
        assert len(calls) == 3
        assert "(warm-up)" in calls[0]["name"]
        assert not calls[0]["prune"] and not calls[0]["collapse"]
        assert [c["prune"] for c in calls[1:]] == [True, False]

    def test_parallel_legs_share_one_warm_pool(
        self, monkeypatch, algorithm_i_compiled
    ):
        calls = self._record_runs(monkeypatch)
        config = CampaignConfig(
            workload=algorithm_i_compiled, faults=24, iterations=20
        )
        report = validate_pruning(config, workers=2)
        assert report.ok
        assert len(calls) == 3
        pools = {id(c["pool"]) for c in calls}
        assert len(pools) == 1 and None not in {c["pool"] for c in calls}

    def test_validate_collapse_baseline_is_plain(
        self, monkeypatch, algorithm_i_compiled
    ):
        calls = self._record_runs(monkeypatch)
        config = CampaignConfig(
            workload=algorithm_i_compiled,
            faults=24,
            iterations=20,
            batch_size=4,
        )
        report = validate_collapse(config)
        assert report.ok
        assert [
            (c["prune"], c["collapse"]) for c in calls
        ] == [(False, False), (True, True), (False, False)]


# -- pool compatibility fingerprint --------------------------------------------
class TestPoolFactoryFingerprint:
    def test_module_level_factories_match_by_identity_and_name(self):
        assert _factories_equivalent(EngineEnvironment, EngineEnvironment)

    def test_equal_named_callables_match_without_identity(self):
        import importlib

        module = importlib.import_module("repro.goofi.environment")
        assert _factories_equivalent(
            module.EngineEnvironment, EngineEnvironment
        )

    def test_lambdas_only_match_by_identity(self):
        make_a = lambda: EngineEnvironment()  # noqa: E731
        make_b = lambda: EngineEnvironment()  # noqa: E731
        assert _factories_equivalent(make_a, make_a)
        assert not _factories_equivalent(make_a, make_b)

    def test_prepare_reports_forced_respawn_reason(self, algorithm_i_compiled):
        def payload(factory):
            return WorkerPayload(
                workload=algorithm_i_compiled,
                iterations=10,
                watchdog_factor=10.0,
                environment_factory=factory,
                reference=None,
            )

        pool = ReferencePool(1)
        try:
            assert pool.prepare(payload(EngineEnvironment)) is False
            # An equal importable factory keeps the warm pool.
            import importlib

            module = importlib.import_module("repro.goofi.environment")
            assert pool.prepare(payload(module.EngineEnvironment)) is False
            # A local factory has no stable fingerprint: forced respawn.
            assert pool.prepare(payload(lambda: EngineEnvironment())) is True
            assert pool.last_respawn_reason == "environment_factory"
        finally:
            pool.close()
