"""Batched execution and the old collapse data: batch-engine
equivalence, campaign-level pruning + batching equivalence, schema-v5
``'equivalent'`` rows and event logs that stay readable, and the warm
pruning-validation harness."""

from __future__ import annotations

import json
import multiprocessing
import sqlite3
from dataclasses import replace

import pytest

from repro.analysis.report import render_outcome_table
from repro.cli import main
from repro.goofi import (
    CampaignConfig,
    CampaignDatabase,
    ScifiCampaign,
    validate_pruning,
)
from repro.goofi.environment import EngineEnvironment
from repro.goofi.target import TargetSystem
from repro.obs.events import read_events
from repro.obs.status import campaign_status
from repro.obs.telemetry import Telemetry


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
        )
        target.cpu.fast_dispatch = fast_dispatch
        target.run_reference()
        return target

    # Batch lanes and serial experiments share CPU.run's table-driven
    # loop, so the serial side is also run on the traced step.
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
class TestCampaignBatchEquivalence:
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

    def test_prune_and_batch_serial(self, base_config, baseline):
        result = ScifiCampaign(
            replace(base_config, prune=True, batch_size=4)
        ).run()
        assert result.outcomes == baseline.outcomes
        assert render_outcome_table(result.summary()) == render_outcome_table(
            baseline.summary()
        )

    def test_prune_and_batch_parallel(self, base_config, baseline):
        result = ScifiCampaign(
            replace(base_config, prune=True, batch_size=4)
        ).run(workers=2)
        assert result.outcomes == baseline.outcomes
        assert render_outcome_table(result.summary()) == render_outcome_table(
            baseline.summary()
        )

    def test_validate_pruning_with_batching_reports_ok(self, base_config):
        report = validate_pruning(replace(base_config, batch_size=4))
        assert report.ok
        assert report.predicted > 0
        assert report.simulated + report.predicted == report.faults


# -- data written while equivalence collapse existed ---------------------------
class TestLegacyEquivalentData:
    """Collapse is gone, but its rows and events must stay readable."""

    @pytest.fixture(scope="class")
    def config(self, algorithm_i_compiled):
        return CampaignConfig(
            workload=algorithm_i_compiled, faults=12, iterations=20
        )

    @pytest.fixture(scope="class")
    def clean(self, config):
        return ScifiCampaign(config).run()

    def test_equivalent_row_loads_resumes_and_reports(
        self, config, clean, tmp_path
    ):
        with CampaignDatabase(str(tmp_path / "v6.db")) as database:
            ScifiCampaign(config, database=database).run()
            campaign_id = database.list_campaigns()[0][0]
            # Rewrite plan index 5 as a collapse replay of index 2 and
            # drop the tail, so the resume has work left.
            database._conn.execute(
                "UPDATE experiments SET provenance = 'equivalent',"
                " representative_index = 2"
                " WHERE campaign_id = ? AND plan_index = 5",
                (campaign_id,),
            )
            database._conn.execute(
                "DELETE FROM experiments WHERE campaign_id = ?"
                " AND plan_index >= 8",
                (campaign_id,),
            )
            database._conn.commit()
            database.abort_campaign(campaign_id)
            stored = database.completed_experiments(campaign_id)
            assert stored[5].provenance == "equivalent"
            assert stored[5].representative_index == 2
            resumed = ScifiCampaign(config, database=database).run(
                resume_from=campaign_id
            )
            assert resumed.outcomes == clean.outcomes
            assert dict(database.provenance_counts(campaign_id)) == {
                "equivalent": 1,
                "simulated": 11,
            }
            assert render_outcome_table(
                database.load_summary(campaign_id)
            ) == render_outcome_table(clean.summary())
            records = database.finished_event_records(campaign_id)
            assert [r["index"] for r in records] == list(range(12))

    def test_equivalent_events_fold_through_status_and_summary(
        self, config, clean, tmp_path, capsys
    ):
        path = str(tmp_path / "events.jsonl")
        telemetry = Telemetry(events_path=path)
        ScifiCampaign(config).run(telemetry=telemetry)
        telemetry.close()
        # Rewrite the log the way a collapse-era campaign wrote it: an
        # ``equivalence_collapse`` record and an ``equivalent`` flag on
        # every experiment_finished record.
        lines = []
        for record in read_events(path):
            if record["event"] == "experiment_finished":
                record["equivalent"] = record["index"] == 5
            lines.append(json.dumps(record, sort_keys=True))
            if record["event"] == "campaign_started":
                lines.append(
                    json.dumps(
                        {
                            "schema_version": record["schema_version"],
                            "event": "equivalence_collapse",
                            "ts": record["ts"],
                            "live": 12,
                            "representatives": 11,
                            "classes": 1,
                            "collapsed": 1,
                        },
                        sort_keys=True,
                    )
                )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        assert main(["obs", "status", "--events", path, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == "finished"
        assert status["done"] == status["total"] == 12
        summary = campaign_status(read_events(path))
        assert summary.done == 12
        expected = {}
        for outcome in clean.outcomes:
            category = outcome.category.value
            expected[category] = expected.get(category, 0) + 1
        assert summary.outcome_counts == expected
        assert main(["obs", "--events", path]) == 0


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
                    "batch_size": self.config.batch_size,
                    "workers": kwargs.get("workers", 1),
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
        assert not calls[0]["prune"]
        assert [c["prune"] for c in calls[1:]] == [True, False]

    def test_parallel_legs_each_run_their_own_pool(
        self, monkeypatch, algorithm_i_compiled
    ):
        calls = self._record_runs(monkeypatch)
        config = CampaignConfig(
            workload=algorithm_i_compiled, faults=24, iterations=20
        )
        before = set(multiprocessing.active_children())
        report = validate_pruning(config, workers=2)
        assert report.ok
        assert [c["workers"] for c in calls] == [2, 2, 2]
        assert set(multiprocessing.active_children()) <= before

    def test_validate_collapse_baseline_is_plain(
        self, monkeypatch, algorithm_i_compiled
    ):
        """The full-stack check ``validate_collapse`` used to make is now
        ``validate_pruning``'s: its baseline leg is plain (unpruned, one
        experiment at a time) whatever the candidate's batch size."""
        calls = self._record_runs(monkeypatch)
        config = CampaignConfig(
            workload=algorithm_i_compiled,
            faults=24,
            iterations=20,
            batch_size=4,
        )
        report = validate_pruning(config)
        assert report.ok
        assert [
            (c["prune"], c["batch_size"]) for c in calls
        ] == [(False, 4), (True, 4), (False, 1)]

