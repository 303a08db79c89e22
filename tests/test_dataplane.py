"""The delta data plane: golden equivalence and view semantics.

Everything here enforces one rule: with ``delta_dataplane`` on and live
faults executed in injection-time order, every observable — materialised
snapshots, restored machine state, experiment outcomes, streamed
telemetry — is bit-identical to the legacy full-copy plane run one fault
at a time in plan order.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.analysis.report import render_outcome_table
from repro.faults.models import sample_fault_plan
from repro.goofi.campaign import CampaignConfig, ScifiCampaign
from repro.goofi.dataplane import CheckpointStore, SplicedOutputs
from repro.goofi.environment import EngineEnvironment
from repro.goofi.pool import ReferencePool, WorkerPayload
from repro.goofi.target import TargetSystem
from repro.obs.events import read_events
from repro.obs.status import campaign_status
from repro.obs.summary import render_events_summary
from repro.obs.telemetry import Telemetry

ITERATIONS = 40


def _target(workload, delta: bool, iterations: int = ITERATIONS) -> TargetSystem:
    target = TargetSystem(
        workload=workload,
        environment=EngineEnvironment(),
        iterations=iterations,
        delta_dataplane=delta,
    )
    target.run_reference()
    return target


def _machine_bytes(target: TargetSystem) -> bytes:
    return target.cpu.state_bytes() + target.environment.state_bytes()


@pytest.fixture(scope="module")
def planes(algorithm_i_compiled):
    """One delta-plane and one legacy-plane target over the same workload."""
    return (
        _target(algorithm_i_compiled, delta=True),
        _target(algorithm_i_compiled, delta=False),
    )


class TestCheckpointStore:
    def test_reference_snapshots_are_a_checkpoint_store(self, planes):
        delta, legacy = planes
        assert isinstance(delta.reference.snapshots, CheckpointStore)
        assert isinstance(legacy.reference.snapshots, list)
        assert len(delta.reference.snapshots) == len(legacy.reference.snapshots)

    def test_materialised_snapshots_match_legacy(self, planes):
        delta, legacy = planes
        for k in range(len(legacy.reference.snapshots)):
            assert delta.reference.snapshots[k] == legacy.reference.snapshots[k]

    def test_random_access_order_is_exact(self, planes):
        delta, legacy = planes
        rng = random.Random(7)
        boundaries = list(range(len(legacy.reference.snapshots)))
        rng.shuffle(boundaries)
        for k in boundaries:
            assert delta.reference.snapshots.snapshot_at(k) == (
                legacy.reference.snapshots[k]
            )

    def test_negative_index(self, planes):
        delta, legacy = planes
        assert delta.reference.snapshots[-1] == legacy.reference.snapshots[-1]
        with pytest.raises(IndexError):
            delta.reference.snapshots.snapshot_at(len(legacy.reference.snapshots))

    def test_pickle_round_trip_is_identity(self, planes):
        delta, legacy = planes
        store = pickle.loads(pickle.dumps(delta.reference.snapshots))
        for k in (0, 1, len(legacy.reference.snapshots) - 1):
            assert store[k] == legacy.reference.snapshots[k]

    def test_payload_is_smaller_than_legacy(self, planes):
        delta, legacy = planes
        delta_bytes = len(pickle.dumps(delta.reference.snapshots))
        legacy_bytes = len(pickle.dumps(legacy.reference.snapshots))
        assert delta_bytes * 3 < legacy_bytes


class TestRestoreEquivalence:
    def test_restore_boundary_matches_legacy_restore(self, planes):
        """Property test: a random walk of boundaries with scan-chain
        and RAM corruption between seats stays bit-identical to fresh
        legacy full restores."""
        delta, legacy = planes
        rng = random.Random(2001)
        space = delta.scan_chain.location_space()
        targets = list(space)
        layout = delta.cpu.layout
        for _ in range(25):
            boundary = rng.randrange(ITERATIONS)
            delta.restore_boundary(boundary)
            legacy.restore_boundary(boundary)
            assert _machine_bytes(delta) == _machine_bytes(legacy)
            # Dirty both machines identically: scan-chain flips plus a
            # direct RAM corruption (the undo log must capture all of it).
            for _ in range(rng.randrange(1, 4)):
                target_bit = targets[rng.randrange(len(targets))]
                delta.scan_chain.flip(target_bit)
                legacy.scan_chain.flip(target_bit)
            address = layout.data_base + 4 * rng.randrange(layout.data_size // 4)
            bit = rng.randrange(32)
            delta.cpu.memory.corrupt_word_bit(address, bit)
            legacy.cpu.memory.corrupt_word_bit(address, bit)
            assert _machine_bytes(delta) == _machine_bytes(legacy)
            # Run a little so writes/evictions touch RAM through every path.
            delta.cpu.run(rng.randrange(50, 400))
            legacy.cpu.run(400)
            # (Instruction budgets differ deliberately: the next seat
            # must erase any divergence.)

    def test_experiments_bit_identical_across_planes(self, algorithm_i_compiled):
        delta = _target(algorithm_i_compiled, delta=True)
        legacy = _target(algorithm_i_compiled, delta=False)
        rng = np.random.default_rng(11)
        plan = sample_fault_plan(
            space=delta.scan_chain.location_space(),
            total_instructions=delta.reference.total_instructions,
            count=30,
            rng=rng,
        )
        for fault in plan:
            a = delta.run_experiment(fault)
            b = legacy.run_experiment(fault)
            assert list(a.outputs) == list(b.outputs)
            assert a.detection == b.detection
            assert a.detected_iteration == b.detected_iteration
            assert a.early_exit_iteration == b.early_exit_iteration
            assert a.timed_out == b.timed_out
            assert a.final_state_differs == b.final_state_differs
            assert a.instructions_executed == b.instructions_executed

    def test_wholesale_restore_poisons_then_recovers(self, algorithm_i_compiled):
        target = _target(algorithm_i_compiled, delta=True)
        target.restore_boundary(5)
        target.take_dataplane_stats()
        # An out-of-band wholesale restore disarms the undo logs …
        target.cpu.restore(target.reference.snapshots[9]["cpu"])
        assert target.cpu.memory.data.undo is None
        # … so the next seat must fall back to a full restore, and still
        # land on the exact snapshot state.
        target.restore_boundary(7)
        stats = target.take_dataplane_stats()
        assert stats["full_restores"] == 1
        fresh = _target(algorithm_i_compiled, delta=False)
        fresh.restore_boundary(7)
        assert _machine_bytes(target) == _machine_bytes(fresh)

    def test_sorted_schedule_uses_cheap_path(self, algorithm_i_compiled):
        target = _target(algorithm_i_compiled, delta=True)
        for boundary in range(0, 30, 3):
            target.restore_boundary(boundary)
        stats = target.take_dataplane_stats()
        # One full restore to arm, then delta walks only.
        assert stats["full_restores"] == 1
        assert stats["delta_replay_iterations"] > 0

    def test_stats_none_when_plane_off(self, algorithm_i_compiled):
        target = _target(algorithm_i_compiled, delta=False)
        target.restore_boundary(3)
        assert target.take_dataplane_stats() is None


class TestUndoLog:
    def test_write_and_corrupt_are_captured(self, algorithm_i_compiled):
        target = _target(algorithm_i_compiled, delta=True)
        target.restore_boundary(0)
        ram = target.cpu.memory.data
        base = target.cpu.layout.data_base
        before = ram.words[0]
        target.cpu.memory.write_data_word(base, before ^ 0xFFFF)
        target.cpu.memory.corrupt_word_bit(base + 4, 3)
        assert 0 in ram.undo and 1 in ram.undo
        assert ram.undo[0][0] == before
        # Second mutation of the same word must keep the *original* value.
        target.cpu.memory.write_data_word(base, 123)
        assert ram.undo[0][0] == before

    def test_poke_goes_through_undo(self, algorithm_i_compiled):
        target = _target(algorithm_i_compiled, delta=True)
        target.restore_boundary(0)
        ram = target.cpu.memory.stack
        target.cpu.memory.poke(target.cpu.layout.stack_base, 0xDEAD)
        assert 0 in ram.undo


class TestSplicedOutputs:
    def _view(self):
        view = SplicedOutputs([10.0, 11.0, 12.0, 13.0, 14.0], 2)
        view.append(99.0)
        return view  # == [10.0, 11.0, 99.0]

    def test_sequence_protocol(self):
        view = self._view()
        assert len(view) == 3
        assert list(view) == [10.0, 11.0, 99.0]
        assert view[0] == 10.0 and view[2] == 99.0 and view[-1] == 99.0
        assert view[1:] == [11.0, 99.0]
        with pytest.raises(IndexError):
            view[3]

    def test_equality_both_ways(self):
        view = self._view()
        assert view == [10.0, 11.0, 99.0]
        assert [10.0, 11.0, 99.0] == view
        assert view != [10.0, 11.0]
        other = SplicedOutputs([10.0, 11.0], 2)
        other.append(99.0)
        assert view == other

    def test_tail_splice(self):
        source = [0.0, 1.0, 2.0, 3.0, 4.0]
        view = SplicedOutputs(source, 2)
        view.append(-1.0)
        view.splice_tail(3)
        assert list(view) == [0.0, 1.0, -1.0, 3.0, 4.0]
        assert view[3] == 3.0 and view[-1] == 4.0
        with pytest.raises(ValueError):
            view.append(5.0)

    def test_pickles_to_plain_list(self):
        view = self._view()
        restored = pickle.loads(pickle.dumps(view))
        assert type(restored) is list
        assert restored == [10.0, 11.0, 99.0]

    def test_numpy_conversion(self):
        array = np.asarray(self._view(), dtype=float)
        assert array.tolist() == [10.0, 11.0, 99.0]

    def test_full_prefix_view(self):
        source = [1.0, 2.0, 3.0]
        view = SplicedOutputs(source, len(source))
        assert list(view) == source and len(view) == 3


class TestWorkerPayload:
    def test_plane_mismatch_forces_respawn(self, algorithm_i_compiled, planes):
        def payload(delta):
            return WorkerPayload(
                workload=algorithm_i_compiled,
                iterations=ITERATIONS,
                watchdog_factor=10.0,
                environment_factory=EngineEnvironment,
                reference=planes[0].reference,
                delta_dataplane=delta,
            )

        pool = ReferencePool(workers=1)
        pool._payload = payload(True)
        assert pool._incompatibility(payload(True)) is None
        assert pool._incompatibility(payload(False)) == "delta_dataplane"


def _campaign_config(workload, **overrides):
    defaults = dict(
        workload=workload, name="dataplane-test", faults=24, seed=5,
        iterations=ITERATIONS,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _plan_order_outcomes(config, result):
    """The campaign's faults re-simulated one at a time in plan order on
    a fresh legacy-plane target: no schedule, no windows, no chunks."""
    target = _target(config.workload, delta=False, iterations=config.iterations)
    return [
        ScifiCampaign._classify(
            target.run_experiment(run.fault), target.reference.outputs
        )
        for run in result.experiments
    ]


class TestLocalityScheduling:
    def test_serial_events_stay_in_plan_order(self, algorithm_i_compiled, tmp_path):
        # More faults than iterations: the serial loop runs several
        # time-sorted windows and still streams in plan order.
        path = str(tmp_path / "events.jsonl")
        telemetry = Telemetry(events_path=path)
        config = _campaign_config(algorithm_i_compiled, faults=90)
        ScifiCampaign(config).run(telemetry=telemetry)
        telemetry.close()
        records = [
            e for e in read_events(path) if e["event"] == "experiment_finished"
        ]
        assert [e["index"] for e in records] == list(range(config.faults))

    def test_serial_progress_starts_before_the_last_experiment(
        self, algorithm_i_compiled, monkeypatch
    ):
        """A serial campaign streams each window before simulating the
        next: with more faults than iterations, the first progress call
        comes after one ``iterations``-sized window, long before the
        last experiment."""
        calls = []
        original = TargetSystem.run_experiment

        def counting(self, fault, early_exit=True):
            calls.append("experiment")
            return original(self, fault, early_exit)

        monkeypatch.setattr(TargetSystem, "run_experiment", counting)
        config = _campaign_config(algorithm_i_compiled, faults=90)
        ScifiCampaign(config).run(
            progress=lambda _done, _total, _outcome: calls.append("progress")
        )
        assert calls.count("experiment") == config.faults
        last_experiment = len(calls) - 1 - calls[::-1].index("experiment")
        assert calls.index("progress") < last_experiment
        assert calls.index("progress") == config.iterations

    def test_time_sorted_chunks_match_plan_order_results(
        self, algorithm_i_compiled, tmp_path
    ):
        """Windows (serial) and chunks (workers=2) execute in injection-
        time order, but results stream back in plan order and match a
        plain plan-order re-simulation exactly."""
        config = _campaign_config(algorithm_i_compiled, faults=90)
        results = {}
        for workers in (1, 2):
            path = str(tmp_path / f"events-{workers}.jsonl")
            telemetry = Telemetry(events_path=path)
            results[workers] = ScifiCampaign(config).run(
                workers=workers, telemetry=telemetry
            )
            telemetry.close()
            records = [
                e
                for e in read_events(path)
                if e["event"] == "experiment_finished"
            ]
            assert [e["index"] for e in records] == list(range(config.faults))
        serial, parallel = results[1], results[2]
        assert serial.outcomes == _plan_order_outcomes(config, serial)
        assert parallel.outcomes == serial.outcomes
        assert render_outcome_table(parallel.summary()) == render_outcome_table(
            serial.summary()
        )

    def test_adaptive_chunk_bounds(self, algorithm_i_compiled):
        """Tiny chunk bounds still complete the plan correctly (and
        exercise the resize path: 24 faults at max_chunk_size=2 means
        many draws)."""
        from repro.goofi.recovery import RecoveryPolicy

        config = _campaign_config(
            algorithm_i_compiled,
            recovery=RecoveryPolicy(
                min_chunk_size=1, max_chunk_size=2, target_chunk_seconds=0.01
            ),
        )
        baseline = ScifiCampaign(_campaign_config(algorithm_i_compiled)).run()
        result = ScifiCampaign(config).run(workers=2)
        assert result.outcomes == baseline.outcomes


class TestObsFolding:
    def _events(self):
        return [
            {"event": "campaign_started", "name": "x", "faults": 4, "workers": 2,
             "seed": 1, "ts": 1.0},
            {"event": "dataplane_stats", "worker": 1, "ts": 2.0,
             "restore_words_touched": 100, "delta_replay_iterations": 7,
             "full_restores": 1},
            # A shard replay of the same record must not double-count.
            {"event": "dataplane_stats", "worker": 1, "ts": 2.0,
             "restore_words_touched": 100, "delta_replay_iterations": 7,
             "full_restores": 1},
            {"event": "dataplane_stats", "worker": 0, "ts": 3.0,
             "restore_words_touched": 40, "delta_replay_iterations": 3,
             "full_restores": 2},
            {"event": "chunk_resized", "ts": 4.0, "size": 8, "rate": 120.0},
        ]

    def test_status_folds_dataplane_idempotently(self):
        status = campaign_status(self._events())
        assert status.restore_words_touched == 140
        assert status.delta_replay_iterations == 10
        assert status.full_restores == 3
        assert status.dataplane_reports == 2
        assert status.chunks_resized == 1
        payload = status.to_dict()["dataplane"]
        assert payload["restore_words_touched"] == 140
        assert payload["chunks_resized"] == 1

    def test_summary_folds_dataplane(self):
        # The post-hoc summary reads the merged log (no replays by then).
        events = [e for i, e in enumerate(self._events()) if i != 2]
        summary = campaign_status(events)
        assert summary.restore_words_touched == 140
        assert summary.delta_replay_iterations == 10
        assert summary.full_restores == 3
        assert summary.chunks_resized == 1

    def test_campaign_emits_dataplane_stats(self, algorithm_i_compiled, tmp_path):
        path = str(tmp_path / "events.jsonl")
        telemetry = Telemetry(events_path=path)
        ScifiCampaign(_campaign_config(algorithm_i_compiled)).run(
            telemetry=telemetry
        )
        telemetry.close()
        events = read_events(path)
        summary = campaign_status(events)
        # One report per chunk, from the chunk runner.
        chunks = sum(e["event"] == "worker_chunk_done" for e in events)
        assert chunks >= 1
        assert summary.dataplane_reports == chunks
        assert summary.full_restores >= 1
        assert "Data plane" in render_events_summary(read_events(path))
