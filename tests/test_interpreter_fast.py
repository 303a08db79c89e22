"""Golden-equivalence tests for the interpreter fast path.

The optimisations under test — the table-driven execution loop,
incremental boundary hashing, and the shared reference run across
campaign workers — must not change a single observable outcome.  Every
test here compares the optimised path against its oracle (the traced
reference chain, ``cpu.fast_dispatch = False``; the from-scratch digest
:func:`_hash_state_fresh`; the serial run) and requires bit-identical
hashes, outcomes and summary tables.
"""

import struct

import pytest

from repro.analysis.report import render_outcome_table
from repro.faults.models import (
    CODE_PARTITION,
    DATA_PARTITION,
    FaultDescriptor,
    FaultTarget,
)
from repro.goofi.campaign import CampaignConfig, ScifiCampaign
import repro.goofi.target as target_module
from repro.goofi.pool import ReferencePool
from repro.goofi.target import TargetSystem, _hash_state, _hash_state_fresh
from repro.thor.cpu import CPU, PSW_MASK, StepResult
from repro.thor.scanchain import CACHE_PARTITION, REGISTER_PARTITION, ScanChain
from repro.workloads import compile_algorithm_i, compile_algorithm_ii

ITER = 60
FAULTS = 40


@pytest.fixture(scope="module")
def workload():
    return compile_algorithm_ii()


def _image_config(workload, faults):
    """A pre-runtime (program-image) campaign over code and data words."""
    return CampaignConfig(
        workload=workload,
        faults=faults,
        iterations=ITER,
        partitions=[CODE_PARTITION, DATA_PARTITION],
    )


def _reference(workload, fast_dispatch=True):
    target = TargetSystem(workload, iterations=ITER)
    target.cpu.fast_dispatch = fast_dispatch
    return target, target.run_reference()


class TestDispatchEquivalence:
    def test_reference_run_bit_identical(self, workload):
        _fast_t, fast = _reference(workload, fast_dispatch=True)
        _legacy_t, legacy = _reference(workload, fast_dispatch=False)
        assert fast.hashes == legacy.hashes
        assert fast.outputs == legacy.outputs
        assert fast.instructions_at == legacy.instructions_at
        assert fast.total_instructions == legacy.total_instructions
        assert (
            fast.max_iteration_instructions == legacy.max_iteration_instructions
        )

    def test_experiment_outcomes_bit_identical(self, workload):
        results = {}
        for fast in (True, False):
            config = CampaignConfig(
                workload=workload, faults=FAULTS, iterations=ITER
            )
            campaign = ScifiCampaign(config)
            campaign.target.cpu.fast_dispatch = fast
            results[fast] = campaign.run()
        assert results[True].outcomes == results[False].outcomes
        for a, b in zip(results[True].experiments, results[False].experiments):
            assert a.outputs == b.outputs
            assert a.final_state_differs == b.final_state_differs
            assert a.early_exit_iteration == b.early_exit_iteration
            assert a.instructions_executed == b.instructions_executed
            assert (a.detection is None) == (b.detection is None)
            if a.detection is not None:
                assert a.detection.mechanism is b.detection.mechanism
                assert a.detection.detail == b.detection.detail
        assert render_outcome_table(
            results[True].summary()
        ) == render_outcome_table(results[False].summary())

    def test_prerun_outcomes_bit_identical(self, workload):
        runs = {}
        for fast in (True, False):
            campaign = ScifiCampaign(_image_config(workload, 12))
            campaign.target.cpu.fast_dispatch = fast
            runs[fast] = campaign.run()
        assert runs[True].outcomes == runs[False].outcomes
        for a, b in zip(runs[True].experiments, runs[False].experiments):
            assert list(a.outputs) == list(b.outputs)


class TestPrefixReplay:
    def test_serial_experiment_replays_prefix_without_stepping(
        self, workload, monkeypatch
    ):
        """A serial experiment replays its fault-free prefix in one loop
        call, never one ``CPU.step`` per instruction, and its outcome is
        still the outcome of the full-length run on a fresh target."""
        target, reference = _reference(workload)
        faults = []
        for k in (3, 17, 41):
            start, end = reference.instructions_at[k : k + 2]
            for element, bit in (("r1", 4), ("pc", 3), ("sp", 2)):
                faults.append(
                    FaultDescriptor(
                        FaultTarget(REGISTER_PARTITION, element, bit),
                        start + (end - start) // 2,
                    )
                )
        for fault in faults:
            located = reference.locate(fault.time)
            assert fault.time > reference.instructions_at[located]
        fresh, _ = _reference(workload)
        expected = [fresh.run_experiment(f, early_exit=False) for f in faults]

        def _no_step(cpu):
            raise AssertionError("CPU.step called during a serial experiment")

        monkeypatch.setattr(CPU, "step", _no_step)
        for fault, want in zip(faults, expected):
            got = target.run_experiment(fault)
            assert list(got.outputs) == list(want.outputs), fault.label()
            assert got.detection == want.detection
            assert got.detected_iteration == want.detected_iteration
            assert got.timed_out == want.timed_out
            assert got.final_state_differs == want.final_state_differs


class TestIncrementalHashEquivalence:
    def test_digests_identical_through_mutations(self, workload):
        target, reference = _reference(workload)
        cpu, env = target.cpu, target.environment
        chain = target.scan_chain

        def check(label):
            assert _hash_state(cpu, env) == _hash_state_fresh(cpu, env), label

        check("after reference run")
        # Scan-chain flips (registers and cache partitions).
        for spec in (
            (REGISTER_PARTITION, "r3", 7),
            (REGISTER_PARTITION, "psw", 1),
            (CACHE_PARTITION, "line5.data", 13),
            (CACHE_PARTITION, "line5.tag", 2),
            (CACHE_PARTITION, "line9.valid", 0),
        ):
            chain.flip(FaultTarget(*spec))
            check(f"after flip {spec}")
        # Parity-preserving and parity-breaking memory mutations.
        cpu.memory.poke(cpu.layout.data_base + 8, 0xDEADBEEF)
        check("after data poke")
        cpu.memory.poke(cpu.layout.code_base + 4, 0x01000000)
        check("after code poke")
        cpu.memory.corrupt_word_bit(cpu.layout.data_base + 16, 5)
        check("after data corruption")
        cpu.memory.corrupt_word_bit(cpu.layout.code_base + 8, 9)
        check("after code corruption")
        # Checkpoint restore and some execution.
        target._restore(reference.snapshots[3])
        check("after restore")
        assert cpu.run(10_000) is StepResult.YIELD
        check("after resumed execution")

    def test_campaign_outcomes_identical_with_flag_off(
        self, workload, monkeypatch
    ):
        config = CampaignConfig(workload=workload, faults=FAULTS, iterations=ITER)
        results = {True: ScifiCampaign(config).run()}
        monkeypatch.setattr(target_module, "_hash_state", _hash_state_fresh)
        results[False] = ScifiCampaign(config).run()
        assert results[True].outcomes == results[False].outcomes
        for a, b in zip(results[True].experiments, results[False].experiments):
            assert a.early_exit_iteration == b.early_exit_iteration
            assert a.final_state_differs == b.final_state_differs
        assert render_outcome_table(
            results[True].summary()
        ) == render_outcome_table(results[False].summary())

    def test_reference_hashes_identical_with_flag_off(
        self, workload, monkeypatch
    ):
        _t1, incremental = _reference(workload)
        monkeypatch.setattr(target_module, "_hash_state", _hash_state_fresh)
        _t2, fresh = _reference(workload)
        assert incremental.hashes == fresh.hashes


class TestSharedReferenceEquivalence:
    def test_parallel_shared_matches_serial(self, workload):
        config = CampaignConfig(workload=workload, faults=FAULTS, iterations=ITER)
        serial = ScifiCampaign(config).run()
        shared = ScifiCampaign(config).run(workers=2)
        assert serial.outcomes == shared.outcomes
        assert render_outcome_table(serial.summary()) == render_outcome_table(
            shared.summary()
        )
        for a, b in zip(serial.experiments, shared.experiments):
            assert list(a.outputs) == list(b.outputs)
            assert a.instructions_executed == b.instructions_executed

    def test_persistent_pool_reused_across_runs(self, workload):
        config = CampaignConfig(workload=workload, faults=20, iterations=ITER)
        serial = ScifiCampaign(config).run()
        with ReferencePool(2) as pool:
            first = ScifiCampaign(config).run(pool=pool)
            executor = pool._executor
            second = ScifiCampaign(config).run(pool=pool)
            # Compatible payloads must not respawn the workers.
            assert pool._executor is executor
        assert serial.outcomes == first.outcomes == second.outcomes

    def test_pool_reused_across_scifi_and_prerun_phases(self, workload):
        config = CampaignConfig(workload=workload, faults=20, iterations=ITER)
        prerun = _image_config(workload, 10)
        serial_scifi = ScifiCampaign(config).run()
        serial_pre = ScifiCampaign(prerun).run()
        with ReferencePool(2) as pool:
            pooled_scifi = ScifiCampaign(config).run(pool=pool)
            executor = pool._executor
            pooled_pre = ScifiCampaign(prerun).run(pool=pool)
            # Both phases ship the same golden run: no respawn.
            assert pool._executor is executor
        assert serial_scifi.outcomes == pooled_scifi.outcomes
        assert serial_pre.outcomes == pooled_pre.outcomes

    def test_prerun_parallel_matches_serial(self, workload):
        config = _image_config(workload, 12)
        serial = ScifiCampaign(config).run()
        parallel = ScifiCampaign(config).run(workers=2)
        assert serial.outcomes == parallel.outcomes
        for a, b in zip(serial.experiments, parallel.experiments):
            assert list(a.outputs) == list(b.outputs)


class TestRegisterStateBytes:
    def test_layout_matches_legacy_serialisation(self):
        cpu = CPU()
        cpu.regs = list(range(100, 109))
        cpu.pc = 0x1040
        cpu.psw = 0x83
        cpu.ir = 0xDEADBEEF
        cpu.mar = 0x2024
        cpu.mdr = 0x42
        cpu.last_signature = 7
        cpu.halted = False
        expected = (
            b"".join(struct.pack("<I", v) for v in cpu.regs)
            + struct.pack("<I", cpu.pc)
            + struct.pack("<H", cpu.psw & PSW_MASK)
            + struct.pack("<I", cpu.ir)
            + struct.pack("<I", cpu.mar)
            + struct.pack("<I", cpu.mdr)
            + struct.pack("<i", 7)
            + struct.pack("<?", False)
        )
        assert cpu.register_state_bytes() == expected
        cpu.last_signature = None
        cpu.halted = True
        assert cpu.register_state_bytes().endswith(
            struct.pack("<i", -1) + struct.pack("<?", True)
        )


class TestDetectionMetrics:
    def test_detections_counted(self, workload):
        from repro.obs.telemetry import Telemetry

        config = CampaignConfig(workload=workload, faults=FAULTS, iterations=ITER)
        telemetry = Telemetry()
        result = ScifiCampaign(config).run(telemetry=telemetry)
        detected = sum(
            1 for run in result.experiments if run.detection is not None
        )
        counted = sum(
            counter.value
            for key, counter in telemetry.metrics.counters.items()
            if key.startswith("detections")
        )
        assert counted == detected


class TestLocate:
    def test_bisect_locate_boundaries(self, workload):
        _target, reference = _reference(workload)
        assert reference.locate(0) == 0
        assert reference.locate(reference.instructions_at[1] - 1) == 0
        assert reference.locate(reference.instructions_at[1]) == 1
        assert reference.locate(reference.total_instructions - 1) == ITER - 1
        last_start = reference.instructions_at[ITER - 1]
        assert reference.locate(last_start) == ITER - 1

    def test_locate_rejects_out_of_range(self, workload):
        from repro.errors import CampaignError

        _target, reference = _reference(workload)
        with pytest.raises(CampaignError):
            reference.locate(-1)
        with pytest.raises(CampaignError):
            reference.locate(reference.total_instructions)


class TestAlgorithmIStillEquivalent:
    def test_algorithm_i_fast_vs_legacy(self):
        workload = compile_algorithm_i()
        _t1, fast = _reference(workload, fast_dispatch=True)
        _t2, legacy = _reference(workload, fast_dispatch=False)
        assert fast.hashes == legacy.hashes
        assert fast.outputs == legacy.outputs
