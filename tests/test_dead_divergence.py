"""The dead-divergence exit: the boundary liveness table, the probe's
soundness against brute-force continuation, and campaign-level outcome
equivalence with a plain campaign."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.goofi.target as target_module
from repro.faults.liveness import (
    ALWAYS_LIVE,
    LIVE_CODE,
    LATENT_CODE,
    OVERWRITTEN_CODE,
    Liveness,
)
from repro.faults.models import FaultDescriptor, FaultTarget, sample_fault_plan
from repro.faults.multibit import MultiBitFault, sample_multibit_plan
from repro.goofi import CampaignConfig, ScifiCampaign
from repro.goofi.environment import EngineEnvironment
from repro.goofi.target import TargetSystem
from repro.thor.cpu import PSW_BITS
from repro.thor.memory import WORD

_CODES = {
    Liveness.LIVE: LIVE_CODE,
    Liveness.OVERWRITTEN: OVERWRITTEN_CODE,
    Liveness.LATENT: LATENT_CODE,
}


def _recorded(workload, iterations):
    target = TargetSystem(
        workload=workload, environment=EngineEnvironment(), iterations=iterations
    )
    target.run_reference(record_access=True)
    return target


class TestBoundaryTable:
    @pytest.fixture(scope="class")
    def recorded(self, algorithm_i_compiled):
        return _recorded(algorithm_i_compiled, 30)

    def test_only_recorded_references_carry_a_table(
        self, recorded, short_reference_target
    ):
        assert recorded.reference.boundary_liveness is not None
        assert short_reference_target.reference.boundary_liveness is None

    def test_every_row_equals_classify_at_every_boundary(self, recorded):
        """(a) The table is ``LivenessMap.classify`` precomputed: for every
        scan-chain bit (pc/ir excepted — the probe requires them equal)
        and every traced RAM word, at every boundary."""
        table = recorded.reference.boundary_liveness
        liveness = recorded.liveness
        boundaries = recorded.reference.instructions_at
        targets = [
            t
            for t in recorded.scan_chain.location_space()
            if (t.partition, t.element) not in ALWAYS_LIVE
        ]
        layout = recorded.cpu.layout
        for base, size in (
            (layout.rodata_base, layout.rodata_size),
            (layout.data_base, layout.data_size),
            (layout.stack_base, layout.stack_size),
        ):
            targets += [
                FaultTarget("memory", f"{address:#x}", bit)
                for address in range(base, base + size, WORD)
                for bit in (0, 31)
            ]
        checked_psw_bits = set()
        for target in targets:
            if target.partition == "memory":
                key = ("memory", int(target.element, 16))
            else:
                key = (target.partition, target.element)
            if target.element == "psw":
                checked_psw_bits.add(target.bit)
            for k, time in enumerate(boundaries):
                expected = _CODES[liveness.classify(target, time)]
                assert table.verdict(key, 1 << target.bit, k) == expected, (
                    target,
                    k,
                )
        assert checked_psw_bits == set(range(PSW_BITS))
        assert ("registers", "psw") in table.bit_rows
        assert all(len(row) == len(boundaries) for row in table.rows.values())

    def test_multi_bit_verdict_combines_like_classify_fault(self, recorded):
        table = recorded.reference.boundary_liveness
        liveness = recorded.liveness
        boundaries = recorded.reference.instructions_at
        for k in range(0, len(boundaries), 3):
            for bits in ((0, 1), (1, 2, 3), (0, 6), (2, 9)):
                fault = MultiBitFault(
                    tuple(FaultTarget("registers", "psw", bit) for bit in bits),
                    boundaries[k],
                )
                combined = liveness.classify_fault(fault)
                diff = sum(1 << bit for bit in bits)
                assert table.verdict(
                    ("registers", "psw"), diff, k
                ) == _CODES[combined]

    def test_table_survives_pickling_compressed(self, recorded):
        table = recorded.reference.boundary_liveness
        blob = pickle.dumps(table)
        assert len(blob) < 16_000
        copy = pickle.loads(blob)
        assert copy.rows == table.rows
        assert copy.bit_rows == table.bit_rows
        assert copy.memory_ranges == table.memory_ranges

    def test_untraced_memory_is_live(self, recorded):
        table = recorded.reference.boundary_liveness
        code_word = recorded.cpu.layout.code_base
        assert table.verdict(("memory", code_word), 1, 0) == LIVE_CODE


class TestProbeRules:
    """The probe's rules on hand-made divergences at one boundary."""

    BOUNDARY = 12

    @pytest.fixture(scope="class")
    def target(self, algorithm_i_compiled):
        target = TargetSystem(
            workload=algorithm_i_compiled,
            environment=EngineEnvironment(),
            iterations=30,
            delta_dataplane=False,
        )
        target.run_reference(record_access=True)
        return target

    def _probe(self, target):
        return target_module._dead_divergence(
            target.cpu, target.environment, target.reference, self.BOUNDARY
        )

    def _key_with(self, target, code):
        """A register whose bit 0 has ``code`` here (untraced ones, such
        as a GPR the workload never touches, are latent)."""
        table = target.reference.boundary_liveness
        for name in [f"r{i}" for i in range(8)] + ["sp", "mar", "mdr"]:
            key = ("registers", name)
            if table.verdict(key, 1, self.BOUNDARY) == code:
                return key
        raise AssertionError(f"no register with code {code} at this boundary")

    def test_reference_state_has_nothing_live(self, target):
        target.restore_boundary(self.BOUNDARY)
        assert self._probe(target) is False

    @pytest.mark.parametrize(
        "perturb",
        [
            lambda cpu, env: setattr(cpu, "pc", cpu.pc + 4),
            lambda cpu, env: setattr(cpu, "ir", cpu.ir ^ 1),
            lambda cpu, env: setattr(cpu, "last_signature", -5),
            lambda cpu, env: cpu.memory.mmio.write(0x3C, 7),
            lambda cpu, env: cpu.memory.corrupt_word_bit(cpu.layout.code_base, 3),
            lambda cpu, env: setattr(env.engine, "speed", env.engine.speed + 1.0),
            lambda cpu, env: setattr(cpu, "psw", cpu.psw | 1 << 12),
        ],
        ids=["pc", "ir", "signature", "mmio", "code", "environment", "psw-high"],
    )
    def test_untraced_state_keeps_simulating(self, target, perturb):
        target.restore_boundary(self.BOUNDARY)
        perturb(target.cpu, target.environment)
        assert self._probe(target) is None

    @pytest.mark.parametrize(
        "code, expected",
        [(LIVE_CODE, None), (OVERWRITTEN_CODE, False), (LATENT_CODE, True)],
    )
    def test_register_verdicts(self, target, code, expected):
        key = self._key_with(target, code)
        target.restore_boundary(self.BOUNDARY)
        target.scan_chain.flip(FaultTarget(key[0], key[1], 0))
        assert self._probe(target) is expected

    def test_parity_only_difference_counts_as_its_word(self, target):
        table = target.reference.boundary_liveness
        layout = target.cpu.layout
        for address in range(layout.data_base, layout.data_base + layout.data_size, WORD):
            row = table.rows.get(("memory", address))
            if row is not None and row[self.BOUNDARY] == LIVE_CODE:
                break
        else:
            raise AssertionError("no live data word at this boundary")
        target.restore_boundary(self.BOUNDARY)
        ram = target.cpu.memory.data
        ram.parity[ram.index(address)] ^= 1
        ram.version += 1
        assert self._probe(target) is None


def _continue_without_exit(oracle, state, boundary):
    """Run a captured machine state from ``boundary`` to the end of the
    window on ``oracle``, with no early exit of any kind."""
    oracle._restore(state)
    cpu, env = oracle.cpu, oracle.environment
    outputs = []
    for _k in range(boundary, oracle.iterations):
        result = cpu.run(10_000_000)
        assert result is target_module.StepResult.YIELD
        outputs.append(env.exchange(cpu.memory.mmio))
    return outputs, oracle.boundary_hash() != oracle.reference.hashes[-1]


class TestProbeSoundness:
    """(b) At every probe that exits, the brute-force continuation of the
    very state it judged delivers the reference outputs from that
    boundary on, and its final-state verdict equals the probe's."""

    @pytest.fixture
    def captured(self, monkeypatch):
        exits = []
        probes = []
        original = target_module._dead_divergence

        def recording(cpu, environment, reference, boundary):
            verdict = original(cpu, environment, reference, boundary)
            probes.append(boundary)
            if verdict is not None:
                exits.append(
                    (
                        boundary,
                        verdict,
                        {"cpu": cpu.snapshot(), "env": environment.snapshot()},
                    )
                )
            return verdict

        monkeypatch.setattr(target_module, "_dead_divergence", recording)
        return probes, exits

    @pytest.mark.parametrize("algorithm", ["I", "II"])
    @pytest.mark.parametrize("multibit", [False, True], ids=["single", "burst"])
    def test_exits_match_brute_force(
        self,
        algorithm,
        multibit,
        captured,
        algorithm_i_compiled,
        algorithm_ii_compiled,
    ):
        workload = algorithm_i_compiled if algorithm == "I" else algorithm_ii_compiled
        iterations = 70
        target = _recorded(workload, iterations)
        oracle = TargetSystem(
            workload=workload,
            environment=EngineEnvironment(),
            iterations=iterations,
            delta_dataplane=False,
        )
        oracle.run_reference()
        reference = target.reference
        rng = np.random.default_rng(21)
        space = target.scan_chain.location_space()
        if multibit:
            plan = sample_multibit_plan(
                space,
                target.scan_chain.element_width,
                reference.total_instructions,
                300,
                2,
                rng,
            )
        else:
            plan = sample_fault_plan(
                space=space,
                total_instructions=reference.total_instructions,
                count=300,
                rng=rng,
            )
        live = [f for f in plan if target.liveness.classify_fault(f) is Liveness.LIVE]
        probes, exits = captured
        checked = 0
        for fault in live[:90]:
            del exits[:]
            run = target.run_experiment(fault)
            for boundary, verdict, state in exits:
                outputs, differs = _continue_without_exit(oracle, state, boundary)
                assert outputs == reference.outputs[boundary:], fault
                assert differs == verdict, fault
                assert run.early_exit_iteration == boundary
                assert run.final_state_differs == verdict
                checked += 1
        assert probes, "no probe ran"
        assert checked, "no probe exited"


class TestLiveThenDead:
    def test_known_fault_exits_before_the_window_end(self, algorithm_i_compiled):
        """(c) A tag flip is read (the line misses and refills), and what
        it leaves behind is never read again within the window: the run
        stops 13 iterations in, as latent, instead of running all 80."""
        target = _recorded(algorithm_i_compiled, 80)
        fault = FaultDescriptor(FaultTarget("cache", "line27.tag", 0), 1497)
        assert target.liveness.classify_fault(fault) is Liveness.LIVE
        fast = target.run_experiment(fault)
        slow = target.run_experiment(fault, early_exit=False)
        assert fast.early_exit_iteration is not None
        assert fast.early_exit_iteration < target.iterations
        assert fast.final_state_differs and slow.final_state_differs
        assert list(fast.outputs) == list(slow.outputs)
        assert slow.early_exit_iteration is None
        assert fast.instructions_executed < slow.instructions_executed


class TestCampaignEquivalence:
    """(d) Every pruned execution path gives the plain campaign's
    outcomes, while actually taking dead-divergence exits."""

    @pytest.fixture(scope="class")
    def make(self, algorithm_i_compiled):
        def make(**overrides):
            return CampaignConfig(
                workload=algorithm_i_compiled,
                faults=240,
                iterations=70,
                seed=8,
                **overrides,
            )

        return make

    @pytest.fixture(scope="class")
    def plain(self, make):
        return ScifiCampaign(make(prune=False, batch_size=1)).run()

    @staticmethod
    def _dead_exits(result):
        return sum(
            1
            for run in result.experiments
            if run.early_exit_iteration is not None and run.final_state_differs
        )

    def test_plain_campaign_takes_no_dead_exit(self, plain):
        assert self._dead_exits(plain) == 0

    @pytest.mark.parametrize(
        "overrides, workers",
        [
            ({"prune": True}, 1),
            ({"prune": True, "batch_size": 8}, 1),
            ({"prune": True}, 2),
        ],
        ids=["serial", "batch8", "workers2"],
    )
    def test_outcomes_identical_to_plain(self, make, plain, overrides, workers):
        result = ScifiCampaign(make(**overrides)).run(workers=workers)
        assert result.outcomes == plain.outcomes
        assert self._dead_exits(result) > 0
        for got, want in zip(result.experiments, plain.experiments):
            assert list(got.outputs) == list(want.outputs)
            assert got.final_state_differs == want.final_state_differs

