"""Lockstep (master/slave) fault-injection experiments.

The paper's introduction frames the cost argument: strong failure
semantics via *duplication and comparison* needs two computers per node
(2(f+1) total), which is why the cost-sensitive world wants software
mechanisms instead.  Thor's MASTER/SLAVE COMPARATOR (Table 1's last row)
implements exactly that duplication; the paper lists it but does not use
it.

This module makes the comparison quantitative:
:class:`LockstepTarget` runs two CPUs in lockstep with the comparator
armed, injects faults into the *master* (whose outputs drive the
environment), and observes whether the comparator catches the error
before a wrong output escapes.  The companion bench shows the expected
trade: near-perfect coverage of effective faults at twice the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import CampaignError
from repro.faults.models import FaultDescriptor
from repro.goofi.environment import EngineEnvironment
from repro.goofi.target import (
    ExperimentRun,
    ReferenceRun,
    TargetSystem,
    _inject,
    hold_last_output,
)
from repro.tcc.codegen import CompiledProgram
from repro.thor.cpu import CPU, StepResult
from repro.thor.edm import DetectionEvent, Mechanism
from repro.thor.memory import MMIODevice
from repro.thor.scanchain import ScanChain


class LockstepTarget:
    """A duplication-and-comparison target system.

    Master and slave execute the same instruction stream; after every
    instruction the architectural states are compared and a divergence
    raises MASTER/SLAVE COMPARATOR ERROR (conceptually the comparator
    checks the buses each cycle; state comparison at instruction
    granularity is the same detection power in this model).

    Reuses a plain :class:`TargetSystem`'s reference run — fault-free,
    master and slave are identical, so golden data carries over.
    """

    def __init__(
        self,
        workload: CompiledProgram,
        environment: Optional[EngineEnvironment] = None,
        iterations: int = 650,
        watchdog_factor: float = 10.0,
    ):
        self.inner = TargetSystem(
            workload,
            environment=environment,
            iterations=iterations,
            watchdog_factor=watchdog_factor,
        )
        self.slave = CPU(self.inner.cpu.layout)
        self.slave.load(workload.program)

    def run_reference(self) -> ReferenceRun:
        """Golden run (single CPU — lockstep is fault-free identical)."""
        return self.inner.run_reference()

    @property
    def reference(self) -> Optional[ReferenceRun]:
        return self.inner.reference

    @property
    def scan_chain(self) -> ScanChain:
        return self.inner.scan_chain

    def run_experiment(self, fault: FaultDescriptor) -> ExperimentRun:
        """Inject into the master and run the pair to termination."""
        reference = self.inner.reference
        if reference is None:
            raise CampaignError("run_reference() must come first")
        start_iteration = reference.locate(fault.time)
        # The slave needs a full checkpoint image; the master seats
        # through the inner target's data plane (O(touched) restores).
        snapshot = reference.snapshots[start_iteration]
        master = self.inner.cpu
        env = self.inner.environment
        self.inner.restore_boundary(start_iteration)
        self.slave.restore(snapshot["cpu"])  # type: ignore[arg-type]

        replay = fault.time - reference.instructions_at[start_iteration]
        for _ in range(replay):
            master.step()
            self.slave.step()
        _inject(master, self.inner.scan_chain, fault)

        outputs: List[float] = list(reference.outputs[:start_iteration])
        run = ExperimentRun(fault=fault, outputs=outputs)
        watchdog = self.inner.watchdog_budget()
        for k in range(start_iteration, self.inner.iterations):
            result = self._run_pair_until_yield(master, watchdog, run, k)
            if result is not StepResult.YIELD:
                if run.detection is None:
                    hold_last_output(run, env, self.inner.iterations)
                return run
            outputs.append(env.exchange(master.memory.mmio))
            # Mirror the exchanged inputs into the slave's MMIO.
            for offset in (MMIODevice.REFERENCE, MMIODevice.SPEED):
                self.slave.memory.mmio.write(
                    offset, master.memory.mmio.read(offset)
                )
        run.final_state_differs = True
        return run

    def _run_pair_until_yield(
        self, master: CPU, budget: int, run: ExperimentRun, iteration: int
    ) -> StepResult:
        for _ in range(budget):
            master_result = master.step()
            slave_result = self.slave.step()
            run.instructions_executed = master.instruction_index
            if master_result is StepResult.DETECTED:
                run.detection = master.detection
                run.detected_iteration = iteration
                return StepResult.DETECTED
            # The comparator checks the processors' bus-visible state
            # after every instruction: registers, PC/PSW and the
            # memory-interface latches (MAR/MDR cover every issued
            # access).  Cache-internal corruption surfaces on its first
            # load or write-back, exactly as on the physical comparator.
            if (
                master_result is not slave_result
                or master.register_state_bytes() != self.slave.register_state_bytes()
            ):
                run.detection = DetectionEvent(
                    mechanism=Mechanism.COMPARATOR_ERROR,
                    pc=master.pc,
                    instruction_index=master.instruction_index,
                    detail="lockstep divergence",
                )
                run.detected_iteration = iteration
                return StepResult.DETECTED
            if master_result is StepResult.YIELD:
                return StepResult.YIELD
            if master_result is StepResult.HALTED:
                return StepResult.HALTED
        return StepResult.OK
