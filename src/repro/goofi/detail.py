"""Detail mode: instruction-level error-propagation analysis.

GOOFI's detail mode logs the system state "before the execution of each
machine instruction", letting the user analyse how an error propagates
(§3.3.3).  :func:`trace_propagation` implements that analysis for one
experiment: it replays the faulted run and the golden run in lockstep
from the injection point and records, per instruction, which parts of
the architectural state diverge — producing the propagation timeline
from the flipped bit to the first wrong output, detection or
re-convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import CampaignError
from repro.faults.models import FaultDescriptor
from repro.goofi.target import TargetSystem, _inject
from repro.thor.cpu import CPU, StepResult
from repro.thor.disassembler import disassemble_word
from repro.thor.isa import NUM_GPRS, SP_INDEX
from repro.thor.memory import MMIODevice


@dataclass(frozen=True)
class DivergencePoint:
    """State divergence observed before executing one instruction.

    Attributes:
        instruction_index: dynamic instruction count (golden timeline).
        pc: the golden run's program counter.
        mnemonic: disassembled golden instruction about to execute.
        diverged: names of architectural elements differing from golden
            (``r0..r7``, ``sp``, ``pc``, ``psw``, ``ir``, ``mar``,
            ``mdr``, ``cache``, ``memory``).
    """

    instruction_index: int
    pc: int
    mnemonic: str
    diverged: Tuple[str, ...]


@dataclass
class PropagationReport:
    """The outcome of one detail-mode propagation analysis.

    Attributes:
        fault: the injected fault.
        timeline: divergence per traced instruction (only instructions
            with a non-empty divergence set are recorded).
        instructions_traced: how many lockstep instructions were run.
        converged: the faulted state became identical to golden again.
        detected: mechanism name if a detection terminated the run.
        control_flow_diverged: the two runs stopped executing the same
            instruction stream (PC divergence) — tracing stops there.
    """

    fault: FaultDescriptor
    timeline: List[DivergencePoint] = field(default_factory=list)
    instructions_traced: int = 0
    converged: bool = False
    detected: Optional[str] = None
    control_flow_diverged: bool = False

    def summary_lines(self) -> List[str]:
        """A human-readable report."""
        lines = [f"propagation of {self.fault.label()}:"]
        for point in self.timeline[:40]:
            lines.append(
                f"  #{point.instruction_index:<7} {point.pc:#07x} "
                f"{point.mnemonic:<24} diverged: {', '.join(point.diverged)}"
            )
        if len(self.timeline) > 40:
            lines.append(f"  ... {len(self.timeline) - 40} more instructions")
        if self.detected:
            lines.append(f"  -> detected by {self.detected}")
        elif self.converged:
            lines.append("  -> state re-converged to the golden run (overwritten)")
        elif self.control_flow_diverged:
            lines.append("  -> control flow diverged from the golden run")
        else:
            lines.append("  -> still divergent when tracing stopped")
        return lines


def _compare_state(faulted: CPU, golden: CPU) -> Tuple[str, ...]:
    names: List[str] = []
    for index in range(NUM_GPRS):
        if faulted.regs[index] != golden.regs[index]:
            names.append(f"r{index}")
    if faulted.regs[SP_INDEX] != golden.regs[SP_INDEX]:
        names.append("sp")
    if faulted.pc != golden.pc:
        names.append("pc")
    if faulted.psw != golden.psw:
        names.append("psw")
    if faulted.ir != golden.ir:
        names.append("ir")
    if faulted.mar != golden.mar:
        names.append("mar")
    if faulted.mdr != golden.mdr:
        names.append("mdr")
    if faulted.cache.state_bytes() != golden.cache.state_bytes():
        names.append("cache")
    if faulted.memory.state_bytes() != golden.memory.state_bytes():
        names.append("memory")
    return tuple(names)


def trace_propagation(
    target: TargetSystem,
    fault: FaultDescriptor,
    max_instructions: int = 2000,
) -> PropagationReport:
    """Replay an experiment in lockstep with the golden run.

    Both runs are restored from the reference checkpoint before the
    injection iteration and replayed to the injection instruction; the
    fault — of any model: scan-chain, memory or program image — is
    injected into the *faulted* CPU only, as a campaign applies it at
    its seat, and both step together until the state re-converges, a
    detection fires, control flow diverges, or ``max_instructions``
    lockstep steps elapse.

    Note: the faulted CPU is the target's own; the golden twin is a
    scratch CPU built from the same checkpoint, so the environment model
    (shared inputs) stays consistent while the runs agree on iteration
    boundaries.
    """
    reference = target.reference
    if reference is None:
        raise CampaignError("run_reference() must come first")
    start_iteration = reference.locate(fault.time)
    # The scratch golden twin needs a full checkpoint image; the primary
    # (faulted) machine seats through the target's data plane, which
    # costs O(touched state) between consecutive replays.
    snapshot = reference.snapshots[start_iteration]

    faulted = target.cpu
    golden = CPU(target.cpu.layout)
    golden.load(target.workload.program)
    target.restore_boundary(start_iteration)
    golden.restore(snapshot["cpu"])  # type: ignore[arg-type]

    replay = fault.time - reference.instructions_at[start_iteration]
    for _ in range(replay):
        faulted.step()
        golden.step()

    _inject(faulted, target.scan_chain, fault)
    report = PropagationReport(fault=fault)

    for _ in range(max_instructions):
        diverged = _compare_state(faulted, golden)
        if not diverged:
            report.converged = True
            return report
        if "pc" in diverged:
            report.control_flow_diverged = True
            report.timeline.append(
                DivergencePoint(
                    instruction_index=golden.instruction_index,
                    pc=golden.pc,
                    mnemonic=disassemble_word(golden.ir),
                    diverged=diverged,
                )
            )
            return report
        report.timeline.append(
            DivergencePoint(
                instruction_index=golden.instruction_index,
                pc=golden.pc,
                mnemonic=disassemble_word(golden.ir),
                diverged=diverged,
            )
        )
        faulted_result = faulted.step()
        golden_result = golden.step()
        report.instructions_traced += 1
        if faulted_result is StepResult.DETECTED:
            report.detected = faulted.detection.mechanism.value
            return report
        if golden_result is StepResult.YIELD:
            # Iteration boundary (identical control flow, so both runs
            # yield together).  The environment steps once, driven by the
            # *faulted* output — the run under test — and both CPUs then
            # see the same inputs, so the comparison keeps isolating the
            # CPU-internal error.
            target.environment.exchange(faulted.memory.mmio)
            for offset in (MMIODevice.REFERENCE, MMIODevice.SPEED):
                golden.memory.mmio.write(offset, faulted.memory.mmio.read(offset))
    return report
