"""An execution profiler for the simulated CPU.

Attaches to the CPU's trace hook and aggregates dynamic statistics:
per-opcode counts, per-address (hot-spot) counts, and basic-block
(signature) visit counts.  Used to characterise workloads — e.g. how
much of an iteration the runtime tick costs versus the control law —
and to verify the instruction-budget numbers quoted in DESIGN.md.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import MachineError
from repro.thor.cpu import CPU, TraceEntry
from repro.thor.program import Program


@dataclass
class ProfileReport:
    """Aggregated execution statistics.

    Attributes:
        total: dynamic instructions observed.
        by_opcode: dynamic count per mnemonic.
        by_address: dynamic count per code address.
        by_block: dynamic count per signature id (block entries).
    """

    total: int = 0
    by_opcode: Counter = field(default_factory=Counter)
    by_address: Counter = field(default_factory=Counter)
    by_block: Counter = field(default_factory=Counter)

    def hottest(self, top: int = 10) -> List[Tuple[int, int]]:
        """The ``top`` most executed addresses as ``(address, count)``."""
        return self.by_address.most_common(top)

    def opcode_share(self, mnemonic: str) -> float:
        """Fraction of dynamic instructions with this mnemonic."""
        if self.total == 0:
            return 0.0
        return self.by_opcode.get(mnemonic, 0) / self.total

    def memory_traffic_share(self) -> float:
        """Fraction of instructions that touch data memory."""
        touching = sum(
            self.by_opcode.get(name, 0)
            for name in ("LD", "ST", "PUSH", "POP", "CALL", "RET")
        )
        return touching / self.total if self.total else 0.0


class Profiler:
    """Collects a :class:`ProfileReport` through the CPU trace hook."""

    def __init__(self, cpu: CPU):
        self.cpu = cpu
        self.report = ProfileReport()
        self._previous_hook = None
        self._attached = False

    def __enter__(self) -> "Profiler":
        self.attach()
        return self

    def __exit__(self, *_exc) -> None:
        self.detach()

    def attach(self) -> None:
        """Start profiling (chains any existing trace hook)."""
        if self._attached:
            raise MachineError("profiler already attached")
        self._previous_hook = self.cpu.trace_hook
        self.cpu.trace_hook = self._on_trace
        self._attached = True

    def detach(self) -> None:
        """Stop profiling and restore the previous hook."""
        if self._attached:
            self.cpu.trace_hook = self._previous_hook
            self._attached = False

    def _on_trace(self, entry: TraceEntry) -> None:
        report = self.report
        report.total += 1
        report.by_opcode[entry.mnemonic] += 1
        report.by_address[entry.pc] += 1
        if entry.mnemonic == "SIG":
            report.by_block[entry.word & 0xFFFF] += 1
        if self._previous_hook is not None:
            self._previous_hook(entry)


def render_profile(
    report: ProfileReport,
    program: Optional[Program] = None,
    top: int = 12,
) -> str:
    """Fixed-width profile rendering with optional source annotation."""
    from repro.thor.disassembler import disassemble_word

    lines = [f"profile: {report.total} dynamic instructions"]
    lines.append(f"{'opcode':<10}{'count':>10}{'share':>9}")
    for mnemonic, count in report.by_opcode.most_common(top):
        lines.append(f"{mnemonic:<10}{count:>10d}{100.0 * count / report.total:>8.1f}%")
    lines.append("")
    lines.append(f"hot spots (top {top}):")
    for address, count in report.hottest(top):
        text = ""
        if program is not None:
            index = (address - program.entry) // 4
            if 0 <= index < len(program.code):
                text = "  " + disassemble_word(program.code[index])
        lines.append(f"  {address:#08x}{count:>10d}{text}")
    if report.by_block:
        lines.append("")
        lines.append("block entries (signature ids):")
        for block, count in sorted(report.by_block.items()):
            lines.append(f"  sig {block:<6}{count:>10d}")
    return "\n".join(lines)
