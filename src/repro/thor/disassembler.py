"""Disassembler: instruction words back to assembly text.

Completes the tool chain (assemble -> load -> disassemble) and powers
program listings, the detail-mode propagation reports and debugging.
The output round-trips: disassembling an assembled program and
re-assembling it yields the identical code image (tested property).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import AssemblyError
from repro.thor.isa import Instruction, SP_INDEX, decode
from repro.thor.memory import WORD
from repro.thor.program import Program
from repro.thor.semantics import SPEC_BY_CODE


def _reg(index: int) -> str:
    if index == SP_INDEX:
        return "sp"
    return f"r{index}"


def disassemble_word(word: int) -> str:
    """One instruction word as assembly text (``.word`` for undefined)."""
    instruction = decode(word)
    if instruction is None:
        return f".word {word:#010x}"
    return disassemble_instruction(instruction)


def disassemble_instruction(instruction: Instruction) -> str:
    """A decoded instruction as assembly text, by its spec's syntax."""
    spec = SPEC_BY_CODE[instruction.opcode]
    operands = spec.syntax.format(
        rd=_reg(instruction.rd),
        rs1=_reg(instruction.rs1),
        rs2=_reg(instruction.rs2),
        imm=instruction.imm,
        simm=instruction.simm(),
    )
    return f"{spec.mnemonic} {operands}" if operands else spec.mnemonic


def disassemble_program(program: Program) -> List[str]:
    """Full listing: ``address: word  mnemonic [; label]`` per line.

    Labels from the program's symbol table are annotated where they
    point into the code image.
    """
    labels_at: Dict[int, List[str]] = {}
    for name, address in program.symbols.items():
        labels_at.setdefault(address, []).append(name)
    lines = []
    for i, word in enumerate(program.code):
        address = program.entry + i * WORD
        text = disassemble_word(word)
        note = ""
        if address in labels_at:
            note = "    ; " + ", ".join(sorted(labels_at[address])) + ":"
        lines.append(f"{address:#010x}: {word:08x}  {text}{note}")
    return lines


def reassemble_source(program: Program) -> str:
    """Assembly source whose code image equals ``program``'s.

    Only the ``.text`` section is emitted: the data image round-trips
    through :attr:`Program.data` directly.  Branch targets are emitted
    as numeric relative offsets, so no label bookkeeping is needed.
    """
    lines = [".text"]
    for word in program.code:
        if decode(word) is None:
            raise AssemblyError(f"cannot reassemble undefined word {word:#010x}")
        lines.append("    " + disassemble_word(word))
    return "\n".join(lines) + "\n"
