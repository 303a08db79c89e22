"""The simulated CPU's instruction set: encoding, decoding, registers.

The ISA is a small 32-bit load/store architecture:

* fixed 32-bit instruction words:
  ``opcode[31:24] rd[23:20] rs1[19:16] rs2[15:12] / imm16[15:0]``;
* eight general-purpose registers ``r0..r7`` plus the stack pointer
  ``sp`` (register index 8);
* integer and IEEE-754 single-precision float arithmetic (float values
  travel in the integer registers as bit patterns, as on any 32-bit
  datapath without a separate float file);
* control-flow signature instructions (``SIG``) used by the control-flow
  checking mechanism.

The opcodes, and every per-opcode fact (what each does, its operands,
privilege and control flow), are specified once in
:mod:`repro.thor.semantics`; this module derives the encoding from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import AssemblyError
from repro.thor.semantics import (  # re-exported: the ISA's names
    FLAG_C,
    FLAG_M,
    FLAG_N,
    FLAG_V,
    FLAG_Z,
    SP_INDEX,
    SPEC,
    Opcode,
)

#: Number of general-purpose registers (r0..r7).
NUM_GPRS = 8

#: Instruction width in bytes.
INSTRUCTION_BYTES = 4

#: Opcodes that may only execute in supervisor mode.
PRIVILEGED_OPCODES = frozenset(spec.opcode for spec in SPEC if spec.privileged)

#: Opcodes whose imm16 field is an immediate (rs2 for the others).
IMMEDIATE_OPCODES = frozenset(spec.opcode for spec in SPEC if spec.uses_imm)

_VALID_OPCODES: Dict[int, Opcode] = {int(op): op for op in Opcode}


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction.

    ``imm`` holds the raw unsigned 16-bit immediate; use :meth:`simm` for
    the sign-extended value.  For three-register forms ``rs2`` is the
    [15:12] field and ``imm`` is ignored.
    """

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0

    def simm(self) -> int:
        """The immediate, sign-extended from 16 bits."""
        return self.imm - 0x10000 if self.imm & 0x8000 else self.imm


def _check_field(value: int, width: int, name: str) -> None:
    if not 0 <= value < (1 << width):
        raise AssemblyError(f"{name} field {value} does not fit in {width} bits")


def encode(instruction: Instruction) -> int:
    """Encode an instruction into its 32-bit word."""
    _check_field(int(instruction.opcode), 8, "opcode")
    _check_field(instruction.rd, 4, "rd")
    _check_field(instruction.rs1, 4, "rs1")
    word = (int(instruction.opcode) << 24) | (instruction.rd << 20) | (instruction.rs1 << 16)
    if instruction.opcode in IMMEDIATE_OPCODES:
        _check_field(instruction.imm, 16, "imm")
        word |= instruction.imm
    else:
        _check_field(instruction.rs2, 4, "rs2")
        word |= instruction.rs2 << 12
    return word


def decode(word: int) -> Optional[Instruction]:
    """Decode a 32-bit word; ``None`` if the opcode is undefined.

    Decoding never raises on corrupted words — an undefined opcode is a
    legitimate runtime situation (INSTRUCTION ERROR), not a programming
    error.
    """
    opcode_value = (word >> 24) & 0xFF
    opcode = _VALID_OPCODES.get(opcode_value)
    if opcode is None:
        return None
    rd = (word >> 20) & 0xF
    rs1 = (word >> 16) & 0xF
    if opcode in IMMEDIATE_OPCODES:
        return Instruction(opcode=opcode, rd=rd, rs1=rs1, imm=word & 0xFFFF)
    return Instruction(opcode=opcode, rd=rd, rs1=rs1, rs2=(word >> 12) & 0xF)


#: Register display names, indexable by encoded register field value.
REGISTER_NAMES = tuple(f"r{i}" for i in range(NUM_GPRS)) + ("sp",)


def register_index(name: str) -> int:
    """Encoded register field value for a register name (``r0``..``sp``)."""
    lowered = name.lower()
    if lowered == "sp":
        return SP_INDEX
    if lowered.startswith("r") and lowered[1:].isdigit():
        index = int(lowered[1:])
        if 0 <= index < NUM_GPRS:
            return index
    raise AssemblyError(f"unknown register {name!r}")
