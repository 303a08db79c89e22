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

Opcode numbers are assigned sparsely so that a single bit-flip in the
instruction register frequently lands on an undefined opcode and raises
INSTRUCTION ERROR, as on the real processor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import AssemblyError

#: Number of general-purpose registers (r0..r7).
NUM_GPRS = 8

#: Register index of the stack pointer in encoded register fields.
SP_INDEX = 8

#: Instruction width in bytes.
INSTRUCTION_BYTES = 4

#: PSW bit positions: the ``Z N C V`` flags and the supervisor mode bit.
FLAG_Z = 1 << 0
FLAG_N = 1 << 1
FLAG_C = 1 << 2
FLAG_V = 1 << 3
FLAG_M = 1 << 7


class Opcode(enum.IntEnum):
    """Operation codes.  Undefined values raise INSTRUCTION ERROR."""

    # -- system -----------------------------------------------------------
    NOP = 0x01
    HALT = 0x02           # privileged
    SVC = 0x03            # service call; SVC #0 is the environment yield
    SIG = 0x04            # control-flow signature checkpoint
    SETMODE = 0x70        # privileged: write PSW mode bit from rs1
    WFI = 0x71            # privileged: wait for interrupt

    # -- moves and constants ------------------------------------------------
    LDI = 0x10            # rd = sign_extend(imm16)
    LUI = 0x11            # rd = imm16 << 16
    ORI = 0x12            # rd |= zero_extend(imm16)
    MOV = 0x13            # rd = rs1

    # -- memory ---------------------------------------------------------------
    LD = 0x20             # rd = mem[rs1 + sign_extend(imm16)]
    ST = 0x21             # mem[rs1 + sign_extend(imm16)] = rd
    PUSH = 0x22           # sp -= 4; mem[sp] = rd
    POP = 0x23            # rd = mem[sp]; sp += 4

    # -- integer arithmetic -----------------------------------------------------
    ADD = 0x30
    SUB = 0x31
    MUL = 0x32
    DIV = 0x33
    AND = 0x34
    OR = 0x35
    XOR = 0x36
    SHL = 0x37
    SHR = 0x38
    ADDI = 0x39           # rd = rs1 + sign_extend(imm16)
    CMP = 0x3A            # flags from rs1 - rs2

    # -- float arithmetic (IEEE-754 single, bit patterns in GPRs) ---------------
    FADD = 0x40
    FSUB = 0x41
    FMUL = 0x42
    FDIV = 0x43
    FCMP = 0x44           # Z = equal, N = less, V = unordered
    ITOF = 0x45           # rd = float(int(rs1))
    FTOI = 0x46           # rd = int(float(rs1)), truncating
    FNEG = 0x47           # rd = -rs1

    # -- control flow -----------------------------------------------------------
    BR = 0x50             # pc += 4 * sign_extend(imm16)
    BEQ = 0x51
    BNE = 0x52
    BLT = 0x53
    BGE = 0x54
    BGT = 0x55
    BLE = 0x56
    BVS = 0x57            # branch if V (overflow / float unordered)
    CALL = 0x58           # push return address; pc-relative target
    RET = 0x59
    JR = 0x5A             # pc = rs1

    # -- runtime checks ------------------------------------------------------
    CHK = 0x60            # CONSTRAINT ERROR unless float rd <= rs1 <= rs2


#: Opcodes that may only execute in supervisor mode.
PRIVILEGED_OPCODES = frozenset({Opcode.HALT, Opcode.SETMODE, Opcode.WFI})

#: Opcodes whose imm16 field is a signed immediate (not rs2).
IMMEDIATE_OPCODES = frozenset(
    {
        Opcode.SVC,
        Opcode.SIG,
        Opcode.LDI,
        Opcode.LUI,
        Opcode.ORI,
        Opcode.LD,
        Opcode.ST,
        Opcode.ADDI,
        Opcode.BR,
        Opcode.BEQ,
        Opcode.BNE,
        Opcode.BLT,
        Opcode.BGE,
        Opcode.BGT,
        Opcode.BLE,
        Opcode.BVS,
        Opcode.CALL,
    }
)

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
