"""The instruction set's definition: one specification per opcode.

Every :class:`Opcode` has exactly one :class:`OpSpec` in :data:`SPEC`,
and every per-opcode fact of the tool chain is read from it:

* :mod:`repro.thor.cpu` generates both interpreters from the bodies at
  import: the traced one-instruction step (every recorder and trace
  hook, the oracle) and the table-driven loop of :meth:`CPU.run
  <repro.thor.cpu.CPU.run>`;
* :mod:`repro.thor.isa` derives the encoding (an opcode that uses the
  immediate carries imm16 in bits [15:0], any other rs2 in [15:12]) and
  the privileged set;
* :mod:`repro.thor.disassembler` prints and :mod:`repro.thor.assembler`
  parses every instruction by its :attr:`OpSpec.syntax`;
* the assembler's signature analysis follows :attr:`OpSpec.flow`.

An ISA or EDM fix therefore lands here, once, and a new opcode needs one
:class:`OpSpec` and nothing else.

A spec's body is Python over the decoded operands (``rd``, ``rs1``,
``rs2``, ``imm``, ``simm`` and the spec's own ``operands``), the
machine's ``regs``, ``pc``, ``psw``, ``last_sig`` and ``successors``,
the constants of :data:`CONSTANTS`, ``raise_detection``/``Mechanism``
and :func:`float_result`.  Everything else goes through the primitives,
which each interpreter expands its own way:

``READ(f)``
    Register ``f``'s value (traced: INSTRUCTION ERROR for a field
    outside the register file, then the recorded read).
``WRITE(f, value)``
    Register write, same checks and recording.
``FLOAT(bits)``
    The single-precision value of a bit pattern.
``FLAGS(z=, n=, c=, v=, m=)``
    Clear the spec's ``psw_write`` bits, then set each named flag whose
    condition holds (recorded as one masked PSW write).
``x = LOAD(address)`` / ``STORE(address, value)``
    A data access through MAR/MDR: cached for rodata, data and stack,
    the checked memory map otherwise.
``PUSH(value)`` / ``x = POP(detail)``
    A stack access after the STORAGE ERROR checks (``detail`` names the
    empty-stack error).  Both bind ``sp``, the address they accessed;
    the body commits the new stack pointer itself, unrecorded: the
    recorded SP read alone determines its liveness.
``JUMP(target)``
    End the instruction at ``target`` (JUMP ERROR outside code).
``YIELD(n)`` / ``HALT()``
    End the instruction with an environment yield (SVC) or a halt.

The traced step records a ``psw_read`` mask before the body runs, and
checks privileged opcodes (a recorded read of the mode bit) before any
of it.

Text.  An instruction's mnemonic is its opcode's name in lower case.
Its operands are written by :attr:`OpSpec.syntax`, a format string over
the register names ``rd``, ``rs1``, ``rs2`` and the immediate as
``imm`` (unsigned) or ``simm`` (sign-extended).  By default it lists
the fields the spec uses in ``rd, rs1, rs2`` order, then the immediate
the spec reads; a spec states its syntax only where that is wrong (the
``[rs1+simm]`` memory operand of LD/ST, the hex immediate of LUI/ORI).
An immediate that a ``JUMP`` reaches through the ``offset`` operand is
a pc-relative target, written in words.

Control flow.  :attr:`OpSpec.flow` is read from the body's primitives:
a ``JUMP`` over ``offset`` goes to its ``"target"``, any other ``JUMP``
(a return or a register jump) is ``"indirect"``, and the instruction
falls through to the ``"next"`` one unless a top-level ``JUMP`` or
``HALT`` ends the body (a ``JUMP`` under an ``if`` is conditional).
"""

from __future__ import annotations

import ast
import enum
import struct
from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

from repro.thor.edm import Mechanism, raise_detection

#: Register index of the stack pointer in encoded register fields.
SP_INDEX = 8

#: PSW bit positions: the ``Z N C V`` flags and the supervisor mode bit.
FLAG_Z = 1 << 0
FLAG_N = 1 << 1
FLAG_C = 1 << 2
FLAG_V = 1 << 3
FLAG_M = 1 << 7


class Opcode(enum.IntEnum):
    """Operation codes.  Undefined values raise INSTRUCTION ERROR.

    Opcode numbers are assigned sparsely so that a single bit-flip in
    the instruction register frequently lands on an undefined opcode and
    raises INSTRUCTION ERROR, as on the real processor.
    """

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


#: Named constants of the bodies; the generator inlines them as literals.
CONSTANTS: Dict[str, object] = {
    "U32": 0xFFFFFFFF,
    "SIGN": 0x80000000,
    "INT_MIN": -(1 << 31),
    "INT_MAX": (1 << 31) - 1,
    "INF": float("inf"),
    "WORD": 4,
    "SP": SP_INDEX,
    "FLAG_Z": FLAG_Z,
    "FLAG_N": FLAG_N,
    "FLAG_C": FLAG_C,
    "FLAG_V": FLAG_V,
    "FLAG_M": FLAG_M,
}

#: PSW bits the flag-setting instructions overwrite.
ARITHMETIC_FLAGS = FLAG_Z | FLAG_N | FLAG_C | FLAG_V

#: PSW bits every branch records as read.  This over-approximates: BR
#: reads no flag, BEQ/BNE read Z, BLT N and BVS V only.  Liveness stays
#: sound; tightening the masks changes the pruned counts.
BRANCH_FLAGS = FLAG_Z | FLAG_N | FLAG_V

#: Smallest normal single-precision magnitude (results below it, other
#: than exact zero, raise UNDERFLOW CHECK).
_MIN_NORMAL = 2.0 ** -126
_INF = float("inf")
_STRUCT_F = struct.Struct("<f")
_STRUCT_I = struct.Struct("<I")


def float_result(value: float, operands_finite: bool) -> int:
    """The bits of a float result rounded to single precision, after the
    result EDMs: NaN (ILLEGAL OPERATION), overflow from finite operands
    (OVERFLOW CHECK) and a non-zero result below the normal range
    (UNDERFLOW CHECK)."""
    try:
        packed = _STRUCT_F.pack(value)
    except OverflowError:
        # Magnitude beyond float32: infinity on the 32-bit datapath.
        packed = _STRUCT_F.pack(_INF if value > 0 else -_INF)
    rounded = _STRUCT_F.unpack(packed)[0]
    if rounded != rounded:
        raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN result")
    if rounded == _INF or rounded == -_INF:
        if operands_finite:
            raise_detection(Mechanism.OVERFLOW_CHECK, "float overflow")
    elif value != 0.0 and abs(rounded) < _MIN_NORMAL:
        raise_detection(Mechanism.UNDERFLOW_CHECK, "underflow/denormal result")
    return _STRUCT_I.unpack(packed)[0]


def _names(nodes) -> Set[str]:
    return {n.id for n in nodes if isinstance(n, ast.Name)}


def _primitive(node: ast.AST) -> str:
    """The primitive ``node`` calls, or ``""``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return ""


def _flow(tree: ast.Module) -> Tuple[str, ...]:
    """Where control goes after a body (module docstring, Control flow)."""
    flow = tuple(
        "target" if "offset" in _names(ast.walk(node)) else "indirect"
        for node in ast.walk(tree)
        if _primitive(node) == "JUMP"
    )
    ends = any(
        isinstance(statement, ast.Expr) and _primitive(statement.value) in ("JUMP", "HALT")
        for statement in tree.body
    )
    return flow if ends else flow + ("next",)


@dataclass(frozen=True)
class OpSpec:
    """One opcode's semantics, text and control flow.

    Attributes:
        opcode: the opcode specified.
        body: the semantics, in the primitives of the module docstring.
        operands: constants the predecoder derives once per word, by
            name, as expressions over the decoded fields.
        psw_read: PSW bits the instruction reads (recorded first).
        psw_write: PSW bits :func:`FLAGS` overwrites.
        privileged: supervisor mode only (INSTRUCTION ERROR otherwise).
        syntax: the operands' format string (module docstring, Text);
            derived when not given.
        fields: the register fields the body and operands use (derived).
        uses_imm: whether they use the immediate (derived).
        flow: the successor kinds of the body, a subset of
            ``("target", "indirect", "next")`` (derived).
    """

    opcode: Opcode
    body: str
    operands: Tuple[Tuple[str, str], ...] = ()
    psw_read: int = 0
    psw_write: int = 0
    privileged: bool = False
    syntax: str = ""
    fields: Tuple[str, ...] = field(init=False)
    uses_imm: bool = field(init=False)
    flow: Tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        # The operands' expressions parse as trailing expression
        # statements: names for the fields, nothing for the flow.
        tree = ast.parse("\n".join([self.body] + [expr for _, expr in self.operands]))
        names = _names(ast.walk(tree))
        fields = tuple(f for f in ("rd", "rs1", "rs2") if f in names)
        immediate = ("simm",) if "simm" in names else ("imm",) if "imm" in names else ()
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "uses_imm", bool(immediate))
        object.__setattr__(self, "flow", _flow(tree))
        if not self.syntax:
            default = ", ".join(f"{{{name}}}" for name in fields + immediate)
            object.__setattr__(self, "syntax", default)

    @property
    def mnemonic(self) -> str:
        """The assembler's name of the opcode."""
        return self.opcode.name.lower()


def _op(opcode: Opcode, body: str, **options) -> OpSpec:
    operands = tuple(options.pop("operands", {}).items())
    return OpSpec(opcode, body.strip("\n"), operands, **options)


def _int_binop(opcode: Opcode, expression: str, check: str = "") -> OpSpec:
    """A signed 32-bit binop with OVERFLOW CHECK on the exact result."""
    name = opcode.name.lower()
    return _op(opcode, f"""
a = (READ(rs1) ^ SIGN) - SIGN
b = (READ(rs2) ^ SIGN) - SIGN
{check}
result = {expression}
if result > INT_MAX or result < INT_MIN:
    raise_detection(Mechanism.OVERFLOW_CHECK, "integer {name} overflow")
WRITE(rd, result & U32)
""")


def _float_binop(opcode: Opcode, expression: str, check: str = "") -> OpSpec:
    """A single-precision binop: NaN operands detect, then the result
    EDMs of :func:`float_result`."""
    return _op(opcode, f"""
a = FLOAT(READ(rs1))
if a != a:
    raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
b = FLOAT(READ(rs2))
if b != b:
    raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
{check}
WRITE(rd, float_result({expression}, abs(a) != INF and abs(b) != INF))
""")


def _branch(opcode: Opcode, condition: str) -> OpSpec:
    """A pc-relative branch, taken when ``condition`` holds."""
    jump = "JUMP((pc + offset) & U32)"
    body = jump if condition == "True" else f"if {condition}:\n    {jump}"
    return _op(
        opcode, body, operands={"offset": "WORD * simm"}, psw_read=BRANCH_FLAGS
    )


#: The syntax of LD/ST: the register, then the ``[base+offset]`` address.
_MEMORY = "{rd}, [{rs1}{simm:+d}]"

#: The specification, in the ISA's order.
SPEC: Tuple[OpSpec, ...] = (
    # -- system -----------------------------------------------------------
    _op(Opcode.NOP, "pass"),
    _op(Opcode.HALT, "HALT()", privileged=True),
    _op(Opcode.SVC, "YIELD(imm)"),
    _op(Opcode.SIG, """
if successors and last_sig is not None and imm not in successors.get(last_sig, ()):
    raise_detection(Mechanism.CONTROL_FLOW_ERROR, f"signature {last_sig} -> {imm}")
last_sig = imm
"""),
    _op(Opcode.SETMODE, "FLAGS(m=READ(rs1) & 1)", psw_write=FLAG_M, privileged=True),
    _op(Opcode.WFI, "HALT()", privileged=True),
    # -- moves and constants ----------------------------------------------
    _op(Opcode.LDI, "WRITE(rd, constant)", operands={"constant": "simm & U32"}),
    _op(
        Opcode.LUI, "WRITE(rd, constant)", operands={"constant": "(imm << 16) & U32"},
        syntax="{rd}, {imm:#x}",
    ),
    _op(Opcode.ORI, "WRITE(rd, READ(rd) | imm)", syntax="{rd}, {imm:#x}"),
    _op(Opcode.MOV, "WRITE(rd, READ(rs1))"),
    # -- memory -----------------------------------------------------------
    _op(Opcode.LD, """
value = LOAD((READ(rs1) + simm) & U32)
WRITE(rd, value)
""", syntax=_MEMORY),
    _op(Opcode.ST, "STORE((READ(rs1) + simm) & U32, READ(rd))", syntax=_MEMORY),
    _op(Opcode.PUSH, """
PUSH(READ(rd))
regs[SP] = sp
"""),
    _op(Opcode.POP, """
value = POP("pop from empty stack")
WRITE(rd, value)
regs[SP] = (sp + WORD) & U32
"""),
    # -- integer arithmetic -------------------------------------------------
    _int_binop(Opcode.ADD, "a + b"),
    _int_binop(Opcode.SUB, "a - b"),
    _int_binop(Opcode.MUL, "a * b"),
    _int_binop(Opcode.DIV, "int(a / b)  # truncating", """
if b == 0:
    raise_detection(Mechanism.DIVISION_CHECK, "integer divide by zero")
"""),
    _op(Opcode.AND, "WRITE(rd, READ(rs1) & READ(rs2))"),
    _op(Opcode.OR, "WRITE(rd, READ(rs1) | READ(rs2))"),
    _op(Opcode.XOR, "WRITE(rd, READ(rs1) ^ READ(rs2))"),
    _op(Opcode.SHL, "WRITE(rd, (READ(rs1) << (READ(rs2) & 31)) & U32)"),
    _op(Opcode.SHR, "WRITE(rd, READ(rs1) >> (READ(rs2) & 31))"),
    _op(Opcode.ADDI, """
result = ((READ(rs1) ^ SIGN) - SIGN) + simm
if result > INT_MAX or result < INT_MIN:
    raise_detection(Mechanism.OVERFLOW_CHECK, "integer add overflow")
WRITE(rd, result & U32)
"""),
    _op(Opcode.CMP, """
au = READ(rs1)
bu = READ(rs2)
a = (au ^ SIGN) - SIGN
b = (bu ^ SIGN) - SIGN
FLAGS(z=a == b, n=a < b, c=au < bu)
""", psw_write=ARITHMETIC_FLAGS),
    # -- float arithmetic -------------------------------------------------
    _float_binop(Opcode.FADD, "a + b"),
    _float_binop(Opcode.FSUB, "a - b"),
    _float_binop(Opcode.FMUL, "a * b"),
    _float_binop(Opcode.FDIV, "a / b", """
if b == 0.0:
    raise_detection(Mechanism.DIVISION_CHECK, "float divide by zero")
"""),
    _op(Opcode.FCMP, """
a = FLOAT(READ(rs1))
b = FLOAT(READ(rs2))
if a != a or b != b:
    FLAGS(v=True)
else:
    FLAGS(z=a == b, n=a < b)
""", psw_write=ARITHMETIC_FLAGS),
    _op(Opcode.ITOF, "WRITE(rd, float_result(float((READ(rs1) ^ SIGN) - SIGN), True))"),
    _op(Opcode.FTOI, """
value = FLOAT(READ(rs1))
if value != value:
    raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
if not INT_MIN <= value <= INT_MAX:
    raise_detection(Mechanism.OVERFLOW_CHECK, "float to int overflow")
WRITE(rd, int(value) & U32)
"""),
    _op(Opcode.FNEG, "WRITE(rd, READ(rs1) ^ SIGN)"),
    # -- control flow -----------------------------------------------------
    _branch(Opcode.BR, "True"),
    _branch(Opcode.BEQ, "psw & FLAG_Z"),
    _branch(Opcode.BNE, "not psw & FLAG_Z"),
    _branch(Opcode.BLT, "psw & FLAG_N"),
    _branch(Opcode.BGE, "not psw & (FLAG_N | FLAG_V)"),
    _branch(Opcode.BGT, "not psw & (FLAG_Z | FLAG_N | FLAG_V)"),
    _branch(Opcode.BLE, "psw & (FLAG_Z | FLAG_N)"),
    _branch(Opcode.BVS, "psw & FLAG_V"),
    _op(Opcode.CALL, """
PUSH((pc + WORD) & U32)
regs[SP] = sp
JUMP((pc + offset) & U32)
""", operands={"offset": "WORD * simm"}),
    _op(Opcode.RET, """
target = POP("return with empty stack")
regs[SP] = (sp + WORD) & U32
JUMP(target)
"""),
    _op(Opcode.JR, "JUMP(READ(rs1))"),
    # -- runtime checks ---------------------------------------------------
    _op(Opcode.CHK, """
low = FLOAT(READ(rd))
value = FLOAT(READ(rs1))
high = FLOAT(READ(rs2))
if not low <= value <= high:
    raise_detection(Mechanism.CONSTRAINT_ERROR, f"{value!r} outside [{low!r}, {high!r}]")
"""),
)

#: The spec of each defined opcode, by its number.
SPEC_BY_CODE: Dict[int, OpSpec] = {int(spec.opcode): spec for spec in SPEC}

#: The opcodes the paper-sized Algorithm I and II references execute,
#: by their summed dynamic count (``repro.thor.profiler``, 650
#: iterations each): ST 58,500; LD 51,084; SIG 11,436; BR 10,590;
#: FCMP 9,292; FMUL 9,100; BLT 5,392; ADDI, FADD and BGT 3,900 each;
#: CALL, FSUB, RET, LDI, ADD and SVC 1,300 each; LUI and ORI 4.  The
#: table loop tests its arms in this order, then the rest in ISA order.
MEASURED_MIX: Tuple[Opcode, ...] = (
    Opcode.ST, Opcode.LD, Opcode.SIG, Opcode.BR, Opcode.FCMP, Opcode.FMUL,
    Opcode.BLT, Opcode.ADDI, Opcode.FADD, Opcode.BGT, Opcode.CALL,
    Opcode.FSUB, Opcode.RET, Opcode.LDI, Opcode.ADD, Opcode.SVC,
    Opcode.LUI, Opcode.ORI,
)
