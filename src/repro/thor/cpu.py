"""The CPU core: registers, execute loop, error-detection mechanisms.

Architectural and micro-architectural state (the "Registers" partition of
the paper's Tables 2/3, 426 injectable bits):

* ``r0..r7`` — general-purpose registers (8 x 32 bits),
* ``sp`` — stack pointer (32),
* ``pc`` — program counter (32),
* ``psw`` — 10-bit status word (``Z N C V`` flags in bits 0–3, reserved
  bits 4–6, supervisor mode ``M`` in bit 7, reserved 8–9),
* ``ir`` — instruction register (32); the next instruction is prefetched
  into IR at the end of the previous one, so a bit-flip injected at an
  instruction boundary corrupts the instruction about to execute,
* ``mar`` / ``mdr`` — memory address/data latches of the load-store path
  (32 + 32).

Detections freeze the CPU (the experiment's termination condition) and
are reported as :class:`~repro.thor.edm.DetectionEvent` values.

Dispatch
--------

The interpreter has two execution paths with identical observable
behaviour:

* **the reference chain** (:meth:`CPU._execute`): decode, check, trace
  and execute one instruction through :meth:`CPU._execute_chain`'s
  ``if``/``elif`` chain.  It runs whenever an access-trace recorder or a
  trace hook is attached (they must observe every architectural access
  in order) or :attr:`CPU.fast_dispatch` is switched off, and it is the
  oracle the tests compare the fast loop against.
* **the table-driven loop** (:meth:`CPU.run`, default): instruction
  words are predecoded into flat ``(op, a, b, c)`` entries in
  :data:`_ENTRIES`, and the loop executes them inline over the CPU's
  state hoisted into locals.  The table is keyed by the raw 32-bit
  word, so a corrupted IR always dispatches through the corrupted word's
  own entry — never a stale one.  Cold words (HALT/WFI/SETMODE, illegal
  opcodes, register fields outside the register file) get a generic
  entry that runs one step of the reference chain, so detection order
  and detail strings are the chain's own.

:meth:`CPU.step` runs one instruction of the same loop; reference
runs, prefix replay, faulted suffixes and batch lanes all go through it.

Access logging
--------------

A recording reference run (def/use liveness, :mod:`repro.faults.liveness`)
also runs on the table-driven loop, with an :class:`AccessLog` attached
as :attr:`CPU.access_log`.  The log keeps only what the offline
derivation needs, in ``array`` buffers: the word of every executed
instruction, and the time, address and direction of every cacheable
data access.  The loop binds three of its locals to the log — the entry
lookup, which reports each word, and the two cache miss calls, which
every cacheable access takes because no line reads as valid — so an
unlogged run pays one ``if`` per :meth:`CPU.run` call and nothing per
instruction.  The register, PSW, MAR and MDR accesses of a word are the
same on every execution that does not detect, so they are captured once
per word, as a *template*: a word's first execution takes the generic
entry, i.e. one step of the reference chain with the log as its
recorder.  Logging thus adds no per-opcode code of its own.
"""

from __future__ import annotations

import enum
import struct
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import MachineError
from repro.thor.cache import DataCache
from repro.thor.edm import (
    DetectionEvent,
    HardwareDetection,
    Mechanism,
    raise_detection,
)
from repro.thor.isa import (
    Instruction,
    NUM_GPRS,
    Opcode,
    PRIVILEGED_OPCODES,
    SP_INDEX,
    decode,
)
from repro.thor.memory import MemoryLayout, MemoryMap, WORD, _parity
from repro.thor.program import Program

# PSW bit positions.
FLAG_Z = 1 << 0
FLAG_N = 1 << 1
FLAG_C = 1 << 2
FLAG_V = 1 << 3
FLAG_M = 1 << 7
PSW_BITS = 10
PSW_MASK = (1 << PSW_BITS) - 1

_INT_MIN = -(1 << 31)
_INT_MAX = (1 << 31) - 1
_U32 = 0xFFFFFFFF
_SIGN = 0x80000000
_TWO32 = 1 << 32

#: Smallest normal single-precision magnitude (results below it, other
#: than exact zero, raise UNDERFLOW CHECK).
_MIN_NORMAL = 2.0 ** -126

_INF = float("inf")

#: Scan-chain element names by register-file index (r0..r7, then sp),
#: used by the access-trace hooks.
_REG_NAMES = tuple(f"r{i}" for i in range(NUM_GPRS)) + ("sp",)

#: PSW bits the flag-setting path overwrites and the branch path reads.
_FLAG_WRITE_MASK = FLAG_Z | FLAG_N | FLAG_C | FLAG_V
_FLAG_READ_MASK = FLAG_Z | FLAG_N | FLAG_V

_STRUCT_I = struct.Struct("<I")
_STRUCT_F = struct.Struct("<f")

#: Register-file image: r0..r7 + sp, pc, psw, ir, mar, mdr, signature,
#: halted flag — one struct keeps :meth:`CPU.register_state_bytes`
#: byte-identical to the per-field serialisation it replaces.
_REG_STATE_STRUCT = struct.Struct("<9IIHIIIi?")

_decode_memo: Dict[int, Optional[Instruction]] = {}


def _decode_cached(word: int) -> Optional[Instruction]:
    try:
        return _decode_memo[word]
    except KeyError:
        instruction = decode(word)
        if len(_decode_memo) < 65536:
            _decode_memo[word] = instruction
        return instruction


class StepResult(enum.Enum):
    """Outcome of one :meth:`CPU.step` call."""

    OK = "ok"
    YIELD = "yield"
    HALTED = "halted"
    DETECTED = "detected"


@dataclass
class TraceEntry:
    """One detail-mode trace record (GOOFI's detail logging)."""

    index: int
    pc: int
    word: int
    mnemonic: str


def _to_signed(value: int) -> int:
    value &= _U32
    return value - (1 << 32) if value & 0x80000000 else value


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits & _U32))[0]


def _float_to_bits(value: float) -> int:
    try:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    except OverflowError:
        # Magnitude beyond float32: becomes infinity on the 32-bit datapath.
        inf = float("inf") if value > 0 else float("-inf")
        return struct.unpack("<I", struct.pack("<f", inf))[0]


class CPU:
    """The simulated processor (one core, data cache, Table 1 EDMs)."""

    #: Class-level default; set ``cpu.fast_dispatch = False`` to force the
    #: original decode-and-branch interpreter (baseline measurements and
    #: the golden-equivalence tests).
    fast_dispatch: bool = True

    def __init__(self, layout: MemoryLayout = MemoryLayout()):
        self.layout = layout
        self.memory = MemoryMap(layout)
        self.cache = DataCache()
        self.regs: List[int] = [0] * (NUM_GPRS + 1)  # r0..r7 + sp
        self.pc = layout.code_base
        self.psw = 0
        self.ir = 0
        self.mar = 0
        self.mdr = 0
        #: Control-flow checking state (part of the non-injectable
        #: state elements, like the ~750 Thor elements outside the
        #: 2250-element sample).
        self.last_signature: Optional[int] = None
        self.signature_successors: Dict[int, frozenset] = {}
        self.instruction_index = 0
        self.detection: Optional[DetectionEvent] = None
        self.halted = False
        self.last_svc: Optional[int] = None
        #: Optional detail-mode hook, called with a TraceEntry per step.
        self.trace_hook = None
        #: Optional access-trace recorder (duck-typed
        #: :class:`repro.faults.liveness.AccessRecorder`, the hooked
        #: oracle of the access log); ``None`` otherwise so the hooks
        #: cost a single identity check.
        self.recorder = None
        #: Optional :class:`AccessLog`, attached during a recording
        #: reference run; ``None`` otherwise.  Never attached together
        #: with :attr:`recorder`: the log's chain steps use that slot.
        self.access_log: Optional[AccessLog] = None

    # -- program loading ------------------------------------------------------
    def load(self, program: Program) -> None:
        """Load a program image and reset execution state."""
        program.check_fits(self.layout)
        self.memory = MemoryMap(self.layout)
        self.cache = DataCache()
        for i, word in enumerate(program.code):
            self.memory.poke(self.layout.code_base + i * WORD, word)
        for address, word in program.data.items():
            self.memory.poke(address, word)
        self.signature_successors = {
            k: frozenset(v) for k, v in program.signature_successors.items()
        }
        self.regs = [0] * (NUM_GPRS + 1)
        self.regs[SP_INDEX] = self.layout.stack_top
        self.psw = 0  # user mode
        self.pc = program.entry
        self.mar = 0
        self.mdr = 0
        self.last_signature = None
        self.instruction_index = 0
        self.detection = None
        self.halted = False
        self.last_svc = None
        # Prefetch the first instruction.
        self.ir = self.memory.fetch_word(self.pc)

    # -- register file ----------------------------------------------------------
    def _read_reg(self, index: int) -> int:
        if index > SP_INDEX:
            raise_detection(Mechanism.INSTRUCTION_ERROR, f"register field {index}")
        if self.recorder is not None:
            self.recorder.reg_read(_REG_NAMES[index])
        return self.regs[index]

    def _write_reg(self, index: int, value: int) -> None:
        if index > SP_INDEX:
            raise_detection(Mechanism.INSTRUCTION_ERROR, f"register field {index}")
        if self.recorder is not None:
            self.recorder.reg_write(_REG_NAMES[index])
        self.regs[index] = value & _U32

    # -- flags -----------------------------------------------------------------
    def _set_flags(self, z: bool, n: bool, c: bool, v: bool) -> None:
        # The flag bits are overwritten regardless of their old values
        # (the other PSW bits pass through untouched), so this records
        # as a masked write.
        if self.recorder is not None:
            self.recorder.reg_write("psw", _FLAG_WRITE_MASK)
        self.psw &= ~(FLAG_Z | FLAG_N | FLAG_C | FLAG_V)
        if z:
            self.psw |= FLAG_Z
        if n:
            self.psw |= FLAG_N
        if c:
            self.psw |= FLAG_C
        if v:
            self.psw |= FLAG_V

    @property
    def supervisor(self) -> bool:
        """True when the mode bit selects supervisor mode."""
        return bool(self.psw & FLAG_M)

    @supervisor.setter
    def supervisor(self, value: bool) -> None:
        if value:
            self.psw |= FLAG_M
        else:
            self.psw &= ~FLAG_M

    # -- float helpers -----------------------------------------------------------
    def _float_operand(self, bits: int) -> float:
        value = _bits_to_float(bits)
        if value != value:  # NaN operand
            raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
        return value

    def _float_result(self, value: float, operands_finite: bool) -> int:
        bits = _float_to_bits(value)
        rounded = _bits_to_float(bits)
        if rounded != rounded:
            raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN result")
        if rounded in (float("inf"), float("-inf")):
            if operands_finite:
                raise_detection(Mechanism.OVERFLOW_CHECK, "float overflow")
        elif value != 0.0 and abs(rounded) < _MIN_NORMAL:
            # The exact result is non-zero but rounds to a denormal or
            # flushes to zero in single precision.
            raise_detection(Mechanism.UNDERFLOW_CHECK, "underflow/denormal result")
        return bits

    def _float_binop(self, instruction: Instruction, op: str) -> None:
        a = self._float_operand(self._read_reg(instruction.rs1))
        b = self._float_operand(self._read_reg(instruction.rs2))
        finite = abs(a) != float("inf") and abs(b) != float("inf")
        if op == "add":
            result = a + b
        elif op == "sub":
            result = a - b
        elif op == "mul":
            result = a * b
        else:  # div
            if b == 0.0:
                raise_detection(Mechanism.DIVISION_CHECK, "float divide by zero")
            result = a / b
        self._write_reg(instruction.rd, self._float_result(result, finite))

    # -- integer helpers ---------------------------------------------------------
    def _int_binop(self, instruction: Instruction, op: str) -> None:
        a = _to_signed(self._read_reg(instruction.rs1))
        b = _to_signed(self._read_reg(instruction.rs2))
        if op == "add":
            result = a + b
        elif op == "sub":
            result = a - b
        elif op == "mul":
            result = a * b
        elif op == "div":
            if b == 0:
                raise_detection(Mechanism.DIVISION_CHECK, "integer divide by zero")
            result = int(a / b)  # truncating division
        elif op == "and":
            result = (a & b) & _U32
        elif op == "or":
            result = (a | b) & _U32
        elif op == "xor":
            result = (a ^ b) & _U32
        elif op == "shl":
            result = (a << (b & 31)) & _U32
        else:  # shr (logical)
            result = (a & _U32) >> (b & 31)
        if op in ("add", "sub", "mul", "div") and not _INT_MIN <= result <= _INT_MAX:
            raise_detection(Mechanism.OVERFLOW_CHECK, f"integer {op} overflow")
        self._write_reg(instruction.rd, result & _U32)

    # -- memory helpers --------------------------------------------------------------
    def _data_read(self, address: int) -> int:
        recorder = self.recorder
        if recorder is not None:
            recorder.reg_write("mar")
            recorder.reg_write("mdr")
        self.mar = address & _U32
        if self.memory.is_cacheable(address):
            if recorder is not None:
                recorder.data_access(address, False)
            value = self.cache.read(address, self.memory)
        else:
            value = self.memory.read_data_word(address)
        self.mdr = value & _U32
        return value

    def _data_write(self, address: int, value: int) -> None:
        recorder = self.recorder
        if recorder is not None:
            recorder.reg_write("mar")
            recorder.reg_write("mdr")
        self.mar = address & _U32
        self.mdr = value & _U32
        if self.memory.is_cacheable(address):
            if recorder is not None:
                recorder.data_access(address, True)
            self.cache.write(address, value, self.memory)
        else:
            self.memory.write_data_word(address, value)

    def _check_stack_pointer(self, sp: int) -> None:
        layout = self.layout
        if sp % WORD or not layout.stack_base <= sp <= layout.stack_top:
            raise_detection(Mechanism.STORAGE_ERROR, f"sp {sp:#x} outside stack")

    def _jump_target(self, target: int) -> int:
        layout = self.layout
        target &= _U32
        if not layout.code_base <= target < layout.code_base + layout.code_size:
            raise_detection(Mechanism.JUMP_ERROR, f"target {target:#x} outside code")
        return target

    # -- the execute loop ------------------------------------------------------------
    def step(self) -> StepResult:
        """Execute one instruction; freeze on detections.

        Returns :data:`StepResult.YIELD` when an ``SVC`` executed (the
        service number is left in :attr:`last_svc`); the environment
        exchange happens outside and execution resumes with the next
        :meth:`step` call.
        """
        return self._run(1)

    def _freeze(self, event: HardwareDetection) -> StepResult:
        """Record a detection at the current pc/instruction index."""
        self.detection = DetectionEvent(
            mechanism=event.mechanism,
            pc=self.pc,
            instruction_index=self.instruction_index,
            detail=event.detail,
        )
        return StepResult.DETECTED

    def _execute(self) -> StepResult:
        """One instruction through the reference chain: decode, check,
        trace, execute, prefetch.  Detections propagate as
        :class:`HardwareDetection`."""
        recorder = self.recorder
        if recorder is not None:
            recorder.now = self.instruction_index
        word = self.ir & _U32
        instruction = _decode_cached(word)
        if instruction is None:
            raise_detection(
                Mechanism.INSTRUCTION_ERROR, f"illegal opcode {word >> 24:#x}"
            )
        assert instruction is not None
        if instruction.opcode in PRIVILEGED_OPCODES:
            if recorder is not None:
                recorder.reg_read("psw", FLAG_M)
            if not self.supervisor:
                raise_detection(
                    Mechanism.INSTRUCTION_ERROR,
                    f"privileged {instruction.opcode.name} in user mode",
                )
        if self.trace_hook is not None:
            self.trace_hook(
                TraceEntry(
                    index=self.instruction_index,
                    pc=self.pc,
                    word=word,
                    mnemonic=instruction.opcode.name,
                )
            )
        result, next_pc = self._execute_chain(word, instruction)
        self.instruction_index += 1
        if result is StepResult.HALTED:
            # A halted CPU performs no further prefetch.
            return result
        self.pc = next_pc
        self.ir = self.memory.fetch_word(self.pc)
        return result

    def _execute_chain(
        self, word: int, instruction: Instruction
    ) -> Tuple[StepResult, int]:
        """Execute one decoded instruction; return ``(result, next pc)``."""
        recorder = self.recorder
        next_pc = (self.pc + WORD) & _U32
        result = StepResult.OK
        op = instruction.opcode

        if op is Opcode.NOP:
            pass
        elif op is Opcode.HALT or op is Opcode.WFI:
            self.halted = True
            result = StepResult.HALTED
        elif op is Opcode.SVC:
            self.last_svc = instruction.imm
            result = StepResult.YIELD
        elif op is Opcode.SIG:
            self._check_signature(instruction.imm)
        elif op is Opcode.SETMODE:
            mode = bool(self._read_reg(instruction.rs1) & 1)
            if recorder is not None:
                recorder.reg_write("psw", FLAG_M)
            self.supervisor = mode
        elif op is Opcode.LDI:
            self._write_reg(instruction.rd, instruction.simm() & _U32)
        elif op is Opcode.LUI:
            self._write_reg(instruction.rd, (instruction.imm << 16) & _U32)
        elif op is Opcode.ORI:
            self._write_reg(
                instruction.rd, self._read_reg(instruction.rd) | instruction.imm
            )
        elif op is Opcode.MOV:
            self._write_reg(instruction.rd, self._read_reg(instruction.rs1))
        elif op is Opcode.LD:
            address = (self._read_reg(instruction.rs1) + instruction.simm()) & _U32
            self._write_reg(instruction.rd, self._data_read(address))
        elif op is Opcode.ST:
            address = (self._read_reg(instruction.rs1) + instruction.simm()) & _U32
            self._data_write(address, self._read_reg(instruction.rd))
        elif op is Opcode.PUSH:
            # Stack ops read SP before rewriting it with a derived value;
            # the read alone determines liveness, so it is all we record.
            if recorder is not None:
                recorder.reg_read("sp")
            sp = (self.regs[SP_INDEX] - WORD) & _U32
            self._check_stack_pointer(sp)
            self._data_write(sp, self._read_reg(instruction.rd))
            self.regs[SP_INDEX] = sp
        elif op is Opcode.POP:
            if recorder is not None:
                recorder.reg_read("sp")
            sp = self.regs[SP_INDEX]
            self._check_stack_pointer(sp)
            if sp >= self.layout.stack_top:
                raise_detection(Mechanism.STORAGE_ERROR, "pop from empty stack")
            self._write_reg(instruction.rd, self._data_read(sp))
            self.regs[SP_INDEX] = (sp + WORD) & _U32
        elif op is Opcode.ADD:
            self._int_binop(instruction, "add")
        elif op is Opcode.SUB:
            self._int_binop(instruction, "sub")
        elif op is Opcode.MUL:
            self._int_binop(instruction, "mul")
        elif op is Opcode.DIV:
            self._int_binop(instruction, "div")
        elif op is Opcode.AND:
            self._int_binop(instruction, "and")
        elif op is Opcode.OR:
            self._int_binop(instruction, "or")
        elif op is Opcode.XOR:
            self._int_binop(instruction, "xor")
        elif op is Opcode.SHL:
            self._int_binop(instruction, "shl")
        elif op is Opcode.SHR:
            self._int_binop(instruction, "shr")
        elif op is Opcode.ADDI:
            result_value = _to_signed(self._read_reg(instruction.rs1)) + instruction.simm()
            if not _INT_MIN <= result_value <= _INT_MAX:
                raise_detection(Mechanism.OVERFLOW_CHECK, "integer add overflow")
            self._write_reg(instruction.rd, result_value & _U32)
        elif op is Opcode.CMP:
            a = _to_signed(self._read_reg(instruction.rs1))
            b = _to_signed(self._read_reg(instruction.rs2))
            self._set_flags(z=a == b, n=a < b, c=(a & _U32) < (b & _U32), v=False)
        elif op is Opcode.FADD:
            self._float_binop(instruction, "add")
        elif op is Opcode.FSUB:
            self._float_binop(instruction, "sub")
        elif op is Opcode.FMUL:
            self._float_binop(instruction, "mul")
        elif op is Opcode.FDIV:
            self._float_binop(instruction, "div")
        elif op is Opcode.FCMP:
            a = _bits_to_float(self._read_reg(instruction.rs1))
            b = _bits_to_float(self._read_reg(instruction.rs2))
            unordered = a != a or b != b
            self._set_flags(
                z=(not unordered and a == b),
                n=(not unordered and a < b),
                c=False,
                v=unordered,
            )
        elif op is Opcode.ITOF:
            value = float(_to_signed(self._read_reg(instruction.rs1)))
            self._write_reg(instruction.rd, self._float_result(value, True))
        elif op is Opcode.FTOI:
            value = self._float_operand(self._read_reg(instruction.rs1))
            if not _INT_MIN <= value <= _INT_MAX:
                raise_detection(Mechanism.OVERFLOW_CHECK, "float to int overflow")
            self._write_reg(instruction.rd, int(value) & _U32)
        elif op is Opcode.FNEG:
            bits = self._read_reg(instruction.rs1)
            self._write_reg(instruction.rd, bits ^ 0x80000000)
        elif op in _BRANCHES:
            if self._branch_taken(op):
                next_pc = self._jump_target(self.pc + WORD * instruction.simm())
        elif op is Opcode.CALL:
            if recorder is not None:
                recorder.reg_read("sp")
            sp = (self.regs[SP_INDEX] - WORD) & _U32
            self._check_stack_pointer(sp)
            self._data_write(sp, (self.pc + WORD) & _U32)
            self.regs[SP_INDEX] = sp
            next_pc = self._jump_target(self.pc + WORD * instruction.simm())
        elif op is Opcode.RET:
            if recorder is not None:
                recorder.reg_read("sp")
            sp = self.regs[SP_INDEX]
            self._check_stack_pointer(sp)
            if sp >= self.layout.stack_top:
                raise_detection(Mechanism.STORAGE_ERROR, "return with empty stack")
            target = self._data_read(sp)
            self.regs[SP_INDEX] = (sp + WORD) & _U32
            next_pc = self._jump_target(target)
        elif op is Opcode.JR:
            next_pc = self._jump_target(self._read_reg(instruction.rs1))
        elif op is Opcode.CHK:
            self._constraint_check(instruction)
        else:  # pragma: no cover - every opcode is handled above
            raise MachineError(f"unhandled opcode {op!r}")

        return result, next_pc

    def _branch_taken(self, op: Opcode) -> bool:
        if self.recorder is not None:
            self.recorder.reg_read("psw", _FLAG_READ_MASK)
        z = bool(self.psw & FLAG_Z)
        n = bool(self.psw & FLAG_N)
        v = bool(self.psw & FLAG_V)
        if op is Opcode.BR:
            return True
        if op is Opcode.BEQ:
            return z
        if op is Opcode.BNE:
            return not z
        if op is Opcode.BLT:
            return n
        if op is Opcode.BGE:
            return not n and not v
        if op is Opcode.BGT:
            return not z and not n and not v
        if op is Opcode.BLE:
            return z or n
        return v  # BVS

    def _check_signature(self, signature: int) -> None:
        if not self.signature_successors:
            self.last_signature = signature
            return
        if self.last_signature is not None:
            allowed = self.signature_successors.get(self.last_signature, frozenset())
            if signature not in allowed:
                raise_detection(
                    Mechanism.CONTROL_FLOW_ERROR,
                    f"signature {self.last_signature} -> {signature}",
                )
        self.last_signature = signature

    def _constraint_check(self, instruction: Instruction) -> None:
        low = _bits_to_float(self._read_reg(instruction.rd))
        value = _bits_to_float(self._read_reg(instruction.rs1))
        high = _bits_to_float(self._read_reg(instruction.rs2))
        if not low <= value <= high:
            raise_detection(
                Mechanism.CONSTRAINT_ERROR,
                f"{value!r} outside [{low!r}, {high!r}]",
            )

    # -- convenience runners -----------------------------------------------------
    def run(self, max_instructions: int) -> StepResult:
        """Step until yield/halt/detection or the instruction budget ends."""
        return self._run(max_instructions)

    def _run(self, max_instructions: int) -> StepResult:
        """:meth:`run`'s body: the reference chain when tracing, the
        table-driven loop otherwise.  :meth:`step` and fault-free prefix
        replay enter here directly, so a profiler wrapping :meth:`run`
        times reference runs and faulted suffixes only."""
        if self.detection is not None:
            return StepResult.DETECTED
        if self.halted:
            return StepResult.HALTED
        self.last_svc = None
        log = self.access_log
        execute = self._execute if log is None else partial(log.step, self)
        if (
            self.recorder is not None
            or self.trace_hook is not None
            or not self.fast_dispatch
        ):
            try:
                for _ in range(max_instructions):
                    result = execute()
                    if result is not StepResult.OK:
                        return result
            except HardwareDetection as event:
                return self._freeze(event)
            return StepResult.OK

        # Table-driven loop.  Machine state is hoisted into locals for
        # the duration of the call: ``regs`` and the cache line lists are
        # mutated in place, so they need no write-back; scalars are
        # synced at every exit below.  Nothing inside the loop leaves a
        # recorder or trace hook attached (a logging run's chain steps
        # attach the log for their own instruction only), so the check
        # above holds throughout.
        # Prefetches go through a temporary (``word``): a fetch that
        # detects leaves ``ir`` holding the executed word, as the
        # reference chain does.
        regs = self.regs
        pc = self.pc
        psw = self.psw
        ir = self.ir & _U32
        mar = self.mar
        mdr = self.mdr
        last_sig = self.last_signature
        index = self.instruction_index
        successors = self.signature_successors

        memory = self.memory
        cache = self.cache
        layout = self.layout
        cache_valid = cache.valid
        cache_tags = cache.tags
        cache_data = cache.data
        cache_dirty = cache.dirty
        miss_read = _miss_read
        miss_write = _miss_write
        read_word = memory.read_data_word
        write_word = memory.write_data_word
        fetch = memory.fetch_word_cached
        fc_get = memory.fetch_cache.get
        hits = 0

        code_base = layout.code_base
        code_end = code_base + layout.code_size
        rodata_base = layout.rodata_base
        rodata_end = rodata_base + layout.rodata_size
        data_base = layout.data_base
        data_end = data_base + layout.data_size
        stack_base = layout.stack_base
        stack_top = layout.stack_top

        entries_get = _ENTRIES.get
        build = _entry
        unpack_f = _STRUCT_F.unpack
        pack_i = _STRUCT_I.pack
        if log is not None:
            # Logging (see "Access logging" above): the log's entry
            # lookup reports every word, and with no line reading as
            # valid every cacheable access takes the log's miss calls.
            entries_get = log.entry
            cache_valid = _NO_VALID_LINES
            miss_read = log.read
            miss_write = log.write

        try:
            for _ in range(max_instructions):
                entry = entries_get(ir)
                if entry is None:
                    entry = build(ir)
                op = entry[0]
                if op == _OP_LD:
                    address = (regs[entry[2]] + entry[3]) & _U32
                    mar = address
                    if (
                        data_base <= address < data_end
                        or stack_base <= address < stack_top
                        or rodata_base <= address < rodata_end
                    ):
                        line = (address >> 2) & 31
                        tag = (address >> 7) & 0x7FFFFF
                        if cache_valid[line] and cache_tags[line] == tag:
                            hits += 1
                            value = cache_data[line]
                        else:
                            value = miss_read(cache, memory, address, line, tag)
                    else:
                        value = read_word(address)
                    mdr = value
                    regs[entry[1]] = value
                elif op == _OP_ST:
                    address = (regs[entry[2]] + entry[3]) & _U32
                    value = regs[entry[1]]
                    mar = address
                    mdr = value
                    if (
                        data_base <= address < data_end
                        or stack_base <= address < stack_top
                        or rodata_base <= address < rodata_end
                    ):
                        line = (address >> 2) & 31
                        tag = (address >> 7) & 0x7FFFFF
                        if cache_valid[line] and cache_tags[line] == tag:
                            hits += 1
                            cache_data[line] = value
                            cache_dirty[line] = 1
                        else:
                            miss_write(cache, memory, address, value, line, tag)
                    else:
                        write_word(address, value)
                elif op == _OP_ADDI:
                    a = regs[entry[2]]
                    if a & _SIGN:
                        a -= _TWO32
                    result = a + entry[3]
                    if result > _INT_MAX or result < _INT_MIN:
                        raise_detection(
                            Mechanism.OVERFLOW_CHECK, "integer add overflow"
                        )
                    regs[entry[1]] = result & _U32
                elif op == _OP_CMP:
                    au = regs[entry[1]]
                    bu = regs[entry[2]]
                    a = au - _TWO32 if au & _SIGN else au
                    b = bu - _TWO32 if bu & _SIGN else bu
                    psw &= ~_FLAG_WRITE_MASK
                    if a == b:
                        psw |= FLAG_Z
                    if a < b:
                        psw |= FLAG_N
                    if au < bu:
                        psw |= FLAG_C
                elif op == _OP_BSET:
                    if psw & entry[1]:
                        target = (pc + entry[2]) & _U32
                        if not code_base <= target < code_end:
                            raise_detection(
                                Mechanism.JUMP_ERROR,
                                f"target {target:#x} outside code",
                            )
                        index += 1
                        pc = target
                        word = fc_get(pc, -1)
                        if word < 0:
                            word = fetch(pc)
                        ir = word
                        continue
                elif op == _OP_BCLR:
                    if not psw & entry[1]:
                        target = (pc + entry[2]) & _U32
                        if not code_base <= target < code_end:
                            raise_detection(
                                Mechanism.JUMP_ERROR,
                                f"target {target:#x} outside code",
                            )
                        index += 1
                        pc = target
                        word = fc_get(pc, -1)
                        if word < 0:
                            word = fetch(pc)
                        ir = word
                        continue
                elif op == _OP_FMUL or op == _OP_FADD or op == _OP_FSUB:
                    a = unpack_f(pack_i(regs[entry[2]]))[0]
                    if a != a:
                        raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
                    b = unpack_f(pack_i(regs[entry[3]]))[0]
                    if b != b:
                        raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
                    if op == _OP_FMUL:
                        value = a * b
                    elif op == _OP_FADD:
                        value = a + b
                    else:
                        value = a - b
                    regs[entry[1]] = _float_result_bits(
                        value, abs(a) != _INF and abs(b) != _INF
                    )
                elif op == _OP_MOV:
                    regs[entry[1]] = regs[entry[2]]
                elif op == _OP_BR:
                    target = (pc + entry[1]) & _U32
                    if not code_base <= target < code_end:
                        raise_detection(
                            Mechanism.JUMP_ERROR, f"target {target:#x} outside code"
                        )
                    index += 1
                    pc = target
                    word = fc_get(pc, -1)
                    if word < 0:
                        word = fetch(pc)
                    ir = word
                    continue
                elif op == _OP_SIG:
                    sig = entry[1]
                    if not successors:
                        last_sig = sig
                    else:
                        if last_sig is not None:
                            allowed = successors.get(last_sig)
                            if allowed is None or sig not in allowed:
                                raise_detection(
                                    Mechanism.CONTROL_FLOW_ERROR,
                                    f"signature {last_sig} -> {sig}",
                                )
                        last_sig = sig
                elif op == _OP_ADD or op == _OP_SUB:
                    a = regs[entry[2]]
                    if a & _SIGN:
                        a -= _TWO32
                    b = regs[entry[3]]
                    if b & _SIGN:
                        b -= _TWO32
                    result = a + b if op == _OP_ADD else a - b
                    if result > _INT_MAX or result < _INT_MIN:
                        raise_detection(
                            Mechanism.OVERFLOW_CHECK,
                            "integer add overflow"
                            if op == _OP_ADD
                            else "integer sub overflow",
                        )
                    regs[entry[1]] = result & _U32
                elif op == _OP_FDIV:
                    a = unpack_f(pack_i(regs[entry[2]]))[0]
                    if a != a:
                        raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
                    b = unpack_f(pack_i(regs[entry[3]]))[0]
                    if b != b:
                        raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
                    finite = abs(a) != _INF and abs(b) != _INF
                    if b == 0.0:
                        raise_detection(
                            Mechanism.DIVISION_CHECK, "float divide by zero"
                        )
                    regs[entry[1]] = _float_result_bits(a / b, finite)
                elif op == _OP_FCMP:
                    a = unpack_f(pack_i(regs[entry[1]]))[0]
                    b = unpack_f(pack_i(regs[entry[2]]))[0]
                    psw &= ~_FLAG_WRITE_MASK
                    if a != a or b != b:
                        psw |= FLAG_V
                    else:
                        if a == b:
                            psw |= FLAG_Z
                        if a < b:
                            psw |= FLAG_N
                elif op == _OP_PUSH:
                    sp = (regs[_SP] - WORD) & _U32
                    if sp % WORD or not stack_base <= sp <= stack_top:
                        raise_detection(
                            Mechanism.STORAGE_ERROR, f"sp {sp:#x} outside stack"
                        )
                    value = regs[entry[1]]
                    mar = sp
                    mdr = value
                    if (
                        data_base <= sp < data_end
                        or stack_base <= sp < stack_top
                        or rodata_base <= sp < rodata_end
                    ):
                        line = (sp >> 2) & 31
                        tag = (sp >> 7) & 0x7FFFFF
                        if cache_valid[line] and cache_tags[line] == tag:
                            hits += 1
                            cache_data[line] = value
                            cache_dirty[line] = 1
                        else:
                            miss_write(cache, memory, sp, value, line, tag)
                    else:
                        write_word(sp, value)
                    regs[_SP] = sp
                elif op == _OP_POP:
                    sp = regs[_SP]
                    if sp % WORD or not stack_base <= sp <= stack_top:
                        raise_detection(
                            Mechanism.STORAGE_ERROR, f"sp {sp:#x} outside stack"
                        )
                    if sp >= stack_top:
                        raise_detection(
                            Mechanism.STORAGE_ERROR, "pop from empty stack"
                        )
                    mar = sp
                    line = (sp >> 2) & 31
                    tag = (sp >> 7) & 0x7FFFFF
                    if cache_valid[line] and cache_tags[line] == tag:
                        hits += 1
                        value = cache_data[line]
                    else:
                        value = miss_read(cache, memory, sp, line, tag)
                    mdr = value
                    regs[entry[1]] = value
                    regs[_SP] = (sp + WORD) & _U32
                elif op == _OP_CALL:
                    sp = (regs[_SP] - WORD) & _U32
                    if sp % WORD or not stack_base <= sp <= stack_top:
                        raise_detection(
                            Mechanism.STORAGE_ERROR, f"sp {sp:#x} outside stack"
                        )
                    value = (pc + WORD) & _U32
                    mar = sp
                    mdr = value
                    if (
                        data_base <= sp < data_end
                        or stack_base <= sp < stack_top
                        or rodata_base <= sp < rodata_end
                    ):
                        line = (sp >> 2) & 31
                        tag = (sp >> 7) & 0x7FFFFF
                        if cache_valid[line] and cache_tags[line] == tag:
                            hits += 1
                            cache_data[line] = value
                            cache_dirty[line] = 1
                        else:
                            miss_write(cache, memory, sp, value, line, tag)
                    else:
                        write_word(sp, value)
                    regs[_SP] = sp
                    target = (pc + entry[1]) & _U32
                    if not code_base <= target < code_end:
                        raise_detection(
                            Mechanism.JUMP_ERROR, f"target {target:#x} outside code"
                        )
                    index += 1
                    pc = target
                    word = fc_get(pc, -1)
                    if word < 0:
                        word = fetch(pc)
                    ir = word
                    continue
                elif op == _OP_RET:
                    sp = regs[_SP]
                    if sp % WORD or not stack_base <= sp <= stack_top:
                        raise_detection(
                            Mechanism.STORAGE_ERROR, f"sp {sp:#x} outside stack"
                        )
                    if sp >= stack_top:
                        raise_detection(
                            Mechanism.STORAGE_ERROR, "return with empty stack"
                        )
                    mar = sp
                    line = (sp >> 2) & 31
                    tag = (sp >> 7) & 0x7FFFFF
                    if cache_valid[line] and cache_tags[line] == tag:
                        hits += 1
                        target = cache_data[line]
                    else:
                        target = miss_read(cache, memory, sp, line, tag)
                    mdr = target
                    regs[_SP] = (sp + WORD) & _U32
                    if not code_base <= target < code_end:
                        raise_detection(
                            Mechanism.JUMP_ERROR, f"target {target:#x} outside code"
                        )
                    index += 1
                    pc = target
                    word = fc_get(pc, -1)
                    if word < 0:
                        word = fetch(pc)
                    ir = word
                    continue
                elif op == _OP_LDI or op == _OP_LUI:
                    regs[entry[1]] = entry[2]
                elif op == _OP_ORI:
                    regs[entry[1]] |= entry[2]
                elif op == _OP_MUL:
                    a = regs[entry[2]]
                    if a & _SIGN:
                        a -= _TWO32
                    b = regs[entry[3]]
                    if b & _SIGN:
                        b -= _TWO32
                    result = a * b
                    if result > _INT_MAX or result < _INT_MIN:
                        raise_detection(
                            Mechanism.OVERFLOW_CHECK, "integer mul overflow"
                        )
                    regs[entry[1]] = result & _U32
                elif op == _OP_DIV:
                    a = regs[entry[2]]
                    if a & _SIGN:
                        a -= _TWO32
                    b = regs[entry[3]]
                    if b & _SIGN:
                        b -= _TWO32
                    if b == 0:
                        raise_detection(
                            Mechanism.DIVISION_CHECK, "integer divide by zero"
                        )
                    result = int(a / b)  # truncating division
                    if result > _INT_MAX or result < _INT_MIN:
                        raise_detection(
                            Mechanism.OVERFLOW_CHECK, "integer div overflow"
                        )
                    regs[entry[1]] = result & _U32
                elif op == _OP_AND:
                    regs[entry[1]] = regs[entry[2]] & regs[entry[3]]
                elif op == _OP_OR:
                    regs[entry[1]] = regs[entry[2]] | regs[entry[3]]
                elif op == _OP_XOR:
                    regs[entry[1]] = regs[entry[2]] ^ regs[entry[3]]
                elif op == _OP_SHL:
                    regs[entry[1]] = (
                        regs[entry[2]] << (regs[entry[3]] & 31)
                    ) & _U32
                elif op == _OP_SHR:
                    regs[entry[1]] = regs[entry[2]] >> (regs[entry[3]] & 31)
                elif op == _OP_ITOF:
                    a = regs[entry[2]]
                    if a & _SIGN:
                        a -= _TWO32
                    regs[entry[1]] = _float_result_bits(float(a), True)
                elif op == _OP_FTOI:
                    value = unpack_f(pack_i(regs[entry[2]]))[0]
                    if value != value:
                        raise_detection(Mechanism.ILLEGAL_OPERATION, "NaN operand")
                    if not _INT_MIN <= value <= _INT_MAX:
                        raise_detection(
                            Mechanism.OVERFLOW_CHECK, "float to int overflow"
                        )
                    regs[entry[1]] = int(value) & _U32
                elif op == _OP_FNEG:
                    regs[entry[1]] = regs[entry[2]] ^ 0x80000000
                elif op == _OP_CHK:
                    low = unpack_f(pack_i(regs[entry[1]]))[0]
                    value = unpack_f(pack_i(regs[entry[2]]))[0]
                    high = unpack_f(pack_i(regs[entry[3]]))[0]
                    if not low <= value <= high:
                        raise_detection(
                            Mechanism.CONSTRAINT_ERROR,
                            f"{value!r} outside [{low!r}, {high!r}]",
                        )
                elif op == _OP_JR:
                    target = regs[entry[1]]
                    if not code_base <= target < code_end:
                        raise_detection(
                            Mechanism.JUMP_ERROR, f"target {target:#x} outside code"
                        )
                    index += 1
                    pc = target
                    word = fc_get(pc, -1)
                    if word < 0:
                        word = fetch(pc)
                    ir = word
                    continue
                elif op == _OP_SVC:
                    self.last_svc = entry[1]
                    index += 1
                    pc = (pc + WORD) & _U32
                    word = fc_get(pc, -1)
                    if word < 0:
                        word = fetch(pc)
                    ir = word
                    self.pc = pc
                    self.psw = psw
                    self.ir = ir
                    self.mar = mar
                    self.mdr = mdr
                    self.last_signature = last_sig
                    self.instruction_index = index
                    cache.hits += hits
                    return StepResult.YIELD
                elif op == _OP_NOP:
                    pass
                else:  # _OP_GENERIC: one step of the reference chain.
                    self.pc = pc
                    self.psw = psw
                    self.ir = ir
                    self.mar = mar
                    self.mdr = mdr
                    self.last_signature = last_sig
                    self.instruction_index = index
                    try:
                        result = execute()
                    finally:
                        pc = self.pc
                        psw = self.psw
                        ir = self.ir
                        mar = self.mar
                        mdr = self.mdr
                        last_sig = self.last_signature
                        index = self.instruction_index
                    if result is not StepResult.OK:
                        cache.hits += hits
                        return result
                    continue
                index += 1
                pc = (pc + WORD) & _U32
                word = fc_get(pc, -1)
                if word < 0:
                    word = fetch(pc)
                ir = word
        except HardwareDetection as event:
            self.pc = pc
            self.psw = psw
            self.ir = ir
            self.mar = mar
            self.mdr = mdr
            self.last_signature = last_sig
            self.instruction_index = index
            cache.hits += hits
            return self._freeze(event)
        self.pc = pc
        self.psw = psw
        self.ir = ir
        self.mar = mar
        self.mdr = mdr
        self.last_signature = last_sig
        self.instruction_index = index
        cache.hits += hits
        return StepResult.OK

    # -- state access -------------------------------------------------------------
    def register_state_bytes(self) -> bytes:
        """Registers + PSW + latches, for run-state hashing."""
        sig = -1 if self.last_signature is None else self.last_signature
        return _REG_STATE_STRUCT.pack(
            *self.regs,
            self.pc,
            self.psw & PSW_MASK,
            self.ir,
            self.mar,
            self.mdr,
            sig,
            self.halted,
        )

    def state_bytes(self) -> bytes:
        """Full target-system state (CPU + cache + memory)."""
        return (
            self.register_state_bytes()
            + self.cache.state_bytes()
            + self.memory.state_bytes()
        )

    def snapshot(self) -> Dict[str, object]:
        """A restorable copy of the full target-system state."""
        return {
            "regs": list(self.regs),
            "pc": self.pc,
            "psw": self.psw,
            "ir": self.ir,
            "mar": self.mar,
            "mdr": self.mdr,
            "last_signature": self.last_signature,
            "instruction_index": self.instruction_index,
            "halted": self.halted,
            "cache": self.cache.snapshot(),
            "memory": self.memory.snapshot(),
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        self.regs[:] = snapshot["regs"]  # type: ignore[arg-type]
        self.pc = snapshot["pc"]  # type: ignore[assignment]
        self.psw = snapshot["psw"]  # type: ignore[assignment]
        self.ir = snapshot["ir"]  # type: ignore[assignment]
        self.mar = snapshot["mar"]  # type: ignore[assignment]
        self.mdr = snapshot["mdr"]  # type: ignore[assignment]
        self.last_signature = snapshot["last_signature"]  # type: ignore[assignment]
        self.instruction_index = snapshot["instruction_index"]  # type: ignore[assignment]
        self.halted = snapshot["halted"]  # type: ignore[assignment]
        self.detection = None
        self.cache.restore(snapshot["cache"])  # type: ignore[arg-type]
        self.memory.restore(snapshot["memory"])  # type: ignore[arg-type]


_BRANCHES = frozenset(
    {
        Opcode.BR,
        Opcode.BEQ,
        Opcode.BNE,
        Opcode.BLT,
        Opcode.BGE,
        Opcode.BGT,
        Opcode.BLE,
        Opcode.BVS,
    }
)

# ---------------------------------------------------------------------------
# The dispatch table.
#
# :meth:`CPU.run` predecodes instruction words into flat ``(op, a, b, c)``
# tuples in a table shared by every CPU in the process (the code image
# and decode results are immutable; only machine state differs between
# CPUs, e.g. the lanes of a fault-injection batch).  The loop executes
# the hot opcodes inline with the CPU's state hoisted into locals: an LD
# hit is three range compares and two list reads.  Cold words (HALT /
# WFI / SETMODE, illegal opcodes, register fields outside the register
# file) get a generic entry that runs one step of the reference chain,
# and cache misses go through the flattened miss paths below, so
# observable behaviour — results, flags, detection mechanisms, messages,
# ordering, counters — is identical to the reference chain instruction
# for instruction.
# ---------------------------------------------------------------------------

_SP = SP_INDEX

#: Entry op ids, ordered by expected dynamic frequency (the dispatch
#: chain in :meth:`CPU.run` tests them in this order).
_OP_GENERIC = 0
_OP_LD = 1
_OP_ST = 2
_OP_ADDI = 3
_OP_CMP = 4
_OP_BSET = 5
_OP_BCLR = 6
_OP_FMUL = 7
_OP_FADD = 8
_OP_MOV = 9
_OP_BR = 10
_OP_SIG = 11
_OP_ADD = 12
_OP_SUB = 13
_OP_FSUB = 14
_OP_FDIV = 15
_OP_FCMP = 16
_OP_PUSH = 17
_OP_POP = 18
_OP_CALL = 19
_OP_RET = 20
_OP_LDI = 21
_OP_LUI = 22
_OP_ORI = 23
_OP_MUL = 24
_OP_DIV = 25
_OP_AND = 26
_OP_OR = 27
_OP_XOR = 28
_OP_SHL = 29
_OP_SHR = 30
_OP_ITOF = 31
_OP_FTOI = 32
_OP_FNEG = 33
_OP_CHK = 34
_OP_JR = 35
_OP_SVC = 36
_OP_NOP = 37

#: One predecoded entry: ``(op, a, b, c)`` with op-specific operand
#: meaning.
_Entry = Tuple[int, int, int, int]

_ENTRIES: Dict[int, _Entry] = {}
_ENTRIES_CAP = 65536

_GENERIC_ENTRY: _Entry = (_OP_GENERIC, 0, 0, 0)


def _e3(op: int):
    """Entry factory for three-register-field opcodes."""

    def build(i: Instruction) -> _Entry:
        return (op, i.rd, i.rs1, i.rs2)

    return build


def _e_bset(mask: int):
    """Branch taken when ``psw & mask`` is non-zero."""

    def build(i: Instruction) -> _Entry:
        return (_OP_BSET, mask, WORD * i.simm(), 0)

    return build


def _e_bclr(mask: int):
    """Branch taken when every bit of ``mask`` is clear in the PSW."""

    def build(i: Instruction) -> _Entry:
        return (_OP_BCLR, mask, WORD * i.simm(), 0)

    return build


_ENTRY_FACTORIES: Dict[Opcode, Callable[[Instruction], _Entry]] = {
    Opcode.NOP: lambda i: (_OP_NOP, 0, 0, 0),
    Opcode.SVC: lambda i: (_OP_SVC, i.imm, 0, 0),
    Opcode.SIG: lambda i: (_OP_SIG, i.imm, 0, 0),
    Opcode.LDI: lambda i: (_OP_LDI, i.rd, i.simm() & _U32, 0),
    Opcode.LUI: lambda i: (_OP_LUI, i.rd, (i.imm << 16) & _U32, 0),
    Opcode.ORI: lambda i: (_OP_ORI, i.rd, i.imm, 0),
    Opcode.MOV: lambda i: (_OP_MOV, i.rd, i.rs1, 0),
    Opcode.LD: lambda i: (_OP_LD, i.rd, i.rs1, i.simm()),
    Opcode.ST: lambda i: (_OP_ST, i.rd, i.rs1, i.simm()),
    Opcode.PUSH: lambda i: (_OP_PUSH, i.rd, 0, 0),
    Opcode.POP: lambda i: (_OP_POP, i.rd, 0, 0),
    Opcode.ADD: _e3(_OP_ADD),
    Opcode.SUB: _e3(_OP_SUB),
    Opcode.MUL: _e3(_OP_MUL),
    Opcode.DIV: _e3(_OP_DIV),
    Opcode.AND: _e3(_OP_AND),
    Opcode.OR: _e3(_OP_OR),
    Opcode.XOR: _e3(_OP_XOR),
    Opcode.SHL: _e3(_OP_SHL),
    Opcode.SHR: _e3(_OP_SHR),
    Opcode.ADDI: lambda i: (_OP_ADDI, i.rd, i.rs1, i.simm()),
    Opcode.CMP: lambda i: (_OP_CMP, i.rs1, i.rs2, 0),
    Opcode.FADD: _e3(_OP_FADD),
    Opcode.FSUB: _e3(_OP_FSUB),
    Opcode.FMUL: _e3(_OP_FMUL),
    Opcode.FDIV: _e3(_OP_FDIV),
    Opcode.FCMP: lambda i: (_OP_FCMP, i.rs1, i.rs2, 0),
    Opcode.ITOF: lambda i: (_OP_ITOF, i.rd, i.rs1, 0),
    Opcode.FTOI: lambda i: (_OP_FTOI, i.rd, i.rs1, 0),
    Opcode.FNEG: lambda i: (_OP_FNEG, i.rd, i.rs1, 0),
    Opcode.BR: lambda i: (_OP_BR, WORD * i.simm(), 0, 0),
    Opcode.BEQ: _e_bset(FLAG_Z),
    Opcode.BNE: _e_bclr(FLAG_Z),
    Opcode.BLT: _e_bset(FLAG_N),
    Opcode.BGE: _e_bclr(FLAG_N | FLAG_V),
    Opcode.BGT: _e_bclr(FLAG_Z | FLAG_N | FLAG_V),
    Opcode.BLE: _e_bset(FLAG_Z | FLAG_N),
    Opcode.BVS: _e_bset(FLAG_V),
    Opcode.CALL: lambda i: (_OP_CALL, WORD * i.simm(), 0, 0),
    Opcode.RET: lambda i: (_OP_RET, 0, 0, 0),
    Opcode.JR: lambda i: (_OP_JR, i.rs1, 0, 0),
    Opcode.CHK: _e3(_OP_CHK),
    # HALT / WFI / SETMODE run once per experiment at most; they take
    # the generic entry.
}

#: Register fields each opcode actually consumes.  A word whose used
#: fields fall outside the register file (only reachable through faults)
#: takes the generic entry, keeping the reference chain's exact
#: detection ordering.
_FIELDS_USED: Dict[Opcode, Tuple[str, ...]] = {
    Opcode.LDI: ("rd",),
    Opcode.LUI: ("rd",),
    Opcode.ORI: ("rd",),
    Opcode.MOV: ("rd", "rs1"),
    Opcode.LD: ("rd", "rs1"),
    Opcode.ST: ("rd", "rs1"),
    Opcode.PUSH: ("rd",),
    Opcode.POP: ("rd",),
    Opcode.ADD: ("rd", "rs1", "rs2"),
    Opcode.SUB: ("rd", "rs1", "rs2"),
    Opcode.MUL: ("rd", "rs1", "rs2"),
    Opcode.DIV: ("rd", "rs1", "rs2"),
    Opcode.AND: ("rd", "rs1", "rs2"),
    Opcode.OR: ("rd", "rs1", "rs2"),
    Opcode.XOR: ("rd", "rs1", "rs2"),
    Opcode.SHL: ("rd", "rs1", "rs2"),
    Opcode.SHR: ("rd", "rs1", "rs2"),
    Opcode.ADDI: ("rd", "rs1"),
    Opcode.CMP: ("rs1", "rs2"),
    Opcode.FADD: ("rd", "rs1", "rs2"),
    Opcode.FSUB: ("rd", "rs1", "rs2"),
    Opcode.FMUL: ("rd", "rs1", "rs2"),
    Opcode.FDIV: ("rd", "rs1", "rs2"),
    Opcode.FCMP: ("rs1", "rs2"),
    Opcode.ITOF: ("rd", "rs1"),
    Opcode.FTOI: ("rd", "rs1"),
    Opcode.FNEG: ("rd", "rs1"),
    Opcode.JR: ("rs1",),
    Opcode.CHK: ("rd", "rs1", "rs2"),
}


def _entry(word: int) -> _Entry:
    """Predecode ``word`` into the process-wide table: an inline entry,
    or the generic entry for words the inline arms cannot express
    exactly."""
    instruction = _decode_cached(word)
    entry = _GENERIC_ENTRY
    if instruction is not None:
        factory = _ENTRY_FACTORIES.get(instruction.opcode)
        if factory is not None and all(
            getattr(instruction, name) <= SP_INDEX
            for name in _FIELDS_USED.get(instruction.opcode, ())
        ):
            entry = factory(instruction)
    if len(_ENTRIES) < _ENTRIES_CAP:
        _ENTRIES[word] = entry
    return entry


def _float_result_bits(value: float, operands_finite: bool) -> int:
    try:
        packed = _STRUCT_F.pack(value)
    except OverflowError:
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


def _miss_read(cache, memory, address: int, line: int, tag: int) -> int:
    """:meth:`DataCache.read`'s miss path for a known-cacheable address
    with no recorder attached, with the delegated chain's region scans
    and per-call rechecks flattened out.  Mutation order matches the
    original exactly — including what is (and is not) updated when the
    victim write-back or the refill read raises a detection."""
    cache.misses += 1
    valid = cache.valid
    dirty = cache.dirty
    if valid[line] and dirty[line]:
        victim = (cache.tags[line] << 7) | (line << 2)
        cache.writebacks += 1
        layout = memory.layout
        if layout.data_base <= victim < layout.data_base + layout.data_size:
            ram = memory.data
        elif layout.stack_base <= victim < layout.stack_base + layout.stack_size:
            ram = memory.stack
        else:
            ram = None
        if ram is None:
            # Corrupted tags send write-backs anywhere: keep the fully
            # checked path (protected regions, MMIO, unmapped space).
            memory.write_data_word(victim, int(cache.data[line]))
        else:
            i = (victim - ram.base) >> 2
            value = cache.data[line] & _U32
            undo = ram.undo
            if undo is not None and i not in undo:
                undo[i] = (ram.words[i], ram.parity[i])
            ram.words[i] = value
            ram.parity[i] = _parity(value)
            ram.version += 1
    valid[line] = 0
    dirty[line] = 0
    if address % WORD:
        raise_detection(Mechanism.ADDRESS_ERROR, f"unaligned {address:#x}")
    layout = memory.layout
    if layout.data_base <= address < layout.data_base + layout.data_size:
        ram = memory.data
    elif layout.stack_base <= address < layout.stack_base + layout.stack_size:
        ram = memory.stack
    else:
        ram = memory.rodata
    i = (address - ram.base) >> 2
    value = ram.words[i]
    if _parity(value) != ram.parity[i]:
        raise_detection(Mechanism.DATA_ERROR, f"parity at {address:#x}")
    cache.data[line] = value
    cache.tags[line] = tag
    valid[line] = 1
    return value


def _miss_write(
    cache, memory, address: int, value: int, line: int, tag: int
) -> None:
    """:meth:`DataCache.write`'s miss path (write-allocate, no refill)
    for a known-cacheable address with no recorder attached."""
    cache.misses += 1
    if cache.valid[line] and cache.dirty[line]:
        victim = (cache.tags[line] << 7) | (line << 2)
        cache.writebacks += 1
        layout = memory.layout
        if layout.data_base <= victim < layout.data_base + layout.data_size:
            ram = memory.data
        elif layout.stack_base <= victim < layout.stack_base + layout.stack_size:
            ram = memory.stack
        else:
            ram = None
        if ram is None:
            memory.write_data_word(victim, int(cache.data[line]))
        else:
            i = (victim - ram.base) >> 2
            old = cache.data[line] & _U32
            undo = ram.undo
            if undo is not None and i not in undo:
                undo[i] = (ram.words[i], ram.parity[i])
            ram.words[i] = old
            ram.parity[i] = _parity(old)
            ram.version += 1
    cache.tags[line] = tag
    cache.valid[line] = 1
    cache.data[line] = value & _U32
    cache.dirty[line] = 1



#: The line-valid bits a logging run's loop sees: every cacheable access
#: takes the miss call, which the log replaces with its own.
_NO_VALID_LINES = (0,) * 32

#: One template entry: ``(register element, is_write, bit mask)``.
TemplateEntry = Tuple[str, bool, int]


class AccessLog:
    """The compact def/use log of one run on the table-driven loop.

    Attached as :attr:`CPU.access_log` (see "Access logging" in the
    module docstring).  :mod:`repro.faults.liveness` derives every
    element's access trace from it offline.  Instruction ``i`` of the
    run (counting from :attr:`start`) executed ``words[i - start]``.

    Attributes:
        start: the instruction index the log starts at.
        words: the word of every executed instruction, in order.
        access_times: per cacheable data access, the position in
            :attr:`words` of the instruction that made it.
        access_addresses: per cacheable data access, its address.
        access_writes: per cacheable data access, 1 for a write.
        templates: per executed word, the register, PSW, MAR and MDR
            accesses of one execution of it, in order, as the reference
            chain's recorder hooks reported them.
    """

    __slots__ = (
        "start",
        "words",
        "access_times",
        "access_addresses",
        "access_writes",
        "templates",
        "now",
        "_entries",
        "_template",
    )

    def __init__(self, start: int = 0) -> None:
        self.start = start
        self.words = array("I")
        self.access_times = array("q")
        self.access_addresses = array("q")
        self.access_writes = array("B")
        self.templates: Dict[int, Tuple[TemplateEntry, ...]] = {}
        #: Set by the chain's recorder protocol; the log times accesses
        #: by their position in :attr:`words` instead.
        self.now = 0
        #: Table entries of the words whose template is captured.
        self._entries: Dict[int, _Entry] = {}
        self._template: List[TemplateEntry] = []

    # -- the table loop's locals ------------------------------------------------
    def entry(self, word: int) -> _Entry:
        """The loop's entry lookup: log ``word``, or send a word without
        a template to the generic arm, which runs :meth:`step`."""
        entry = self._entries.get(word)
        if entry is None:
            return _GENERIC_ENTRY
        self.words.append(word)
        return entry

    def read(self, cache, memory, address: int, line: int, tag: int) -> int:
        """The loop's read-miss call: log the access, then make it (the
        loop's hit check, else its miss path)."""
        self.access_times.append(len(self.words) - 1)
        self.access_addresses.append(address)
        self.access_writes.append(0)
        if cache.valid[line] and cache.tags[line] == tag:
            cache.hits += 1
            return cache.data[line]
        return _miss_read(cache, memory, address, line, tag)

    def write(
        self, cache, memory, address: int, value: int, line: int, tag: int
    ) -> None:
        """The loop's write-miss call: log the access, then make it."""
        self.access_times.append(len(self.words) - 1)
        self.access_addresses.append(address)
        self.access_writes.append(1)
        if cache.valid[line] and cache.tags[line] == tag:
            cache.hits += 1
            cache.data[line] = value
            cache.dirty[line] = 1
        else:
            _miss_write(cache, memory, address, value, line, tag)

    def step(self, cpu: "CPU") -> StepResult:
        """Run one instruction through the reference chain with this log
        as the recorder: log its word and data access, and capture the
        word's template.  Detections propagate."""
        word = cpu.ir & _U32
        self.words.append(word)
        template: List[TemplateEntry] = []
        self._template = template
        cpu.recorder = self
        try:
            result = cpu._execute()
        finally:
            cpu.recorder = None
        self.templates[word] = tuple(template)
        entry = _ENTRIES.get(word) or _entry(word)
        if entry is not _GENERIC_ENTRY:
            self._entries[word] = entry
        return result

    # -- the reference chain's recorder protocol, during step() ----------------
    def reg_read(self, element: str, mask: int = _U32) -> None:
        self._template.append((element, False, mask))

    def reg_write(self, element: str, mask: int = _U32) -> None:
        self._template.append((element, True, mask))

    def data_access(self, address: int, is_write: bool) -> None:
        self.access_times.append(len(self.words) - 1)
        self.access_addresses.append(address)
        self.access_writes.append(1 if is_write else 0)


class BatchEngine:
    """The dispatch loop batch lanes run through.

    Callers keep K independent :class:`CPU` lanes (plus their
    caches/memories) and feed each lane's next execution slice through
    :meth:`run`; the loop itself is :meth:`CPU.run`, shared by every
    un-traced execution.
    """

    __slots__ = ()

    def run(self, cpu: CPU, max_instructions: int) -> StepResult:
        """Run one lane until yield/halt/detection or budget end."""
        return cpu.run(max_instructions)
