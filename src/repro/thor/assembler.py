"""A two-pass assembler for the simulated CPU.

Syntax (one statement per line, ``;`` starts a comment)::

    .data
    x:      .float 0.0          ; IEEE-754 single word
    count:  .word 5             ; raw 32-bit word
    .text
    init:   la   r7, x          ; pseudo: lui+ori with the symbol address
            sig  0              ; control-flow signature checkpoint
    loop:   sig  1
            ld   r1, [r7+0]
            fadd r1, r1, r2
            st   r1, [r7+4]
            cmp  r1, r2
            beq  loop
            svc  0              ; yield to the environment
            br   loop

Every instruction is parsed by its spec's syntax
(:mod:`repro.thor.semantics`): the operand count must match it, an
immediate must lie in -0x8000..0xFFFF (stored as its low 16 bits), and
a memory offset or a pc-relative target in -0x8000..0x7FFF.

Pass 1 sizes statements and assigns label addresses (``la`` expands to
two words); pass 2 encodes.  After encoding, the assembler derives the
legal control-flow transitions between ``sig`` checkpoints by exploring
the instruction-level control-flow graph, producing the successor map
consumed by the CPU's CONTROL FLOW ERROR mechanism.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import AssemblyError
from repro.thor.isa import Instruction, Opcode, encode, register_index
from repro.thor.memory import MemoryLayout, WORD
from repro.thor.program import Program
from repro.thor.semantics import SPEC, SPEC_BY_CODE

_MEM_OPERAND = re.compile(r"^\[\s*(\w+)\s*(?:([+-])\s*(\w+))?\s*\]$")
_HI_LO = re.compile(r"^%(hi|lo)\((\w+)\)$")

_BY_MNEMONIC = {spec.mnemonic: spec for spec in SPEC}


@dataclass
class _Statement:
    """One source statement after pass 1."""

    line_no: int
    mnemonic: str
    operands: List[str]
    address: int
    words: int


def _float_word(text: str) -> int:
    try:
        return struct.unpack("<I", struct.pack("<f", float(text)))[0]
    except (ValueError, OverflowError) as exc:
        raise AssemblyError(f"bad float literal {text!r}: {exc}") from None


def _int_literal(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblyError(f"bad integer literal {text!r}") from None


class _Assembler:
    def __init__(self, source: str, layout: MemoryLayout):
        self.source = source
        self.layout = layout
        self.symbols: Dict[str, int] = {}
        self.statements: List[_Statement] = []
        self.data: Dict[int, int] = {}

    # -- pass 1 ----------------------------------------------------------------
    def first_pass(self) -> None:
        section = ".text"
        cursors = {
            ".text": self.layout.code_base,
            ".data": self.layout.data_base,
            ".rodata": self.layout.rodata_base,
        }
        for line_no, raw in enumerate(self.source.splitlines(), start=1):
            line = raw.split(";", 1)[0].strip()
            if not line:
                continue
            label, line = self._split_label(line)
            if label:
                if label in self.symbols:
                    raise AssemblyError(f"line {line_no}: duplicate label {label!r}")
                self.symbols[label] = cursors[section]
            if not line:
                continue
            parts = line.split(None, 1)
            mnemonic = parts[0].lower()
            operand_text = parts[1] if len(parts) > 1 else ""
            operands = [op.strip() for op in operand_text.split(",")] if operand_text else []
            if mnemonic in cursors:
                section = mnemonic
                continue
            if section in (".data", ".rodata"):
                cursors[section] = self._assemble_data(
                    line_no, mnemonic, operands, cursors[section]
                )
                continue
            code_address = cursors[".text"]
            words = 2 if mnemonic == "la" else 1
            self.statements.append(
                _Statement(line_no, mnemonic, operands, code_address, words)
            )
            cursors[".text"] = code_address + words * WORD

    @staticmethod
    def _split_label(line: str) -> Tuple[Optional[str], str]:
        if ":" in line:
            candidate, rest = line.split(":", 1)
            candidate = candidate.strip()
            if candidate and re.fullmatch(r"\w+", candidate):
                return candidate, rest.strip()
        return None, line

    def _assemble_data(
        self, line_no: int, mnemonic: str, operands: List[str], address: int
    ) -> int:
        if mnemonic == ".float":
            words = [_float_word(op) for op in operands]
        elif mnemonic == ".word":
            words = [_int_literal(op) & 0xFFFFFFFF for op in operands]
        elif mnemonic == ".space":
            count = _int_literal(operands[0])
            words = [0] * count
        else:
            raise AssemblyError(f"line {line_no}: unknown data directive {mnemonic!r}")
        for word in words:
            self.data[address] = word
            address += WORD
        return address

    # -- pass 2 ------------------------------------------------------------------
    def second_pass(self) -> List[int]:
        words: List[int] = []
        for statement in self.statements:
            words.extend(self._encode_statement(statement))
        return words

    def _resolve_imm(self, text: str, line_no: int) -> int:
        match = _HI_LO.match(text)
        if match:
            kind, symbol = match.groups()
            address = self._symbol(symbol, line_no)
            return (address >> 16) & 0xFFFF if kind == "hi" else address & 0xFFFF
        if text in self.symbols:
            return self.symbols[text]
        return _int_literal(text)

    def _symbol(self, name: str, line_no: int) -> int:
        if name not in self.symbols:
            raise AssemblyError(f"line {line_no}: unknown symbol {name!r}")
        return self.symbols[name]

    def _encode_statement(self, st: _Statement) -> List[int]:
        m = st.mnemonic
        ops = st.operands
        n = st.line_no
        if m == "la":
            if len(ops) < 2:
                raise AssemblyError(f"line {n}: malformed operands for {m!r}")
            address = self._symbol(ops[1], n)
            rd = register_index(ops[0])
            return [
                encode(Instruction(Opcode.LUI, rd=rd, imm=(address >> 16) & 0xFFFF)),
                encode(Instruction(Opcode.ORI, rd=rd, imm=address & 0xFFFF)),
            ]
        spec = _BY_MNEMONIC.get(m)
        if spec is None:
            raise AssemblyError(f"line {n}: unknown mnemonic {m!r}")
        forms = spec.syntax.split(", ") if spec.syntax else []
        if len(ops) != len(forms):
            raise AssemblyError(
                f"line {n}: {m!r} takes {len(forms)} operands, got {len(ops)}"
            )
        fields: Dict[str, int] = {}
        for form, text in zip(forms, ops):
            if form.startswith("["):
                fields["rs1"], fields["imm"] = self._mem_operand(text, n)
            elif form in ("{rd}", "{rs1}", "{rs2}"):
                fields[form[1:-1]] = register_index(text)
            elif "target" in spec.flow:
                fields["imm"] = self._branch_target(text, st)
            else:
                imm = self._resolve_imm(text, n)
                if not -0x8000 <= imm <= 0xFFFF:
                    raise AssemblyError(f"line {n}: {m} immediate {imm} out of range")
                fields["imm"] = imm & 0xFFFF
        return [encode(Instruction(spec.opcode, **fields))]

    def _branch_target(self, operand: str, st: _Statement) -> int:
        if operand in self.symbols:
            delta = (self.symbols[operand] - st.address) // WORD
        else:
            delta = _int_literal(operand)
        if not -0x8000 <= delta <= 0x7FFF:
            raise AssemblyError(f"line {st.line_no}: branch target out of range")
        return delta & 0xFFFF

    def _mem_operand(self, text: str, line_no: int) -> Tuple[int, int]:
        match = _MEM_OPERAND.match(text)
        if not match:
            raise AssemblyError(f"line {line_no}: bad memory operand {text!r}")
        base_text, sign, offset_text = match.groups()
        base = register_index(base_text)
        offset = 0
        if offset_text is not None:
            offset = self._resolve_imm(offset_text, line_no)
            if sign == "-":
                offset = -offset
        if not -0x8000 <= offset <= 0x7FFF:
            raise AssemblyError(f"line {line_no}: memory offset out of range")
        return base, offset & 0xFFFF


def _signature_successors(words: List[int]) -> Dict[int, FrozenSet[int]]:
    """Derive legal SIG-to-SIG transitions from the instruction CFG.

    A word's successors follow its spec's ``flow``: its pc-relative
    target, the next word, and for an indirect jump (a return or a
    register jump) every word after a ``call``.  An undefined word falls
    through.
    """
    count = len(words)
    sig_at: Dict[int, int] = {}
    call_returns: List[int] = []
    for i, word in enumerate(words):
        opcode = (word >> 24) & 0xFF
        if opcode == Opcode.SIG:
            sig_at[i] = word & 0xFFFF
        elif opcode == Opcode.CALL and i + 1 < count:
            call_returns.append(i + 1)

    def successors(i: int) -> List[int]:
        word = words[i]
        spec = SPEC_BY_CODE.get((word >> 24) & 0xFF)
        succ: List[int] = []
        for kind in spec.flow if spec else ("next",):
            if kind == "target":
                imm = word & 0xFFFF
                succ.append(i + (imm - 0x10000 if imm & 0x8000 else imm))
            elif kind == "next":
                succ.append(i + 1)
            else:
                succ.extend(call_returns)
        return [s for s in succ if 0 <= s < count]

    result: Dict[int, Set[int]] = {}
    for start, sig_id in sig_at.items():
        reachable: Set[int] = set()
        stack = successors(start)
        seen: Set[int] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node in sig_at:
                reachable.add(sig_at[node])
                continue
            stack.extend(successors(node))
        result.setdefault(sig_id, set()).update(reachable)
    return {sig_id: frozenset(ids) for sig_id, ids in result.items()}


def assemble(source: str, layout: MemoryLayout = MemoryLayout()) -> Program:
    """Assemble source text into a loadable :class:`Program`."""
    assembler = _Assembler(source, layout)
    assembler.first_pass()
    words = assembler.second_pass()
    if len(words) * WORD > layout.code_size:
        raise AssemblyError(
            f"program ({len(words)} words) exceeds code region "
            f"({layout.code_size // WORD} words)"
        )
    return Program(
        code=tuple(words),
        data=dict(assembler.data),
        symbols=dict(assembler.symbols),
        entry=layout.code_base,
        signature_successors=_signature_successors(words),
        source=source,
    )
