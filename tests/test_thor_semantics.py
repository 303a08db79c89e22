"""The ISA specification is complete, and both interpreters come from it."""

from __future__ import annotations

import ast
import inspect
import itertools
import linecache
from pathlib import Path

import pytest

import repro.thor
from repro.thor import cpu as cpu_module
from repro.thor.cpu import CPU, FLAG_M, StepResult
from repro.thor.isa import (
    IMMEDIATE_OPCODES,
    PRIVILEGED_OPCODES,
    SP_INDEX,
    Instruction,
    Opcode,
    encode,
)
from repro.thor.program import Program
from repro.thor.semantics import MEASURED_MIX, SPEC, OpSpec

_GENERIC = cpu_module._GENERIC_ENTRY


def _words(opcode: Opcode, fields=range(SP_INDEX + 1)):
    """Words of ``opcode`` over the given register fields (and a few
    immediates for the immediate forms)."""
    if opcode in IMMEDIATE_OPCODES:
        for rd, rs1, imm in itertools.product(fields, fields, (0, 1, 0x7FFF, 0x8000, 0xFFFF)):
            yield encode(Instruction(opcode, rd=rd, rs1=rs1, imm=imm))
    else:
        for rd, rs1, rs2 in itertools.product(fields, repeat=3):
            yield encode(Instruction(opcode, rd=rd, rs1=rs1, rs2=rs2))


class TestSpecCompleteness:
    def test_every_opcode_has_exactly_one_spec(self):
        assert sorted(spec.opcode for spec in SPEC) == sorted(Opcode)

    def test_privileged_set_is_the_isa_s(self):
        assert {spec.opcode for spec in SPEC if spec.privileged} == PRIVILEGED_OPCODES

    def test_immediate_use_agrees_with_the_encoding(self):
        for spec in SPEC:
            immediate = spec.opcode in IMMEDIATE_OPCODES
            assert spec.uses_imm == immediate, spec.opcode.name
            # An immediate form's rs2 bits are the immediate's.
            assert not (immediate and "rs2" in spec.fields), spec.opcode.name

    def test_every_well_formed_unprivileged_word_gets_a_fast_entry(self):
        for spec in SPEC:
            for word in _words(spec.opcode):
                entry = cpu_module._entry(word)
                if spec.privileged:
                    assert entry is _GENERIC, spec.opcode.name
                else:
                    assert entry[0] != 0, (spec.opcode.name, hex(word))

    def test_fields_outside_the_register_file_take_the_traced_step(self):
        for spec in SPEC:
            for word in _words(spec.opcode, (0, 9, 15)):
                fields = {
                    "rd": (word >> 20) & 15,
                    "rs1": (word >> 16) & 15,
                    "rs2": (word >> 12) & 15,
                }
                outside = any(fields[f] > SP_INDEX for f in spec.fields)
                if outside or spec.privileged:
                    assert cpu_module._entry(word) is _GENERIC, spec.opcode.name

    def test_arms_follow_the_measured_mix(self):
        arms = [
            cpu_module._entry(encode(Instruction(opcode)))[0] for opcode in MEASURED_MIX
        ]
        assert arms == list(range(1, len(MEASURED_MIX) + 1))


class TestGenerator:
    def test_generated_source_is_inspectable(self):
        for function in (CPU._run, CPU._traced_step):
            code = function.__code__
            assert code.co_filename == cpu_module._GENERATED_FILE
            assert linecache.getline(code.co_filename, code.co_firstlineno).startswith(
                f"def {code.co_name}("
            )
            assert inspect.getsource(function).startswith(f"def {code.co_name}(")

    def test_tracebacks_show_the_generated_lines(self, cpu, monkeypatch):
        def broken_miss(*_args):
            raise RuntimeError("miss")

        monkeypatch.setattr(cpu_module, "_miss_read", broken_miss)
        load = encode(Instruction(Opcode.LD, rd=1, rs1=0))
        cpu.load(Program(code=(load,), entry=cpu.layout.code_base))
        cpu.regs[0] = cpu.layout.data_base
        with pytest.raises(RuntimeError) as info:
            cpu.run(1)
        frames = [f for f in info.traceback if f.frame.code.raw is CPU._run.__code__]
        assert "miss_read(cache, memory, address, line, tag)" in str(frames[-1].statement)

    def test_flags_outside_the_declared_write_mask_are_refused(self):
        spec = OpSpec(Opcode.NOP, "FLAGS(z=True)")
        with pytest.raises(ValueError, match="outside psw_write"):
            cpu_module._arm(spec, cpu_module._Fast(spec), {}, "")

    def test_halt_ends_the_traced_step_without_prefetch(self, cpu):
        halt = encode(Instruction(Opcode.HALT))
        cpu.load(Program(code=(halt,), entry=cpu.layout.code_base))
        cpu.psw |= FLAG_M
        assert cpu.run(5) is StepResult.HALTED
        assert cpu.instruction_index == 1 and cpu.pc == cpu.layout.code_base


class TestTextAndControlFlow:
    def test_default_syntax_lists_fields_then_the_immediate(self):
        syntax = {spec.opcode: spec.syntax for spec in SPEC}
        assert syntax[Opcode.NOP] == ""
        assert syntax[Opcode.SIG] == "{imm}"
        assert syntax[Opcode.LDI] == "{rd}, {simm}"
        assert syntax[Opcode.ADDI] == "{rd}, {rs1}, {simm}"
        assert syntax[Opcode.CMP] == "{rs1}, {rs2}"
        assert syntax[Opcode.CHK] == "{rd}, {rs1}, {rs2}"
        assert syntax[Opcode.BEQ] == "{simm}"

    def test_flow_is_read_from_the_body(self):
        flow = {spec.opcode: spec.flow for spec in SPEC}
        assert flow[Opcode.HALT] == flow[Opcode.WFI] == ()
        assert flow[Opcode.BR] == flow[Opcode.CALL] == ("target",)
        assert flow[Opcode.RET] == flow[Opcode.JR] == ("indirect",)
        conditional = [op for op, kinds in flow.items() if kinds == ("target", "next")]
        assert conditional == [
            Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
            Opcode.BGT, Opcode.BLE, Opcode.BVS,
        ]
        ends = set(conditional) | {
            Opcode.HALT, Opcode.WFI, Opcode.BR, Opcode.CALL, Opcode.RET, Opcode.JR
        }
        assert all(flow[op] == ("next",) for op in Opcode if op not in ends)


def _opcode_displays(tree: ast.AST):
    """Dict, set, list and tuple displays naming two or more ``Opcode``
    members (a tuple display feeding a set comprehension is a table too)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            elements = [n for n in node.keys + node.values if n is not None]
        elif isinstance(node, (ast.Set, ast.List, ast.Tuple)):
            elements = node.elts
        else:
            continue
        members = [
            e for e in elements
            if isinstance(e, ast.Attribute)
            and isinstance(e.value, ast.Name)
            and e.value.id == "Opcode"
        ]
        if len(members) >= 2:
            yield node.lineno


def test_no_module_restates_per_opcode_tables():
    """Per-opcode facts live in the spec: no other module of the
    processor holds a table of opcodes."""
    package = Path(repro.thor.__file__).parent
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        if path.name not in ("isa.py", "semantics.py")
        for line in _opcode_displays(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_the_guard_finds_a_table():
    source = (
        "TABLE = {Opcode.ADD: 'add', Opcode.SUB: 'sub'}\n"
        "ONE = {Opcode.LUI}\n"
        "BRANCHES = {int(op) for op in (Opcode.BR, Opcode.BEQ)}\n"
    )
    assert list(_opcode_displays(ast.parse(source))) == [1, 3]
