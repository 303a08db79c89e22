"""The ISA specification is complete, and both interpreters come from it."""

from __future__ import annotations

import inspect
import itertools
import linecache

import pytest

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
