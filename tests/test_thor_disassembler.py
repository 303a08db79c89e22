"""Tests for the disassembler, including the round-trip property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AssemblyError
from repro.thor.assembler import assemble
from repro.thor.disassembler import (
    disassemble_program,
    disassemble_word,
    reassemble_source,
)
from repro.thor.isa import Instruction, encode
from repro.thor.semantics import SPEC
from repro.workloads import (
    compile_algorithm_i,
    compile_algorithm_ii,
    compile_pid_algorithm_i,
    compile_pid_algorithm_ii,
)


class TestDisassembleWord:
    @pytest.mark.parametrize(
        "source, expected",
        [
            ("nop", "nop"),
            ("halt", "halt"),
            ("svc 0", "svc 0"),
            ("sig 7", "sig 7"),
            ("ldi r1, -3", "ldi r1, -3"),
            ("lui r2, 0x1234", "lui r2, 0x1234"),
            ("mov r3, r4", "mov r3, r4"),
            ("fadd r1, r2, r3", "fadd r1, r2, r3"),
            ("cmp r1, r2", "cmp r1, r2"),
            ("ld r1, [r7+12]", "ld r1, [r7+12]"),
            ("st r2, [sp-4]", "st r2, [sp-4]"),
            ("push r5", "push r5"),
            ("pop r5", "pop r5"),
            ("jr r1", "jr r1"),
            ("ret", "ret"),
            ("addi sp, sp, -12", "addi sp, sp, -12"),
            ("chk r1, r2, r3", "chk r1, r2, r3"),
        ],
    )
    def test_matches_source(self, source, expected):
        program = assemble(source)
        assert disassemble_word(program.code[0]) == expected

    def test_undefined_word(self):
        assert disassemble_word(0xEE000000) == ".word 0xee000000"

    def test_branch_shows_relative_offset(self):
        program = assemble("target: nop\nbr target")
        assert disassemble_word(program.code[1]) == "br -1"


class TestListings:
    def test_program_listing_annotates_labels(self):
        program = assemble("start: nop\nloop: br loop")
        listing = disassemble_program(program)
        assert len(listing) == 2
        assert "start:" in listing[0]
        assert "loop:" in listing[1]

    def test_workload_listing_renders(self):
        compiled = compile_algorithm_i()
        listing = disassemble_program(compiled.program)
        assert len(listing) == len(compiled.program.code)
        assert any("svc 0" in line for line in listing)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "compile_workload",
        [
            compile_algorithm_i,
            compile_algorithm_ii,
            compile_pid_algorithm_i,
            compile_pid_algorithm_ii,
        ],
    )
    def test_reassembled_workload_is_identical(self, compile_workload):
        compiled = compile_workload()
        source = reassemble_source(compiled.program)
        again = assemble(source)
        assert again.code == compiled.program.code

    def test_reassemble_rejects_undefined_words(self):
        from repro.thor.program import Program

        program = Program(code=(0xEE000000,), entry=0x1000)
        with pytest.raises(AssemblyError):
            reassemble_source(program)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(SPEC),
                st.integers(0, 8),
                st.integers(0, 8),
                st.integers(0, 8),
                st.integers(0, 0xFFFF),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_disassemble_reassemble_property(self, specs):
        """Disassembling any canonical instruction stream and
        re-assembling it reproduces the identical words."""
        words = []
        for spec, rd, rs1, rs2, imm in specs:
            # Fields the spec does not use stay zero, as the assembler
            # emits them.
            drawn = {"rd": rd, "rs1": rs1, "rs2": rs2}
            kwargs = {name: drawn[name] for name in spec.fields}
            if spec.uses_imm:
                kwargs["imm"] = imm
            words.append(encode(Instruction(spec.opcode, **kwargs)))
        source = "\n".join(disassemble_word(word) for word in words)
        program = assemble(source)
        assert list(program.code) == words
