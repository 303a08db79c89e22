"""Tests for the two-pass assembler and signature analysis."""

import pytest

from repro.errors import AssemblyError
from repro.thor.assembler import assemble
from repro.thor.isa import Opcode, decode
from repro.thor.memory import MemoryLayout


def _ops(program):
    return [decode(w).opcode for w in program.code]


class TestAssembleBasics:
    def test_empty_program(self):
        program = assemble("")
        assert program.code == ()

    def test_comments_and_blank_lines_ignored(self):
        program = assemble("; a comment\n\n   nop ; trailing\n")
        assert _ops(program) == [Opcode.NOP]

    def test_three_register_form(self):
        program = assemble("fadd r1, r2, r3")
        instr = decode(program.code[0])
        assert (instr.opcode, instr.rd, instr.rs1, instr.rs2) == (Opcode.FADD, 1, 2, 3)

    def test_memory_operands(self):
        program = assemble("ld r1, [r7+12]\nst r2, [sp-4]\nld r3, [r0]")
        a, b, c = (decode(w) for w in program.code)
        assert (a.rd, a.rs1, a.simm()) == (1, 7, 12)
        assert (b.rd, b.rs1, b.simm()) == (2, 8, -4)
        assert (c.rd, c.rs1, c.simm()) == (3, 0, 0)

    def test_immediates_decimal_hex_negative(self):
        program = assemble("ldi r1, 10\nldi r2, 0x1F\nldi r3, -3")
        values = [decode(w).simm() for w in program.code]
        assert values == [10, 0x1F, -3]

    def test_branch_to_label_is_relative(self):
        program = assemble("start: nop\nbr start")
        br = decode(program.code[1])
        assert br.simm() == -1

    def test_forward_branch(self):
        program = assemble("beq done\nnop\ndone: nop")
        assert decode(program.code[0]).simm() == 2

    def test_la_expands_to_two_words(self):
        program = assemble(".data\nx: .float 1.0\n.text\nla r7, x\nnop")
        assert len(program.code) == 3
        lui, ori = decode(program.code[0]), decode(program.code[1])
        address = program.symbol("x")
        assert lui.opcode is Opcode.LUI and lui.imm == address >> 16
        assert ori.opcode is Opcode.ORI and ori.imm == address & 0xFFFF

    def test_labels_after_la_account_for_width(self):
        program = assemble(
            ".data\nx: .float 0.0\n.text\nla r7, x\ntarget: nop\nbr target"
        )
        assert decode(program.code[3]).simm() == -1

    def test_hi_lo_relocations(self):
        program = assemble(".data\nv: .float 0.0\n.text\nlui r1, %hi(v)\nori r1, %lo(v)")
        address = program.symbol("v")
        assert decode(program.code[0]).imm == (address >> 16) & 0xFFFF
        assert decode(program.code[1]).imm == address & 0xFFFF


class TestDataSections:
    def test_float_word_encoding(self):
        program = assemble(".data\nx: .float 1.0\n")
        assert program.data[program.symbol("x")] == 0x3F800000

    def test_word_and_space(self):
        program = assemble(".data\na: .word 0xDEAD\nb: .space 2\nc: .word 1\n")
        layout = MemoryLayout()
        assert program.symbol("a") == layout.data_base
        assert program.symbol("c") == layout.data_base + 12

    def test_rodata_section(self):
        program = assemble(".rodata\nk: .float 70.0\n.text\nnop")
        layout = MemoryLayout()
        assert program.symbol("k") == layout.rodata_base
        assert program.data[layout.rodata_base] == 0x428C0000

    def test_sections_interleave(self):
        source = ".data\na: .word 1\n.text\nnop\n.data\nb: .word 2\n"
        program = assemble(source)
        assert program.symbol("b") == program.symbol("a") + 4


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "bogus r1",
            "ldi r1",
            "ldi r1, 0x10000000",
            "ld r1, r7",
            "add r1, r2",
            "br nowhere",
            "x: nop\nx: nop",
            ".data\nq: .floot 1.0",
            "add r1, r2, r3, r4",
            "nop r1",
            "push r1, r2",
            "ret 5",
            "br 1, 2",
            "ld r1, [r2+0], r3",
        ],
    )
    def test_malformed_source_rejected(self, source):
        with pytest.raises(AssemblyError):
            assemble(source)

    @pytest.mark.parametrize(
        "source",
        [
            "sig 70000",
            "svc 65537",
            "addi r1, r2, 70000",
            "lui r1, 0x12345",
            "ori r1, 99999",
            "ldi r1, -32769",
            "sig -32769",
            "br 32768",
            "ld r1, [r2+32768]",
            "st r1, [r2-32769]",
        ],
    )
    def test_out_of_range_immediate_rejected(self, source):
        with pytest.raises(AssemblyError, match="out of range"):
            assemble(source)

    @pytest.mark.parametrize(
        "source, imm",
        [
            ("sig 65535", 0xFFFF),
            ("svc -32768", 0x8000),
            ("addi r1, r2, -1", 0xFFFF),
            ("lui r1, 0xffff", 0xFFFF),
            ("ori r1, 65535", 0xFFFF),
            ("br -32768", 0x8000),
            ("ld r1, [r2+32767]", 0x7FFF),
        ],
    )
    def test_immediate_range_bounds_accepted(self, source, imm):
        assert decode(assemble(source).code[0]).imm == imm

    @pytest.mark.parametrize(
        "source, line",
        [
            (".data\nx: .space", 2),
            (".data\nx: .word\ny: .word 5", 2),
            (".rodata\nk: .float", 2),
            (".data\nx: .space 2, 3", 2),
            (".data\nx: .space -1", 2),
            (".data\nx: .word 1\n.text\nla r1, x, r3", 4),
            (".data\nx: .word foo", 2),
            ("nop\nadd r1,,r2", 2),
        ],
    )
    def test_error_names_its_line(self, source, line):
        with pytest.raises(AssemblyError, match=rf"^line {line}: "):
            assemble(source)

    def test_program_too_large_rejected(self):
        source = "\n".join(["nop"] * 1000)
        with pytest.raises(AssemblyError):
            assemble(source)


class TestSignatureAnalysis:
    def test_straight_line_successors(self):
        program = assemble("sig 0\nnop\nsig 1\nnop\nsig 2")
        assert program.signature_successors[0] == frozenset({1})
        assert program.signature_successors[1] == frozenset({2})
        assert program.signature_successors[2] == frozenset()

    def test_branch_gives_two_successors(self):
        source = """
        sig 0
        beq taken
        sig 1
        br join
taken:  sig 2
join:   sig 3
        """
        program = assemble(source)
        assert program.signature_successors[0] == frozenset({1, 2})
        assert program.signature_successors[1] == frozenset({3})
        assert program.signature_successors[2] == frozenset({3})

    def test_loop_successor_includes_itself_path(self):
        source = """
loop:   sig 1
        nop
        br loop
        """
        program = assemble(source)
        assert program.signature_successors[1] == frozenset({1})

    def test_call_and_ret_edges(self):
        source = """
        sig 0
        call fn
        sig 1
        br end
fn:     sig 2
        ret
end:    halt
        """
        program = assemble(source)
        assert program.signature_successors[0] == frozenset({2})
        assert 1 in program.signature_successors[2]
