"""Pinned digests of the ISA's text and control-flow layer.

One sha256 per defined opcode covers the disassembly of every canonical
word of that opcode (register fields 0..8 on the fields it uses, the
immediates of :data:`IMMEDIATES`) and of a seeded sample of its
non-canonical words; one more covers the same sample for every
undefined opcode byte, which renders as ``.word``.  For each of the four
compiled workloads, one sha256 pins its ``disassemble_program`` listing,
one its code image and one its sorted ``signature_successors``.

The literals were computed on the hand-written assembler and
disassembler, so any change to the text of a word, the code a workload
assembles to or the successor map CONTROL FLOW ERROR checks against
changes a digest.  ``repro listing`` (the listing after a header line)
is pinned by the digest ``repro listing --algorithm I | sha256sum``
prints, and likewise for Algorithm II.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Dict, Iterator

import pytest

from repro.cli import main
from repro.thor.disassembler import disassemble_program, disassemble_word
from repro.thor.isa import Instruction, Opcode, encode
from repro.thor.semantics import SPEC
from repro.workloads import (
    compile_algorithm_i,
    compile_algorithm_ii,
    compile_pid_algorithm_i,
    compile_pid_algorithm_ii,
)

#: Immediates of the canonical words.
IMMEDIATES = (0, 1, 0x7FFF, 0x8000, 0xFFFF)

#: Seeded low-24-bit patterns swept under every opcode byte.
_RNG = random.Random(2001)
RAW_LOW_BITS = (0, 0xFFFFFF) + tuple(_RNG.getrandbits(24) for _ in range(14))

WORKLOADS = {
    "alg1": compile_algorithm_i,
    "alg2": compile_algorithm_ii,
    "pid1": compile_pid_algorithm_i,
    "pid2": compile_pid_algorithm_ii,
}

#: ``repro listing --algorithm A | sha256sum`` per algorithm.
PINNED_CLI_LISTINGS = {
    "I": "221c06ec5aa1df504776cdc751a1f345d7340c11de502b185759953d47c31d8c",
    "II": "e833d8b845e6f04835a9ef3a9dc3a3a54f1af67cdc3e36b443483064edd6832b",
}

#: sha256 per opcode name (``"undefined"``: every undefined byte).
PINNED_WORDS: Dict[str, str] = {
    "NOP": "be0f7340dda0bed9fb1f49a8e14891cd660a03c062b91437c8ad8e555447978b",
    "HALT": "fbff40883503327441206c8b7057e2d0bb4736042e6adb1cf2c40532644d8c2f",
    "SVC": "e086ca7d4c849fa7082cd646cc5142d68e65ac86fb360b6aea2b7f2e3bbd0909",
    "SIG": "5d3fb437937be56c09b46c9ef37a41ea50b849906cf7f428df828cfc7f953bfc",
    "SETMODE": "3bcee402cc04f0d75a39391e713deb3000fcd0717938470de6e92449a9035a1e",
    "WFI": "5eea49c77e1b935bf8450bbf471076265d20a98aafbaf9dc224921d9bf290f93",
    "LDI": "2fbd48931477e27b22f0ce566e6ca1b9a67aaa6ec9b5c8db61f20e208df1ffb4",
    "LUI": "913b51f8ceb229c5e2523fbbd157851028863cc9c36cd23987f22d8898cc150b",
    "ORI": "572744c8a7384ac628650f7b8cb7dbd0c386b432b651c8d54784b8f2136f2440",
    "MOV": "d5130cbb21154b70018f2960a2821382ab04a09828854191c9868f2995a6e086",
    "LD": "baaadd321b15d99ec4250c232278ab5d49933850dfbcca7fcfa7fa3f40189347",
    "ST": "23179809a8e0d67682df65d631fd90388ae1274f8dabf11a73155accf9e456c1",
    "PUSH": "65a79fb0176b9144dba4efe7294dad31728b1dc43766ab6e1202d970419cdc23",
    "POP": "4898341d902fe2efae0fdc4835b699212bc4c2bddd0a249cc8239ceece17c24e",
    "ADD": "026a5a22b2d5cf2bceca7885125e373892ab44418c21e0c97762cea59be579cd",
    "SUB": "1a47b609cb7fc7180d3dcec0106dc3323910753a04b99abd8663e3cfdb0ca509",
    "MUL": "43d26e05a0b4356caa75a55c33560607273615164d4cb5dad51357c2bfadad17",
    "DIV": "b5aca75ea8f3f1e25461aff6c44fee6dc34f001a6caf8ea9fc0d125951c839fe",
    "AND": "6f75e3a09a11b9364db44ba0611455801844c3ae125ba19fcd83ebad3cc8a825",
    "OR": "5eb0be63541f04428eab3d5e242780d85b0af8ac73d175d0690f12f6e7380461",
    "XOR": "a7c81c5b93fc8a2ee00aac06071f63a94e71565722e4c8426b7fabe6bd6a339e",
    "SHL": "c41ada0ca05de4664266a9aea6620a45334d7e26fbd404f3f544130294c32bc7",
    "SHR": "a3ec54cb19535305e9ccc467e3a0a3a90d269834df1a28f3053145f2dab412d8",
    "ADDI": "0ae6b94b23869fe679121f70fdb59fe3521077a0eb682b1959a5b960f8ad83e8",
    "CMP": "1be8fcf39927fb6bccd30479fb29bce66e81ecc530dd9e82ca2100bb3b24d321",
    "FADD": "729a4b43dc50bd7e71292a7cb43ff7e4ed36230fbf3df10d49e9574db682289f",
    "FSUB": "66f7ea63927569fe368286a8e61f5a5eb35063f8044b4acaa51dda9798f18a27",
    "FMUL": "d58d3c64fe6a964ad2e130ea2892fa34c92dd17b4c4fe4ac2486a8aaece34e43",
    "FDIV": "2eb3af9b4b5c2fa7435c1ce7d62e246f1f9dae002967cf5a8dd5afa8dc21d690",
    "FCMP": "7a084f821ef7ca5ff297803a67902f161e1ba393e1d63ee571340091513b1295",
    "ITOF": "0ef66f778f27852f926f281802b808791f7433ea71302c810a15bd9cb440ded5",
    "FTOI": "04c6a231b9f5b9d7aff7bb58319cfaa8bd086a28bfd90f808ed44ca9edc76d1d",
    "FNEG": "aceed1139c1fc99f9b4addd8a28977bb385b3e7e6ba1f85f8280bfa9f2387dc9",
    "BR": "a1c3335f1328313ff8489eed8a25d9268a5fd97c8dd93edd9324ddecee8e699e",
    "BEQ": "2b32d2125cb5f9f116a0020c14ebda439c308b6843c63403eefee29797bec9db",
    "BNE": "9f30038eac2f55f579c439b14e733e6dfbbdd6ed790a09254460b6107ba1ce27",
    "BLT": "e70a14092a34bb7139ff95d769885e3620da43fd9bb4c94c4e86152a53e4bd4d",
    "BGE": "d57d0573406ad9287d0a4a197d33d50149756f719f0aebabc9f34ae363d103af",
    "BGT": "61bea5926fd5a49c08efe20f738b3a6b6129485b145dd27dd6fd4217b35f4f5e",
    "BLE": "b5306fdf8b0c85b1c8897edb50f219913d9afe671abac8483ebcaa67933d9928",
    "BVS": "87290b0dcb60220a50f2818d272cdf84560ac5b0d52a0f588f5fd6cadaa177ff",
    "CALL": "6d4eecce1b1db3d9ad7ee3383522aaabd7f0838c73fd0139410c90e93b9896b1",
    "RET": "dc97fcc52428facba97520087d85be6acf5b423dcf06192d8af6c6b61b53825d",
    "JR": "a4fa3a8d23ce07a03ea4445d117cf3597fee91bf528188f50d3af26a2a2fb6ec",
    "CHK": "a4cb38eb7521cd4de1f8d25e23c6bd4f826f53fe12844070ba974e08bf71d89d",
    "undefined": "52bc07a77717de03160838a1aeb636e9d0a0e01c25f105952c2084827931dc20",
}

#: sha256 per workload of its listing, code image and successor map.
PINNED_PROGRAMS: Dict[str, Dict[str, str]] = {
    "alg1": {
        "listing": "66e6902a71e69a8d14d134aacdaad4ba0acfafa6effefc6b650e6873a407a598",
        "code": "aa73f2f909482e5ee096d476bb952a23d9148882b7ef43b970ac5131265e711d",
        "successors": "89226d4fd496836952643ee0b2b320564a12d712841bd06e8cca6b44a7b85389",
    },
    "alg2": {
        "listing": "e5b6ab296bb4863c9754ee81fdb15d7ba352d4718ffe3e83444a8d5441b0159b",
        "code": "a6853fa840ec1f78b141f4dc22d097405fbc3e12afc1000d3faab993ac51b30f",
        "successors": "e2f7c1282186986ea26b3259a192a5815840b5988e6e1126a6ae89b7d3d04bcc",
    },
    "pid1": {
        "listing": "e8a48ea54421bc5385087b1d424b292e02559a97a3507e876a0e391565f738bb",
        "code": "b750d86e3cc99b98d99d390d554954a497bd01741f60520a763e473f2f1afb7e",
        "successors": "c81d18a01fa37640eb5c110df1c2b7cd556700084da1038b49e0a6e57b2591cd",
    },
    "pid2": {
        "listing": "86a2aa065e56bd1ca274658c66c58cd6110aa457120ea75f31384968048a4e25",
        "code": "a6baa2cb0f552df4533b0e2afdb5c82967bd5efe3c2997fa0b6eae1c60825802",
        "successors": "e216c4e78622b8c57e2cd6567ed6c4e4a542448331f2e75775e3405cc00a6ddc",
    },
}


def _sha(lines: Iterator[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _canonical_words(spec) -> Iterator[int]:
    registers = itertools.product(range(9), repeat=len(spec.fields))
    immediates = IMMEDIATES if spec.uses_imm else (0,)
    for values, imm in itertools.product(registers, immediates):
        yield encode(Instruction(spec.opcode, imm=imm, **dict(zip(spec.fields, values))))


def _raw_words(byte: int) -> Iterator[int]:
    return ((byte << 24) | low for low in RAW_LOW_BITS)


def _word_texts(byte: int) -> Iterator[str]:
    for word in _raw_words(byte):
        yield f"{word:08x} {disassemble_word(word)}"


def word_digests() -> Dict[str, str]:
    defined = {int(op) for op in Opcode}
    digests = {}
    for spec in SPEC:
        canonical = (f"{w:08x} {disassemble_word(w)}" for w in _canonical_words(spec))
        digests[spec.opcode.name] = _sha(itertools.chain(canonical, _word_texts(spec.opcode)))
    digests["undefined"] = _sha(
        itertools.chain.from_iterable(
            _word_texts(byte) for byte in range(256) if byte not in defined
        )
    )
    return digests


def program_digests(compile_workload) -> Dict[str, str]:
    program = compile_workload().program
    successors = sorted(
        (sig, sorted(ids)) for sig, ids in program.signature_successors.items()
    )
    return {
        "listing": _sha(iter(disassemble_program(program))),
        "code": _sha(f"{w:08x}" for w in program.code),
        "successors": _sha(iter([repr(successors)])),
    }


@pytest.fixture(scope="module")
def observed_words() -> Dict[str, str]:
    return word_digests()


@pytest.mark.parametrize("name", sorted(PINNED_WORDS))
def test_word_text_is_pinned(observed_words, name):
    assert observed_words[name] == PINNED_WORDS[name]


def test_every_opcode_is_pinned(observed_words):
    assert sorted(observed_words) == sorted(PINNED_WORDS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_text_and_control_flow_are_pinned(workload):
    assert program_digests(WORKLOADS[workload]) == PINNED_PROGRAMS[workload]


@pytest.mark.parametrize("algorithm", sorted(PINNED_CLI_LISTINGS))
def test_cli_listing_is_pinned(capsys, algorithm):
    assert main(["listing", "--algorithm", algorithm]) == 0
    output = capsys.readouterr().out
    assert hashlib.sha256(output.encode()).hexdigest() == PINNED_CLI_LISTINGS[algorithm]
