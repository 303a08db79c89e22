"""Scan-chain access to the CPU's injectable state elements.

Mirrors Thor's scan-chain logic: every bit of the register file and the
data cache can be read and written from outside the core while it is
halted at a breakpoint.  The chain exposes exactly the paper's 2250
injectable locations:

* partition ``cache`` — 1824 bits: per line, 32 data bits, 23 tag bits,
  the valid bit and the dirty bit;
* partition ``registers`` — 426 bits: r0..r7, SP, PC, IR, MAR, MDR
  (32 bits each) and the 10-bit PSW.

Faults are injected by reading the chain, inverting the selected bit and
writing the chain back — :meth:`ScanChain.flip`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.errors import ScanChainError
from repro.faults.models import (
    CACHE_PARTITION,
    REGISTER_PARTITION,
    FaultTarget,
    LocationSpace,
)
from repro.thor.cache import LINES, TAG_BITS
from repro.thor.cpu import CPU, PSW_BITS
from repro.thor.isa import NUM_GPRS, SP_INDEX

_Getter = Callable[[CPU], int]
_Setter = Callable[[CPU, int], None]


def _reg_accessors(index: int) -> Tuple[_Getter, _Setter]:
    def get(cpu: CPU) -> int:
        return cpu.regs[index]

    def put(cpu: CPU, value: int) -> None:
        cpu.regs[index] = value & 0xFFFFFFFF

    return get, put


def _attr_accessors(name: str, mask: int) -> Tuple[_Getter, _Setter]:
    def get(cpu: CPU) -> int:
        return getattr(cpu, name)

    def put(cpu: CPU, value: int) -> None:
        setattr(cpu, name, value & mask)

    return get, put


def _cache_accessors(array: str, index: int, mask: int) -> Tuple[_Getter, _Setter]:
    def get(cpu: CPU) -> int:
        return int(getattr(cpu.cache, array)[index])

    def put(cpu: CPU, value: int) -> None:
        getattr(cpu.cache, array)[index] = value & mask

    return get, put


class ScanChain:
    """Bit-level access to one CPU's injectable state elements."""

    def __init__(self, cpu: CPU):
        self.cpu = cpu
        self._elements: Dict[Tuple[str, str], Tuple[_Getter, _Setter, int]] = {}
        self._targets: List[FaultTarget] = []
        self._build_cache_elements()
        self._build_register_elements()

    def _add(self, partition: str, element: str, get: _Getter, put: _Setter, width: int) -> None:
        self._elements[(partition, element)] = (get, put, width)
        for bit in range(width):
            self._targets.append(FaultTarget(partition=partition, element=element, bit=bit))

    def _build_cache_elements(self) -> None:
        for line in range(LINES):
            get, put = _cache_accessors("data", line, 0xFFFFFFFF)
            self._add(CACHE_PARTITION, f"line{line}.data", get, put, 32)
            get, put = _cache_accessors("tags", line, (1 << TAG_BITS) - 1)
            self._add(CACHE_PARTITION, f"line{line}.tag", get, put, TAG_BITS)
            get, put = _cache_accessors("valid", line, 1)
            self._add(CACHE_PARTITION, f"line{line}.valid", get, put, 1)
            get, put = _cache_accessors("dirty", line, 1)
            self._add(CACHE_PARTITION, f"line{line}.dirty", get, put, 1)

    def _build_register_elements(self) -> None:
        for index in range(NUM_GPRS):
            get, put = _reg_accessors(index)
            self._add(REGISTER_PARTITION, f"r{index}", get, put, 32)
        get, put = _reg_accessors(SP_INDEX)
        self._add(REGISTER_PARTITION, "sp", get, put, 32)
        get, put = _attr_accessors("pc", 0xFFFFFFFF)
        self._add(REGISTER_PARTITION, "pc", get, put, 32)
        get, put = _attr_accessors("psw", (1 << PSW_BITS) - 1)
        self._add(REGISTER_PARTITION, "psw", get, put, PSW_BITS)
        get, put = _attr_accessors("ir", 0xFFFFFFFF)
        self._add(REGISTER_PARTITION, "ir", get, put, 32)
        get, put = _attr_accessors("mar", 0xFFFFFFFF)
        self._add(REGISTER_PARTITION, "mar", get, put, 32)
        get, put = _attr_accessors("mdr", 0xFFFFFFFF)
        self._add(REGISTER_PARTITION, "mdr", get, put, 32)

    # -- enumeration ---------------------------------------------------------
    def location_space(self) -> LocationSpace:
        """All injectable bits as a :class:`LocationSpace` (2250 targets)."""
        return LocationSpace(self._targets)

    def element_width(self, partition: str, element: str) -> int:
        """Bit width of one state element."""
        return self._lookup(partition, element)[2]

    def _lookup(self, partition: str, element: str) -> Tuple[_Getter, _Setter, int]:
        try:
            return self._elements[(partition, element)]
        except KeyError:
            raise ScanChainError(f"no element {partition}/{element}") from None

    # -- bit access -----------------------------------------------------------
    def read_element(self, partition: str, element: str) -> int:
        """Read one state element's value through the chain."""
        get, _put, _width = self._lookup(partition, element)
        return get(self.cpu)

    def write_element(self, partition: str, element: str, value: int) -> None:
        """Write one state element's value through the chain."""
        _get, put, _width = self._lookup(partition, element)
        put(self.cpu, value)

    def read_bit(self, target: FaultTarget) -> int:
        """Read one bit (0 or 1)."""
        get, _put, width = self._lookup(target.partition, target.element)
        self._check_bit(target, width)
        return (get(self.cpu) >> target.bit) & 1

    def flip(self, target: FaultTarget) -> int:
        """Invert one bit; returns the new bit value.

        Implements GOOFI's injection: read the scan chain, invert the
        selected bit, write the chain back.
        """
        get, put, width = self._lookup(target.partition, target.element)
        self._check_bit(target, width)
        value = get(self.cpu) ^ (1 << target.bit)
        put(self.cpu, value)
        return (value >> target.bit) & 1

    @staticmethod
    def _check_bit(target: FaultTarget, width: int) -> None:
        if not 0 <= target.bit < width:
            raise ScanChainError(
                f"bit {target.bit} outside {target.element} ({width} bits)"
            )
