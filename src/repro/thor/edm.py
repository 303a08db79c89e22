"""Hardware error-detection mechanisms (the paper's Table 1).

Each mechanism is identified by a :class:`Mechanism` name.  Inside the
simulator a firing mechanism raises :class:`HardwareDetection`, which the
CPU's step loop catches and converts into a :class:`DetectionEvent` — the
value the rest of the system sees.  A detection freezes the CPU, matching
the experiment termination condition ("a debug event: an error has been
detected").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Mechanism(enum.Enum):
    """Error-detection mechanisms of the simulated CPU (Table 1)."""

    BUS_ERROR = "BUS ERROR"
    ADDRESS_ERROR = "ADDRESS ERROR"
    INSTRUCTION_ERROR = "INSTRUCTION ERROR"
    JUMP_ERROR = "JUMP ERROR"
    CONSTRAINT_ERROR = "CONSTRAINT ERROR"
    ACCESS_CHECK = "ACCESS CHECK"
    STORAGE_ERROR = "STORAGE ERROR"
    OVERFLOW_CHECK = "OVERFLOW CHECK"
    UNDERFLOW_CHECK = "UNDERFLOW CHECK"
    DIVISION_CHECK = "DIVISION CHECK"
    ILLEGAL_OPERATION = "ILLEGAL OPERATION"
    DATA_ERROR = "DATA ERROR"
    CONTROL_FLOW_ERROR = "CONTROL FLOW ERROR"
    COMPARATOR_ERROR = "MASTER/SLAVE COMPARATOR ERROR"
    #: Detected by the experiment harness rather than an identified
    #: mechanism (e.g. a workload that stopped making progress); the
    #: paper's "Other Errors" row.
    OTHER = "OTHER"


@dataclass(frozen=True)
class DetectionEvent:
    """A hardware detection observed during execution.

    Attributes:
        mechanism: which Table 1 mechanism fired.
        pc: program counter of the instruction being executed.
        instruction_index: dynamic instruction count at the detection.
        detail: human-readable context (offending address, opcode, ...).
    """

    mechanism: Mechanism
    pc: int
    instruction_index: int
    detail: str = ""


class HardwareDetection(Exception):
    """Internal signal: a detection mechanism fired.

    Raised inside the execute path and caught by :meth:`CPU.step`; it is
    an implementation detail and never escapes the CPU's public API.
    """

    def __init__(self, mechanism: Mechanism, detail: str = ""):
        super().__init__(f"{mechanism.value}: {detail}")
        self.mechanism = mechanism
        self.detail = detail


def raise_detection(mechanism: Mechanism, detail: str = "") -> None:
    """Fire a detection mechanism (convenience wrapper)."""
    raise HardwareDetection(mechanism, detail)


def mechanism_by_name(name: str) -> Optional[Mechanism]:
    """Look up a mechanism from its Table 1 display name."""
    for mechanism in Mechanism:
        if mechanism.value == name:
            return mechanism
    return None
