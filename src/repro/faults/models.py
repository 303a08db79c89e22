"""Fault descriptors and uniform sampling of fault locations and times.

A fault-injection campaign is a list of fully specified faults.  Following
the paper (§3.3.2), both the *location* (which state-element bit) and the
*time* (which dynamic instruction, i.e. the point in time an instruction
begins execution) are drawn with uniform sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Partition names.  ``cache`` and ``registers`` are the scan chain's
#: (the per-partition columns of Tables 2 and 3); ``memory`` holds the
#: stored RAM words of the memory fault model, ``code-image`` and
#: ``data-image`` the program-image words of pre-runtime SWIFI.
CACHE_PARTITION = "cache"
REGISTER_PARTITION = "registers"
MEMORY_PARTITION = "memory"
CODE_PARTITION = "code-image"
DATA_PARTITION = "data-image"


@dataclass(frozen=True)
class FaultTarget:
    """One injectable state-element bit.

    Attributes:
        partition: logical group the bit belongs to (e.g. ``"cache"`` or
            ``"registers"``), used for the per-partition result columns of
            Tables 2 and 3.
        element: name of the state element (e.g. ``"r3"``, ``"line11.data"``).
        bit: bit index within the element.
    """

    partition: str
    element: str
    bit: int

    def label(self) -> str:
        """Human-readable ``partition/element[bit]`` label."""
        return f"{self.partition}/{self.element}[{self.bit}]"


@dataclass(frozen=True)
class FaultDescriptor:
    """A fully specified single bit-flip fault.

    Attributes:
        target: which state-element bit to invert.
        time: dynamic instruction index at which the flip is applied,
            counted from the start of the workload (the flip happens just
            before that instruction begins execution).
    """

    target: FaultTarget
    time: int

    @property
    def targets(self) -> "Tuple[FaultTarget, ...]":
        """The flipped bits (a single one for this fault model).

        Multi-bit models (:class:`repro.faults.multibit.MultiBitFault`)
        provide the same attribute, so injectors handle both uniformly.
        """
        return (self.target,)

    def label(self) -> str:
        """Human-readable description used in logs and the database."""
        return f"{self.target.label()}@t={self.time}"


class LocationSpace:
    """The set of state-element bits a campaign may inject into.

    The space is an ordered list of :class:`FaultTarget`; order is stable so
    a (seed, index) pair identifies a location reproducibly.
    """

    def __init__(self, targets: Sequence[FaultTarget]):
        if not targets:
            raise ConfigurationError("location space must not be empty")
        self._targets: Tuple[FaultTarget, ...] = tuple(targets)

    def __len__(self) -> int:
        return len(self._targets)

    def __getitem__(self, index: int) -> FaultTarget:
        return self._targets[index]

    def __iter__(self):
        return iter(self._targets)

    @property
    def partitions(self) -> Tuple[str, ...]:
        """Distinct partition names, in first-appearance order."""
        seen: List[str] = []
        for target in self._targets:
            if target.partition not in seen:
                seen.append(target.partition)
        return tuple(seen)

    def partition_size(self, partition: str) -> int:
        """Number of injectable bits in ``partition``."""
        return sum(1 for t in self._targets if t.partition == partition)

    def restrict(self, partition: str) -> "LocationSpace":
        """A new space containing only ``partition``'s targets."""
        subset = [t for t in self._targets if t.partition == partition]
        if not subset:
            raise ConfigurationError(f"no targets in partition {partition!r}")
        return LocationSpace(subset)


def sample_fault_plan(
    space: LocationSpace,
    total_instructions: int,
    count: int,
    rng: np.random.Generator,
) -> List[FaultDescriptor]:
    """Draw ``count`` faults uniformly over (location, instruction time).

    Mirrors the paper's sampling: locations uniform over the chosen state
    elements, injection times uniform over the points in time at which the
    workload's dynamic instructions begin execution.

    Args:
        space: injectable locations.
        total_instructions: number of dynamic instructions in the reference
            execution of the workload; times are drawn from
            ``[0, total_instructions)``.
        count: number of faults to draw (sampling is with replacement, as
            with any uniform random campaign).
        rng: seeded NumPy generator; the single source of randomness.

    Returns:
        A list of fully specified :class:`FaultDescriptor`.
    """
    if count <= 0:
        raise ConfigurationError("fault count must be positive")
    if total_instructions <= 0:
        raise ConfigurationError("workload executes no instructions")
    location_indices = rng.integers(0, len(space), size=count)
    times = rng.integers(0, total_instructions, size=count)
    return [
        FaultDescriptor(target=space[int(loc)], time=int(time))
        for loc, time in zip(location_indices, times)
    ]
