"""DRAM command vocabulary and command traces.

SoftMC exposes DRAM to the host as a stream of low-level commands.  The
host in this package records every command it issues so that tests and
examples can assert properties of the generated command stream (for
example, that hammering only happens with refresh disabled).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional


class CommandKind(enum.Enum):
    """DRAM and infrastructure commands the host can issue."""

    ACT = "ACT"              # activate (open) a row
    PRE = "PRE"              # precharge (close) the open row
    RD = "RD"                # read a column burst
    WR = "WR"                # write a column burst
    REF = "REF"              # refresh command
    REFRESH_DISABLE = "REFRESH_DISABLE"
    REFRESH_ENABLE = "REFRESH_ENABLE"
    SET_TEMPERATURE = "SET_TEMPERATURE"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class DramCommand:
    """One issued command with its arguments.

    ``bank`` and ``row`` are meaningful for ACT/PRE/RD/WR/REF-row commands;
    ``repeat`` compresses bulk hammering (``repeat`` back-to-back issues of
    the same command) so traces of 150k-hammer loops stay small.
    """

    kind: CommandKind
    bank: Optional[int] = None
    row: Optional[int] = None
    repeat: int = 1
    payload: Optional[float] = None

    def __post_init__(self) -> None:
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")


@dataclass
class CommandTrace:
    """An ordered record of issued commands."""

    commands: List[DramCommand] = field(default_factory=list)

    def append(self, command: DramCommand) -> None:
        """Record one command."""
        self.commands.append(command)

    def clear(self) -> None:
        """Drop all recorded commands."""
        self.commands.clear()

    def count(self, kind: CommandKind) -> int:
        """Total number of issues of a command kind (expanding repeats)."""
        return sum(c.repeat for c in self.commands if c.kind == kind)

    def activations_per_row(self) -> Dict[tuple, int]:
        """Activation count per (bank, row) across the trace."""
        counts: Dict[tuple, int] = {}
        for command in self.commands:
            if command.kind is CommandKind.ACT:
                key = (command.bank, command.row)
                counts[key] = counts.get(key, 0) + command.repeat
        return counts

    def __iter__(self) -> Iterator[DramCommand]:
        return iter(self.commands)

    def __len__(self) -> int:
        return len(self.commands)
