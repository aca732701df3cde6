"""Worst-case double-sided hammering of a single victim row.

This module implements the core loop of Algorithm 1 (lines 9-16) for one
victim row: prepare the data pattern in the victim's neighbourhood, disable
refresh, refresh the victim so that observed flips cannot be retention
failures, hammer the two physically adjacent aggressor rows, and read the
neighbourhood back to record bit flips.

Flip records are tuple-backed (:class:`BitFlip` is a ``NamedTuple``) and the
read-back diff builds them column by column: one ``np.nonzero`` over the
unpacked XOR of read-back and written bytes, one ``tolist`` per field, then
one C-level pass that packs the columns into records.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.data_patterns import DataPattern, worst_case_pattern
from repro.dram.chip import DramChip


class BitFlip(NamedTuple):
    """One observed RowHammer bit flip.

    A flip is a tuple of six plain ``int`` fields, so it compares equal to
    (and hashes like) the plain 6-tuple of the same values, sorts
    field by field, and pickles compactly.

    Attributes
    ----------
    bank, row:
        Logical location of the flipped cell.
    bit_index:
        Bit position within the row (MSB-first within each byte).
    offset_from_victim:
        Signed logical-row distance from the victim row.
    expected_bit / observed_bit:
        The value written before hammering and the value read back.
    """

    bank: int
    row: int
    bit_index: int
    offset_from_victim: int
    expected_bit: int
    observed_bit: int

    @property
    def word64_index(self) -> int:
        """Index of the 64-bit word within the row containing this flip."""
        return self.bit_index // 64

    @property
    def cell(self) -> Tuple[int, int, int]:
        """Hashable identity of the flipped cell: (bank, row, bit index)."""
        return (self.bank, self.row, self.bit_index)


# Packs one zipped (bank, row, bit, offset, expected, observed) tuple into a
# BitFlip without the Python-level ``__new__`` a NamedTuple call goes through.
_pack_flip = partial(tuple.__new__, BitFlip)


@dataclass
class HammerResult:
    """Outcome of hammering one victim row at one hammer count."""

    bank: int
    victim_row: int
    aggressor_rows: Tuple[int, ...]
    hammer_count: int
    data_pattern: DataPattern
    flips: List[BitFlip] = field(default_factory=list)

    @property
    def num_bit_flips(self) -> int:
        """Total number of observed bit flips in the victim's neighbourhood."""
        return len(self.flips)

    @property
    def victim_flips(self) -> List[BitFlip]:
        """Bit flips located in the victim row itself."""
        return [flip for flip in self.flips if flip.offset_from_victim == 0]

    def flips_at_offset(self, offset: int) -> List[BitFlip]:
        """Bit flips at a given signed row offset from the victim."""
        return [flip for flip in self.flips if flip.offset_from_victim == offset]

    def flips_per_word64(self) -> Dict[Tuple[int, int, int], int]:
        """Number of flips per 64-bit word, keyed by (bank, row, word index)."""
        return Counter((flip.bank, flip.row, flip.word64_index) for flip in self.flips)


class DoubleSidedHammer:
    """Executes worst-case double-sided RowHammer tests against one chip.

    Parameters
    ----------
    chip:
        The chip under test.
    neighbourhood_margin:
        Extra rows beyond the profile's blast radius to observe, so that the
        analysis can verify no flips occur outside the expected radius.
    """

    def __init__(self, chip: DramChip, neighbourhood_margin: int = 1) -> None:
        self.chip = chip
        self.neighbourhood_margin = neighbourhood_margin

    # ------------------------------------------------------------------
    # Neighbourhood helpers
    # ------------------------------------------------------------------
    def aggressor_rows(self, victim_row: int) -> List[int]:
        """Logical aggressor rows for a worst-case double-sided hammer."""
        rows_per_bank = self.chip.geometry.rows_per_bank
        aggressors = self.chip.remapper.aggressors_for(victim_row)
        return [row for row in aggressors if 0 <= row < rows_per_bank]

    def _radius(self) -> int:
        """Rows observed on each side of a victim."""
        radius = self.chip.profile.blast_radius + self.neighbourhood_margin
        return 2 * radius if self.chip.remapper.name == "paired" else radius

    def neighbourhood(self, victim_row: int) -> List[int]:
        """Logical rows observed around the victim (victim included)."""
        radius = self._radius()
        low = max(0, victim_row - radius)
        high = min(self.chip.geometry.rows_per_bank - 1, victim_row + radius)
        return list(range(low, high + 1))

    def testable_victims(self, bank: int = 0) -> List[int]:
        """Victim rows whose full double-sided neighbourhood is in range."""
        radius = self._radius()
        return list(range(radius, self.chip.geometry.rows_per_bank - radius))

    # ------------------------------------------------------------------
    # Pattern preparation and observation
    # ------------------------------------------------------------------
    def _pattern_bytes(self, victim_row: int, pattern: DataPattern) -> Dict[int, int]:
        """The byte each neighbourhood row holds under the data pattern.

        Rows whose physical wordline shares the victim wordline's parity hold
        the victim byte, others the aggressor byte (Section 4.3, footnote 3).
        """
        to_physical = self.chip.remapper.logical_to_physical
        parity = to_physical(victim_row) % 2
        return {
            row: pattern.victim_byte if to_physical(row) % 2 == parity else pattern.aggressor_byte
            for row in self.neighbourhood(victim_row)
        }

    def write_pattern(self, bank: int, victim_row: int, pattern: DataPattern) -> Dict[int, int]:
        """Write the data pattern into the victim's neighbourhood.

        Returns the byte written to each row so the read-back can compute
        expected data.
        """
        written = self._pattern_bytes(victim_row, pattern)
        self.chip.write_rows(bank, list(written), list(written.values()))
        return written

    def observe_flips(self, bank: int, victim_row: int, written: Dict[int, int]) -> List[BitFlip]:
        """Read back the neighbourhood and diff against the written pattern.

        The whole neighbourhood is read in one batched (ECC-decoded) call
        and diffed as a matrix; flips are emitted in (row, ascending bit)
        order.
        """
        return self._diff_neighbourhood(bank, victim_row, written)[0]

    def _diff_neighbourhood(
        self, bank: int, victim_row: int, written: Dict[int, int]
    ) -> Tuple[List[BitFlip], List[int]]:
        """The flips of :meth:`observe_flips` and the sorted rows they hit."""
        rows = np.fromiter(written, dtype=np.int64, count=len(written))
        written_bytes = np.fromiter(written.values(), dtype=np.uint8, count=len(written))
        diff = self.chip.read_rows(bank, list(written)) ^ written_bytes[:, None]
        # nonzero of a C-contiguous 2-D matrix is row-major: (row, ascending bit).
        row_index, bit_index = np.nonzero(np.unpackbits(diff, axis=1))
        flipped = rows[row_index]
        expected = (written_bytes[row_index] >> (7 - (bit_index & 7))) & 1
        columns = (flipped, bit_index, flipped - victim_row, expected, expected ^ 1)
        flips = list(map(_pack_flip, zip(repeat(bank), *(c.tolist() for c in columns))))
        return flips, sorted(rows[diff.any(axis=1)].tolist())

    # ------------------------------------------------------------------
    # Hammer execution
    # ------------------------------------------------------------------
    def hammer_victim(
        self,
        bank: int,
        victim_row: int,
        hammer_count: int,
        data_pattern: Optional[DataPattern] = None,
        prepare: bool = True,
        restore: bool = True,
    ) -> HammerResult:
        """Run one double-sided hammer test against a victim row.

        Parameters
        ----------
        bank, victim_row:
            Victim location.
        hammer_count:
            Number of hammers (activations of *each* aggressor row).
        data_pattern:
            Pattern to write before hammering; defaults to the profile's
            worst-case pattern, as the paper does for all studies after
            Section 5.2.
        prepare:
            Whether to (re)write the pattern before hammering.  Disable when
            a caller has already laid out the full bank.
        restore:
            Whether to rewrite rows that experienced flips afterwards
            (Algorithm 1, line 16).
        """
        if data_pattern is None:
            data_pattern = worst_case_pattern(self.chip.profile)
        geometry = self.chip.geometry
        geometry.validate_address(bank, victim_row)

        if prepare:
            written = self.write_pattern(bank, victim_row, data_pattern)
        else:
            written = self._pattern_bytes(victim_row, data_pattern)

        aggressors = self.aggressor_rows(victim_row)
        # Algorithm 1 line 10: refresh the victim so flips are not retention
        # failures.  (Refresh is assumed disabled around the core loop; the
        # chip model has no background refresh, matching that setting.)
        self.chip.refresh_row(bank, victim_row)

        if len(aggressors) >= 2:
            self.chip.hammer_pair(bank, aggressors[0], aggressors[-1], hammer_count)
        elif len(aggressors) == 1:
            self.chip.activate(bank, aggressors[0], hammer_count)

        flips, flipped_rows = self._diff_neighbourhood(bank, victim_row, written)
        result = HammerResult(
            bank=bank,
            victim_row=victim_row,
            aggressor_rows=tuple(aggressors),
            hammer_count=hammer_count,
            data_pattern=data_pattern,
            flips=flips,
        )
        if restore and flipped_rows:
            # Algorithm 1 line 16: rewrite every row the diff found flipped.
            self.chip.write_rows(bank, flipped_rows, [written[row] for row in flipped_rows])
        return result

    def hammer_single_sided(
        self,
        bank: int,
        victim_row: int,
        hammer_count: int,
        data_pattern: Optional[DataPattern] = None,
    ) -> HammerResult:
        """Run a single-sided hammer (only one aggressor row is activated).

        Used to demonstrate that double-sided hammering is the worst case
        (Section 4.3).
        """
        if data_pattern is None:
            data_pattern = worst_case_pattern(self.chip.profile)
        written = self.write_pattern(bank, victim_row, data_pattern)
        aggressors = self.aggressor_rows(victim_row)
        self.chip.refresh_row(bank, victim_row)
        if aggressors:
            self.chip.activate(bank, aggressors[0], hammer_count)
        flips = self.observe_flips(bank, victim_row, written)
        return HammerResult(
            bank=bank,
            victim_row=victim_row,
            aggressor_rows=tuple(aggressors[:1]),
            hammer_count=hammer_count,
            data_pattern=data_pattern,
            flips=flips,
        )
