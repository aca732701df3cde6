"""Tests for the double-sided hammer driver."""

import pickle

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.data_patterns import ROWSTRIPE0, worst_case_pattern
from repro.core.hammer import BitFlip, DoubleSidedHammer, HammerResult
from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip
from repro.dram.vulnerability import available_configurations

CONFIGURATIONS = [
    pytest.param(tn, mfr, id=f"{tn.value}-{mfr}") for tn, mfr in available_configurations()
]
FIELDS = ("bank", "row", "bit_index", "offset_from_victim", "expected_bit", "observed_bit")


class TestNeighbourhood:
    def test_aggressors_are_adjacent(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        assert sorted(hammer.aggressor_rows(10)) == [9, 11]

    def test_neighbourhood_contains_victim_and_radius(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        neighbourhood = hammer.neighbourhood(10)
        assert 10 in neighbourhood
        radius = ddr4_chip.profile.blast_radius + 1
        assert min(neighbourhood) == 10 - radius
        assert max(neighbourhood) == 10 + radius

    def test_testable_victims_exclude_edges(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        victims = hammer.testable_victims()
        assert 0 not in victims
        assert ddr4_chip.geometry.rows_per_bank - 1 not in victims
        assert len(victims) > 0


class TestWritePattern:
    def test_alternating_bytes_by_parity(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        written = hammer.write_pattern(0, 10, ROWSTRIPE0)
        assert written[10] == 0x00
        assert written[9] == 0xFF
        assert written[11] == 0xFF
        assert written[12] == 0x00
        for row, byte in written.items():
            assert np.all(ddr4_chip.read_row(0, row) == byte)


class TestHammerVictim:
    def test_no_flips_for_robust_chip(self, robust_chip):
        hammer = DoubleSidedHammer(robust_chip)
        result = hammer.hammer_victim(0, 20, 150_000)
        assert result.num_bit_flips == 0
        assert result.aggressor_rows == (19, 21)

    def test_flips_for_vulnerable_chip_at_weakest_row(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        _bank, victim, bit = ddr4_chip.weakest_cell
        result = hammer.hammer_victim(0, victim, int(ddr4_chip.hcfirst_target * 1.2))
        assert result.num_bit_flips > 0
        assert any(flip.offset_from_victim == 0 for flip in result.flips)

    def test_no_flips_in_aggressor_rows(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        for victim in hammer.testable_victims()[::5]:
            result = hammer.hammer_victim(0, victim, 150_000)
            assert not result.flips_at_offset(-1)
            assert not result.flips_at_offset(1)

    def test_restore_clears_flips_for_next_run(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        _bank, victim, _bit = ddr4_chip.weakest_cell
        hc = int(ddr4_chip.hcfirst_target * 1.2)
        first = hammer.hammer_victim(0, victim, hc, restore=True)
        second = hammer.hammer_victim(0, victim, hc, restore=True)
        # With restoration the two runs observe the same flips rather than
        # accumulating stale corrupted data.
        assert {f.cell for f in first.flips} == {f.cell for f in second.flips}

    def test_flip_metadata_consistent(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        _bank, victim, _bit = ddr4_chip.weakest_cell
        result = hammer.hammer_victim(0, victim, int(ddr4_chip.hcfirst_target * 1.5))
        for flip in result.flips:
            assert flip.row == victim + flip.offset_from_victim
            assert flip.observed_bit != flip.expected_bit
            assert 0 <= flip.bit_index < ddr4_chip.geometry.row_bits
            assert flip.word64_index == flip.bit_index // 64

    def test_single_sided_weaker_than_double_sided(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        _bank, victim, _bit = ddr4_chip.weakest_cell
        hc = int(ddr4_chip.hcfirst_target * 1.2)
        double = hammer.hammer_victim(0, victim, hc)
        single = hammer.hammer_single_sided(0, victim, hc)
        assert len(single.victim_flips) <= len(double.victim_flips)

    def test_default_pattern_is_worst_case(self, ddr4_chip):
        hammer = DoubleSidedHammer(ddr4_chip)
        result = hammer.hammer_victim(0, 20, 1_000)
        assert result.data_pattern.name == worst_case_pattern(ddr4_chip.profile).name


class TestHammerResult:
    def test_flips_per_word64(self):
        flips = [
            BitFlip(0, 5, 3, 0, 0, 1),
            BitFlip(0, 5, 60, 0, 0, 1),
            BitFlip(0, 5, 70, 0, 0, 1),
        ]
        result = HammerResult(0, 5, (4, 6), 1000, ROWSTRIPE0, flips)
        counts = result.flips_per_word64()
        assert counts[(0, 5, 0)] == 2
        assert counts[(0, 5, 1)] == 1
        assert result.num_bit_flips == 3


class TestBitFlipRecord:
    def test_repr_matches_the_dataclass_format(self):
        # Pinned payload digests hash this exact text.
        assert repr(BitFlip(0, 5, 3, -1, 0, 1)) == (
            "BitFlip(bank=0, row=5, bit_index=3, offset_from_victim=-1, "
            "expected_bit=0, observed_bit=1)"
        )

    def test_is_a_plain_six_tuple(self):
        flip = BitFlip(0, 5, 70, 0, 1, 0)
        assert BitFlip._fields == FIELDS
        assert flip == (0, 5, 70, 0, 1, 0)
        assert hash(flip) == hash((0, 5, 70, 0, 1, 0))
        assert flip.cell == (0, 5, 70)
        assert flip.word64_index == 1
        assert pickle.loads(pickle.dumps(flip)) == flip


def reference_flips(chip, bank, victim_row, written):
    """Per-bit walk of the read-back diff: (row, ascending bit) order."""
    observed = chip.read_rows(bank, list(written))
    flips = []
    for row, row_bytes in zip(written, observed):
        for byte_index, observed_byte in enumerate(row_bytes.tolist()):
            for bit in range(8):
                expected_bit = (written[row] >> (7 - bit)) & 1
                observed_bit = (observed_byte >> (7 - bit)) & 1
                if expected_bit != observed_bit:
                    flips.append(
                        (bank, row, byte_index * 8 + bit, row - victim_row,
                         expected_bit, observed_bit)
                    )
    return flips


class TestObserveFlipsDifferential:
    """The column-by-column diff equals a per-bit reference walk."""

    GEOMETRY = ChipGeometry(banks=1, rows_per_bank=48, row_bytes=32)

    def draw_case(self, data, type_node, manufacturer):
        """A fresh chip of the configuration, a victim row and a hammer count."""
        seed = data.draw(st.integers(0, 3), label="seed")
        chip = make_chip(type_node, manufacturer, seed=seed, geometry=self.GEOMETRY)
        victims = DoubleSidedHammer(chip).testable_victims()
        _bank, weakest_row, _bit = chip.weakest_cell
        if weakest_row in victims:
            victims.append(weakest_row)  # weight the draw towards flips
        victim = data.draw(st.sampled_from(victims), label="victim")
        scale = data.draw(st.sampled_from([0.5, 1.0, 1.5, 3.0, 10.0]), label="scale")
        hammer_count = max(1, int(chip.hcfirst_target * scale))
        return chip, victim, hammer_count

    @pytest.mark.parametrize("type_node,manufacturer", CONFIGURATIONS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_flips_equal_per_bit_reference(self, type_node, manufacturer, data):
        chip, victim, hammer_count = self.draw_case(data, type_node, manufacturer)
        hammer = DoubleSidedHammer(chip)
        written = hammer.write_pattern(0, victim, worst_case_pattern(chip.profile))
        result = hammer.hammer_victim(0, victim, hammer_count, prepare=False, restore=False)
        event("flips observed" if result.flips else "no flips")
        assert result.flips == reference_flips(chip, 0, victim, written)
        assert hammer.observe_flips(0, victim, written) == result.flips
        for flip in result.flips:
            assert type(flip) is BitFlip
            assert all(type(value) is int for value in flip)
            assert repr(flip) == "BitFlip(" + ", ".join(
                f"{name}={value}" for name, value in zip(FIELDS, flip)
            ) + ")"

    @pytest.mark.parametrize("type_node,manufacturer", CONFIGURATIONS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_restore_rewrites_exactly_the_flipped_rows(self, type_node, manufacturer, data):
        chip, victim, hammer_count = self.draw_case(data, type_node, manufacturer)
        hammer = DoubleSidedHammer(chip)
        written = hammer.write_pattern(0, victim, worst_case_pattern(chip.profile))
        writes = []
        original_write_rows = chip.write_rows

        def recording_write_rows(bank, rows, values):
            writes.append(list(rows))
            return original_write_rows(bank, rows, values)

        chip.write_rows = recording_write_rows
        result = hammer.hammer_victim(0, victim, hammer_count, prepare=False, restore=True)
        flipped_rows = sorted({flip.row for flip in result.flips})
        event("flips observed" if flipped_rows else "no flips")
        assert writes == ([flipped_rows] if flipped_rows else [])
        rows = list(written)
        expected = np.repeat(
            np.array([written[row] for row in rows], dtype=np.uint8), self.GEOMETRY.row_bytes
        ).reshape(len(rows), -1)
        assert np.array_equal(chip.read_rows(0, rows), expected)
