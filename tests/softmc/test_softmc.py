"""Tests for the SoftMC-like test infrastructure."""

import numpy as np
import pytest

from repro.dram.geometry import ChipGeometry
from repro.dram.population import make_chip
from repro.softmc.commands import CommandKind, CommandTrace, DramCommand
from repro.softmc.host import RefreshEnabledError, SoftMCHost
from repro.softmc.reverse_engineer import infer_row_mapping
from repro.softmc.temperature import TemperatureController

GEOMETRY = ChipGeometry(banks=1, rows_per_bank=48, row_bytes=32)


class TestCommands:
    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError):
            DramCommand(CommandKind.ACT, bank=0, row=0, repeat=0)

    def test_trace_counts_expand_repeats(self):
        trace = CommandTrace()
        trace.append(DramCommand(CommandKind.ACT, bank=0, row=1, repeat=100))
        trace.append(DramCommand(CommandKind.ACT, bank=0, row=2, repeat=50))
        trace.append(DramCommand(CommandKind.PRE, bank=0, row=2))
        assert trace.count(CommandKind.ACT) == 150
        assert trace.count(CommandKind.PRE) == 1
        assert trace.activations_per_row() == {(0, 1): 100, (0, 2): 50}
        assert len(trace) == 3


class TestTemperature:
    def test_stabilizes_at_set_point(self):
        controller = TemperatureController()
        controller.set_target(50.0)
        final = controller.stabilize()
        assert final == pytest.approx(50.0, abs=controller.tolerance_celsius)
        assert controller.is_stable

    def test_rejects_out_of_range_set_point(self):
        with pytest.raises(ValueError):
            TemperatureController().set_target(500.0)


class TestHost:
    def _host(self, seed=1, target=40_000):
        chip = make_chip("DDR4-new", "A", seed=seed, geometry=GEOMETRY, hcfirst_target=target)
        return SoftMCHost(chip)

    def test_write_read_round_trip(self):
        host = self._host()
        host.write_row(0, 5, 0x3C)
        assert np.all(host.read_row(0, 5) == 0x3C)
        kinds = [command.kind for command in host.trace]
        assert kinds.count(CommandKind.WR) == 1
        assert kinds.count(CommandKind.RD) == 1

    def test_hammer_requires_refresh_disabled(self):
        host = self._host()
        with pytest.raises(RefreshEnabledError):
            host.hammer_pair(0, 10, 12, 1000)
        host.disable_refresh()
        host.hammer_pair(0, 10, 12, 1000)  # no exception

    def test_enable_refresh_restores_charge(self):
        host = self._host()
        victim = host.chip.weakest_cell[1]
        host.write_row(0, victim, 0x00)
        host.disable_refresh()
        host.activate(0, victim - 1, int(host.chip.hcfirst_target))
        host.enable_refresh()
        # Re-enabling refresh clears accumulated exposure: further partial
        # hammering cannot complete the attack.
        host.disable_refresh()
        flips = host.chip.hammer_pair(0, victim - 1, victim + 1, int(host.chip.hcfirst_target * 0.4))
        assert flips == 0

    def test_hammer_duration_and_window_check(self):
        host = self._host()
        assert host.hammer_duration_ms(150_000) < 32.0
        assert host.fits_in_refresh_window(150_000)
        assert not host.fits_in_refresh_window(500_000)

    def test_set_temperature_records_command(self):
        host = self._host()
        host.set_temperature(50.0)
        assert any(c.kind is CommandKind.SET_TEMPERATURE for c in host.trace)


class TestReverseEngineering:
    def test_identity_mapping_inferred(self):
        chip = make_chip("DDR4-new", "A", seed=6, geometry=GEOMETRY, hcfirst_target=15_000)
        inference = infer_row_mapping(chip, hammer_count=140_000)
        assert inference.inferred_mapping == "identity"

    def test_paired_mapping_inferred(self):
        chip = make_chip("LPDDR4-1x", "B", seed=7, geometry=GEOMETRY, hcfirst_target=15_000)
        inference = infer_row_mapping(chip, hammer_count=140_000)
        assert inference.inferred_mapping == "paired"

    def test_robust_chip_yields_unknown(self):
        chip = make_chip("DDR4-new", "A", seed=8, geometry=GEOMETRY, hcfirst_target=800_000)
        inference = infer_row_mapping(chip, hammer_count=50_000)
        assert inference.inferred_mapping == "unknown"
        assert inference.adjacent_offsets == []
