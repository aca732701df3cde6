"""SoftMC-like test infrastructure substrate.

The paper drives its DDR3/DDR4 chips with SoftMC, an FPGA-based memory
controller that gives the host precise control over individual DRAM
commands, refresh, and chip temperature, and uses an equivalent in-house
tester for LPDDR4.  This package models that infrastructure at the command
level on top of the behavioural chip model:

* :mod:`repro.softmc.commands` -- the DRAM command vocabulary and traces.
* :mod:`repro.softmc.temperature` -- the temperature-controlled chamber.
* :mod:`repro.softmc.host` -- the host-side controller (refresh control,
  raw row access, bulk hammering).
* :mod:`repro.softmc.reverse_engineer` -- discovery of the DRAM-internal
  row address remapping (Section 4.3).

Algorithm 1 itself runs in
:class:`~repro.core.characterization.RowHammerCharacterizer`, directly
against the chip model.
"""

from repro.softmc.commands import CommandKind, DramCommand, CommandTrace
from repro.softmc.host import SoftMCHost, RefreshEnabledError
from repro.softmc.temperature import TemperatureController
from repro.softmc.reverse_engineer import infer_row_mapping, MappingInference

__all__ = [
    "CommandKind",
    "DramCommand",
    "CommandTrace",
    "SoftMCHost",
    "RefreshEnabledError",
    "TemperatureController",
    "infer_row_mapping",
    "MappingInference",
]
