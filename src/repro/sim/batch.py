"""A group of independent simulations of one system configuration.

A :class:`SimulationBatch` runs each of its simulations through
:class:`~repro.sim.system.Simulation`, one after another, in the chosen
step mode.  The Figure 10 study uses it for a baseline unit's alone-IPC
group (one single-core simulation per core of the mix), so the group is one
call with one set of results.

The batch adds no execution strategy of its own.  An earlier sim-major
numpy kernel stepped a batch's simulations in lockstep, but it ran at
0.19-0.86x of the event loop at every batch size the harness builds; it was
removed, and ``docs/kernel_spike.md`` records the measurements.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.sim.config import SystemConfig
from repro.sim.system import Simulation, SimulationResult
from repro.sim.trace import TraceRecord

__all__ = ["SimulationBatch"]


class SimulationBatch:
    """A batch of independent simulations sharing one system configuration.

    Parameters
    ----------
    config:
        The shared :class:`~repro.sim.config.SystemConfig`.
    trace_sets:
        One trace set per simulation; each trace set holds one trace per
        core (core counts may differ between simulations).
    mitigations:
        Optional list of per-simulation mitigation mechanism instances
        (``None`` entries run unmitigated).  Each simulation needs its own
        instance -- mechanisms carry per-run state.
    step_mode:
        The :class:`~repro.sim.system.Simulation` step mode of every run.
    """

    def __init__(
        self,
        config: SystemConfig,
        trace_sets: Sequence[Sequence[Sequence[TraceRecord]]],
        mitigations: Optional[Sequence] = None,
        step_mode: str = "event",
    ) -> None:
        if mitigations is None:
            mitigations = [None] * len(trace_sets)
        if len(mitigations) != len(trace_sets):
            raise ValueError("one mitigation entry per simulation (or None)")
        self.config = config
        self.trace_sets = trace_sets
        self.mitigations = mitigations
        self.step_mode = step_mode
        self._ran = False

    def run(self, dram_cycles: int) -> List[SimulationResult]:
        """Run every simulation for ``dram_cycles`` DRAM cycles.

        Single-shot: the mechanisms carry mutated state after a run, so a
        second run would not reproduce the first.
        """
        if self._ran:
            raise RuntimeError("SimulationBatch.run is single-shot; build a new batch")
        self._ran = True
        return [
            Simulation(
                self.config, traces, mitigation=mitigation, step_mode=self.step_mode
            ).run(dram_cycles)
            for traces, mitigation in zip(self.trace_sets, self.mitigations)
        ]
