"""Figure 10 harness: mitigation-mechanism overhead versus ``HC_first``.

For every (mechanism, HC_first) point the harness simulates a set of
multi-programmed workload mixes with and without the mechanism, computes

* the DRAM bandwidth overhead the mechanism imposes (Figure 10a), and
* the weighted speedup normalized to the no-mitigation baseline
  (Figure 10b),

and reports the average, minimum and maximum across mixes, mirroring the
paper's error bars.  Mechanisms are only evaluated at the ``HC_first``
values where their published designs apply (Section 6.1): ProHIT and MRLoc
at 2000 only, increased refresh rate and non-ideal TWiCe at 32k and above.

Every simulation runs through :class:`~repro.sim.system.Simulation` in the
config's step mode.  A baseline unit's alone-IPC group (one single-core run
per core of the mix) is one :class:`~repro.sim.batch.SimulationBatch` call.

Work units
----------
The registered studies are work-unit decompositions (see
:mod:`repro.experiments.study`): one *baseline* unit per workload mix (the
no-mitigation run plus the per-core alone-IPC runs) and one *cell* unit per
evaluable (mechanism, HC_first, mix) grid point.  Every unit rebuilds its
mix's traces deterministically from the config, simulates independently,
and returns raw IPCs/overheads; the merge computes every point's
statistics from them.  A direct
``get_study("fig10-mitigations").run(None, config)`` runs the units
serially and merges them, so it returns exactly a session's payload, which
is the same for every executor and cache state.  The oracle is the
``step_mode="cycle"`` simulator: both step modes give identical payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.study import WorkUnit, register_study
from repro.mitigations.base import MitigationConfig
from repro.mitigations.registry import MECHANISM_FACTORIES, build_mechanism, is_evaluable
from repro.sim.batch import SimulationBatch
from repro.sim.config import SystemConfig
from repro.sim.metrics import normalized_performance, weighted_speedup
from repro.sim.system import STEP_MODES, Simulation
from repro.sim.workloads import make_workload_mixes

#: Default HC_first sweep of Figure 10 (200k down to 64).
DEFAULT_HCFIRST_SWEEP: Tuple[int, ...] = (
    200_000,
    100_000,
    50_000,
    25_600,
    12_800,
    6_400,
    3_200,
    2_000,
    1_024,
    512,
    256,
    128,
    64,
)

#: Default mechanism set of Figure 10.
DEFAULT_MECHANISMS: Tuple[str, ...] = (
    "IncreasedRefresh",
    "PARA",
    "ProHIT",
    "MRLoc",
    "TWiCe",
    "TWiCe-ideal",
    "Ideal",
)


@dataclass
class MitigationStudyPoint:
    """Results of one (mechanism, HC_first) evaluation point."""

    mechanism: str
    hcfirst: int
    normalized_performance_avg: float
    normalized_performance_min: float
    normalized_performance_max: float
    bandwidth_overhead_avg: float
    bandwidth_overhead_min: float
    bandwidth_overhead_max: float
    workloads_evaluated: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "mechanism": self.mechanism,
            "hcfirst": self.hcfirst,
            "normalized_performance_avg": self.normalized_performance_avg,
            "normalized_performance_min": self.normalized_performance_min,
            "normalized_performance_max": self.normalized_performance_max,
            "bandwidth_overhead_avg": self.bandwidth_overhead_avg,
            "bandwidth_overhead_min": self.bandwidth_overhead_min,
            "bandwidth_overhead_max": self.bandwidth_overhead_max,
            "workloads_evaluated": self.workloads_evaluated,
        }


@dataclass
class MitigationStudyResult:
    """All evaluation points of one Figure 10 run."""

    points: List[MitigationStudyPoint] = field(default_factory=list)

    def series_for(self, mechanism: str) -> Dict[int, MitigationStudyPoint]:
        """Points of one mechanism keyed by HC_first (descending vulnerability)."""
        return {
            point.hcfirst: point
            for point in sorted(self.points, key=lambda p: -p.hcfirst)
            if point.mechanism == mechanism
        }

    def mechanisms(self) -> List[str]:
        names: List[str] = []
        for point in self.points:
            if point.mechanism not in names:
                names.append(point.mechanism)
        return names

    def performance_at(self, mechanism: str, hcfirst: int) -> Optional[float]:
        """Average normalized performance of a mechanism at one HC_first."""
        for point in self.points:
            if point.mechanism == mechanism and point.hcfirst == hcfirst:
                return point.normalized_performance_avg
        return None


@dataclass(frozen=True)
class MitigationStudyConfig:
    """Parameters of the registered Figure 10 mitigation study.

    The simulated system is Table 6's 8-core system with ``rows_per_bank``
    rows per bank; it and the ``num_mixes`` seeded workload mixes are
    described by value rather than passed as objects, so the config can key
    the result cache.

    Attributes
    ----------
    hcfirst_values, mechanisms:
        The sweep axes of Figure 10.
    num_mixes:
        Multi-programmed mixes to evaluate.  The paper uses 48 (see
        :class:`FullMitigationStudyConfig`); the default is sized for a
        quick run.
    dram_cycles, requests_per_core:
        Length of each simulation and of each core's trace.
    respect_design_constraints:
        When true (the default, matching the paper), mechanisms are skipped
        at HC_first values where their published design does not apply.
    time_scale:
        Optional threshold scaling for counter-based mechanisms, within
        (0, 1] (see :class:`repro.mitigations.base.MitigationConfig`).  The
        default of 1.0 models the mechanisms faithfully; values below 1.0
        compress the refresh window into the simulated interval, which
        over-approximates the overhead of counter-based mechanisms on short
        runs.
    """

    hcfirst_values: Tuple[int, ...] = DEFAULT_HCFIRST_SWEEP
    mechanisms: Tuple[str, ...] = DEFAULT_MECHANISMS
    num_mixes: int = 4
    rows_per_bank: int = 4096
    dram_cycles: int = 20_000
    requests_per_core: int = 4_000
    seed: int = 0
    respect_design_constraints: bool = True
    time_scale: float = 1.0
    #: Simulation stepping strategy; ``"cycle"`` is the bit-identical
    #: reference implementation (see :class:`repro.sim.system.Simulation`).
    step_mode: str = "event"

    def __post_init__(self) -> None:
        if not self.hcfirst_values or any(hc <= 0 for hc in self.hcfirst_values):
            raise ValueError("hcfirst_values must hold positive values")
        if len(set(self.hcfirst_values)) != len(self.hcfirst_values):
            raise ValueError(f"hcfirst_values repeats an entry: {self.hcfirst_values}")
        if not self.mechanisms:
            raise ValueError("at least one mechanism is required")
        if len(set(self.mechanisms)) != len(self.mechanisms):
            raise ValueError(f"mechanisms repeats an entry: {self.mechanisms}")
        unknown = [name for name in self.mechanisms if name not in MECHANISM_FACTORIES]
        if unknown:
            raise ValueError(
                f"unknown mechanisms {unknown}; available: {list(MECHANISM_FACTORIES)}"
            )
        if self.num_mixes < 1:
            raise ValueError("num_mixes must be at least 1")
        for name in ("rows_per_bank", "dram_cycles", "requests_per_core"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0.0 < self.time_scale <= 1.0:
            raise ValueError("time_scale must be within (0, 1]")
        if self.step_mode not in STEP_MODES:
            raise ValueError(
                f"step_mode must be one of {STEP_MODES}, got {self.step_mode!r}"
            )


@dataclass(frozen=True)
class FullMitigationStudyConfig(MitigationStudyConfig):
    """Paper-scale Figure 10 preset: the full 48-mix evaluation.

    Section 6 of the paper evaluates every mechanism over 48 randomly
    mixed 8-core workloads; this preset reproduces that axis in full (the
    quick ``fig10-mitigations`` default samples 4 mixes) on the Table 6
    geometry, with simulations 2.5x longer than the quick preset so every
    run crosses several refresh intervals.  Designed to be executed through
    a cached :class:`repro.experiments.session.ExperimentSession` -- the
    sweep is a single population-level study result, so a completed run is
    replayed from the store in milliseconds.
    """

    num_mixes: int = 48
    rows_per_bank: int = 16384
    dram_cycles: int = 50_000
    requests_per_core: int = 8_000


# ----------------------------------------------------------------------
# Work-unit decomposition of the Figure 10 grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MitigationBaselineUnit:
    """Payload of one baseline work unit: the no-mitigation run of one mix.

    Carries the raw per-core IPCs of the shared baseline run and the
    alone-run IPC of every core, from which the merge computes the mix's
    baseline weighted speedup.
    """

    mix: int
    core_ipcs: Tuple[float, ...]
    alone_ipcs: Tuple[float, ...]


@dataclass(frozen=True)
class MitigationCellUnit:
    """Payload of one (mechanism, HC_first, mix) cell work unit."""

    mechanism: str
    hcfirst: int
    mix: int
    core_ipcs: Tuple[float, ...]
    bandwidth_overhead_percent: float


@lru_cache(maxsize=4)
def _cached_mix_traces(
    num_mixes: int, mix_index: int, rows_per_bank: int, requests_per_core: int, seed: int
) -> tuple:
    """Per-process trace cache for unit execution.

    Every work unit of one mix needs the same deterministic traces; caching
    them per process means a worker draining several units of a mix pays
    for trace synthesis once.  Traces are
    safe to share between simulations: ``Simulation`` copies the per-core
    record lists it consumes and the records themselves are immutable.
    """
    system_config = SystemConfig(rows_per_bank=rows_per_bank)
    mixes = make_workload_mixes(
        num_mixes=num_mixes, cores=system_config.cores, seed=seed
    )
    return tuple(
        mixes[mix_index].build_traces(
            banks=system_config.banks,
            rows_per_bank=system_config.rows_per_bank,
            columns_per_row=system_config.columns_per_row,
            requests_per_core=requests_per_core,
            seed=seed,
        )
    )


def _evaluation_points(config: MitigationStudyConfig) -> List[Tuple[str, int]]:
    """The (mechanism, HC_first) grid points the config evaluates, in order."""
    return [
        (mechanism, hcfirst)
        for mechanism in config.mechanisms
        for hcfirst in config.hcfirst_values
        if not config.respect_design_constraints or is_evaluable(mechanism, hcfirst)
    ]


def _fig10_decompose(study_name: str):
    """Decomposition for one registered Figure 10 study.

    Units are ordered mix-major (a mix's baseline, then all of its cells)
    so workers draining consecutive units reuse the per-process trace
    cache; merge order is reconstructed from the config axes, not the unit
    order, so this is purely a locality choice.
    """

    def decompose(config: MitigationStudyConfig) -> List[WorkUnit]:
        # Per the WorkUnit cache contract, params carry every config field
        # the unit's payload depends on.  The sweep axes (mechanisms,
        # hcfirst_values) and the design-constraint flag shape only *which*
        # units exist, so they stay out -- editing them invalidates nothing
        # that survives the edit.
        simulated = {
            "num_mixes": config.num_mixes,
            "rows_per_bank": config.rows_per_bank,
            "dram_cycles": config.dram_cycles,
            "requests_per_core": config.requests_per_core,
            "seed": config.seed,
            "step_mode": config.step_mode,
        }
        units: List[WorkUnit] = []
        points = _evaluation_points(config)
        for mix in range(config.num_mixes):
            units.append(
                WorkUnit(
                    study=study_name,
                    unit_id=f"baseline/mix{mix:02d}",
                    params={"kind": "baseline", "mix": mix, **simulated},
                )
            )
            for mechanism, hcfirst in points:
                units.append(
                    WorkUnit(
                        study=study_name,
                        unit_id=f"cell/{mechanism}/hc{hcfirst}/mix{mix:02d}",
                        params={
                            "kind": "cell",
                            "mechanism": mechanism,
                            "hcfirst": hcfirst,
                            "mix": mix,
                            "time_scale": config.time_scale,
                            **simulated,
                        },
                    )
                )
        return units

    return decompose


def _run_mitigation_unit(
    _chip: None, config: MitigationStudyConfig, unit: WorkUnit
) -> object:
    """Execute one Figure 10 work unit (a baseline or a grid cell)."""
    params = unit.param_dict
    mix_index = params["mix"]
    system_config = SystemConfig(rows_per_bank=config.rows_per_bank)
    traces = list(
        _cached_mix_traces(
            config.num_mixes,
            mix_index,
            config.rows_per_bank,
            config.requests_per_core,
            config.seed,
        )
    )
    if params["kind"] == "baseline":
        baseline = Simulation(
            system_config, traces, mitigation=None, step_mode=config.step_mode
        ).run(config.dram_cycles)
        alone_ipcs = tuple(
            result.core_ipcs[0]
            for result in SimulationBatch(
                system_config,
                [[trace] for trace in traces],
                step_mode=config.step_mode,
            ).run(config.dram_cycles)
        )
        return MitigationBaselineUnit(
            mix=mix_index, core_ipcs=tuple(baseline.core_ipcs), alone_ipcs=alone_ipcs
        )
    mitigation = build_mechanism(
        params["mechanism"],
        MitigationConfig(
            hcfirst=params["hcfirst"],
            banks=system_config.banks,
            rows_per_bank=system_config.rows_per_bank,
            timings=system_config.timings,
            seed=config.seed + mix_index,
            time_scale=config.time_scale,
        ),
    )
    result = Simulation(
        system_config, traces, mitigation=mitigation, step_mode=config.step_mode
    ).run(config.dram_cycles)
    return MitigationCellUnit(
        mechanism=params["mechanism"],
        hcfirst=params["hcfirst"],
        mix=mix_index,
        core_ipcs=tuple(result.core_ipcs),
        bandwidth_overhead_percent=result.bandwidth_overhead_percent,
    )


def _merge_mitigation_units(
    config: MitigationStudyConfig, payloads: Sequence[object]
) -> "MitigationStudyResult":
    """Reassemble the Figure 10 payload from unit payloads.

    Walks the config axes (mechanism-major, then HC_first, then mix) and
    reduces each point's per-mix values in mix order, so the merged result
    is bit-identical no matter which executor ran the units or in which
    order they completed.
    """
    baselines: Dict[int, MitigationBaselineUnit] = {}
    cells: Dict[Tuple[str, int, int], MitigationCellUnit] = {}
    for payload in payloads:
        if isinstance(payload, MitigationBaselineUnit):
            baselines[payload.mix] = payload
        elif isinstance(payload, MitigationCellUnit):
            cells[(payload.mechanism, payload.hcfirst, payload.mix)] = payload
        else:
            raise TypeError(f"unexpected Figure 10 unit payload: {payload!r}")

    baseline_speedups = {
        mix: weighted_speedup(unit.core_ipcs, unit.alone_ipcs)
        for mix, unit in baselines.items()
    }
    study = MitigationStudyResult()
    for mechanism_name, hcfirst in _evaluation_points(config):
        performances: List[float] = []
        overheads: List[float] = []
        for mix in range(config.num_mixes):
            cell = cells[(mechanism_name, hcfirst, mix)]
            baseline = baselines[mix]
            speedup = weighted_speedup(cell.core_ipcs, baseline.alone_ipcs)
            performances.append(
                normalized_performance(speedup, baseline_speedups[mix])
            )
            overheads.append(cell.bandwidth_overhead_percent)
        study.points.append(
            MitigationStudyPoint(
                mechanism=mechanism_name,
                hcfirst=hcfirst,
                normalized_performance_avg=sum(performances) / len(performances),
                normalized_performance_min=min(performances),
                normalized_performance_max=max(performances),
                bandwidth_overhead_avg=sum(overheads) / len(overheads),
                bandwidth_overhead_min=min(overheads),
                bandwidth_overhead_max=max(overheads),
                workloads_evaluated=len(performances),
            )
        )
    return study


register_study(
    "fig10-mitigations",
    config=MitigationStudyConfig,
    requires_chip=False,
    description="Mitigation overhead versus HC_first (Figure 10), population-level.",
    decompose=_fig10_decompose("fig10-mitigations"),
    unit_runner=_run_mitigation_unit,
    merge=_merge_mitigation_units,
)
register_study(
    "fig10-mitigations-full",
    config=FullMitigationStudyConfig,
    requires_chip=False,
    description="Figure 10 at paper scale: all 48 workload mixes, Table 6 geometry.",
    decompose=_fig10_decompose("fig10-mitigations-full"),
    unit_runner=_run_mitigation_unit,
    merge=_merge_mitigation_units,
)
