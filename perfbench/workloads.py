"""The benchmark's workloads: which studies run, on which inputs, through
which executor, and how their merged payloads are fingerprinted.

Two study groups share inputs across executors:

* ``fig10`` -- the Figure 10 mitigation study at the quick preset's unit
  shape (one 8-core simulation per unit, 4096 rows/bank, 20k DRAM cycles,
  4k requests/core) over the grid HC_first in {50 000, 2 000, 256}, which
  evaluates each of the 7 mechanisms at least once: 13 cells plus one
  baseline per mix, one mix.
* ``chip`` -- ``fig8-hcfirst`` then ``alg1-characterization`` with default
  configs over a Table 1 population of one chip per configuration (16
  chips) on the characterization benchmarks' geometry.

A workload's inputs come from an *input seed*: the ``seed`` of the Figure
10 config, or the population and session seed of the chip studies.  The
benchmark maps its ``--seed`` onto the pinned input seeds of the group
(``pinned.json``, written by ``pin.py``), whose serial-reference payload
digests and exact counts every run is checked against.

Inputs differ in how much work they make: a mix's memory intensity sets
how many events its simulations pop, a population's vulnerability how
many bit flips its characterization records.  ``pin.py`` therefore keeps
the inputs whose work count (:data:`WORK_COUNT`) lies nearest the median of
a fixed candidate range, so a seed changes the inputs but not the amount
of work a run measures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

#: HC_first grid of the Figure 10 workloads.
FIG10_HCFIRST = (50_000, 2_000, 256)

#: Workload mixes per Figure 10 run (14 units per mix).
FIG10_MIXES = 1

#: Exact count standing for the amount of work an input makes, per group.
WORK_COUNT = {"fig10": "sim.events.popped", "chip": "dram.bit_flips_induced"}

#: Chips per Table 1 configuration in the chip workloads (16 chips).
CHIPS_PER_CONFIG = 1

#: Worker processes of the pool workload (the host's two CPUs).
POOL_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    group: str
    executor: str  # "serial" | "pool" | "service"
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig10-serial", "fig10", "serial",
            "Figure 10 grid through SerialExecutor: sim, mitigations and trace synthesis do the work",
        ),
        Workload(
            "fig10-pool", "fig10", "pool",
            "the same Figure 10 grid through ParallelExecutor(2): the process-pool path",
        ),
        Workload(
            "chip-serial", "chip", "serial",
            "fig8-hcfirst then alg1 over a Table 1 population: dram kernels and core glue do the work",
        ),
        Workload(
            "chip-service", "chip", "service",
            "the same chip studies through ServiceExecutor and one worker: adds protocol and lease cost",
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def fig10_config(input_seed: int):
    from repro.analysis.mitigation_study import MitigationStudyConfig

    return MitigationStudyConfig(
        hcfirst_values=FIG10_HCFIRST, num_mixes=FIG10_MIXES, seed=input_seed
    )


def chip_population(input_seed: int):
    from repro.dram.geometry import ChipGeometry
    from repro.dram.population import make_population

    return make_population(
        chips_per_config=CHIPS_PER_CONFIG,
        seed=input_seed,
        geometry=ChipGeometry(banks=1, rows_per_bank=48, row_bytes=32),
    )


def studies(group: str, input_seed: int) -> List[Tuple[str, Any]]:
    """The (study name, config) pairs one run of the group submits, in order."""
    if group == "fig10":
        return [("fig10-mitigations", fig10_config(input_seed))]
    return [("fig8-hcfirst", None), ("alg1-characterization", None)]


def make_session_factory(group: str, input_seed: int) -> Callable[..., Any]:
    """A factory ``(executor, store) -> ExperimentSession`` over fixed inputs.

    The population (chip group) is built once, so the fresh run and every
    replay study the same chip objects.
    """
    from repro.experiments import ExperimentSession

    population = chip_population(input_seed) if group == "chip" else None

    def factory(executor, store):
        return ExperimentSession(population, executor=executor, store=store, seed=input_seed)

    return factory


# ----------------------------------------------------------------------
# Payload fingerprint
# ----------------------------------------------------------------------
def payload_digest(outcomes: List[Any]) -> str:
    """sha256 over the merged payloads of every study of one run.

    Payloads are dataclasses of numbers, strings and tuples, whose ``repr``
    is exact (floats print round-trip), so equal digests mean equal
    payloads.
    """
    sha = hashlib.sha256()
    for outcome in outcomes:
        sha.update(outcome.study.encode())
        for payload in outcome.payloads():
            sha.update(repr(payload).encode())
    return sha.hexdigest()
