"""Data-pattern coverage study (Figure 4, Table 3, Observations 2-3).

For a fixed hammer count the study runs the characterization once per data
pattern, aggregates the unique bit flips each pattern exposes, and reports
every pattern's *coverage*: the fraction of the union of all observed flips
that the pattern finds on its own.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.characterization import RowHammerCharacterizer
from repro.core.data_patterns import STANDARD_PATTERNS, pattern_by_name
from repro.core.results import CoverageResult
from repro.dram.chip import DramChip
from repro.experiments.study import WorkUnit, register_study


@dataclass(frozen=True)
class CoverageStudyConfig:
    """Parameters of the Figure 4 / Table 3 data-pattern coverage study.

    ``patterns`` holds standard-pattern names; the default is the paper's
    eight patterns in plotting order.  ``hammer_count`` is used for every
    pattern (the paper uses 150k).  ``iterations`` repeats the test per
    pattern and aggregates unique flips across repeats (the paper uses
    ten).  ``bank`` and ``victims`` select the victim rows; the default is
    every testable row of bank 0.
    """

    hammer_count: int = DramChip.TEST_LIMIT_HC
    patterns: Tuple[str, ...] = tuple(p.name for p in STANDARD_PATTERNS)
    iterations: int = 1
    bank: int = 0
    victims: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.hammer_count <= 0:
            raise ValueError("hammer_count must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not self.patterns:
            raise ValueError("at least one data pattern is required")


# ----------------------------------------------------------------------
# Work-unit decomposition: one unit per data pattern
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PatternCoverageUnit:
    """Payload of one coverage work unit: one pattern's flipped-cell set."""

    pattern: str
    chip_id: str
    type_node: str
    manufacturer: str
    cells: FrozenSet[Tuple[int, int, int]]


def _decompose_coverage(config: CoverageStudyConfig) -> List[WorkUnit]:
    """Shard the coverage study along its data-pattern axis.

    Each unit embeds the single-pattern restriction of the config (per the
    WorkUnit cache contract), so adding a pattern to a sweep replays the
    patterns already measured.  Every unit measures its pattern on a fresh
    copy of the chip, so all patterns start from the same pristine state.
    """
    return [
        WorkUnit(
            study="fig4-coverage",
            unit_id=f"pattern/{name}",
            params={
                "pattern": name,
                "config": dataclasses.replace(config, patterns=(name,)),
            },
        )
        for name in config.patterns
    ]


def _run_coverage_unit(
    chip: DramChip, config: CoverageStudyConfig, unit: WorkUnit
) -> PatternCoverageUnit:
    """Hammer every victim with one pattern and collect its unique flips."""
    pattern = pattern_by_name(unit.param_dict["pattern"])
    characterizer = RowHammerCharacterizer(chip)
    victims = (
        list(config.victims)
        if config.victims is not None
        else characterizer.default_victims(config.bank)
    )
    cells: Set[Tuple[int, int, int]] = set()
    for _iteration in range(config.iterations):
        for result in characterizer.hammer_all_victims(
            config.hammer_count, data_pattern=pattern, bank=config.bank, victims=victims
        ):
            cells.update(flip.cell for flip in result.flips)
    return PatternCoverageUnit(
        pattern=pattern.name,
        chip_id=chip.chip_id,
        type_node=chip.profile.type_node.value,
        manufacturer=chip.profile.manufacturer,
        cells=frozenset(cells),
    )


def _merge_coverage(
    config: CoverageStudyConfig, payloads: Sequence[PatternCoverageUnit]
) -> CoverageResult:
    """Union the per-pattern flip sets and compute coverage fractions."""
    all_cells: Set[Tuple[int, int, int]] = set()
    for payload in payloads:
        all_cells.update(payload.cells)
    first = payloads[0]
    return CoverageResult(
        chip_id=first.chip_id,
        type_node=first.type_node,
        manufacturer=first.manufacturer,
        hammer_count=config.hammer_count,
        unique_flips_total=len(all_cells),
        coverage_by_pattern={
            payload.pattern: (len(payload.cells) / len(all_cells) if all_cells else 0.0)
            for payload in payloads
        },
        flips_by_pattern={payload.pattern: len(payload.cells) for payload in payloads},
    )


register_study(
    "fig4-coverage",
    config=CoverageStudyConfig,
    description="Per-data-pattern bit-flip coverage (Figure 4 / Table 3).",
    decompose=_decompose_coverage,
    unit_runner=_run_coverage_unit,
    merge=_merge_coverage,
)


def worst_case_patterns_by_configuration(
    coverage_results: Iterable[CoverageResult],
) -> Dict[Tuple[str, str], Optional[str]]:
    """Aggregate Table 3: worst-case pattern per (type-node, manufacturer).

    When multiple chips of the same configuration are present, the pattern
    that wins most often is reported (the paper observes the worst-case
    pattern is consistent within a configuration -- Observation 3).
    """
    votes: Dict[Tuple[str, str], Dict[str, int]] = {}
    for result in coverage_results:
        key = (result.type_node, result.manufacturer)
        winner = result.worst_case_pattern
        if winner is None:
            continue
        votes.setdefault(key, {})
        votes[key][winner] = votes[key].get(winner, 0) + 1
    table: Dict[Tuple[str, str], Optional[str]] = {}
    for key, counts in votes.items():
        table[key] = max(counts, key=counts.get) if counts else None
    return table
