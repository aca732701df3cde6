"""The paper's primary contribution: the RowHammer characterization pipeline.

Modules map to the paper's experimental sections:

* :mod:`repro.core.data_patterns` -- the data patterns of Section 4.3.
* :mod:`repro.core.hammer` -- worst-case double-sided hammering of one victim.
* :mod:`repro.core.characterization` -- Algorithm 1, the general test routine.
* :mod:`repro.core.coverage` -- data-pattern coverage (Figure 4, Table 3).
* :mod:`repro.core.sweeps` -- hammer-count sweeps (Figure 5).
* :mod:`repro.core.spatial` -- spatial distribution of bit flips (Figure 6).
* :mod:`repro.core.word_density` -- bit flips per 64-bit word (Figure 7).
* :mod:`repro.core.first_flip` -- ``HC_first`` search (Figure 8, Table 4).
* :mod:`repro.core.ecc_analysis` -- ``HC_first/second/third`` (Figure 9).
* :mod:`repro.core.probability` -- single-cell flip probability (Table 5).
* :mod:`repro.core.scaling` -- projection of ``HC_first`` for future nodes.

Each study module registers itself with the :mod:`repro.experiments`
registry (``fig4-coverage``, ``fig5-hc-sweep``, ``fig6-spatial``,
``fig7-word-density``, ``fig8-hcfirst``, ``fig9-ecc-words``,
``table5-flip-probability``, ``alg1-characterization``) so a whole
population can be driven through one
:class:`~repro.experiments.session.ExperimentSession`.  The undecomposed
studies keep their free functions as thin compatibility wrappers; the
decomposed ones (``alg1-characterization``, ``fig4-coverage``) run only as
their work units, through a session or ``get_study(name).run(chip, config)``.
"""

from repro.core.data_patterns import DataPattern, STANDARD_PATTERNS, pattern_by_name
from repro.core.hammer import BitFlip, DoubleSidedHammer, HammerResult
from repro.core.characterization import RowHammerCharacterizer, CharacterizationConfig
from repro.core.coverage import CoverageStudyConfig
from repro.core.sweeps import SweepStudyConfig, hammer_count_sweep
from repro.core.spatial import SpatialStudyConfig, spatial_distribution
from repro.core.word_density import WordDensityStudyConfig, word_density
from repro.core.first_flip import HCFirstResult, HCFirstStudyConfig, find_hcfirst
from repro.core.ecc_analysis import EccWordStudyConfig, ecc_word_analysis
from repro.core.probability import ProbabilityStudyConfig, flip_probability_study
from repro.core.results import ChipSummary

__all__ = [
    "DataPattern",
    "STANDARD_PATTERNS",
    "pattern_by_name",
    "BitFlip",
    "DoubleSidedHammer",
    "HammerResult",
    "RowHammerCharacterizer",
    "CharacterizationConfig",
    "CoverageStudyConfig",
    "SweepStudyConfig",
    "hammer_count_sweep",
    "SpatialStudyConfig",
    "spatial_distribution",
    "WordDensityStudyConfig",
    "word_density",
    "HCFirstResult",
    "HCFirstStudyConfig",
    "find_hcfirst",
    "EccWordStudyConfig",
    "ecc_word_analysis",
    "ProbabilityStudyConfig",
    "flip_probability_study",
    "ChipSummary",
]
