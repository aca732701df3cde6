"""Analysis layer: regenerates every table and figure of the paper's evaluation.

* :mod:`repro.analysis.tables` -- Tables 1-5 builders.
* :mod:`repro.analysis.figures` -- Figures 4-9 series builders.
* :mod:`repro.analysis.mitigation_study` -- the Figure 10 evaluation, the
  registered ``fig10-mitigations`` study.
* :mod:`repro.analysis.report` -- plain-text rendering of tables and series.
"""

from repro.analysis.tables import (
    build_table1_population,
    build_table2_rowhammerable,
    build_table3_worst_patterns,
    build_table4_min_hcfirst,
    build_table5_monotonicity,
)
from repro.analysis.figures import (
    build_figure4_coverage,
    build_figure5_hc_sweep,
    build_figure6_spatial,
    build_figure7_word_density,
    build_figure8_hcfirst_distribution,
    build_figure9_ecc,
)
from repro.analysis.mitigation_study import (
    MitigationStudyConfig,
    MitigationStudyPoint,
    MitigationStudyResult,
)
from repro.analysis.report import format_table, render_series

__all__ = [
    "build_table1_population",
    "build_table2_rowhammerable",
    "build_table3_worst_patterns",
    "build_table4_min_hcfirst",
    "build_table5_monotonicity",
    "build_figure4_coverage",
    "build_figure5_hc_sweep",
    "build_figure6_spatial",
    "build_figure7_word_density",
    "build_figure8_hcfirst_distribution",
    "build_figure9_ecc",
    "MitigationStudyConfig",
    "MitigationStudyPoint",
    "MitigationStudyResult",
    "format_table",
    "render_series",
]
