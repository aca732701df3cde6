#!/usr/bin/env python3
"""Compare RowHammer mitigation mechanisms as chips become more vulnerable.

A scaled-down version of the paper's Figure 10 study: multi-programmed
workload mixes run on the cycle-level memory-system simulator with each
mitigation mechanism attached, sweeping the protected ``HC_first`` from
today's chips (tens of thousands of hammers) down to the projected future
values (hundreds), and reporting normalized system performance and DRAM
bandwidth overhead.

Run with::

    python examples/mitigation_comparison.py
"""

from repro.analysis.mitigation_study import MitigationStudyConfig
from repro.analysis.report import format_table
from repro.experiments import ExperimentSession
from repro.sim.config import SystemConfig
from repro.sim.workloads import make_workload_mixes


def main() -> None:
    config = MitigationStudyConfig(
        hcfirst_values=(50_000, 6_400, 2_000, 512, 128),
        mechanisms=("IncreasedRefresh", "PARA", "ProHIT", "MRLoc", "TWiCe-ideal", "Ideal"),
        num_mixes=2,
        dram_cycles=10_000,
        requests_per_core=2_000,
        seed=2,
    )
    # The study draws its mixes from its own seed; these are the same mixes.
    mixes = make_workload_mixes(
        num_mixes=config.num_mixes, cores=SystemConfig().cores, seed=config.seed
    )
    print(f"workload mixes: {[mix.name for mix in mixes]}")
    print(f"aggregate MPKI: {[round(mix.aggregate_mpki) for mix in mixes]}\n")

    study = ExperimentSession().run("fig10-mitigations", config).single()

    rows = []
    for point in sorted(study.points, key=lambda p: (p.mechanism, -p.hcfirst)):
        rows.append(
            [
                point.mechanism,
                point.hcfirst,
                round(point.normalized_performance_avg, 1),
                round(point.bandwidth_overhead_avg, 2),
            ]
        )
    print(
        format_table(
            ["mechanism", "HC_first", "normalized perf %", "DRAM bandwidth overhead %"],
            rows,
            title="Mitigation mechanism scaling (Figure 10, scaled down)",
        )
    )

    print("\nKey takeaways (compare with the paper's Section 6.2.2):")
    for mechanism in ("PARA", "Ideal"):
        series = study.series_for(mechanism)
        if not series:
            continue
        most_vulnerable = min(series)
        point = series[most_vulnerable]
        print(
            f"  {mechanism:6s} at HC_first={most_vulnerable}: "
            f"{point.normalized_performance_avg:.1f}% of baseline performance"
        )


if __name__ == "__main__":
    main()
