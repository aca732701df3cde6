"""Tests for the Figure 10 mitigation study harness."""

import pytest

from repro.analysis.mitigation_study import DEFAULT_HCFIRST_SWEEP, MitigationStudyConfig
from repro.experiments import get_study


@pytest.fixture(scope="module")
def small_study():
    """A reduced Figure 10 run shared across tests (seconds, not minutes)."""
    config = MitigationStudyConfig(
        hcfirst_values=(50_000, 2_000, 128),
        mechanisms=("PARA", "Ideal", "TWiCe-ideal", "ProHIT"),
        num_mixes=2,
        rows_per_bank=1024,
        dram_cycles=4_000,
        requests_per_core=1_000,
        seed=1,
    )
    return get_study("fig10-mitigations").run(None, config)


class TestMitigationStudy:
    def test_default_sweep_matches_paper_range(self):
        assert max(DEFAULT_HCFIRST_SWEEP) == 200_000
        assert min(DEFAULT_HCFIRST_SWEEP) == 64

    def test_points_respect_design_constraints(self, small_study):
        prohit_points = small_study.series_for("ProHIT")
        assert set(prohit_points) == {2_000}
        para_points = small_study.series_for("PARA")
        assert set(para_points) == {50_000, 2_000, 128}

    def test_performance_bounded_and_normalized(self, small_study):
        for point in small_study.points:
            assert 0.0 < point.normalized_performance_avg <= 110.0
            assert point.normalized_performance_min <= point.normalized_performance_avg
            assert point.normalized_performance_avg <= point.normalized_performance_max
            assert point.bandwidth_overhead_avg >= 0.0
            assert point.workloads_evaluated == 2

    def test_para_overhead_grows_as_hcfirst_drops(self, small_study):
        para = small_study.series_for("PARA")
        assert para[128].bandwidth_overhead_avg > para[50_000].bandwidth_overhead_avg
        assert (
            para[128].normalized_performance_avg
            <= para[50_000].normalized_performance_avg + 1e-6
        )

    def test_ideal_outperforms_para_at_low_hcfirst(self, small_study):
        para = small_study.performance_at("PARA", 128)
        ideal = small_study.performance_at("Ideal", 128)
        assert ideal >= para

    def test_serialization_and_lookup(self, small_study):
        point = small_study.points[0]
        payload = point.to_dict()
        assert payload["mechanism"] == point.mechanism
        assert small_study.performance_at("DoesNotExist", 1) is None
        assert set(small_study.mechanisms()) <= {"PARA", "Ideal", "TWiCe-ideal", "ProHIT"}
