"""Tests for the study registry (names, duplicates, configs, digests)."""

from dataclasses import dataclass

import pytest

from repro.experiments.study import (
    DuplicateStudyError,
    RegisteredStudy,
    Study,
    UnknownStudyError,
    config_digest,
    describe_studies,
    get_study,
    list_studies,
    register_study,
    unregister_study,
)

BUILTIN_STUDIES = (
    "alg1-characterization",
    "fig4-coverage",
    "fig5-hc-sweep",
    "fig6-spatial",
    "fig7-word-density",
    "fig8-hcfirst",
    "fig9-ecc-words",
    "fig10-mitigations",
    "fig10-mitigations-full",
    "table5-flip-probability",
)


class TestRegistry:
    def test_builtin_studies_registered(self):
        names = list_studies()
        for name in BUILTIN_STUDIES:
            assert name in names

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(UnknownStudyError) as excinfo:
            get_study("no-such-study")
        message = str(excinfo.value)
        assert "no-such-study" in message
        assert "fig5-hc-sweep" in message

    def test_unknown_study_error_is_key_error(self):
        with pytest.raises(KeyError):
            get_study("also-not-a-study")

    def test_duplicate_registration_rejected(self):
        @register_study("test-duplicate-probe")
        def first(chip, config):
            return 1

        try:
            with pytest.raises(DuplicateStudyError):

                @register_study("test-duplicate-probe")
                def second(chip, config):
                    return 2

            # The original registration survives the failed attempt.
            assert get_study("test-duplicate-probe").fn is first
        finally:
            unregister_study("test-duplicate-probe")

    def test_unregister_removes_study(self):
        @register_study("test-unregister-probe")
        def probe(chip, config):
            return None

        unregister_study("test-unregister-probe")
        assert "test-unregister-probe" not in list_studies()

    def test_registered_study_satisfies_protocol(self):
        spec = get_study("fig8-hcfirst")
        assert isinstance(spec, Study)
        assert isinstance(spec, RegisteredStudy)
        assert spec.requires_chip

    def test_description_defaults_to_docstring(self):
        assert "Figure 5" in describe_studies()["fig5-hc-sweep"]

    def test_population_study_flagged(self):
        assert not get_study("fig10-mitigations").requires_chip

    def test_full_fig10_preset_is_paper_scale(self):
        """The paper-scale preset defaults to the full 48-mix evaluation."""
        spec = get_study("fig10-mitigations-full")
        assert not spec.requires_chip
        config = spec.default_config()
        assert isinstance(config, spec.config_cls)
        assert config.num_mixes == 48
        assert config.rows_per_bank == 16384
        assert config.dram_cycles > 20_000
        # A distinct config type means a distinct cache identity, so the
        # full study never collides with the quick preset in a store.
        from repro.analysis.mitigation_study import MitigationStudyConfig
        from repro.experiments.study import config_digest

        assert config_digest(config) != config_digest(MitigationStudyConfig())

    def test_default_config_is_config_cls_instance(self):
        spec = get_study("fig5-hc-sweep")
        config = spec.default_config()
        assert isinstance(config, spec.config_cls)


class TestConfigDigest:
    def test_equal_configs_share_digest(self):
        from repro.core.sweeps import SweepStudyConfig

        a = SweepStudyConfig(hammer_counts=(10_000, 20_000))
        b = SweepStudyConfig(hammer_counts=(10_000, 20_000))
        assert config_digest(a) == config_digest(b)

    def test_different_configs_differ(self):
        from repro.core.sweeps import SweepStudyConfig

        a = SweepStudyConfig(hammer_counts=(10_000, 20_000))
        b = SweepStudyConfig(hammer_counts=(10_000, 30_000))
        assert config_digest(a) != config_digest(b)

    def test_nested_dataclasses_and_mappings_digest(self):
        @dataclass(frozen=True)
        class Inner:
            value: int

        @dataclass(frozen=True)
        class Outer:
            inner: Inner
            table: tuple

        a = Outer(inner=Inner(1), table=(("x", 1), ("y", 2)))
        b = Outer(inner=Inner(1), table=(("x", 1), ("y", 2)))
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(Outer(inner=Inner(2), table=()))

    def test_none_config_digests(self):
        assert config_digest(None) == config_digest(None)


class TestConfigValidation:
    """Bad study configs fail when built, not inside a unit or an executor."""

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            pytest.param({"mechanisms": ("PARA", "NoSuchMechanism")}, "unknown", id="unknown-mechanism"),
            pytest.param({"mechanisms": ("PARA", "TWiCe", "PARA")}, "repeats", id="repeated-mechanism"),
            pytest.param({"hcfirst_values": (2_000, 4_000, 2_000)}, "repeats", id="repeated-hcfirst"),
            pytest.param({"step_mode": "events"}, "step_mode", id="unknown-step-mode"),
            pytest.param({"dram_cycles": 0}, "dram_cycles", id="zero-dram-cycles"),
            pytest.param({"requests_per_core": 0}, "requests_per_core", id="zero-requests"),
            pytest.param({"rows_per_bank": 0}, "rows_per_bank", id="zero-rows"),
            pytest.param({"time_scale": 0.0}, "time_scale", id="zero-time-scale"),
        ],
    )
    def test_mitigation_study_config_rejects(self, kwargs, match):
        from repro.analysis.mitigation_study import MitigationStudyConfig

        with pytest.raises(ValueError, match=match):
            MitigationStudyConfig(**kwargs)

    @pytest.mark.parametrize(
        "hammer_counts",
        [
            pytest.param((50_000, 50_000), id="adjacent"),
            pytest.param((10_000, 50_000, 10_000), id="separated"),
        ],
    )
    def test_characterization_config_rejects_repeated_hammer_count(self, hammer_counts):
        from repro.core.characterization import CharacterizationConfig

        with pytest.raises(ValueError, match="repeat"):
            CharacterizationConfig(hammer_counts=hammer_counts)

    def test_every_registered_mechanism_is_accepted(self):
        from repro.analysis.mitigation_study import MitigationStudyConfig
        from repro.mitigations.registry import available_mechanisms

        config = MitigationStudyConfig(mechanisms=tuple(available_mechanisms()))
        assert get_study("fig10-mitigations").units_for(config)
