"""CampaignConfig: identity, seed derivation, (de)serialization."""

import pytest

from repro.testkit import CampaignConfig, derive_seed

BASE = dict(name="t", n=3, t=1, d=2, ell=16, kappa=8, num_checks=2)


class TestDeriveSeed:
    def test_deterministic_and_63_bit(self):
        s = derive_seed("a", 1, "b")
        assert s == derive_seed("a", 1, "b")
        assert 0 <= s < 2**63

    def test_distinct_parts_distinct_seeds(self):
        assert derive_seed("config", 0, "x") != derive_seed("config", 1, "x")
        assert derive_seed("config", 0, "x") != derive_seed("trial", 0, "x")

    def test_no_hash_randomization_dependence(self):
        """Known-answer: the derivation must be stable across processes
        and Python versions (SHA-256, not hash())."""
        assert derive_seed("config", 0, "k") == derive_seed("config", "0", "k")


class TestConfigIdentity:
    def test_key_covers_every_axis(self):
        config = CampaignConfig(**BASE)
        key = config.key()
        for fragment in ("n=3", "t=1", "d=2", "ell=16", "kappa=8",
                         "checks=2", "strategy=honest", "fault=none",
                         "substrate=auto", "corrupt=0", "trials=2"):
            assert fragment in key

    def test_name_is_cosmetic(self):
        a = CampaignConfig(**{**BASE, "name": "one"})
        b = CampaignConfig(**{**BASE, "name": "two"})
        assert a.key() == b.key()
        assert a.config_seed(7) == b.config_seed(7)

    def test_trial_seeds_distinct_per_trial_and_campaign_seed(self):
        config = CampaignConfig(**BASE)
        seeds = {config.trial_seed(0, i) for i in range(10)}
        assert len(seeds) == 10
        assert config.trial_seed(0, 0) != config.trial_seed(1, 0)

    def test_axis_change_changes_seed(self):
        a = CampaignConfig(**BASE)
        b = a.with_(strategy="jamming", corrupt_count=1)
        assert a.config_seed(0) != b.config_seed(0)


class TestConfigSerialization:
    def test_json_roundtrip(self):
        config = CampaignConfig(
            **{**BASE, "strategy": "jamming", "fault": "drop-half",
               "corrupt_count": 1, "trials": 9}
        )
        assert CampaignConfig.from_json(config.to_json()) == config

    def test_substrate_is_derived_from_the_field(self, pure_python):
        """Reports carry the substrate; reading one back (or an older
        report's settable value) never overrides what kappa implies."""
        for kappa, substrate in ((16, "tables"), (26, "table-free"),
                                 (34, "scalar")):
            config = CampaignConfig(**{**BASE, "kappa": kappa})
            assert config.substrate == substrate
            assert config.to_dict()["substrate"] == substrate
            legacy = {**config.to_dict(), "substrate": "vectorized"}
            assert CampaignConfig.from_dict(legacy) == config
        with pytest.raises(TypeError):
            CampaignConfig(**{**BASE, "substrate": "scalar"})
        with pure_python():
            assert CampaignConfig(**{**BASE, "kappa": 16}).substrate == (
                "scalar"
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            CampaignConfig.from_dict({**BASE, "bogus": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing fields"):
            CampaignConfig.from_dict({"n": 3, "t": 1})

    def test_non_object_json_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            CampaignConfig.from_json("[1, 2]")


class TestConfigValidation:
    def test_adversarial_strategy_needs_corruption(self):
        with pytest.raises(ValueError, match="corrupt_count >= 1"):
            CampaignConfig(**{**BASE, "strategy": "jamming"})

    def test_fault_needs_corruption(self):
        with pytest.raises(ValueError, match="corrupt_count >= 1"):
            CampaignConfig(**{**BASE, "fault": "drop-half"})

    def test_corrupt_count_bounded_by_t(self):
        with pytest.raises(ValueError, match="exceeds t"):
            CampaignConfig(**{**BASE, "corrupt_count": 2})

    def test_unknown_strategy_rejected_by_validate(self):
        config = CampaignConfig(
            **{**BASE, "strategy": "nope", "corrupt_count": 1}
        )
        with pytest.raises(ValueError, match="unknown strategy"):
            config.validate()

    def test_unknown_fault_rejected_by_validate(self):
        config = CampaignConfig(**{**BASE, "fault": "nope",
                                   "corrupt_count": 1})
        with pytest.raises(ValueError, match="unknown fault"):
            config.validate()

    def test_strategy_min_d_enforced(self):
        config = CampaignConfig(
            **{**BASE, "d": 1, "strategy": "guessing-cheater",
               "corrupt_count": 1}
        )
        with pytest.raises(ValueError, match="needs d >= 2"):
            config.validate()

    def test_params_constraints_surface(self):
        config = CampaignConfig(**{**BASE, "ell": 300})  # 2^8 <= 300
        with pytest.raises(ValueError, match="field too small"):
            config.validate()
