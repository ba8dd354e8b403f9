"""The strategy/fault axes and the named campaign grids."""

import random

import pytest

from repro.core.layout import ProverMaterial
from repro.core.params import AnonChanParams
from repro.testkit import FAULTS, GRIDS, STRATEGIES, grid_configs
from repro.vss.costs import VSSCost

PARAMS = AnonChanParams(n=3, t=1, kappa=8, ell=16, d=2, num_checks=2)
COST = VSSCost(share_rounds=1, share_broadcast_rounds=0)


class TestStrategyAxis:
    def test_registry_covers_the_adversary_catalogue(self):
        assert {"honest", "guessing-cheater", "jamming", "zero",
                "targeted", "dependent-input"} <= set(STRATEGIES)

    def test_honest_builds_no_material(self):
        assert STRATEGIES["honest"].build(PARAMS, 2, random.Random(0)) is None

    @pytest.mark.parametrize(
        "name", [n for n in STRATEGIES if n != "honest"]
    )
    def test_adversarial_strategies_build_prover_material(self, name):
        spec = STRATEGIES[name]
        material = spec.build(PARAMS, 2, random.Random(0))
        assert isinstance(material, ProverMaterial)

    def test_survival_probability_declarations(self):
        assert STRATEGIES["jamming"].survival_p(PARAMS) == 0.25
        assert STRATEGIES["guessing-cheater"].survival_p(PARAMS) == 0.25
        assert STRATEGIES["zero"].survival_p(PARAMS) == 1.0
        assert STRATEGIES["honest"].survival_p(PARAMS) == 1.0

    def test_improper_flags(self):
        improper = {n for n, s in STRATEGIES.items() if s.improper}
        assert improper == {"guessing-cheater", "jamming"}


class TestFaultAxis:
    def test_none_builds_no_tamper(self):
        assert FAULTS["none"].build(PARAMS, COST, random.Random(0)) is None

    @pytest.mark.parametrize("name", [n for n in FAULTS if n != "none"])
    def test_faults_build_callable_tampers(self, name):
        tamper = FAULTS[name].build(PARAMS, COST, random.Random(0))
        assert callable(tamper)

    def test_crash_points_track_the_vss_cost(self):
        """crash-mid must crash *after* the sharing phase, wherever the
        cost profile puts it."""
        from repro.network import RoundOutput, RushedView

        deep = VSSCost(share_rounds=3, share_broadcast_rounds=1)
        tamper = FAULTS["crash-mid"].build(PARAMS, deep, random.Random(0))
        out = RoundOutput(private={0: 1})
        alive = tamper(2, RushedView(2, {}, {}), out)
        dead = tamper(2, RushedView(3, {}, {}), out)
        assert alive.private and not dead.private


class TestGrids:
    def test_known_grid_names(self):
        assert {"mini", "smoke", "nightly"} <= set(GRIDS)

    def test_unknown_grid_raises(self):
        with pytest.raises(KeyError, match="unknown grid"):
            grid_configs("bogus")

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_grids_validate_and_have_unique_keys(self, name):
        configs = grid_configs(name)
        keys = [c.key() for c in configs]
        assert len(set(keys)) == len(keys)

    def test_same_identity_key_is_a_collision(self):
        """Two cells with one identity key would reuse seeds; the grid
        loader refuses them even when their cosmetic names differ."""
        from repro.testkit import grids
        from repro.testkit.config import CampaignConfig

        base = CampaignConfig(
            name="u/a", n=3, t=1, d=2, ell=16, kappa=8, num_checks=2
        )
        grids.GRIDS["_clash"] = lambda: [base, base.with_(name="u/b")]
        try:
            with pytest.raises(ValueError, match="same identity key"):
                grid_configs("_clash")
        finally:
            del grids.GRIDS["_clash"]

    def test_smoke_grid_is_a_real_campaign(self):
        """The acceptance bar: >= 24 configs crossing all four axes."""
        configs = grid_configs("smoke")
        assert len(configs) >= 24
        strategies = {c.strategy for c in configs}
        faults = {c.fault for c in configs}
        substrates = {c.substrate for c in configs}
        sizes = {(c.n, c.d, c.ell) for c in configs}
        assert len(strategies) >= 5
        assert faults == set(FAULTS)
        assert substrates == {"tables", "table-free", "scalar"}
        assert len(sizes) >= 4

    def test_smoke_contains_claim1_measurement_block(self):
        """High-trial improper-strategy cells at several num_checks, so
        the 2^-kappa survival rate is empirically measurable."""
        configs = grid_configs("smoke")
        claim1 = [
            c for c in configs
            if STRATEGIES[c.strategy].improper and c.fault == "none"
            and c.corrupt_count == 1 and c.trials >= 64
        ]
        assert {c.num_checks for c in claim1} >= {1, 2, 3}

    def test_grid_enumeration_is_deterministic(self):
        assert [c.key() for c in grid_configs("smoke")] == [
            c.key() for c in grid_configs("smoke")
        ]

    def test_nightly_extends_smoke(self):
        smoke = {c.key() for c in grid_configs("smoke")}
        nightly = {c.key() for c in grid_configs("nightly")}
        assert smoke < nightly
