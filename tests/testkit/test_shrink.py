"""The shrinker: minimal reproducers for violating configs."""

from repro.testkit import CampaignConfig, run_config, shrink_config
from repro.testkit.cli import build_registry


def _big_config(**kw):
    base = dict(
        name="shrink-me", n=5, t=2, d=4, ell=64, kappa=16, num_checks=3,
        strategy="jamming", fault="drop-half", corrupt_count=2, trials=8,
    )
    base.update(kw)
    return CampaignConfig(**base)


class TestShrinkWithInjectedChecker:
    """An intentionally-broken (always-failing) checker must shrink to
    the smallest expressible config — the acceptance-criteria path."""

    def test_shrinks_every_axis_to_the_floor(self):
        registry = build_registry(selftest_break="broken")
        result = shrink_config(
            _big_config(), "broken", campaign_seed=0, registry=registry
        )
        m = result.minimal
        assert result.shrank and result.steps
        assert m.fault == "none"
        assert m.strategy == "honest"
        assert m.corrupt_count == 0
        assert m.n == 3
        assert m.d == 1
        assert m.ell == 1
        assert m.num_checks == 1
        assert m.kappa == 8
        assert m.substrate == "tables"  # derived from kappa=8
        assert m.trials == 1

    def test_minimal_config_still_violates(self):
        registry = build_registry(selftest_break="broken")
        result = shrink_config(
            _big_config(), "broken", campaign_seed=0, registry=registry
        )
        rerun = run_config(result.minimal, 0, registry)
        assert any(
            o.invariant == "broken" and o.applicable and not o.passed
            for o in rerun.outcomes
        )

    def test_shrink_is_deterministic(self):
        registry = build_registry(selftest_break="broken")
        a = shrink_config(_big_config(), "broken", registry=registry)
        b = shrink_config(_big_config(), "broken", registry=registry)
        assert a.to_dict() == b.to_dict()

    def test_attempt_budget_is_respected(self):
        registry = build_registry(selftest_break="broken")
        result = shrink_config(
            _big_config(), "broken", registry=registry, max_attempts=3
        )
        assert result.attempts <= 3
        assert result.exhausted


class TestShrinkAgainstHealthyProtocol:
    def test_non_firing_invariant_does_not_shrink(self):
        """If the invariant never fires on any candidate, the shrinker
        keeps the original config and records zero steps."""
        registry = build_registry()
        config = CampaignConfig(
            name="healthy", n=3, t=1, d=2, ell=16, kappa=8, num_checks=2,
            trials=1,
        )
        result = shrink_config(config, "agreement", registry=registry)
        assert not result.shrank
        assert result.steps == []
