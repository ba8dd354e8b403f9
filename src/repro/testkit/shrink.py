"""Shrinking a violating config to a locally-minimal reproducer.

When a campaign cell violates an invariant, the raw config is usually
far bigger than the bug needs.  ``shrink_config`` greedily walks the
config's axes — fault removed, strategy -> honest, fewer corrupted
parties, fewer parties, fewer checks, smaller ``d``/``ell``/``kappa``,
fewer trials — re-running the candidate after each step and keeping
it only if the *same* invariant still fires.  The
result is locally minimal: no single axis step reproduces the
violation on a smaller config.

Shrinking is deterministic (candidates are tried in a fixed order and
each run derives all randomness from the campaign seed) and budgeted
(``max_attempts`` candidate evaluations), so a shrink that converged
once converges identically on re-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from .axes import STRATEGIES
from .config import CampaignConfig
from .invariants import InvariantChecker
from .runner import run_config


@dataclass
class ShrinkResult:
    """Outcome of one shrink: the minimal config and the path to it."""

    original: CampaignConfig
    minimal: CampaignConfig
    invariant: str
    steps: list[str]
    attempts: int
    runs: int
    exhausted: bool = False

    @property
    def shrank(self) -> bool:
        return self.minimal != self.original

    def to_dict(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "original": self.original.to_dict(),
            "minimal": self.minimal.to_dict(),
            "steps": list(self.steps),
            "attempts": self.attempts,
            "runs": self.runs,
            "exhausted": self.exhausted,
        }


def _try(config: CampaignConfig, **changes: Any) -> CampaignConfig | None:
    """``config.with_(**changes)`` if it yields a valid config."""
    try:
        candidate = config.with_(**changes)
        candidate.validate()
        return candidate
    except ValueError:
        return None


def _candidates(
    config: CampaignConfig,
) -> Iterator[tuple[str, CampaignConfig]]:
    """Single-axis reductions of ``config``, most drastic first."""
    if config.fault != "none":
        c = _try(config, fault="none")
        if c:
            yield "remove the network fault", c
    if config.strategy != "honest":
        c = _try(config, strategy="honest")
        if c:
            yield "replace the strategy with honest behaviour", c
    if config.corrupt_count > 0:
        fewer = config.corrupt_count - 1
        c = _try(config, corrupt_count=fewer)
        if fewer == 0:
            c = _try(config, corrupt_count=0, strategy="honest", fault="none")
        if c:
            yield f"corrupt {fewer} parties instead", c
    if config.n > 3:
        new_n = config.n - 1
        new_t = min(config.t, (new_n - 1) // 2)
        new_corrupt = min(config.corrupt_count, new_t)
        if new_corrupt == config.corrupt_count or config.corrupt_count == 0:
            c = _try(config, n=new_n, t=new_t, corrupt_count=new_corrupt)
            if c:
                yield f"shrink to n={new_n}", c
    if config.t > max(config.corrupt_count, 1):
        c = _try(config, t=config.t - 1)
        if c:
            yield f"lower the corruption bound to t={config.t - 1}", c
    if config.num_checks > 1:
        c = _try(config, num_checks=config.num_checks - 1)
        if c:
            yield f"use {config.num_checks - 1} cut-and-choose checks", c
    min_d = STRATEGIES[config.strategy].min_d
    if config.d // 2 >= min_d and config.d // 2 < config.d:
        c = _try(config, d=config.d // 2)
        if c:
            yield f"halve the dart count to d={config.d // 2}", c
    if config.d - 1 >= min_d:
        c = _try(config, d=config.d - 1)
        if c:
            yield f"drop one dart to d={config.d - 1}", c
    if config.ell // 2 >= config.d:
        c = _try(config, ell=config.ell // 2)
        if c:
            yield f"halve the vector length to ell={config.ell // 2}", c
    if config.kappa > 8:
        c = _try(config, kappa=8)
        if c:
            yield "shrink the field to GF(2^8)", c
    if config.trials > 1:
        c = _try(config, trials=max(1, config.trials // 2))
        if c:
            yield f"run {max(1, config.trials // 2)} trials", c


def shrink_config(
    config: CampaignConfig,
    invariant: str,
    campaign_seed: int = 0,
    registry: dict[str, InvariantChecker] | None = None,
    max_attempts: int = 64,
) -> ShrinkResult:
    """Greedily minimize ``config`` while ``invariant`` keeps firing.

    ``registry`` must be the same checker registry that produced the
    original violation (including any test-injected checkers), so the
    acceptance test re-evaluates exactly the failing invariant.
    """

    def still_violates(candidate: CampaignConfig) -> tuple[bool, int]:
        result = run_config(candidate, campaign_seed, registry)
        hit = any(
            o.invariant == invariant and o.applicable and not o.passed
            for o in result.outcomes
        )
        return hit, result.runs

    current = config
    steps: list[str] = []
    attempts = 0
    runs = 0
    exhausted = False
    improved = True
    while improved:
        improved = False
        for description, candidate in _candidates(current):
            if attempts >= max_attempts:
                exhausted = True
                break
            attempts += 1
            hit, spent = still_violates(candidate)
            runs += spent
            if hit:
                current = candidate
                steps.append(f"{description} ({candidate.key()})")
                improved = True
                break
        if exhausted:
            break
    return ShrinkResult(
        original=config,
        minimal=current,
        invariant=invariant,
        steps=steps,
        attempts=attempts,
        runs=runs,
        exhausted=exhausted,
    )
