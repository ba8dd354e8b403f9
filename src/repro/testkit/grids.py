"""The named campaign grids: mini, smoke, nightly.

Each grid is a deterministic list of :class:`CampaignConfig` cells
crossing the testkit axes at a scale matched to its tier:

- ``mini`` — seconds; used by the unit tests and as a PR sanity gate.
- ``smoke`` — tens of seconds; the always-on CI campaign.  Contains a
  dedicated Claim 1 block (high-trial survival-rate measurement at
  ``num_checks`` in {1, 2, 3}), a proper-strategy block, the full fault
  axis, strategy x fault crosses, one field per kernel substrate, and a
  small parameter-scale block.
- ``nightly`` — minutes; the full strategy x fault cross plus larger
  trials and parameter scales, run warn-only on a schedule.

Grid cells are pure data: the same name always enumerates the same
configs, so a campaign is reproducible from ``(grid, seed)`` alone.
"""

from __future__ import annotations

from typing import Callable

from .axes import FAULTS, STRATEGIES
from .config import CampaignConfig

# The small base cell every grid builds around: the fastest
# parameterization on which every strategy is expressible (d >= 2) and
# cut-and-choose statistics are cheap (~15 ms per protocol run).
_BASE = dict(n=3, t=1, d=2, ell=16, kappa=8)

# A mid-size cell where the output-bound checker is live
# (threshold ceil(d/2) = 2) and faults have room to bite.
_MID = dict(n=4, t=1, d=3, ell=32, kappa=16)


def _mini() -> list[CampaignConfig]:
    b = _BASE
    return [
        CampaignConfig(name="mini/honest-baseline", **b, num_checks=2,
                       trials=3),
        CampaignConfig(name="mini/guessing-ck1", **b, num_checks=1,
                       strategy="guessing-cheater", corrupt_count=1,
                       trials=6),
        CampaignConfig(name="mini/jamming-ck2", **b, num_checks=2,
                       strategy="jamming", corrupt_count=1, trials=6),
        CampaignConfig(name="mini/zero", **b, num_checks=1, strategy="zero",
                       corrupt_count=1, trials=3),
        CampaignConfig(name="mini/crash-share", **b, num_checks=2,
                       fault="crash-share", corrupt_count=1, trials=3),
        CampaignConfig(name="mini/drop-half", **b, num_checks=2,
                       fault="drop-half", corrupt_count=1, trials=3),
    ]


def _smoke() -> list[CampaignConfig]:
    configs: list[CampaignConfig] = []
    b = _BASE
    # Claim 1 block: measure the survival rate of both improper
    # strategies against 2^-num_checks with enough trials for the
    # binomial tolerance to have teeth.
    for num_checks in (1, 2, 3):
        for strategy in ("guessing-cheater", "jamming"):
            configs.append(
                CampaignConfig(
                    name=f"smoke/claim1-{strategy}-ck{num_checks}",
                    **b,
                    num_checks=num_checks,
                    strategy=strategy,
                    corrupt_count=1,
                    trials=96,
                )
            )
    # Proper strategies must always survive (completeness direction).
    for strategy in ("zero", "targeted", "dependent-input"):
        configs.append(
            CampaignConfig(
                name=f"smoke/proper-{strategy}", **b, num_checks=2,
                strategy=strategy, corrupt_count=1, trials=8,
            )
        )
    # The whole fault axis against honest corrupted parties.
    m = _MID
    for fault in FAULTS:
        if fault == "none":
            continue
        configs.append(
            CampaignConfig(
                name=f"smoke/fault-{fault}", **m, num_checks=2,
                fault=fault, corrupt_count=1, trials=6,
            )
        )
    # Strategy x fault crosses.
    for strategy, fault in (
        ("jamming", "drop-half"),
        ("guessing-cheater", "flip"),
        ("zero", "garble"),
        ("targeted", "drop+flip"),
    ):
        configs.append(
            CampaignConfig(
                name=f"smoke/cross-{strategy}-{fault}", **m, num_checks=2,
                strategy=strategy, fault=fault, corrupt_count=1, trials=6,
            )
        )
    # Substrate axis, chosen by the field: GF(2^26) (paper_parameters(9))
    # runs the table-free carryless kernel, GF(2^34) (paper_parameters
    # for n >= 17) has no vectorized substrate and runs pure Python.
    for kappa in (26, 34):
        cell = {**b, "kappa": kappa}
        configs.append(
            CampaignConfig(
                name=f"smoke/field-k{kappa}-honest", **cell,
                num_checks=2, trials=4,
            )
        )
        configs.append(
            CampaignConfig(
                name=f"smoke/field-k{kappa}-jamming", **cell,
                num_checks=2, strategy="jamming", corrupt_count=1,
                trials=4,
            )
        )
    # Batched hot path: the protocol-level batch kernels (stage-2
    # diffs, step-4 sums) at the shape the benchmarks measure.
    configs.append(
        CampaignConfig(
            name="smoke/batched-hotpath",
            n=4, t=1, d=4, ell=64, kappa=16, num_checks=2,
            strategy="jamming", corrupt_count=1, trials=2,
        )
    )
    # Parameter-scale block.
    configs.extend(
        [
            CampaignConfig(name="smoke/scale-n5", n=5, t=2, d=4, ell=64,
                           kappa=16, num_checks=2, strategy="jamming",
                           corrupt_count=2, trials=2),
            CampaignConfig(name="smoke/scale-d6", n=4, t=1, d=6, ell=96,
                           kappa=16, num_checks=3, strategy="targeted",
                           corrupt_count=1, trials=2),
            CampaignConfig(name="smoke/scale-n6", n=6, t=2, d=3, ell=48,
                           kappa=12, num_checks=2, trials=2),
        ]
    )
    return configs


def _nightly() -> list[CampaignConfig]:
    configs = _smoke()
    m = _MID
    # The full strategy x fault cross at mid scale.
    for strategy in STRATEGIES:
        for fault in FAULTS:
            if strategy == "honest" and fault == "none":
                continue
            configs.append(
                CampaignConfig(
                    name=f"nightly/cross-{strategy}-{fault}", **m,
                    num_checks=2, strategy=strategy, fault=fault,
                    corrupt_count=1, trials=8,
                )
            )
    # Deeper Claim 1 statistics.
    for num_checks in (4, 5):
        configs.append(
            CampaignConfig(
                name=f"nightly/claim1-guessing-ck{num_checks}", **_BASE,
                num_checks=num_checks, strategy="guessing-cheater",
                corrupt_count=1, trials=256,
            )
        )
    # Larger parameter scales.
    configs.extend(
        [
            CampaignConfig(name="nightly/scale-n7", n=7, t=3, d=4, ell=96,
                           kappa=16, num_checks=2, strategy="jamming",
                           corrupt_count=3, trials=2),
            CampaignConfig(name="nightly/scale-d8", n=4, t=1, d=8, ell=192,
                           kappa=16, num_checks=4, strategy="guessing-cheater",
                           corrupt_count=1, trials=4),
        ]
    )
    return configs


#: name -> grid builder.
GRIDS: dict[str, Callable[[], list[CampaignConfig]]] = {
    "mini": _mini,
    "smoke": _smoke,
    "nightly": _nightly,
}


def grid_configs(name: str) -> list[CampaignConfig]:
    """The validated config list of a named grid.

    Raises ``KeyError`` for unknown grids and ``ValueError`` if a grid
    cell is invalid or two cells collide on their identity key (a
    same-key pair would silently reuse seeds).
    """
    if name not in GRIDS:
        raise KeyError(
            f"unknown grid {name!r}; known grids: {sorted(GRIDS)}"
        )
    configs = GRIDS[name]()
    seen: dict[str, str] = {}
    for config in configs:
        config.validate()
        key = config.key()
        if key in seen:
            raise ValueError(
                f"grid {name!r}: configs {seen[key]!r} and "
                f"{config.name!r} have the same identity key"
            )
        seen[key] = config.name
    return configs
