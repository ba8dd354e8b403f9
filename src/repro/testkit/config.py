"""Campaign configurations and the deterministic seed policy.

A :class:`CampaignConfig` pins one cell of the conformance grid: the
protocol parameters ``(n, t, d, ell, kappa, num_checks)``, the
adversary strategy, the network fault, how many corrupted parties
carry the strategy, and how many seeded trials to run; the kernel
substrate follows from ``kappa``.  Every piece of randomness in a
campaign is derived from the campaign seed and the config's
canonical :meth:`~CampaignConfig.key` via SHA-256
(:func:`derive_seed`), so a campaign is a pure function of
``(grid, campaign_seed)`` — re-running it reproduces every trial, and
the JSON report embeds enough to re-run any single cell.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Any, Mapping

from repro.core.params import AnonChanParams
from repro.fields import gf2k


def derive_seed(*parts: Any) -> int:
    """A 63-bit seed derived from the given parts via SHA-256.

    Stable across processes and Python versions (no reliance on
    ``hash()``); the joined string representation of the parts is the
    preimage, so distinct part tuples give independent-looking seeds.
    """
    preimage = ":".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(preimage).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class CampaignConfig:
    """One cell of a conformance campaign grid.

    Attributes
    ----------
    name:
        Human label (grids use ``block/cell`` naming); not part of the
        identity key, purely cosmetic.
    n, t, d, ell, kappa, num_checks:
        The :class:`~repro.core.params.AnonChanParams` axes.
    strategy:
        Adversary-strategy axis (a key of
        :data:`repro.testkit.axes.STRATEGIES`).
    fault:
        Network-fault axis (a key of :data:`repro.testkit.axes.FAULTS`),
        applied to the corrupted parties' round outputs.
    corrupt_count:
        How many parties (the highest non-receiver ids) are corrupted.
    trials:
        Seeded protocol executions to run for this cell.
    """

    name: str
    n: int
    t: int
    d: int
    ell: int
    kappa: int
    num_checks: int
    strategy: str = "honest"
    fault: str = "none"
    corrupt_count: int = 0
    trials: int = 2

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("need at least one trial per config")
        if self.corrupt_count < 0:
            raise ValueError("corrupt_count must be non-negative")
        if self.corrupt_count > self.t:
            raise ValueError(
                f"corrupt_count {self.corrupt_count} exceeds t={self.t}"
            )
        if self.corrupt_count >= self.n:
            raise ValueError("cannot corrupt every party")
        if (self.strategy != "honest" or self.fault != "none") and (
            self.corrupt_count == 0
        ):
            raise ValueError(
                "an adversarial strategy or network fault needs at least "
                "one corrupted party (corrupt_count >= 1)"
            )

    @property
    def substrate(self) -> str:
        """The kernel path ``GF(2^kappa)`` takes (derived, read-only).

        ``"tables"`` (numpy log/exp gathers), ``"table-free"`` (numpy
        carryless kernel) or ``"scalar"`` (no vectorized substrate: the
        pure-Python path).
        """
        from repro.fields import vectorized

        field = gf2k(self.kappa)
        try:
            vectorized.vector_backend(field)
        except ValueError:
            return "scalar"
        return "tables" if field.has_tables else "table-free"

    # ------------------------------------------------------------------
    def params(self) -> AnonChanParams:
        """The AnonChanParams for this cell (raises if invalid)."""
        return AnonChanParams(
            n=self.n,
            t=self.t,
            kappa=self.kappa,
            ell=self.ell,
            d=self.d,
            num_checks=self.num_checks,
        )

    def key(self) -> str:
        """Canonical identity string (the seed-derivation preimage).

        ``name`` (cosmetic) is excluded on purpose.  ``substrate=auto``
        is a literal: the substrate used to be a settable axis whose
        default was ``auto``, and keeping that text keeps every cell's
        seed unchanged.
        """
        return (
            f"n={self.n};t={self.t};d={self.d};ell={self.ell};"
            f"kappa={self.kappa};checks={self.num_checks};"
            f"strategy={self.strategy};fault={self.fault};"
            f"substrate=auto;corrupt={self.corrupt_count};"
            f"trials={self.trials}"
        )

    def config_seed(self, campaign_seed: int) -> int:
        """The per-config root seed for a given campaign seed."""
        return derive_seed("config", campaign_seed, self.key())

    def trial_seed(self, campaign_seed: int, trial: int) -> int:
        """The seed of one trial of this config."""
        return derive_seed("trial", self.config_seed(campaign_seed), trial)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "substrate": self.substrate}

    def to_json(self) -> str:
        """Compact, key-sorted JSON (used by ``--config`` repro lines)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignConfig":
        kwargs = dict(data)
        # Derived from kappa (older reports carry a settable value here).
        kwargs.pop("substrate", None)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(kwargs) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = {"n", "t", "d", "ell", "kappa", "num_checks"} - set(kwargs)
        if missing:
            raise ValueError(f"config is missing fields: {sorted(missing)}")
        kwargs.setdefault("name", "adhoc")
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "CampaignConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config JSON must be an object")
        return cls.from_dict(data)

    def with_(self, **changes: Any) -> "CampaignConfig":
        """dataclasses.replace with validation (used by the shrinker)."""
        return replace(self, **changes)

    def validate(self) -> None:
        """Full validation: params constraints plus axis registry lookups.

        Import of the axis registries is deferred to avoid a module
        cycle (axes builds materials from repro.core, which this module
        must stay importable from).
        """
        from .axes import FAULTS, STRATEGIES

        self.params()  # raises ValueError on bad protocol parameters
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                f"known: {sorted(STRATEGIES)}"
            )
        if self.fault not in FAULTS:
            raise ValueError(
                f"unknown fault {self.fault!r}; known: {sorted(FAULTS)}"
            )
        spec = STRATEGIES[self.strategy]
        if self.d < spec.min_d:
            raise ValueError(
                f"strategy {self.strategy!r} needs d >= {spec.min_d}"
            )
