"""Campaign telemetry store: per-trial metrics as an append-only JSONL.

Campaigns used to evaluate their invariants and throw the per-trial
communication metrics away.  This module keeps them: every executed
trial becomes one JSONL record tagged with its config name and axes, so
a store appended to by many campaign runs (locally, in CI, nightly)
accumulates a longitudinal record that ``python -m repro dashboard``
renders as per-config aggregates.

Record shape (one JSON object per line)::

    {"stamp": "...", "campaign_seed": 0, "config": "mini/passive/...",
     "strategy": "passive", "fault": "none", "substrate": "tables",
     "n": 5, "trial": 0, "seed": 12345, "rounds": 10,
     "broadcast_rounds": 2, "private_messages": 24,
     "field_elements_sent": 53928, "makespan_ms": 0.0,
     "honest_delivered": true, "ok": true}

The store is tolerant by construction: unknown keys are preserved,
missing files read as empty, and torn/malformed lines are skipped — a
shared file appended to by concurrent CI runs must never poison the
dashboard.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .runner import ConfigResult


def trial_records(
    result: "ConfigResult",
    campaign_seed: int = 0,
    stamp: str | None = None,
) -> list[dict[str, Any]]:
    """Flatten one :class:`~repro.testkit.runner.ConfigResult` to records."""
    if stamp is None:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    config = result.config
    substrate = config.substrate
    records = []
    for trial in result.evidence.trials:
        records.append(
            {
                "stamp": stamp,
                "campaign_seed": campaign_seed,
                "config": config.name,
                "strategy": config.strategy,
                "fault": config.fault,
                "substrate": substrate,
                "n": config.n,
                "trial": trial.trial,
                "seed": trial.seed,
                "rounds": trial.rounds,
                "broadcast_rounds": trial.broadcast_rounds,
                "private_messages": trial.private_messages,
                "field_elements_sent": trial.field_elements_sent,
                "makespan_ms": trial.makespan_ms,
                "honest_delivered": trial.honest_delivered,
                "ok": result.ok,
            }
        )
    return records


class TelemetryStore:
    """Append-only JSONL store of per-trial campaign telemetry."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def append(self, records: Iterable[Mapping[str, Any]]) -> int:
        """Append records as JSONL lines; returns the number written."""
        count = 0
        with open(self.path, "a", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(dict(record), sort_keys=True))
                fh.write("\n")
                count += 1
        return count

    def append_results(
        self,
        results: "Iterable[ConfigResult]",
        campaign_seed: int = 0,
        stamp: str | None = None,
    ) -> int:
        """Append every trial of every result; returns lines written."""
        if stamp is None:
            stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        total = 0
        for result in results:
            total += self.append(
                trial_records(result, campaign_seed, stamp=stamp)
            )
        return total

    def load(self) -> list[dict[str, Any]]:
        """All readable records, in file order; missing file reads empty."""
        records: list[dict[str, Any]] = []
        try:
            fh = open(self.path, "r", encoding="utf-8")
        except OSError:
            return records
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(data, dict):
                    records.append(data)
        return records
