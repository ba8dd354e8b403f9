"""Shared table-reporting helpers for the experiment benchmarks.

Every experiment prints its table (the artifact being reproduced) and
appends it to ``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md
can quote measured numbers.  :func:`report` additionally writes the
machine-readable twin ``benchmarks/results/BENCH_<experiment>.json``
(headers, rows, notes, plus any ``extra`` payload such as the
:func:`phase_breakdown` of a traced run) so downstream tooling never
has to scrape the text tables.

The Eµ (``emu_*``), Ec (``ec_*``), and timing (``timing_*``)
experiments are the performance trajectory of the repo, so their
JSON artifacts are *also*
written/refreshed at the repository root as canonical ``BENCH_*.json``
files (CI uploads them as artifacts); everything else stays under
``benchmarks/results/`` only.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Iterator, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Repository root, for the canonical copies of the perf-trajectory
#: experiments.
ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Experiment-name prefixes whose BENCH json is mirrored at the root.
ROOT_BENCH_PREFIXES = ("emu_", "ec_", "timing_")

BENCH_JSON_VERSION = 1


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def report(
    experiment: str,
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
    notes: str = "",
    extra: dict | None = None,
) -> str:
    """Print the experiment table and persist it under results/.

    Writes both the human-readable ``<experiment>.txt`` and the
    machine-readable ``BENCH_<experiment>.json``; ``extra`` carries
    structured side-data (e.g. per-phase breakdowns from a traced run)
    into the JSON artifact only.
    """
    table = format_table(headers, rows)
    body = f"== {experiment}: {title} ==\n{table}"
    if notes:
        body += f"\n{notes}"
    print("\n" + body)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "w") as fh:
        fh.write(body + "\n")
    payload = {
        "version": BENCH_JSON_VERSION,
        "experiment": experiment,
        "title": title,
        "headers": [str(h) for h in headers],
        "rows": [[_jsonable(c) for c in row] for row in rows],
        "notes": notes,
    }
    if extra:
        payload["extra"] = extra
    profile = _active_profile_summary()
    if profile is not None:
        payload.setdefault("extra", {})["profile"] = profile
    json_path = os.path.join(RESULTS_DIR, f"BENCH_{experiment}.json")
    paths = [json_path]
    if experiment.startswith(ROOT_BENCH_PREFIXES):
        paths.append(os.path.join(ROOT_DIR, f"BENCH_{experiment}.json"))
    for path in paths:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return body


@contextmanager
def pure_python_path(active: bool = True) -> Iterator[None]:
    """Run the block as if no field had a vectorized substrate.

    The kernels run iff :func:`repro.fields.vectorized.vector_backend`
    accepts the field, and each ``ShamirScheme`` / VSS session resolves
    that once when it is built; so schemes and sessions built inside
    this block take the pure-Python path — the reference column of the
    speedup benchmarks.  ``active=False`` leaves the field to decide.
    """
    if not active:
        yield
        return
    from unittest import mock

    from repro.fields import vectorized

    def no_substrate(field):
        raise ValueError(f"{field!r}: pure-Python reference column")

    with mock.patch.object(vectorized, "vector_backend", no_substrate):
        yield


def _active_profile_summary() -> dict | None:
    """Op-counter summary of the active profiler, if one is enabled.

    Benchmarks that run under :func:`repro.obs.profiled` get their
    compute-op totals embedded in the JSON artifact's ``extra.profile``
    automatically; unprofiled runs (the default) embed nothing.
    """
    try:
        from repro.obs.profiler import get_profiler
    except ImportError:  # repro not importable: plain table reporting
        return None
    profiler = get_profiler()
    if not profiler.enabled:
        return None
    summary = profiler.summary()
    return summary if summary["total_ops"] else None


def _jsonable(cell):
    """Table cells as JSON scalars (field elements etc. via str)."""
    if isinstance(cell, (bool, int, float, str)) or cell is None:
        return cell
    return str(cell)


def phase_breakdown(tracer) -> dict:
    """Per-phase/per-party cost dict of a traced run (for ``extra``).

    ``tracer`` is a :class:`repro.obs.Tracer` that observed one
    execution; the result is the JSON-stable form of
    :class:`repro.obs.RunMetrics`.
    """
    from repro.obs import RunMetrics

    return RunMetrics.from_events(tracer.events).to_dict()
