"""Canonical v4 trace conformance for the batched hot path.

The v3 baseline (``trace_v3_lockstep_n5_seed0``) strips the virtual
timing fields; without a network model (zero latency) those fields
are themselves deterministic, so PR 10 pins the *full* v4 canonical
form — and requires the batched backend to reproduce it byte-for-byte.
A batched run that sent different payloads, reordered rounds, or even
changed a message size would break these lines.

The baseline was generated from a lockstep run on the pure-Python path
(the reference); the test holds that path (entered through the
``pure_python`` seam of ``tests/conftest.py``) and the numpy kernels to
it.  Regenerate with (drop the patch to record from the kernels)::

    PYTHONPATH=src python -c "
    from pathlib import Path
    from unittest import mock
    from repro.core import run_anonchan, scaled_parameters
    from repro.fields import vectorized
    from repro.obs import Tracer, canonical_lines
    from repro.vss import GGOR13_COST, IdealVSS
    mock.patch.object(vectorized, 'vector_backend',
                      side_effect=ValueError).start()
    params = scaled_parameters(n=5)
    vss = IdealVSS(params.field, params.n, params.t, cost=GGOR13_COST)
    tracer = Tracer()
    run_anonchan(params, vss,
                 {i: params.field(100 + i) for i in range(5)},
                 seed=0, tracer=tracer)
    Path('tests/obs/data/trace_v4_lockstep_n5_seed0.canonical.jsonl'
         ).write_text('\\n'.join(canonical_lines(tracer.events)) + '\\n')"
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import run_anonchan, scaled_parameters
from repro.obs import Tracer, canonical_lines, without_timing_fields
from repro.obs.profiler import OpProfiler
from repro.vss import GGOR13_COST, IdealVSS

BASELINE_V4 = (
    Path(__file__).parent / "data" / "trace_v4_lockstep_n5_seed0.canonical.jsonl"
)
BASELINE_V3 = (
    Path(__file__).parent / "data" / "trace_v3_lockstep_n5_seed0.canonical.jsonl"
)

BACKEND_MODES = ("scalar", "vectorized")


def _traced_run(profiler: OpProfiler | None = None) -> Tracer:
    params = scaled_parameters(n=5)
    vss = IdealVSS(params.field, params.n, params.t, cost=GGOR13_COST)
    messages = {i: params.field(100 + i) for i in range(5)}
    tracer = Tracer()
    run_anonchan(
        params, vss, messages, seed=0, tracer=tracer, profiler=profiler
    )
    return tracer


@pytest.mark.parametrize("backend", BACKEND_MODES)
def test_backend_reproduces_v4_baseline(pure_python, backend):
    with pure_python(backend == "scalar"):
        lines = canonical_lines(_traced_run().events)
    assert lines == BASELINE_V4.read_text().splitlines()


def test_vectorized_run_engages_batched_path():
    """The byte-identity above must hold *while* the fast path runs —
    otherwise the conformance cell silently degrades to scalar-vs-scalar.
    (The profiler adds ``prof`` events to the trace, so the counter check
    runs separately from the baseline comparison above.)"""
    prof = OpProfiler()
    _traced_run(profiler=prof)
    assert prof.total("vss", "deal_batched") > 0
    assert prof.total("vss", "combine_batched") > 0
    assert prof.total("vss", "combine_scalar_fallback") == 0


def test_v4_baseline_downgrades_to_v3_baseline():
    """Stripping the timing fields from the v4 baseline must recover the
    v3 baseline exactly: the two pinned artifacts describe one run."""
    from repro.obs.events import TraceEvent

    # Canonical lines strip ``t_ns``; from_dict needs it, and the
    # canonical re-encoding below strips it again.
    events = [
        TraceEvent.from_dict({**json.loads(line), "t_ns": 0})
        for line in BASELINE_V4.read_text().splitlines()
    ]
    stripped = canonical_lines(without_timing_fields(events))
    assert stripped == BASELINE_V3.read_text().splitlines()


def test_v4_baseline_carries_timing_fields():
    """The baseline really is the v4 form: schema 4, the timing-model
    note, and a makespan — i.e. the downgrade test above is not vacuous."""
    lines = BASELINE_V4.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["attrs"]["schema_version"] == 4
    assert any('"timing-model"' in line for line in lines)
    assert any('"makespan_ms"' in line for line in lines)
