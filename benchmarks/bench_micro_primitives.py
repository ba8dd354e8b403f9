"""Eµ — Microbenchmarks of the substrate primitives.

Field arithmetic, interpolation, Berlekamp–Welch decoding, VSS
share/reconstruct throughput, and one end-to-end AnonChan execution.
These are the knobs that set the wall-clock scale of every experiment.

``test_micro_batch_sharing_speedup`` additionally publishes the
canonical ``BENCH_emu_batch_sharing.json`` (root-level, via
``_common.report``) recording the batched-vs-scalar dealing +
reconstruction speedup.
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import report

from repro.fields import Polynomial, gf2k, interpolate_at
from repro.sharing import ShamirScheme, berlekamp_welch
from repro.vss import IdealVSS
from repro.core import run_anonchan, scaled_parameters


def test_micro_gf2k_mul(benchmark):
    f = gf2k(16)
    pairs = [(i * 997 % f.order, i * 131 % f.order) for i in range(1, 1001)]

    def run():
        mul = f.mul
        acc = 0
        for a, b in pairs:
            acc ^= mul(a, b)
        return acc

    benchmark(run)


def test_micro_gf2k_inv(benchmark):
    f = gf2k(16)
    values = [i * 31 % (f.order - 1) + 1 for i in range(1000)]

    def run():
        inv = f.inv
        acc = 0
        for v in values:
            acc ^= inv(v)
        return acc

    benchmark(run)


def test_micro_tableless_gf2_64_mul(benchmark):
    f = gf2k(64)
    a, b = 0x0123456789ABCDEF, 0xFEDCBA9876543210

    def run():
        x = a
        for _ in range(100):
            x = f.mul(x, b)
        return x

    benchmark(run)


def test_micro_interpolation(benchmark):
    f = gf2k(16)
    rng = random.Random(0)
    poly = Polynomial.random(f, 5, rng)
    pts = [(f(i), poly(i)) for i in range(1, 7)]
    benchmark(lambda: interpolate_at(f, pts, 0))


def test_micro_berlekamp_welch(benchmark):
    f = gf2k(16)
    rng = random.Random(1)
    poly = Polynomial.random(f, 3, rng)
    pts = [(f(i), poly(i)) for i in range(1, 11)]
    pts[2] = (pts[2][0], pts[2][1] + f(9))
    pts[7] = (pts[7][0], pts[7][1] + f(5))

    def run():
        decoded, errors = berlekamp_welch(f, pts, degree=3)
        assert len(errors) == 2
        return decoded

    benchmark(run)


def test_micro_shamir_share(benchmark):
    f = gf2k(16)
    scheme = ShamirScheme(f, n=9, t=4)
    rng = random.Random(2)
    benchmark(lambda: scheme.share(f(123), rng))


def test_micro_batch_sharing_speedup(benchmark):
    """Batched dealing + reconstruction vs the scalar reference path.

    Measures the raw matrix form (``share_matrix`` /
    ``reconstruct_matrix``) — the form the VSS hot path consumes —
    against per-secret ``share`` + ``reconstruct_all``.  The acceptance
    bar is a >= 5x speedup at paper-scale batch sizes (a dealer at even
    the scaled parameters shares on the order of 10^3 values; the
    paper-exact parameters are orders of magnitude beyond that).
    """
    f = gf2k(16)
    n, t = 7, 3
    # share/reconstruct_all are pure Python whatever the field; the
    # matrix forms run on the kernels GF(2^16) selects.
    scalar = batched = ShamirScheme(f, n, t)
    xs = [p.value for p in batched.points]
    rows = []

    def run():
        rows.clear()
        for batch in (256, 1024, 4096, 16384):
            ints = [(i * 131) % f.order for i in range(batch)]
            secrets = [f(v) for v in ints]

            t0 = time.perf_counter()
            dealt = [scalar.share(s, random.Random(i)) for i, s in enumerate(secrets)]
            opened_scalar = [scalar.reconstruct_all(r).value for r in dealt]
            t_scalar = time.perf_counter() - t0

            t0 = time.perf_counter()
            table = batched.share_matrix(ints, random.Random(0))
            opened_batched = batched.reconstruct_matrix(table, xs)
            t_batched = time.perf_counter() - t0

            assert opened_scalar == opened_batched == ints
            rows.append(
                (batch,
                 round(t_scalar * 1e3, 2),
                 round(t_batched * 1e3, 2),
                 round(t_scalar / t_batched, 2))
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "emu_batch_sharing",
        "Batched vs scalar Shamir dealing + reconstruction "
        "(GF(2^16), n=7, t=3)",
        ["batch", "scalar ms", "batched ms", "speedup"],
        rows,
        notes="scalar = per-secret share() + reconstruct_all();\n"
              "batched = share_matrix() + reconstruct_matrix() through the\n"
              "numpy vector backend (the form the VSS hot path consumes).",
    )
    # Acceptance: >= 5x at paper-scale batch sizes.
    paper_scale = [r for r in rows if r[0] >= 4096]
    assert paper_scale and all(r[3] >= 5.0 for r in paper_scale), rows


def test_micro_ideal_vss_batch_share(benchmark):
    f = gf2k(16)
    scheme = IdealVSS(f, n=7, t=3)
    secrets = [f(i) for i in range(256)]

    def run():
        from repro.network import run_protocol

        session = scheme.new_session(random.Random(0))

        def party(pid, rng):
            return (
                yield from session.share_program(
                    pid, 0, secrets if pid == 0 else None, rng,
                    count=len(secrets),
                )
            )

        return run_protocol(
            {pid: party(pid, random.Random(pid)) for pid in range(7)}
        )

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_micro_anonchan_end_to_end(benchmark):
    params = scaled_parameters(n=4, d=6, num_checks=3, kappa=16, margin=6)
    vss = IdealVSS(params.field, params.n, params.t)
    f = params.field
    messages = {i: f(100 + i) for i in range(4)}
    seeds = iter(range(10_000))

    def run():
        res = run_anonchan(params, vss, messages, seed=next(seeds))
        assert res.outputs[0].output is not None
        return res

    benchmark.pedantic(run, rounds=3, iterations=1)
