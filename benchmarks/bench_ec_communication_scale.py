"""Ec — Communication complexity and the paper-exact parameter scale.

The paper (§1.2, closing remark) *forgoes* explicit treatment of
communication complexity — its focus is feasibility of constant-round
channels — noting the protocols "can be compiled via generic techniques
[BFO12] into more communication-efficient versions".  We measure what
the uncompiled protocol actually costs on the simulator (field elements
on the wire, per VSS profile and per n), and tabulate the paper-exact
parameter sizes that motivate DESIGN.md's scaled parameterization.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import phase_breakdown, pure_python_path, report

from repro.core import paper_parameters, run_anonchan, scaled_parameters
from repro.obs import Tracer
from repro.vss import IdealVSS


def test_ec_measured_bandwidth(benchmark):
    rows = []

    def run():
        rows.clear()
        for n in (3, 4, 5, 6, 7):
            params = scaled_parameters(n=n, d=6, num_checks=3, kappa=16, margin=6)
            vss = IdealVSS(params.field, params.n, params.t)
            messages = {i: params.field(10 + i) for i in range(n)}
            res = run_anonchan(params, vss, messages, seed=n)
            m = res.metrics
            per_dealer = params.values_per_dealer
            rows.append(
                (n, params.ell, per_dealer,
                 per_dealer * n + params.values_receiver,
                 m.private_messages, m.field_elements_sent)
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ec_bandwidth",
        "Measured communication (scaled parameters, ideal-VSS hybrid)",
        ["n", "l", "VSS values/dealer", "VSS values total",
         "private messages", "field elements on wire"],
        rows,
        notes="the paper treats communication complexity as out of scope\n"
              "(compilable via [BFO12]); these are the uncompiled costs of\n"
              "this implementation, dominated by the cut-and-choose openings.\n"
              "payload_size now counts mapping keys as wire atoms; these\n"
              "totals are unchanged because the ideal-VSS hybrid puts only\n"
              "flat lists on the wire (dict payloads appear under costed\n"
              "VSS profiles, whose traced runs do count labels).",
    )
    # Sanity: costs grow with n (superlinear: more dealers x longer vectors).
    elements = [r[5] for r in rows]
    assert all(a < b for a, b in zip(elements, elements[1:]))


def test_ec_sharing_backend_speedup(benchmark):
    """End-to-end AnonChan wall time: scalar vs vectorized sharing.

    The scalar column runs the same field on the pure-Python path
    (``_common.pure_python_path``).  Both paths must produce
    byte-identical protocol transcripts (the kernels are purely an
    execution-speed matter); the vectorized run is traced so the JSON
    artifact carries its per-phase breakdown.
    """
    import time

    rows = []
    breakdowns = {}

    def run():
        rows.clear()
        for n in (4, 5, 6):
            params = scaled_parameters(
                n=n, d=6, num_checks=3, kappa=16, margin=6
            )
            timings = {}
            outputs = {}
            for backend in ("scalar", "vectorized"):
                vss = IdealVSS(params.field, params.n, params.t)
                messages = {i: params.field(10 + i) for i in range(n)}
                tracer = Tracer() if backend == "vectorized" else None
                t0 = time.perf_counter()
                with pure_python_path(backend == "scalar"):
                    res = run_anonchan(
                        params, vss, messages, seed=n, tracer=tracer
                    )
                timings[backend] = time.perf_counter() - t0
                outputs[backend] = [
                    (sorted(out.output.items()) if out.output is not None else None)
                    for out in res.outputs.values()
                ]
                if tracer is not None:
                    breakdowns[f"n={n}"] = phase_breakdown(tracer)
            assert outputs["scalar"] == outputs["vectorized"]
            rows.append(
                (n,
                 round(timings["scalar"], 3),
                 round(timings["vectorized"], 3),
                 round(timings["scalar"] / timings["vectorized"], 2))
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ec_backend_speedup",
        "AnonChan end-to-end: scalar vs vectorized sharing backend "
        "(scaled parameters)",
        ["n", "scalar s", "vectorized s", "speedup"],
        rows,
        notes="identical protocol outputs asserted per run; the vectorized\n"
              "column includes tracing overhead (its phase breakdown is in\n"
              "the JSON artifact under extra.phase_breakdown).",
        extra={"phase_breakdown": breakdowns},
    )
    # The backends must agree; speed is reported, not asserted (the
    # simulator's Python overhead dominates at the small scaled sizes).


def test_ec_paper_parameter_scale(benchmark):
    """Why experiments use scaled parameters: the exact sizes."""
    rows = []

    def run():
        rows.clear()
        for n in (3, 5, 7, 9, 13):
            p = paper_parameters(n)
            rows.append(
                (n, p.kappa, f"{p.d:,}", f"{p.ell:,}",
                 f"{p.values_per_dealer:,}",
                 f"{p.values_per_dealer * p.n + p.values_receiver:,}")
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ec_paper_scale",
        "Paper-exact parameters (d = n^4 k, l = 4 n^6 k, kappa raised to "
        "encode indices)",
        ["n", "kappa", "d", "l", "VSS sharings per dealer", "total sharings"],
        rows,
        notes="already at n=5 a single execution would require ~10^9 VSS\n"
              "sharings; the paper never executed these parameters either\n"
              "(no implementation exists).  DESIGN.md section 3 documents the\n"
              "structure-preserving scaled parameterization used instead.",
    )
    assert int(rows[0][4].replace(",", "")) > 10**6  # even n=3 is huge
