"""Tests for the ideal-functionality VSS backend."""

import random

import pytest

from repro.fields import gf2k
from repro.obs.profiler import OpProfiler, profiled
from repro.vss import (
    DEALER_DISQUALIFIED,
    GGOR13_COST,
    REFUSE,
    IdealVSS,
    ReconstructionError,
    VSSCost,
    combine_views,
)

from .harness import share_and_open, sum_across_dealers


@pytest.fixture
def scheme():
    return IdealVSS(gf2k(16), n=5, t=2)


class TestShareOpen:
    def test_single_dealer_roundtrip(self, scheme):
        f = scheme.field
        result, _ = share_and_open(scheme, {0: [f(11), f(22)]})
        for pid, out in result.outputs.items():
            assert out[0] == [f(11), f(22)]

    def test_all_dealers_parallel(self, scheme):
        f = scheme.field
        secrets = {d: [f(100 + d)] for d in range(scheme.n)}
        result, _ = share_and_open(scheme, secrets)
        for out in result.outputs.values():
            for d in range(scheme.n):
                assert out[d] == [f(100 + d)]

    def test_parallel_sharing_costs_one_share_phase(self, scheme):
        f = scheme.field
        secrets = {d: [f(d)] for d in range(scheme.n)}
        result, _ = share_and_open(scheme, secrets)
        # share rounds (cost profile) + 1 opening round
        assert result.metrics.rounds == scheme.cost.share_rounds + 1

    def test_refusing_dealer_disqualified(self, scheme):
        f = scheme.field
        result, _ = share_and_open(scheme, {0: REFUSE, 1: [f(5)]})
        for out in result.outputs.values():
            assert out[0] is DEALER_DISQUALIFIED
            assert out[1] == [f(5)]

    def test_dealer_wrong_count_rejected(self, scheme):
        f = scheme.field
        session = scheme.new_session(random.Random(0))
        prog = session.share_program(0, 0, [f(1), f(2)], random.Random(0), count=1)
        with pytest.raises(ValueError):
            next(prog)


class TestCostProfiles:
    def test_ggor13_profile_metrics(self):
        f = gf2k(16)
        scheme = IdealVSS(f, n=5, t=2, cost=GGOR13_COST)
        result, _ = share_and_open(scheme, {0: [f(7)]})
        assert result.metrics.rounds == 21 + 1
        assert result.metrics.broadcast_rounds == 2

    def test_default_cost(self):
        scheme = IdealVSS(gf2k(16), n=5, t=2)
        assert scheme.cost.share_rounds == 1

    def test_invalid_cost(self):
        with pytest.raises(ValueError):
            VSSCost(share_rounds=1, share_broadcast_rounds=2)


class TestLinearity:
    def test_sum_across_dealers(self, scheme):
        f = scheme.field
        secrets = {d: [f(10 * (d + 1))] for d in range(scheme.n)}
        result, _ = sum_across_dealers(scheme, secrets)
        expected = f.sum([s[0] for s in secrets.values()])
        for out in result.outputs.values():
            assert out == expected

    def test_scaled_combination(self, scheme):
        f = scheme.field
        session = scheme.new_session(random.Random(0))
        from repro.network import parallel, run_protocol

        def party(pid, rng):
            batches = yield from parallel(
                {
                    d: session.share_program(
                        pid, d, [f(d + 1)] if pid == d else None, rng, count=1
                    )
                    for d in range(2)
                }
            )
            combo = combine_views(
                [batches[0][0], batches[1][0]], [f(3), f(5)]
            )
            values = yield from session.open_program(pid, [combo])
            return values[0]

        result = run_protocol(
            {pid: party(pid, random.Random(pid)) for pid in range(scheme.n)}
        )
        expected = f(3) * f(1) + f(5) * f(2)
        for out in result.outputs.values():
            assert out == expected

    def test_zero_view_identity(self, scheme):
        session = scheme.new_session(random.Random(0))
        z = session.zero_view(0)
        assert (z + z).value == 0
        assert z.scale(scheme.field(7)).value == 0

    def test_mixed_party_views_rejected(self, scheme):
        session = scheme.new_session(random.Random(0))
        with pytest.raises(ValueError):
            _ = session.zero_view(0) + session.zero_view(1)


class TestBackends:
    """The field picks the kernels: identical semantics, different execution."""

    def test_vectorized_scheme_on_unsupported_field(self):
        # gf2k(33) exceeds the carryless kernel width: no substrate, so
        # even a batch of 100 deals on the pure-Python path.
        for k, path in ((16, "deal_batched"), (33, "deal_scalar_fallback")):
            f = gf2k(k)
            prof = OpProfiler()
            with profiled(prof):
                share_and_open(
                    IdealVSS(f, n=5, t=2), {0: [f(v) for v in range(100)]}
                )
            assert prof.total("vss", path) == 100

    def test_auto_on_unsupported_field_falls_back(self):
        f = gf2k(33)
        scheme = IdealVSS(f, n=5, t=2)  # no substrate: pure Python
        result, _ = share_and_open(scheme, {0: [f(v) for v in range(40)]})
        for out in result.outputs.values():
            assert out[0] == [f(v) for v in range(40)]

    @pytest.mark.parametrize("count", [1, 100])
    def test_open_backends_agree(self, pure_python, count):
        f = gf2k(16)
        secrets = {0: [f((v * 7 + 1) % f.order) for v in range(count)]}
        outputs = {}
        for backend in ("scalar", "vectorized"):
            scheme = IdealVSS(f, n=5, t=2)
            with pure_python(backend == "scalar"):
                result, _ = share_and_open(scheme, secrets)
            outputs[backend] = {
                pid: out[0] for pid, out in result.outputs.items()
            }
        assert outputs["scalar"] == outputs["vectorized"]
        assert outputs["scalar"][0] == secrets[0]


class TestPrivateBatchReconstruction:
    """The batch form of the paper's step-4 private reconstruction."""

    def _share_batch(self, scheme, values, seed=1):
        from repro.network import run_protocol

        f = scheme.field
        secrets = [f(v) for v in values]
        session = scheme.new_session(random.Random(seed))

        def party(pid, rng):
            batch = yield from session.share_program(
                pid, 0, secrets if pid == 0 else None, rng,
                count=len(secrets),
            )
            return batch

        result = run_protocol(
            {pid: party(pid, random.Random(pid)) for pid in range(scheme.n)}
        )
        columns = {
            pid: [session.reveal_payload(pid, v) for v in batch.views]
            for pid, batch in result.outputs.items()
        }
        receiver_views = list(result.outputs[0].views)
        return session, columns, receiver_views, secrets

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_honest_columns_reconstruct(self, pure_python, backend):
        scheme = IdealVSS(gf2k(16), n=5, t=2)
        with pure_python(backend == "scalar"):
            session, columns, views, secrets = self._share_batch(
                scheme, range(70)
            )
        opened = session.reconstruct_private_batch(
            columns, count=len(secrets), verifier=0, views=views
        )
        assert opened == secrets

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_corrupted_position_yields_none(self, pure_python, backend):
        scheme = IdealVSS(gf2k(16), n=5, t=2)
        with pure_python(backend == "scalar"):
            session, columns, views, secrets = self._share_batch(
                scheme, range(70)
            )
        # A minority of forged payloads at position 3 is corrected...
        for pid in (1, 2):
            sender, terms, value = columns[pid][3]
            columns[pid][3] = (sender, terms, value ^ 1)
        opened = session.reconstruct_private_batch(
            columns, count=len(secrets), verifier=0, views=views
        )
        assert opened == secrets
        # ...but losing the quorum (3 of 5 forged) only kills position 3.
        sender, terms, value = columns[3][3]
        columns[3][3] = (sender, terms, value ^ 1)
        opened = session.reconstruct_private_batch(
            columns, count=len(secrets), verifier=0, views=views
        )
        assert opened[3] is None
        assert opened[:3] + opened[4:] == secrets[:3] + secrets[4:]

    @pytest.mark.parametrize("with_views", [True, False],
                             ids=["views", "no-views"])
    @pytest.mark.parametrize("k", [16, 33])
    def test_short_column_skipped_per_position(self, k, with_views):
        """A short column (only another sender's can be short) takes part
        at the positions it has and is skipped at the others."""
        # n=5, t=2, no receiver column: sender 3 is cut to 10 entries
        # and sender 4 forges position 5.  Positions < 10 have senders
        # 1, 2, 3 honest; the rest have 1, 2, 4 — quorum everywhere.
        scheme = IdealVSS(gf2k(k), n=5, t=2)
        session, columns, views, secrets = self._share_batch(
            scheme, range(1, 81)
        )
        del columns[0]
        columns[3] = columns[3][:10]
        sender, terms, value = columns[4][5]
        columns[4][5] = (sender, terms, value ^ 1)
        kwargs = {"views": views} if with_views else {}
        assert session.reconstruct_private_batch(
            columns, count=80, verifier=0, **kwargs
        ) == secrets
        # n=3, t=1: two full honest columns meet quorum at every
        # position next to a cut one.
        scheme = IdealVSS(gf2k(k), n=3, t=1)
        session, columns, views, secrets = self._share_batch(
            scheme, range(1, 81)
        )
        columns[2] = columns[2][:10]
        kwargs = {"views": views} if with_views else {}
        assert session.reconstruct_private_batch(
            columns, count=80, verifier=0, **kwargs
        ) == secrets

    def test_generic_path_without_views(self):
        scheme = IdealVSS(gf2k(16), n=5, t=2)
        session, columns, _views, secrets = self._share_batch(
            scheme, range(10)
        )
        opened = session.reconstruct_private_batch(
            columns, count=len(secrets), verifier=0
        )
        assert opened == secrets


class TestVerification:
    """The functionality enforces what real VSS guarantees w.h.p."""

    def _setup_payloads(self, scheme, secret_value=99, seed=1):
        from repro.network import run_protocol

        f = scheme.field
        session = scheme.new_session(random.Random(seed))

        def party(pid, rng):
            batch = yield from session.share_program(
                pid, 0, [f(secret_value)] if pid == 0 else None, rng, count=1
            )
            return batch

        result = run_protocol(
            {pid: party(pid, random.Random(pid)) for pid in range(scheme.n)}
        )
        payloads = {
            pid: session.reveal_payload(pid, batch[0])
            for pid, batch in result.outputs.items()
        }
        return session, payloads

    def test_honest_payloads_reconstruct(self, scheme):
        session, payloads = self._setup_payloads(scheme)
        assert session.verify_and_combine(payloads) == scheme.field(99)

    def test_forged_share_value_ignored(self, scheme):
        session, payloads = self._setup_payloads(scheme)
        pid, terms, value = payloads[3]
        payloads[3] = (pid, terms, value ^ 1)
        assert session.verify_and_combine(payloads) == scheme.field(99)

    def test_misattributed_payload_ignored(self, scheme):
        session, payloads = self._setup_payloads(scheme)
        payloads[3] = payloads[2]  # party 3 replays party 2's payload
        assert session.verify_and_combine(payloads) == scheme.field(99)

    def test_garbage_terms_ignored(self, scheme):
        session, payloads = self._setup_payloads(scheme)
        payloads[3] = (3, ((999999, 1),), 0)
        assert session.verify_and_combine(payloads) == scheme.field(99)

    def test_too_few_payloads_raises(self, scheme):
        session, payloads = self._setup_payloads(scheme)
        few = {pid: payloads[pid] for pid in list(payloads)[: scheme.t]}
        with pytest.raises(ReconstructionError):
            session.verify_and_combine(few)

    def test_private_reconstruction_at_receiver(self, scheme):
        """Only the receiver collects payloads -> only it learns the value."""
        session, payloads = self._setup_payloads(scheme, secret_value=123)
        # Receiver-side local combine (no interaction needed).
        assert session.verify_and_combine(payloads) == scheme.field(123)
