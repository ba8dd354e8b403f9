"""Ideal-functionality VSS backend (hybrid-model composition).

The paper composes AnonChan with VSS *black-box* and inherits its
round/broadcast cost.  This backend mirrors that hybrid-world
methodology: a trusted in-process functionality holds the dealt
polynomials and enforces Commitment (a dealer cannot change a dealt
value) and share authenticity (a corrupted party cannot open a wrong
share without detection), while the party programs consume exactly the
round/broadcast schedule of a chosen *cost profile* (RB89, Rab94,
GGOR13, ...).  This lets the experiments scale AnonChan far beyond what
a full message-level VSS execution could simulate, with metrics that
match the real composition.

The real message-passing backends (:mod:`repro.vss.bgw`,
:mod:`repro.vss.rb89`) validate the VSS properties themselves; their
tests plus this hybrid model together reproduce the paper's
composition claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.fields import FieldElement
from repro.network import Program, RoundOutput, SizedPayload
from repro.obs.profiler import get_profiler

from .base import (
    DEALER_DISQUALIFIED,
    ReconstructionError,
    SharedBatch,
    ShareView,
    VSSCost,
    VSSScheme,
    VSSSession,
)


class RefuseType:
    """Sentinel a (corrupt) dealer passes to refuse to share properly."""

    def __repr__(self) -> str:
        return "REFUSE"


#: Pass as ``secrets`` to model a dealer that gets publicly disqualified.
REFUSE = RefuseType()

#: Terms of a linear combination: serial -> raw coefficient encoding.
Terms = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class IdealShareView(ShareView):
    """A party's view: symbolic terms plus its concrete share value."""

    session: "IdealVSSSession"
    pid: int
    terms: Terms
    value: int  # raw encoding of this party's Shamir share of the combo

    def __add__(self, other: ShareView) -> "IdealShareView":
        if not isinstance(other, IdealShareView) or other.session is not self.session:
            raise ValueError("cannot combine views from different sessions")
        if other.pid != self.pid:
            raise ValueError("cannot combine views of different parties")
        field = self.session.scheme.field
        merged = dict(self.terms)
        for serial, coeff in other.terms:
            merged[serial] = field.add(merged.get(serial, 0), coeff)
        terms = tuple(sorted((s, c) for s, c in merged.items() if c != 0))
        return IdealShareView(
            self.session, self.pid, terms, field.add(self.value, other.value)
        )

    def scale(self, scalar: FieldElement) -> "IdealShareView":
        field = self.session.scheme.field
        sv = scalar.value
        terms = tuple(
            (serial, field.mul(coeff, sv)) for serial, coeff in self.terms if field.mul(coeff, sv) != 0
        )
        return IdealShareView(
            self.session, self.pid, terms, field.mul(self.value, sv)
        )


class _LazyBatchViews(Sequence):
    """Batch views materialized on demand.

    A dealt batch holds one view per secret, but the batched protocol
    paths touch only a fraction of them individually: the offset
    algebra (``diff_offsets_batch`` / ``sum_offsets_batch``) works on
    the batch handle, and openings slice out sub-ranges.  Constructing
    every :class:`IdealShareView` eagerly is pure waste at scale, so
    this sequence builds each view when (and only when) it is indexed.
    Construction is deterministic — repeated access yields equal views
    (``IdealShareView`` equality is by value) — so laziness is
    observationally identical to the eager list.
    """

    __slots__ = ("_session", "_pid", "_first", "_count", "_one")

    def __init__(self, session, pid, first, count, one):
        self._session = session
        self._pid = pid
        self._first = first
        self._count = count
        self._one = one

    def _make(self, k: int) -> "IdealShareView":
        serial = self._first + k
        return IdealShareView(
            self._session,
            self._pid,
            ((serial, self._one),),
            self._session._evals[serial][self._pid + 1],
        )

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._make(k) for k in range(*index.indices(self._count))]
        k = index.__index__()
        if k < 0:
            k += self._count
        if not 0 <= k < self._count:
            raise IndexError("batch view index out of range")
        return self._make(k)

    def __iter__(self):
        return map(self._make, range(self._count))


class IdealVSSSession(VSSSession):
    """Shared trusted functionality + per-party program frontends."""

    def __init__(self, scheme: "IdealVSS"):
        super().__init__(scheme)
        # Per dealt value: its share evaluations at x = 0..n (index 0 is
        # the secret itself).  Polynomials are never materialized — the
        # functionality only ever needs these n+1 points.
        self._evals: list[list[int]] = []
        self._batches: dict[tuple[int, int], int | RefuseType | None] = {}
        self._batch_lengths: dict[tuple[int, int], int] = {}
        self._counters: dict[tuple[int, int], int] = {}
        self._lagrange_cache: dict[tuple[int, ...], list[int]] = {}
        # The numpy kernels run iff the field has a vectorized substrate
        # (looked up through the module, so tests can substitute it);
        # otherwise every batch takes the pure-Python path.
        from repro.fields import vectorized

        try:
            self._vector = vectorized.vector_backend(scheme.field)
        except ValueError:
            self._vector = None
        self._vandermonde = None  # cached powers of the points 0..n
        self._evals_np = None  # cached numpy view of _evals
        # Cross-verifier open caches.  All n verifiers of one public
        # opening verify the same senders against the same expected
        # content, and everything cached here — the honest reference
        # column per sender and the opened values per quorum point set —
        # is derived from the opened terms and the functionality's eval
        # table alone, never from received payloads.  The first verifier
        # builds each entry and the other n-1 reuse it; verdicts about
        # *received* columns are still recomputed per call, so mutated
        # or adversarial payloads cannot poison the cache.
        self._honest_cache: dict[tuple, tuple[list[int], list]] = {}
        self._opened_cache: dict[tuple, list] = {}

    def _lagrange_at_zero(self, xs: tuple[int, ...]) -> list[int]:
        """Cached Lagrange-at-zero coefficients for one point set.

        Two levels: a per-session dict (no locking on the hot path)
        over the process-wide :data:`repro.fields.vectorized.TABLES`
        cache, so the coefficients survive across protocol epochs.
        """
        coeffs = self._lagrange_cache.get(xs)
        if coeffs is None:
            from repro.fields.vectorized import TABLES

            coeffs = TABLES.lagrange_at_zero(self.scheme.field, xs)
            self._lagrange_cache[xs] = coeffs
        return coeffs

    def _evals_matrix(self, vec):
        """The functionality's eval table as a cached numpy matrix."""
        import numpy as np

        if not self._evals:
            return np.zeros((0, self.scheme.n + 1), dtype=vec.dtype)
        if self._evals_np is None or self._evals_np.shape[0] != len(self._evals):
            self._evals_np = np.asarray(self._evals, dtype=vec.dtype)
        return self._evals_np

    # -- functionality internals ------------------------------------------
    def _deal(
        self,
        dealer: int,
        batch_index: int,
        secrets: Sequence[FieldElement] | RefuseType,
        rng: random.Random,
    ) -> None:
        key = (dealer, batch_index)
        if key in self._batches:
            raise ValueError(f"dealer {dealer} already dealt batch {batch_index}")
        if isinstance(secrets, RefuseType):
            self._batches[key] = REFUSE
            return
        first = len(self._evals)
        field = self.scheme.field
        t = self.scheme.t
        n = self.scheme.n
        order = field.order
        points = [field.encode(x) for x in range(n + 1)]
        randrange = rng.randrange
        coeff_rows = [
            [secret.value] + [randrange(order) for _ in range(t)]
            for secret in secrets
        ]
        vec = self._vector
        prof = get_profiler()
        if vec is not None:
            # Vectorizable field: evaluate all sharing polynomials at
            # all party points against the cached Vandermonde table in
            # a few numpy operations.
            import numpy as np

            if prof.enabled:
                prof.count("vss", "deal_batched", len(coeff_rows))
                prof.observe("vss", "deal_batch_size", len(coeff_rows))
            if self._vandermonde is None:
                from repro.fields.vectorized import TABLES

                self._vandermonde = TABLES.vandermonde(vec, points, t)
            table = vec.batch_eval(
                np.asarray(coeff_rows, dtype=vec.dtype),
                vandermonde=self._vandermonde,
            )
            self._evals.extend(row.tolist() for row in table)
        else:
            if prof.enabled:
                # field.add/field.mul below hit the instrumented field
                # methods, so fields/* is counted there, not here.
                prof.count("vss", "deal_scalar_fallback", len(coeff_rows))
            add, mul = field.add, field.mul
            for coeffs in coeff_rows:
                evals = []
                for x in points:
                    acc = 0
                    for c in reversed(coeffs):  # Horner
                        acc = add(mul(acc, x), c)
                    evals.append(acc)
                self._evals.append(evals)
        self._batches[key] = first
        self._batch_lengths[key] = len(secrets)

    def _eval_terms(self, terms: Terms, x_index: int) -> int:
        """Value of a linear combination at party point index (0 = secret)."""
        field = self.scheme.field
        evals = self._evals
        add, mul = field.add, field.mul
        acc = 0
        for serial, coeff in terms:
            acc = add(acc, mul(coeff, evals[serial][x_index]))
        return acc

    def _point(self, pid: int) -> int:
        return self.scheme.field.encode(pid + 1)

    # -- VSSSession interface ----------------------------------------------
    def share_program(
        self,
        pid: int,
        dealer: int,
        secrets: Sequence[FieldElement] | RefuseType | None,
        rng: random.Random,
        count: int = 1,
    ) -> Program:
        scheme: IdealVSS = self.scheme  # type: ignore[assignment]
        batch_index = self._counters.get((pid, dealer), 0)
        self._counters[(pid, dealer)] = batch_index + 1

        if pid == dealer:
            if secrets is None:
                raise ValueError("dealer must supply secrets (or REFUSE)")
            if not isinstance(secrets, RefuseType) and len(secrets) != count:
                raise ValueError(
                    f"dealer supplied {len(secrets)} secrets for a batch of {count}"
                )
            self._deal(dealer, batch_index, secrets, rng)

        cost = scheme.cost
        for r in range(cost.share_rounds):
            if pid == dealer and r < cost.share_broadcast_rounds:
                yield RoundOutput(broadcast="vss-share")
            else:
                yield RoundOutput.silent()

        record = self._batches.get((dealer, batch_index))
        if record is None or isinstance(record, RefuseType):
            return DEALER_DISQUALIFIED
        first = record
        count = self._batch_lengths[(dealer, batch_index)]
        one = self.scheme.field.encode(1)
        # Views materialize lazily: the batched view algebra works on the
        # handle (the batch's contiguous serial range, driving numpy
        # gathers) and openings slice sub-ranges, so most views are never
        # constructed at all.
        views = _LazyBatchViews(self, pid, first, count, one)
        return SharedBatch(
            dealer=dealer, views=views, handle=(first, count, pid)
        )

    def zero_view(self, pid: int) -> IdealShareView:
        return IdealShareView(self, pid, terms=(), value=0)

    def open_program(self, pid: int, views):
        """Batched public opening (numpy fast path).

        Semantically identical to the base implementation: honest
        parties all open the same views, so a payload is accepted iff it
        matches the verifier's expected ``(terms, value)`` for that
        position; positions where the expected group misses quorum fall
        back to the generic per-value logic (which also handles senders
        forming alternative terms-groups).
        """
        from repro.network import RoundOutput

        n = self.scheme.n
        payloads = self.reveal_payloads_batch(pid, views)
        inbox = yield RoundOutput(
            private={j: payloads for j in range(n) if j != pid}
        )
        columns: list[tuple[int, Any]] = [(pid, payloads)]
        for sender, payload in inbox.private.items():
            if isinstance(payload, (list, tuple)) and len(payload) == len(views):
                columns.append((sender, payload))
        return self._reconstruct_columns(columns, views, pid, strict=True)

    def reconstruct_private_batch(
        self,
        columns: Mapping[int, Any],
        count: int,
        verifier: int | None = None,
        views=None,
    ) -> list[FieldElement | None]:
        """Batch private reconstruction (paper step 4) — numpy fast path.

        When the reconstructing party supplies its own ``views`` (it
        always holds shares of the values being opened), the batched
        verification/recombination of :meth:`open_program` is reused;
        positions that miss quorum fall back to the generic logic and
        yield ``None`` on failure instead of raising.
        """
        if views is not None and len(views) == count:
            cols = [(s, column) for s, column in columns.items()]
            return self._reconstruct_columns(cols, views, verifier, strict=False)
        return super().reconstruct_private_batch(
            columns, count, verifier=verifier, views=views
        )

    def _reconstruct_columns(self, columns, views, pid, strict):
        """Verify and recombine payload columns against the verifier's views.

        ``strict`` controls failure handling: ``True`` propagates
        :class:`ReconstructionError` (public openings must abort),
        ``False`` substitutes ``None`` per failed position (private
        step-4 reconstruction tolerates corrupted coordinates).
        """
        vec = self._vector
        prof = get_profiler()
        if vec is None:
            if prof.enabled:
                prof.count("vss", "open_scalar_fallback", len(views))
            return self._combine_columns(columns, views, pid, strict)

        import numpy as np

        if prof.enabled:
            prof.count("vss", "open_batched", len(views))
            prof.observe("vss", "open_batch_size", len(views))

        field = self.scheme.field
        quorum = self.scheme.t + 1
        # Flatten the verifier's own terms: arrays over (value, term).
        ks, serials, coeffs = [], [], []
        for k, view in enumerate(views):
            for serial, coeff in view.terms:
                ks.append(k)
                serials.append(serial)
                coeffs.append(coeff)
        evals_arr = self._evals_matrix(vec)
        serial_idx = np.asarray(serials, dtype=np.int64)
        coeff_arr = np.asarray(coeffs, dtype=vec.dtype)
        # Segment boundaries per value (terms were appended in k order).
        ks_arr = np.asarray(ks, dtype=np.int64)
        boundaries = np.searchsorted(ks_arr, np.arange(len(views)))
        counts = np.diff(np.append(boundaries, len(ks)))

        def expected_for_point(x_index: int) -> np.ndarray:
            if len(serial_idx) == 0:
                return np.zeros(len(views), dtype=vec.dtype)
            if prof.enabled:
                # Raw kernel (not batch_eval), so the replaced field ops
                # are accounted analytically: one mul + add per term.
                prof.count("fields", "mul", int(serial_idx.shape[0]))
                prof.count("fields", "add", int(serial_idx.shape[0]))
            prod = vec.mul(evals_arr[serial_idx, x_index], coeff_arr)
            # Per-view field sums of the term products; reduceat
            # misbehaves for empty segments (views with no terms), so
            # patch those to zero.
            out = np.zeros(len(views), dtype=vec.dtype)
            nonempty = counts > 0
            segments = vec.reduceat(prod, boundaries)
            out[nonempty] = segments[nonempty]
            return out

        expected_terms = [v.terms for v in views]
        num_views = len(views)

        # Content signature of this opening: what is being opened (the
        # flattened terms) determines every verifier-independent cached
        # quantity below.  Hashing the raw arrays is O(bytes) in C.
        sig = (
            num_views,
            hash(serial_idx.tobytes()),
            hash(coeff_arr.tobytes()),
        )
        if len(self._honest_cache) > 4096:
            self._honest_cache.clear()
            self._opened_cache.clear()

        # Honest fast path: a sender's whole column is typically exactly
        # the expected honest payload list, so one C-level list
        # comparison per column replaces the per-position Python loop.
        # Fully matching columns carry the verifier's own ground-truth
        # evaluations, and interpolating any ``quorum`` of those at zero
        # yields the same values position-by-position acceptance would —
        # so the first ``quorum`` fully matching columns settle every
        # position with a single batched recombination.
        from itertools import repeat

        expected_cache: dict[int, list[int]] = {}
        full_columns = []
        # Scan in sender order, not arrival order: every verifier of the
        # same opening then settles on the same quorum point set, so the
        # opened-values cache below hits across all n verifiers.  (Any
        # quorum of fully matching columns interpolates to the same
        # values, so the choice is free.)
        for sender, column in sorted(columns, key=lambda sc: sc[0]):
            if len(full_columns) >= quorum:
                break
            hit = self._honest_cache.get((sig, sender))
            if hit is None:
                vals_list = expected_for_point(sender + 1).tolist()
                honest = list(zip(repeat(sender), expected_terms, vals_list))
                self._honest_cache[(sig, sender)] = hit = (vals_list, honest)
            vals_list, honest = hit
            expected_cache[sender] = vals_list
            if column == honest:
                full_columns.append((sender + 1, vals_list))
        if len(full_columns) >= quorum:
            xs = tuple(x for x, _ in full_columns[:quorum])
            cached = self._opened_cache.get((sig, xs))
            if cached is not None:
                return list(cached)
            ys = np.asarray(
                [v for _, v in full_columns[:quorum]], dtype=vec.dtype
            ).T
            lag = vec.array(self._lagrange_at_zero(xs))
            opened = vec.interpolate_at_zero_batch(xs, ys, lagrange=lag)
            results = [FieldElement(field, v) for v in opened.tolist()]
            self._opened_cache[(sig, xs)] = results
            return list(results)

        accepted: list[list[tuple[int, int]]] = [[] for _ in views]
        for sender, column in columns:
            expected_vals = expected_cache.get(sender)
            if expected_vals is None:
                expected_vals = expected_for_point(sender + 1).tolist()
            point = sender + 1
            for k in range(min(num_views, len(column))):
                row = accepted[k]
                if len(row) >= quorum:
                    continue
                payload = column[k]
                if (
                    type(payload) is tuple
                    and len(payload) == 3
                    and payload[0] == sender
                    and payload[2] == expected_vals[k]
                    and payload[1] == expected_terms[k]
                ):
                    row.append((point, payload[2]))

        results: list[FieldElement | None] = [None] * num_views
        # Group quorum positions by their accepted point set so each
        # distinct set pays for one Lagrange computation and one
        # batched recombination.
        by_points: dict[tuple[int, ...], list[int]] = {}
        for k in range(num_views):
            pts = accepted[k]
            if len(pts) < quorum:
                # Rare/adversarial: defer to the generic logic.
                try:
                    results[k] = self.verify_and_combine(
                        {
                            sender: column[k]
                            for sender, column in columns
                            if k < len(column)
                        },
                        verifier=pid,
                    )
                except ReconstructionError:
                    if strict:
                        raise
                    results[k] = None
                continue
            by_points.setdefault(tuple(p[0] for p in pts), []).append(k)
        for xs, group in by_points.items():
            lag = vec.array(self._lagrange_at_zero(xs))
            ys = np.asarray(
                [[value for _, value in accepted[k]] for k in group],
                dtype=vec.dtype,
            )
            opened = vec.interpolate_at_zero_batch(xs, ys, lagrange=lag)
            for k, value in zip(group, opened.tolist()):
                results[k] = FieldElement(field, value)
        return results

    def _combine_columns(self, columns, views, pid, strict=True):
        """Scalar path shared with the base class's semantics."""
        results = []
        for k in range(len(views)):
            try:
                results.append(
                    self.verify_and_combine(
                        {
                            sender: column[k]
                            for sender, column in columns
                            if k < len(column)
                        },
                        verifier=pid,
                    )
                )
            except (ReconstructionError, IndexError):
                if strict:
                    raise
                results.append(None)
        return results

    def reveal_payload(self, pid: int, view: ShareView) -> Any:
        if not isinstance(view, IdealShareView):
            raise TypeError("expected an IdealShareView")
        return (pid, view.terms, view.value)

    def reveal_payloads_batch(self, pid: int, views) -> list[Any]:
        payloads = []
        size = 0
        for view in views:
            if not isinstance(view, IdealShareView):
                raise TypeError("expected an IdealShareView")
            terms = view.terms
            # Accounting size of one item (pid, terms, value): two int
            # atoms plus two per (serial, coeff) pair — precomputed here
            # so the engine's per-atom walk is skipped for the protocol's
            # dominant payloads.
            size += 2 + 2 * len(terms)
            payloads.append((pid, terms, view.value))
        return SizedPayload(payloads, size)

    # -- batched view algebra (AnonChan hot path) ---------------------------
    # These produce views *identical* (terms, value) to the generic
    # view-by-view fallbacks in VSSSession — the differential harness in
    # tests/core/test_batched_equivalence.py pins that down — but read
    # the share values straight out of the functionality's eval matrix
    # via the batch handles instead of walking view objects.

    def diff_offsets_batch(self, batch, offsets_a, offsets_b):
        handle = getattr(batch, "handle", None)
        vec = self._vector
        if vec is None or handle is None:
            return super().diff_offsets_batch(batch, offsets_a, offsets_b)

        import numpy as np

        first, count, pid = handle
        offs_a = np.asarray(offsets_a, dtype=np.int64)
        offs_b = np.asarray(offsets_b, dtype=np.int64)
        if (
            offs_a.ndim != 1
            or offs_a.shape != offs_b.shape
            or (offs_a.size and (offs_a.min() < 0 or offs_a.max() >= count))
            or (offs_b.size and (offs_b.min() < 0 or offs_b.max() >= count))
        ):
            # Odd shapes/offsets (negative indexing, mismatched arrays):
            # the generic path preserves exact scalar semantics.
            return super().diff_offsets_batch(batch, offsets_a, offsets_b)
        if offs_a.size == 0:
            return []

        field = self.scheme.field
        one = field.encode(1)
        minus_one = field.neg(one)
        serials_a = first + offs_a
        serials_b = first + offs_b
        evals = self._evals_matrix(vec)
        col = pid + 1
        va = evals[serials_a, col]
        vb = evals[serials_b, col]
        m = int(offs_a.size)
        prof = get_profiler()
        if minus_one == one:  # characteristic 2: a - b == a + b
            values = vec.add(va, vb)
            coeff_b = one
            if prof.enabled:
                prof.count("fields", "add", m)
        else:
            values = vec.add(va, vec.scale(vb, minus_one))
            coeff_b = minus_one
            if prof.enabled:
                prof.count("fields", "add", m)
                prof.count("fields", "mul", m)
        if prof.enabled:
            prof.count("vss", "combine_batched", m)

        out = []
        for sa, sb, value in zip(
            serials_a.tolist(), serials_b.tolist(), values.tolist()
        ):
            if sa == sb:
                terms: Terms = ()  # coefficients cancel (1 + (-1) = 0)
            elif sa < sb:
                terms = ((sa, one), (sb, coeff_b))
            else:
                terms = ((sb, coeff_b), (sa, one))
            out.append(IdealShareView(self, pid, terms, int(value)))
        return out

    def sum_offsets_batch(self, batches, offset_columns):
        if len(batches) != len(offset_columns):
            raise ValueError("one offset column per batch required")
        if not batches:
            return []
        m = len(offset_columns[0])
        vec = self._vector
        handles = [getattr(b, "handle", None) for b in batches]
        if vec is None or any(h is None for h in handles):
            return super().sum_offsets_batch(batches, offset_columns)
        pid = handles[0][2]
        if any(h[2] != pid for h in handles):
            return super().sum_offsets_batch(batches, offset_columns)

        import numpy as np

        serial_rows = []
        for handle, column in zip(handles, offset_columns):
            first, count, _ = handle
            offs = np.asarray(column, dtype=np.int64)
            if (
                offs.ndim != 1
                or offs.shape[0] != m
                or (offs.size and (offs.min() < 0 or offs.max() >= count))
            ):
                return super().sum_offsets_batch(batches, offset_columns)
            serial_rows.append(first + offs)
        serial_matrix = np.stack(serial_rows, axis=0)  # (num_batches, m)
        sorted_serials = np.sort(serial_matrix, axis=0)
        if (np.diff(sorted_serials, axis=0) == 0).any():
            # Duplicate serials in one sum would need coefficient
            # merging; distinct dealt batches never overlap, so this
            # only happens for hand-built inputs — defer.
            return super().sum_offsets_batch(batches, offset_columns)

        evals = self._evals_matrix(vec)
        values = vec.reduce_sum(evals[serial_matrix, pid + 1], axis=0)
        prof = get_profiler()
        if prof.enabled:
            prof.count("fields", "add", m * max(0, len(batches) - 1))
            prof.count("vss", "combine_batched", m)
        one = self.scheme.field.encode(1)
        out = []
        for col_serials, value in zip(
            sorted_serials.T.tolist(), values.tolist()
        ):
            terms = tuple((s, one) for s in col_serials)
            out.append(IdealShareView(self, pid, terms, int(value)))
        return out

    def verify_and_combine(
        self, payloads: Mapping[int, Any], verifier: int | None = None
    ) -> FieldElement:
        """Models the w.h.p. guarantees of a real statistical VSS-Rec.

        A payload from party ``i`` is accepted iff its claimed share
        value matches the functionality's record for the claimed terms
        at ``i``'s evaluation point (real schemes achieve this check via
        ICP / error correction).  The value of the terms-group with at
        least ``t + 1`` accepted payloads is reconstructed by Lagrange
        interpolation of the accepted points.
        """
        get_profiler().count("vss", "verify_and_combine")
        field = self.scheme.field
        quorum = self.scheme.t + 1
        groups: dict[Terms, list[tuple[int, int]]] = {}
        for sender, payload in payloads.items():
            if (
                type(payload) is not tuple
                or len(payload) != 3
                or payload[0] != sender
                or type(payload[2]) is not int
            ):
                continue  # malformed or mis-attributed payload: rejected
            groups.setdefault(payload[1], []).append((sender, payload[2]))

        evals = self._evals
        num_values = len(evals)
        add, mul = field.add, field.mul
        # Largest claimed group first; within a group, verify members
        # lazily — with >= t+1 honest contributors the first quorum of
        # verifications already succeeds.
        for terms, members in sorted(groups.items(), key=lambda kv: -len(kv[1])):
            if len(members) < quorum:
                break
            if type(terms) is not tuple or not all(
                type(term) is tuple
                and len(term) == 2
                and type(term[0]) is int
                and 0 <= term[0] < num_values
                and type(term[1]) is int
                for term in terms
            ):
                continue  # references to non-existent sharings: rejected
            pts: list[tuple[int, int]] = []
            for sender, value in members:
                x_index = sender + 1
                expected = 0
                for serial, coeff in terms:
                    expected = add(expected, mul(coeff, evals[serial][x_index]))
                if expected != value:
                    continue  # forged share value: rejected (w.h.p. in reality)
                pts.append((x_index, value))
                if len(pts) == quorum:
                    break
            if len(pts) < quorum:
                continue
            xs = tuple(p[0] for p in pts)
            coeffs = self._lagrange_at_zero(xs)
            acc = 0
            for (_, value), c in zip(pts, coeffs):
                acc = add(acc, mul(c, value))
            return FieldElement(field, acc)
        raise ReconstructionError(
            f"no terms-group reached {quorum} verified payloads"
        )


class IdealVSS(VSSScheme):
    """Ideal linear VSS with a pluggable round/broadcast cost profile."""

    def __init__(self, field, n: int, t: int, cost: VSSCost | None = None):
        if cost is None:
            cost = VSSCost(share_rounds=1, share_broadcast_rounds=0)
        super().__init__(field, n, t, cost)

    def new_session(self, rng: random.Random) -> IdealVSSSession:
        return IdealVSSSession(self)
