"""Layer spans for the traced run, recorded from outside the program.

The traced run wraps the public calls into each layer of ``repro`` and
records one span per call that crosses into a new span group:

========  ==========================================================
layer     what is wrapped (group)
========  ==========================================================
fields    ``VectorBackend`` batch methods (``fields.kernel``) and the
          ``TABLES`` lookups (``fields.tables``)
sharing   ``ShamirScheme``/``SymmetricBivariate`` methods and the
          sharing module functions (``sharing.call``); Reed-Solomon
          decoding (``sharing.rs``)
vss       resumes of ``share_program``/``open_program`` generators
          (``vss.deal``, ``vss.open``), the batch view algebra
          (``vss.batch``) and ``verify_and_combine`` (``vss.combine``)
core      resumes of each party's AnonChan program (``core.party``)
network   ``run_protocol`` (``network.engine``) and ``payload_size``
          (``network.sizing``)
bench     the session itself (``bench.session``, the root) and the
          benchmark's own tamper (``bench.adversary``)
========  ==========================================================

A call made from inside a span of the same group records no span of
its own, so recursion and kernel-calls-kernel stay inside one span.
Each span keeps its group, start, end and parent; a layer's self time
is its spans' durations minus what their child spans cover, so the
self times of all layers add up to the root span exactly.

Names that a later version of ``repro`` no longer has are skipped:
their work then shows up in the self time of the caller's layer.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

LAYERS = ("bench", "network", "core", "vss", "sharing", "fields")

_VSS_BATCH_METHODS = (
    "reveal_payloads_batch",
    "diff_offsets_batch",
    "sum_offsets_batch",
    "reconstruct_private_batch",
)
_SHARING_CLASSES = (
    ("repro.sharing.shamir", "ShamirScheme"),
    ("repro.sharing.bivariate", "SymmetricBivariate"),
)
_SHARING_MODULES = (
    "repro.sharing.shamir",
    "repro.sharing.bivariate",
    "repro.sharing.linalg",
    "repro.sharing.icp",
)


@dataclass
class Span:
    """One completed span: ``parent`` indexes ``Recorder.spans``."""

    group: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    items: int = 0

    @property
    def layer(self) -> str:
        return self.group.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class Recorder:
    """In-memory span store of one traced session (single-threaded).

    ``table_hits``/``table_misses`` count ``TABLES`` lookups and
    ``gc_ns`` the time in the interpreter's cyclic garbage collector
    while :func:`instrumented` was active.
    """

    spans: list[Span] = field(default_factory=list)
    table_hits: int = 0
    table_misses: int = 0
    gc_ns: int = 0
    _gc_start_ns: int = 0
    _stack: list[int] = field(default_factory=list)

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start_ns = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start_ns

    def top_group(self) -> str | None:
        return self.spans[self._stack[-1]].group if self._stack else None

    def enter(self, group: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(group, time.perf_counter_ns(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int, items: int = 0) -> None:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        span.items = items
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.group} closed out of order")

    @contextmanager
    def span(self, group: str) -> Iterator[Span]:
        index = self.enter(group)
        try:
            yield self.spans[index]
        finally:
            self.exit(index)

    def wrap(
        self, fn: Callable, group: str, count_items: bool = False
    ) -> Callable:
        """``fn`` timed as a span of ``group`` (unless already inside one)."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self.top_group() == group:
                return fn(*args, **kwargs)
            index = self.enter(group)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                items = int(getattr(out, "size", 0)) if count_items else 0
                self.exit(index, items)

        return timed

    def wrap_program(self, program: Any, group: str) -> "TimedProgram":
        return TimedProgram(self, program, group)


class TimedProgram:
    """A protocol generator whose every resume is a span of ``group``."""

    __slots__ = ("_recorder", "_program", "_group")

    def __init__(self, recorder: Recorder, program: Any, group: str):
        self._recorder = recorder
        self._program = program
        self._group = group

    def __iter__(self) -> "TimedProgram":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        index = self._recorder.enter(self._group)
        try:
            return self._program.send(value)
        finally:
            self._recorder.exit(index)

    def throw(self, *args: Any) -> Any:
        index = self._recorder.enter(self._group)
        try:
            return self._program.throw(*args)
        finally:
            self._recorder.exit(index)

    def close(self) -> None:
        self._program.close()


# -- installing the wrappers ---------------------------------------------


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any, bool]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        had = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, value)

    def rebind_everywhere(self, original: Callable, value: Callable) -> None:
        """Replace ``original`` in every ``repro`` module that binds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for name, bound in list(vars(module).items()):
                if bound is original:
                    self.set(module, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, old, had = self._undo.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


def _module(name: str) -> Any:
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _public_methods(cls: type) -> Iterator[tuple[str, Callable]]:
    for name, value in list(vars(cls).items()):
        if inspect.isfunction(value) and (
            not name.startswith("_") or name == "__call__"
        ):
            yield name, value


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _wrap_module_functions(
    recorder: Recorder, patches: _Patches, module: Any, group: str
) -> None:
    for name, fn in list(vars(module).items()):
        if (
            inspect.isfunction(fn)
            and not name.startswith("_")
            and fn.__module__ == module.__name__
        ):
            patches.rebind_everywhere(fn, recorder.wrap(fn, group))


def _instrument_fields(recorder: Recorder, patches: _Patches) -> None:
    vectorized = _module("repro.fields.vectorized")
    if vectorized is None:
        return
    backend = getattr(vectorized, "VectorBackend", None)
    if backend is not None:
        for cls in _subclasses(backend):
            for name, fn in _public_methods(cls):
                patches.set(
                    cls, name,
                    recorder.wrap(fn, "fields.kernel", count_items=True),
                )
    cache = getattr(vectorized, "TableCache", None)
    if cache is not None:
        for name in ("vandermonde", "lagrange_at_zero"):
            fn = vars(cache).get(name)
            if fn is not None:
                patches.set(cache, name, recorder.wrap(fn, "fields.tables"))


def _instrument_sharing(recorder: Recorder, patches: _Patches) -> None:
    for mod_name, cls_name in _SHARING_CLASSES:
        cls = getattr(_module(mod_name), cls_name, None)
        if cls is not None:
            for name, fn in _public_methods(cls):
                patches.set(cls, name, recorder.wrap(fn, "sharing.call"))
    for mod_name in _SHARING_MODULES:
        module = _module(mod_name)
        if module is not None:
            _wrap_module_functions(recorder, patches, module, "sharing.call")
    reedsolomon = _module("repro.sharing.reedsolomon")
    if reedsolomon is not None:
        _wrap_module_functions(recorder, patches, reedsolomon, "sharing.rs")


def _instrument_network(recorder: Recorder, patches: _Patches) -> None:
    messages = _module("repro.network.messages")
    sizing = getattr(messages, "payload_size", None)
    if sizing is not None:
        patches.rebind_everywhere(
            sizing, recorder.wrap(sizing, "network.sizing")
        )
    simulator = _module("repro.network.simulator")
    run_protocol = getattr(simulator, "run_protocol", None)
    if run_protocol is None:
        return

    @functools.wraps(run_protocol)
    def traced_run_protocol(programs, *args, **kwargs):
        programs = {
            pid: recorder.wrap_program(prog, "core.party")
            for pid, prog in programs.items()
        }
        with recorder.span("network.engine"):
            return run_protocol(programs, *args, **kwargs)

    patches.rebind_everywhere(run_protocol, traced_run_protocol)


def _instrument_session(recorder: Recorder, session: Any) -> None:
    """Wrap one VSS session's public calls (instance attributes)."""
    for name, group in (("share_program", "vss.deal"), ("open_program", "vss.open")):
        make = getattr(session, name, None)
        if make is None:
            continue

        def timed_program(*args, _make=make, _group=group, **kwargs):
            return recorder.wrap_program(_make(*args, **kwargs), _group)

        setattr(session, name, timed_program)
    for name in _VSS_BATCH_METHODS:
        fn = getattr(session, name, None)
        if fn is not None:
            setattr(session, name, recorder.wrap(fn, "vss.batch"))
    combine = getattr(session, "verify_and_combine", None)
    if combine is not None:
        session.verify_and_combine = recorder.wrap(combine, "vss.combine")


@contextmanager
def instrumented(recorder: Recorder, vss: Any) -> Iterator[Recorder]:
    """Wrap every layer's public calls for the duration of the block.

    ``vss`` is the scheme the session runs on; the sessions it creates
    inside the block have their public calls wrapped too.
    """
    patches = _Patches()
    tables = getattr(_module("repro.fields.vectorized"), "TABLES", None)
    hits0 = getattr(tables, "hits", 0)
    misses0 = getattr(tables, "misses", 0)
    try:
        _instrument_fields(recorder, patches)
        _instrument_sharing(recorder, patches)
        _instrument_network(recorder, patches)
        new_session = vss.new_session

        def traced_new_session(*args, **kwargs):
            session = new_session(*args, **kwargs)
            _instrument_session(recorder, session)
            return session

        patches.set(vss, "new_session", traced_new_session)
        gc.callbacks.append(recorder.on_gc)
        yield recorder
    finally:
        if recorder.on_gc in gc.callbacks:
            gc.callbacks.remove(recorder.on_gc)
        patches.undo()
        recorder.table_hits += getattr(tables, "hits", 0) - hits0
        recorder.table_misses += getattr(tables, "misses", 0) - misses0


# -- folding spans into per-layer figures --------------------------------


@dataclass
class LayerTotals:
    """Per-group and per-layer sums over one recorder's spans."""

    calls: dict[str, int] = field(default_factory=dict)
    entries: dict[str, int] = field(default_factory=dict)
    inclusive_s: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    layer_self_s: dict[str, float] = field(default_factory=dict)
    items: dict[str, int] = field(default_factory=dict)
    root_s: float = 0.0


def fold(spans: list[Span]) -> LayerTotals:
    """Self time per group and layer; ``entries`` counts layer crossings."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.duration_ns
    totals = LayerTotals(layer_self_s={layer: 0.0 for layer in LAYERS})
    for index, span in enumerate(spans):
        group, layer = span.group, span.layer
        self_s = (span.duration_ns - child_ns[index]) / 1e9
        totals.calls[group] = totals.calls.get(group, 0) + 1
        totals.inclusive_s[group] = (
            totals.inclusive_s.get(group, 0.0) + span.duration_ns / 1e9
        )
        totals.self_s[group] = totals.self_s.get(group, 0.0) + self_s
        totals.layer_self_s[layer] = totals.layer_self_s.get(layer, 0.0) + self_s
        totals.items[group] = totals.items.get(group, 0) + span.items
        if span.parent < 0 or spans[span.parent].layer != layer:
            totals.entries[layer] = totals.entries.get(layer, 0) + 1
        if span.parent < 0:
            totals.root_s += span.duration_ns / 1e9
    return totals
