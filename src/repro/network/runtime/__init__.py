"""Network models and per-round engine pieces of the synchronous loop.

:func:`~repro.network.simulator.run_protocol` is the execution engine;
this package holds what it runs on: the latency, compute and fault
models bundled in a :class:`NetworkModel`, and the per-round delivery,
timing and tracing functions of :mod:`.engine`.
"""

from .engine import cached_payload_size
from .models import (
    ComputeModel,
    Crash,
    Delay,
    FixedLatency,
    LatencyModel,
    LinearCost,
    LinkFault,
    NetworkModel,
    Partition,
    ReorderWithinRound,
    UniformLatency,
    ZeroCost,
    ZeroLatency,
)

__all__ = [
    "NetworkModel",
    "cached_payload_size",
    "LatencyModel",
    "ZeroLatency",
    "FixedLatency",
    "UniformLatency",
    "ComputeModel",
    "ZeroCost",
    "LinearCost",
    "LinkFault",
    "Delay",
    "Partition",
    "Crash",
    "ReorderWithinRound",
]
