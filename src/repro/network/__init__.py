"""Synchronous network simulator with broadcast and a rushing adversary.

Protocols are written as generator *programs* (see
:mod:`~repro.network.program`); :func:`run_protocol` executes one
program per party under an optional active adversary (and an optional
:class:`NetworkModel` of latency, compute and link faults) and returns
honest outputs plus round/broadcast accounting.
"""

from .adversary import (
    Adversary,
    PassiveAdversary,
    RushedView,
    SilentAdversary,
    TamperingAdversary,
)
from .faults import (
    compose_tampers,
    crash_after,
    drop_messages,
    faulty_adversary,
    flip_integers,
    garble_everything,
    only_in_rounds,
)
from .messages import RoundInput, RoundOutput, SizedPayload, payload_size
from .metrics import ProtocolMetrics
from .program import Program, map_result, parallel, sequence, silent_rounds
from .runtime import NetworkModel
from .simulator import ExecutionResult, ProtocolViolation, run_protocol

__all__ = [
    "RoundInput",
    "RoundOutput",
    "SizedPayload",
    "payload_size",
    "Program",
    "parallel",
    "sequence",
    "silent_rounds",
    "map_result",
    "ProtocolMetrics",
    "Adversary",
    "PassiveAdversary",
    "TamperingAdversary",
    "SilentAdversary",
    "RushedView",
    "ExecutionResult",
    "ProtocolViolation",
    "run_protocol",
    "NetworkModel",
    "crash_after",
    "drop_messages",
    "garble_everything",
    "flip_integers",
    "only_in_rounds",
    "compose_tampers",
    "faulty_adversary",
]
