"""Smoke and guard tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Every workload runs once at tiny parameters, in both modes.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Names that ROADMAP items 2-3 delete; the harness must not use them.
REMOVED_NAMES = {
    "sharing_backend", "configure_backend", "VECTOR_BACKEND_MODES",
    "VECTOR_COMBINE_MIN", "VECTOR_DEAL_MIN", "VECTOR_OPEN_MIN",
    "force_scalar", "table_free_min", "DEFAULT_TABLE_FREE_MIN",
    "default_table_free_min", "_LazyBatchViews", "SizedPayload",
    "InMemoryAsyncTransport", "LockstepTransport", "register_transport",
    "resolve_transport", "TRANSPORTS", "DEFAULT_TRANSPORT_ENV",
    "TamperingAdversary", "faults", "faulty_adversary", "flip_integers",
}
REMOVED_KEYWORDS = {"sharing_backend", "backend", "transport"}
#: Per-layer self times that, with the unattributed root time,
#: partition a traced session's wall time.
LAYER_SELF_METRICS = (
    "fields.kernel_s",
    "sharing.s",
    "vss.self_s",
    "core.self_s",
    "network.engine_s",
    "bench.adversary_s",
)


def _bench(workload: str, trace: int, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, env=env,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        session = metrics["bench.traced_session_s"]
        layers = sum(metrics[name] for name in LAYER_SELF_METRICS)
        unattributed = metrics["bench.unattributed_share"] * session
        assert session > 0
        assert layers + unattributed == pytest.approx(session, rel=1e-9)


def test_pinned_worker_ignores_src_on_the_path():
    """The relative timings divide by the pinned build, whatever PYTHONPATH says."""
    run.check_pinned()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = _bench("bgw", 0, env=env)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1])["correct"]


def test_workload_names_match_benchmark_json():
    gated = [w["name"] for w in BENCHMARK["workloads"]]
    assert gated == [name for name in run.WORKLOAD_NAMES if name != "active-adversary"]
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.REFUSED_ENV)
def test_refuses_removed_knobs(name):
    out = _bench("paper-scale", 0, env={**os.environ, name: "1"})
    assert out.returncode != 0
    assert name in out.stderr
    assert '"metrics"' not in out.stdout


def _harness_trees():
    for path in sorted(HERE.glob("*.py")):
        if path.name != Path(__file__).name:
            yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_harness_uses_no_removed_name():
    for filename, tree in _harness_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                assert "faults" not in node.module, filename
                used = {alias.name for alias in node.names}
                assert not used & REMOVED_NAMES, (filename, used & REMOVED_NAMES)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert "faults" not in alias.name, filename
            elif isinstance(node, ast.Attribute):
                assert node.attr not in REMOVED_NAMES, (filename, node.attr)
            elif isinstance(node, ast.Name):
                assert node.id not in REMOVED_NAMES, (filename, node.id)
            elif isinstance(node, ast.keyword):
                assert node.arg not in REMOVED_KEYWORDS, (filename, node.arg)


def test_harness_sets_no_removed_knob():
    """The env knob names appear only in the refusal list itself."""
    for filename, tree in _harness_trees():
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "REFUSED_ENV" for t in node.targets
            ):
                allowed |= {id(c) for c in ast.walk(node.value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if "REPRO_" in node.value:
                    assert id(node) in allowed, (filename, node.value)


def test_tamper_reaches_ints_in_every_container():
    adversary = workloads.XorTamper(set(), {}, mask=0b101)
    payload = [
        1,
        (2, [3, {"key": 4}]),
        {7: np.array([8, 9], dtype=np.int64)},
        np.uint16(6),
        True,
        "text",
    ]
    out = adversary._xor(payload, {})
    assert out[0] == 1 ^ 5
    assert out[1] == (2 ^ 5, [3 ^ 5, {"key": 4 ^ 5}])
    assert list(out[2]) == [7] and out[2][7].tolist() == [8 ^ 5, 9 ^ 5]
    assert out[3] == 6 ^ 5 and isinstance(out[3], np.uint16)
    assert out[4] is True and out[5] == "text"
    assert adversary.changed == 7


def test_tamper_gives_each_recipient_its_own_container():
    adversary = workloads.XorTamper(set(), {}, mask=1)
    shared = [(0, ((5, 1),), 9)]
    sent = workloads.RoundOutput(private={1: shared, 2: shared})
    out = adversary.tamper({0: sent})[0].private
    assert out[1] == out[2] == [(1, ((4, 0),), 8)]
    assert out[1] is not out[2]
    assert adversary.changed == 4
