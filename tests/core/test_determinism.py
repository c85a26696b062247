"""Sweep-order determinism under different PYTHONHASHSEED values.

``_choose_next`` historically iterated over sets keyed by vertex/class
hashes, so two runs of the same optimization could sweep vertices in
different orders (and, with a beam, return different plans) depending on
the interpreter's hash randomization.  The sweep now ranks candidates by
an explicit total key ending in the vertex id; these tests
pin that by running the optimizer in subprocesses under two different
``PYTHONHASHSEED`` values — the same pair the CI matrix uses — and
asserting identical sweep orders and identical plans.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

_PROBE = r"""
import json
from repro.core.frontier import optimize_dag
from repro.core.formats import row_strips, single, tiles
from repro.core.registry import OptimizerContext
from repro.workloads import wide_shared_dag

ctx = OptimizerContext(formats=(single(), tiles(1000), row_strips(1000)))
graph = wide_shared_dag(3, 3)
plan = optimize_dag(graph, ctx)
print(json.dumps({
    "sweep_order": list(plan.profile.sweep_order),
    "cost": plan.total_seconds,
    "formats": {str(vid): str(fmt)
                for vid, fmt in sorted(plan.cost.vertex_formats.items())},
}))
"""


def _run_probe(hashseed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, check=True, timeout=300)
    return json.loads(out.stdout)


def test_sweep_order_independent_of_hashseed():
    """The CI matrix seeds ("0" and "42") must sweep identically."""
    a = _run_probe("0")
    b = _run_probe("42")
    assert a["sweep_order"] == b["sweep_order"]
    assert a["cost"] == b["cost"]
    assert a["formats"] == b["formats"]


def test_sweep_order_is_stable_within_process():
    """Two in-process runs sweep identically (no mutable global state)."""
    from repro.core.formats import row_strips, single, tiles
    from repro.core.frontier import optimize_dag
    from repro.core.registry import OptimizerContext
    from repro.workloads import wide_shared_dag

    graph = wide_shared_dag(3, 3)
    runs = [optimize_dag(
        graph, OptimizerContext(formats=(single(), tiles(1000),
                                         row_strips(1000))))
        for _ in range(2)]
    assert runs[0].profile.sweep_order == runs[1].profile.sweep_order
    assert runs[0].cost.vertex_formats == runs[1].cost.vertex_formats
