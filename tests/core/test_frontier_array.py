"""The array frontier at the cold-planning benchmark's setting.

fig05 (the FFNN training step) and fig09 (the two-level inverse) searched
with the default format catalog on a 10-worker SimSQL cluster under a beam
of 1500 states — the frontier searches the cold-planning benchmark runs.
These tests pin down how the array path does that work, not just what it
returns (``test_differential.py`` checks the plans):

* catalog lookups are per distinct ``(mtype, src, dst)`` key, never per
  table row;
* the profile's ``phase_seconds`` account for the search's wall time;
* (perf) the array path stays at least 3x faster than the object oracle.
"""

import time

import pytest

from repro.cluster import simsql_cluster
from repro.core import OptimizerContext
from repro.core.frontier import optimize_dag
from repro.workloads import FFNNConfig, ffnn_full_step, two_level_inverse_graph

GRAPHS = {
    "fig05_ffnn": lambda: ffnn_full_step(FFNNConfig(hidden=80_000)),
    "fig09_inverse": two_level_inverse_graph,
}

BEAM = 1500


def bench_ctx() -> OptimizerContext:
    """A fresh context: contexts memoize costing, so reusing one would
    make a later search warm."""
    return OptimizerContext(cluster=simsql_cluster(10))


def test_no_per_row_catalog_lookups():
    """Transformation choices come from code-indexed vectors, so the
    search asks ``transform_choice`` at most once per key it caches (the
    row-at-a-time projection made about 636k calls here)."""
    ctx = bench_ctx()
    real = ctx.transform_choice
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    ctx.transform_choice = counting
    plan = optimize_dag(GRAPHS["fig09_inverse"](), ctx, max_states=BEAM,
                        frontier="array")
    assert calls <= len(ctx._transform_cache)
    assert plan.annotation.transforms  # choices were still resolved


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("frontier,beam", [("array", BEAM), ("object", 200)])
def test_phases_cover_search_time(name, frontier, beam):
    """``order + project + beam + reconstruct`` (no ``prune`` under a beam)
    is the search's wall time, not a part of it."""
    plan = optimize_dag(GRAPHS[name](), bench_ctx(), max_states=beam,
                        frontier=frontier)
    phases = plan.profile.phase_seconds
    assert set(phases) == {"order", "project", "beam", "reconstruct"}
    assert sum(phases.values()) >= 0.95 * plan.optimize_seconds


@pytest.mark.perf
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_array_frontier_3x_object(name):
    """Cold-planning speed gate: a ratio measured on the same box, so a
    slow CI runner slows both sides alike.  The array side takes the best
    of three runs, each on a fresh context."""
    graph = GRAPHS[name]()

    def seconds(frontier: str) -> float:
        started = time.perf_counter()
        optimize_dag(graph, bench_ctx(), max_states=BEAM, frontier=frontier)
        return time.perf_counter() - started

    array = min(seconds("array") for _ in range(3))
    speedup = seconds("object") / array
    assert speedup >= 3.0, f"array frontier only {speedup:.1f}x object"
