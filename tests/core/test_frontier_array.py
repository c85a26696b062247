"""The array frontier at the cold-planning benchmark's setting.

fig05 (the FFNN training step) and fig09 (the two-level inverse) searched
with the default format catalog on a 10-worker SimSQL cluster under a beam
of 1500 states — the frontier searches the cold-planning benchmark runs.
These tests pin down how :func:`optimize_dag` does that work, not just what
it returns (``test_differential.py`` checks the plans against the per-state
oracle of ``frontier_oracle.py``):

* catalog lookups are per distinct ``(mtype, src, dst)`` key, never per
  table row;
* the profile's ``phase_seconds`` account for the search's wall time, for
  the search and the oracle alike;
* (perf) the search stays at least 3x faster than the oracle here, and at
  least 2x faster on the exact pruned width-5 ``wide_shared_dag``.
"""

import time

import pytest
from frontier_oracle import optimize_dag_object

from repro.cluster import simsql_cluster
from repro.core import OptimizerContext
from repro.core.formats import row_strips, single, tiles
from repro.core.frontier import FrontierStats, optimize_dag
from repro.workloads import (
    FFNNConfig,
    ffnn_full_step,
    two_level_inverse_graph,
    wide_shared_dag,
)

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
    plan = optimize_dag(GRAPHS["fig09_inverse"](), ctx, max_states=BEAM)
    assert calls <= len(ctx._transform_cache)
    assert plan.annotation.transforms  # choices were still resolved


SEARCHES = {"array": optimize_dag, "oracle": optimize_dag_object}


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("search,beam", [("array", BEAM), ("oracle", 200)])
def test_phases_cover_search_time(name, search, beam):
    """``order + project + beam + reconstruct`` (no ``prune`` under a beam)
    is the search's wall time, not a part of it."""
    plan = SEARCHES[search](GRAPHS[name](), bench_ctx(), max_states=beam)
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

    def seconds(search) -> float:
        started = time.perf_counter()
        search(graph, bench_ctx(), max_states=BEAM)
        return time.perf_counter() - started

    array = min(seconds(optimize_dag) for _ in range(3))
    speedup = seconds(optimize_dag_object) / array
    assert speedup >= 3.0, f"array frontier only {speedup:.1f}x object"


#: The dominance-prune scaling sweep's four-format catalog.
WIDE_CATALOG = (single(), tiles(1000), tiles(2000), row_strips(1000))


@pytest.mark.perf
def test_width5_array_2x_object():
    """Exact pruned search on ``wide_shared_dag(5, 5)``: the array path
    must stay >= 2x the per-state oracle (it measured ~8-9x when this gate
    was set; 2x leaves headroom for noisy runners while still catching a
    real regression), with an identical plan and identical counters."""
    graph = wide_shared_dag(5, 5)
    runs = []
    for search in (optimize_dag, optimize_dag_object):
        stats = FrontierStats()
        started = time.perf_counter()
        plan = search(graph, OptimizerContext(formats=WIDE_CATALOG),
                      stats=stats, prune=True)
        runs.append((plan, stats, time.perf_counter() - started))
    (a_plan, a_stats, a_wall), (o_plan, o_stats, o_wall) = runs
    assert a_plan.total_seconds == o_plan.total_seconds
    assert (a_stats.states_examined, a_stats.states_pruned,
            a_stats.max_table_size) == \
        (o_stats.states_examined, o_stats.states_pruned,
         o_stats.max_table_size)
    speedup = o_wall / a_wall
    assert speedup >= 2.0, (
        f"vectorized frontier regressed: array {a_wall:.3f}s vs object "
        f"{o_wall:.3f}s ({speedup:.2f}x, gate is 2x)")
