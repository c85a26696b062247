"""One experiment per paper table/figure.

Each ``fig_XX`` function reruns the corresponding experiment of the paper on
the simulated substrate and returns an :class:`ExperimentTable` whose cells
carry both our measured value and the paper's published value (in square
brackets) for direct shape comparison.

Reported runtimes are simulated seconds on the modelled cluster; optimizer
times (the parenthesized entries and all of Fig 13) are real wall-clock
seconds on this machine.
"""

from __future__ import annotations

import math

from ..cluster import pliny_cluster, simsql_cluster, systemds_cluster
from ..core.brute import BruteForceTimeout, optimize_brute
from ..core.formats import (
    DEFAULT_FORMATS,
    DENSE_FORMATS,
    SINGLE_BLOCK_FORMATS,
    SINGLE_STRIP_BLOCK_FORMATS,
    col_strips,
    csr_strips,
    row_strips,
    single,
    tiles,
)
from ..core.optimizer import optimize
from ..baselines import (
    plan_all_tile,
    plan_hand_written,
    plan_systemds,
    plan_user_with_retry,
    simulate_pytorch,
)
from ..workloads.chains import (
    SCALING_FAMILIES,
    mm_chain_graph,
    motivating_graph,
)
from ..workloads.ffnn import (
    FFNNConfig,
    amazoncat_config,
    ffnn_backprop_to_w2,
    ffnn_full_step,
)
from ..workloads.inverse import two_level_inverse_graph
from . import paper_values
from .harness import (
    ExperimentTable,
    auto_cell,
    display_time,
    fresh_context,
    manual_plan,
    opt_time_cell,
    plan_cell,
    plan_with_service,
)

#: Beam width for the frontier algorithm on the large FFNN graphs.  Exact
#: search reproduces the same plans (verified in tests) but takes ~100 s per
#: graph, matching the paper's reported 1:03 optimization time for Fig 5.
FFNN_BEAM = 1500

#: Brute-force time budgets for Fig 13 (the paper used 30 minutes; we use
#: much less to keep the benchmark suite runnable — see EXPERIMENTS.md).
BRUTE_TIMEOUT_SCALE1 = 45.0
BRUTE_TIMEOUT_LARGER = 5.0


def _with_paper(ours: str, paper: str) -> str:
    return f"{ours} [{paper}]"


# ======================================================================
# Fig 1: the motivating example
# ======================================================================
def fig01() -> ExperimentTable:
    """Section 2.1: two hand-written implementations of matA x matB x matC."""
    ctx = fresh_context(simsql_cluster(5))
    graph = motivating_graph()
    # names created by the expression builder: matmul_* — rename lookup:
    ab_name = graph.inner_vertices[0].name
    abc_name = graph.inner_vertices[1].name

    impl1 = manual_plan(graph, ctx, {
        ab_name: ("mm_strip_cross", (row_strips(10), col_strips(10))),
        abc_name: ("mm_tile_shuffle", (tiles(10), tiles(10))),
    }, name="implementation-1")
    impl2 = manual_plan(graph, ctx, {
        ab_name: ("mm_strip_cross", (row_strips(10), col_strips(10))),
        abc_name: ("mm_bcast_left", (single(), col_strips(10_000))),
    }, name="implementation-2")
    auto = plan_with_service(graph, ctx)

    table = ExperimentTable(
        "fig01", "Motivating matmul comparison (ours [paper])",
        ["phase", "Implementation 1", "Implementation 2", "Auto"])

    def phase_cells(plan):
        vids = [v.vid for v in graph.inner_vertices]
        mult1 = plan.cost.vertex_seconds[vids[0]]
        trans = sum(plan.cost.edge_seconds[e]
                    for e in graph.in_edges(vids[1]))
        mult2 = plan.cost.vertex_seconds[vids[1]]
        return mult1, trans, mult2

    m1 = phase_cells(impl1)
    m2 = phase_cells(impl2)
    ma = phase_cells(auto)
    p1, p2 = paper_values.FIG01["impl1"], paper_values.FIG01["impl2"]
    table.add_row("matA x matB",
                  _with_paper(display_time(m1[0]), p1["mult1"]),
                  _with_paper(display_time(m2[0]), p2["mult1"]),
                  display_time(ma[0]))
    table.add_row("transform",
                  _with_paper(display_time(m1[1]), p1["transform"]),
                  _with_paper(display_time(m2[1]), p2["transform"]),
                  display_time(ma[1]))
    table.add_row("matAB x matC",
                  _with_paper(display_time(m1[2]), p1["mult2"]),
                  _with_paper(display_time(m2[2]), p2["mult2"]),
                  display_time(ma[2]))
    table.add_row("total",
                  _with_paper(plan_cell(impl1), p1["total"]),
                  _with_paper(plan_cell(impl2), p2["total"]),
                  plan_cell(auto))
    return table


# ======================================================================
# Figs 5-8: FFNN plan quality on SimSQL
# ======================================================================
def fig05() -> ExperimentTable:
    """Experiment 1: FFNN forward + full backprop + forward, hidden 80K."""
    ctx = fresh_context(simsql_cluster(10))
    graph = ffnn_full_step(FFNNConfig(hidden=80_000))
    auto = plan_with_service(graph, ctx, max_states=FFNN_BEAM)
    hand = plan_hand_written(graph, ctx)
    tile = plan_all_tile(graph, ctx)
    p = paper_values.FIG05
    table = ExperimentTable(
        "fig05", "FFNN fwd+backprop+fwd, hidden 80K, 10 workers "
        "(ours [paper])",
        ["plan", "time", "opt time"])
    table.add_row("Auto-gen", _with_paper(plan_cell(auto), p["auto"]),
                  _with_paper(opt_time_cell(auto), f"({p['auto_opt']})"))
    table.add_row("Hand-written", _with_paper(plan_cell(hand), p["hand"]), "")
    table.add_row("All-tile", _with_paper(plan_cell(tile), p["tile"]), "")
    table.add_note(f"compute graph has {len(graph)} vertices "
                   "(paper: 57)")
    return table


def fig06() -> ExperimentTable:
    """Experiment 2: FFNN fwd + backprop-to-W2 across hidden sizes."""
    table = ExperimentTable(
        "fig06", "FFNN fwd + backprop to W2 by hidden size, 10 workers "
        "(ours [paper])",
        ["hidden", "Auto-gen", "Hand-written", "All-tile"])
    for hidden, paper in paper_values.FIG06.items():
        ctx = fresh_context(simsql_cluster(10))
        graph = ffnn_backprop_to_w2(FFNNConfig(hidden=hidden))
        auto = plan_with_service(graph, ctx, max_states=FFNN_BEAM)
        hand = plan_hand_written(graph, ctx)
        tile = plan_all_tile(graph, ctx)
        table.add_row(
            f"{hidden // 1000}K",
            _with_paper(auto_cell(auto), paper["auto"]),
            _with_paper(plan_cell(hand), paper["hand"]),
            _with_paper(plan_cell(tile), paper["tile"]))
    return table


def fig07() -> ExperimentTable:
    """Experiment 3: FFNN hidden 160K across cluster sizes."""
    table = ExperimentTable(
        "fig07", "FFNN fwd + backprop to W2, hidden 160K, by cluster size "
        "(ours [paper])",
        ["workers", "Auto-gen", "Hand-written", "All-tile"])
    graph = ffnn_backprop_to_w2(FFNNConfig(hidden=160_000))
    for workers, paper in paper_values.FIG07.items():
        ctx = fresh_context(simsql_cluster(workers))
        auto = plan_with_service(graph, ctx, max_states=FFNN_BEAM)
        hand = plan_hand_written(graph, ctx)
        tile = plan_all_tile(graph, ctx)
        table.add_row(
            str(workers),
            _with_paper(auto_cell(auto), paper["auto"]),
            _with_paper(plan_cell(hand), paper["hand"]),
            _with_paper(plan_cell(tile), paper["tile"]))
    return table


def fig08() -> ExperimentTable:
    """Experiment 4: auto-generated vs three recruited programmers."""
    ctx = fresh_context(simsql_cluster(10))
    graph = ffnn_backprop_to_w2(FFNNConfig(hidden=80_000))
    auto = plan_with_service(graph, ctx, max_states=FFNN_BEAM)
    p = paper_values.FIG08
    table = ExperimentTable(
        "fig08", "FFNN hidden 80K: auto vs simulated programmers "
        "(ours [paper]; * = first attempt crashed)",
        ["planner", "dist-ML expertise", "runtime"])
    table.add_row("Auto-gen", "NA", _with_paper(plan_cell(auto), p["auto"]))
    for level in ("low", "medium", "high"):
        result = plan_user_with_retry(graph, ctx, level)
        cell = plan_cell(result.plan) + result.display_suffix
        table.add_row(f"User ({level})", level.capitalize(),
                      _with_paper(cell, p[f"user_{level}"]))
    return table


# ======================================================================
# Fig 9: two-level block inverse
# ======================================================================
def fig09() -> ExperimentTable:
    """Two-level block-wise matrix inverse, 10 workers."""
    ctx = fresh_context(simsql_cluster(10))
    graph = two_level_inverse_graph()
    auto = plan_with_service(graph, ctx, max_states=FFNN_BEAM)
    hand = plan_hand_written(graph, ctx)
    tile = plan_all_tile(graph, ctx)
    p = paper_values.FIG09
    table = ExperimentTable(
        "fig09", "Two-level block-wise matrix inverse (ours [paper])",
        ["plan", "time", "opt time"])
    table.add_row("Auto-gen", _with_paper(plan_cell(auto), p["auto"]),
                  _with_paper(opt_time_cell(auto), f"({p['auto_opt']})"))
    table.add_row("Hand-written", _with_paper(plan_cell(hand), p["hand"]), "")
    table.add_row("All-tile", _with_paper(plan_cell(tile), p["tile"]), "")
    return table


# ======================================================================
# Fig 10: matrix multiplication chain
# ======================================================================
def fig10() -> ExperimentTable:
    """Six-matrix multiplication chain across the Fig 4 size sets."""
    table = ExperimentTable(
        "fig10", "Matrix multiplication chain by input size set "
        "(ours [paper])",
        ["size set", "Auto-gen", "Hand-written", "All-tile"])
    for size_set, paper in paper_values.FIG10.items():
        ctx = fresh_context(simsql_cluster(10))
        graph = mm_chain_graph(size_set)
        auto = plan_with_service(graph, ctx, max_states=FFNN_BEAM)
        hand = plan_hand_written(graph, ctx)
        tile = plan_all_tile(graph, ctx)
        table.add_row(
            f"Size Set {size_set}",
            _with_paper(auto_cell(auto), paper["auto"]),
            _with_paper(plan_cell(hand), paper["hand"]),
            _with_paper(plan_cell(tile), paper["tile"]))
    return table


# ======================================================================
# Figs 11-12: systems comparison on PlinyCompute
# ======================================================================
def _pc_plan(workers: int, hidden: int, batch: int, *,
             sparse_input: bool, allow_sparse_formats: bool):
    """Optimize the FFNN on the PlinyCompute profile with the paper's
    load formats (X in width-1000 column strips or CSR strips; W1 in
    1000x1000 chunks; everything else whole)."""
    x_fmt = csr_strips(1000) if sparse_input else col_strips(1000)
    # CSR strips are row-partitioned in our catalog; the paper shards the
    # input by rows for the sparse case too.
    if sparse_input:
        x_fmt = csr_strips(1000)
    cfg = amazoncat_config(batch, hidden, sparse_input=True,
                           x_format=x_fmt, w1_format=tiles(1000))
    if not allow_sparse_formats and not sparse_input:
        cfg = amazoncat_config(batch, hidden, sparse_input=False,
                               x_format=col_strips(1000),
                               w1_format=tiles(1000))
    graph = ffnn_backprop_to_w2(cfg)
    formats = DEFAULT_FORMATS if allow_sparse_formats else DENSE_FORMATS
    ctx = fresh_context(pliny_cluster(workers), formats=formats)
    return plan_with_service(graph, ctx, max_states=FFNN_BEAM), ctx


def fig11() -> ExperimentTable:
    """Systems comparison, 1K batch, PC constrained to dense operations."""
    table = ExperimentTable(
        "fig11", "FFNN on AmazonCat-shaped data, 1K batch (ours [paper])",
        ["workers x hidden", "PC No Sparsity", "PyTorch", "SystemDS"])
    for (workers, hidden), paper in paper_values.FIG11.items():
        pc, _ctx = _pc_plan(workers, hidden, 1000, sparse_input=False,
                            allow_sparse_formats=False)
        pt = simulate_pytorch(
            amazoncat_config(1000, hidden, sparse_input=False),
            pliny_cluster(workers))
        sysds_ctx = fresh_context(systemds_cluster(workers))
        sysds = plan_systemds(
            ffnn_backprop_to_w2(amazoncat_config(
                1000, hidden, sparse_input=True,
                x_format=csr_strips(1000), w1_format=tiles(1000))),
            sysds_ctx)
        table.add_row(
            f"{workers}w x {hidden}",
            _with_paper(auto_cell(pc), paper["pc"]),
            _with_paper(pt.display, paper["pytorch"]),
            _with_paper(plan_cell(sysds), paper["systemds"]))
    return table


def fig12() -> ExperimentTable:
    """Systems comparison, 10K batch, sparsity on/off."""
    table = ExperimentTable(
        "fig12", "FFNN on AmazonCat-shaped data, 10K batch (ours [paper])",
        ["workers x hidden", "PC No Sparsity", "PC Sparse Input",
         "PC Dense Input", "PyTorch", "SystemDS"])
    for (workers, hidden), paper in paper_values.FIG12.items():
        no_sp, _ = _pc_plan(workers, hidden, 10_000, sparse_input=False,
                            allow_sparse_formats=False)
        sp_in, _ = _pc_plan(workers, hidden, 10_000, sparse_input=True,
                            allow_sparse_formats=True)
        dn_in, _ = _pc_plan(workers, hidden, 10_000, sparse_input=False,
                            allow_sparse_formats=True)
        pt = simulate_pytorch(
            amazoncat_config(10_000, hidden, sparse_input=False),
            pliny_cluster(workers))
        sysds = plan_systemds(
            ffnn_backprop_to_w2(amazoncat_config(
                10_000, hidden, sparse_input=True,
                x_format=csr_strips(1000), w1_format=tiles(1000))),
            fresh_context(systemds_cluster(workers)))
        table.add_row(
            f"{workers}w x {hidden}",
            _with_paper(plan_cell(no_sp), paper["pc_no_sparsity"]),
            _with_paper(plan_cell(sp_in), paper["pc_sparse_input"]),
            _with_paper(plan_cell(dn_in), paper["pc_dense_input"]),
            _with_paper(pt.display, paper["pytorch"]),
            _with_paper(plan_cell(sysds), paper["systemds"]))
    return table


# ======================================================================
# Fig 13: optimizer runtimes
# ======================================================================
FORMAT_SUBSETS = {
    "all": DEFAULT_FORMATS,
    "single_strip_block": SINGLE_STRIP_BLOCK_FORMATS,
    "single_block": SINGLE_BLOCK_FORMATS,
}


def fig13(scales: tuple[int, ...] = (1, 2, 3, 4),
          include_brute: bool = True) -> ExperimentTable:
    """Optimization time: DP / frontier vs brute force."""
    table = ExperimentTable(
        "fig13", "Optimization times, DP vs brute force (ours [paper])",
        ["formats / scale", "DP DAG2", "Brute DAG2", "DP DAG1",
         "Brute DAG1", "DP Tree", "Brute Tree"])
    for subset_name, formats in FORMAT_SUBSETS.items():
        for scale in scales:
            cells = [f"{subset_name} / {scale}"]
            for family in ("dag2", "dag1", "tree"):
                paper_dp, paper_brute = \
                    paper_values.FIG13[subset_name][family][scale]
                graph = SCALING_FAMILIES[family](scale)
                ctx = fresh_context(simsql_cluster(10), formats=formats)
                # Deliberately bypasses the shared planner service: this
                # figure measures optimizer wall-clock, which a cached
                # plan would fake.
                plan = optimize(graph, ctx)
                cells.append(_with_paper(
                    display_time(plan.optimize_seconds), paper_dp))
                if include_brute:
                    timeout = (BRUTE_TIMEOUT_SCALE1 if scale == 1
                               else BRUTE_TIMEOUT_LARGER)
                    ctx_b = fresh_context(simsql_cluster(10),
                                          formats=formats)
                    try:
                        bplan = optimize_brute(graph, ctx_b,
                                               timeout_seconds=timeout)
                        brute_cell = display_time(bplan.optimize_seconds)
                    except BruteForceTimeout:
                        brute_cell = "Fail"
                    cells.append(_with_paper(brute_cell, paper_brute))
                else:
                    cells.append(f"- [{paper_brute}]")
            table.add_row(*cells)
    table.add_note(
        f"brute-force timeout: {BRUTE_TIMEOUT_SCALE1:.0f}s at scale 1, "
        f"{BRUTE_TIMEOUT_LARGER:.0f}s above (paper used 30 min)")
    return table


# ======================================================================
# Ablations (DESIGN.md Section 5)
# ======================================================================
def ablation_transform_costs() -> ExperimentTable:
    """The paper's key idea: integrate transformation costs into the
    search.  The ablated optimizer ignores them while searching (they are
    still paid at execution)."""
    table = ExperimentTable(
        "ablation_transform_costs",
        "Optimizer with vs without transformation-cost integration",
        ["workload", "with transform costs", "without (ablated)",
         "slowdown"])
    workloads = [
        ("mm chain set 1", lambda: mm_chain_graph(1)),
        ("mm chain set 3", lambda: mm_chain_graph(3)),
        ("FFNN 40K", lambda: ffnn_backprop_to_w2(FFNNConfig(hidden=40_000))),
        ("inverse", two_level_inverse_graph),
    ]
    for label, build_graph in workloads:
        graph = build_graph()
        full_ctx = fresh_context(simsql_cluster(10))
        full = plan_with_service(graph, full_ctx, max_states=FFNN_BEAM)
        ablated_ctx = fresh_context(simsql_cluster(10),
                                    charge_transforms=False)
        ablated_plan = plan_with_service(graph, ablated_ctx,
                                         max_states=FFNN_BEAM)
        # Evaluate the ablated choice under the true cost model.
        from ..core.annotation import make_plan
        true_cost = make_plan(graph, ablated_plan.annotation, full_ctx,
                              "ablated", allow_infeasible=True)
        ratio = (true_cost.total_seconds / full.total_seconds
                 if math.isfinite(true_cost.total_seconds) else math.inf)
        table.add_row(label, plan_cell(full), plan_cell(true_cost),
                      f"{ratio:.2f}x" if math.isfinite(ratio) else "Fail")
    return table


def ablation_sharing() -> ExperimentTable:
    """Joint equivalence-class DP vs pretending the DAG is a tree.

    The tree DP cannot run on DAGs directly; instead we compare the frontier
    algorithm's cost against the sum of independently optimized copies
    (which double-pays shared subgraphs) on the DAG families."""
    from ..workloads.chains import dag1_graph, dag2_graph

    table = ExperimentTable(
        "ablation_sharing",
        "Shared-subgraph-aware DP vs independent sub-optimizations",
        ["graph", "frontier (shared)", "tree-expanded (duplicated)",
         "overhead"])
    for label, builder in (("dag1 scale 2", lambda: dag1_graph(2)),
                           ("dag2 scale 2", lambda: dag2_graph(2))):
        graph = builder()
        ctx = fresh_context(simsql_cluster(10))
        shared = plan_with_service(graph, ctx)
        duplicated = _tree_expanded_cost(graph, ctx)
        table.add_row(label, plan_cell(shared), display_time(duplicated),
                      f"{duplicated / shared.total_seconds:.2f}x")
    return table


def _tree_expanded_cost(graph, ctx) -> float:
    """Cost of optimizing the graph as if shared vertices were duplicated:
    every vertex's subgraph is optimized independently (per-vertex tree DP),
    so shared ancestors are paid once per consumer."""
    from ..core.tree_dp import _reach_table  # reuse the reach machinery

    table: dict[int, dict] = {}
    total_of: dict[int, float] = {}
    for vid in graph.topological_order():
        v = graph.vertex(vid)
        if v.is_source:
            table[vid] = {v.format: 0.0}
            continue
        in_types = tuple(graph.vertex(p).mtype for p in v.inputs)
        patterns = ctx.accepted_patterns(v.op, in_types)
        needed = [set() for _ in v.inputs]
        for _, in_fmts, _, _ in patterns:
            for j, fmt in enumerate(in_fmts):
                needed[j].add(fmt)
        reach = [
            _reach_table(graph, ctx, producer, table[producer], needed[j])
            for j, producer in enumerate(v.inputs)
        ]
        costs: dict = {}
        for impl, in_fmts, out_fmt, impl_cost in patterns:
            tot = impl_cost
            ok = True
            for j, fmt in enumerate(in_fmts):
                got = reach[j].get(fmt)
                if got is None:
                    ok = False
                    break
                tot += got[0]
            if ok and (out_fmt not in costs or tot < costs[out_fmt]):
                costs[out_fmt] = tot
        table[vid] = costs
        total_of[vid] = min(costs.values())
    sinks = [s.vid for s in graph.sinks() if not s.is_source]
    return sum(total_of[s] for s in sinks)


#: Registry used by the CLI and EXPERIMENTS.md generation.
from .chaos import CHAOS_EXPERIMENTS  # noqa: E402 (registry tail)
from .egraph import EGRAPH_EXPERIMENTS  # noqa: E402 (registry tail)
from .extensions import EXTENSION_EXPERIMENTS  # noqa: E402 (registry tail)
from .observability import (  # noqa: E402 (registry tail)
    OBSERVABILITY_EXPERIMENTS,
)
from .multi_query import MULTI_QUERY_EXPERIMENTS  # noqa: E402 (registry tail)
from .plan_cache import PLAN_CACHE_EXPERIMENTS  # noqa: E402 (registry tail)
from .rewrites import REWRITE_EXPERIMENTS  # noqa: E402 (registry tail)
from .robustness import ROBUSTNESS_EXPERIMENTS  # noqa: E402 (registry tail)
from .scheduling import SCHEDULING_EXPERIMENTS  # noqa: E402 (registry tail)

EXPERIMENTS = {
    "fig01": fig01,
    "fig05": fig05,
    "fig06": fig06,
    "fig07": fig07,
    "fig08": fig08,
    "fig09": fig09,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "ablation_transform_costs": ablation_transform_costs,
    "ablation_sharing": ablation_sharing,
    **CHAOS_EXPERIMENTS,
    **EGRAPH_EXPERIMENTS,
    **EXTENSION_EXPERIMENTS,
    **OBSERVABILITY_EXPERIMENTS,
    **MULTI_QUERY_EXPERIMENTS,
    **PLAN_CACHE_EXPERIMENTS,
    **REWRITE_EXPERIMENTS,
    **ROBUSTNESS_EXPERIMENTS,
    **SCHEDULING_EXPERIMENTS,
}
