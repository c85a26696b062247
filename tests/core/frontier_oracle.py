"""The per-state frontier search: the differential oracle.

The frontier algorithm of paper Section 6 in its plainest form: one dict
entry per joint state, pairwise dominance comparisons, per-state
transformation costing, and a back-pointer object per entry.
:func:`repro.core.frontier.optimize_dag` runs the same algorithm over
column-oriented numpy tables and must reproduce this module's results bit
for bit — the same plans, the same costs (exact ``==``) and the same
profile counters.  The differential tests in this directory call
:func:`optimize_dag_object` directly and compare.

Both searches share the sweep order, the dominance oracle, the stats
object and the dominance-comparison cap, imported from
:mod:`repro.core.frontier`, so the comparison isolates the table
representation.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from repro.core.annotation import Annotation, Plan, make_plan
from repro.core.formats import PhysicalFormat
from repro.core.frontier import (
    DOMINANCE_COMPARISONS,
    FrontierStats,
    _candidate_output_counts,
    _choose_next,
    _Class,
    _DominanceOracle,
)
from repro.core.graph import ComputeGraph, Edge, VertexId
from repro.core.implementations import OpImplementation
from repro.core.registry import OptimizerContext
from repro.core.transforms import FormatTransform
from repro.core.tree_dp import OptimizationError
from repro.obs.tracer import as_tracer

State = tuple[PhysicalFormat, ...]


@dataclass(frozen=True)
class _Back:
    """How one class-table entry was produced (for plan reconstruction)."""

    vertex: VertexId
    impl: OpImplementation
    #: One entry per input edge: (edge, transformation, post-transform fmt).
    edge_choices: tuple[tuple[Edge, FormatTransform, PhysicalFormat], ...]
    #: Stored format chosen for the vertex itself.
    vertex_format: PhysicalFormat
    #: Predecessor table entries, one per merged class: (class id, state).
    prev: tuple[tuple[int, State], ...]
    #: Formats of vertices projected out of the frontier at this step.
    retired: tuple[tuple[VertexId, PhysicalFormat], ...]


def _dominance_prune(
    members: tuple[VertexId, ...],
    table: dict,
    oracle: _DominanceOracle,
    stats: FrontierStats,
) -> dict:
    """Drop every strictly dominated state; preserves insertion order.

    ``table`` maps a state (one format per member, in order) to a value
    whose first element is its cost — both full class tables and per-class
    projections (sub-state tables) are pruned through this one function.
    """
    if len(table) < 2 or not members:
        return table
    member_edges = [oracle.member_edges(m) for m in members]
    # States with no remaining consumer edges at all carry no format
    # obligations: only the cheapest survives (ties keep the first seen).
    ranked = sorted(table.items(), key=lambda kv: kv[1][0])
    kept: list[tuple[State, float]] = []
    dropped: set[State] = set()
    for state, value in ranked:
        cost = value[0]
        dominated = False
        for kstate, kcost in kept[:DOMINANCE_COMPARISONS]:
            bound = kcost
            beaten = True
            for slot, edges in enumerate(member_edges):
                p1, p2 = kstate[slot], state[slot]
                if p1 == p2:
                    continue
                for mtype, needs in edges:
                    bound += oracle.edge_delta(mtype, needs, p1, p2)
                    if bound >= cost:
                        beaten = False
                        break
                if not beaten:
                    break
            if beaten and bound < cost:
                dominated = True
                break
        if dominated:
            dropped.add(state)
        else:
            kept.append((state, cost))
    if not dropped:
        return table
    stats.states_pruned += len(dropped)
    return {s: v for s, v in table.items() if s not in dropped}


def optimize_dag_object(graph: ComputeGraph, ctx: OptimizerContext,
                        stats: FrontierStats | None = None,
                        max_states: int | None = None,
                        prune: bool | None = None,
                        tracer=None) -> Plan:
    """Per-state twin of :func:`repro.core.frontier.optimize_dag`.

    Takes the same parameters (without their validation) and must return
    the same plan and the same profile counters.  Kept deliberately
    simple: one dict entry per joint state, pairwise dominance
    comparisons, per-state transformation costing.
    """
    if prune is None:
        prune = max_states is None
    started = time.perf_counter()
    graph.validate()
    stats = stats if stats is not None else FrontierStats()

    # Remaining unvisited consumers per vertex, counted per edge.
    consumers_left: dict[VertexId, int] = {
        vid: graph.out_degree(vid) for vid in graph.vertex_ids}
    visited: set[VertexId] = set()
    oracle = _DominanceOracle(graph, ctx, visited) if prune else None

    history: dict[int, _Class] = {}
    active: dict[int, _Class] = {}
    member_class: dict[VertexId, int] = {}
    next_cid = itertools.count()

    def new_class(members: tuple[VertexId, ...],
                  table: dict[State, tuple[float, _Back | None]]) -> _Class:
        cls = _Class(next(next_cid), members, table)
        history[cls.cid] = cls
        active[cls.cid] = cls
        for m in members:
            member_class[m] = cls.cid
        stats.observe(len(members), len(table))
        return cls

    #: Fully retired classes: (cost, backpointer root) per component.
    completed: list[tuple[float, tuple[int, State]]] = []

    # ------------------------------------------------------------------
    # Initial frontier: every source is optimized with known format.
    # ------------------------------------------------------------------
    for source in graph.sources:
        visited.add(source.vid)
        cls = new_class((source.vid,), {(source.format,): (0.0, None)})
        if consumers_left[source.vid] == 0:
            # Degenerate: a source nobody consumes contributes zero cost.
            completed.append((0.0, (cls.cid, (source.format,))))
            del active[cls.cid]

    unvisited = [v.vid for v in graph.inner_vertices]
    mark = time.perf_counter()
    candidate_counts = _candidate_output_counts(graph, ctx)
    stats.charge_phase("order", time.perf_counter() - mark)

    tracer = as_tracer(tracer)
    with tracer.span("sweep", kind="search-phase",
                     vertices=len(unvisited)) as sweep_span:
        while unvisited:
            mark = time.perf_counter()
            vid = _choose_next(graph, unvisited, visited, active,
                               member_class, consumers_left, candidate_counts)
            stats.sweep_order.append(vid)
            unvisited.remove(vid)
            now = time.perf_counter()
            stats.charge_phase("order", now - mark)
            mark = now
            v = graph.vertex(vid)
            edges = graph.in_edges(vid)
            in_types = tuple(graph.vertex(p).mtype for p in v.inputs)
            patterns = ctx.accepted_patterns(v.op, in_types)
            if not patterns:
                raise OptimizationError(
                    f"no implementation accepts any formats at vertex {v.name!r}")

            involved_cids = sorted({member_class[p] for p in v.inputs})
            involved = [active.pop(cid) for cid in involved_cids]
            if oracle is not None:
                # Re-prune the merging classes: consumer edges optimized since
                # their creation have shed format obligations, so states that
                # were incomparable then may be dominated now.
                for cls in involved:
                    cls.table = _dominance_prune(cls.members, cls.table,
                                                 oracle, stats)
            joint_members: tuple[VertexId, ...] = tuple(
                m for cls in involved for m in cls.members)

            # Mark visited before retirement analysis.
            visited.add(vid)
            for edge in edges:
                consumers_left[edge.src] -= 1
            survivors = tuple(m for m in joint_members if consumers_left[m] > 0)
            v_survives = consumers_left[vid] > 0
            new_members = survivors + ((vid,) if v_survives else ())

            # Group the input edges by the class containing their producer, and
            # note each class member's position within its own class state.
            local_slot: dict[VertexId, int] = {}
            edges_of_class: dict[int, list] = {cls.cid: [] for cls in involved}
            class_of_member: dict[VertexId, int] = {}
            for cls in involved:
                for i, m in enumerate(cls.members):
                    local_slot[m] = i
                    class_of_member[m] = cls.cid
            for pos, edge in enumerate(edges):
                edges_of_class[class_of_member[edge.src]].append((edge, pos))

            # Patterns grouped by their input-format needs: per distinct needs
            # the class projections (and the cross product over them) are
            # computed once, and within a group only the cheapest
            # implementation per output format can ever win.
            groups: dict[tuple, dict[PhysicalFormat,
                                     tuple[float, OpImplementation]]] = {}
            for impl, in_fmts, out_fmt, impl_cost in patterns:
                outs = groups.setdefault(in_fmts, {})
                best = outs.get(out_fmt)
                if best is None or impl_cost < best[0]:
                    outs[out_fmt] = (impl_cost, impl)

            # (class id, per-edge needed formats) -> projection of that class
            # onto its surviving members for those needs (see below).
            proj_cache: dict[tuple, dict | None] = {}

            def project(cls: _Class, needs: tuple[PhysicalFormat, ...]):
                """Fold ``cls`` onto its surviving members for one needs tuple.

                Returns ``sub-state -> (adjusted cost, full state, transform
                choices)`` where the adjusted cost is the class cost plus the
                transformation costs of the edges it feeds into ``v``,
                minimized over the formats of members retiring at this step —
                or None when no state of the class can feed these needs.
                """
                key = (cls.cid, needs)
                cached = proj_cache.get(key, _MISSING)
                if cached is not _MISSING:
                    return cached
                survivor_idx = [i for i, m in enumerate(cls.members)
                                if consumers_left[m] > 0]
                # Per edge: (state slot, memo of stored-format -> conversion).
                converters = []
                for (edge, _pos), need in zip(edges_of_class[cls.cid], needs):
                    ptype = graph.vertex(edge.src).mtype
                    converters.append(
                        (local_slot[edge.src], edge, ptype, need, {}))
                best_sub: dict[State, tuple[float, State, tuple]] = {}
                for state, (cost, _b) in cls.table.items():
                    stats.states_examined += 1
                    adjusted = cost
                    choices = []
                    ok = True
                    for slot, edge, ptype, need, memo in converters:
                        stored = state[slot]
                        conv = memo.get(stored, _MISSING)
                        if conv is _MISSING:
                            conv = None
                            t_cost = ctx.search_transform_cost(ptype, stored,
                                                               need)
                            if t_cost is not None:
                                transform = ctx.transform_choice(
                                    ptype, stored, need)[0]
                                conv = (t_cost, (edge, transform, need))
                            memo[stored] = conv
                        if conv is None:
                            ok = False
                            break
                        adjusted += conv[0]
                        choices.append(conv[1])
                    if not ok:
                        continue
                    sub = tuple(state[i] for i in survivor_idx)
                    prev_best = best_sub.get(sub)
                    if prev_best is None or adjusted < prev_best[0]:
                        best_sub[sub] = (adjusted, state, tuple(choices))
                if best_sub and oracle is not None:
                    # Prune the projection itself: the cross product over the
                    # involved classes shrinks multiplicatively.  ``visited``
                    # already contains ``v``, so only edges *beyond* this step
                    # count as remaining obligations — the edges into ``v``
                    # are folded into the adjusted costs being compared.
                    best_sub = _dominance_prune(
                        tuple(cls.members[i] for i in survivor_idx),
                        best_sub, oracle, stats)
                result = best_sub if best_sub else None
                proj_cache[key] = result
                return result

            new_table: dict[State, tuple[float, _Back | None]] = {}
            for in_fmts, outs in groups.items():
                projections = []
                feasible = True
                for cls in involved:
                    needs = tuple(in_fmts[pos]
                                  for _edge, pos in edges_of_class[cls.cid])
                    proj = project(cls, needs)
                    if proj is None:
                        feasible = False
                        break
                    projections.append((cls, proj))
                if not feasible:
                    continue

                for combo in itertools.product(
                        *(proj.items() for _cls, proj in projections)):
                    base_cost = 0.0
                    key_parts: list[PhysicalFormat] = []
                    prev = []
                    edge_choices = []
                    retired = []
                    for (cls, _proj), (sub, (adj, full_state, choices)) in zip(
                            projections, combo):
                        base_cost += adj
                        key_parts.extend(sub)
                        prev.append((cls.cid, full_state))
                        edge_choices.extend(choices)
                        for i, m in enumerate(cls.members):
                            if consumers_left[m] == 0:
                                retired.append((m, full_state[i]))
                    for out_fmt, (impl_cost, impl) in outs.items():
                        cost = base_cost + impl_cost
                        if v_survives:
                            key: State = tuple(key_parts) + (out_fmt,)
                            out_retired = tuple(retired)
                        else:
                            key = tuple(key_parts)
                            out_retired = tuple(retired) + ((vid, out_fmt),)
                        existing = new_table.get(key)
                        if existing is not None and existing[0] <= cost:
                            continue
                        new_table[key] = (cost, _Back(
                            vid, impl, tuple(edge_choices), out_fmt,
                            tuple(prev), out_retired))

            if not new_table:
                raise OptimizationError(
                    f"no feasible annotation for vertex {v.name!r} "
                    f"({v.op.name} over {[str(t) for t in in_types]})")
            now = time.perf_counter()
            stats.charge_phase("project", now - mark)
            mark = now

            if oracle is not None:
                new_table = _dominance_prune(new_members, new_table, oracle,
                                             stats)
                now = time.perf_counter()
                stats.charge_phase("prune", now - mark)
                mark = now

            if max_states is not None and len(new_table) > max_states:
                stats.states_beamed += len(new_table) - max_states
                kept = sorted(new_table.items(), key=lambda kv: kv[1][0])
                new_table = dict(kept[:max_states])

            cls = new_class(new_members, new_table)
            if not new_members:
                cost, _back = cls.table[()]
                completed.append((cost, (cls.cid, ())))
                del active[cls.cid]
            stats.charge_phase("beam", time.perf_counter() - mark)
        sweep_span.set(steps=len(stats.sweep_order),
                       states_examined=stats.states_examined,
                       states_pruned=stats.states_pruned,
                       states_beamed=stats.states_beamed,
                       max_class_size=stats.max_class_size,
                       max_table_size=stats.max_table_size)

    if active:  # pragma: no cover - defensive; all vertices should retire
        raise OptimizationError(
            f"frontier did not fully retire: {sorted(active)}")

    mark = time.perf_counter()
    with tracer.span("reconstruct", kind="search-phase",
                     components=len(completed)):
        annotation = _reconstruct(history, completed)
    stats.charge_phase("reconstruct", time.perf_counter() - mark)
    elapsed = time.perf_counter() - started
    return make_plan(graph, annotation, ctx, "frontier", elapsed,
                     profile=stats.profile())


_MISSING = object()


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------
def _reconstruct(
    history: dict[int, _Class],
    completed: list[tuple[float, tuple[int, State]]],
) -> Annotation:
    annotation = Annotation()
    stack = [ref for (_cost, ref) in completed]
    while stack:
        cid, state = stack.pop()
        _cost, back = history[cid].table[state]
        if back is None:
            continue  # source class
        annotation.impls[back.vertex] = back.impl
        for edge, transform, dst in back.edge_choices:
            annotation.transforms[edge] = (transform, dst)
        stack.extend(back.prev)
    return annotation
