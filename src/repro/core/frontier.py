"""General-DAG optimization: the frontier algorithm (paper Section 6).

When two vertices share an ancestor, their optimal costs cannot be computed
independently — the shared sub-computation must be costed once.  The frontier
algorithm therefore maintains the optimal cost *jointly* for equivalence
classes of frontier vertices that share ancestors: ``F(V, p)`` is the minimum
cost to compute every vertex of class ``V`` such that their stored formats
are exactly ``p`` (paper Equation 2).

The algorithm sweeps a frontier through the DAG, moving one vertex at a time
from the unoptimized to the optimized side:

1. the classes containing the new vertex's arguments are merged (their cost
   tables cross-multiplied — classes are vertex-disjoint, so costs add);
2. every (implementation, accepted input pattern) of the vertex is applied
   against every joint state, charging one transformation per input edge;
3. vertices whose consumers are now all optimized *retire* from the frontier
   and are projected out of the table (minimizing over their formats).

For tree-shaped graphs every class is a singleton and the algorithm
degenerates to Algorithm 3; on general DAGs its complexity is
``O(n |P|^c |I| |V|)`` where ``c`` bounds the class size.

Three optimizations keep the joint tables small without affecting the plan
(see docs/optimizer.md, "Search-space pruning"):

* **dominance pruning** — a state is dropped when another state reaches the
  same frontier strictly cheaper even after paying for the worst-case format
  mismatch on every remaining consumer edge (lossless; ``prune=False``
  disables it);
* **class-size-aware ordering** — the next vertex is the ready one whose
  move leaves the smallest merged class (``order="class-size"``; the
  historical projected-table-size heuristic survives as
  ``order="table-size"``);
* **transform/pattern memoization** — per-slot transform costs and
  per-input-pattern projections are computed once per sweep step instead of
  once per joint state.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

from ..obs.tracer import as_tracer
from .annotation import Annotation, Plan, make_plan
from .formats import PhysicalFormat
from .graph import ComputeGraph, Edge, VertexId
from .implementations import OpImplementation
from .profile import OptimizerProfile
from .registry import OptimizerContext
from .transforms import FormatTransform
from .tree_dp import OptimizationError

State = tuple[PhysicalFormat, ...]

#: Accepted values of ``optimize_dag``'s ``order`` parameter.
ORDERS = ("class-size", "table-size")

#: Accepted values of ``optimize_dag``'s ``frontier`` parameter.
FRONTIERS = ("array", "object")

#: How many kept (cheaper) states each candidate state is compared against
#: during dominance pruning.  A cap keeps the prune ``O(table)`` instead of
#: ``O(table^2)``; it only bounds how *much* is pruned, never correctness.
DOMINANCE_COMPARISONS = 48


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


@dataclass
class _Class:
    """One equivalence class along the frontier, with its joint cost table."""

    cid: int
    members: tuple[VertexId, ...]
    table: dict[State, tuple[float, _Back | None]]


class FrontierStats:
    """Search-effort counters, reported for the Fig 13 style experiments."""

    def __init__(self) -> None:
        self.max_class_size = 0
        self.max_table_size = 0
        self.states_examined = 0
        self.states_pruned = 0
        self.states_beamed = 0
        self.sweep_order: list[VertexId] = []
        self.phase_seconds: dict[str, float] = {}

    def observe(self, members: int, table: int) -> None:
        self.max_class_size = max(self.max_class_size, members)
        self.max_table_size = max(self.max_table_size, table)

    def charge_phase(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = \
            self.phase_seconds.get(phase, 0.0) + seconds

    def profile(self, algorithm: str = "frontier",
                frontier: str | None = None) -> OptimizerProfile:
        return OptimizerProfile(
            algorithm=algorithm,
            states_explored=self.states_examined,
            states_pruned=self.states_pruned,
            states_beamed=self.states_beamed,
            peak_table_size=self.max_table_size,
            max_class_size=self.max_class_size,
            sweep_order=tuple(self.sweep_order),
            phase_seconds=dict(self.phase_seconds),
            frontier=frontier)


# ----------------------------------------------------------------------
# Dominance pruning
# ----------------------------------------------------------------------
class _DominanceOracle:
    """Decides whether one joint state provably dominates another.

    State ``s1`` dominates ``s2`` when every completion available to ``s2``
    is available to ``s1`` at strictly lower cost.  The only way the future
    interacts with a class state is through the transformation charged per
    remaining consumer edge, so it suffices that::

        cost(s1) + Σ_e Δ_e(s1[m_e], s2[m_e]) < cost(s2)

    where ``Δ_e(p1, p2) = max(0, max_q t(p1→q) − t(p2→q))`` ranges over the
    formats ``q`` the consumer's accepted patterns can actually request on
    that edge (``∞`` when ``p1`` cannot reach a format ``p2`` can).  Dropping
    dominated states is lossless: any plan built from ``s2`` is beaten by
    one built from ``s1``, so neither the optimal cost nor the reconstructed
    plan can change.
    """

    def __init__(self, graph: ComputeGraph, ctx: OptimizerContext,
                 visited: set[VertexId]) -> None:
        self._graph = graph
        self._ctx = ctx
        self._visited = visited
        #: (dst vid) -> per-argument frozenset of accepted input formats.
        self._needs: dict[VertexId, tuple[frozenset, ...]] = {}
        #: (mtype, needs, p1, p2) -> worst-case extra transform cost.
        self._delta: dict[tuple, float] = {}

    def _slot_needs(self, dst: VertexId) -> tuple[frozenset, ...]:
        got = self._needs.get(dst)
        if got is None:
            v = self._graph.vertex(dst)
            in_types = tuple(self._graph.vertex(p).mtype for p in v.inputs)
            per: list[set] = [set() for _ in v.inputs]
            for _impl, in_fmts, _out, _cost in \
                    self._ctx.accepted_patterns(v.op, in_types):
                for j, fmt in enumerate(in_fmts):
                    per[j].add(fmt)
            got = tuple(frozenset(s) for s in per)
            self._needs[dst] = got
        return got

    def member_edges(self, member: VertexId) -> list[tuple]:
        """(mtype, needed-format set) per not-yet-optimized consumer edge."""
        mtype = self._graph.vertex(member).mtype
        out = []
        for edge in self._graph.out_edges(member):
            if edge.dst in self._visited:
                continue
            out.append((mtype, self._slot_needs(edge.dst)[edge.arg_pos]))
        return out

    def edge_delta(self, mtype, needs: frozenset,
                   p1: PhysicalFormat, p2: PhysicalFormat) -> float:
        key = (mtype, needs, p1, p2)
        got = self._delta.get(key)
        if got is None:
            got = 0.0
            for q in needs:
                t2 = self._ctx.search_transform_cost(mtype, p2, q)
                if t2 is None:
                    # p2 cannot feed q: a completion via q is impossible
                    # from s2, so s1 need not match it.
                    continue
                t1 = self._ctx.search_transform_cost(mtype, p1, q)
                if t1 is None:
                    got = math.inf
                    break
                got = max(got, t1 - t2)
            self._delta[key] = got
        return got


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


def optimize_dag(graph: ComputeGraph, ctx: OptimizerContext,
                 stats: FrontierStats | None = None,
                 max_states: int | None = None,
                 prune: bool | None = None,
                 order: str = "class-size",
                 tracer=None,
                 frontier: str = "array") -> Plan:
    """Compute the optimal annotation of an arbitrary compute DAG.

    ``prune`` enables the lossless dominance prune.  Turning it on or off
    never changes the returned plan, only how long the search takes — the
    differential test harness asserts exactly that.  The default ``None``
    means *auto*: pruned when the search is exact, unpruned when a
    ``max_states`` beam is active (the beam already caps every table, so
    scanning the much larger pre-beam tables for dominated states costs
    more than it saves).

    ``order`` picks the sweep-order heuristic: ``"class-size"`` (default)
    greedily minimizes the post-merge equivalence-class size, breaking ties
    by the vertex's candidate-output-format count; ``"table-size"`` is the
    historical heuristic minimizing the projected joint-table size.  Both
    orders use a total key, so the sweep is deterministic and independent
    of ``PYTHONHASHSEED``.

    ``max_states`` optionally beam-prunes each equivalence-class cost table
    to its cheapest entries.  With the default ``None`` the search is exact;
    a finite beam trades a (usually tiny) optimality gap for much lower
    planning time on graphs whose sharing produces large equivalence classes
    (e.g. the 57-vertex FFNN training step).  Anything but ``None`` or a
    positive ``int`` raises ``ValueError``.

    ``frontier`` selects the table representation: ``"array"`` (default)
    runs the vectorized sweep of :mod:`repro.core.frontier_array`;
    ``"object"`` runs the per-state python implementation in this module.
    The two are bit-identical — same plans, same costs, same profile
    counters — which the differential harness asserts; ``"object"`` is kept
    as the oracle (and for pinpointing miscompares when the array path is
    ever touched).

    ``tracer`` records the search's ``sweep`` and ``reconstruct`` phases as
    nested spans carrying the effort counters (see :mod:`repro.obs.tracer`).
    """
    if order not in ORDERS:
        raise ValueError(f"unknown order {order!r}; expected one of {ORDERS}")
    if frontier not in FRONTIERS:
        raise ValueError(f"unknown frontier {frontier!r}; "
                         f"expected one of {FRONTIERS}")
    if max_states is not None and (isinstance(max_states, bool)
                                   or not isinstance(max_states, int)
                                   or max_states < 1):
        raise ValueError(f"invalid max_states {max_states!r}; "
                         f"expected None or a positive int")
    if frontier == "array":
        from .frontier_array import optimize_dag_array
        return optimize_dag_array(graph, ctx, stats=stats,
                                  max_states=max_states, prune=prune,
                                  order=order, tracer=tracer)
    return optimize_dag_object(graph, ctx, stats=stats, max_states=max_states,
                               prune=prune, order=order, tracer=tracer)


def optimize_dag_object(graph: ComputeGraph, ctx: OptimizerContext,
                        stats: FrontierStats | None = None,
                        max_states: int | None = None,
                        prune: bool | None = None,
                        order: str = "class-size",
                        tracer=None) -> Plan:
    """The per-state-python-objects implementation (``frontier="object"``).

    The differential oracle: one dict entry per joint state, pairwise
    dominance comparisons, per-state transformation costing.  Kept
    deliberately simple — the vectorized path must reproduce its results
    bit for bit.  Call :func:`optimize_dag`, which validates knobs, rather
    than this directly.
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
            vid = _choose_next(graph, order, unvisited, visited, active,
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
                     profile=stats.profile(frontier="object"))


_MISSING = object()


# ----------------------------------------------------------------------
# Vertex ordering
# ----------------------------------------------------------------------
def _candidate_output_counts(graph: ComputeGraph,
                             ctx: OptimizerContext) -> dict[VertexId, int]:
    counts: dict[VertexId, int] = {}
    for v in graph.inner_vertices:
        in_types = tuple(graph.vertex(p).mtype for p in v.inputs)
        counts[v.vid] = max(1, len(ctx.output_candidates(v.op, in_types)))
    return counts


def _choose_next(graph, order, unvisited, visited, active, member_class,
                 consumers_left, candidate_counts) -> VertexId:
    """Pick the next ready vertex under the selected ordering heuristic.

    Both heuristics rank by an explicit total key ending in the vertex id,
    so the sweep order is fully deterministic (and in particular identical
    under every ``PYTHONHASHSEED``).
    """
    best_key = None
    best_vid = None
    for vid in unvisited:
        v = graph.vertex(vid)
        if any(p not in visited for p in v.inputs):
            continue
        if order == "class-size":
            key = _class_size_key(graph, vid, v, active, member_class,
                                  consumers_left, candidate_counts)
        else:
            key = _table_size_key(graph, vid, v, active, member_class,
                                  candidate_counts)
        if best_key is None or key < best_key:
            best_key, best_vid = key, vid
    if best_vid is None:  # pragma: no cover - graph.validate prevents this
        raise OptimizationError("no ready vertex; graph is cyclic?")
    return best_vid


def _class_size_key(graph, vid, v, active, member_class, consumers_left,
                    candidate_counts) -> tuple:
    """Post-merge class size, then candidate-format count, then vid."""
    taken: dict[VertexId, int] = {}
    for p in v.inputs:
        taken[p] = taken.get(p, 0) + 1
    members = set()
    for cid in {member_class[p] for p in v.inputs}:
        members.update(active[cid].members)
    size = sum(1 for m in members
               if consumers_left[m] - taken.get(m, 0) > 0)
    if graph.out_degree(vid) > 0:
        size += 1
    return (size, candidate_counts[vid], vid)


def _table_size_key(graph, vid, v, active, member_class,
                    candidate_counts) -> tuple:
    """The historical heuristic: projected joint-table size, then vid."""
    size = 1
    for cid in {member_class[p] for p in v.inputs}:
        size *= max(1, len(active[cid].table))
    survives = graph.out_degree(vid) > 0
    return (size * (candidate_counts[vid] if survives else 1), vid)


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
