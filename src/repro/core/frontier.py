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
  move leaves the smallest merged class;
* **transform/pattern memoization** — per-slot transform costs and
  per-input-pattern projections are computed once per sweep step instead of
  once per joint state.

Class cost tables are column-oriented numpy arrays (a cost column, one
integer-coded format column per class slot, and integer back-pointer
columns), so no loop of the sweep runs once per table row:

* **projection** — the transformation costs for a whole table column come
  from one memoized cost vector
  (:meth:`repro.core.registry.OptimizerContext.transform_cost_vector`,
  backed by the batched :func:`repro.core.transforms.transform_choice_table`
  / :meth:`repro.cost.CostModel.batch_seconds` entry points) and are added
  to the cost column elementwise; surviving sub-states are re-encoded into
  the new table's key space through a per-slot ``old code → new code``
  remap array;
* **apply + dedup** — the cross product over merged classes is a chain of
  outer sums, and the strict-``<`` keep-first dedup over joint states is a
  stable groupby/argmin over the integer-coded state rows;
* **dominance pruning** — each kept state (up to
  :data:`DOMINANCE_COMPARISONS` of them) marks every later candidate it
  dominates in one vectorized bound computation against per-slot
  Δ-matrices built by :class:`_DominanceOracle`.

The search must return exactly what the plain per-state formulation of the
algorithm returns — one dict entry per joint state, pairwise dominance
comparisons.  That formulation lives in ``tests/core/frontier_oracle.py``,
and the differential harness asserts bit-identical plans, costs and
profile counters against it.  Three invariants make that hold:

1. every floating-point cost is produced by the *same sequence of binary
   IEEE-754 additions* as the per-state formulation (class cost, then one
   add per input-edge transformation in edge order, then one add per merged
   class, then one add for the implementation) — slots whose formats
   already match contribute an exact ``+0.0`` from the Δ-matrix diagonal;
2. all sorts are stable (``kind="stable"``), reproducing python's stable
   ``sorted`` on equal costs;
3. every keep/replace decision uses the strict-``<`` + first-insertion
   rule: a table key sits at its first-appearance position and is won by
   the *earliest* entry attaining its minimum cost.

Back-pointers are integers, computed with index arithmetic for every row
that survives dedup, pruning and the beam: the row of each merged class it
was built from, the pattern group (input-format tuple) it applied and the
implementation/output-format index within that group.  Implementations,
edge transformations (through the code-indexed
:meth:`~repro.core.registry.OptimizerContext.transform_choice_vector`) and
formats are resolved by :func:`_reconstruct_rows` only for the one row per
class on the winning path; no per-row python object is ever built.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from ..obs.tracer import as_tracer
from .annotation import Annotation, Plan, make_plan
from .formats import PhysicalFormat
from .graph import ComputeGraph, VertexId
from .profile import OptimizerProfile
from .registry import OptimizerContext
from .tree_dp import OptimizationError

#: How many kept (cheaper) states each candidate state is compared against
#: during dominance pruning.  A cap keeps the prune ``O(table)`` instead of
#: ``O(table^2)``; it only bounds how *much* is pruned, never correctness.
DOMINANCE_COMPARISONS = 48


@dataclass
class _Class:
    """One equivalence class along the frontier, with its joint cost table."""

    cid: int
    members: tuple[VertexId, ...]
    #: An :class:`_ArrayTable` (the per-state test oracle keeps a dict).
    table: object


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

    def profile(self, algorithm: str = "frontier") -> OptimizerProfile:
        return OptimizerProfile(
            algorithm=algorithm,
            states_explored=self.states_examined,
            states_pruned=self.states_pruned,
            states_beamed=self.states_beamed,
            peak_table_size=self.max_table_size,
            max_class_size=self.max_class_size,
            sweep_order=tuple(self.sweep_order),
            phase_seconds=dict(self.phase_seconds))


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


_MISSING = object()


# ----------------------------------------------------------------------
# Column-oriented class tables
# ----------------------------------------------------------------------
class _Step:
    """What every row of one class table shares: the sweep step that built
    it.

    ``prev_cids[j]`` is the ``j``-th merged class; ``edges[j]`` lists its
    edges into ``vertex`` as ``(edge, arg position, class slot, mtype)``;
    ``groups[g]`` is the ``g``-th applied pattern group as ``(input
    formats, [(output format, (impl cost, impl)), ...])``.
    """

    __slots__ = ("vertex", "prev_cids", "edges", "groups")

    def __init__(self, vertex: VertexId, prev_cids: tuple[int, ...],
                 edges: list[list[tuple]], groups: list[tuple]) -> None:
        self.vertex = vertex
        self.prev_cids = prev_cids
        self.edges = edges
        self.groups = groups


class _ArrayTable:
    """One class cost table as parallel columns.

    Row ``i`` mirrors one entry of the per-state oracle's ``dict[State,
    (cost, _Back)]`` in the same order: ``costs[i]`` is its cost and
    ``codes[i, s]`` the integer code of its slot-``s`` format within
    ``slot_fmts[s]``
    (the distinct formats ever seen in slot ``s``, in first-appearance
    order).  The back-pointer columns say how the row was built by
    ``step``: ``prev[i, j]`` is its row in the ``j``-th merged class's
    table, ``group[i]`` the pattern group and ``out[i]`` the output-format
    index within that group.  Source tables have ``step=None``.
    """

    __slots__ = ("costs", "codes", "slot_fmts", "prev", "group", "out",
                 "step")

    def __init__(self, costs: np.ndarray, codes: np.ndarray,
                 slot_fmts: tuple[tuple, ...], prev: np.ndarray,
                 group: np.ndarray, out: np.ndarray,
                 step: _Step | None) -> None:
        self.costs = costs
        self.codes = codes
        self.slot_fmts = slot_fmts
        self.prev = prev
        self.group = group
        self.out = out
        self.step = step

    @classmethod
    def source(cls, fmt) -> "_ArrayTable":
        zero = np.zeros(1, dtype=np.int64)
        return cls(np.zeros(1, dtype=np.float64),
                   np.zeros((1, 1), dtype=np.int64), ((fmt,),),
                   np.zeros((1, 0), dtype=np.int64), zero, zero, None)

    def __len__(self) -> int:
        return self.costs.shape[0]

    def filtered(self, idx: np.ndarray) -> "_ArrayTable":
        """A new table with only rows ``idx`` (a mask or index array)."""
        return _ArrayTable(self.costs[idx], self.codes[idx], self.slot_fmts,
                           self.prev[idx], self.group[idx], self.out[idx],
                           self.step)


# ----------------------------------------------------------------------
# Stable group-by over integer-coded state rows
# ----------------------------------------------------------------------
def _group_rows(codes: np.ndarray, cards: list[int]) -> np.ndarray:
    """Group id per row; two rows get the same id iff they are equal."""
    n, k = codes.shape
    if k == 0:
        return np.zeros(n, dtype=np.int64)
    radix = 1
    for c in cards:
        radix *= max(1, c)
        if radix > 2 ** 62:
            break
    if radix <= 2 ** 62:
        keys = np.zeros(n, dtype=np.int64)
        for j in range(k):
            keys *= max(1, cards[j])
            keys += codes[:, j]
        _, inverse = np.unique(keys, return_inverse=True)
    else:  # pragma: no cover - needs >2^62 distinct joint states
        _, inverse = np.unique(codes, axis=0, return_inverse=True)
    return inverse.astype(np.int64, copy=False)


def _first_and_winner(inverse: np.ndarray, costs: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per group: index of first appearance, and of the winning entry.

    The winner is the *earliest* entry attaining the group's minimum cost —
    exactly the survivor of the per-state oracle's "replace only on strict
    improvement" dict updates.  Both outputs are aligned so that
    ``winner[j]`` wins the group whose first appearance is ``first[j]``,
    with groups listed in first-appearance order (= the per-state oracle's
    dict insertion order).
    """
    n = inverse.shape[0]
    idx = np.arange(n)
    n_groups = int(inverse.max()) + 1 if n else 0
    order_f = np.argsort(inverse, kind="stable")
    g = inverse[order_f]
    starts = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
    first = np.empty(n_groups, dtype=np.int64)
    first[g[starts]] = order_f[starts]
    order_w = np.lexsort((idx, costs, inverse))
    gw = inverse[order_w]
    starts_w = np.flatnonzero(np.concatenate(([True], gw[1:] != gw[:-1])))
    winner = np.empty(n_groups, dtype=np.int64)
    winner[gw[starts_w]] = order_w[starts_w]
    appearance = np.argsort(first, kind="stable")
    return first[appearance], winner[appearance]


# ----------------------------------------------------------------------
# Vectorized dominance pruning
# ----------------------------------------------------------------------
def _delta_matrix(oracle: _DominanceOracle, cache: dict, mtype, needs,
                  fmts: tuple) -> np.ndarray:
    """Δ-matrix for one (consumer edge, slot): ``D[a, b] = Δ_e(fmts[a],
    fmts[b])`` with an exact ``0.0`` diagonal (the per-state oracle skips
    equal-format slots, so their contribution must be a no-op add)."""
    key = (mtype, needs, fmts)
    got = cache.get(key)
    if got is None:
        k = len(fmts)
        got = np.zeros((k, k), dtype=np.float64)
        for a, p1 in enumerate(fmts):
            for b, p2 in enumerate(fmts):
                if a != b:
                    got[a, b] = oracle.edge_delta(mtype, needs, p1, p2)
        cache[key] = got
    return got


def _slot_deltas(oracle: _DominanceOracle, cache: dict,
                 members: tuple[VertexId, ...],
                 slot_fmts) -> list[list[np.ndarray]]:
    """Per slot, the Δ-matrices of its remaining consumer edges."""
    return [[_delta_matrix(oracle, cache, mtype, needs, tuple(fmts))
             for mtype, needs in oracle.member_edges(m)]
            for m, fmts in zip(members, slot_fmts)]


def _prune_rows(costs: np.ndarray, codes: np.ndarray,
                slot_deltas: list[list[np.ndarray]],
                stats: FrontierStats) -> np.ndarray | None:
    """Drop every strictly dominated row, vectorized.

    Returns a keep-mask over the rows *in their original order*, or None
    when nothing is dominated.  Candidates are ranked by cost (stable);
    each kept state among the first ``DOMINANCE_COMPARISONS`` marks every
    later candidate whose cost strictly exceeds the kept cost plus the
    per-slot worst-case format-gap bounds — the same pairs the per-state
    oracle's pairwise loop considers, with the same strict-``<`` verdicts.
    """
    n = costs.shape[0]
    ranked = np.argsort(costs, kind="stable")
    rcosts = costs[ranked]
    rcodes = codes[ranked]
    dominated = np.zeros(n, dtype=bool)
    kept = 0
    for i in range(n):
        if dominated[i]:
            continue
        kept += 1
        if kept > DOMINANCE_COMPARISONS or i + 1 >= n:
            break
        bounds = np.full(n - i - 1, rcosts[i])
        for slot, mats in enumerate(slot_deltas):
            if not mats:
                continue
            ci = int(rcodes[i, slot])
            col = rcodes[i + 1:, slot]
            for mat in mats:
                bounds += mat[ci, col]
        np.logical_or(dominated[i + 1:], bounds < rcosts[i + 1:],
                      out=dominated[i + 1:])
    dropped = int(dominated.sum())
    if not dropped:
        return None
    stats.states_pruned += dropped
    keep = np.ones(n, dtype=bool)
    keep[ranked[dominated]] = False
    return keep


class _Pruner:
    """Shares the oracle and the Δ-matrix cache across one sweep."""

    def __init__(self, oracle: _DominanceOracle) -> None:
        self.oracle = oracle
        self.cache: dict = {}

    def prune_table(self, members: tuple[VertexId, ...],
                    table: _ArrayTable, stats: FrontierStats) -> _ArrayTable:
        if len(table) < 2 or not members:
            return table
        deltas = _slot_deltas(self.oracle, self.cache, members,
                              table.slot_fmts)
        keep = _prune_rows(table.costs, table.codes, deltas, stats)
        return table if keep is None else table.filtered(keep)


# ----------------------------------------------------------------------
# Projections
# ----------------------------------------------------------------------
class _Proj:
    """One class folded onto its surviving members for one needs tuple.

    Entry ``j`` mirrors one entry of the per-state oracle's
    ``sub-state -> (adjusted cost, full state, transform choices)``
    projection dict, in the same insertion order: ``adj[j]`` is its
    adjusted cost, ``full_idx[j]`` the class-table row it came from, and
    ``sub_codes[j]`` its sub-state re-encoded into the *new* table's
    key-slot code space.
    """

    __slots__ = ("adj", "full_idx", "sub_codes")

    def __init__(self, adj: np.ndarray, full_idx: np.ndarray,
                 sub_codes: np.ndarray) -> None:
        self.adj = adj
        self.full_idx = full_idx
        self.sub_codes = sub_codes


def _recode(col: np.ndarray, fmts: tuple, fmt_codes: dict) -> np.ndarray:
    """Re-encode one code column (codes into ``fmts``) into the code space
    ``fmt_codes`` (format -> code), giving formats not yet coded the next
    codes in order of first appearance in ``col``."""
    present, first = np.unique(col, return_index=True)
    remap = np.zeros(len(fmts), dtype=np.int64)
    for old in present[np.argsort(first)]:
        remap[old] = fmt_codes.setdefault(fmts[old], len(fmt_codes))
    return remap[col]


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def optimize_dag(graph: ComputeGraph, ctx: OptimizerContext,
                 stats: FrontierStats | None = None,
                 max_states: int | None = None,
                 prune: bool | None = None,
                 tracer=None) -> Plan:
    """Compute the optimal annotation of an arbitrary compute DAG.

    ``prune`` enables the lossless dominance prune.  Turning it on or off
    never changes the returned plan, only how long the search takes — the
    differential test harness asserts exactly that.  The default ``None``
    means *auto*: pruned when the search is exact, unpruned when a
    ``max_states`` beam is active (the beam already caps every table, so
    scanning the much larger pre-beam tables for dominated states costs
    more than it saves).

    The sweep greedily moves the ready vertex that leaves the smallest
    merged equivalence class, breaking ties by the vertex's
    candidate-output-format count and then its id — a total key, so the
    sweep is deterministic and independent of ``PYTHONHASHSEED``.

    ``max_states`` optionally beam-prunes each equivalence-class cost table
    to its cheapest entries.  With the default ``None`` the search is exact;
    a finite beam trades a (usually tiny) optimality gap for much lower
    planning time on graphs whose sharing produces large equivalence classes
    (e.g. the 57-vertex FFNN training step).  Anything but ``None`` or a
    positive ``int`` raises ``ValueError``.

    ``tracer`` records the search's ``sweep`` and ``reconstruct`` phases as
    nested spans carrying the effort counters (see :mod:`repro.obs.tracer`).
    """
    if max_states is not None and (isinstance(max_states, bool)
                                   or not isinstance(max_states, int)
                                   or max_states < 1):
        raise ValueError(f"invalid max_states {max_states!r}; "
                         f"expected None or a positive int")
    if prune is None:
        prune = max_states is None
    started = time.perf_counter()
    graph.validate()
    stats = stats if stats is not None else FrontierStats()

    consumers_left: dict[VertexId, int] = {
        vid: graph.out_degree(vid) for vid in graph.vertex_ids}
    visited: set[VertexId] = set()
    pruner = _Pruner(_DominanceOracle(graph, ctx, visited)) if prune else None

    history: dict[int, _Class] = {}
    active: dict[int, _Class] = {}
    member_class: dict[VertexId, int] = {}
    next_cid = itertools.count()

    def new_class(members: tuple[VertexId, ...],
                  table: _ArrayTable) -> _Class:
        cls = _Class(next(next_cid), members, table)
        history[cls.cid] = cls
        active[cls.cid] = cls
        for m in members:
            member_class[m] = cls.cid
        stats.observe(len(members), len(table))
        return cls

    #: Fully retired classes: (cost, (class id, root row)) per component.
    completed: list[tuple[float, tuple[int, int]]] = []

    for source in graph.sources:
        visited.add(source.vid)
        cls = new_class((source.vid,), _ArrayTable.source(source.format))
        if consumers_left[source.vid] == 0:
            completed.append((0.0, (cls.cid, 0)))
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
            if pruner is not None:
                for cls in involved:
                    cls.table = pruner.prune_table(cls.members, cls.table,
                                                   stats)
            joint_members: tuple[VertexId, ...] = tuple(
                m for cls in involved for m in cls.members)

            visited.add(vid)
            for edge in edges:
                consumers_left[edge.src] -= 1
            survivors = tuple(m for m in joint_members if consumers_left[m] > 0)
            v_survives = consumers_left[vid] > 0
            new_members = survivors + ((vid,) if v_survives else ())

            # Per involved class, its edges into ``v`` as (edge, argument
            # position, class slot, producer mtype), in edge order.
            edges_of_class: dict[int, list] = {cls.cid: [] for cls in involved}
            slot_of: dict[VertexId, tuple[int, int]] = {}
            for cls in involved:
                for i, m in enumerate(cls.members):
                    slot_of[m] = (cls.cid, i)
            for pos, edge in enumerate(edges):
                cid, slot = slot_of[edge.src]
                edges_of_class[cid].append(
                    (edge, pos, slot, graph.vertex(edge.src).mtype))

            groups: dict[tuple, dict] = {}
            for impl, in_fmts, out_fmt, impl_cost in patterns:
                outs = groups.setdefault(in_fmts, {})
                best = outs.get(out_fmt)
                if best is None or impl_cost < best[0]:
                    outs[out_fmt] = (impl_cost, impl)

            # Key-slot format -> code maps for the new table: one per
            # surviving member of each involved class (in class order),
            # plus one for the new vertex's output when it survives.
            class_surv_idx = {
                cls.cid: [i for i, m in enumerate(cls.members)
                          if consumers_left[m] > 0]
                for cls in involved}
            slot_offsets: dict[int, int] = {}
            off = 0
            for cls in involved:
                slot_offsets[cls.cid] = off
                off += len(class_surv_idx[cls.cid])
            n_key_slots = off + (1 if v_survives else 0)
            key_fmt_codes: list[dict] = [dict() for _ in range(n_key_slots)]

            proj_cache: dict[tuple, _Proj | None] = {}

            def project(cls: _Class, needs: tuple) -> _Proj | None:
                key = (cls.cid, needs)
                cached = proj_cache.get(key, _MISSING)
                if cached is not _MISSING:
                    return cached
                table: _ArrayTable = cls.table
                stats.states_examined += len(table)
                survivor_idx = class_surv_idx[cls.cid]
                # The same add sequence as the per-state oracle: class
                # cost, then one transformation cost per edge, in edge
                # order.
                adjusted = table.costs.copy()
                for (_edge, _pos, slot, mtype), need in zip(
                        edges_of_class[cls.cid], needs):
                    tvec = ctx.transform_cost_vector(
                        mtype, table.slot_fmts[slot], need)
                    adjusted += tvec[table.codes[:, slot]]
                feas_idx = np.flatnonzero(np.isfinite(adjusted))
                if feas_idx.shape[0] == 0:
                    proj_cache[key] = None
                    return None
                adj = adjusted[feas_idx]
                sub = table.codes[np.ix_(feas_idx, survivor_idx)]
                cards = [len(table.slot_fmts[i]) for i in survivor_idx]
                _first, winner = _first_and_winner(_group_rows(sub, cards),
                                                   adj)
                full_idx = feas_idx[winner]
                adj = adj[winner]
                sub = sub[winner]
                if pruner is not None and len(adj) > 1 and survivor_idx:
                    members_surv = tuple(cls.members[i] for i in survivor_idx)
                    deltas = _slot_deltas(
                        pruner.oracle, pruner.cache, members_surv,
                        [table.slot_fmts[i] for i in survivor_idx])
                    keep = _prune_rows(adj, sub, deltas, stats)
                    if keep is not None:
                        adj, full_idx, sub = (adj[keep], full_idx[keep],
                                              sub[keep])
                # Encode the surviving sub-states into the new key space.
                base = slot_offsets[cls.cid]
                for j, i in enumerate(survivor_idx):
                    sub[:, j] = _recode(sub[:, j], table.slot_fmts[i],
                                        key_fmt_codes[base + j])
                proj = _Proj(adj, full_idx, sub)
                proj_cache[key] = proj
                return proj

            # ---------------- apply + cross product ----------------
            ecosts: list[np.ndarray] = []
            ekeys: list[np.ndarray] = []
            applied: list[tuple] = []  # per group: (in_fmts, outs_list)
            group_projs: list[list[_Proj]] = []  # per group, class order
            out_codes_map = key_fmt_codes[-1] if v_survives else None
            for in_fmts, outs in groups.items():
                projections = []
                feasible = True
                for cls in involved:
                    needs = tuple(in_fmts[pos] for _e, pos, _s, _t
                                  in edges_of_class[cls.cid])
                    proj = project(cls, needs)
                    if proj is None:
                        feasible = False
                        break
                    projections.append(proj)
                if not feasible:
                    continue
                # Outer-sum chain == the per-state oracle's per-class adds.
                base = np.zeros(1, dtype=np.float64)
                for proj in projections:
                    base = (base[:, None] + proj.adj[None, :]).ravel()
                n_combos = base.shape[0]
                outs_list = list(outs.items())
                n_outs = len(outs_list)
                impl_costs = np.array([c for _f, (c, _i) in outs_list],
                                      dtype=np.float64)
                costs_g = (base[:, None] + impl_costs[None, :]).ravel()

                combo_idx = np.arange(n_combos)
                blocks = []
                stride = n_combos
                for proj in projections:
                    size = proj.sub_codes.shape[0]
                    stride //= size
                    if proj.sub_codes.shape[1]:
                        blocks.append(
                            proj.sub_codes[(combo_idx // stride) % size])
                keys_combo = np.hstack(blocks) if blocks else \
                    np.empty((n_combos, 0), dtype=np.int64)
                keys_g = np.repeat(keys_combo, n_outs, axis=0)
                if v_survives:
                    ocol = np.array(
                        [out_codes_map.setdefault(fmt, len(out_codes_map))
                         for fmt, _ci in outs_list], dtype=np.int64)
                    keys_g = np.hstack(
                        [keys_g, np.tile(ocol, n_combos)[:, None]])
                ecosts.append(costs_g)
                ekeys.append(keys_g)
                applied.append((in_fmts, outs_list))
                group_projs.append(projections)

            if not ecosts:
                raise OptimizationError(
                    f"no feasible annotation for vertex {v.name!r} "
                    f"({v.op.name} over {[str(t) for t in in_types]})")

            all_costs = np.concatenate(ecosts)
            all_keys = np.vstack(ekeys)
            cards = [len(d) for d in key_fmt_codes]
            inverse = _group_rows(all_keys, cards)
            _first, winner = _first_and_winner(inverse, all_costs)
            table_costs = all_costs[winner]
            table_keys = all_keys[winner]
            now = time.perf_counter()
            stats.charge_phase("project", now - mark)
            mark = now

            if pruner is not None:
                if len(table_costs) > 1 and new_members:
                    slot_fmt_lists = [tuple(d) for d in key_fmt_codes]
                    deltas = _slot_deltas(pruner.oracle, pruner.cache,
                                          new_members, slot_fmt_lists)
                    keep = _prune_rows(table_costs, table_keys, deltas,
                                       stats)
                    if keep is not None:
                        idx = np.flatnonzero(keep)
                        winner = winner[idx]
                        table_costs = table_costs[idx]
                        table_keys = table_keys[idx]
                now = time.perf_counter()
                stats.charge_phase("prune", now - mark)
                mark = now

            if max_states is not None and len(table_costs) > max_states:
                stats.states_beamed += len(table_costs) - max_states
                beam = np.argsort(table_costs, kind="stable")[:max_states]
                winner = winner[beam]
                table_costs = table_costs[beam]
                table_keys = table_keys[beam]

            # Integer back-pointers for the survivors.  Each pattern group
            # contributed a combo-major block of (combo, output) candidates,
            # and each combo's index mixes one projection entry per class.
            bounds = np.cumsum([0] + [c.shape[0] for c in ecosts])
            group_of = np.searchsorted(bounds, winner, side="right") - 1
            local = winner - bounds[group_of]
            prev = np.empty((len(winner), len(involved)), dtype=np.int64)
            out_of = np.empty(len(winner), dtype=np.int64)
            by_group = np.argsort(group_of, kind="stable")
            cuts = np.searchsorted(group_of[by_group],
                                   np.arange(len(applied) + 1))
            for g, projections in enumerate(group_projs):
                rows = by_group[cuts[g]:cuts[g + 1]]
                combo, out_of[rows] = np.divmod(local[rows],
                                                len(applied[g][1]))
                stride = 1
                for proj in projections:
                    stride *= proj.full_idx.shape[0]
                for j, proj in enumerate(projections):
                    size = proj.full_idx.shape[0]
                    stride //= size
                    prev[rows, j] = proj.full_idx[(combo // stride) % size]

            step = _Step(vid, tuple(involved_cids),
                         [edges_of_class[cid] for cid in involved_cids],
                         applied)
            new_table = _ArrayTable(
                table_costs, table_keys,
                tuple(tuple(d) for d in key_fmt_codes),
                prev, group_of, out_of, step)
            cls = new_class(new_members, new_table)
            if not new_members:
                completed.append((float(table_costs[0]), (cls.cid, 0)))
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
        annotation = _reconstruct_rows(history, completed, ctx)
    stats.charge_phase("reconstruct", time.perf_counter() - mark)
    elapsed = time.perf_counter() - started
    return make_plan(graph, annotation, ctx, "frontier", elapsed,
                     profile=stats.profile())


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


def _choose_next(graph, unvisited, visited, active, member_class,
                 consumers_left, candidate_counts) -> VertexId:
    """Pick the ready vertex with the smallest :func:`_class_size_key`.

    The key is total and ends in the vertex id, so the sweep order is fully
    deterministic (and in particular identical under every
    ``PYTHONHASHSEED``).
    """
    best_key = None
    best_vid = None
    for vid in unvisited:
        v = graph.vertex(vid)
        if any(p not in visited for p in v.inputs):
            continue
        key = _class_size_key(graph, vid, v, active, member_class,
                              consumers_left, candidate_counts)
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


# ----------------------------------------------------------------------
# Reconstruction along the winning path
# ----------------------------------------------------------------------
def _reconstruct_rows(history: dict[int, _Class],
                      completed: list[tuple[float, tuple[int, int]]],
                      ctx: OptimizerContext) -> Annotation:
    """Walk the integer back-pointers from each completed component's root
    row, resolving the implementation and edge transformations of the one
    row per class on the winning path, depth first from the last completed
    component.  Retired members need no
    resolving: a vertex's stored format is its implementation's output,
    which the annotation already fixes."""
    annotation = Annotation()
    stack = [ref for (_cost, ref) in completed]
    while stack:
        cid, row = stack.pop()
        table: _ArrayTable = history[cid].table
        step = table.step
        if step is None:
            continue  # source class
        in_fmts, outs = step.groups[table.group[row]]
        _out_fmt, (_cost, impl) = outs[table.out[row]]
        annotation.impls[step.vertex] = impl
        for j, prev_cid in enumerate(step.prev_cids):
            prev_row = int(table.prev[row, j])
            prev_table = history[prev_cid].table
            for edge, pos, slot, mtype in step.edges[j]:
                need = in_fmts[pos]
                choices = ctx.transform_choice_vector(
                    mtype, prev_table.slot_fmts[slot], need)
                annotation.transforms[edge] = (
                    choices[prev_table.codes[prev_row, slot]], need)
            stack.append((prev_cid, prev_row))
    return annotation


