"""Optimality and agreement tests for the three optimization algorithms.

The key invariant: on any graph where brute force is tractable, the dynamic
programs (tree DP for trees, frontier DP for DAGs) find annotations of
exactly the same optimal cost.
"""

import random

import pytest

from repro.core import (
    ComputeGraph,
    OptimizerContext,
    evaluate,
    matrix,
    optimize,
)
from repro.core.annotation import AnnotationError
from repro.core.atoms import (
    ADD,
    ELEM_MUL,
    MATMUL,
    RELU,
    SUB,
    TRANSPOSE,
)
from repro.core.brute import BruteForceTimeout, optimize_brute
from repro.core.formats import (
    col_strips,
    row_strips,
    single,
    tiles,
)
from repro.core.frontier import FrontierStats, optimize_dag
from repro.core.tree_dp import OptimizationError, optimize_tree
from repro.workloads import dag2_graph

#: A small format catalog keeps brute force tractable in agreement tests.
SMALL_FORMATS = (single(), tiles(1000), tiles(2000), row_strips(1000),
                 col_strips(1000))


def small_ctx(**kwargs) -> OptimizerContext:
    return OptimizerContext(formats=SMALL_FORMATS, **kwargs)


def _random_graph(seed: int, depth: int = 4, tree_only: bool = False):
    """A random well-typed compute graph over square matrices."""
    rng = random.Random(seed)
    g = ComputeGraph()
    n = rng.choice([2000, 3000, 4000])
    pool = [g.add_source(f"S{i}", matrix(n, n),
                         rng.choice([single(), tiles(1000)]))
            for i in range(rng.randint(2, 3))]
    used = set()
    for i in range(depth):
        op = rng.choice([MATMUL, ADD, SUB, ELEM_MUL, RELU, TRANSPOSE])
        if tree_only:
            candidates = [v for v in pool if v not in used]
            if len(candidates) < op.arity:
                op = RELU
                candidates = [v for v in pool if v not in used] or pool[-1:]
            picks = rng.sample(candidates, op.arity)
            used.update(picks)
        else:
            picks = [rng.choice(pool) for _ in range(op.arity)]
        vid = g.add_op(f"v{i}", op, tuple(picks))
        pool.append(vid)
    return g


class TestTreeDP:
    def test_rejects_dags(self):
        g = ComputeGraph()
        a = g.add_source("A", matrix(100, 100), single())
        t = g.add_op("T", TRANSPOSE, (a,))
        g.add_op("S", ADD, (t, t))
        with pytest.raises(OptimizationError):
            optimize_tree(g, small_ctx())

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_on_random_trees(self, seed):
        g = _random_graph(seed, depth=3, tree_only=True)
        if not g.is_tree_shaped():
            pytest.skip("random graph not a tree")
        ctx = small_ctx()
        tree_plan = optimize_tree(g, ctx)
        brute_plan = optimize_brute(g, small_ctx(), timeout_seconds=120)
        assert tree_plan.total_seconds == pytest.approx(
            brute_plan.total_seconds, rel=1e-9)

    def test_plan_is_type_correct(self):
        g = _random_graph(99, depth=4, tree_only=True)
        ctx = small_ctx()
        plan = optimize_tree(g, ctx)
        # evaluate() raises if anything is inconsistent.
        cost = evaluate(g, plan.annotation, ctx)
        assert cost.total_seconds == pytest.approx(plan.total_seconds)


class TestFrontier:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_on_random_dags(self, seed):
        g = _random_graph(seed, depth=3)
        ctx = small_ctx()
        frontier_plan = optimize_dag(g, ctx)
        brute_plan = optimize_brute(g, small_ctx(), timeout_seconds=180)
        assert frontier_plan.total_seconds == pytest.approx(
            brute_plan.total_seconds, rel=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_tree_dp_on_trees(self, seed):
        g = _random_graph(seed + 50, depth=4, tree_only=True)
        if not g.is_tree_shaped():
            pytest.skip("random graph not a tree")
        ctx = small_ctx()
        assert optimize_dag(g, ctx).total_seconds == pytest.approx(
            optimize_tree(g, small_ctx()).total_seconds, rel=1e-9)

    def test_sharing_cheaper_than_duplication(self):
        """F must charge a shared subgraph once (paper Section 6)."""
        g = ComputeGraph()
        a = g.add_source("A", matrix(4000, 4000), single())
        b = g.add_source("B", matrix(4000, 4000), single())
        ab = g.add_op("AB", MATMUL, (a, b))          # expensive, shared
        left = g.add_op("L", RELU, (ab,))
        right = g.add_op("R", TRANSPOSE, (ab,))
        g.add_op("O", ADD, (left, right))
        ctx = small_ctx()
        shared_cost = optimize_dag(g, ctx).total_seconds

        # The same computation with AB duplicated must cost strictly more.
        g2 = ComputeGraph()
        a2 = g2.add_source("A", matrix(4000, 4000), single())
        b2 = g2.add_source("B", matrix(4000, 4000), single())
        ab_l = g2.add_op("AB1", MATMUL, (a2, b2))
        ab_r = g2.add_op("AB2", MATMUL, (a2, b2))
        left2 = g2.add_op("L", RELU, (ab_l,))
        right2 = g2.add_op("R", TRANSPOSE, (ab_r,))
        g2.add_op("O", ADD, (left2, right2))
        dup_cost = optimize_dag(g2, small_ctx()).total_seconds
        assert shared_cost < dup_cost

    def test_beam_never_beats_exact(self):
        g = _random_graph(7, depth=4)
        exact = optimize_dag(g, small_ctx()).total_seconds
        beamed = optimize_dag(g, small_ctx(), max_states=2).total_seconds
        assert beamed >= exact - 1e-9

    def test_stats_populated(self):
        g = _random_graph(3, depth=3)
        stats = FrontierStats()
        optimize_dag(g, small_ctx(), stats=stats)
        assert stats.states_examined > 0
        assert stats.max_class_size >= 1

    def test_multi_edge_vertex(self):
        """A vertex consuming the same producer twice (T1 x T1)."""
        g = ComputeGraph()
        a = g.add_source("A", matrix(2000, 2000), single())
        sq = g.add_op("sq", MATMUL, (a, a))
        g.add_op("quad", MATMUL, (sq, sq))
        plan = optimize_dag(g, small_ctx())
        brute = optimize_brute(g, small_ctx(), timeout_seconds=120)
        assert plan.total_seconds == pytest.approx(brute.total_seconds)


class TestBrute:
    def test_timeout_raises(self):
        g = _random_graph(1, depth=6)
        with pytest.raises(BruteForceTimeout):
            optimize_brute(g, OptimizerContext(), timeout_seconds=0.01)

    def test_no_timeout_by_default_on_tiny_graph(self):
        g = ComputeGraph()
        a = g.add_source("A", matrix(100, 100), single())
        g.add_op("R", RELU, (a,))
        plan = optimize_brute(g, small_ctx())
        assert plan.total_seconds >= 0


class TestFacade:
    def test_auto_picks_tree_for_trees(self):
        g = _random_graph(11, depth=3, tree_only=True)
        if not g.is_tree_shaped():
            pytest.skip("not a tree")
        assert optimize(g, small_ctx()).optimizer == "tree_dp"

    def test_auto_picks_frontier_for_dags(self):
        g = ComputeGraph()
        a = g.add_source("A", matrix(100, 100), single())
        t = g.add_op("T", TRANSPOSE, (a,))
        g.add_op("S", ADD, (t, t))
        assert optimize(g, small_ctx()).optimizer == "frontier"

    def test_unknown_algorithm_rejected(self):
        g = _random_graph(2, depth=2)
        with pytest.raises(ValueError):
            optimize(g, small_ctx(), algorithm="quantum")

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_invalid_max_states_rejected(self, bad):
        """A beam of zero, a negative beam or a non-int beam names the knob
        instead of failing deep inside the sweep (a bogus "no feasible
        annotation", an IndexError or a slicing TypeError)."""
        with pytest.raises(ValueError, match="max_states"):
            optimize(dag2_graph(2), OptimizerContext(),
                     algorithm="frontier", max_states=bad)

    def test_rewrites_typos_rejected_eagerly(self):
        """A mistyped ``rewrites=`` must fail like the other knobs — a
        clean ValueError before any search — not silently plan without
        rewrites or crash with a bare TypeError deep in the pipeline."""
        g = _random_graph(2, depth=2)
        for bad in ("pipelin", "egraf", "ALL"):
            with pytest.raises(ValueError, match="rewrites"):
                optimize(g, small_ctx(), rewrites=bad)
        for bad in (5, True, 3.14):  # non-iterables: formerly a TypeError
            with pytest.raises(ValueError, match="rewrites"):
                optimize(g, small_ctx(), rewrites=bad)
        with pytest.raises(ValueError):  # unknown pass name in an iterable
            optimize(g, small_ctx(), rewrites=("no_such_pass",))

    def test_source_formats_extend_catalog(self):
        """A source loaded in a non-catalog format can be consumed
        directly, without a forced transformation (Section 2.1 example)."""
        g = ComputeGraph()
        a = g.add_source("A", matrix(100, 10_000), row_strips(10))
        b = g.add_source("B", matrix(10_000, 100), col_strips(10))
        g.add_op("AB", MATMUL, (a, b))
        plan = optimize(g, small_ctx())
        impl = next(iter(plan.annotation.impls.values()))
        assert impl.name == "mm_strip_cross"
        for (transform, _dst) in plan.annotation.transforms.values():
            assert transform.name == "identity"


class TestAnnotationValidation:
    def test_wrong_op_implementation_rejected(self):
        from repro.core.implementations import DEFAULT_IMPLEMENTATIONS
        g = ComputeGraph()
        a = g.add_source("A", matrix(100, 100), single())
        r = g.add_op("R", RELU, (a,))
        plan = optimize(g, small_ctx())
        bad = plan.annotation
        bad.impls[r] = next(i for i in DEFAULT_IMPLEMENTATIONS
                            if i.op is not RELU and i.op.arity == 1)
        with pytest.raises(AnnotationError):
            evaluate(g, bad, small_ctx())

    def test_missing_transform_rejected(self):
        g = ComputeGraph()
        a = g.add_source("A", matrix(100, 100), single())
        g.add_op("R", RELU, (a,))
        plan = optimize(g, small_ctx())
        plan.annotation.transforms.clear()
        with pytest.raises(AnnotationError):
            evaluate(g, plan.annotation, small_ctx())
