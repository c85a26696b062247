"""Optimization context: catalogs + cluster + cost model, with memoization.

Every optimizer (brute force, tree DP, frontier DP) and every baseline
planner works against an :class:`OptimizerContext`, which bundles

* the physical format catalog :math:`\\mathcal{P}`,
* the implementation catalog :math:`\\mathcal{I}`,
* the transformation catalog :math:`\\mathcal{T}`,
* the cluster description and the regression cost model.

The context memoizes implementation typing/costing and transformation
lookup, which is what makes the dynamic programs fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cost.features import CostFeatures
from ..cost.model import CostModel, CostWeights, DEFAULT_WEIGHTS
from ..cluster import DEFAULT_CLUSTER, ClusterConfig
from .atoms import AtomicOp, is_fused
from .formats import DEFAULT_FORMATS, PhysicalFormat
from .implementations import (
    DEFAULT_IMPLEMENTATIONS,
    OpImplementation,
    fused_implementations,
)
from .transforms import (
    DEFAULT_TRANSFORMS,
    FormatTransform,
    find_transform,
    transform_choice_table,
)
from .types import MatrixType

#: (implementation, output format, features, cost-in-seconds)
ImplChoice = tuple[OpImplementation, PhysicalFormat, CostFeatures, float]
#: (transform, features, cost-in-seconds)
TransformChoice = tuple[FormatTransform, CostFeatures, float]


@dataclass
class OptimizerContext:
    """Shared state for one optimization problem instance."""

    cluster: ClusterConfig = DEFAULT_CLUSTER
    formats: tuple[PhysicalFormat, ...] = DEFAULT_FORMATS
    implementations: tuple[OpImplementation, ...] = DEFAULT_IMPLEMENTATIONS
    transforms: tuple[FormatTransform, ...] = DEFAULT_TRANSFORMS
    weights: CostWeights = DEFAULT_WEIGHTS
    #: When False, transformation costs are ignored during search — the
    #: ablation of the paper's key idea (costs are still *incurred* when the
    #: chosen plan is evaluated or executed).
    charge_transforms: bool = True

    def __post_init__(self) -> None:
        self.cost_model = CostModel(self.cluster, self.weights)
        self._impl_cache: dict = {}
        self._transform_cache: dict = {}
        self._transform_vec_cache: dict = {}
        self._impls_by_op: dict[AtomicOp, tuple[OpImplementation, ...]] = {}

    # ------------------------------------------------------------------
    def impls_for(self, op: AtomicOp) -> tuple[OpImplementation, ...]:
        """Catalog implementations with ``i.a == op``.

        Fused atoms (created by the logical rewrite layer) are not part of
        the static catalog; their implementations come from the interned
        fused-implementation registry instead.
        """
        cached = self._impls_by_op.get(op)
        if cached is None:
            cached = tuple(i for i in self.implementations if i.op == op)
            if not cached and is_fused(op):
                cached = fused_implementations(op)
            self._impls_by_op[op] = cached
        return cached

    # ------------------------------------------------------------------
    def impl_choice(
        self,
        impl: OpImplementation,
        in_types: tuple[MatrixType, ...],
        in_formats: tuple[PhysicalFormat, ...],
    ) -> ImplChoice | None:
        """Typed + costed application of ``impl``, or None (⊥) if rejected."""
        key = (impl.name, in_types, in_formats)
        if key in self._impl_cache:
            return self._impl_cache[key]
        out_fmt = impl.output_format(in_types, in_formats, self.cluster)
        if out_fmt is None:
            result = None
        else:
            feats = impl.features(in_types, in_formats, self.cluster)
            cost = self.cost_model.seconds(feats)
            result = None if cost == float("inf") else \
                (impl, out_fmt, feats, cost)
        self._impl_cache[key] = result
        return result

    # ------------------------------------------------------------------
    def transform_choice(
        self,
        mtype: MatrixType,
        src: PhysicalFormat,
        dst: PhysicalFormat,
    ) -> TransformChoice | None:
        """Cheapest catalog transformation from ``src`` to ``dst``."""
        key = (mtype, src, dst)
        if key in self._transform_cache:
            return self._transform_cache[key]
        found = find_transform(mtype, src, dst, self.cluster,
                               self.transforms,
                               cost_of=self.cost_model.seconds)
        if found is None:
            result = None
        else:
            transform, feats = found
            cost = self.cost_model.seconds(feats)
            result = None if cost == float("inf") else \
                (transform, feats, cost)
        self._transform_cache[key] = result
        return result

    def search_transform_cost(self, mtype: MatrixType, src: PhysicalFormat,
                              dst: PhysicalFormat) -> float | None:
        """Transform cost as *seen by the search* (0 under the ablation)."""
        choice = self.transform_choice(mtype, src, dst)
        if choice is None:
            return None
        return choice[2] if self.charge_transforms else 0.0

    def transform_cost_vector(
        self,
        mtype: MatrixType,
        srcs: tuple[PhysicalFormat, ...],
        dst: PhysicalFormat,
    ) -> np.ndarray:
        """Batched :meth:`search_transform_cost` over many source formats.

        Returns a read-only float64 array: entry ``i`` equals
        ``search_transform_cost(mtype, srcs[i], dst)`` with ``None`` encoded
        as ``inf`` (so infeasible states fall out of a vectorized
        ``isfinite`` mask).  Costs come from one batched cost-model
        evaluation (:func:`repro.core.transforms.transform_choice_table`)
        and are bit-identical to the scalar path's.  Memoized per
        ``(mtype, srcs, dst)`` together with :meth:`transform_choice_vector`
        — the vectorized frontier asks once per (class slot, needed format)
        pair per sweep.
        """
        return self._transform_vectors(mtype, srcs, dst)[0]

    def transform_choice_vector(
        self,
        mtype: MatrixType,
        srcs: tuple[PhysicalFormat, ...],
        dst: PhysicalFormat,
    ) -> tuple[FormatTransform | None, ...]:
        """Batched :meth:`transform_choice` transformations: entry ``i`` is
        ``transform_choice(mtype, srcs[i], dst)[0]``, or None where that is
        None.  Indexed like :meth:`transform_cost_vector`, from the same
        catalog lookup."""
        return self._transform_vectors(mtype, srcs, dst)[1]

    def _transform_vectors(self, mtype, srcs, dst):
        key = (mtype, srcs, dst)
        cached = self._transform_vec_cache.get(key)
        if cached is None:
            costs, choices = transform_choice_table(
                mtype, srcs, dst, self.cluster, self.transforms,
                batch_cost=self.cost_model.batch_seconds)
            vec = np.array(costs, dtype=np.float64)
            if not self.charge_transforms:
                vec[np.isfinite(vec)] = 0.0
            vec.setflags(write=False)
            cached = (vec, tuple(choices))
            self._transform_vec_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    def output_candidates(
        self, op: AtomicOp, in_types: tuple[MatrixType, ...],
    ) -> tuple[PhysicalFormat, ...]:
        """All output formats any implementation of ``op`` can produce for
        the given input types, over the context's format catalog.

        This per-vertex candidate pruning never excludes an optimal plan:
        a format no implementation can output can never label the vertex.
        """
        seen: dict[PhysicalFormat, None] = {}
        for impl in self.impls_for(op):
            for _, out in impl.candidate_patterns(in_types, self.formats,
                                                  self.cluster):
                seen.setdefault(out, None)
        return tuple(seen)

    def accepted_patterns(
        self, op: AtomicOp, in_types: tuple[MatrixType, ...],
    ) -> tuple[tuple[OpImplementation, tuple[PhysicalFormat, ...],
                     PhysicalFormat, float], ...]:
        """Every (impl, input formats, output format, cost) tuple accepted by
        some implementation of ``op``.  Memoized: this is the inner loop of
        both dynamic programs."""
        key = (op, in_types)
        if key in self._impl_cache:
            return self._impl_cache[key]
        rows = []
        for impl in self.impls_for(op):
            for in_fmts, _ in impl.candidate_patterns(in_types, self.formats,
                                                      self.cluster):
                choice = self.impl_choice(impl, tuple(in_types), in_fmts)
                if choice is not None:
                    _, out_fmt, _, cost = choice
                    rows.append((impl, in_fmts, out_fmt, cost))
        result = tuple(rows)
        self._impl_cache[key] = result
        return result

    def typed_patterns(
        self, op: AtomicOp, in_types: tuple[MatrixType, ...],
    ) -> tuple[tuple[OpImplementation, tuple[PhysicalFormat, ...],
                     PhysicalFormat, float], ...]:
        """Like :meth:`accepted_patterns`, but *without* the runtime-cost
        feasibility filter: patterns whose execution would exceed worker
        disk/RAM are included with infinite cost.

        Baseline (human/heuristic) planners use this menu — a programmer
        does not know ahead of time that a plan will die from too much
        intermediate data, which is exactly how the paper's hand-written
        plans produced "Fail" entries.
        """
        key = ("typed", op, in_types)
        if key in self._impl_cache:
            return self._impl_cache[key]
        rows = []
        for impl in self.impls_for(op):
            for in_fmts, out_fmt in impl.candidate_patterns(
                    in_types, self.formats, self.cluster):
                feats = impl.features(tuple(in_types), in_fmts, self.cluster)
                cost = self.cost_model.seconds(feats)
                rows.append((impl, in_fmts, out_fmt, cost))
        result = tuple(rows)
        self._impl_cache[key] = result
        return result
