"""Physical matrix transformations (the set :math:`\\mathcal{T}`).

Transformations move a matrix from one physical implementation to another
(paper Section 3), letting the optimizer chain operator implementations
whose output and input formats do not match.  Each transformation has a
type-specification function — here :meth:`FormatTransform.can_convert` plus
the destination passed explicitly — and a cost-feature function.

The default catalog :data:`DEFAULT_TRANSFORMS` has 20 entries, matching the
paper's prototype inventory ("20 different physical matrix transformations",
Section 8.1).  Entries are *families*: e.g. ``single_to_row_strips`` covers
every strip height; the concrete destination format is part of the chosen
annotation, exactly as a concrete tile size is in the paper's SQL examples.

Only a single transformation may be applied per edge (no multi-hop chains),
mirroring the paper's problem definition.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

from ..cost.features import CostFeatures, ZERO_FEATURES
from ..cluster import ClusterConfig
from .formats import Layout, PhysicalFormat
from .types import MatrixType


class FormatTransform(ABC):
    """One family of physical matrix transformations."""

    #: Unique name within the catalog.
    name: str

    def __init__(self, name: str) -> None:
        self.name = name

    @abstractmethod
    def can_convert(self, mtype: MatrixType, src: PhysicalFormat,
                    dst: PhysicalFormat) -> bool:
        """Whether this family converts ``src`` to ``dst`` for ``mtype``.

        Callers guarantee ``src.admits(mtype)`` and ``dst.admits(mtype)``.
        """

    @abstractmethod
    def features(self, mtype: MatrixType, src: PhysicalFormat,
                 dst: PhysicalFormat, cluster: ClusterConfig) -> CostFeatures:
        """Cost features of performing the conversion."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<transform {self.name}>"


def _share(total_bytes: float, cluster: ClusterConfig) -> float:
    return 1.5 * total_bytes / cluster.num_workers


# ----------------------------------------------------------------------
# Identity
# ----------------------------------------------------------------------
class Identity(FormatTransform):
    """No-op transformation: formats already match."""

    def __init__(self) -> None:
        super().__init__("identity")

    def can_convert(self, mtype, src, dst):
        return src == dst

    def features(self, mtype, src, dst, cluster):
        return ZERO_FEATURES


IDENTITY = Identity()


# ----------------------------------------------------------------------
# Single <-> partitioned (dense)
# ----------------------------------------------------------------------
class SingleToBlocked(FormatTransform):
    """Split a single-tuple matrix into strips or tiles and scatter them."""

    def __init__(self, name: str, dst_layout: Layout) -> None:
        super().__init__(name)
        self._dst_layout = dst_layout

    def can_convert(self, mtype, src, dst):
        return src.layout is Layout.SINGLE and dst.layout is self._dst_layout

    def features(self, mtype, src, dst, cluster):
        stored = mtype.dense_bytes
        return CostFeatures(
            flops=0.0, network_bytes=stored, intermediate_bytes=stored,
            tuples=1.0 + dst.tuple_count(mtype), output_bytes=stored,
            max_worker_bytes=stored + dst.max_tuple_bytes(mtype),
            spill_bytes=_share(stored, cluster))


class BlockedToSingle(FormatTransform):
    """Aggregate strips into one tuple (the paper's ROWMATRIX / COLMATRIX
    aggregates) — all data converges on a single worker."""

    def __init__(self, name: str, src_layout: Layout) -> None:
        super().__init__(name)
        self._src_layout = src_layout

    def can_convert(self, mtype, src, dst):
        return src.layout is self._src_layout and dst.layout is Layout.SINGLE

    def features(self, mtype, src, dst, cluster):
        # The whole matrix is assembled on one worker: genuinely RAM-bound.
        stored = mtype.dense_bytes
        return CostFeatures(
            flops=0.0, network_bytes=stored, intermediate_bytes=stored,
            tuples=src.tuple_count(mtype) + 1.0, output_bytes=stored,
            max_worker_bytes=2.0 * stored,
            spill_bytes=_share(stored, cluster))


class TilesToSingle(FormatTransform):
    """Two-phase aggregation of tiles into one tuple: tiles are first merged
    into row strips (ROWMATRIX), then the strips into the single matrix
    (COLMATRIX) — the expensive transform of Fig 1, Implementation 1/2."""

    def __init__(self) -> None:
        super().__init__("tiles_to_single")

    def can_convert(self, mtype, src, dst):
        return src.layout is Layout.TILE and dst.layout is Layout.SINGLE

    def features(self, mtype, src, dst, cluster):
        stored = mtype.dense_bytes
        gr, gc = src.grid(mtype)
        return CostFeatures(
            flops=0.0, network_bytes=2.0 * stored,
            intermediate_bytes=2.0 * stored,
            tuples=src.tuple_count(mtype) + gr + 1.0, output_bytes=stored,
            max_worker_bytes=2.0 * stored,
            spill_bytes=_share(2.0 * stored, cluster))


# ----------------------------------------------------------------------
# Repartitioning among blocked dense formats
# ----------------------------------------------------------------------
class Reblock(FormatTransform):
    """Shuffle-based repartitioning between blocked dense layouts
    (retile, restrip, tiles<->strips, row<->column strips)."""

    def __init__(self, name: str, src_layout: Layout, dst_layout: Layout,
                 merge_to_one_worker: bool = False) -> None:
        super().__init__(name)
        self._src_layout = src_layout
        self._dst_layout = dst_layout
        self._merge = merge_to_one_worker

    def can_convert(self, mtype, src, dst):
        if src.layout is not self._src_layout:
            return False
        if dst.layout is not self._dst_layout:
            return False
        return src != dst

    def features(self, mtype, src, dst, cluster):
        stored = mtype.dense_bytes
        tuples = src.tuple_count(mtype) + dst.tuple_count(mtype)
        # Each destination tuple assembles in RAM; both representations
        # stream through worker disk.
        resident = 2.0 * dst.max_tuple_bytes(mtype) \
            + src.max_tuple_bytes(mtype)
        return CostFeatures(
            flops=0.0, network_bytes=stored, intermediate_bytes=stored,
            tuples=tuples, output_bytes=stored, max_worker_bytes=resident,
            spill_bytes=_share(2.0 * stored, cluster))


# ----------------------------------------------------------------------
# Dense <-> sparse
# ----------------------------------------------------------------------
#: Dense counterpart layout for each sparse layout (and the reverse map).
_DENSE_OF_SPARSE = {
    Layout.SPARSE_SINGLE: Layout.SINGLE,
    Layout.CSR_STRIP: Layout.ROW_STRIP,
    Layout.CSC_STRIP: Layout.COL_STRIP,
    Layout.SPARSE_TILE: Layout.TILE,
    Layout.COO: Layout.TILE,
}


def _compatible_blocking(a: PhysicalFormat, b: PhysicalFormat) -> bool:
    """Same strip height / tile extents where both define them."""
    if a.block_rows is not None and b.block_rows is not None \
            and a.block_rows != b.block_rows:
        return False
    if a.block_cols is not None and b.block_cols is not None \
            and a.block_cols != b.block_cols:
        return False
    return True


class DensifySingle(FormatTransform):
    """sparse-single -> dense single, expanded locally on one worker."""

    def __init__(self) -> None:
        super().__init__("densify_single")

    def can_convert(self, mtype, src, dst):
        return (src.layout is Layout.SPARSE_SINGLE
                and dst.layout is Layout.SINGLE)

    def features(self, mtype, src, dst, cluster):
        dense = mtype.dense_bytes
        return CostFeatures(
            flops=float(mtype.entries), network_bytes=0.0,
            intermediate_bytes=0.0, tuples=2.0, output_bytes=dense,
            max_worker_bytes=src.stored_bytes(mtype) + dense)


class DensifyBlocked(FormatTransform):
    """Any partitioned sparse layout -> its dense counterpart (per-block
    expansion; COO additionally shuffles triples into tile buckets)."""

    def __init__(self) -> None:
        super().__init__("densify_blocked")

    def can_convert(self, mtype, src, dst):
        if not src.is_sparse or src.layout is Layout.SPARSE_SINGLE:
            return False
        if dst.layout is not _DENSE_OF_SPARSE[src.layout]:
            return False
        if src.layout is Layout.COO:
            return dst.layout is Layout.TILE
        return _compatible_blocking(src, dst)

    def features(self, mtype, src, dst, cluster):
        dense = mtype.dense_bytes
        net = src.stored_bytes(mtype) if src.layout is Layout.COO else 0.0
        tuples = src.tuple_count(mtype) + dst.tuple_count(mtype)
        return CostFeatures(
            flops=float(mtype.entries), network_bytes=net,
            intermediate_bytes=0.0, tuples=tuples, output_bytes=dense,
            max_worker_bytes=src.max_tuple_bytes(mtype)
            + dst.max_tuple_bytes(mtype),
            spill_bytes=_share(src.stored_bytes(mtype) + dense, cluster))


class Sparsify(FormatTransform):
    """Dense layout -> matching sparse layout (per-block compression; the
    destination COO case shuffles triples by partition)."""

    def __init__(self) -> None:
        super().__init__("sparsify")

    def can_convert(self, mtype, src, dst):
        if src.is_sparse or not dst.is_sparse:
            return False
        if dst.layout is Layout.COO:
            return src.layout in (Layout.TILE, Layout.ROW_STRIP,
                                  Layout.COL_STRIP, Layout.SINGLE)
        if _DENSE_OF_SPARSE[dst.layout] is not src.layout:
            return False
        return _compatible_blocking(src, dst)

    def features(self, mtype, src, dst, cluster):
        sparse = dst.stored_bytes(mtype)
        net = sparse if dst.layout is Layout.COO else 0.0
        tuples = src.tuple_count(mtype) + dst.tuple_count(mtype)
        return CostFeatures(
            flops=float(mtype.entries), network_bytes=net,
            intermediate_bytes=0.0, tuples=tuples, output_bytes=sparse,
            max_worker_bytes=src.max_tuple_bytes(mtype)
            + dst.max_tuple_bytes(mtype),
            spill_bytes=_share(mtype.dense_bytes + sparse, cluster))


class SparseShuffle(FormatTransform):
    """Repartitioning between sparse layouts (e.g. COO -> CSR strips):
    shuffles only the non-zero payload."""

    def __init__(self) -> None:
        super().__init__("sparse_shuffle")

    def can_convert(self, mtype, src, dst):
        return src.is_sparse and dst.is_sparse and src != dst

    def features(self, mtype, src, dst, cluster):
        stored = src.stored_bytes(mtype)
        tuples = src.tuple_count(mtype) + dst.tuple_count(mtype)
        resident = src.max_tuple_bytes(mtype) \
            + 2.0 * dst.max_tuple_bytes(mtype)
        return CostFeatures(
            flops=float(mtype.nnz), network_bytes=stored,
            intermediate_bytes=stored, tuples=tuples, output_bytes=stored,
            max_worker_bytes=resident,
            spill_bytes=_share(2.0 * stored, cluster))


# ----------------------------------------------------------------------
# The 20-entry catalog
# ----------------------------------------------------------------------
DEFAULT_TRANSFORMS: tuple[FormatTransform, ...] = (
    IDENTITY,                                                           # 1
    SingleToBlocked("single_to_row_strips", Layout.ROW_STRIP),          # 2
    SingleToBlocked("single_to_col_strips", Layout.COL_STRIP),          # 3
    SingleToBlocked("single_to_tiles", Layout.TILE),                    # 4
    BlockedToSingle("row_strips_to_single", Layout.ROW_STRIP),          # 5
    BlockedToSingle("col_strips_to_single", Layout.COL_STRIP),          # 6
    TilesToSingle(),                                                    # 7
    Reblock("tiles_to_row_strips", Layout.TILE, Layout.ROW_STRIP),      # 8
    Reblock("tiles_to_col_strips", Layout.TILE, Layout.COL_STRIP),      # 9
    Reblock("row_strips_to_tiles", Layout.ROW_STRIP, Layout.TILE),      # 10
    Reblock("col_strips_to_tiles", Layout.COL_STRIP, Layout.TILE),      # 11
    Reblock("restrip_rows", Layout.ROW_STRIP, Layout.ROW_STRIP),        # 12
    Reblock("restrip_cols", Layout.COL_STRIP, Layout.COL_STRIP),        # 13
    Reblock("retile", Layout.TILE, Layout.TILE),                        # 14
    Reblock("row_to_col_strips", Layout.ROW_STRIP, Layout.COL_STRIP),   # 15
    Reblock("col_to_row_strips", Layout.COL_STRIP, Layout.ROW_STRIP),   # 16
    DensifySingle(),                                                    # 17
    DensifyBlocked(),                                                   # 18
    Sparsify(),                                                         # 19
    SparseShuffle(),                                                    # 20
)


def find_transform(
    mtype: MatrixType,
    src: PhysicalFormat,
    dst: PhysicalFormat,
    cluster: ClusterConfig,
    catalog: Sequence[FormatTransform] = DEFAULT_TRANSFORMS,
    cost_of: "callable | None" = None,
) -> tuple[FormatTransform, CostFeatures] | None:
    """The cheapest single transformation converting ``src`` to ``dst``.

    Returns ``None`` (the paper's ⊥) when no catalog entry applies — for
    example when ``dst`` does not admit ``mtype``.  ``cost_of`` maps
    :class:`CostFeatures` to a scalar; when omitted, total moved bytes break
    ties (sufficient because families rarely overlap).
    """
    if not (src.admits(mtype) and dst.admits(mtype)):
        return None
    best: tuple[FormatTransform, CostFeatures] | None = None
    best_cost = float("inf")
    for transform in catalog:
        if not transform.can_convert(mtype, src, dst):
            continue
        feats = transform.features(mtype, src, dst, cluster)
        cost = cost_of(feats) if cost_of is not None else (
            feats.network_bytes + feats.intermediate_bytes + feats.flops)
        if cost < best_cost:
            best, best_cost = (transform, feats), cost
    return best


def transform_choice_table(
    mtype: MatrixType,
    srcs: Sequence[PhysicalFormat],
    dst: PhysicalFormat,
    cluster: ClusterConfig,
    catalog: Sequence[FormatTransform] = DEFAULT_TRANSFORMS,
    batch_cost: "callable | None" = None,
) -> "tuple[list[float], list[FormatTransform | None]]":
    """Cheapest transformation, and its cost, from each of ``srcs`` to ``dst``.

    The array-oriented counterpart of :func:`find_transform`, used by the
    vectorized frontier: instead of costing one ``(src, dst)`` pair at a
    time, every applicable ``(catalog entry, src)`` pair is costed in one
    batched cost-model evaluation (``batch_cost`` maps a list of
    :class:`CostFeatures` to an array of seconds — pass
    :meth:`repro.cost.CostModel.batch_seconds`).

    Returns one cost and one transformation per source format: ``math.inf``
    and ``None`` where no catalog entry applies or every applicable entry is
    infeasible — exactly the cases where :func:`find_transform` (with the
    same cost function) returns ``None`` or an infeasible winner.  Selection
    uses the same strict-``<`` first-wins rule over the same catalog order,
    so the returned minima and winners are bit-identical to the scalar
    path's.
    """
    n = len(srcs)
    costs = [math.inf] * n
    choices: list[FormatTransform | None] = [None] * n
    if not dst.admits(mtype):
        return costs, choices
    feats: list[CostFeatures] = []
    owner: list[tuple[int, FormatTransform]] = []
    for i, src in enumerate(srcs):
        if not src.admits(mtype):
            continue
        for transform in catalog:
            if transform.can_convert(mtype, src, dst):
                feats.append(transform.features(mtype, src, dst, cluster))
                owner.append((i, transform))
    if not feats:
        return costs, choices
    if batch_cost is not None:
        seconds = batch_cost(feats)
    else:
        seconds = [f.network_bytes + f.intermediate_bytes + f.flops
                   for f in feats]
    for (i, transform), cost in zip(owner, seconds):
        if cost < costs[i]:
            costs[i] = float(cost)
            choices[i] = transform
    return costs, choices
