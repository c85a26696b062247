"""Physical storage of matrices inside the relational engine.

Maps numpy/scipy matrices to and from keyed block relations in every
physical format of the catalog.  Keys are ``(blockRow, blockCol)`` pairs —
the ``tileRow`` / ``tileCol`` attributes of the paper's SQL schemas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..core.formats import Layout, PhysicalFormat
from ..core.types import MatrixType
from ..cluster import ClusterConfig
from .relation import Relation

BlockKey = tuple[int, int]


@dataclass
class StoredMatrix:
    """A matrix stored in the engine under a concrete physical format."""

    mtype: MatrixType
    fmt: PhysicalFormat
    relation: Relation

    @property
    def grid(self) -> tuple[int, int]:
        return self.fmt.grid(self.mtype)


def _block_bounds(extent: int, block: int | None) -> list[tuple[int, int]]:
    """Split ``extent`` into ranges of (up to) ``block``; one range if None."""
    if block is None or block >= extent:
        return [(0, extent)]
    count = math.ceil(extent / block)
    return [(i * block, min((i + 1) * block, extent)) for i in range(count)]


def split(matrix: np.ndarray, mtype: MatrixType, fmt: PhysicalFormat,
          cluster: ClusterConfig) -> StoredMatrix:
    """Store a dense numpy matrix (2-D) in ``fmt``.

    Dense blocks are read-only views of ``matrix`` (after any float64
    conversion), so storing an input costs no second copy of its data.
    """
    dense = np.asarray(matrix, dtype=np.float64)
    if dense.ndim == 1:
        dense = dense.reshape(1, -1)
    if dense.shape != (mtype.rows, mtype.cols):
        raise ValueError(
            f"data shape {dense.shape} does not match type {mtype}")

    rows: dict[BlockKey, object] = {}
    if fmt.layout is Layout.COO:
        # Triples, batched into roughly equal chunks per logical partition.
        r, c = np.nonzero(dense)
        vals = dense[r, c]
        parts = fmt.grid(mtype)[0]
        bounds = np.array_split(np.arange(len(vals)), parts)
        for i, idx in enumerate(bounds):
            rows[(i, 0)] = np.column_stack(
                [r[idx].astype(np.float64), c[idx].astype(np.float64),
                 vals[idx]])
        return StoredMatrix(mtype, fmt, Relation.load(cluster, rows))

    row_block = fmt.block_rows if (fmt.is_row_partitioned or fmt.is_tiled) \
        else None
    col_block = fmt.block_cols if (fmt.is_col_partitioned or fmt.is_tiled) \
        else None
    for i, (r0, r1) in enumerate(_block_bounds(mtype.rows, row_block)):
        for j, (c0, c1) in enumerate(_block_bounds(mtype.cols, col_block)):
            block = dense[r0:r1, c0:c1]
            if fmt.is_sparse:
                rows[(i, j)] = sp.csr_matrix(block)
            else:
                # A read-only view, not a copy: the stored matrix shares
                # the caller's buffer, and no kernel may write through it.
                block.flags.writeable = False
                rows[(i, j)] = block
    return StoredMatrix(mtype, fmt, Relation.load(cluster, rows))


def assemble(stored: StoredMatrix) -> np.ndarray:
    """Gather a stored matrix back into one dense numpy array."""
    mtype, fmt = stored.mtype, stored.fmt
    out = np.zeros((mtype.rows, mtype.cols))
    if fmt.layout is Layout.COO:
        for chunk in stored.relation.rows.values():
            if len(chunk):
                out[chunk[:, 0].astype(int), chunk[:, 1].astype(int)] += \
                    chunk[:, 2]
        return out

    row_block = fmt.block_rows if (fmt.is_row_partitioned or fmt.is_tiled) \
        else None
    col_block = fmt.block_cols if (fmt.is_col_partitioned or fmt.is_tiled) \
        else None
    row_bounds = _block_bounds(mtype.rows, row_block)
    col_bounds = _block_bounds(mtype.cols, col_block)
    for (i, j), block in stored.relation.rows.items():
        r0, r1 = row_bounds[i]
        c0, c1 = col_bounds[j]
        dense = block.toarray() if sp.issparse(block) else block
        out[r0:r1, c0:c1] = dense
    return out


def convert(stored: StoredMatrix, dst: PhysicalFormat,
            cluster: ClusterConfig) -> StoredMatrix:
    """Restructure a stored matrix into another format.

    Data-correct restructure; the *cost* of the conversion is charged by the
    executor from the chosen transformation's analytic features.
    """
    if stored.fmt == dst:
        return stored
    return split(assemble(stored), stored.mtype, dst, cluster)


def infer_format(mtype: MatrixType, keys) -> PhysicalFormat:
    """Infer a block layout from relational result keys (fallback path)."""
    max_i = max(k[0] for k in keys) + 1
    max_j = max(k[1] for k in keys) + 1
    br = math.ceil(mtype.rows / max_i)
    bc = math.ceil(mtype.cols / max_j)
    if max_i == 1 and max_j == 1:
        return PhysicalFormat(Layout.SINGLE)
    return PhysicalFormat(Layout.TILE, block_rows=br, block_cols=bc)


def store_as(relation: Relation, mtype: MatrixType, fmt: PhysicalFormat,
             cluster: ClusterConfig) -> StoredMatrix:
    """Wrap relational output blocks as a stored matrix in ``fmt``.

    Output keys are expected to match the format's grid; payloads are
    re-encoded (dense/sparse) when the format demands it.  When the keys
    do not form the expected grid, the blocks are reassembled through
    storage and re-split (the cost of that restructure is the producing
    stage's to charge).
    """
    expected = fmt.grid(mtype)
    keys = set(relation.rows.keys())
    want = {(i, j) for i in range(expected[0]) for j in range(expected[1])}
    if keys != want:
        tmp = StoredMatrix(mtype, infer_format(mtype, keys), relation)
        return split(assemble(tmp), mtype, fmt, cluster)
    rows = {}
    for key, payload in relation.rows.items():
        if fmt.is_sparse and not sp.issparse(payload):
            rows[key] = sp.csr_matrix(payload)
        elif not fmt.is_sparse and sp.issparse(payload):
            rows[key] = payload.toarray()
        else:
            rows[key] = payload
    return StoredMatrix(mtype, fmt, Relation(cluster, rows, relation.home))
