"""Test-only oracle: the (M, chunk) slab build of the sparse gain field.

This is the streaming builder :meth:`SparseGainField.from_placement`
used before it was cache-blocked, kept verbatim so the blocked build can
be checked against it byte for byte.
"""

from typing import Optional

import numpy as np

from repro.propagation.geometry import Placement
from repro.propagation.models import PropagationModel
from repro.propagation.sparse import DEFAULT_CHUNK_COLUMNS, SparseGainField


def reference_from_placement(
    placement: Placement,
    model: PropagationModel,
    cull_gain: float = 0.0,
    horizon_m: Optional[float] = None,
    chunk_columns: int = DEFAULT_CHUNK_COLUMNS,
) -> SparseGainField:
    """Slab-by-slab build: each slab is a full ``(M, chunk)`` block."""
    positions = placement.positions
    count = placement.count
    x = positions[:, 0]
    y = positions[:, 1]
    row_pieces = []
    val_pieces = []
    sizes = np.zeros(count, dtype=np.int64)
    culled_in_sum = np.zeros(count)
    culled_out_max = np.zeros(count)
    for begin in range(0, count, chunk_columns):
        end = min(begin + chunk_columns, count)
        width = end - begin
        dx = x[:, None] - x[None, begin:end]
        dy = y[:, None] - y[None, begin:end]
        distance = np.sqrt(dx * dx + dy * dy)
        gains = np.asarray(model.power_gain(distance), dtype=float)
        gains[np.arange(begin, end), np.arange(width)] = 0.0
        if horizon_m is not None:
            gains[distance > horizon_m] = 0.0
        positive = gains > 0.0
        kept = positive & (gains >= cull_gain)
        culled_gains = np.where(positive & ~kept, gains, 0.0)
        culled_in_sum += culled_gains.sum(axis=1)
        culled_out_max[begin:end] = culled_gains.max(axis=0)
        cols, receivers = np.nonzero(kept.T)
        sizes[begin:end] = np.bincount(cols, minlength=width)
        row_pieces.append(receivers.astype(np.int32))
        val_pieces.append(gains.T[cols, receivers])
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return SparseGainField(
        count=count,
        indptr=indptr,
        rows=np.concatenate(row_pieces),
        vals=np.concatenate(val_pieces),
        cull_gain=float(cull_gain),
        culled_in_sum=culled_in_sum,
        culled_out_max=culled_out_max,
        horizon_m=horizon_m,
        symmetric=True,
    )


def byte_mismatches(field: SparseGainField, other: SparseGainField) -> list:
    """Names of the five build arrays whose bytes differ (dtype included)."""
    mismatched = []
    for name in ("indptr", "rows", "vals", "culled_in_sum", "culled_out_max"):
        a = getattr(field, name)
        b = getattr(other, name)
        if a.dtype != b.dtype or a.shape != b.shape:
            mismatched.append(name)
        elif a.dtype == np.float64:
            if not np.array_equal(a.view(np.int64), b.view(np.int64)):
                mismatched.append(name)
        elif not np.array_equal(a, b):
            mismatched.append(name)
    return mismatched
