"""Horizon-culled sparse gain field: the metro-scale form of H.

Section 4 escapes the divergent-interference paradox with the radio
horizon: "only stations that are not hidden over the horizon can
contribute to the interference at a receiver".  At metro scale that
observation is also the key to a *computable* medium: a dense ``(M, M)``
gain matrix is 80 GB at 10^5 stations, but each transmitter's over-the-
horizon links are physically zero and its sub-significance links are
negligible, so per-transmitter columns of (receiver, gain) pairs — a
CSR-by-transmitter layout — hold everything the interference field
needs in O(M x neighbourhood) memory.

Two distinct mechanisms shrink a column, with different standing:

* **Horizon culling** (``horizon_m``): links longer than the mutual
  radio horizon are set to *exactly zero*.  This is model physics, not
  an approximation — the paper's Section 4 argument — so it carries no
  error accounting.
* **Significance culling** (``cull_gain``): links weaker than a gain
  threshold are dropped from the stored structure but **accounted**:
  every culled gain is summed per receiver (``culled_in_sum``) and
  maxed per transmitter (``culled_out_max``) during the build.  The
  interference the simulator then under-reports at receiver ``i`` is
  provably at most ``sum_{j active} P_j * g_ij^culled``, which both
  ``culled_in_sum[i] * max_power`` (static, per receiver) and
  ``sum_{j active} P_j * culled_out_max[j]`` (dynamic, maintained by
  the medium) bound from above.  With ``cull_gain == 0`` nothing is
  culled, both accounts are identically zero, and the sparse field is
  *bit-identical* to the dense one: exact zeros are the only dropped
  entries, and adding ``0.0`` to a non-negative float is the identity.

The builder (:meth:`SparseGainField.from_placement`) walks the pairwise
geometry in ``(tile, chunk)`` blocks — column slabs of ``chunk``
transmitters, each taken in row tiles of receivers — so its memory is
O(tile x chunk) beside the output and a million-station scene never
materialises an O(M^2) array.  The row tiles keep ``culled_in_sum``
bit-exact: each receiver's slab row is still one contiguous sum.  Time
stays O(M^2), because the exact culled sum needs every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.propagation.geometry import Placement
from repro.propagation.models import PropagationModel

__all__ = ["SparseGainField", "DEFAULT_CHUNK_COLUMNS"]

#: Default number of transmitter columns per build slab.  It fixes the
#: grouping of the ``culled_in_sum`` additions, so it is part of a
#: scene's identity; the memory a slab costs is set by the row tile.
DEFAULT_CHUNK_COLUMNS = 128

#: Receivers per row tile inside a build slab.  A ``(512, 128)`` float
#: block is 512 KB, so a tile's temporaries stay in cache; 256-1024 time
#: the same.  Tile boundaries move no output bit (see
#: :meth:`SparseGainField.from_placement`).
_ROW_TILE = 512


def _bounding_diagonal(x: np.ndarray, y: np.ndarray) -> float:
    """Diagonal of the placement's bounding box, rounded as the build
    rounds a pair distance.

    Rounding is monotone, so for every pair ``|fl(x_i - x_j)| <=
    fl(x_max - x_min)`` (likewise in y), and squaring, adding and
    ``sqrt`` keep that order: no distance the build computes exceeds the
    value returned here.
    """
    if x.size == 0:
        return 0.0
    width = float(x.max() - x.min())
    height = float(y.max() - y.min())
    return math.sqrt(width * width + height * height)


@dataclass(frozen=True)
class SparseGainField:
    """Power gains stored as per-transmitter CSR columns.

    ``column(j)`` yields the receivers that hear transmitter ``j`` and
    the gains into them — exactly the axpy vector of the medium's
    incremental interference field.  Receiver indices are strictly
    ascending within each column, which makes single-gain lookups a
    binary search and scattered field updates cache-friendly.

    Attributes:
        count: number of stations M.
        indptr: ``(M + 1,)`` int64 column boundaries into ``rows``/``vals``.
        rows: ``(nnz,)`` int32 receiver indices, sorted per column.
        vals: ``(nnz,)`` float64 power gains.
        cull_gain: significance threshold; stored entries satisfy
            ``gain >= cull_gain`` (and ``gain > 0``).
        culled_in_sum: ``(M,)`` per-receiver sum of significance-culled
            gains (the static error account).
        culled_out_max: ``(M,)`` per-transmitter maximum culled gain
            (the dynamic error account).
        horizon_m: mutual radio horizon applied at build time, if any
            (informational; horizon-zeroed links are physics, not error).
        symmetric: whether the underlying matrix is reciprocal
            (``g_ij == g_ji``); required by :meth:`neighbors`.
    """

    count: int
    indptr: np.ndarray
    rows: np.ndarray
    vals: np.ndarray
    cull_gain: float
    culled_in_sum: np.ndarray
    culled_out_max: np.ndarray
    horizon_m: Optional[float] = None
    symmetric: bool = True

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("need at least one station")
        if self.indptr.shape != (self.count + 1,):
            raise ValueError("indptr must have M + 1 entries")
        if self.rows.shape != self.vals.shape:
            raise ValueError("rows and vals must be parallel arrays")
        if int(self.indptr[-1]) != self.rows.size:
            raise ValueError("indptr must end at nnz")
        if self.cull_gain < 0.0:
            raise ValueError("cull gain must be non-negative")
        if self.culled_in_sum.shape != (self.count,):
            raise ValueError("need one culled-in sum per receiver")
        if self.culled_out_max.shape != (self.count,):
            raise ValueError("need one culled-out max per transmitter")

    # -- structure ------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Stored (receiver, transmitter) pairs."""
        return int(self.rows.size)

    @property
    def density(self) -> float:
        """Stored fraction of the off-diagonal dense matrix."""
        off_diagonal = self.count * (self.count - 1)
        if off_diagonal == 0:
            return 0.0
        return self.nnz / off_diagonal

    @property
    def memory_bytes(self) -> int:
        """Bytes held by the CSR arrays (the dense matrix needs 8 M^2)."""
        return int(
            self.indptr.nbytes
            + self.rows.nbytes
            + self.vals.nbytes
            + self.culled_in_sum.nbytes
            + self.culled_out_max.nbytes
        )

    def column_sizes(self) -> np.ndarray:
        """Stored receivers per transmitter (the interferer-set sizes)."""
        return np.diff(self.indptr)

    def column(self, transmitter: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(receivers, gains)`` views for one transmitter's column."""
        if not 0 <= transmitter < self.count:
            raise ValueError("transmitter index out of range")
        lo = int(self.indptr[transmitter])
        hi = int(self.indptr[transmitter + 1])
        return self.rows[lo:hi], self.vals[lo:hi]

    # -- gain queries ---------------------------------------------------

    def gain(self, receiver: int, transmitter: int) -> float:
        """Stored power gain from ``transmitter`` to ``receiver``.

        Culled and over-horizon links read as 0.0, exactly as the
        medium's field arithmetic treats them.
        """
        if receiver == transmitter:
            raise ValueError("self-gain is undefined; Type 3 is handled locally")
        rows, vals = self.column(transmitter)
        position = int(np.searchsorted(rows, receiver))
        if position < rows.size and int(rows[position]) == receiver:
            return float(vals[position])
        return 0.0

    def gather(self, transmitter: int, receivers: np.ndarray) -> np.ndarray:
        """Gains from ``transmitter`` into an array of receivers.

        The sparse analogue of ``gains_columns[transmitter][receivers]``;
        absent entries gather as 0.0.
        """
        rows, vals = self.column(transmitter)
        receivers = np.asarray(receivers)
        positions = np.searchsorted(rows, receivers)
        clipped = np.minimum(positions, max(rows.size - 1, 0))
        if rows.size == 0:
            return np.zeros(receivers.shape)
        found = rows[clipped] == receivers
        out = np.where(found, vals[clipped], 0.0)
        return np.asarray(out, dtype=float)

    def neighbors(self, station: int, min_gain: float) -> np.ndarray:
        """Stations with a stored link to ``station`` of at least
        ``min_gain`` — the CSR form of
        :meth:`repro.propagation.matrix.PropagationMatrix.neighbors`,
        computed from one column without densifying anything.

        Requires a reciprocal matrix (``symmetric=True``): the stations
        ``station`` hears are exactly the stations that hear it.
        """
        if min_gain <= 0.0:
            raise ValueError("minimum gain must be positive")
        if not self.symmetric:
            raise ValueError(
                "neighbor queries need a reciprocal (symmetric) gain field"
            )
        rows, vals = self.column(station)
        return rows[vals >= min_gain].astype(np.intp)

    def received_powers(self, transmit_powers: np.ndarray) -> np.ndarray:
        """Eq. 2 over the sparse structure: ``sum_j g_ij P_j`` per
        receiver, in one pass over the stored entries."""
        powers = np.asarray(transmit_powers, dtype=float)
        if powers.shape != (self.count,):
            raise ValueError(f"expected {self.count} transmit powers")
        if np.any(powers < 0.0):
            raise ValueError("transmit powers must be non-negative")
        per_entry = np.repeat(powers, np.diff(self.indptr))
        return np.bincount(
            self.rows, weights=self.vals * per_entry, minlength=self.count
        )

    def interference_bound_w(self, peak_powers: np.ndarray) -> np.ndarray:
        """Worst-case aggregate interference per receiver, *including*
        the culled mass: the stored Eq. 2 sum at peak powers plus
        ``culled_in_sum * max(peak_powers)``.

        Folding the culled account into the bound is what keeps a
        design calibrated on the sparse field sound: the true dense
        interference can exceed the simulated one by at most the culled
        term, which this bound already charges for.
        """
        peak = np.asarray(peak_powers, dtype=float)
        stored = self.received_powers(peak)
        top = float(peak.max()) if peak.size else 0.0
        return stored + self.culled_in_sum * top

    # -- construction ---------------------------------------------------

    @classmethod
    def from_dense(
        cls,
        gains: np.ndarray,
        cull_gain: float = 0.0,
        horizon_m: Optional[float] = None,
        distances: Optional[np.ndarray] = None,
    ) -> "SparseGainField":
        """Convert a dense gain matrix, culling below ``cull_gain``.

        Args:
            gains: ``(M, M)`` power-gain matrix, zero diagonal.
            cull_gain: significance threshold (0.0 keeps every nonzero
                entry — the bit-identical configuration).
            horizon_m: with ``distances`` given, zero links longer than
                this before culling (physics, not accounted error).
            distances: pairwise distances matching ``gains``.
        """
        gains = np.asarray(gains, dtype=float)
        if gains.ndim != 2 or gains.shape[0] != gains.shape[1]:
            raise ValueError("gain matrix must be square")
        if np.any(gains < 0.0):
            raise ValueError("power gains must be non-negative")
        if cull_gain < 0.0:
            raise ValueError("cull gain must be non-negative")
        if horizon_m is not None:
            if distances is None:
                raise ValueError("horizon culling needs the distance matrix")
            gains = np.where(distances > horizon_m, 0.0, gains)
        count = gains.shape[0]
        positive = gains > 0.0
        np.fill_diagonal(positive, False)
        kept = positive & (gains >= cull_gain)
        culled = positive & ~kept
        culled_gains = np.where(culled, gains, 0.0)
        culled_in_sum = culled_gains.sum(axis=1)
        culled_out_max = culled_gains.max(axis=0)
        # Column-major walk: transpose so nonzero() yields entries
        # grouped by transmitter with ascending receiver index.
        cols, receivers = np.nonzero(kept.T)
        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=count), out=indptr[1:])
        symmetric = bool(np.array_equal(gains, gains.T))
        return cls(
            count=count,
            indptr=indptr,
            rows=receivers.astype(np.int32),
            vals=gains.T[cols, receivers].astype(float),
            cull_gain=float(cull_gain),
            culled_in_sum=culled_in_sum,
            culled_out_max=culled_out_max,
            horizon_m=horizon_m,
            symmetric=symmetric,
        )

    @classmethod
    def from_placement(
        cls,
        placement: Placement,
        model: PropagationModel,
        cull_gain: float = 0.0,
        horizon_m: Optional[float] = None,
        chunk_columns: int = DEFAULT_CHUNK_COLUMNS,
    ) -> "SparseGainField":
        """Cache-blocked build straight from geometry: O(tile x chunk)
        memory, O(M^2) time.

        Transmitters are taken in slabs of ``chunk_columns`` and, inside
        each slab, receivers in row tiles of :data:`_ROW_TILE`.  For
        each tile the distances are formed, mapped through the
        propagation model, horizon-zeroed, and split into kept CSR
        entries plus the two culled accounts; every temporary is one
        ``(tile, chunk)`` block, small enough to stay in cache.

        Time stays O(M^2): ``culled_in_sum`` is the exact sum of every
        culled gain into a receiver, so every pair is evaluated.

        The stored entries (``rows``/``vals``) and ``culled_out_max``
        are bit-identical for every chunk size — each entry's gain is
        computed by the same scalar arithmetic regardless of slab
        boundaries, and the out-max is exact in any order.
        ``culled_in_sum`` accumulates across slabs, so its grouping (and
        hence its last few ulps) follows the chunk size.  It feeds the
        scene calibration through :meth:`interference_bound_w`, so a
        scene is reproducible for one chunk size (the default is fixed
        at :data:`DEFAULT_CHUNK_COLUMNS`).  Row tiles do not move it by
        an ulp: each receiver's slab row is still reduced by one
        contiguous ``sum(axis=1)``, and the slab sums are added in slab
        order.
        """
        if cull_gain < 0.0:
            raise ValueError("cull gain must be non-negative")
        if chunk_columns < 1:
            raise ValueError("need at least one column per chunk")
        positions = placement.positions
        count = placement.count
        x = positions[:, 0]
        y = positions[:, 1]
        # The horizon pass can zero nothing when every pair distance is
        # at most the horizon.  ``_bounding_diagonal`` is an exact upper
        # bound on every computed distance; the 1e-9 margin only makes
        # the skip more conservative.
        horizon_binds = horizon_m is not None and not (
            _bounding_diagonal(x, y) * (1.0 + 1e-9) < horizon_m
        )
        row_pieces = []
        val_pieces = []
        sizes = np.zeros(count, dtype=np.int64)
        culled_in_sum = np.zeros(count)
        culled_out_max = np.zeros(count)
        # Flat scratch for the dx/dy blocks; each tile takes a leading
        # run of it reshaped to (rows, width), which stays C-contiguous.
        block = min(_ROW_TILE, count) * min(chunk_columns, count)
        dx_scratch = np.empty(block)
        dy_scratch = np.empty(block)
        near_field = model.near_field_clamp
        for begin in range(0, count, chunk_columns):
            end = min(begin + chunk_columns, count)
            width = end - begin
            tile_rows = []
            tile_cols = []
            tile_vals = []
            for low in range(0, count, _ROW_TILE):
                high = min(low + _ROW_TILE, count)
                shape = (high - low, width)
                dx = dx_scratch[: shape[0] * width].reshape(shape)
                dy = dy_scratch[: shape[0] * width].reshape(shape)
                np.subtract.outer(x[low:high], x[begin:end], out=dx)
                np.subtract.outer(y[low:high], y[begin:end], out=dy)
                np.multiply(dx, dx, out=dx)
                np.multiply(dy, dy, out=dy)
                distance = np.sqrt(np.add(dx, dy, out=dx), out=dx)
                # ``power_gain`` less its negative-distance check, which a
                # square root cannot trip, and its allocating clamp: the
                # clamp goes into the spent dy tile, so ``distance``
                # stays unclamped for the horizon test.
                clamped = np.maximum(distance, near_field, out=dy)
                gains = np.asarray(model._gain_clamped(clamped), dtype=float)
                # Zero the self-gain diagonal (Type 3 is handled locally).
                first = max(low, begin)
                last = min(high, end)
                if first < last:
                    own = np.arange(first, last)
                    gains[own - low, own - begin] = 0.0
                if horizon_binds:
                    gains[distance > horizon_m] = 0.0
                if cull_gain > 0.0:
                    kept = gains >= cull_gain
                    culled = np.where(kept, 0.0, gains)
                    culled_in_sum[low:high] += culled.sum(axis=1)
                    np.maximum(
                        culled_out_max[begin:end],
                        culled.max(axis=0),
                        out=culled_out_max[begin:end],
                    )
                else:
                    kept = gains > 0.0
                flat = np.flatnonzero(kept)
                receivers, cols = np.divmod(flat, width)
                tile_rows.append(receivers + low)
                tile_cols.append(cols)
                tile_vals.append(gains.ravel()[flat])
            # Tiles arrive in receiver order and each tile's entries in
            # row-major order, so a stable sort by column leaves every
            # column's receivers strictly ascending.  Narrowing the keys
            # lets numpy use its radix sort.
            cols = np.concatenate(tile_cols)
            order = np.argsort(
                cols.astype(np.min_scalar_type(width - 1)), kind="stable"
            )
            sizes[begin:end] = np.bincount(cols, minlength=width)
            row_pieces.append(np.concatenate(tile_rows)[order].astype(np.int32))
            val_pieces.append(np.concatenate(tile_vals)[order])
        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        return cls(
            count=count,
            indptr=indptr,
            rows=(
                np.concatenate(row_pieces)
                if row_pieces
                else np.zeros(0, dtype=np.int32)
            ),
            vals=np.concatenate(val_pieces) if val_pieces else np.zeros(0),
            cull_gain=float(cull_gain),
            culled_in_sum=culled_in_sum,
            culled_out_max=culled_out_max,
            horizon_m=horizon_m,
            symmetric=True,
        )

    def to_dense(self) -> np.ndarray:
        """Dense ``(M, M)`` reconstruction (tests and small scenes only)."""
        dense = np.zeros((self.count, self.count))
        for transmitter in range(self.count):
            rows, vals = self.column(transmitter)
            dense[rows, transmitter] = vals
        return dense
