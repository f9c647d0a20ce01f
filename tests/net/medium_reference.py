"""The sparse medium's vector tracker update and generator witness, kept
as the oracle for the receiver-indexed update that replaced them.

:class:`ReferenceMedium` is a :class:`~repro.net.medium.Medium` whose
sparse field changes fold into the trackers the old way: scatter the
transmitter's CSR column into a station mask, select every tracked
reception whose receiver the mask hits, and update that subset with
numpy (:func:`update_where`).  Its :meth:`ReferenceMedium.field_error_bound_w`
walks the active set with a generator on every call.  Everything else is
inherited, so a lockstep run against a plain ``Medium`` isolates exactly
the two replaced paths.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.core.reception import TrackerBatch
from repro.net.medium import SELF_COUPLING_GAIN, Medium, Transmission


def update_where(
    batch: TrackerBatch,
    now: float,
    interference_power_w: np.ndarray,
    positions: np.ndarray,
) -> Tuple[int, ...]:
    """Fold new interference levels into a subset of ``batch``'s
    trackers (dense storage ``positions``, one level each); returns the
    tags that failed at this update."""
    touched = positions.size
    if touched == 0:
        return ()
    if interference_power_w.shape != (touched,):
        raise ValueError(f"expected {touched} interference powers")
    denominator = interference_power_w + batch._noise[positions]
    mask = denominator > 0.0
    current = np.full(touched, math.inf)
    np.divide(batch._signal[positions], denominator, out=current, where=mask)
    np.minimum(batch._min_sir[positions], current, out=current)
    batch._min_sir[positions] = current
    newly = (current < batch._threshold[positions]) & np.isnan(
        batch._failed_at[positions]
    )
    if not newly.any():
        return ()
    failed_positions = positions[newly]
    batch._failed_at[failed_positions] = now
    return tuple(batch._tags[int(i)] for i in failed_positions)


class ReferenceMedium(Medium):
    """A medium with the mask-and-vector sparse update and the
    generator witness."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._touched = np.zeros(self.station_count, dtype=bool)

    def field_error_bound_w(self) -> float:
        if self.sparse is None:
            return 0.0
        culled_out_max = self.sparse.culled_out_max
        return float(
            sum(
                tx.power_w * float(culled_out_max[tx.source])
                for tx in self._active.values()
            )
        )

    def _update_attempts_for(self, tx: Transmission) -> None:
        if self.sparse is None:
            self._update_attempts()
            return
        batch = self._trackers
        if batch.count == 0:
            return
        rows, _ = self._column(tx.source)
        touched = self._touched
        touched[rows] = True
        touched[tx.source] = True
        touched[tx.destination] = True
        receivers = batch.receivers
        positions = np.nonzero(touched[receivers])[0]
        touched[rows] = False
        touched[tx.source] = False
        touched[tx.destination] = False
        if positions.size == 0:
            return
        targets = receivers[positions]
        interference = self._interference[targets]
        interference += self._powers[targets] * SELF_COUPLING_GAIN
        interference -= batch.signals[positions]
        np.maximum(interference, 0.0, out=interference)
        if self._sic_models:
            # Untouched receptions saw no field change, so only the
            # touched subset needs its receiver model re-applied.
            local = {int(p): k for k, p in enumerate(positions)}
            for seq, model in self._sic_models.items():
                k = local.get(batch.position(seq))
                if k is not None:
                    interference[k] = self._cancel_for(
                        seq,
                        model,
                        float(batch.signals[positions[k]]),
                        float(interference[k]),
                    )
        for seq in update_where(batch, self.env.now, interference, positions):
            attempt = self._attempts[seq]
            attempt.failure_sources = self._significant_sources(
                attempt.transmission.destination, seq
            )
