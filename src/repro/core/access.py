"""The collision-free channel access scheme (Section 7).

The scheme in one sentence: every station publishes a pseudo-random
transmit/receive schedule reckoned by its own free-running clock, and a
sender "will compare its own schedule with the receiving station's
schedule and send the packet during a time when one of its own transmit
windows overlaps with a receive window of the receiving station enough
to handle the packet length".

This module implements the sender-side computation:

* :class:`ScheduleView` — a station's schedule windows mapped into
  global simulation time, either exactly (its own clock) or through a
  :class:`~repro.clock.sync.NeighborClockModel` (how a sender sees a
  neighbour's schedule);
* :func:`find_transmit_window` — the overlap search, including the
  Section 7.3 extension: intervals that fall inside the receive windows
  of *other* near neighbours that the transmission would significantly
  interfere with can be excluded ("each must refrain from transmitting
  in a manner that interferes excessively with the receptions at its
  neighbor").

Because the receive windows a station publishes are a *commitment to
listen*, a sender that transmits only inside such an overlap can never
cause a Type 3 collision at the addressee; Type 2 is absorbed by the
receiver's despreader bank; and the Section 7.3 exclusion plus the
spread-spectrum interference budget remove Type 1 losses.  No
transmission beyond the data packet itself is needed at any hop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.clock.clock import Clock
from repro.clock.sync import NeighborClockModel
from repro.core.intervals import Interval
from repro.core.schedule import Schedule

__all__ = [
    "ScheduleView",
    "NoTransmitWindowError",
    "find_transmit_window",
    "DEFAULT_SEARCH_SLOTS",
]

DEFAULT_SEARCH_SLOTS = 10_000
"""Default search horizon, in slots, before giving up on a neighbour."""


class NoTransmitWindowError(RuntimeError):
    """No suitable overlap exists within the search horizon.

    With independent pseudo-random schedules this is vanishingly rare
    (the expected wait is ~1/(p(1-p)) slots); it signals either a
    degenerate schedule parameter or clocks so close that the schedules
    are correlated (Section 7.1's "unfortunate phase offsets").
    """


class _NeighborMapping:
    """A neighbour view's clock mappings.

    The arithmetic of :meth:`Clock.reading`/:meth:`Clock.true_time`
    composed with :meth:`NeighborClockModel.predict_neighbor_reading`/
    :meth:`NeighborClockModel.own_reading_for`, in the same order, from
    constants: the sender's clock is captured once, the model's
    coefficients when it is fitted and again whenever its
    ``fit_version`` moves (a rendezvous sample or a reset).
    """

    __slots__ = ("_model", "_offset", "_rate", "_fit_version", "_intercept", "_slope")

    def __init__(self, own_clock: Clock, model: NeighborClockModel) -> None:
        self._model = model
        self._offset = own_clock.offset
        self._rate = own_clock.rate
        self._fit_version = -1
        self._intercept = 0.0
        self._slope = 0.0

    def _refit(self) -> None:
        model = self._model
        self._intercept = model.reading_offset
        self._slope = model.relative_rate
        self._fit_version = model.fit_version

    def to_local(self, global_time: float) -> float:
        if self._model.fit_version != self._fit_version:
            self._refit()
        return self._intercept + self._slope * (self._offset + self._rate * global_time)

    def to_global(self, neighbor_local: float) -> float:
        if self._model.fit_version != self._fit_version:
            self._refit()
        slope = self._slope
        if slope <= 0.0:
            raise RuntimeError("fitted model is not invertible (slope <= 0)")
        return ((neighbor_local - self._intercept) / slope - self._offset) / self._rate


@dataclass(frozen=True)
class ScheduleView:
    """A station's schedule windows expressed in global time.

    Attributes:
        schedule: the (shared) schedule function.
        to_global: maps the station's local clock reading to global time.
        to_local: maps global time to the station's local clock reading.

    For the sender's own schedule the mappings come straight from its
    clock; for a neighbour they are composed with the sender's fitted
    clock model, so any model error shows up as window misalignment —
    which the ``guard`` margin in :func:`find_transmit_window` absorbs.
    """

    schedule: Schedule
    to_global: Callable[[float], float]
    to_local: Callable[[float], float]

    @classmethod
    def own(cls, schedule: Schedule, clock: Clock) -> "ScheduleView":
        """The view a station has of its own schedule (exact).

        The mappings are :meth:`Clock.reading` and :meth:`Clock.true_time`
        with the clock's constants captured once: the same arithmetic in
        the same order, without a method call and a property per call.
        """
        offset = clock.offset
        rate = clock.rate

        def to_local(global_time: float) -> float:
            return offset + rate * global_time

        def to_global(reading: float) -> float:
            return (reading - offset) / rate

        return cls(schedule, to_global, to_local)

    @classmethod
    def of_neighbor(
        cls,
        schedule: Schedule,
        own_clock: Clock,
        model: NeighborClockModel,
    ) -> "ScheduleView":
        """A sender's view of a neighbour's schedule via its clock model.

        Global time converts to the neighbour's estimated local time by
        going through the sender's own clock and the fitted affine
        relation between the two clocks (:class:`_NeighborMapping`).
        """
        mapping = _NeighborMapping(own_clock, model)
        return cls(schedule, mapping.to_global, mapping.to_local)

    def _windows_global(
        self, from_global: float, receive: bool
    ) -> Iterator[Interval]:
        start_local = self.to_local(from_global)
        for lo, hi in self.schedule.windows(start_local, receive=receive):
            yield (self.to_global(lo), self.to_global(hi))

    def transmit_windows(self, from_global: float) -> Iterator[Interval]:
        """Merged transmit windows in global time, from ``from_global``."""
        return self._windows_global(from_global, receive=False)

    def receive_windows(self, from_global: float) -> Iterator[Interval]:
        """Merged receive windows in global time, from ``from_global``."""
        return self._windows_global(from_global, receive=True)

    def is_receiving_at(self, global_time: float) -> bool:
        """Whether this station is committed to listen at ``global_time``."""
        return self.schedule.is_receiving_at(self.to_local(global_time))


def _bounded_windows(
    view: ScheduleView,
    from_global: float,
    receive: bool,
    guard: float,
    horizon: float,
    offset: float = 0.0,
) -> Iterator[Interval]:
    """One schedule view's windows mapped to global time, shifted by
    ``offset``, shrunk by ``guard`` at both ends (windows no longer than
    ``2 * guard`` are dropped; a negative ``guard`` grows them), and
    terminated at ``horizon``.

    The run-finding of :meth:`Schedule.windows` and the mapping of
    :meth:`ScheduleView.transmit_windows` are inlined, so the stream
    costs one generator resume per window.  The stream ends before the
    first surviving window whose shrunk start is at or beyond
    ``horizon``.
    """
    schedule = view.schedule
    to_global = view.to_global
    start_local = view.to_local(from_global)
    # Inlined Schedule.windows run-finding (same floats, no nested
    # generator): merged maximal runs of the wanted designation.
    find = schedule._find_designation
    slot_time = schedule.slot_time
    want = 1 if receive else 0
    other = 1 - want
    double_guard = 2.0 * guard
    index = schedule.slot_index(start_local)
    while True:
        run_start = find(index, want)
        run_end = find(run_start + 1, other)
        window_end = run_end * slot_time
        if window_end > start_local:
            lo = to_global(max(run_start * slot_time, start_local))
            hi = to_global(window_end)
            if offset != 0.0:
                lo += offset
                hi += offset
            if hi - lo > double_guard:
                lo += guard
                if lo >= horizon:
                    return
                yield (lo, hi - guard)
        index = run_end + 1


def _first_fit(
    a: Iterator[Interval],
    b: Iterator[Interval],
    holes: Sequence[Iterator[Interval]],
    duration: float,
    not_before: float,
) -> Optional[Interval]:
    """The first ``duration``-long interval at or after ``not_before``
    inside one piece of ``intersect(a, b)`` minus every hole stream.

    Equal to ``first_fitting`` over ``intersect`` followed by one
    ``subtract`` per hole stream (:mod:`repro.core.intervals`), in one
    loop: the pieces have the same end points and take the same fit
    test in the same order.  Holes of one stream must be ordered by
    both ends; they may overlap, as grown windows do.  An overlap that
    cannot hold the burst before any hole is cut out of it is passed
    over at once, since cutting only shortens it.
    """
    heads = [next(hole_stream, None) for hole_stream in holes]
    current_a = next(a, None)
    current_b = next(b, None)
    while current_a is not None and current_b is not None:
        start = max(current_a[0], current_b[0])
        end = min(current_a[1], current_b[1])
        if start < end and end - max(start, not_before) >= duration:
            if not heads:
                candidate = max(start, not_before)
                return (candidate, candidate + duration)
            # Walk the overlap's pieces between the holes, in order.
            cursor = start
            while True:
                hole_lo = hole_hi = end
                for position, hole in enumerate(heads):
                    while hole is not None and hole[1] <= cursor:
                        hole = next(holes[position], None)
                    heads[position] = hole
                    if hole is not None and hole[0] < hole_lo:
                        hole_lo, hole_hi = hole
                if hole_lo > cursor:
                    candidate = max(cursor, not_before)
                    if hole_lo - candidate >= duration:
                        return (candidate, candidate + duration)
                if hole_hi >= end:
                    break
                cursor = max(cursor, hole_hi)
        # Advance whichever interval ends first.
        if current_a[1] <= current_b[1]:
            current_a = next(a, None)
        else:
            current_b = next(b, None)
    return None


def _clip_bound(view: ScheduleView, now: float, guard: float, offset: float) -> float:
    """Where a search from ``now`` lets ``view``'s first window start:
    ``now`` mapped to the view's clock and back, shifted by ``offset``
    and shrunk by ``guard`` -- the arithmetic of :func:`_bounded_windows`."""
    clipped = view.to_global(view.to_local(now))
    if offset != 0.0:
        clipped += offset
    return clipped + guard


def _reuse_until(
    window: Interval,
    searched_at: float,
    sender: ScheduleView,
    receiver: ScheduleView,
    guard: float,
    propagation_delay: float,
) -> float:
    """The latest ``now`` up to which a search with the same arguments
    returns ``window`` again, as far as the sender and the receiver are
    concerned.

    A later search differs from the one made at ``searched_at`` in
    where each stream is clipped (its first window starts at
    :func:`_clip_bound`), in a later horizon, and in the protected
    windows that have ended (see :func:`_protected_unchanged`).  The
    horizon only adds windows after the found one, and clipping only
    removes time, so the window stays first while its start is at or
    after both clip bounds.  The ``+ guard`` matters: the clipped
    first window is shrunk too, so a start within one guard of ``now``
    is no longer allowed.  Both bounds grow with ``now`` (every mapping
    is monotone), so a ``now`` at which they hold vouches for every
    earlier one; the candidates tried are ``start - guard`` and two
    slightly earlier times that absorb the mappings' rounding.
    """
    start = window[0]
    offset = -propagation_delay
    slot_time = sender.schedule.slot_time
    for margin in (0.0, slot_time * 1e-9, slot_time * 1e-6):
        now = start - guard - margin
        if now <= searched_at:
            break
        if start >= _clip_bound(sender, now, guard, 0.0) and start >= _clip_bound(
            receiver, now, guard, offset
        ):
            return now
    # The search itself started every stream at its clip bound, so the
    # window it found satisfies both at ``searched_at``.
    return searched_at


def _first_receive_ends(
    avoid: Sequence[ScheduleView], searched_at: float
) -> Tuple[float, ...]:
    """For each view in ``avoid``, the local end of the first receive
    window a search from ``searched_at`` cuts out of it (the first
    window of :meth:`Schedule.receive_windows` from that instant)."""
    return tuple(
        next(view.schedule.receive_windows(view.to_local(searched_at)))[1]
        for view in avoid
    )


def _protected_unchanged(
    now: float,
    duration: float,
    sender: ScheduleView,
    receiver: ScheduleView,
    avoid: Sequence[ScheduleView],
    receive_ends: Sequence[float],
    guard: float,
    propagation_delay: float,
) -> bool:
    """Whether the protected windows of ``avoid`` that a search at
    ``now`` no longer sees leave the window found by an earlier search
    first (the sender and receiver conditions of :func:`_reuse_until`
    holding at ``now``); ``receive_ends`` is what
    :func:`_first_receive_ends` returned for that search.

    A protected window is a hole grown by the guard.  Dropping one that
    has ended, or clipping the first, frees time the earlier search
    could not use, but only before the view's :func:`_clip_bound`.
    Every start a search at ``now`` can return is at or after the
    sender's and the receiver's clip bounds, so the view is harmless
    when its bound is not past theirs.  Otherwise, while none of its
    windows has ended, the freed time is the sliver cut off its clipped
    first hole, and a burst there would have to end where that hole now
    starts (its clip bound with the guard negated); only a dropped
    window forces a new search.
    """
    offset = -propagation_delay
    bound = max(
        _clip_bound(sender, now, guard, 0.0),
        _clip_bound(receiver, now, guard, offset),
    )
    for view, receive_end in zip(avoid, receive_ends):
        if _clip_bound(view, now, guard, offset) <= bound:
            continue
        if (
            view.to_local(now) >= receive_end
            or _clip_bound(view, now, -guard, offset) - bound >= duration
        ):
            return False
    return True


def find_transmit_window(
    sender: ScheduleView,
    receiver: ScheduleView,
    duration: float,
    earliest: float,
    guard: float = 0.0,
    avoid: Sequence[ScheduleView] = (),
    search_slots: int = DEFAULT_SEARCH_SLOTS,
    propagation_delay: float = 0.0,
) -> Interval:
    """Earliest interval in which the sender may convey one packet.

    The returned global-time interval of length ``duration`` starts at
    or after ``earliest``, lies inside one of the sender's transmit
    windows and inside one of the receiver's receive windows — both
    shrunk by ``guard`` on each side (for the receiver, the guard
    absorbs clock-model error; for the sender, it keeps the burst
    strictly clear of its own slot boundaries, where floating-point
    round-trips through the clock mapping could otherwise land a start
    an epsilon inside a receive slot) — and outside the receive windows
    of every view in ``avoid`` (grown by ``guard``), the Section 7.3
    courtesy to near neighbours the transmission would interfere with
    excessively.

    ``propagation_delay`` implements Section 3.3's remark that "actual
    delays could be observed and easily compensated for in the
    scheduling technique": the sender leads its burst so that the
    packet *arrives* inside the receiver's window — the constraint on
    the receiver applies to ``[start + delay, start + delay +
    duration]`` while the sender's own window constrains ``[start,
    start + duration]``.  Avoid views are treated like receivers (their
    victims also hear the burst delayed); the per-victim delay spread
    is sub-guard at any plausible geometry, so one delay serves all.

    Raises:
        NoTransmitWindowError: no overlap within ``search_slots`` slots.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    if guard < 0.0:
        raise ValueError("guard must be non-negative")
    if search_slots < 1:
        raise ValueError("search horizon must be at least one slot")
    if propagation_delay < 0.0:
        raise ValueError("propagation delay must be non-negative")

    # Bound the INPUT streams at the horizon: downstream operators pull
    # from their sources until they can yield, so feeding them
    # unbounded streams would loop forever whenever the combination is
    # empty (e.g. two stations with identical clocks, whose transmit
    # and receive windows are exact complements — the Section 7.1
    # failure mode the random offsets exist to prevent).
    horizon = earliest + search_slots * sender.schedule.slot_time
    # Receiver-side windows are shifted back by the propagation delay:
    # a burst transmitted during the shifted window arrives during the
    # published one.
    sender_stream = _bounded_windows(sender, earliest, False, guard, horizon)
    receiver_stream = _bounded_windows(
        receiver, earliest, True, guard, horizon, -propagation_delay
    )
    if avoid:
        # A protected receive window is a hole grown by the guard: its
        # stream shrunk by -guard, with no horizon.
        holes = [
            _bounded_windows(
                neighbor, earliest, True, -guard, math.inf, -propagation_delay
            )
            for neighbor in avoid
        ]
        window = _first_fit(sender_stream, receiver_stream, holes, duration, earliest)
    else:
        window = _first_fit(sender_stream, receiver_stream, (), duration, earliest)
    if window is None:
        raise NoTransmitWindowError(
            f"no {duration}-long overlap within {search_slots} slots of {earliest}"
        )
    return window


def overlap_fraction(p: float) -> float:
    """Expected fraction of time a sender can reach one given neighbour.

    Section 7.2: with receive duty cycle ``p``, a slot pair offers a
    usable (transmit here, receive there) combination with probability
    ``p(1-p)`` — about 0.21 at the near-optimal p = 0.3.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("receive duty cycle must be in (0, 1)")
    return p * (1.0 - p)


def expected_wait_slots(p: float) -> float:
    """Expected slots until a packet can be sent (Section 7.2).

    The Bernoulli model: success probability ``p(1-p)`` per slot, so
    the expectation is ``1/(p(1-p))`` — 4.76 slots at p = 0.3.
    """
    return 1.0 / overlap_fraction(p)


__all__ += ["overlap_fraction", "expected_wait_slots"]
