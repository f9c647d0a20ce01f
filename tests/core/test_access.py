"""Tests for the collision-free channel access computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock.clock import Clock
from repro.clock.sync import NeighborClockModel, exact_model, exchange_readings
from repro.core.access import (
    NoTransmitWindowError,
    ScheduleView,
    _bounded_windows,
    expected_wait_slots,
    find_transmit_window,
    overlap_fraction,
)
from repro.core.intervals import first_fitting, intersect, subtract
from repro.core.schedule import Schedule


SCHEDULE = Schedule(slot_time=1.0, receive_fraction=0.3, key=99)


def own_view(offset, rate_error=0.0):
    return ScheduleView.own(SCHEDULE, Clock(offset=offset, rate_error=rate_error))


def neighbor_view(own_clock, neighbor_clock):
    return ScheduleView.of_neighbor(
        SCHEDULE, own_clock, exact_model(own_clock, neighbor_clock)
    )


class TestScheduleView:
    def test_own_view_matches_schedule(self):
        clock = Clock(offset=123.0)
        view = ScheduleView.own(SCHEDULE, clock)
        for t in (0.0, 1.7, 55.3):
            assert view.is_receiving_at(t) == SCHEDULE.is_receiving_at(
                clock.reading(t)
            )

    def test_neighbor_view_with_exact_model_matches_truth(self):
        own_clock = Clock(offset=5.0, rate_error=1e-5)
        neighbor_clock = Clock(offset=321.0, rate_error=-1e-5)
        believed = neighbor_view(own_clock, neighbor_clock)
        truth = ScheduleView.own(SCHEDULE, neighbor_clock)
        for t in (0.0, 10.1, 77.7):
            assert believed.is_receiving_at(t) == truth.is_receiving_at(t)

    def test_windows_are_ordered(self):
        view = own_view(42.7)
        previous_end = None
        gen = view.transmit_windows(0.0)
        for _ in range(30):
            lo, hi = next(gen)
            assert lo < hi
            if previous_end is not None:
                assert lo >= previous_end
            previous_end = hi


class TestFindTransmitWindow:
    def test_window_is_valid_for_both_parties(self):
        sender_clock = Clock(offset=11.3)
        receiver_clock = Clock(offset=871.9)
        sender = ScheduleView.own(SCHEDULE, sender_clock)
        receiver_believed = neighbor_view(sender_clock, receiver_clock)
        receiver_truth = ScheduleView.own(SCHEDULE, receiver_clock)
        start, end = find_transmit_window(
            sender, receiver_believed, duration=0.25, earliest=3.0
        )
        assert end - start == pytest.approx(0.25)
        assert start >= 3.0
        for t in (start, (start + end) / 2, end - 1e-9):
            assert not sender.is_receiving_at(t)
            assert receiver_truth.is_receiving_at(t)

    def test_earliest_window_is_found(self):
        sender = own_view(0.0)
        receiver = own_view(500.5)
        first = find_transmit_window(sender, receiver, 0.25, earliest=0.0)
        # No valid start earlier than the one returned: check a grid.
        step = 0.05
        t = 0.0
        while t < first[0] - 1e-9:
            fits = (
                not sender.is_receiving_at(t)
                and not sender.is_receiving_at(t + 0.25 - 1e-9)
                and receiver.is_receiving_at(t)
                and receiver.is_receiving_at(t + 0.25 - 1e-9)
            )
            if fits:
                # The candidate must span window boundaries then.
                whole = all(
                    not sender.is_receiving_at(u) and receiver.is_receiving_at(u)
                    for u in (t + k * 0.01 for k in range(26))
                )
                assert not whole, f"missed earlier window at {t}"
            t += step

    def test_guard_shrinks_usable_region(self):
        sender_clock = Clock(offset=1.0)
        receiver_clock = Clock(offset=400.9)
        sender = ScheduleView.own(SCHEDULE, sender_clock)
        receiver_truth = ScheduleView.own(SCHEDULE, receiver_clock)
        start, end = find_transmit_window(
            sender,
            neighbor_view(sender_clock, receiver_clock),
            duration=0.25,
            earliest=0.0,
            guard=0.1,
        )
        # The receiver listens for at least the guard on both sides.
        assert receiver_truth.is_receiving_at(start - 0.09)
        assert receiver_truth.is_receiving_at(end + 0.09)

    def test_avoid_views_are_respected(self):
        sender_clock = Clock(offset=3.0)
        receiver_clock = Clock(offset=907.1)
        bystander_clock = Clock(offset=5550.7)
        sender = ScheduleView.own(SCHEDULE, sender_clock)
        receiver = neighbor_view(sender_clock, receiver_clock)
        bystander = neighbor_view(sender_clock, bystander_clock)
        bystander_truth = ScheduleView.own(SCHEDULE, bystander_clock)
        start, end = find_transmit_window(
            sender, receiver, 0.25, earliest=0.0, avoid=[bystander]
        )
        for t in (start, (start + end) / 2, end - 1e-9):
            assert not bystander_truth.is_receiving_at(t)

    def test_propagation_delay_compensated(self):
        # Section 3.3: "actual delays could be observed and easily
        # compensated for in the scheduling technique."  With a large
        # artificial delay, the burst must be led so that the *arrival*
        # interval sits inside the receiver's window.
        delay = 0.3  # slots — absurd physically, visible mathematically
        sender_clock = Clock(offset=4.2)
        receiver_clock = Clock(offset=611.7)
        sender = ScheduleView.own(SCHEDULE, sender_clock)
        receiver_truth = ScheduleView.own(SCHEDULE, receiver_clock)
        start, end = find_transmit_window(
            sender,
            neighbor_view(sender_clock, receiver_clock),
            duration=0.25,
            earliest=0.0,
            propagation_delay=delay,
        )
        for t in (start + 1e-9, (start + end) / 2, end - 1e-9):
            assert not sender.is_receiving_at(t)        # sender window: tx time
            assert receiver_truth.is_receiving_at(t + delay)  # rx window: arrival

    def test_zero_delay_matches_plain_search(self):
        sender_clock = Clock(offset=4.2)
        receiver_clock = Clock(offset=611.7)
        sender = ScheduleView.own(SCHEDULE, sender_clock)
        receiver = neighbor_view(sender_clock, receiver_clock)
        plain = find_transmit_window(sender, receiver, 0.25, earliest=0.0)
        delayed = find_transmit_window(
            sender, receiver, 0.25, earliest=0.0, propagation_delay=0.0
        )
        assert plain == delayed

    def test_negative_delay_rejected(self):
        sender = own_view(0.0)
        receiver = own_view(99.5)
        with pytest.raises(ValueError):
            find_transmit_window(
                sender, receiver, 0.25, 0.0, propagation_delay=-1.0
            )

    def test_no_window_raises(self):
        # A receiver whose believed windows are always outside the
        # search horizon: use an avoid view identical to the receiver,
        # which forbids every candidate.
        sender_clock = Clock(offset=0.0)
        receiver_clock = Clock(offset=123.4)
        sender = ScheduleView.own(SCHEDULE, sender_clock)
        receiver = neighbor_view(sender_clock, receiver_clock)
        with pytest.raises(NoTransmitWindowError):
            find_transmit_window(
                sender,
                receiver,
                0.25,
                earliest=0.0,
                avoid=[receiver],
                search_slots=200,
            )

    def test_rejects_bad_arguments(self):
        sender = own_view(0.0)
        receiver = own_view(99.5)
        with pytest.raises(ValueError):
            find_transmit_window(sender, receiver, 0.0, 0.0)
        with pytest.raises(ValueError):
            find_transmit_window(sender, receiver, 0.25, 0.0, guard=-1.0)
        with pytest.raises(ValueError):
            find_transmit_window(sender, receiver, 0.25, 0.0, search_slots=0)

    def test_identical_clocks_cannot_communicate(self):
        # Section 7.1: "If the clocks were not set differently, then the
        # identical schedules would prevent communication between the
        # two stations."
        sender = own_view(10.0)
        receiver = own_view(10.0)
        with pytest.raises(NoTransmitWindowError):
            find_transmit_window(
                sender, receiver, 0.25, earliest=0.0, search_slots=500
            )

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=-5e-5, max_value=5e-5),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_window_always_valid_property(
        self, sender_offset, receiver_offset, rate_error, earliest
    ):
        from hypothesis import assume

        # Section 7.1 requires clocks set at least a slot apart; with
        # closer offsets the schedules correlate and overlap may not
        # exist (see test_identical_clocks_cannot_communicate).
        assume(abs(sender_offset - receiver_offset) >= 2.0)
        sender_clock = Clock(offset=sender_offset)
        receiver_clock = Clock(offset=receiver_offset, rate_error=rate_error)
        sender = ScheduleView.own(SCHEDULE, sender_clock)
        receiver_believed = neighbor_view(sender_clock, receiver_clock)
        receiver_truth = ScheduleView.own(SCHEDULE, receiver_clock)
        start, end = find_transmit_window(
            sender, receiver_believed, duration=0.25, earliest=earliest
        )
        assert start >= earliest
        for t in (start + 1e-9, (start + end) / 2, end - 1e-9):
            assert not sender.is_receiving_at(t)
            assert receiver_truth.is_receiving_at(t)


class TestNeighborMapping:
    def test_mapping_follows_every_refit(self):
        own, other = Clock(offset=10.0, rate_error=2e-5), Clock(offset=733.25)
        model = NeighborClockModel()
        model.add_sample(exchange_readings(own, other, 0.0))
        view = ScheduleView.of_neighbor(SCHEDULE, own, model)
        for when in (5.0, 9.0, 40.0):
            assert view.to_local(when) == model.predict_neighbor_reading(
                own.reading(when)
            )
            assert view.to_global(when) == own.true_time(model.own_reading_for(when))
            model.add_sample(
                exchange_readings(own, Clock(offset=733.25 + when), when)
            )


def _grown(windows, guard):
    """Each window grown by ``guard`` at both ends, overlaps merged."""
    pending = None
    for lo, hi in windows:
        lo, hi = lo - guard, hi + guard
        if pending is None:
            pending = (lo, hi)
        elif lo <= pending[1]:
            pending = (pending[0], max(pending[1], hi))
        else:
            yield pending
            pending = (lo, hi)


def _reference_search(sender, receiver, duration, earliest, guard, avoid, delay, slots):
    """The search as the interval algebra states it: intersect the two
    bounded streams, subtract each protected neighbour's grown receive
    windows, take the first fitting piece."""
    horizon = earliest + slots * sender.schedule.slot_time
    pieces = intersect(
        _bounded_windows(sender, earliest, False, guard, horizon),
        _bounded_windows(receiver, earliest, True, guard, horizon, -delay),
    )
    for view in avoid:
        holes = (
            (lo - delay, hi - delay) if delay else (lo, hi)
            for lo, hi in view.receive_windows(earliest)
        )
        pieces = subtract(pieces, _grown(holes, guard))
    return first_fitting(pieces, duration, not_before=earliest)


def _random_problems(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        sender_clock = Clock(
            offset=float(rng.uniform(0.0, 1e6)),
            rate_error=float(rng.uniform(-50.0, 50.0)) * 1e-6,
        )
        views = [
            neighbor_view(
                sender_clock,
                Clock(
                    offset=sender_clock.offset + float(rng.uniform(-1e6, 1e6)),
                    rate_error=float(rng.uniform(-50.0, 50.0)) * 1e-6,
                ),
            )
            for _ in range(int(rng.integers(1, 4)))
        ]
        yield (
            ScheduleView.own(SCHEDULE, sender_clock),
            views[0],
            float(rng.choice([0.1, 0.25])),
            float(rng.uniform(0.0, 100.0)),
            float(rng.choice([0.0, 0.01, 0.05])),
            tuple(views[1:]),
            float(rng.choice([0.0, 0.02])),
        )


class TestFusedSearchMatchesIntervalAlgebra:
    """The fused kernel against the slow path it replaces."""

    @pytest.mark.parametrize("seed", range(3))
    def test_windows_equal(self, seed):
        for sender, receiver, duration, earliest, guard, avoid, delay in (
            _random_problems(seed, 300)
        ):
            expected = _reference_search(
                sender, receiver, duration, earliest, guard, avoid, delay, 200
            )
            try:
                found = find_transmit_window(
                    sender, receiver, duration, earliest, guard=guard, avoid=avoid,
                    search_slots=200, propagation_delay=delay,
                )
            except NoTransmitWindowError:
                found = None
            assert found == expected


class TestClosedForms:
    def test_overlap_fraction_at_p03(self):
        assert overlap_fraction(0.3) == pytest.approx(0.21)

    def test_expected_wait_at_p03(self):
        assert expected_wait_slots(0.3) == pytest.approx(4.7619, abs=1e-3)

    def test_overlap_fraction_bounds(self):
        with pytest.raises(ValueError):
            overlap_fraction(0.0)
