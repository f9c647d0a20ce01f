"""Differential oracle for the paper's MAC window memo.

``ShepardMac`` keeps the window it found for each next hop and returns
it again while a new search provably returns the same one.  These tests
keep the slow path as the oracle: the same network runs once with the
memo and once with every lookup forced to a fresh
``find_transmit_window``, under random re-convergences, clock steps,
online clock refits, guards and propagation delays.  Every window the
MAC used must be the same float pair, and the replay digests must match.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mac.shepard as shepard
from repro.clock.clock import Clock
from repro.clock.sync import NeighborClockModel, exchange_readings
from repro.core.access import (
    NoTransmitWindowError,
    ScheduleView,
    _first_receive_ends,
    _protected_unchanged,
    _reuse_until,
    find_transmit_window,
)
from repro.core.schedule import Schedule
from repro.experiments.simsetup import add_uniform_poisson, standard_network
from repro.faults import ClockStep, compile_plan, install_faults
from repro.net.network import NetworkConfig
from repro.propagation.matrix import PropagationMatrix
from repro.sim.sanitizer import sanitized

STATIONS = 14
SLOTS = 60.0


def _run(scenario, memo: bool, monkeypatch):
    """Run ``scenario``; returns (windows used per lookup, replay digest,
    searches made)."""
    used = []
    searches = []
    best_candidate = shepard.ShepardMac._best_candidate
    search = shepard.find_transmit_window

    def recording_best_candidate(mac, now):
        best = best_candidate(mac, now)
        station = mac.station
        for next_hop, _packet in station.queue.heads():
            entry = mac._found.get(next_hop)
            used.append(
                (station.index, now, next_hop, None if entry is None else entry.window)
            )
        used.append((station.index, now, None if best is None else best[:2]))
        return best

    def counted_search(*args, **kwargs):
        searches.append(kwargs["earliest"])
        return search(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(shepard.ShepardMac, "_best_candidate", recording_best_candidate)
        patch.setattr(shepard, "find_transmit_window", counted_search)
        if not memo:
            patch.setattr(shepard._Found, "fits", lambda entry, now, key: False)
        with sanitized():
            network = _build(scenario)
            network.run(SLOTS * network.budget.slot_time)
    return used, network.env.replay_digest(), len(searches)


def _build(scenario):
    config = NetworkConfig(
        seed=scenario["seed"],
        guard_fraction=scenario["guard_fraction"],
        model_propagation_delay=scenario["delay"],
        rendezvous_refresh_slots=scenario["refresh_slots"],
        rendezvous_jitter=scenario["jitter"],
    )
    network = standard_network(
        STATIONS, scenario["seed"], config, radius=400.0, trace=False
    )
    add_uniform_poisson(network, 0.3, scenario["seed"] + 1)
    if scenario["steps"]:
        plan = compile_plan(
            [
                ClockStep(station=station, at_slot=at, offset_slots=offset)
                for station, at, offset in scenario["steps"]
            ],
            seed=scenario["seed"],
            station_count=STATIONS,
        )
        install_faults(network, plan)
    if scenario["reconverge_at"]:
        rng = np.random.default_rng(scenario["seed"])
        slot_time = network.budget.slot_time

        def reconverger():
            # Each re-convergence sees a perturbed channel, so routes and
            # courtesy sets change and new pairs may rendezvous.
            done = 0.0
            for at in sorted(scenario["reconverge_at"]):
                yield network.env.timeout((at - done) * slot_time)
                done = at
                factors = rng.uniform(0.3, 1.5, network.matrix.gains.shape)
                gains = network.matrix.gains * (factors + factors.T) / 2.0
                network.reconverge(PropagationMatrix(gains), rng)

        network.env.process(reconverger())
    return network


SCENARIOS = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 50),
        "guard_fraction": st.sampled_from([0.0, 0.01, 0.05]),
        "delay": st.booleans(),
        "refresh_slots": st.sampled_from([None, 2.5, 7.0]),
        "jitter": st.sampled_from([0.0, 1e-4]),
        "steps": st.lists(
            st.tuples(
                st.integers(0, STATIONS - 1),
                st.floats(1.0, SLOTS - 1.0),
                st.sampled_from([-1.3, -0.4, 0.6, 2.5]),
            ),
            max_size=2,
        ),
        "reconverge_at": st.lists(st.floats(1.0, SLOTS - 1.0), max_size=3),
    }
)


class TestMemoMatchesFreshSearch:
    @settings(max_examples=12, deadline=None)
    @given(scenario=SCENARIOS)
    def test_same_windows_and_digest(self, scenario):
        # ``monkeypatch`` is function-scoped, so each example builds its own.
        with pytest.MonkeyPatch.context() as monkeypatch:
            memo_used, memo_digest, memo_searches = _run(scenario, True, monkeypatch)
            fresh_used, fresh_digest, fresh_searches = _run(
                scenario, False, monkeypatch
            )
        assert memo_used == fresh_used
        assert memo_digest == fresh_digest
        assert memo_searches <= fresh_searches

    def test_memo_saves_searches(self, monkeypatch):
        scenario = {
            "seed": 3,
            "guard_fraction": 0.01,
            "delay": True,
            "refresh_slots": None,
            "jitter": 0.0,
            "steps": [],
            "reconverge_at": [],
        }
        memo_used, memo_digest, memo_searches = _run(scenario, True, monkeypatch)
        fresh_used, fresh_digest, fresh_searches = _run(scenario, False, monkeypatch)
        assert memo_used == fresh_used
        assert memo_digest == fresh_digest
        assert memo_searches < fresh_searches / 2


class TestEveryHitIsAFreshWindow:
    """Each window the memo returns equals a search made at that instant."""

    @pytest.mark.parametrize("guard_fraction", [0.0, 0.01])
    @pytest.mark.parametrize("delay", [False, True])
    def test_hits_match_fresh_search(self, guard_fraction, delay, monkeypatch):
        checked = []
        best_candidate = shepard.ShepardMac._best_candidate

        def checking_best_candidate(mac, now):
            best = best_candidate(mac, now)
            station = mac.station
            for next_hop, packet in station.queue.heads():
                entry = mac._found.get(next_hop)
                if entry is None:
                    continue
                fresh = shepard.find_transmit_window(
                    station.own_view,
                    station.neighbor_view(next_hop),
                    packet.airtime(station.data_rate_bps),
                    earliest=now,
                    guard=mac.guard,
                    avoid=station.avoid_views(next_hop),
                    search_slots=mac.search_slots,
                    propagation_delay=station.delay_for(next_hop),
                )
                checked.append(fresh == entry.window)
            return best

        monkeypatch.setattr(
            shepard.ShepardMac, "_best_candidate", checking_best_candidate
        )
        config = NetworkConfig(
            seed=7,
            guard_fraction=guard_fraction,
            model_propagation_delay=delay,
            rendezvous_refresh_slots=3.0,
        )
        network = standard_network(30, 7, config, radius=500.0, trace=False)
        add_uniform_poisson(network, 0.4, 8)
        network.run(80.0 * network.budget.slot_time)
        assert len(checked) > 100
        assert all(checked)


def _kernel_cases(seed, count):
    """Random search problems: (sender, receiver, avoid, duration, guard,
    delay, earliest)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        schedule = Schedule(slot_time=float(rng.choice([1.0, 0.37])))
        slot = schedule.slot_time

        def clock():
            # Offsets up to 1e14 make the clock mappings round at the
            # 1e-2 level, wide enough that the rule's rounding cases
            # (a protected window dropped at the clip point) do occur.
            return Clock(
                offset=float(rng.uniform(0.0, 10.0 ** rng.choice([6, 12, 14]))),
                rate_error=float(rng.uniform(-50.0, 50.0)) * 1e-6,
            )

        own = clock()

        def neighbor():
            model = NeighborClockModel()
            other = clock()
            for when in rng.uniform(0.0, 50.0, size=int(rng.integers(1, 4))):
                model.add_sample(
                    exchange_readings(own, other, float(when), jitter=1e-4, rng=rng)
                )
            return ScheduleView.of_neighbor(schedule, own, model)

        yield (
            ScheduleView.own(schedule, own),
            neighbor(),
            tuple(neighbor() for _ in range(int(rng.integers(0, 4)))),
            float(rng.choice([0.1, 0.25, 0.6])) * slot,
            float(rng.choice([0.0, 0.01, 0.05])) * slot,
            float(rng.choice([0.0, 1e-6, 0.02])) * slot,
            float(rng.uniform(0.0, 200.0)),
        )


def _probe_times(window, earliest, reuse_until, avoid, delay, guard):
    """Later search instants worth probing: the reuse bound and its
    neighbours, the window start less one guard, each protected window's
    end (where its hole drops out of a new search), and a spread."""
    start = window[0]
    times = [earliest, reuse_until, start - guard, start - guard + delay]
    for view in avoid:
        for _, (_lo, hi) in zip(range(3), view.receive_windows(earliest)):
            times += [hi, hi - delay, hi - delay + guard]
    times += list(np.linspace(earliest, start, 7))
    probes = []
    for when in times:
        probes += [when, np.nextafter(when, -np.inf), np.nextafter(when, np.inf)]
    return [float(t) for t in probes if earliest <= t <= reuse_until]


class TestReuseRule:
    """The rule itself, probed at the instants where it could break."""

    @pytest.mark.parametrize("seed", range(4))
    def test_reused_window_is_what_a_search_returns(self, seed):
        reused = 0
        for sender, receiver, avoid, duration, guard, delay, earliest in _kernel_cases(
            seed, 150
        ):
            search = dict(guard=guard, avoid=avoid, propagation_delay=delay)
            try:
                window = find_transmit_window(
                    sender, receiver, duration, earliest=earliest, **search
                )
            except NoTransmitWindowError:
                continue
            reuse_until = _reuse_until(window, earliest, sender, receiver, guard, delay)
            # Tight: only a sliver under one guard before the start is lost.
            slot = sender.schedule.slot_time
            assert reuse_until >= min(window[0] - guard - 1e-6 * slot, earliest)
            receive_ends = _first_receive_ends(avoid, earliest)
            for now in _probe_times(window, earliest, reuse_until, avoid, delay, guard):
                if avoid and not _protected_unchanged(
                    now, duration, sender, receiver, avoid, receive_ends, guard, delay
                ):
                    continue
                fresh = find_transmit_window(
                    sender, receiver, duration, earliest=now, **search
                )
                assert fresh == window, (now, earliest, window, fresh)
                reused += 1
        assert reused > 300

    def test_window_past_its_reuse_bound_can_move(self):
        # The bound is not loose: right after it, clipping the first
        # sender window shrinks it by the guard and the search moves on.
        moved = 0
        for sender, receiver, _avoid, duration, guard, delay, earliest in _kernel_cases(
            9, 200
        ):
            if guard == 0.0:
                continue
            try:
                window = find_transmit_window(
                    sender, receiver, duration, earliest, guard=guard,
                    propagation_delay=delay,
                )
            except NoTransmitWindowError:
                continue
            later = window[0] - guard / 2.0
            if later <= earliest:
                continue
            fresh = find_transmit_window(
                sender, receiver, duration, later, guard=guard, propagation_delay=delay
            )
            assert later > _reuse_until(window, earliest, sender, receiver, guard, delay)
            moved += fresh != window
        assert moved > 0


class TestInvalidation:
    def _running(self):
        network = standard_network(14, 3, NetworkConfig(seed=3), radius=400.0, trace=False)
        add_uniform_poisson(network, 0.5, 4)
        network.run(15.0 * network.budget.slot_time)
        return network

    def test_view_changes_move_the_epoch(self):
        network = self._running()
        station = network.stations[0]
        neighbor = next(iter(station.table.neighbors_in_use()))
        epoch = station.view_epoch
        model = network.clock_models[(0, neighbor)]
        station.learn_neighbor_clock(neighbor, network.schedule, model)
        station.set_avoid_neighbors(neighbor, ())
        station.replace_clock(station.clock)
        assert station.view_epoch == epoch + 3

    def test_refits_move_the_fit_version(self):
        model = NeighborClockModel()
        own, other = Clock(offset=5.0), Clock(offset=9.5)
        model.add_sample(exchange_readings(own, other, 1.0))
        model.reset()
        assert model.fit_version == 2

    def test_new_model_for_a_queued_hop_is_searched_again(self):
        network = self._running()
        now = network.env.now
        for station in network.stations:
            station.mac._best_candidate(now)
            if station.mac._found:
                break
        mac = station.mac
        hop, entry = next(iter(mac._found.items()))
        # Re-learn the hop's clock half a slot off: its windows move.
        true_clock = network.clocks[hop]
        shifted = Clock(
            offset=true_clock.offset + 0.5 * network.budget.slot_time,
            rate_error=true_clock.rate_error,
        )
        model = NeighborClockModel()
        for when in (now, now + 1.0):
            model.add_sample(exchange_readings(station.clock, shifted, when))
        station.learn_neighbor_clock(hop, network.schedule, model)
        mac._best_candidate(now)
        packet = dict(station.queue.heads())[hop]
        fresh = find_transmit_window(
            station.own_view,
            station.neighbor_view(hop),
            packet.airtime(station.data_rate_bps),
            earliest=now,
            guard=mac.guard,
            avoid=station.avoid_views(hop),
            search_slots=mac.search_slots,
            propagation_delay=station.delay_for(hop),
        )
        assert fresh != entry.window
        assert mac._found[hop].window == fresh
