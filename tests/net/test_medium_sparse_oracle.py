"""Differential oracle: the receiver-indexed sparse tracker update and
the per-transmission witness terms against the vector update and the
generator witness they replaced (``tests/net/medium_reference.py``).

Random sparse scenes are driven through a :class:`Medium` and a
:class:`ReferenceMedium` in lockstep.  After every operation the two
must agree bit for bit on every tracked reception (``min_sir`` and
``failed_at`` bit patterns, ``failure_sources``, SIC depth), on the
losses and deliveries recorded so far, and on the culling-error
witness.  The operations cover several receptions at one receiver, a
locked receiver keying up (Type 3), SIC despreader banks, source
aborts, receiver failures, one-link fades and batched link updates;
both mediums run under the sanitizer with a short resync cadence, so
the receiver-index and witness cross-checks run on every path too.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collisions import CollisionType
from repro.net.medium import Medium, Transmission
from repro.net.packet import Packet
from repro.propagation.sparse import SparseGainField
from repro.radio.receiver_model import SicReceiver
from repro.radio.spreadspectrum import DespreaderBank
from repro.sim.engine import Environment
from repro.sim.sanitizer import SanitizerError
from tests.net.medium_reference import ReferenceMedium

STATIONS = 7


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


class Scene:
    """One random sparse scene, built twice: new medium and reference."""

    def __init__(
        self,
        seed: int,
        cull_quantile: float,
        resync_events: int = 3,
        capacity=None,
        noise_w: float = 1e-9,
    ):
        rng = np.random.default_rng(seed)
        gains = 10.0 ** rng.uniform(-6.0, 0.0, (STATIONS, STATIONS))
        gains = (gains + gains.T) / 2.0
        np.fill_diagonal(gains, 0.0)
        off_diagonal = gains[~np.eye(STATIONS, dtype=bool)]
        cull = float(np.quantile(off_diagonal, cull_quantile))
        self.field = SparseGainField.from_dense(gains, cull_gain=cull)
        self.thresholds = rng.uniform(0.05, 2.0, STATIONS)
        self.capacities = rng.integers(1, 4, STATIONS)
        if capacity is not None:
            self.capacities[:] = capacity
        self.sic = rng.random(STATIONS) < 0.5
        self.noise_w = noise_w
        self.medium = self._build(Medium, resync_events)
        self.reference = self._build(ReferenceMedium, resync_events)
        self.seq = 0
        self.active = []

    def _build(self, cls, resync_events):
        banks = [
            DespreaderBank(
                capacity=int(self.capacities[station]),
                model=SicReceiver(depth=2) if self.sic[station] else None,
            )
            for station in range(STATIONS)
        ]
        return cls(
            env=Environment(sanitize=True),
            gains=self.field,
            thermal_noise_w=self.noise_w,
            sir_thresholds=self.thresholds,
            listen_query=lambda station, now: True,
            channel_query=lambda station: banks[station],
            resync_events=resync_events,
        )

    @property
    def pair(self):
        return self.medium, self.reference

    # -- operations, applied to both mediums ---------------------------

    def begin(self, source, destination, power):
        if source == destination or self.medium.is_station_transmitting(source):
            return
        tx = Transmission(
            seq=self.seq,
            source=source,
            destination=destination,
            packet=Packet(
                source=source,
                destination=destination,
                size_bits=100.0,
                created_at=0.0,
            ),
            power_w=power,
            start=self.medium.env.now,
            duration=1.0,
        )
        self.seq += 1
        for medium in self.pair:
            medium._begin(tx)
        self.active.append(tx)

    def end(self, index):
        if not self.active:
            return
        tx = self.active.pop(index % len(self.active))
        outcomes = [medium._end(tx) for medium in self.pair]
        assert outcomes[0] == outcomes[1]

    def advance(self, dt):
        for medium in self.pair:
            medium.env.run(until=medium.env.now + dt)

    def abort(self, station):
        for medium in self.pair:
            medium.abort_transmissions_from(station)
        self.active = [tx for tx in self.active if tx.source != station]

    def fail(self, station):
        for medium in self.pair:
            medium.fail_receptions_at(station)

    def scale(self, receiver, source, factor):
        if receiver == source:
            return
        errors = []
        for medium in self.pair:
            try:
                medium.scale_link(receiver, source, factor)
            except ValueError as error:  # a culled link cannot fade
                errors.append(str(error))
        assert len(errors) in (0, 2)

    def links(self, updates):
        unique = {}
        for receiver, source, gain in updates:
            if receiver != source:
                unique[(receiver, source)] = gain
        if not unique:
            return
        receivers = np.array([r for r, _ in unique], dtype=np.intp)
        sources = np.array([s for _, s in unique], dtype=np.intp)
        values = np.array(list(unique.values()))
        applied = [
            medium.update_links(receivers, sources, values) for medium in self.pair
        ]
        assert applied[0] == applied[1]

    def drain(self):
        while self.active:
            self.end(0)
            self.check()

    def apply(self, op):
        kind, args = op
        getattr(self, kind)(*args)
        self.check()

    # -- the oracle ----------------------------------------------------

    def check(self):
        new, ref = self.pair
        assert new._attempts.keys() == ref._attempts.keys()
        for seq, attempt in new._attempts.items():
            other = ref._attempts[seq]
            assert attempt.failure_sources == other.failure_sources
            assert attempt.sic_max_cancelled == other.sic_max_cancelled
            for batch_attr in ("_min_sir", "_failed_at"):
                ours = getattr(new._trackers, batch_attr)[
                    new._trackers.position(seq)
                ]
                theirs = getattr(ref._trackers, batch_attr)[
                    ref._trackers.position(seq)
                ]
                assert _bits(ours) == _bits(theirs), (batch_attr, seq)
        assert _bits(new.field_error_bound_w()) == _bits(ref.field_error_bound_w())
        assert new.deliveries == ref.deliveries
        assert len(new.losses) == len(ref.losses)
        for ours, theirs in zip(new.losses, ref.losses):
            assert ours.reason == theirs.reason
            assert ours.collision_types == theirs.collision_types
            assert ours.transmission.seq == theirs.transmission.seq
            assert _bits(ours.min_sir) == _bits(theirs.min_sir)


station = st.integers(min_value=0, max_value=STATIONS - 1)
begin = st.tuples(
    st.just("begin"),
    st.tuples(station, station, st.floats(min_value=0.1, max_value=10.0)),
)
operation = st.one_of(
    begin,
    begin,  # twice: begins outweigh ends, so receivers fill up
    st.tuples(st.just("end"), st.tuples(st.integers(min_value=0, max_value=9))),
    st.tuples(
        st.just("advance"), st.tuples(st.floats(min_value=0.01, max_value=1.0))
    ),
    st.tuples(st.just("abort"), st.tuples(station)),
    st.tuples(st.just("fail"), st.tuples(station)),
    st.tuples(
        st.just("scale"),
        st.tuples(station, station, st.floats(min_value=0.05, max_value=4.0)),
    ),
    st.tuples(
        st.just("links"),
        st.tuples(
            st.lists(
                st.tuples(
                    station, station, st.floats(min_value=1e-6, max_value=1.0)
                ),
                max_size=4,
            )
        ),
    ),
)


class TestReceiverIndexedUpdate:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        cull_quantile=st.floats(min_value=0.0, max_value=0.8),
        noise_w=st.sampled_from([1e-9, 1e-20]),
        ops=st.lists(operation, min_size=1, max_size=40),
    )
    def test_matches_reference_after_every_operation(
        self, seed, cull_quantile, noise_w, ops
    ):
        # Under the tiny noise floor, ulp-level residuals of the field
        # show in the SIR bits.
        scene = Scene(seed, cull_quantile, noise_w=noise_w)
        for op in ops:
            scene.apply(op)
        scene.drain()
        for medium in scene.pair:
            assert medium.field_error_bound_w() == 0.0
            assert not medium._locked_at
            assert not medium._bound_terms

    def test_seeded_walks_cover_every_path(self):
        # A fixed set of random walks that must reach each case the
        # receiver index has to get right, so a change to the scene
        # generator cannot quietly drop one from the oracle.
        rng = np.random.default_rng(2024)
        reached = dict(
            shared_receiver=0, type3_key_up=0, sic_cancel=0, sir_loss=0,
            abort=0, fail=0, scale=0, links=0,
        )
        for walk in range(60):
            scene = Scene(
                walk,
                float(rng.uniform(0.0, 0.8)),
                noise_w=1e-9 if walk % 2 else 1e-20,
            )
            for _ in range(50):
                kind = rng.choice(
                    ["begin", "begin", "begin", "end", "end", "advance",
                     "abort", "fail", "scale", "links"]
                )
                s, d = (int(x) for x in rng.integers(0, STATIONS, 2))
                if kind == "begin":
                    if scene.medium._locked_at.get(s):
                        reached["type3_key_up"] += 1
                    args = (s, d, float(rng.uniform(0.1, 10.0)))
                elif kind == "end":
                    args = (int(rng.integers(10)),)
                elif kind == "advance":
                    args = (float(rng.uniform(0.01, 1.0)),)
                elif kind in ("abort", "fail"):
                    reached[kind] += 1
                    args = (s,)
                elif kind == "scale":
                    reached["scale"] += 1
                    args = (s, d, float(rng.uniform(0.05, 4.0)))
                else:
                    reached["links"] += 1
                    args = ([(s, d, float(rng.uniform(1e-6, 1.0)))],)
                scene.apply((kind, args))
                if any(len(tags) > 1 for tags in scene.medium._locked_at.values()):
                    reached["shared_receiver"] += 1
                reached["sic_cancel"] += sum(
                    1 for a in scene.medium._attempts.values() if a.sic_max_cancelled
                )
            scene.drain()
            reached["sir_loss"] += sum(
                1 for loss in scene.medium.losses if loss.reason == "sir"
            )
        assert all(count > 0 for count in reached.values()), reached

    def test_negative_residual_at_lock_reads_as_zero_interference(self):
        # After ends, the incremental field can sit an ulp below the
        # wanted signal.  At a fresh lock that residual must clamp to
        # zero interference (SIR = signal / noise), as in the vector pass.
        scene = Scene(seed=3, cull_quantile=0.0, noise_w=1e-20)
        signal = 2.0 * float(scene.field.to_dense()[1, 0])
        for medium in scene.pair:
            medium._interference[1] = -np.spacing(signal)
        scene.begin(0, 1, 2.0)
        scene.check()
        assert scene.medium._trackers.min_sir(0) == signal / 1e-20

    def test_type3_key_up_fails_the_locked_reception(self):
        scene = Scene(seed=1, cull_quantile=0.0)
        scene.begin(0, 1, 1.0)  # station 1 locks onto 0's burst
        scene.check()
        assert 1 in scene.medium._locked_at
        scene.begin(1, 2, 1.0)  # ... and then keys up itself
        scene.check()
        scene.drain()
        for medium in scene.pair:
            loss = medium.losses[0]
            assert loss.transmission.source == 0
            assert loss.reason == "sir"
            assert CollisionType.TYPE_3 in loss.collision_types


class TestUpdateOne:
    """``TrackerBatch.update_one`` against the vector ``update`` on
    random batches: same state after every step, same failures."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_vector_update(self, seed):
        from repro.core.reception import TrackerBatch

        rng = np.random.default_rng(seed)
        vector = TrackerBatch(capacity=1)
        scalar = TrackerBatch(capacity=1)
        tags = list(range(int(rng.integers(1, 12))))
        for tag in tags:
            params = dict(
                tag=tag,
                receiver=int(rng.integers(5)),
                threshold=float(rng.uniform(0.01, 2.0)),
                signal_power_w=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
                noise_power_w=float(rng.choice([0.0, rng.uniform(0.0, 1e-3)])),
            )
            vector.add(**params)
            scalar.add(**params)
        for step in range(25):
            levels = rng.uniform(0.0, 4.0, vector.count)
            levels[rng.random(vector.count) < 0.2] = 0.0
            now = float(step) * 0.5
            failed_vector = set(vector.update(now, levels))
            failed_scalar = {
                tag
                for tag, level in zip(vector.tags, levels.tolist())
                if scalar.update_one(now, tag, level)
            }
            assert failed_vector == failed_scalar
            for tag in vector.tags:
                p, q = vector.position(tag), scalar.position(tag)
                assert _bits(vector._min_sir[p]) == _bits(scalar._min_sir[q])
                assert _bits(vector._failed_at[p]) == _bits(scalar._failed_at[q])
            if step % 8 == 7 and vector.count > 1:
                gone = vector.tags[int(rng.integers(vector.count))]
                assert vector.remove(gone) == scalar.remove(gone)

    def test_reports_only_the_first_failure(self):
        from repro.core.reception import TrackerBatch

        batch = TrackerBatch()
        batch.add(tag=3, receiver=0, threshold=1.0, signal_power_w=1.0)
        assert not batch.update_one(0.0, 3, 0.5)  # SIR 2: fine
        assert batch.update_one(1.0, 3, 2.0)  # SIR 0.5: fails now
        assert not batch.update_one(2.0, 3, 4.0)  # already failed
        record = batch.remove(3)
        assert record.failed_at == 1.0
        assert record.min_sir == 0.25

    def test_zero_denominator_gives_infinite_sir(self):
        from repro.core.reception import TrackerBatch

        batch = TrackerBatch()
        batch.add(tag=1, receiver=0, threshold=0.5, signal_power_w=1.0)
        assert not batch.update_one(0.0, 1, 0.0)
        assert batch.min_sir(1) == math.inf


class TestSanitizerCrossChecks:
    """A corrupted receiver index or witness term trips the sanitizer at
    the next resync."""

    def _locked_scene(self):
        scene = Scene(seed=4, cull_quantile=0.0, resync_events=1, capacity=2)
        scene.begin(0, 1, 1.0)
        scene.begin(2, 1, 1.0)
        assert len(scene.medium._locked_at[1]) == 2
        return scene

    def _resync(self, medium):
        medium._field_changes = medium._resync_events
        medium._field_changed()

    def test_honest_state_passes(self):
        scene = self._locked_scene()
        self._resync(scene.medium)

    def test_corrupted_lock_count_raises(self):
        medium = self._locked_scene().medium
        medium._locked_count[3] += 1
        with pytest.raises(SanitizerError, match="lock counts"):
            self._resync(medium)

    def test_missing_index_tag_raises(self):
        medium = self._locked_scene().medium
        medium._locked_at[1].pop(0)
        with pytest.raises(SanitizerError, match="tags disagree"):
            self._resync(medium)

    def test_wrong_indexed_signal_raises(self):
        medium = self._locked_scene().medium
        medium._locked_at[1][0] *= 1.0 + 2.0**-52
        with pytest.raises(SanitizerError, match="tags disagree"):
            self._resync(medium)

    def test_corrupted_bound_term_raises(self):
        medium = self._locked_scene().medium
        medium._bound_terms[0] = np.nextafter(medium._bound_terms[0], math.inf)
        with pytest.raises(SanitizerError, match="bound term"):
            self._resync(medium)

    def test_reordered_bound_terms_raise(self):
        medium = self._locked_scene().medium
        medium._bound_terms[0] = medium._bound_terms.pop(0)
        with pytest.raises(SanitizerError, match="keyed like the active set"):
            self._resync(medium)

    def test_stale_bound_term_raises(self):
        medium = self._locked_scene().medium
        medium._bound_terms[99] = 0.0
        with pytest.raises(SanitizerError, match="keyed like the active set"):
            self._resync(medium)
