"""The benchmark's workloads, their passes, and the output check.

Three workloads, chosen so that each layer's optimisation has one
workload that exercises it and one that bypasses it:

* ``rendezvous_dense`` -- 500 stations, load 0.5, the paper's
  ``shepard`` MAC on the dense medium with ``trace=True`` (how every
  T-experiment runs).  The heaviest user of the rendezvous search
  (``find_transmit_window``); the medium, the event wheel and ``obs``
  take most of the rest.  The scheme is collision-free, so any loss is
  a bug.
* ``contention_aloha`` -- the same scene under ``slotted_aloha`` with
  ``trace=False``.  It never calls the rendezvous search and runs with
  ``obs`` off; the medium, including its loss path, is most of the run.
  A rendezvous or ``obs`` optimisation should not move it, a medium
  optimisation moves it most.
* ``metro_sparse`` -- 10^4 stations at load 0.05 on the sparse CSR
  medium (``build_metro_scene``/``run_metro_scene``).  The only
  workload that builds the sparse scene, calls the culling witness
  (``field_error_bound_w``) and runs the metro joint-window search.

A run is a number of passes; a pass sets one scene up and runs it once,
so every pass also times one setup.
Pass ``i`` of a run seeded ``s`` uses the pass seed ``s * 1000 + i``,
with placement seed ``pass seed + M`` and traffic seed ``pass seed``
(the T4 convention).  The simulated stretch of each pass is fixed here.
An untraced run makes as many passes as fit in ``--seconds``, and at
least four; each pass's setup and run are timed under a
:class:`~perfbench.hostspeed.SpeedProbe`, so both can be scaled to the
reference host speed.  A traced run makes a fixed number of passes
(:func:`traced_passes`), from the nominal cost of a pass on a 2-CPU
Xeon container, so the work, fingerprints and layer counts of a traced
seed repeat exactly.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.hostspeed import SpeedProbe
from perfbench.spans import SpanRecorder, instrumented
from repro.analysis.metro import build_metro_scene, run_metro_scene
from repro.experiments.simsetup import add_uniform_poisson, standard_network

__all__ = [
    "DenseWorkload",
    "MetroWorkload",
    "Sample",
    "WORKLOADS",
    "check",
    "check_sample",
    "measure",
    "measure_traced",
    "pass_seed",
    "run_pass",
    "traced_passes",
    "warm_up",
]

SEED_STRIDE = 1000
MIN_PASSES = 4


@dataclass
class Sample:
    """One measured pass: its seed, host times and outputs.

    The host speeds are those the pass's probe saw while it set up and
    while it ran (1.0 is the reference speed), or None without a probe.
    """

    seed: int
    setup_s: Optional[float]
    run_s: float
    fingerprint: Dict[str, object]
    counters: Dict[str, int]
    setup_speed: Optional[float] = None
    run_speed: Optional[float] = None

    @property
    def bursts(self) -> int:
        return int(self.fingerprint["bursts"])

    @property
    def events(self) -> int:
        return int(self.fingerprint["events"])


@dataclass(frozen=True)
class DenseWorkload:
    """A uniform-disk network under Poisson traffic (``simsetup``).

    A started network runs once, so a traced pass's untraced twin
    builds its own.
    """

    mac: str
    trace: bool
    stations: int
    load: float
    duration_slots: float
    collision_free: bool
    nominal_pass_s: float
    rerunnable = False

    def setup(self, seed: int):
        network = standard_network(
            self.stations, seed + self.stations, mac=self.mac, trace=self.trace
        )
        add_uniform_poisson(network, self.load, seed)
        network.start()
        return network

    def run(self, network, seed: int) -> Tuple[Dict[str, object], Dict[str, int]]:
        result = network.run(self.duration_slots * network.budget.slot_time)
        fingerprint = {
            "events": network.env.events_processed,
            "bursts": result.transmissions,
            "deliveries": result.hop_deliveries,
            "losses": result.losses_total,
        }
        counters = {
            "unreachable": result.unreachable_drops,
            "held_events": len(network.instrumentation),
            "nnz": int(np.count_nonzero(network.matrix.gains)),
            "unscheduled": 0,
        }
        return fingerprint, counters


@dataclass(frozen=True)
class MetroWorkload:
    """A sparse metro scene under nearest-neighbour traffic.

    A built scene is immutable, so a traced pass's untraced twin runs
    the same scene again.
    """

    stations: int
    load: float
    duration_slots: float
    nominal_pass_s: float
    collision_free = True
    rerunnable = True

    def setup(self, seed: int):
        return build_metro_scene(self.stations, seed=seed + self.stations)

    def run(self, scene, seed: int) -> Tuple[Dict[str, object], Dict[str, int]]:
        result = run_metro_scene(
            scene, load=self.load, duration_slots=self.duration_slots, traffic_seed=seed
        )
        fingerprint = {
            "events": result.events,
            "bursts": result.transmitted,
            "deliveries": result.deliveries,
            "losses": result.losses_total,
            "unscheduled": result.unscheduled,
            "max_field_error_bound_w": float(result.max_field_error_bound_w).hex(),
        }
        counters = {
            "unreachable": 0,
            "held_events": 0,
            "nnz": scene.gain_field.nnz,
            "unscheduled": result.unscheduled,
        }
        return fingerprint, counters


def _workloads(tiny: bool) -> Dict[str, object]:
    dense_stations = 60 if tiny else 500
    return {
        "rendezvous_dense": DenseWorkload(
            mac="shepard",
            trace=True,
            stations=dense_stations,
            load=0.5,
            duration_slots=3.0 if tiny else 20.0,
            collision_free=True,
            nominal_pass_s=4.5,
        ),
        "contention_aloha": DenseWorkload(
            mac="slotted_aloha",
            trace=False,
            stations=dense_stations,
            load=0.5,
            duration_slots=3.0 if tiny else 15.0,
            collision_free=False,
            nominal_pass_s=2.0,
        ),
        "metro_sparse": MetroWorkload(
            stations=1500 if tiny else 10_000,
            load=0.05,
            duration_slots=4.0 if tiny else 30.0,
            nominal_pass_s=5.0,
        ),
    }


WORKLOADS = {"full": _workloads(tiny=False), "tiny": _workloads(tiny=True)}


def pass_seed(seed: int, index: int) -> int:
    """The seed of pass ``index`` of a run seeded ``seed``."""
    return seed * SEED_STRIDE + index


def traced_passes(workload, seconds: float) -> int:
    """How many passes a traced run of ``seconds`` makes.

    Each pass runs twice, traced and untraced, so the passes of half
    the run, and at least four.
    """
    return max(MIN_PASSES, math.ceil(seconds / 2 / workload.nominal_pass_s))


def _span(recorder, name: str):
    return recorder.span(name) if recorder is not None else nullcontext()


def _timed(probe, recorder, name: str, call):
    """(result, host seconds, host speed or None) of ``call()``.

    Under a ``probe`` the probe's own time is taken out of the seconds.
    """
    with probe.window() if probe is not None else nullcontext() as window:
        began = time.perf_counter()
        with _span(recorder, name):
            result = call()
        elapsed = time.perf_counter() - began
    if window is None:
        return result, elapsed, None
    return result, elapsed - window.handler_s, window.speed


def run_pass(
    workload, seed: int, recorder=None, built=None, probe=None
) -> Tuple[Sample, object]:
    """Set up (unless ``built`` is given) and run one pass.

    Returns the sample and what the setup built.  Setup and run are
    timed apart; with a ``recorder`` each gets a span, with a ``probe``
    each gets its host speed.
    """
    setup_s = setup_speed = None
    if built is None:
        gc.collect()
        built, setup_s, setup_speed = _timed(
            probe, recorder, "setup", lambda: workload.setup(seed)
        )
    gc.collect()
    (fingerprint, counters), run_s, run_speed = _timed(
        probe, recorder, "run", lambda: workload.run(built, seed)
    )
    sample = Sample(
        seed, setup_s, run_s, fingerprint, counters, setup_speed, run_speed
    )
    return sample, built


def check_sample(
    workload, sample: Sample, recorded: Optional[Dict[str, object]]
) -> List[str]:
    """Every way ``sample`` is wrong; empty when its outputs check out.

    For any seed, deliveries + losses must equal the bursts that ended,
    and a collision-free workload must lose nothing.  For a pass seed
    with a recorded fingerprint, every fingerprint field must match.
    """
    problems = []
    fp = sample.fingerprint
    if fp["bursts"] < 1:
        problems.append(f"seed {sample.seed}: no burst was put on the air")
    if fp["deliveries"] + fp["losses"] != fp["bursts"]:
        problems.append(
            f"seed {sample.seed}: deliveries {fp['deliveries']} + losses "
            f"{fp['losses']} != bursts {fp['bursts']}"
        )
    if workload.collision_free and fp["losses"] != 0:
        problems.append(
            f"seed {sample.seed}: {fp['losses']} losses on a collision-free workload"
        )
    if recorded is not None and recorded != fp:
        problems.append(f"seed {sample.seed}: fingerprint {fp} != recorded {recorded}")
    return problems


def warm_up(name: str) -> None:
    """One small untimed pass so lazy imports and caches are filled."""
    run_pass(WORKLOADS["tiny"][name], 0)


def measure(workload, seed: int, seconds: int) -> List[Sample]:
    """The untraced samples of one run.

    At least four passes, then more while the next one, as long as the
    median pass so far, still ends within ``seconds``.
    """
    probe = SpeedProbe()
    samples: List[Sample] = []
    pass_s: List[float] = []
    began = time.perf_counter()
    while len(samples) < MIN_PASSES or (
        time.perf_counter() - began + statistics.median(pass_s) <= seconds
    ):
        started = time.perf_counter()
        samples.append(
            run_pass(workload, pass_seed(seed, len(samples)), probe=probe)[0]
        )
        pass_s.append(time.perf_counter() - started)
    return samples


def measure_traced(workload, seed: int, seconds: int):
    """(untraced samples, traced samples, recorder), paired by seed.

    Each pass sets up and runs once traced, then runs untraced on the
    same seed, reusing the traced setup where the scene can run again.
    """
    recorder = SpanRecorder()
    untraced, traced = [], []
    for index in range(traced_passes(workload, seconds)):
        seed_i = pass_seed(seed, index)
        with instrumented(recorder):
            sample, built = run_pass(workload, seed_i, recorder)
        traced.append(sample)
        if not workload.rerunnable:
            built = None
        untraced.append(run_pass(workload, seed_i, built=built)[0])
        del built
    return untraced, traced, recorder


def check(workload, samples, recorded) -> Tuple[int, List[str]]:
    """(failed bursts, problems) over all samples.

    Samples sharing a seed (traced twins) must agree.
    """
    failed = 0
    problems: List[str] = []
    first: Dict[int, dict] = {}
    for sample in samples:
        found = check_sample(workload, sample, recorded(sample.seed))
        earlier = first.setdefault(sample.seed, sample.fingerprint)
        if earlier != sample.fingerprint:
            found.append(
                f"seed {sample.seed}: fingerprint {sample.fingerprint} differs "
                f"from the same seed's earlier {earlier}"
            )
        if found:
            failed += sample.bursts
            problems.extend(found)
    return failed, problems
