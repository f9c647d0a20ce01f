"""The benchmark's metrics, computed from its samples and spans.

End-to-end metrics come from the untraced samples; per-layer metrics
are totals over the traced samples (and their spans).  Which
end-to-end metric each layer metric should move, and on which
workload, is in ``perfbench/layers.json``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
from typing import Dict

import numpy as np

__all__ = [
    "declared",
    "end_to_end_metrics",
    "layer_metrics",
    "layer_shares",
    "unscaled",
]

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


def declared(kind: str) -> Dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists under ``kind``.

    ``kind`` is ``"end_to_end"`` or ``"per_layer"``.
    """
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def end_to_end_metrics(samples) -> Dict[str, float]:
    """Rates and medians over the untraced samples; peak memory of this process.

    Host times are scaled to the reference host speed of
    :mod:`perfbench.hostspeed`, pass by pass.  ``events_per_s`` pools
    the passes (all their events over all their run time): passes
    differ in their scenes, and a pooled rate averages that out better
    than a median of a few passes does.
    """
    bursts = sum(sample.bursts for sample in samples)
    deliveries = sum(int(sample.fingerprint["deliveries"]) for sample in samples)
    setups = [s for s in samples if s.setup_s is not None]
    return {
        "events_per_s": sum(s.events for s in samples)
        / sum(s.run_s * s.run_speed for s in samples),
        "setup_s": statistics.median(s.setup_s * s.setup_speed for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "delivery_ratio": deliveries / bursts,
    }


def unscaled(samples) -> Dict[str, float]:
    """The host-time figures before scaling, and the median host speeds."""
    setups = [s for s in samples if s.setup_s is not None]
    return {
        "events_per_host_s": sum(s.events for s in samples)
        / sum(s.run_s for s in samples),
        "setup_host_s": statistics.median(s.setup_s for s in setups),
        "run_host_speed": statistics.median(s.run_speed for s in samples),
        "setup_host_speed": statistics.median(s.setup_speed for s in setups),
    }


def layer_metrics(recorder, metro: bool, untraced, traced) -> Dict[str, float]:
    """Per-layer totals over the traced samples."""
    arrays = recorder.arrays()

    def mask(name: str):
        return recorder.select(arrays, name)

    def self_s(name: str) -> float:
        return float(arrays["self"][mask(name)].sum())

    def calls(name: str) -> int:
        return int(mask(name).sum())

    search_us = arrays["duration"][mask("access.search")] * 1e6
    transmits = calls("medium.transmit")
    # Pre-scheduling: the metro run span minus the event wheel under it.
    run_spans = np.flatnonzero(mask("run"))
    wheel_under_run = mask("sim.run") & np.isin(arrays["parent"], run_spans)
    presched = float(
        arrays["duration"][run_spans].sum() - arrays["duration"][wheel_under_run].sum()
    )

    def counter(key: str) -> int:
        return int(sum(s.counters[key] for s in traced))

    return {
        "sim.events": sum(s.events for s in traced),
        "sim.self_s": self_s("sim.run"),
        "access.searches": calls("access.search"),
        "access.self_s": self_s("access.search"),
        "access.search_us_p50": float(np.percentile(search_us, 50)) if search_us.size else 0.0,
        "access.search_us_p99": float(np.percentile(search_us, 99)) if search_us.size else 0.0,
        "access.search_samples": int(search_us.size),
        "access.unreachable": counter("unreachable"),
        "access.searches_per_tx": calls("access.search") / transmits if transmits else 0.0,
        "metro.presched_s": presched if metro else 0.0,
        "metro.unscheduled": counter("unscheduled"),
        "medium.transmits": transmits,
        "medium.transmit_self_s": self_s("medium.transmit"),
        "medium.end_self_s": self_s("medium.end"),
        "medium.deliveries": sum(int(s.fingerprint["deliveries"]) for s in traced),
        "medium.losses": sum(int(s.fingerprint["losses"]) for s in traced),
        "medium.witness_calls": calls("medium.witness"),
        "medium.witness_self_s": self_s("medium.witness"),
        "obs.emits": calls("obs.emit"),
        "obs.emit_self_s": self_s("obs.emit"),
        "obs.held_events": counter("held_events"),
        "scene.field_s": float(arrays["duration"][mask("scene.field")].sum()),
        "scene.nnz": counter("nnz"),
        "scene.routing_s": float(arrays["duration"][mask("scene.routing")].sum()),
        "scene.other_s": self_s("setup"),
        "trace.overhead_ratio": sum(s.run_s for s in traced) / sum(s.run_s for s in untraced),
    }


def layer_shares(recorder) -> Dict[str, float]:
    """Each span name's self time over the run phase's total time.

    The run phase is the ``run`` spans; setup spans are left out.
    ``run`` itself is what no wrapped entry point covers (for the metro
    workload, mostly its pre-scheduling).
    """
    arrays = recorder.arrays()
    runs = np.flatnonzero(recorder.select(arrays, "run"))
    total = float(arrays["duration"][runs].sum())
    # Spans nest on one thread, so a run span's descendants lie inside it.
    in_run = np.zeros(len(arrays["start"]), dtype=bool)
    for index in runs:
        in_run |= (arrays["start"] >= arrays["start"][index]) & (
            arrays["end"] <= arrays["end"][index]
        )
    shares = {}
    for name in recorder.names:
        spans = in_run & recorder.select(arrays, name)
        if spans.any():
            shares[name] = float(arrays["self"][spans].sum()) / total
    return shares
