"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

The command runs in a subprocess at the tiny size, the way a user runs
it, so these tests also cover argument parsing and the result line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rendezvous_dense", "contention_aloha", "metro_sparse")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(root: str, workload: str, trace: int):
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(root, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", "0",
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return completed, result


@pytest.fixture(scope="module")
def tiny_results():
    return {
        (workload, trace): _run(ROOT, workload, trace)
        for workload in WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_pass_prints_every_named_metric(tiny_results, workload, trace):
    completed, result = tiny_results[(workload, trace)]
    assert completed.returncode == 0, completed.stderr
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(metric["name"] for metric in declared)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        for metric in result["metrics"].values():
            assert metric["value"] > 0


def test_traced_layers_match_the_workloads(tiny_results):
    def layers(workload):
        completed, result = tiny_results[(workload, 1)]
        assert completed.returncode == 0, completed.stderr
        return {name: entry["value"] for name, entry in result["metrics"].items()}

    dense, aloha, metro = (layers(workload) for workload in WORKLOADS)
    assert dense["access.searches"] > 0 and dense["obs.emits"] > 0
    assert aloha["access.searches"] == 0 and aloha["obs.emits"] == 0
    assert dense["medium.witness_calls"] == 0 and aloha["medium.witness_calls"] == 0
    assert metro["medium.witness_calls"] == metro["medium.transmits"] > 0
    assert metro["metro.presched_s"] > 0 and metro["scene.routing_s"] == 0
    assert aloha["medium.losses"] > 0


def test_perturbed_fingerprint_is_a_failure(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    from perfbench import workloads

    with open(os.path.join(HERE, "fingerprints.json"), encoding="utf-8") as handle:
        recorded = json.load(handle)["tiny/rendezvous_dense/0"]
    workload = workloads.WORKLOADS["tiny"]["rendezvous_dense"]
    sample, _ = workloads.run_pass(workload, 0)
    assert workloads.check(workload, [sample], lambda seed: recorded) == (0, [])

    perturbed = dict(recorded, events=recorded["events"] + 1)
    failed, problems = workloads.check(workload, [sample], lambda seed: perturbed)
    assert failed == sample.bursts > 0
    assert len(problems) == 1 and problems[0].startswith("seed 0: fingerprint")


def test_every_wrapped_entry_point_exists(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    from perfbench import spans

    resolved = spans.resolve_entry_points()
    assert len(resolved) == len(spans.ENTRY_POINTS)
    for _name, owner, attribute, original in resolved:
        assert vars(owner)[attribute] is original


def test_missing_entry_point_fails_loudly(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    from perfbench import spans

    monkeypatch.setattr(
        spans, "ENTRY_POINTS", (("medium.end", "repro.net.medium", "Medium._gone"),)
    )
    with pytest.raises(spans.MissingEntryPoint, match="Medium._gone"):
        with spans.instrumented(spans.SpanRecorder()):
            pass


def test_benchmark_json_names_every_workload():
    assert [workload["name"] for workload in _benchmark_json()["workloads"]] == list(
        WORKLOADS
    )


def test_layer_map_covers_every_layer_metric():
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        mapped = json.load(handle)["metrics"]
    declared = [metric["name"] for metric in _benchmark_json()["per_layer"]]
    assert sorted(mapped) == sorted(declared)


def test_self_time_subtracts_direct_children():
    from perfbench import spans

    recorder = spans.SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            with recorder.span("leaf"):
                pass
        recorder.wrap("wrapped", lambda: None)()
    arrays = recorder.arrays()
    assert list(arrays["parent"]) == [-1, 0, 1, 0]
    assert arrays["self"][0] == pytest.approx(
        arrays["duration"][0] - arrays["duration"][1] - arrays["duration"][3]
    )
    assert arrays["self"][1] == pytest.approx(
        arrays["duration"][1] - arrays["duration"][2]
    )
    assert (arrays["self"] >= 0).all()


def test_layer_shares_split_the_run_phase():
    from perfbench import metrics, spans

    recorder = spans.SpanRecorder()
    with recorder.span("setup"):
        recorder.wrap("scene.field", lambda: None)()
    with recorder.span("run"):
        with recorder.span("sim.run"):
            recorder.wrap("medium.end", lambda: None)()
    shares = metrics.layer_shares(recorder)
    assert sorted(shares) == ["medium.end", "run", "sim.run"]
    assert sum(shares.values()) == pytest.approx(1.0)


def test_host_speed_is_the_trimmed_mean_of_probe_speeds():
    from perfbench import hostspeed

    reference = hostspeed.REFERENCE_S
    durations = [reference / 2] * 9 + [reference * 100]
    assert hostspeed.Window(durations).speed == pytest.approx(2.0)
    durations = [reference] * 10 + [reference / 2] * 10
    assert hostspeed.Window(durations).speed == pytest.approx(1.5)


def test_speed_probe_samples_and_leaves_no_timer():
    import signal
    import time

    from perfbench import hostspeed

    previous = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.SpeedProbe()
    with probe.window() as window:
        began = time.perf_counter()
        while time.perf_counter() - began < 0.2:
            pass
    assert len(window.durations) >= 2 + 5
    assert 0.0 < window.handler_s < 0.2
    assert window.speed > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    completed, result = _run(str(tmp_path), "contention_aloha", 0)
    assert completed.returncode != 0
    assert result is None
    assert "no program to measure" in completed.stderr
