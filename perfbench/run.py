"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rendezvous_dense --seed 1 \\
        --seconds 36 --trace 0

Each workload runs in this one process: no pool, no threads.  The
program is imported from ``src/`` of the checkout the script sits in,
and the run fails (exit 2, no result line) when it is not there.

``--trace 0`` measures the end-to-end metrics, with no wrapper
installed:

* ``events_per_s`` (1/s) -- ``Environment.events_processed`` over the
  host seconds of the run phase (``Network.run`` or
  ``run_metro_scene``); setup is excluded.  All events of the run's
  passes over all their run-phase seconds.
* ``setup_s`` (s) -- host seconds from placement to a started, loaded
  network or a built metro scene.  Median over the setups.
* ``peak_rss_mb`` (MB) -- peak resident memory of this process.
* ``delivery_ratio`` (ratio) -- delivered bursts over bursts that ended
  on the air.  ``loss_ratio``, its complement, is printed beside it;
  the result line carries the ratio that is never zero.

``events_per_s`` and ``setup_s`` are at the reference host speed: each
pass's host seconds are scaled by the host speed that
:mod:`perfbench.hostspeed` sampled while they passed, because the speed
of a shared host drifts by more than the benchmark's bounds.  The
unscaled figures and the host speeds are printed above the result line
and kept in ``results.jsonl``.

``--trace 1`` runs every pass twice, first with the layer entry points
of :mod:`perfbench.spans` wrapped and then untraced, checks that both
give the same fingerprint, and reports the per-layer metrics of
:mod:`perfbench.metrics` as totals over the traced passes.  It also
prints each wrapped entry point's share of the traced run phase's time.
Spans are written to ``.perfbench_out/`` when the run ends, and every
result is appended to ``.perfbench_out/results.jsonl`` with the host
fingerprint and the source version.

The names and units of both metric sets are read from ``BENCHMARK.json``.

Every sample's outputs are checked (:func:`perfbench.workloads.check_sample`).
A burst is one operation; every burst of a sample that fails its check
is a failed operation, so a collision-free workload that loses a burst
fails.  Losses of ``contention_aloha`` are the protocol's expected
outcome and show in ``delivery_ratio``, not as failures.  The exit code
is 0 when every check passed, 1 when one failed, 2 on an error.

``--record`` adds the fingerprints of pass seeds not yet in
``perfbench/fingerprints.json``; recorded ones are checked as always.
Record only on a commit whose simulated statistics are known good, and
delete the stale entries first when a change alters them on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import traceback
from typing import Dict, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
FINGERPRINTS = os.path.join(ROOT, "perfbench", "fingerprints.json")
WORKLOAD_NAMES = ("rendezvous_dense", "contention_aloha", "metro_sparse")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here: the program is missing or mixed up."""


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import it.

    BLAS runs on one thread: with a pool on a 2-CPU host the same pass
    took anywhere from 1.24 s to 1.69 s, and 1.81 s to 1.87 s without.
    The variables only take effect if set before numpy is first imported.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchmarkError(f"no program to measure: {SRC}/repro is missing")
    if "numpy" in sys.modules:
        raise BenchmarkError("numpy was imported before BLAS threads were pinned")
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [SRC, ROOT]
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise BenchmarkError(f"imported repro from {repro.__file__}, not {SRC}")


# -- host and source fingerprints ------------------------------------------


def _commit() -> Optional[str]:
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """SHA-256 over every file of ``src/`` (names and bytes, sorted)."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def host_fingerprint() -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# -- fingerprints on disk ------------------------------------------------------


def load_fingerprints(path: str) -> Dict[str, dict]:
    """Recorded fingerprints, keyed ``size/workload/pass seed``."""
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def save_fingerprints(path: str, table: Dict[str, dict]) -> None:
    """One line per key, so a re-recording diffs line by line."""
    entries = ",\n".join(
        f" {json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}"
        for key in sorted(table)
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + entries + "\n}\n")


# -- command line ----------------------------------------------------------------


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload to a smoke-test scale",
    )
    parser.add_argument(
        "--record", action="store_true", help="add this run's new fingerprints"
    )
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    return args


def run(argv=None) -> int:
    args = parse_args(argv)
    _import_program()

    from perfbench import metrics as measures
    from perfbench import workloads

    workload = workloads.WORKLOADS[args.size][args.workload]
    table = load_fingerprints(FINGERPRINTS)

    def key(seed: int) -> str:
        return f"{args.size}/{args.workload}/{seed}"

    def recorded(seed: int) -> Optional[dict]:
        return table.get(key(seed))

    if args.size == "full":
        workloads.warm_up(args.workload)
    if args.trace:
        untraced, traced, recorder = workloads.measure_traced(
            workload, args.seed, args.seconds
        )
        samples = untraced + traced
        metro = isinstance(workload, workloads.MetroWorkload)
        metrics = measures.layer_metrics(recorder, metro, untraced, traced)
        # Each wrapped entry point's share of the run phase's self time.
        details = measures.layer_shares(recorder)
    else:
        samples = workloads.measure(workload, args.seed, args.seconds)
        recorder = None
        metrics = measures.end_to_end_metrics(samples)
        details = measures.unscaled(samples)
    units = measures.declared("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise BenchmarkError(
            f"computed metrics {sorted(metrics)} are not BENCHMARK.json's {sorted(units)}"
        )
    failed, problems = workloads.check(workload, samples, recorded)
    attempted = sum(sample.bursts for sample in samples)

    if args.record and not problems:
        for sample in samples:
            table.setdefault(key(sample.seed), sample.fingerprint)
        save_fingerprints(FINGERPRINTS, table)

    os.makedirs(OUT_DIR, exist_ok=True)
    host = host_fingerprint()
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    if recorder is not None:
        recorder.write(os.path.join(OUT_DIR, f"spans-{stem}.npz"))
    record = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "fingerprints": {str(s.seed): s.fingerprint for s in samples},
        "samples": [
            {
                "seed": s.seed,
                "setup_s": s.setup_s,
                "run_s": s.run_s,
                "setup_speed": s.setup_speed,
                "run_speed": s.run_speed,
            }
            for s in samples
        ],
        "problems": problems,
        "metrics": metrics,
        "run_phase_self_shares" if args.trace else "unscaled": details,
    }
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"host: {json.dumps(host, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name:<26s} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(f"{'loss_ratio':<26s} {1.0 - metrics['delivery_ratio']:>16.6g} ratio")
        print(f"{'passes':<26s} {len(samples):>16d}")
        for name, value in details.items():
            print(f"{name:<26s} {value:>16.6g}")
    else:
        print(
            "run-phase self-time shares: "
            + ", ".join(f"{name} {share:.3f}" for name, share in details.items())
        )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if not problems else 1


def main() -> int:
    try:
        return run()
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
