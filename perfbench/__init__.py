"""The repository's seeded performance benchmark.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in its own process and prints, as its
last line, one JSON object with the end-to-end metrics (``--trace 0``)
or the per-layer metrics (``--trace 1``).  See :mod:`perfbench.run` for
the metric definitions and :mod:`perfbench.workloads` for why each
workload exists.
"""
