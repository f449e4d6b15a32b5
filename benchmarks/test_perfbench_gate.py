"""Benchmark gate: every ``BENCHMARK.json`` workload, run through perfbench.

Each workload runs once as ``python3 perfbench/run.py --workload W
--seed 20130821 --seconds 10 --trace 0`` from the repository root, and
the JSON object on the last line of its standard output is checked:

- every workload must be ``correct`` with no failed op and a
  ``success_rate`` of 1.0;
- the closed-loop workloads also keep ``op_p50_ms`` within
  ``CEILING_FACTOR`` of ``BASELINE_P50_MS``.  They report in
  perfbench's host-calibrated reference-host units, so one baseline
  serves every host.  ``serve-mixed`` reports raw host milliseconds and
  is gated on correctness only.

The baseline is the median of three runs at exactly these settings on
a 2-core Intel Xeon host under Python 3.11.  The 2x factor is a
cross-host ceiling for CI; paired same-host runs are held to the much
tighter ``BENCHMARK.json`` bounds instead.  The full result documents
land under ``.perfbench/``.

Run with ``pytest benchmarks/test_perfbench_gate.py -s`` to see each
run's summary.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 20130821
SECONDS = 10
CEILING_FACTOR = 2.0
BASELINE_P50_MS = {
    "table1-event": 357.0,
    "sweep-analytic": 52.1,
    "verify-quick": 694.0,
}
WORKLOADS = [
    w["name"]
    for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_is_correct_and_within_ceiling(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=30 * SECONDS,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in doc["metrics"].items()}
    print(f"\n{workload}: {doc['attempted']} ops, p50 {metrics['op_p50_ms']:.1f} ms")

    assert doc["correct"] is True, proc.stderr[-2000:]
    assert doc["failed"] == 0
    assert metrics["success_rate"] == 1.0
    if workload in BASELINE_P50_MS:
        ceiling = CEILING_FACTOR * BASELINE_P50_MS[workload]
        assert metrics["op_p50_ms"] <= ceiling, (
            f"{workload}: op_p50_ms {metrics['op_p50_ms']:.1f} over "
            f"{CEILING_FACTOR}x the {BASELINE_P50_MS[workload]} ms baseline"
        )
