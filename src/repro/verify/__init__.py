"""Cross-backend conformance: oracles, golden snapshots, fuzz, gate.

PR 1 made simulation backends pluggable; this package is the contract
that keeps them honest.  Three layers, each usable on its own:

- :mod:`repro.verify.tolerance` -- relative-or-absolute tolerance
  bands and the :class:`~repro.verify.tolerance.Check` result record
  every verifier emits.
- :mod:`repro.verify.oracles` -- the workload table every contract
  reads its kernel runs from (each run made once per process), and
  differential oracles that replay one kernel workload (FFBP SPMD,
  autofocus MPMD, sequential baselines) across every registered
  backend plus the CPU reference, asserting cycles/energy within
  declared bands and *bit-level* agreement on the operation counters
  and per-core results (same generators, so the contract there is
  exact).
- :mod:`repro.verify.golden` -- deterministic fingerprints (Table-I
  metrics, per-core profiles, NoC/DMA traffic counters, SAR image
  quality) snapshotted under ``tests/golden/*.json`` with an update
  workflow that produces reviewable diffs.
- :mod:`repro.verify.fuzz` -- seeded property drivers sampling random
  geometries, core grids and backend specs, checking structural
  invariants (partition coverage/disjointness, channel FIFO ordering,
  monotone cycles, energy >= 0, analytic-vs-event parity).
- :mod:`repro.verify.chaos` -- seeded fault-plan fuzzing
  (``repro verify --chaos N``): generated fault plans run on both
  backends under the containment contract -- structured failure
  (fault / stall / deadlock / stalled) or completion with fault-free
  work parity, never a hang or a silent corruption.

:mod:`repro.verify.gate` wires the three into the ``repro verify``
CLI subcommand and CI job, so every future perf PR lands against a
machine-checkable contract.
"""

from repro.verify.tolerance import Check, Tolerance, failures, format_checks
from repro.verify.oracles import (
    Workload,
    differential_oracle,
    oracle_workloads,
    work_parity_oracle,
)
from repro.verify.golden import (
    FINGERPRINTS,
    compare_fingerprint,
    golden_dir,
    load_golden,
    save_golden,
)
from repro.verify.chaos import chaos_cell, random_plan, run_chaos_case
from repro.verify.fuzz import FUZZ_DRIVERS
from repro.verify.gate import run_verify

__all__ = [
    "Check",
    "Tolerance",
    "failures",
    "format_checks",
    "Workload",
    "differential_oracle",
    "oracle_workloads",
    "work_parity_oracle",
    "FINGERPRINTS",
    "compare_fingerprint",
    "golden_dir",
    "load_golden",
    "save_golden",
    "FUZZ_DRIVERS",
    "chaos_cell",
    "random_plan",
    "run_chaos_case",
    "run_verify",
]
