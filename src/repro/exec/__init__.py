"""Parallel experiment execution: deterministic fan-out + caching.

The execution layer (docs/architecture.md §10) runs independent
``(backend spec, workload, seed)`` tasks across worker processes with
serial-identical results:

- :mod:`repro.exec.seeding` -- SHA-256 per-task seed derivation
  (:func:`derive_seed`), the determinism contract's root;
- :mod:`repro.exec.cache` -- the two-tier content-addressed cache
  store, keyed by spec + workload + seed + code version;
- :mod:`repro.exec.runner` -- :class:`ExperimentRunner`, which runs
  each task once and reports failures as structured
  :class:`TaskFailure` records (retrying is the caller's decision).

Consumers: ``eval/sweeps.py`` and ``eval/table1.py`` (``jobs=``),
``verify/gate.py`` (oracle/golden/fuzz fan-out) and the CLI
(``--jobs``).
"""

from repro.exec.cache import ResultCache, code_version, default_cache, stable_digest
from repro.exec.runner import (
    ExecStats,
    ExperimentRunner,
    TaskFailure,
    TaskResult,
    TaskSpec,
)
from repro.exec.seeding import derive_seed, spawn_seeds

__all__ = [
    "ExperimentRunner",
    "ExecStats",
    "TaskSpec",
    "TaskResult",
    "TaskFailure",
    "ResultCache",
    "default_cache",
    "code_version",
    "stable_digest",
    "derive_seed",
    "spawn_seeds",
]
