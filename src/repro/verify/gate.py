"""The ``repro verify`` gate: one command, every conformance contract.

Composes the three verification layers into a single pass/fail run:

1. **Differential oracles** -- replay the kernel workloads across the
   registered backends (event reference vs candidates) and the CPU
   reference, checking banded cycles/energy and exact counters.
1b. **Fabric conformance** -- the multi-chip contracts of
   :func:`~repro.verify.oracles.fabric_identity_oracle` (sharded SAR
   images byte-identical to serial) and :func:`~repro.verify.oracles.
   fabric_timing_oracle` (the fabric FFBP executive keeps the
   single-chip analytic banding).
1c. **Replay conformance** -- the byte-identity contract of the
   trace-compiled tier (:mod:`repro.verify.replay`): a
   ``replay(event:*)`` hit must be bit-for-bit indistinguishable from
   the cold event run, down to trace counters, recorder intervals and
   golden fingerprints.
2. **Golden snapshots** -- rebuild every registered fingerprint and
   compare it against ``tests/golden/*.json`` (or regenerate the
   snapshots with ``update_golden=True``).
3. **Fuzz drivers** -- the seeded property suites of
   :mod:`repro.verify.fuzz`.
4. **Chaos gate** (opt-in, ``chaos_cases > 0``) -- seeded fault plans
   run against both backends under the containment contract of
   :mod:`repro.verify.chaos`: structured failure or fault-free-parity
   completion, never a hang or a silent corruption.

``quick=True`` (the CI default) replays the quick workload subset,
one candidate backend per spec, and a reduced fuzz case budget; the
full run adds the sequential baselines, the non-default chip specs and
a 4x case budget.  Exit status: 0 all green, 1 contract violations
(each printed with its metric name), 2 usage errors (unknown backend,
unknown fingerprint).

With ``jobs > 1`` the independent gate cells -- one oracle replay per
(workload, spec), one golden fingerprint per name, one fuzz driver per
invariant family -- fan out over the :class:`~repro.exec.
ExperimentRunner` pool.  Cells are pure functions of the source tree
and the pinned seed, so the report's checks (and the exit code) are
identical at any jobs level; the report footer gains wall time and
result-cache statistics.  Golden *update* runs stay cacheable-free and
write each snapshot exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.exec import ExperimentRunner, ExecStats, TaskSpec
from repro.verify.golden import FINGERPRINTS, update_golden, verify_golden
from repro.verify.oracles import (
    differential_oracle,
    oracle_workloads,
    work_parity_oracle,
)
from repro.verify.fuzz import FUZZ_DRIVERS
from repro.verify.replay import REPLAY_WORKLOADS
from repro.verify.tolerance import Check, failures, format_checks

__all__ = ["GateReport", "run_verify", "DEFAULT_SEED"]

DEFAULT_SEED = 20130821
"""Pinned fuzz seed (the paper's ICPP 2013 vintage); CI passes it
explicitly so local and CI runs sample identical cases."""

QUICK_FUZZ_CASES = 25
FULL_FUZZ_CASES = 100

QUICK_SPECS = ("e16",)
FULL_SPECS = ("e16", "e64", "board")

CHAOS_CHUNK = 10
"""Chaos cases per gate cell: small enough to fan out over workers,
large enough that per-task overhead stays negligible."""


@dataclass
class GateReport:
    """Aggregated outcome of one verify run.

    ``exec_stats`` (when set) carries the execution layer's accounting
    -- jobs, wall seconds, cache hits/misses -- into the report footer.
    """

    sections: dict[str, list[Check]] = field(default_factory=dict)
    exec_stats: ExecStats | None = None

    def add(self, section: str, checks: list[Check]) -> None:
        self.sections.setdefault(section, []).extend(checks)

    @property
    def checks(self) -> list[Check]:
        return [c for cs in self.sections.values() for c in cs]

    @property
    def passed(self) -> bool:
        return not failures(self.checks)

    def format(self, verbose: bool = False) -> str:
        lines = []
        for section, checks in self.sections.items():
            bad = failures(checks)
            status = "ok" if not bad else f"{len(bad)} FAILED"
            lines.append(
                f"-- {section}: {len(checks)} checks, {status}"
            )
            body = format_checks(checks, verbose=verbose)
            if verbose or bad:
                lines.extend("   " + ln for ln in body.splitlines()[:-1])
        if self.exec_stats is not None:
            lines.append(f"-- exec: {self.exec_stats.format()}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"verify: {verdict} "
            f"({len(self.checks)} checks, {len(failures(self.checks))} failed)"
        )
        return "\n".join(lines)


# -- gate cells (module level: picklable for parallel fan-out) --------------

def _oracle_cell(workload_name: str, spec: str, candidate: str) -> list[Check]:
    """One (workload, chip spec) cell of the oracle matrix."""
    wls = {wl.name: wl for wl in oracle_workloads()}
    return differential_oracle(
        wls[workload_name],
        candidates=(f"{candidate}:{spec}",),
        reference=f"event:{spec}",
    )


def _work_parity_cell(workload_names: Sequence[str]) -> list[Check]:
    names = set(workload_names)
    wls = [wl for wl in oracle_workloads() if wl.name in names]
    return work_parity_oracle(wls)


def _fabric_identity_cell(kind: str) -> list[Check]:
    """Single-chip == multi-chip byte identity for one SAR workload."""
    from repro.verify.oracles import fabric_identity_oracle

    return fabric_identity_oracle(kind)


def _fabric_timing_cell(spec: str) -> list[Check]:
    """Analytic-vs-event banding of the fabric FFBP executive."""
    from repro.verify.oracles import fabric_timing_oracle

    return fabric_timing_oracle(spec)


def _replay_identity_cell(workload: str, spec: str) -> list[Check]:
    """Cold-vs-capture-vs-hit byte identity of the replay tier."""
    from repro.verify.replay import replay_identity_oracle

    return replay_identity_oracle(workload, spec)


def _replay_golden_cell(name: str, spec: str) -> list[Check]:
    """One golden fingerprint rebuilt under ``replay(event:<spec>)``."""
    from repro.verify.replay import replay_golden_oracle

    return replay_golden_oracle(name, spec)


def _golden_verify_cell(name: str, root: str | None) -> list[Check]:
    return verify_golden(name, root)


def _golden_update_cell(name: str, root: str | None) -> list[Check]:
    path = update_golden(name, root)
    return [Check(name=f"{name}.updated", passed=True, note=str(path))]


def _fuzz_cell(name: str, seed: int, cases: int) -> list[Check]:
    return FUZZ_DRIVERS[name](seed, cases)


def _chaos_cell(backend: str, case_range: tuple[int, int], seed: int) -> list[Check]:
    from repro.verify.chaos import chaos_cell

    return chaos_cell(backend, range(*case_range), seed)


def _chaos_serve_cell(case_range: tuple[int, int], seed: int) -> list[Check]:
    from repro.verify.chaos import chaos_serve_cell

    return chaos_serve_cell(range(*case_range), seed)


def run_verify(
    quick: bool = True,
    update: bool = False,
    seed: int = DEFAULT_SEED,
    fuzz_cases: int | None = None,
    specs: Sequence[str] | None = None,
    candidate: str = "analytic",
    golden_root: str | None = None,
    skip_fuzz: bool = False,
    out: Callable[[str], None] = print,
    verbose: bool = False,
    jobs: int = 1,
    chaos_cases: int = 0,
    chaos_serve_cases: int = 0,
) -> int:
    """Run the conformance gate; returns a process exit status.

    ``candidate`` names the backend compared against the ``event``
    reference on every chip spec in ``specs``.  ``update`` regenerates
    the golden snapshots instead of comparing (the oracles and fuzz
    drivers still run -- refreshing snapshots on a broken tree should
    still scream).  ``jobs`` fans the independent gate cells out over
    worker processes; the checks and exit code are identical at any
    jobs level.  ``chaos_cases > 0`` adds the fault-injection chaos
    gate: that many seeded fault plans per backend, each asserted
    against the containment contract (:mod:`repro.verify.chaos`).
    Chaos plans derive from ``(seed, case)`` alone, so the case set --
    and every outcome record -- is identical at any jobs level too.
    ``chaos_serve_cases > 0`` adds the serve-level chaos gate: each
    case boots a real :class:`~repro.serve.service.ImageService` and
    drives the scripted adversarial scenario of
    :func:`~repro.verify.chaos.run_chaos_serve_case` twice, asserting
    end-to-end containment and decision-identity.
    """
    from repro.machine.backends import available_backends, get_machine

    if candidate not in available_backends():
        raise ValueError(
            f"unknown candidate backend {candidate!r}; "
            f"available: {', '.join(available_backends())}"
        )
    specs = tuple(specs) if specs else (QUICK_SPECS if quick else FULL_SPECS)
    for spec in specs:  # fail fast, with a clean message, on bad specs
        get_machine(f"event:{spec}")
    cases = fuzz_cases if fuzz_cases is not None else (
        QUICK_FUZZ_CASES if quick else FULL_FUZZ_CASES
    )
    root = str(golden_root) if golden_root is not None else None

    # Every cell is one task; (task key -> report section) preserves
    # the serial report layout regardless of completion order.
    tasks: list[TaskSpec] = []
    section_of: dict[str, str] = {}

    def cell(key: str, section: str, fn, args, cacheable: bool = True) -> None:
        tasks.append(TaskSpec(key=key, fn=fn, args=args, cacheable=cacheable))
        section_of[key] = section

    # -- 1. differential oracles ---------------------------------------
    workloads = [wl for wl in oracle_workloads() if wl.quick or not quick]
    for wl in workloads:
        for spec in specs:
            cell(
                f"oracle/{wl.name}/{spec}",
                f"oracle[{wl.name}]",
                _oracle_cell,
                (wl.name, spec, candidate),
            )
    cell(
        "oracle/cpu-work-parity",
        "oracle[cpu-work-parity]",
        _work_parity_cell,
        (tuple(wl.name for wl in workloads),),
    )

    # -- 1b. fabric conformance (multi-chip == single-chip) -------------
    for kind in ("ffbp", "strip"):
        cell(
            f"fabric/identity/{kind}",
            "fabric",
            _fabric_identity_cell,
            (kind,),
        )
    cell(
        "fabric/timing/2x(e16)",
        "fabric",
        _fabric_timing_cell,
        ("2x(e16)",),
    )

    # -- 1c. replay conformance (trace-compiled == cold event) ----------
    replay_workloads = ("ffbp_spmd16",) if quick else REPLAY_WORKLOADS
    for wl_name in replay_workloads:
        cell(
            f"replay/identity/{wl_name}",
            "replay",
            _replay_identity_cell,
            (wl_name, "e16"),
        )
    for name in ("traffic_counters",) if quick else (
        "table1_small",
        "profile_ffbp_spmd16",
        "traffic_counters",
    ):
        cell(
            f"replay/golden/{name}",
            "replay",
            _replay_golden_cell,
            (name, "e16"),
        )

    # -- 2. golden snapshots (file-backed: never cached) ----------------
    for name, fp in FINGERPRINTS.items():
        if quick and not fp.quick:
            continue
        if update:
            cell(
                f"golden/update/{name}",
                "golden",
                _golden_update_cell,
                (name, root),
                cacheable=False,
            )
        else:
            cell(
                f"golden/verify/{name}",
                "golden",
                _golden_verify_cell,
                (name, root),
                cacheable=False,
            )

    # -- 3. fuzz drivers ------------------------------------------------
    if not skip_fuzz:
        for name in FUZZ_DRIVERS:
            cell(
                f"fuzz/{name}/{seed}/{cases}",
                f"fuzz[{name}]",
                _fuzz_cell,
                (name, seed, cases),
            )

    # -- 4. chaos gate (opt-in) -----------------------------------------
    if chaos_cases > 0:
        from repro.verify.chaos import CHAOS_BACKENDS

        for backend in CHAOS_BACKENDS:
            for lo in range(0, chaos_cases, CHAOS_CHUNK):
                hi = min(lo + CHAOS_CHUNK, chaos_cases)
                cell(
                    f"chaos/{backend}/{seed}/{lo}-{hi}",
                    f"chaos[{backend}]",
                    _chaos_cell,
                    (backend, (lo, hi), seed),
                )

    # -- 5. serve-level chaos gate (opt-in) -----------------------------
    if chaos_serve_cases > 0:
        for lo in range(0, chaos_serve_cases, CHAOS_CHUNK):
            hi = min(lo + CHAOS_CHUNK, chaos_serve_cases)
            cell(
                f"chaos-serve/{seed}/{lo}-{hi}",
                "chaos-serve",
                _chaos_serve_cell,
                ((lo, hi), seed),
            )

    runner = ExperimentRunner(jobs=jobs, root_seed=seed)
    results = runner.run(tasks)

    report = GateReport(exec_stats=runner.stats)
    for task, result in zip(tasks, results):
        report.add(section_of[task.key], result.value)

    out(report.format(verbose=verbose))
    return 0 if report.passed else 1
