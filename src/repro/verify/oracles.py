"""Differential oracles over one workload table.

The machine-abstraction layer promises that a kernel generator has one
meaning regardless of which engine interprets it.  That promise splits
into two contracts with different strengths:

- **Exact (bit-level)**: operation counters (flops, external/remote
  bytes, messages, barriers, DMA transfers) and per-core results.  All
  backends consume the *same generator objects*, so any divergence here
  is a replay bug, not an approximation.  The CPU reference kernels
  emit the same op mixes (the paper applies identical source-level
  optimisations to both architectures), so their *work* counters must
  match the Epiphany kernels exactly too.
- **Banded**: cycles and energy.  The analytic engine trades queueing
  detail for speed; its totals must stay inside a declared
  relative-or-absolute band of the calibrated event engine
  (:data:`CYCLES_TOL`, :data:`ENERGY_TOL`).

Every contract of the gate runs its kernels from one table,
:data:`WORKLOADS` (name -> ``runner(machine, inputs)``), and reads its
runs through :func:`verify_run`, which makes each (workload, backend,
inputs) run once per process; the i7 runs of :data:`CPU_REFERENCE` are
read the same way through :func:`verify_cpu_run`.
:func:`differential_oracle` compares one :class:`Workload` on a
reference backend and a set of candidates; :func:`work_parity_oracle`
adds the CPU-reference work comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from repro.kernels.autofocus_mpmd import run_autofocus_mpmd
from repro.kernels.autofocus_seq import run_autofocus_seq_epiphany
from repro.kernels.cpu_ref import run_autofocus_cpu, run_ffbp_cpu
from repro.kernels.ffbp_common import PREFETCH_WINDOW_BYTES, FfbpPlan, plan_ffbp
from repro.kernels.ffbp_fabric import run_ffbp_fabric
from repro.kernels.ffbp_seq import run_ffbp_seq_epiphany
from repro.kernels.ffbp_spmd import run_ffbp_spmd
from repro.kernels.gbp_ref import run_gbp_spmd
from repro.kernels.opcounts import AutofocusWorkload
from repro.machine.api import Machine, RunResult
from repro.machine.backends import get_machine, resolve_backend
from repro.machine.core import OpBlock
from repro.machine.cpu import CpuMachine, CpuRunResult
from repro.perf import memo_key, memoize
from repro.runtime.dataflow import linear_chain
from repro.sar.config import RadarConfig
from repro.verify.tolerance import (
    Check,
    Tolerance,
    check_equal,
    check_value,
)

__all__ = [
    "CPU_REFERENCE",
    "CYCLES_TOL",
    "ENERGY_TOL",
    "EXACT_TRACE_FIELDS",
    "RunInputs",
    "WORKLOADS",
    "Workload",
    "verify_cpu_run",
    "verify_run",
    "oracle_workloads",
    "differential_oracle",
    "work_parity_oracle",
    "fabric_identity_oracle",
    "fabric_timing_oracle",
]

CYCLES_TOL = Tolerance(rel=0.05, abs=512.0)
"""Analytic-vs-event cycle agreement: 5% (the PR-1 acceptance bound)
with a 512-cycle absolute floor so tiny epochs cannot flake a
pure-relative comparison."""

ENERGY_TOL = Tolerance(rel=0.05, abs=1e-9)
"""Energy agreement: same 5% band with a nanojoule floor."""

EXACT_TRACE_FIELDS: tuple[str, ...] = (
    "total_flops",
    "ext_read_bytes",
    "ext_write_bytes",
    "remote_read_bytes",
    "remote_write_bytes",
    "messages_sent",
    "messages_received",
    "barriers",
    "dma_transfers",
)
"""Merged-trace counters whose cross-backend contract is exact."""


@dataclass(frozen=True)
class RunInputs:
    """Everything a table workload reads besides its machine.

    The default geometry (256 pulses x 257 ranges) is the smallest
    scale at which fixed costs (pipeline fill, first-touch DMA) do not
    dominate the analytic-vs-event parity ratio -- the same reasoning
    as ``tests/machine/test_analytic.py``.
    """

    cfg: RadarConfig = field(
        default_factory=lambda: RadarConfig.small(n_pulses=256, n_ranges=257)
    )
    window_bytes: int = PREFETCH_WINDOW_BYTES
    work: AutofocusWorkload = field(default_factory=AutofocusWorkload)

    @property
    def plan(self) -> FfbpPlan:
        return plan_ffbp(self.cfg, self.window_bytes)


def _linear_chain(machine: Machine, inputs: RunInputs) -> RunResult:
    works = [OpBlock(flops=64.0 * (i + 1)) for i in range(4)]
    return linear_chain(works, payload=256).run(machine, firings=8)


WORKLOADS: dict[str, Callable[[Machine, RunInputs], RunResult]] = {
    "ffbp_spmd16": lambda m, i: run_ffbp_spmd(m, i.plan, 16),
    "ffbp_spmd4": lambda m, i: run_ffbp_spmd(m, i.plan, 4),
    "ffbp_seq": lambda m, i: run_ffbp_seq_epiphany(m, i.plan),
    "ffbp_fabric": lambda m, i: run_ffbp_fabric(m, i.plan),
    "autofocus_mpmd": lambda m, i: run_autofocus_mpmd(m, i.work),
    "autofocus_seq": lambda m, i: run_autofocus_seq_epiphany(m, i.work),
    "gbp_spmd16": lambda m, i: run_gbp_spmd(m, i.cfg, 16),
    "linear_chain": _linear_chain,
}
"""Every kernel run the gate checks: name -> ``runner(machine, inputs)``.
The name fixes the kernel and its core count; :class:`RunInputs`
carries the rest."""

CPU_REFERENCE: dict[str, Callable[[RunInputs], Any]] = {
    "ffbp": lambda i: run_ffbp_cpu(CpuMachine(), i.plan),
    "autofocus": lambda i: run_autofocus_cpu(CpuMachine(), i.work),
}
"""The i7 reference runs: kernel family -> ``runner(inputs)``."""


def verify_cpu_run(family: str, inputs: RunInputs) -> CpuRunResult:
    """The :data:`CPU_REFERENCE` run of ``family``, made once per
    process (the :func:`verify_run` memo, keyed on family and inputs)."""
    return memoize(
        memo_key("verify/cpu", (family, inputs)),
        lambda: CPU_REFERENCE[family](inputs),
    )


def verify_run(name: str, backend: str, inputs: RunInputs) -> RunResult:
    """Table workload ``name`` on a fresh ``backend`` machine, made once.

    The result is kept in the process memo (memory only) under the
    workload name, the backend spec string and every input, so every
    contract that asks for the same run in one process shares it.
    Contracts that observe the machine itself (recorders, replay
    statistics, injected faults) call the :data:`WORKLOADS` runner on
    machines of their own instead.
    """
    return memoize(
        memo_key("verify/run", (name, backend, inputs)),
        lambda: WORKLOADS[name](get_machine(backend), inputs),
    )


@dataclass(frozen=True)
class Workload:
    """One oracle workload: a :data:`WORKLOADS` name and its inputs.

    ``cpu`` names the :data:`CPU_REFERENCE` run whose operation
    counters must match bit-for-bit (``None``: no reference).
    ``min_cores`` lets the oracle skip backends whose chip is too
    small.  ``quick`` marks the subset the fast gate replays.
    """

    name: str
    inputs: RunInputs = field(default_factory=RunInputs)
    cpu: str | None = None
    min_cores: int = 1
    quick: bool = True

    def run(self, backend: str) -> RunResult:
        return verify_run(self.name, backend, self.inputs)


def oracle_workloads(
    cfg: RadarConfig | None = None,
    work: AutofocusWorkload | None = None,
    plan: FfbpPlan | None = None,
) -> tuple[Workload, ...]:
    """The standard oracle suite: FFBP SPMD/sequential + autofocus
    MPMD/sequential, at the :class:`RunInputs` defaults unless a
    geometry (``cfg``, or the ``plan`` built from one) or an autofocus
    ``work`` is given."""
    inputs = RunInputs()
    if plan is not None:
        inputs = replace(inputs, cfg=plan.cfg, window_bytes=plan.window_bytes)
    elif cfg is not None:
        inputs = replace(inputs, cfg=cfg)
    if work is not None:
        inputs = replace(inputs, work=work)
    return (
        Workload("ffbp_spmd16", inputs, cpu="ffbp", min_cores=16),
        Workload("ffbp_spmd4", inputs, min_cores=4, quick=False),
        Workload("ffbp_seq", inputs, cpu="ffbp", quick=False),
        Workload("autofocus_mpmd", inputs, cpu="autofocus", min_cores=13),
        Workload("autofocus_seq", inputs, cpu="autofocus"),
    )


def _compare_runs(
    prefix: str,
    ref: RunResult,
    cand: RunResult,
    cycles_tol: Tolerance,
    energy_tol: Tolerance,
) -> list[Check]:
    """All conformance clauses between a reference and candidate run."""
    checks = [
        check_value(f"{prefix}.cycles", cand.cycles, ref.cycles, cycles_tol),
        check_value(
            f"{prefix}.energy_joules",
            cand.energy_joules,
            ref.energy_joules,
            energy_tol,
        ),
        Check(
            name=f"{prefix}.energy_nonneg",
            passed=cand.energy_joules >= 0.0,
            actual=cand.energy_joules,
            expected=">= 0",
        ),
        Check(
            name=f"{prefix}.cycles_positive",
            passed=cand.cycles > 0,
            actual=cand.cycles,
            expected="> 0",
        ),
        check_equal(
            f"{prefix}.results", cand.results, ref.results
        ),
    ]
    rt, ct = ref.trace, cand.trace
    for name in EXACT_TRACE_FIELDS:
        checks.append(
            check_equal(
                f"{prefix}.trace.{name}", getattr(ct, name), getattr(rt, name)
            )
        )
    return checks


def differential_oracle(
    workload: Workload,
    candidates: Sequence[str] = ("analytic:e16",),
    reference: str = "event:e16",
    cycles_tol: Tolerance = CYCLES_TOL,
    energy_tol: Tolerance = ENERGY_TOL,
) -> list[Check]:
    """Replay ``workload`` on ``reference`` and every candidate backend.

    Backends are ``[backend][:spec]`` strings (the registry grammar).
    Candidates whose chip has fewer than ``workload.min_cores`` cores
    are reported as skipped-passes (named, so a shrunk golden suite is
    visible rather than silent).
    """
    ref_cores = resolve_backend(reference)[1].n_cores
    if ref_cores < workload.min_cores:
        raise ValueError(
            f"reference backend {reference!r} has {ref_cores} "
            f"cores; workload {workload.name!r} needs {workload.min_cores}"
        )
    ref = workload.run(reference)
    checks: list[Check] = []
    for cand_name in candidates:
        prefix = f"{workload.name}[{cand_name} vs {reference}]"
        cores = resolve_backend(cand_name)[1].n_cores
        if cores < workload.min_cores:
            checks.append(
                Check(
                    name=f"{prefix}.skipped",
                    passed=True,
                    note=f"chip too small ({cores} cores)",
                )
            )
            continue
        checks.extend(
            _compare_runs(
                prefix, ref, workload.run(cand_name), cycles_tol, energy_tol
            )
        )
    return checks


def fabric_identity_oracle(
    kind: str = "ffbp",
    shard_counts: Sequence[int] = (),
) -> list[Check]:
    """Single-chip == multi-chip byte identity (the fabric contract).

    The sharded SAR executives (:mod:`repro.sar.shard`) promise the
    multi-chip decomposition is *exact*: same image, ``.tobytes()``
    equal, at every shard count and therefore at any ``--jobs`` level.
    ``kind`` selects the workload:

    - ``"ffbp"``  -- subaperture-tree sharding of one 64x65 aperture,
      shard counts 1/2/4 (powers of the merge base);
    - ``"strip"`` -- sub-swath sharding of a 3-frame data take, shard
      counts 1/2/3 (any count; frames are independent apertures).
    """
    from repro.geometry.scene import PointTarget, Scene
    from repro.sar.ffbp import ffbp
    from repro.sar.shard import sharded_ffbp, sharded_strip_mosaic
    from repro.sar.simulate import simulate_compressed
    from repro.sar.strip import StripProcessor, simulate_strip

    checks: list[Check] = []
    if kind == "ffbp":
        cfg = RadarConfig.small(n_pulses=64, n_ranges=65)
        r_mid = 0.5 * (cfg.r0 + cfg.r_max)
        data = simulate_compressed(cfg, Scene.single(40.0, r_mid))
        serial = ffbp(data, cfg)
        for n in shard_counts or (1, 2, 4):
            image = sharded_ffbp(data, cfg, n)
            checks.append(
                Check(
                    name=f"fabric.ffbp.bytes[{n} shards]",
                    passed=(
                        image.data.tobytes() == serial.data.tobytes()
                        and image.data.shape == serial.data.shape
                        and image.data.dtype == serial.data.dtype
                    ),
                    note=(
                        f"sharded_ffbp(n_shards={n}) must equal the "
                        f"serial image bit-for-bit"
                    ),
                )
            )
    elif kind == "strip":
        cfg = RadarConfig.small(n_pulses=64, n_ranges=65)
        total = 3 * cfg.n_pulses
        r_mid = 0.5 * (cfg.r0 + cfg.r_max)
        scene = Scene(
            tuple(
                PointTarget((k + 0.5) * cfg.n_pulses * cfg.spacing, r_mid)
                for k in range(3)
            )
        )
        data = simulate_strip(cfg, scene, total)
        serial = StripProcessor(cfg, hop=64).mosaic(data)
        for n in shard_counts or (1, 2, 3):
            mosaic = sharded_strip_mosaic(cfg, data, n, hop=64)
            checks.append(
                Check(
                    name=f"fabric.strip.bytes[{n} shards]",
                    passed=(
                        mosaic.data.tobytes() == serial.data.tobytes()
                        and mosaic.data.shape == serial.data.shape
                    ),
                    note=(
                        f"sharded_strip_mosaic(n_shards={n}) must equal "
                        f"the serial mosaic bit-for-bit"
                    ),
                )
            )
    else:
        raise ValueError(
            f"unknown fabric identity workload {kind!r}; "
            f"expected 'ffbp' or 'strip'"
        )
    return checks


def fabric_timing_oracle(
    spec: str = "2x(e16)",
    cfg: RadarConfig | None = None,
    cycles_tol: Tolerance = CYCLES_TOL,
    energy_tol: Tolerance = ENERGY_TOL,
) -> list[Check]:
    """Analytic-vs-event conformance of the fabric FFBP executive.

    Replays :func:`~repro.kernels.ffbp_fabric.run_ffbp_fabric` on the
    event and analytic builds of one fabric spec: exact counters and
    results (same generators), banded cycles/energy (the single-chip
    analytic contract, which the phased executive must not loosen).
    The default scale is the :class:`RunInputs` one -- 256x257 is the
    smallest scale at which fixed costs (pipeline fill, first-touch
    DMA, and here the one-shot e-link wait) stop dominating the parity
    ratio.
    """
    inputs = RunInputs(cfg) if cfg is not None else RunInputs()
    ref = verify_run("ffbp_fabric", f"event:{spec}", inputs)
    cand = verify_run("ffbp_fabric", f"analytic:{spec}", inputs)
    prefix = f"ffbp_fabric[analytic:{spec} vs event:{spec}]"
    return _compare_runs(prefix, ref, cand, cycles_tol, energy_tol)


def work_parity_oracle(
    workloads: Iterable[Workload],
    reference: str = "event:e16",
) -> list[Check]:
    """CPU-reference work parity: identical operation totals.

    The i7 model times *the same arithmetic* as the Epiphany kernels;
    if the flop or external-byte totals drift apart, the Table-I
    speedups compare different computations and are meaningless.
    """
    checks: list[Check] = []
    for wl in workloads:
        if wl.cpu is None:
            continue
        epi = wl.run(reference).trace
        cpu = verify_cpu_run(wl.cpu, wl.inputs).trace
        checks.append(
            check_equal(
                f"{wl.name}.work.total_flops",
                cpu.total_flops,
                epi.total_flops,
            )
        )
        checks.append(
            Check(
                name=f"{wl.name}.work.flops_positive",
                passed=cpu.total_flops > 0,
                actual=cpu.total_flops,
                expected="> 0",
            )
        )
    return checks
