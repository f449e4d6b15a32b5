"""Table I: resources, performance, and estimated power.

Regenerates every row of the paper's Table I for both case studies:
core counts, execution time, throughput (autofocus), speedup over the
sequential i7 reference, and estimated power -- plus, beyond the paper,
the activity model's measured average power.

The row arithmetic lives in :func:`ffbp_rows` and
:func:`autofocus_rows`, which build a case study's rows from its three
runs; :func:`ffbp_table` and :func:`autofocus_table` make those runs
and call them, and the verify gate's Table-I fingerprint calls them on
its shared runs.  The paper's reference numbers are kept in
:data:`PAPER_TABLE1` so benchmarks can assert the reproduction's shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec import ExperimentRunner, TaskSpec
from repro.kernels.autofocus_mpmd import run_autofocus_mpmd
from repro.kernels.autofocus_seq import run_autofocus_seq_epiphany
from repro.kernels.cpu_ref import run_autofocus_cpu, run_ffbp_cpu
from repro.kernels.ffbp_common import FfbpPlan, plan_ffbp
from repro.kernels.ffbp_seq import run_ffbp_seq_epiphany
from repro.kernels.ffbp_spmd import run_ffbp_spmd
from repro.kernels.opcounts import AutofocusWorkload
from repro.machine.api import RunResult
from repro.machine.backends import resolve_backend
from repro.machine.cpu import CpuMachine, CpuRunResult
from repro.machine.specs import CpuSpec, EpiphanySpec
from repro.sar.config import RadarConfig

PAPER_TABLE1: dict[str, dict[str, float]] = {
    # FFBP implementations (execution time in ms).
    "ffbp_cpu": {"cores": 1, "time_ms": 1295.0, "speedup": 1.0, "power_w": 17.5},
    "ffbp_epi_seq": {"cores": 1, "time_ms": 3582.0, "speedup": 0.36, "power_w": 2.0},
    "ffbp_epi_par": {"cores": 16, "time_ms": 305.0, "speedup": 4.25, "power_w": 2.0},
    # Autofocus implementations (throughput in pixels/s).
    "af_cpu": {"cores": 1, "tput": 21600.0, "speedup": 1.0, "power_w": 17.5},
    "af_epi_seq": {"cores": 1, "tput": 17668.0, "speedup": 0.8, "power_w": 2.0},
    "af_epi_par": {"cores": 13, "tput": 192857.0, "speedup": 8.93, "power_w": 2.0},
    # Section VI text figures.
    "ffbp_par_vs_seq": {"speedup": 11.7},
    "af_par_vs_seq": {"speedup": 10.9},
}


@dataclass(frozen=True)
class Table1Row:
    """One implementation row of Table I."""

    name: str
    cores: int
    time_ms: float
    throughput_px_s: float | None
    speedup: float
    estimated_power_w: float
    modeled_power_w: float
    energy_j: float

    def efficiency(self) -> float:
        """Throughput per watt (the paper's energy-efficiency metric).

        For FFBP (no throughput column) the rate is 1/time; the ratio
        between implementations is what matters.
        """
        rate = (
            self.throughput_px_s
            if self.throughput_px_s is not None
            else 1000.0 / self.time_ms
        )
        return rate / self.estimated_power_w


@dataclass(frozen=True)
class Table1:
    """A reproduced case-study table."""

    rows: tuple[Table1Row, ...]

    def row(self, name: str) -> Table1Row:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def format(self) -> str:
        from repro.eval.report import format_table

        body = []
        for r in self.rows:
            body.append(
                [
                    r.name,
                    str(r.cores),
                    f"{r.time_ms:.1f}",
                    f"{r.throughput_px_s:.0f}" if r.throughput_px_s else "-",
                    f"{r.speedup:.2f}",
                    f"{r.estimated_power_w:.1f}",
                    f"{r.modeled_power_w:.2f}",
                ]
            )
        return format_table(
            ["implementation", "cores", "time(ms)", "px/s", "speedup", "P_est(W)", "P_model(W)"],
            body,
        )


# -- row arithmetic ----------------------------------------------------------

def _rows(
    prefix: str,
    r_cpu: CpuRunResult,
    r_seq: RunResult,
    r_par: RunResult,
    espec: EpiphanySpec,
    cspec: CpuSpec,
    par_cores: int,
    pixels: int | None = None,
) -> Table1:
    """The i7, sequential-Epiphany and parallel-Epiphany rows of one
    case study; ``pixels`` adds the throughput column."""

    def row(name, cores, r, power_w, model_w) -> Table1Row:
        return Table1Row(
            name=f"{prefix}_{name}",
            cores=cores,
            time_ms=r.seconds * 1e3,
            throughput_px_s=None if pixels is None else pixels / r.seconds,
            speedup=r_cpu.seconds / r.seconds,
            estimated_power_w=power_w,
            modeled_power_w=model_w,
            energy_j=r.energy_joules,
        )

    chip_w = espec.datasheet_chip_power_w
    return Table1(
        (
            row("cpu", 1, r_cpu, cspec.power_w, cspec.power_w),
            row("epi_seq", 1, r_seq, chip_w, r_seq.average_power_w),
            row("epi_par", par_cores, r_par, chip_w, r_par.average_power_w),
        )
    )


def ffbp_rows(
    r_cpu: CpuRunResult,
    r_seq: RunResult,
    r_par: RunResult,
    espec: EpiphanySpec,
    cspec: CpuSpec,
    n_cores: int = 16,
) -> Table1:
    """The three FFBP rows of Table I from their three runs: the i7
    reference, the sequential Epiphany kernel and the ``n_cores`` SPMD
    kernel."""
    return _rows("ffbp", r_cpu, r_seq, r_par, espec, cspec, n_cores)


def autofocus_rows(
    r_cpu: CpuRunResult,
    r_seq: RunResult,
    r_par: RunResult,
    espec: EpiphanySpec,
    cspec: CpuSpec,
    work: AutofocusWorkload,
) -> Table1:
    """The three autofocus rows of Table I from their three runs: the
    i7 reference, the sequential Epiphany kernel and the 13-core MPMD
    pipeline; throughput is ``work.pixels`` per run second."""
    return _rows("af", r_cpu, r_seq, r_par, espec, cspec, 13, work.pixels)


# -- row workers (module level: picklable for parallel fan-out) -------------

def _ffbp_row(
    kind: str,
    backend: str,
    espec: EpiphanySpec,
    cspec: CpuSpec,
    plan: FfbpPlan,
    n_cores: int,
):
    make, _ = resolve_backend(backend)
    if kind == "cpu":
        return run_ffbp_cpu(CpuMachine(cspec), plan)
    if kind == "seq":
        return run_ffbp_seq_epiphany(make(espec), plan)
    return run_ffbp_spmd(make(espec), plan, n_cores)


def _af_row(
    kind: str,
    backend: str,
    espec: EpiphanySpec,
    cspec: CpuSpec,
    work: AutofocusWorkload,
):
    make, _ = resolve_backend(backend)
    if kind == "cpu":
        return run_autofocus_cpu(CpuMachine(cspec), work)
    if kind == "seq":
        return run_autofocus_seq_epiphany(make(espec), work)
    return run_autofocus_mpmd(make(espec), work)


def ffbp_table(
    cfg: RadarConfig | None = None,
    plan: FfbpPlan | None = None,
    n_cores: int = 16,
    epiphany_spec: EpiphanySpec | None = None,
    cpu_spec: CpuSpec | None = None,
    backend: str = "event",
    jobs: int = 1,
) -> Table1:
    """Reproduce the three FFBP rows of Table I.

    ``backend`` selects the Epiphany simulation engine; Table-I-grade
    numbers come from the default calibrated event engine, the analytic
    backend gives a fast (few-percent) approximation.  ``jobs > 1``
    fans the three independent row simulations out over worker
    processes (byte-identical rows at any jobs level).
    """
    make, base_spec = resolve_backend(backend)
    espec = epiphany_spec or base_spec
    cspec = cpu_spec or CpuSpec()
    if plan is None:
        plan = plan_ffbp(cfg or RadarConfig.paper())

    runner = ExperimentRunner(jobs=jobs)
    r_cpu, r_seq, r_par = (
        r.value
        for r in runner.run(
            [
                TaskSpec(
                    key=f"table1/ffbp/{backend}/{kind}",
                    fn=_ffbp_row,
                    args=(kind, backend, espec, cspec, plan, n_cores),
                )
                for kind in ("cpu", "seq", "par")
            ]
        )
    )
    return ffbp_rows(r_cpu, r_seq, r_par, espec, cspec, n_cores)


def autofocus_table(
    work: AutofocusWorkload | None = None,
    epiphany_spec: EpiphanySpec | None = None,
    cpu_spec: CpuSpec | None = None,
    backend: str = "event",
    jobs: int = 1,
) -> Table1:
    """Reproduce the three autofocus rows of Table I."""
    w = work or AutofocusWorkload()
    make, base_spec = resolve_backend(backend)
    espec = epiphany_spec or base_spec
    cspec = cpu_spec or CpuSpec()

    runner = ExperimentRunner(jobs=jobs)
    r_cpu, r_seq, r_par = (
        r.value
        for r in runner.run(
            [
                TaskSpec(
                    key=f"table1/af/{backend}/{kind}",
                    fn=_af_row,
                    args=(kind, backend, espec, cspec, w),
                )
                for kind in ("cpu", "seq", "par")
            ]
        )
    )
    return autofocus_rows(r_cpu, r_seq, r_par, espec, cspec, w)


def full_table1(
    cfg: RadarConfig | None = None,
    work: AutofocusWorkload | None = None,
    backend: str = "event",
    jobs: int = 1,
) -> tuple[Table1, Table1]:
    """Both halves of Table I at the paper's workload scale."""
    return (
        ffbp_table(cfg, backend=backend, jobs=jobs),
        autofocus_table(work, backend=backend, jobs=jobs),
    )
