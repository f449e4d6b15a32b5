"""The application executive: one focused image, end to end, on chip.

The paper evaluates FFBP and the autofocus criterion separately; the
system it describes interleaves them — before each subaperture merge,
criterion calculations run for the merge's parents, then the merge
itself executes.  This module runs that alternation *in the simulator*:
phases execute back-to-back on the same chip (the engine clock carries
across phases), so the reported total is one coherent timeline rather
than a sum of independent runs.

Phases per merge level ``L`` (with enough beams for a 6x6 block):

1. **autofocus phase** — the 13-core MPMD pipeline evaluates one
   criterion calculation per parent subaperture of level ``L``;
2. **merge phase** — the 16-core SPMD kernel executes stage ``L``'s
   element combining.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.apertures import SubapertureTree
from repro.kernels.autofocus_mpmd import build_pipeline, paper_placement
from repro.kernels.ffbp_common import FfbpPlan, StagePlan
from repro.kernels.ffbp_spmd import _core_row_spans
from repro.kernels.opcounts import COMPLEX_BYTES, AutofocusWorkload, row_op_block
from repro.machine.api import Machine, store
from repro.sar.config import RadarConfig


@dataclass(frozen=True)
class PhaseReport:
    """Timing of one executive phase."""

    level: int
    kind: str  # "autofocus" | "merge"
    cycles: int
    detail: str = ""


@dataclass(frozen=True)
class ApplicationResult:
    """One focused image's on-chip execution."""

    phases: tuple[PhaseReport, ...]
    total_cycles: int
    seconds: float
    energy_joules: float
    average_power_w: float

    def cycles_of(self, kind: str) -> int:
        return sum(p.cycles for p in self.phases if p.kind == kind)

    @property
    def autofocus_share(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.cycles_of("autofocus") / self.total_cycles


def _merge_stage_kernel(stage: StagePlan, n_cores: int):
    """SPMD kernel for a single merge stage (one barrier at the end)."""
    row_bytes = stage.n_ranges * COMPLEX_BYTES
    row_store = (store(row_bytes),)
    blocks = [
        row_op_block(v, stage.n_ranges) for v in stage.valid_frac.tolist()
    ]
    reads_ext = [int(r) for r in stage.reads_row_ext.tolist()]

    def kernel(ctx):
        spans = _core_row_spans(stage, ctx.core_id, n_cores)
        n_rows = sum(k1 - k0 for _p, k0, k1 in spans)
        if n_rows == 0:
            yield from ctx.barrier()
            return
        prefetch_bytes = sum(
            stage.prefetch_rows_for_span(k0, k1) * row_bytes
            for _p, k0, k1 in spans
        )
        per_row = prefetch_bytes / n_rows
        token = ctx.dma_prefetch(per_row)
        for _parent, k0, k1 in spans:
            for k in range(k0, k1):
                yield from ctx.dma_wait(token)
                token = ctx.dma_prefetch(per_row)
                yield from ctx.ext_scatter_read(reads_ext[k])
                yield from ctx.work(blocks[k], row_store)
        yield from ctx.dma_wait(token)
        yield from ctx.barrier()

    kernel.__replay_fp__ = ("ffbp-merge-stage", stage, n_cores)
    return kernel


def run_focused_image(
    machine: Machine,
    plan: FfbpPlan,
    af_work: AutofocusWorkload | None = None,
    min_beams: int = 8,
    n_cores: int = 16,
    exact: bool = False,
) -> ApplicationResult:
    """Execute one full image formation with autofocus on ``machine``.

    The same machine object carries the clock across phases; per-phase
    cycle counts come from machine-time deltas.

    ``exact=False`` (default) simulates one criterion calculation per
    level in full and advances the clock for the remaining identical
    calculations at the measured per-calculation cost (they are
    independent, so steady-state replication is exact up to pipeline
    fill, which the simulated one includes).  ``exact=True`` simulates
    every calculation event by event.
    """
    work = af_work or AutofocusWorkload()
    cfg: RadarConfig = plan.cfg
    tree = SubapertureTree(cfg.n_pulses, cfg.spacing, cfg.merge_base)
    phases: list[PhaseReport] = []
    start_total = machine.now

    for stage in plan.stages:
        level = stage.level
        parents = tree.stage(level)
        if parents.beams >= min_beams:
            # One criterion calculation per parent of this merge.
            before = machine.now
            n_calcs = parents.n_subapertures
            simulated = n_calcs if exact else 1
            for _parent in range(simulated):
                pipe = build_pipeline(
                    machine,
                    work,
                    paper_placement(
                        work, machine.spec.mesh_rows, machine.spec.mesh_cols
                    ),
                )
                pipe.run()
                _release_pipeline_buffers(machine, pipe)
            if not exact and n_calcs > 1:
                per_calc = machine.now - before
                machine.advance((n_calcs - 1) * per_calc, busy_cores=13)
            phases.append(
                PhaseReport(
                    level=level,
                    kind="autofocus",
                    cycles=machine.now - before,
                    detail=f"{parents.n_subapertures} criterion calc(s)",
                )
            )
        before = machine.now
        machine.run(
            {c: _merge_stage_kernel(stage, n_cores) for c in range(n_cores)}
        )
        phases.append(
            PhaseReport(
                level=level,
                kind="merge",
                cycles=machine.now - before,
                detail=f"{stage.rows} output rows",
            )
        )

    total = machine.now - start_total
    seconds = total / machine.spec.clock_hz
    energy = machine.energy.energy_joules(machine.now, active_cores=n_cores)
    power = machine.energy.average_power_w(machine.now, active_cores=n_cores)
    return ApplicationResult(
        phases=tuple(phases),
        total_cycles=total,
        seconds=seconds,
        energy_joules=energy,
        average_power_w=power,
    )


def _release_pipeline_buffers(machine: Machine, pipe) -> None:
    """Free the channel slots a finished pipeline reserved, so repeated
    criterion calculations do not leak scratchpad."""
    for (a, b), ch in pipe.channels.items():
        if ch.payload_bytes is not None:
            machine.context(ch.dst_core).local.free(
                ch.capacity * ch.payload_bytes
            )
