"""Parallel SPMD FFBP on 16 Epiphany cores.

Paper Section V-B: the same program runs on every core; the resulting
image is divided into independent slices (paper Fig. 6); the
contributing subaperture data is prefetched into the two upper local
banks (16,016 bytes); result rows are posted to external SDRAM
("its effect is less pronounced because ... the write operation is
performed without stalling"); and a barrier separates merge iterations
(the next iteration reads what this one wrote).

During the first merges the prefetched window covers all contributing
data; at later stages the contributing samples spread over more child
beam rows than the window holds, and the spill becomes blocking
word-granular external reads -- "in the later iterations it still
requires contributing data to be read from the external memory".  The
split between the two is computed from the real index maps by
:mod:`repro.kernels.ffbp_common`.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.machine.api import Machine, MachineContext, RunResult, store
from repro.kernels.ffbp_common import FfbpPlan, StagePlan
from repro.kernels.opcounts import COMPLEX_BYTES, row_op_block
from repro.runtime.spmd import partition, run_spmd


def _core_row_spans(
    stage: StagePlan, core_id: int, n_cores: int
) -> list[tuple[int, int, int]]:
    """This core's share of a stage as ``(parent, k0, k1)`` spans.

    Rows are ordered parent-major; each core receives a balanced
    contiguous block, which maps to at most a few partial-parent spans.
    """
    sl = partition(stage.rows, n_cores)[core_id]
    spans: list[tuple[int, int, int]] = []
    row = sl.start
    while row < sl.stop:
        parent = row // stage.beams
        k0 = row % stage.beams
        k1 = min(stage.beams, k0 + (sl.stop - row))
        spans.append((parent, k0, k1))
        row += k1 - k0
    return spans


def ffbp_spmd_kernel(plan: FfbpPlan, n_cores: int, interpolation: str = "nearest"):
    """Build the per-core SPMD kernel generator for a plan.

    Per-beam row tables (op blocks, external-read counts, store lists)
    are resolved once here and shared by every core's generator: the
    blocks are memoised and frozen, so per-row lookups reduce to list
    indexing on both backends.
    """
    stage_rows = []
    for stage in plan.stages:
        row_bytes = stage.n_ranges * COMPLEX_BYTES
        stage_rows.append(
            (
                [
                    row_op_block(v, stage.n_ranges, interpolation)
                    for v in stage.valid_frac.tolist()
                ],
                [int(r) for r in stage.reads_row_ext.tolist()],
                (store(row_bytes),),
                row_bytes,
            )
        )

    def kernel(ctx: MachineContext) -> Iterator[Any]:
        core = ctx.core_id
        for stage, (blocks, reads_ext, row_store, row_bytes) in zip(
            plan.stages, stage_rows
        ):
            spans = _core_row_spans(stage, core, n_cores)
            n_rows = sum(k1 - k0 for _p, k0, k1 in spans)
            if n_rows == 0:
                yield from ctx.barrier()
                continue
            # Total window traffic this core needs this stage, spread
            # evenly across its rows and double-buffered with compute.
            prefetch_bytes = sum(
                stage.prefetch_rows_for_span(k0, k1) * row_bytes
                for _p, k0, k1 in spans
            )
            per_row_prefetch = prefetch_bytes / n_rows
            token = ctx.dma_prefetch(per_row_prefetch)
            for _parent, k0, k1 in spans:
                for k in range(k0, k1):
                    yield from ctx.dma_wait(token)
                    token = ctx.dma_prefetch(per_row_prefetch)
                    # Window spill: word-granular blocking reads.
                    yield from ctx.ext_scatter_read(reads_ext[k])
                    yield from ctx.work(blocks[k], row_store)
            yield from ctx.dma_wait(token)
            # Merge iterations are bulk-synchronous: the next stage
            # reads this stage's output from external memory.
            yield from ctx.barrier()

    # Everything the generator's behaviour depends on beyond source
    # code (which the memo layer's code_version covers) is the plan,
    # the core count and the interpolation mode: the replay cache key
    # (see repro.replay.machine).
    kernel.__replay_fp__ = ("ffbp-spmd", plan, n_cores, interpolation)

    return kernel


def run_ffbp_spmd(
    machine: Machine,
    plan: FfbpPlan,
    n_cores: int | None = None,
    interpolation: str = "nearest",
) -> RunResult:
    """Run the parallel FFBP timing model on ``n_cores`` cores.

    Launches through :func:`repro.runtime.spmd.run_spmd`, so a backend
    deadlock (a barrier party lost to an injected fault) surfaces as a
    structured :class:`~repro.faults.report.DeadlockReport` rather than
    a bare engine error.
    """
    cores = n_cores if n_cores is not None else machine.n_cores
    if not 1 <= cores <= machine.n_cores:
        raise ValueError(f"n_cores must be in 1..{machine.n_cores}")
    kernel = ffbp_spmd_kernel(plan, cores, interpolation)
    return run_spmd(machine, cores, kernel)
