"""Sequential FFBP on one Epiphany core.

Paper Section V-B: "In the sequential version the complete algorithm is
executed on a single core of Epiphany."  The image data lives in
off-chip SDRAM; without caches, every child-sample lookup is a blocking
word read over the e-link ("the image data is stored in the off-chip
SDRAM whose access time is much longer"), while the result rows are
posted writes.  This is the configuration the paper measures at
3582 ms (Table I) -- ~3x slower than the i7 reference.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.machine.api import Machine, MachineContext, RunResult, store
from repro.kernels.ffbp_common import FfbpPlan
from repro.kernels.opcounts import COMPLEX_BYTES, row_op_block


def ffbp_seq_kernel(plan: FfbpPlan):
    """Build the single-core kernel generator for a plan.

    Per-beam row tables are resolved once up front -- every parent of a
    stage repeats the same beam profile, so the per-row loop reduces to
    list indexing (the blocks are memoised and frozen).
    """
    stage_rows = []
    for stage in plan.stages:
        stage_rows.append(
            (
                [
                    # The child lookups go word-by-word to external
                    # memory (``external_lookups=True`` strips the
                    # local loads).
                    row_op_block(v, stage.n_ranges, external_lookups=True)
                    for v in stage.valid_frac.tolist()
                ],
                [int(r) for r in stage.reads_row_total.tolist()],
                (store(stage.n_ranges * COMPLEX_BYTES),),
            )
        )

    def kernel(ctx: MachineContext) -> Iterator[Any]:
        for stage, (blocks, reads_total, row_store) in zip(
            plan.stages, stage_rows
        ):
            for _parent in range(stage.n_parents):
                for k in range(stage.beams):
                    # Geometry + combining for one output row.
                    yield from ctx.ext_scatter_read(reads_total[k])
                    yield from ctx.work(blocks[k], row_store)

    kernel.__replay_fp__ = ("ffbp-seq", plan)
    return kernel


def run_ffbp_seq_epiphany(machine: Machine, plan: FfbpPlan) -> RunResult:
    """Run the sequential FFBP timing model on one Epiphany core."""
    return machine.run({0: ffbp_seq_kernel(plan)})
