"""Sequential autofocus criterion calculation on one Epiphany core.

Paper Section V-C / VI: the whole criterion calculation -- cubic
(Neville) range interpolation, beam interpolation, correlation and
summation, for every candidate compensation, over three iterations --
runs on a single core.  "Since the working data set of the kernel fits
completely in the on-die storage of Epiphany, the effects of memory
latency are not very visible": the two 6x6 input blocks and all
intermediates live in local memory, so the kernel is pure compute plus
one result write.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.machine.api import Machine, MachineContext, RunResult, store
from repro.kernels.opcounts import (
    AUTOFOCUS_CORR,
    AUTOFOCUS_INTERP,
    AutofocusWorkload,
)


def autofocus_seq_kernel(work: AutofocusWorkload):
    """Build the single-core kernel generator for a workload."""

    def kernel(ctx: MachineContext) -> Iterator[Any]:
        # Input blocks arrive once from SDRAM into local memory.
        ctx.local.allocate(2 * work.block_bytes)
        yield from ctx.ext_scatter_read(2 * work.pixels)
        interp = AUTOFOCUS_INTERP.scaled(work.interps_per_candidate)
        corr = AUTOFOCUS_CORR.scaled(work.corr_pixels_per_candidate)
        for _iteration in range(work.iterations):
            for _cand in range(work.n_candidates):
                yield from ctx.work(interp)
                yield from ctx.work(corr)
        # The final criterion value goes back to SDRAM (posted).
        yield from ctx.work(type(AUTOFOCUS_CORR)(), [store(8)])
        ctx.local.free(2 * work.block_bytes)

    kernel.__replay_fp__ = ("autofocus-seq", work)
    return kernel


def run_autofocus_seq_epiphany(
    machine: Machine, work: AutofocusWorkload
) -> RunResult:
    """Run the sequential autofocus timing model on one Epiphany core."""
    return machine.run({0: autofocus_seq_kernel(work)})
