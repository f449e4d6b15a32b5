"""Global back-projection timing kernels.

GBP is the quality baseline of paper Fig. 7 and the complexity
motivation for FFBP (Section I: FFBP "reduces the performance
requirements significantly relative to those for the conventional
Global Back-projection").  These kernels let the simulator quantify
that: per output pixel GBP integrates *every* pulse (N element
combinings), where FFBP needs ``merge_base * log_b N`` spread over the
stages.

The per-pixel-per-pulse op mix matches the FFBP element combining
minus the arccos (GBP needs only the exact range, not the child angle
lookup): one hypot-style distance (2 FMAs + sqrt), index arithmetic,
one data fetch and one accumulate.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.kernels.opcounts import COMPLEX_BYTES
from repro.machine.api import Machine, MachineContext, RunResult, load, store
from repro.machine.core import OpBlock
from repro.machine.cpu import CpuContext, CpuMachine, CpuRunResult
from repro.runtime.spmd import partition
from repro.sar.config import RadarConfig

GBP_SAMPLE_PER_PULSE = OpBlock(
    flops=2.0,  # complex accumulate
    fmas=2.0,  # dx*dx + dy*dy
    sqrts=1.0,  # the range
    int_ops=6.0,  # bin index + bounds check
    local_loads=1.0,
)
"""Work per output pixel per integrated pulse."""


def gbp_pixel_ops(n_pulses: int) -> OpBlock:
    """All arithmetic for one GBP output pixel."""
    return GBP_SAMPLE_PER_PULSE.scaled(n_pulses) + OpBlock(local_stores=1.0)


def gbp_cpu_kernel(cfg: RadarConfig, n_pixels: int | None = None):
    """Single-threaded GBP on the reference CPU model.

    Per pulse, the accessed range samples sweep a contiguous-ish curve
    through that pulse's range profile, so the access pattern is
    random at image working-set scale (like FFBP's gathers).
    """
    pixels = n_pixels if n_pixels is not None else cfg.n_pulses * cfg.n_ranges
    image_bytes = cfg.n_pulses * cfg.n_ranges * COMPLEX_BYTES

    def kernel(ctx: CpuContext) -> Iterator[Any]:
        # One work item per pulse sweep over all pixels.
        per_pulse = GBP_SAMPLE_PER_PULSE.scaled(pixels)
        for _pulse in range(cfg.n_pulses):
            yield from ctx.work(
                per_pulse,
                [
                    load(
                        pixels * COMPLEX_BYTES,
                        pattern="random",
                        working_set=float(image_bytes),
                        access_bytes=COMPLEX_BYTES,
                    )
                ],
            )
        yield from ctx.work(OpBlock(), [store(pixels * COMPLEX_BYTES)])

    return kernel


def run_gbp_cpu(
    machine: CpuMachine, cfg: RadarConfig, n_pixels: int | None = None
) -> CpuRunResult:
    """Run the sequential GBP timing model on the reference CPU."""
    return machine.run(gbp_cpu_kernel(cfg, n_pixels))


def gbp_spmd_kernel(cfg: RadarConfig, n_cores: int, n_pixels: int | None = None):
    """SPMD GBP on the Epiphany model.

    Pixels partition perfectly (no inter-pixel dependency at all);
    each core streams every pulse's range profile through its local
    banks via DMA (GBP's access per pulse is a bounded swath of bins,
    so streaming works — unlike FFBP's late-stage scatter), computes
    its pixel slice, and posts results.
    """
    pixels = n_pixels if n_pixels is not None else cfg.n_pulses * cfg.n_ranges
    row_bytes = cfg.n_ranges * COMPLEX_BYTES

    def kernel(ctx: MachineContext) -> Iterator[Any]:
        share = partition(pixels, n_cores)[ctx.core_id]
        my_pixels = share.stop - share.start
        if my_pixels == 0:
            yield from ctx.barrier()
            return
        token = ctx.dma_prefetch(row_bytes)
        for _pulse in range(cfg.n_pulses):
            yield from ctx.dma_wait(token)
            token = ctx.dma_prefetch(row_bytes)
            yield from ctx.work(GBP_SAMPLE_PER_PULSE.scaled(my_pixels))
        yield from ctx.dma_wait(token)
        yield from ctx.work(OpBlock(), [store(my_pixels * COMPLEX_BYTES)])
        yield from ctx.barrier()

    kernel.__replay_fp__ = ("gbp-spmd", cfg, n_cores, pixels)
    return kernel


def run_gbp_spmd(
    machine: Machine,
    cfg: RadarConfig,
    n_cores: int | None = None,
    n_pixels: int | None = None,
) -> RunResult:
    """Run the parallel GBP timing model."""
    cores = n_cores if n_cores is not None else machine.n_cores
    kernel = gbp_spmd_kernel(cfg, cores, n_pixels)
    return machine.run({c: kernel for c in range(cores)})
