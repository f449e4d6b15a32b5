"""Parallel MPMD autofocus on 13 Epiphany cores (paper Fig. 9).

The criterion calculation is split into a streaming pipeline:

- per input block, three *range interpolator* cores each resample a
  share of the block's rows (the paper: "the range interpolators
  perform the same operation on different rows and the first four
  columns of pixel data"),
- three *beam interpolator* cores per block each receive their range
  interpolated pixels and resample in the beam direction,
- one *correlator* core receives all six beam-interpolator streams,
  evaluates the focus criterion and accumulates the sum, writing the
  final value to SDRAM.

That is 2 x (3 + 3) + 1 = 13 cores; "the three spare cores can then be
used to execute the subsequent stages of SAR signal processing".
Placement keeps each producer adjacent to its consumer, mirroring the
paper's custom mapping that "avoids transactions with distant cores";
the naive alternative is available for the mapping ablation.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.machine.api import Machine, MachineContext, RunResult, store
from repro.machine.core import OpBlock
from repro.kernels.opcounts import (
    AUTOFOCUS_CORR,
    AUTOFOCUS_INTERP,
    COMPLEX_BYTES,
    AutofocusWorkload,
)
from repro.runtime.channels import Channel
from repro.runtime.mapping import Placement, TaskGraph, linear_place
from repro.runtime.mpmd import Pipeline, Task

BLOCKS = ("a", "b")
LANES = 3


def task_names() -> list[str]:
    """The 13 task names: ri/bi per block and lane, plus corr."""
    names = []
    for blk in BLOCKS:
        names += [f"ri_{blk}{i}" for i in range(LANES)]
        names += [f"bi_{blk}{i}" for i in range(LANES)]
    names.append("corr")
    return names


def autofocus_task_graph(work: AutofocusWorkload) -> TaskGraph:
    """Task graph with per-candidate traffic weights in bytes."""
    lane_pixels = work.pixels // LANES
    lane_bytes = lane_pixels * COMPLEX_BYTES
    edges: dict[tuple[str, str], float] = {}
    for blk in BLOCKS:
        for i in range(LANES):
            edges[(f"ri_{blk}{i}", f"bi_{blk}{i}")] = lane_bytes
            edges[(f"bi_{blk}{i}", "corr")] = lane_bytes
    return TaskGraph(tasks=tuple(task_names()), edges=edges)


def paper_placement(work: AutofocusWorkload, rows: int = 4, cols: int = 4) -> Placement:
    """The Fig. 9-style custom mapping: producers adjacent to consumers.

    Block a occupies columns 0-1, block b columns 2-3, with each range
    interpolator right next to its beam interpolator, and the
    correlator adjacent to the beam-interpolator columns.  Three cores
    remain unused.
    """
    graph = autofocus_task_graph(work)
    coords = {}
    for i in range(LANES):
        coords[f"ri_a{i}"] = (i, 0)
        coords[f"bi_a{i}"] = (i, 1)
        coords[f"bi_b{i}"] = (i, 2)
        coords[f"ri_b{i}"] = (i, 3)
    coords["corr"] = (3, 1)
    return Placement(graph, coords, rows, cols)


def naive_placement(work: AutofocusWorkload, rows: int = 4, cols: int = 4) -> Placement:
    """Row-major placement ignoring communication (mapping ablation)."""
    return linear_place(autofocus_task_graph(work), rows, cols)


def _ri_program(work: AutofocusWorkload, lane_pixels: int):
    def program(
        ctx: MachineContext,
        ins: dict[str, Channel],
        outs: dict[str, Channel],
    ) -> Iterator[Any]:
        (out,) = outs.values()
        lane_bytes = lane_pixels * COMPLEX_BYTES
        interp = AUTOFOCUS_INTERP.scaled(lane_pixels)
        # Input share arrives once from SDRAM; the paper also copies
        # input pixels to the adjacent core's local memory.
        ctx.local.allocate(2 * lane_bytes)
        yield from ctx.ext_scatter_read(lane_pixels)
        for _it in range(work.iterations):
            for _cand in range(work.n_candidates):
                yield from ctx.work(interp)
                yield from out.send(ctx, lane_bytes)
        ctx.local.free(2 * lane_bytes)

    program.__replay_fp__ = ("autofocus-ri", work, lane_pixels)
    return program


def _bi_program(work: AutofocusWorkload, lane_pixels: int):
    def program(
        ctx: MachineContext,
        ins: dict[str, Channel],
        outs: dict[str, Channel],
    ) -> Iterator[Any]:
        (inp,) = ins.values()
        (out,) = outs.values()
        lane_bytes = lane_pixels * COMPLEX_BYTES
        interp = AUTOFOCUS_INTERP.scaled(lane_pixels)
        for _it in range(work.iterations):
            for _cand in range(work.n_candidates):
                yield from inp.recv(ctx)
                yield from ctx.work(interp)
                yield from out.send(ctx, lane_bytes)

    program.__replay_fp__ = ("autofocus-bi", work, lane_pixels)
    return program


def _corr_program(work: AutofocusWorkload):
    def program(
        ctx: MachineContext,
        ins: dict[str, Channel],
        outs: dict[str, Channel],
    ) -> Iterator[Any]:
        inputs = list(ins.values())
        corr = AUTOFOCUS_CORR.scaled(work.corr_pixels_per_candidate)
        for _it in range(work.iterations):
            for _cand in range(work.n_candidates):
                for ch in inputs:
                    yield from ch.recv(ctx)
                yield from ctx.work(corr)
        # Final criterion value to SDRAM (posted write).
        yield from ctx.work(OpBlock(), [store(8)])

    program.__replay_fp__ = ("autofocus-corr", work)
    return program


def build_pipeline(
    machine: Machine,
    work: AutofocusWorkload,
    placement: Placement | None = None,
    channel_capacity: int = 2,
    watchdog: int | None = None,
) -> Pipeline:
    """Assemble the 13-task pipeline on a machine."""
    if work.pixels % LANES != 0:
        raise ValueError(
            f"block of {work.pixels} pixels does not split over {LANES} lanes"
        )
    lane_pixels = work.pixels // LANES
    place = placement or paper_placement(
        work, machine.spec.mesh_rows, machine.spec.mesh_cols
    )
    payloads = {
        edge: lane_pixels * COMPLEX_BYTES for edge in place.graph.edges
    }
    tasks = []
    for name in task_names():
        if name == "corr":
            tasks.append(Task(name, _corr_program(work)))
        elif name.startswith("ri_"):
            tasks.append(Task(name, _ri_program(work, lane_pixels)))
        else:
            tasks.append(Task(name, _bi_program(work, lane_pixels)))
    return Pipeline(
        machine,
        tasks,
        place,
        channel_capacity=channel_capacity,
        payload_bytes=payloads,
        watchdog=watchdog,
    )


def run_autofocus_mpmd(
    machine: Machine,
    work: AutofocusWorkload,
    placement: Placement | None = None,
) -> RunResult:
    """Run the 13-core autofocus pipeline timing model."""
    return build_pipeline(machine, work, placement).run()


def run_autofocus_mpmd_resilient(
    machine: Machine,
    work: AutofocusWorkload,
    placement: Placement | None = None,
    watchdog: int | None = None,
) -> tuple[RunResult, dict[str, tuple[int, int]]]:
    """Autofocus with graceful degradation around dead cores.

    Machines that expose ``dead_cores()`` (a
    :class:`~repro.faults.inject.FaultyMachine` whose plan crashes a
    core before cycle 1) get the Fig. 9 mapping recomputed: the dead
    core's task moves onto one of the three spare cores (see
    :func:`repro.runtime.mapping.remap_placement`), trading adjacency
    for survival.  Returns the run result plus
    ``{task: (old_core, new_core)}`` for the re-mapped tasks; the
    throughput penalty is the cycle delta against a fault-free run
    (:func:`repro.faults.degraded.run_autofocus_degraded` reports it).
    """
    from repro.runtime.mapping import remap_placement

    place = placement or paper_placement(
        work, machine.spec.mesh_rows, machine.spec.mesh_cols
    )
    dead = tuple(getattr(machine, "dead_cores", tuple)())
    place, moved = remap_placement(place, dead)
    result = build_pipeline(machine, work, place, watchdog=watchdog).run()
    return result, moved


# ---------------------------------------------------------------------------
# Scaled pipelines for larger chips (the paper's 64-core outlook)
# ---------------------------------------------------------------------------

def scaled_task_graph(
    work: AutofocusWorkload, lanes: int, units: int
) -> TaskGraph:
    """Task graph for ``units`` replicated pipelines of ``lanes`` width.

    Each unit is an independent criterion calculation stream (in
    production, the "several flight path compensations tested before a
    merge" for different merges run concurrently); within a unit the
    interpolation lanes widen from the paper's 3 to ``lanes``.
    """
    if work.pixels % lanes != 0:
        raise ValueError(
            f"{work.pixels}-pixel blocks do not split over {lanes} lanes"
        )
    lane_bytes = (work.pixels // lanes) * COMPLEX_BYTES
    tasks: list[str] = []
    edges: dict[tuple[str, str], float] = {}
    for u in range(units):
        for blk in BLOCKS:
            for i in range(lanes):
                ri = f"u{u}_ri_{blk}{i}"
                bi = f"u{u}_bi_{blk}{i}"
                tasks += [ri, bi]
                edges[(ri, bi)] = lane_bytes
                edges[(bi, f"u{u}_corr")] = lane_bytes
        tasks.append(f"u{u}_corr")
    return TaskGraph(tuple(tasks), edges)


def build_scaled_pipeline(
    machine: Machine,
    work: AutofocusWorkload,
    lanes: int = 3,
    units: int = 1,
    channel_capacity: int = 2,
) -> Pipeline:
    """Assemble ``units`` x (2 x 2 x lanes + 1)-core pipelines.

    Placement is found by the greedy communication-aware optimiser --
    on an 8x8 chip there is no hand-drawn Fig. 9, so the mapping itself
    comes from :func:`repro.runtime.mapping.greedy_place`.
    """
    cores_needed = units * (4 * lanes + 1)
    if cores_needed > machine.n_cores:
        raise ValueError(
            f"{cores_needed} cores needed, chip has {machine.n_cores}"
        )
    from repro.runtime.mapping import greedy_place

    graph = scaled_task_graph(work, lanes, units)
    place = greedy_place(graph, machine.spec.mesh_rows, machine.spec.mesh_cols)
    lane_pixels = work.pixels // lanes
    payloads = {edge: lane_pixels * COMPLEX_BYTES for edge in graph.edges}
    tasks = []
    for name in graph.tasks:
        if name.endswith("corr"):
            tasks.append(Task(name, _corr_program(work)))
        elif "_ri_" in name:
            tasks.append(Task(name, _ri_program(work, lane_pixels)))
        else:
            tasks.append(Task(name, _bi_program(work, lane_pixels)))
    return Pipeline(
        machine,
        tasks,
        place,
        channel_capacity=channel_capacity,
        payload_bytes=payloads,
    )


def run_autofocus_scaled(
    machine: Machine,
    work: AutofocusWorkload,
    lanes: int = 3,
    units: int = 1,
) -> RunResult:
    """Run a scaled autofocus pipeline; throughput multiplies by
    ``units`` (each unit completes one criterion calculation)."""
    return build_scaled_pipeline(machine, work, lanes, units).run()
