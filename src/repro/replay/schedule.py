"""Compiled event schedules: capture and restore of chip state.

The event engine is deterministic: one ``(pre-run chip state, programs,
max_cycles)`` tuple always resolves to the same event schedule, the
same post-run counters and the same results.  This module captures
that resolved outcome once -- the cycle timeline, per-core trace
records, NoC/DMA/external-memory accumulations, energy accounting and
the optional activity-recorder intervals -- into a compact, picklable
:class:`CompiledSchedule`, and re-applies it to a chip in one
vectorised pass instead of re-simulating event by event.

Two dataclasses:

- :class:`ChipState` -- every mutable accumulator of an
  :class:`~repro.machine.chip.EpiphanyChip` (engine clock + sequence
  counter, mesh links, external channel, energy meter, per-core local
  memory / DMA / trace counters).  Snapshotted *before* a run it keys
  the capture (back-to-back phased runs on one machine chain through
  their pre-states); snapshotted *after* it is the restore target.
- :class:`CompiledSchedule` -- the post-run :class:`ChipState`, the
  scalar outcome (cycles/seconds/energy/power), the per-program
  results and the activity intervals recorded during the run, stored
  as numpy column arrays (core/kind/start/end) -- the "vectorized
  timeline" a replay appends in one go.

Byte-identity contract: ``restore_chip`` mutates the chip's existing
objects **in place** (it never swaps in fresh ``Trace``/meter objects),
so the aliasing semantics of a cold run are preserved exactly -- a
:class:`~repro.machine.api.RunResult` built from the live context
traces after a restore is indistinguishable from one built after a
real event run, including across later phases that keep accumulating
into the same trace objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

from repro.machine.core import OpBlock
from repro.machine.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.machine.chip import EpiphanyChip
    from repro.machine.noc import LinkState

__all__ = [
    "SCHEMA_VERSION",
    "ChipState",
    "CompiledSchedule",
    "snapshot_chip",
    "restore_chip",
    "compile_schedule",
    "apply_schedule",
]

SCHEMA_VERSION = 1
"""Bumped whenever the snapshot shape changes; part of the memo key, so
a schedule captured by an older layout can never be replayed by a newer
one (on top of the :func:`~repro.exec.cache.code_version` embedded in
the on-disk entry key)."""

_TRACE_FIELDS = (
    "ext_read_bytes",
    "ext_write_bytes",
    "remote_read_bytes",
    "remote_write_bytes",
    "messages_sent",
    "messages_received",
    "barriers",
    "dma_transfers",
    "compute_cycles",
    "stall_cycles",
)

_KINDS = ("compute", "mem", "dma", "sync", "send")
_KIND_CODE = {k: i for i, k in enumerate(_KINDS)}


@dataclass(frozen=True)
class ChipState:
    """Every mutable accumulator of one ``EpiphanyChip``, by value.

    Tuples throughout so the state is hashable by
    :func:`~repro.exec.cache.stable_digest`, shareable between memo
    hits, and picklable for the on-disk cache.
    """

    now: int
    seq: int
    live: int
    # mesh: sorted ((plane, src, dst), free_at, bytes_moved) per link
    links: LinkState
    mesh_byte_hops: float
    mesh_messages: int
    # external channel
    ext: tuple[float, float, float, int, int, float]
    # energy meter: sorted (core, busy_cycles), noc byte-hops, ext bytes
    busy: tuple[tuple[int, float], ...]
    energy_noc: float
    energy_ext: float
    # per-core (allocated, peak, bytes_accessed)
    locals_: tuple[tuple[int, int, float], ...]
    # per-core (busy_until, transfers, bytes_moved)
    dmas: tuple[tuple[int, int, float], ...]
    # per-core trace: (OpBlock, *_TRACE_FIELDS values)
    traces: tuple[tuple[Any, ...], ...]


@dataclass(frozen=True)
class CompiledSchedule:
    """One captured event run, ready to replay onto a chip."""

    valid: bool
    post: ChipState | None
    cycles: int
    seconds: float
    energy_joules: float
    average_power_w: float
    program_cores: tuple[int, ...]
    results: tuple[Any, ...]
    # activity intervals recorded during the run, as column arrays
    # (int64 core / kind-code / start / end); None when no recorder
    # was attached at capture time.
    interval_cores: "np.ndarray | None" = None
    interval_kinds: "np.ndarray | None" = None
    interval_starts: "np.ndarray | None" = None
    interval_ends: "np.ndarray | None" = None

    def n_intervals(self) -> int:
        return 0 if self.interval_cores is None else int(len(self.interval_cores))


INVALID_SCHEDULE = CompiledSchedule(
    valid=False,
    post=None,
    cycles=0,
    seconds=0.0,
    energy_joules=0.0,
    average_power_w=0.0,
    program_cores=(),
    results=(),
)
"""Cached sentinel for equivalence classes that stall (exhaust their
``max_cycles`` budget): a stalled run leaves pending events behind and
cannot be restored, and it deterministically stalls again -- so the
class is remembered as *always run cold*."""


def snapshot_chip(chip: "EpiphanyChip") -> ChipState:
    """Capture every mutable accumulator of ``chip`` by value."""
    eng = chip.engine
    mesh = chip.mesh
    ext = chip.ext
    meter = chip.energy
    return ChipState(
        now=eng.now,
        seq=eng._seq,
        live=eng._live,
        links=mesh.link_state(),
        mesh_byte_hops=mesh.total_byte_hops,
        mesh_messages=mesh.messages,
        ext=(
            ext.free_at,
            ext.read_bytes,
            ext.write_bytes,
            ext.n_reads,
            ext.n_writes,
            ext.busy_cycles,
        ),
        busy=tuple(sorted(meter.busy_cycles.items())),
        energy_noc=meter.noc_byte_hops,
        energy_ext=meter.ext_bytes,
        locals_=tuple(
            (c.local.allocated, c.local.peak, c.local.bytes_accessed)
            for c in chip._contexts
        ),
        dmas=tuple(
            (c.dma._busy_until, c.dma.transfers, c.dma.bytes_moved)
            for c in chip._contexts
        ),
        traces=tuple(
            (c.trace.ops,) + tuple(getattr(c.trace, f) for f in _TRACE_FIELDS)
            for c in chip._contexts
        ),
    )


def restore_chip(chip: "EpiphanyChip", state: ChipState) -> None:
    """Set ``chip`` to ``state``, mutating its live objects in place.

    Object identities (contexts, traces, the energy meter, the mesh,
    the external channel) are preserved so aliases held by earlier
    :class:`~repro.machine.api.RunResult` objects keep accumulating
    exactly as they would across cold runs.
    """
    eng = chip.engine
    eng.now = state.now
    eng._seq = state.seq
    eng._live = state.live
    mesh = chip.mesh
    mesh.restore_link_state(state.links)
    mesh.total_byte_hops = state.mesh_byte_hops
    mesh.messages = state.mesh_messages
    ext = chip.ext
    (
        ext.free_at,
        ext.read_bytes,
        ext.write_bytes,
        ext.n_reads,
        ext.n_writes,
        ext.busy_cycles,
    ) = state.ext
    meter = chip.energy
    meter.busy_cycles.clear()
    meter.busy_cycles.update(state.busy)
    meter.noc_byte_hops = state.energy_noc
    meter.ext_bytes = state.energy_ext
    for ctx, (allocated, peak, accessed) in zip(chip._contexts, state.locals_):
        ctx.local.allocated = allocated
        ctx.local.peak = peak
        ctx.local.bytes_accessed = accessed
    for ctx, (busy_until, transfers, moved) in zip(chip._contexts, state.dmas):
        ctx.dma._busy_until = busy_until
        ctx.dma.transfers = transfers
        ctx.dma.bytes_moved = moved
    for ctx, rec in zip(chip._contexts, state.traces):
        trace = ctx.trace
        trace.ops = rec[0]
        for field, value in zip(_TRACE_FIELDS, rec[1:]):
            setattr(trace, field, value)


def compile_schedule(
    chip: "EpiphanyChip",
    result: Any,
    program_cores: tuple[int, ...],
    intervals_before: int,
) -> CompiledSchedule:
    """Capture a just-finished cold run into a :class:`CompiledSchedule`.

    ``intervals_before`` is how many recorder intervals existed before
    the run started (only the run's own intervals are captured);
    ``result`` is the live :class:`~repro.machine.api.RunResult` -- its
    ``results`` are deep-copied so the cached schedule shares nothing
    mutable with the caller (the memo layer freezes cached values, and
    the caller's arrays must stay writable).
    """
    import copy

    cores: "np.ndarray | None" = None
    kinds = starts = ends = None
    if chip.recorder is not None:
        import numpy as np

        new = chip.recorder.intervals[intervals_before:]
        cores = np.array([iv.core for iv in new], dtype=np.int64)
        kinds = np.array([_KIND_CODE[iv.kind] for iv in new], dtype=np.int64)
        starts = np.array([iv.start for iv in new], dtype=np.int64)
        ends = np.array([iv.end for iv in new], dtype=np.int64)
    return CompiledSchedule(
        valid=True,
        post=snapshot_chip(chip),
        cycles=int(result.cycles),
        seconds=float(result.seconds),
        energy_joules=float(result.energy_joules),
        average_power_w=float(result.average_power_w),
        program_cores=tuple(program_cores),
        results=copy.deepcopy(result.results),
        interval_cores=cores,
        interval_kinds=kinds,
        interval_starts=starts,
        interval_ends=ends,
    )


def apply_schedule(chip: "EpiphanyChip", sched: CompiledSchedule) -> Any:
    """Replay a captured run onto ``chip``; return a fresh RunResult.

    Restores the post-run state, appends the captured activity
    timeline to the chip's recorder (when one is attached) and rebuilds
    the :class:`~repro.machine.api.RunResult` from the chip's *live*
    trace objects -- the same aliasing a cold run produces.
    """
    import copy

    from repro.machine.api import RunResult
    from repro.machine.tracing import Interval

    assert sched.valid and sched.post is not None
    restore_chip(chip, sched.post)
    if chip.recorder is not None and sched.n_intervals():
        append = chip.recorder.intervals.append
        for core, kind, start, end in zip(
            sched.interval_cores.tolist(),
            sched.interval_kinds.tolist(),
            sched.interval_starts.tolist(),
            sched.interval_ends.tolist(),
        ):
            append(Interval(core, _KINDS[kind], start, end))
    return RunResult(
        cycles=sched.cycles,
        seconds=sched.seconds,
        energy_joules=sched.energy_joules,
        average_power_w=sched.average_power_w,
        traces=tuple(chip.context(c).trace for c in sched.program_cores),
        results=copy.deepcopy(sched.results),
        stalled=False,
    )
