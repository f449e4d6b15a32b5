"""The fast analytic machine backend.

:class:`AnalyticMachine` runs the *same* kernel generators as the
event-driven chip (:mod:`repro.machine.chip`) but replaces per-event
scheduling with closed-form accounting:

- every core carries its **own virtual clock** ``ctx.t`` and advances
  it eagerly inside each context call -- no event heap, no per-cycle
  interleaving;
- context operations are **plain methods returning tuples** rather than
  generators.  ``yield from ()`` costs a handful of nanoseconds, so a
  kernel's ``yield from ctx.work(...)`` lines run at Python speed while
  remaining byte-for-byte the same kernel source the event backend
  executes;
- blocking points (channel flags, barriers) surface as *park requests*
  -- a one-element tuple the cooperative scheduler consumes.  Flags
  carry a virtual **timestamp**; waking a core merges clocks with
  ``t = max(t, flag.time)``, which makes the result independent of the
  scheduling order;
- contention on the shared external-memory channel -- the effect that
  makes parallel FFBP memory-bound -- is applied **per barrier epoch**:
  within an epoch each core pays its uncontended latency, the channel
  occupancy demand of all cores accumulates, and the barrier releases
  at ``max(latest core arrival, epoch start + total channel
  occupancy)``.  That is the same aggregate bound the event backend's
  FIFO channel converges to, without simulating the queue.

What is lost relative to the event backend: cycle-exact interleaving
(mesh link queueing, per-transaction channel ordering).  What is
gained: an order-of-magnitude wall-clock speedup, which is what makes
design-space sweeps (core count x clock x window x candidate grid)
cheap.  Table-I-grade numbers should still come from the event chip;
the registry in :mod:`repro.machine.backends` selects between them.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable

from repro.machine.api import Programs, RunResult
from repro.machine.context import MemOp
from repro.machine.core import CoreTimingModel, OpBlock
from repro.machine.energy import EnergyMeter
from repro.machine.memory import LocalMemory
from repro.machine.specs import EpiphanySpec
from repro.machine.trace import Trace

__all__ = ["AnalyticFlag", "AnalyticContext", "AnalyticMachine"]


_BARRIER = object()
"""Park sentinel: the yielding core waits at the epoch barrier."""


class AnalyticFlag:
    """A timestamped one-shot flag.

    ``time`` is the virtual cycle at which the flag's condition became
    true; a core waking on the flag advances to at least that time.
    """

    __slots__ = ("name", "is_set", "time", "waiters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.is_set = False
        self.time = 0.0
        self.waiters: list[int] = []

    def set(self) -> None:
        self.is_set = True

    def clear(self) -> None:
        self.is_set = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "set" if self.is_set else "clear"
        return f"AnalyticFlag({self.name!r}, {state}@{self.time:.0f})"


class AnalyticContext:
    """One core's view of the analytic machine.

    The Protocol documents most operations as generators; here they are
    plain methods returning tuples -- ``()`` when the operation
    completes immediately in virtual time, or a single park request
    (an :class:`AnalyticFlag` or the barrier sentinel) for the
    scheduler.  ``yield from`` treats both identically.
    """

    __slots__ = (
        "machine",
        "core_id",
        "n_cores",
        "coord",
        "local",
        "trace",
        "t",
        "_busy",
        "_dma_busy_until",
        "_elink_hops",
        "_wrk",
        "_ext_user",
        "_epoch_occ",
        "_spec",
        "_req_cycles",
        "_inv_link",
        "_inv_off",
        "_inv_local",
        "_scatter_stall",
        "_scatter_occ",
        "_read_lat",
        "_sc_n",
        "_sc_calls",
        "_dma_n",
        "_dma_bytes",
        "_dma_wstall",
    )

    def __init__(self, machine: "AnalyticMachine", core_id: int) -> None:
        self.machine = machine
        spec = machine.spec
        self._spec = spec
        self.core_id = core_id
        self.n_cores = spec.n_cores
        self.coord = (core_id // spec.mesh_cols, core_id % spec.mesh_cols)
        self.local = LocalMemory(spec)
        self.trace = Trace()
        self.t = 0.0
        self._busy = 0.0
        self._dma_busy_until = 0.0
        self._elink_hops = machine.hops(core_id, machine.elink_core)
        # (id(block), id(mem)) -> mutable work entry
        # [count, dt, occupancy, block, mem, cycles, stall, rd, wr];
        # the kept block/mem references pin the ids (kernels hoist both),
        # and everything but the clock advance is folded in at flush.
        self._wrk: dict[tuple[int, int], list] = {}
        # Did this core hit the external channel in the current epoch?
        self._ext_user = False
        # This core's external-channel occupancy demand this epoch.
        self._epoch_occ = 0.0
        # Hot-path constants (attribute chains hoisted out of the loop).
        self._req_cycles = self._elink_hops * machine._hop_cycles
        self._inv_link = 1.0 / machine._link_rate
        self._inv_off = 1.0 / spec.offchip_bytes_per_cycle
        self._inv_local = 1.0 / spec.local_bytes_per_cycle
        self._read_lat = spec.ext_read_latency_cycles
        self._scatter_stall = (
            spec.ext_read_transaction_cycles + spec.ext_read_latency_cycles
        )
        self._scatter_occ = float(spec.ext_read_transaction_cycles)
        # Deferred scatter / DMA accumulators (folded in at flush).
        self._sc_n = 0
        self._sc_calls = 0
        self._dma_n = 0
        self._dma_bytes = 0.0
        self._dma_wstall = 0.0

    @property
    def now(self) -> int:
        """This core's virtual clock."""
        return int(self.t)

    # -- compute + external memory --------------------------------------
    def work(self, block: OpBlock, mem: Iterable[MemOp] = ()) -> tuple:
        e = self._wrk.get((id(block), id(mem)))
        if e is None:
            e = self._compile_work(block, mem)
        e[0] += 1
        self.t += e[1]
        occ = e[2]
        if occ:
            self._epoch_occ += occ
            self._ext_user = True
        return ()

    def _compile_work(self, block: OpBlock, mem: Iterable[MemOp]) -> list:
        """Build, register and return the work entry for (block, mem).

        The entry is ``[count, dt, occupancy, block, mem, cycles,
        stall, rd_bytes, wr_bytes]``.  Per-op rounding matches serial
        application of the uncontended event-backend formulas: stream
        reads pay request + link + channel + round-trip latency, posted
        writes pay store issue only (their channel demand goes to the
        epoch bound), and the non-posted ablation pays word-granular
        read-like transactions.
        """
        cycles = self.machine._timing.compute_cycles(block)
        rd = wr = 0.0
        stall = 0
        occ = 0.0
        posted = self._spec.ext_write_posted
        for op in mem:
            n = op.nbytes
            if op.kind == "load":
                rd += n
                stall += (
                    int(
                        round(
                            self._req_cycles
                            + n * self._inv_link
                            + n * self._inv_off
                        )
                    )
                    + self._read_lat
                )
                occ += n * self._inv_off
            elif posted:
                wr += n
                stall += int(round(n * self._inv_local))
                occ += n * self._inv_off
            else:
                wr += n
                n_words = int(round(n / 8.0))
                stall += n_words * self._scatter_stall
                occ += n_words * self._scatter_occ
        entry = [0, cycles + stall, occ, block, mem, cycles, stall, rd, wr]
        self._wrk[(id(block), id(mem))] = entry
        return entry

    def ext_scatter_read(self, n_accesses: int) -> tuple:
        if n_accesses <= 0:
            return ()
        self._sc_n += n_accesses
        self._sc_calls += 1
        # Uncontended serial floor; epoch accounting adds contention.
        self.t += n_accesses * self._scatter_stall + self._elink_hops
        self._epoch_occ += n_accesses * self._scatter_occ
        self._ext_user = True
        return ()

    # -- on-chip communication ------------------------------------------
    def write_remote(self, dst_core: int, nbytes: float) -> tuple:
        m = self.machine
        self.trace.remote_write_bytes += nbytes
        m._noc_byte_hops += nbytes * m.hops(self.core_id, dst_core)
        issue = int(nbytes / self._spec.local_bytes_per_cycle)
        self.trace.compute_cycles += issue
        self._busy += issue
        self.t += issue
        return ()

    def remote_write_arrival(self, dst_core: int, nbytes: float) -> int:
        m = self.machine
        hops = m.hops(self.core_id, dst_core)
        m._noc_byte_hops += nbytes * hops
        self.trace.remote_write_bytes += nbytes
        return int(round(self.t + hops * m._hop_cycles + nbytes / m._link_rate))

    def issue_stores(self, nbytes: float) -> tuple:
        issue = int(nbytes / self._spec.local_bytes_per_cycle)
        self.trace.compute_cycles += issue
        self._busy += issue
        self.t += issue
        return ()

    def read_remote(self, src_core: int, nbytes: float) -> tuple:
        m = self.machine
        hops = m.hops(self.core_id, src_core)
        self.trace.remote_read_bytes += nbytes
        m._noc_byte_hops += nbytes * hops + 4.0 * hops
        stall = int(
            round(
                2 * hops * m._hop_cycles + (4.0 + nbytes) / m._link_rate
            )
        )
        self.trace.stall_cycles += stall
        self.t += stall
        return ()

    # -- DMA -------------------------------------------------------------
    def dma_prefetch(self, nbytes: float) -> float:
        self._dma_n += 1
        self._dma_bytes += nbytes
        t = self.t
        start = t if t > self._dma_busy_until else self._dma_busy_until
        occ = nbytes * self._inv_off
        done = start + occ + self._read_lat + self._elink_hops
        self._dma_busy_until = done
        self._ext_user = True
        self._epoch_occ += occ
        return done

    def dma_wait(self, token: float) -> tuple:
        if token > self.t:
            # DMA waits are idle (clock-gated), unlike memory stalls:
            # counted in the trace, not charged as busy cycles.
            self._dma_wstall += token - self.t
            self.t = token
        return ()

    # -- synchronisation -------------------------------------------------
    def barrier(self) -> tuple:
        self.trace.barriers += 1
        return (_BARRIER,)

    def set_flag(self, flag: AnalyticFlag) -> None:
        if self.t > flag.time:
            flag.time = self.t
        flag.is_set = True
        if flag.waiters:
            self.machine._wake(flag)

    def wait_flag(self, flag: AnalyticFlag) -> tuple:
        if flag.is_set:
            if flag.time > self.t:
                self.t = flag.time
            return ()
        return (flag,)


class AnalyticMachine:
    """A pluggable :class:`~repro.machine.api.Machine` backend that
    replays kernel generators in closed-form virtual time."""

    def __init__(self, spec: EpiphanySpec | None = None) -> None:
        self.spec = spec or EpiphanySpec()
        self.energy = EnergyMeter(self.spec)
        noc = self.spec.noc
        self._link_rate = noc.link_bytes_per_cycle
        self._hop_cycles = noc.hop_cycles
        self.elink_core = self.spec.mesh_cols - 1  # node (0, cols-1)
        self.elink_node = (0, self.spec.mesh_cols - 1)
        self._timing = CoreTimingModel(self.spec)
        self._clock = 0
        self._epoch_start = 0.0
        self._ext_bytes = 0.0
        self._noc_byte_hops = 0.0
        self._runnable: deque[int] | None = None
        self._parked = 0
        self._contexts = [
            AnalyticContext(self, i) for i in range(self.spec.n_cores)
        ]

    # -- Machine protocol services --------------------------------------
    @property
    def n_cores(self) -> int:
        return self.spec.n_cores

    @property
    def now(self) -> int:
        """The machine clock (carried across runs)."""
        return self._clock

    def context(self, core_id: int) -> AnalyticContext:
        if not 0 <= core_id < self.spec.n_cores:
            raise ValueError(
                f"core {core_id} outside 0..{self.spec.n_cores - 1}"
            )
        return self._contexts[core_id]

    def flag(self, name: str = "") -> AnalyticFlag:
        return AnalyticFlag(name)

    def set_flag_at(self, flag: AnalyticFlag, cycle: int) -> None:
        if cycle > flag.time:
            flag.time = float(cycle)
        flag.is_set = True
        if flag.waiters:
            self._wake(flag)

    def hops(self, src_core: int, dst_core: int) -> int:
        cols = self.spec.mesh_cols
        return abs(src_core // cols - dst_core // cols) + abs(
            src_core % cols - dst_core % cols
        )

    def advance(self, cycles: int, busy_cores: int = 0) -> None:
        if cycles <= 0:
            return
        self._clock += int(cycles)
        for core in range(busy_cores):
            self.energy.add_busy(core, cycles)

    # -- internals -------------------------------------------------------
    def _flush_context(self, c: int) -> None:
        """Fold one core's deferred accumulators into its trace, the
        local-memory stats and the energy meter."""
        ctx = self._contexts[c]
        tr = ctx.trace
        compute = 0
        busy_stall = 0.0
        rd = wr = 0.0
        if ctx._wrk:
            o = [0.0] * 7
            for e in ctx._wrk.values():
                n = e[0]
                if not n:
                    continue
                e[0] = 0
                compute += n * e[5]
                busy_stall += n * e[6]
                rd += n * e[7]
                wr += n * e[8]
                b = e[3]
                o[0] += n * b.flops
                o[1] += n * b.fmas
                o[2] += n * b.sqrts
                o[3] += n * b.specials
                o[4] += n * b.int_ops
                o[5] += n * b.local_loads
                o[6] += n * b.local_stores
            if any(o):
                tr.ops = tr.ops + OpBlock(*o)
                ctx.local.bytes_accessed += 8.0 * (o[5] + o[6])
        noc_bytes = rd + wr
        if ctx._sc_calls:
            sc_bytes = 8.0 * ctx._sc_n
            rd += sc_bytes
            noc_bytes += sc_bytes
            busy_stall += (
                ctx._sc_n * ctx._scatter_stall
                + ctx._sc_calls * ctx._elink_hops
            )
            ctx._sc_n = 0
            ctx._sc_calls = 0
        if ctx._dma_n:
            # DMA bytes hit the channel but take the engine's path (no
            # per-byte mesh accounting in the event backend either).
            tr.dma_transfers += ctx._dma_n
            rd += ctx._dma_bytes
            ctx._dma_n = 0
            ctx._dma_bytes = 0.0
        if rd:
            tr.ext_read_bytes += rd
        if wr:
            tr.ext_write_bytes += wr
        self._ext_bytes += rd + wr
        self._noc_byte_hops += noc_bytes * ctx._elink_hops
        tr.compute_cycles += compute
        stall = busy_stall + ctx._dma_wstall
        ctx._dma_wstall = 0.0
        if stall:
            tr.stall_cycles += stall
        busy = ctx._busy + compute + busy_stall
        ctx._busy = 0.0
        ctx._ext_user = False
        ctx._epoch_occ = 0.0
        if busy:
            self.energy.add_busy(c, busy)

    def _wake(self, flag: AnalyticFlag) -> None:
        """Move a flag's waiters to the run queue, merging clocks."""
        runnable = self._runnable
        if runnable is None:  # pragma: no cover - defensive
            flag.waiters.clear()
            return
        t = flag.time
        for core in flag.waiters:
            ctx = self._contexts[core]
            if t > ctx.t:
                ctx.t = t
            runnable.append(core)
            self._parked -= 1
        flag.waiters.clear()

    # -- execution -------------------------------------------------------
    def run(
        self, programs: Programs, max_cycles: int | None = None
    ) -> RunResult:
        """Replay one program per listed core in virtual time.

        Cores run cooperatively: each is driven until it parks (flag or
        barrier) or finishes; flag wakes merge clocks; a full barrier
        releases at the epoch contention bound.  ``max_cycles`` caps
        the reported absolute clock (like the event engine's cutoff);
        the replay itself always runs to completion.
        """
        if not programs:
            raise ValueError("no programs given")
        cores = sorted(programs)
        start = float(self._clock)
        self._epoch_start = start
        contexts = self._contexts
        gens = {}
        for c in cores:
            ctx = self.context(c)
            ctx.t = start
            ctx._epoch_occ = 0.0
            ctx._ext_user = False
            gens[c] = programs[c](ctx)
        results: dict[int, Any] = {}
        runnable: deque[int] = deque(cores)
        self._runnable = runnable
        self._parked = 0
        at_barrier: list[int] = []
        n_active = len(cores)
        n_finished = 0
        try:
            while True:
                while runnable:
                    core = runnable.popleft()
                    gen = gens[core]
                    try:
                        while True:
                            item = next(gen)
                            if item is _BARRIER:
                                at_barrier.append(core)
                                break
                            if type(item) is AnalyticFlag:
                                if item.is_set:
                                    ctx = contexts[core]
                                    if item.time > ctx.t:
                                        ctx.t = item.time
                                    continue
                                item.waiters.append(core)
                                self._parked += 1
                                break
                            # Anything else a kernel yields is a no-op
                            # in virtual time (backend-opaque items).
                    except StopIteration as stop:
                        results[core] = stop.value
                        n_finished += 1
                if len(at_barrier) == n_active:
                    # Epoch release: slowest arrival vs the shared
                    # external channel's aggregate occupancy.
                    release = self._epoch_start
                    for c in at_barrier:
                        release += contexts[c]._epoch_occ
                    for c in at_barrier:
                        tc = contexts[c].t
                        if tc > release:
                            release = tc
                    for c in at_barrier:
                        ctx = contexts[c]
                        if ctx._ext_user:
                            # In the event chip the contention shows up
                            # as longer memory stalls (busy spinning),
                            # not as idle barrier time: charge it so.
                            wait = release - ctx.t
                            if wait > 0.0:
                                ctx._busy += wait
                                ctx.trace.stall_cycles += wait
                            ctx._ext_user = False
                        ctx._epoch_occ = 0.0
                        ctx.t = release
                    runnable.extend(at_barrier)
                    at_barrier.clear()
                    self._epoch_start = release
                    continue
                if n_finished == n_active:
                    break
                stuck = sorted(set(cores) - set(results))
                raise RuntimeError(
                    f"analytic deadlock: cores {stuck} blocked "
                    f"({len(at_barrier)} at barrier, "
                    f"{self._parked} on flags)"
                )
        finally:
            self._runnable = None
            for g in gens.values():
                g.close()

        end = max(contexts[c].t for c in cores)
        tail = self._epoch_start
        for c in cores:
            tail += contexts[c]._epoch_occ
        if tail > end:
            end = tail
        if max_cycles is not None and end > max_cycles:
            end = float(max_cycles)
        self._clock = int(round(end))

        # Fold the deferred accumulators into traces and the meter.
        for c in cores:
            self._flush_context(c)
        if self._ext_bytes:
            self.energy.add_ext(self._ext_bytes)
            self._ext_bytes = 0.0
        if self._noc_byte_hops:
            self.energy.add_noc(self._noc_byte_hops)
            self._noc_byte_hops = 0.0

        cycles = self._clock
        seconds = cycles / self.spec.clock_hz
        return RunResult(
            cycles=cycles,
            seconds=seconds,
            energy_joules=self.energy.energy_joules(
                cycles, active_cores=n_active
            ),
            average_power_w=self.energy.average_power_w(
                cycles, active_cores=n_active
            ),
            traces=tuple(contexts[c].trace for c in cores),
            results=tuple(results.get(c) for c in cores),
        )
