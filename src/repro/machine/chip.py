"""The assembled Epiphany chip model.

Combines the event engine, the three-plane mesh, the shared external
memory channel, per-core DMA engines, local scratchpads and the core
issue model into per-core :class:`EpiphanyContext` objects that kernels
program against, plus a :class:`EpiphanyChip` front end that runs a set
of core programs and reports cycles, time, power and energy.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.machine.api import RunResult
from repro.machine.context import Context, MemOp
from repro.machine.core import CoreTimingModel, OpBlock
from repro.machine.dma import DmaEngine
from repro.machine.energy import EnergyMeter
from repro.machine.event import Engine, Flag, Wait, Waitable, delay
from repro.machine.memory import ExternalMemory, LocalMemory
from repro.machine.noc import Mesh
from repro.machine.specs import EpiphanySpec
from repro.machine.trace import Trace

__all__ = ["EpiphanyChip", "EpiphanyContext", "RunResult"]


class EpiphanyContext(Context):
    """One core's view of the chip."""

    def __init__(self, chip: "EpiphanyChip", core_id: int) -> None:
        self.chip = chip
        self.core_id = core_id
        self.n_cores = chip.spec.n_cores
        self.coord = (core_id // chip.spec.mesh_cols, core_id % chip.spec.mesh_cols)
        self.local = LocalMemory(chip.spec)
        self.dma = DmaEngine(chip.engine, chip.spec, chip.ext, core_id)
        self.trace = Trace()
        self._timing = chip.timing
        self._elink_hops = chip.mesh.hops(self.coord, chip.elink_node)

    @property
    def now(self) -> int:
        """The chip clock (event time is global)."""
        return self.chip.engine.now

    def _record(self, kind: str, start: int) -> None:
        rec = self.chip.recorder
        if rec is not None:
            rec.record(self.core_id, kind, start, self.chip.engine.now)

    # -- compute + external memory --------------------------------------
    def work(self, block: OpBlock, mem: Iterable[MemOp] = ()) -> Iterator[Waitable]:
        chip = self.chip
        cycles = self._timing.compute_cycles(block)
        trace = self.trace
        trace.add_ops(block)
        trace.compute_cycles += cycles
        chip.energy.add_busy(self.core_id, cycles)
        self.local.touch(8.0 * (block.local_loads + block.local_stores))
        if cycles:
            start = chip.engine.now
            yield delay(cycles)
            self._record("compute", start)
        for op in mem:
            if op.kind == "load":
                stall = self._ext_read_stall(op.nbytes)
            else:
                stall = self._ext_write_stall(op.nbytes)
            if stall:
                start = chip.engine.now
                yield delay(stall)
                self._record("mem", start)

    def _ext_read_stall(self, nbytes: float) -> int:
        """Account a blocking stream read issued now; return its stall."""
        chip = self.chip
        now = chip.engine.now
        self.trace.ext_read_bytes += nbytes
        chip.energy.add_ext(nbytes)
        # Request travels the read plane to the e-link node; the reply
        # streams back.  The core stalls for the whole round trip.
        res = chip.mesh.transfer(now, self.coord, chip.elink_node, nbytes, "read")
        finish = chip.ext.read_finish(res.finish_cycle, nbytes)
        chip.energy.add_noc(nbytes * res.hops)
        stall = max(0, finish - now)
        self.trace.stall_cycles += stall
        # A core stalled on a read is spinning, not clock-gated.
        chip.energy.add_busy(self.core_id, stall)
        return stall

    def ext_scatter_read(self, n_accesses: int) -> Iterator[Waitable]:
        """Blocking word-granular gathers from external memory.

        The access pattern of FFBP's child lookups: ``n_accesses``
        serial 64-bit reads at data-dependent addresses.  Each pays the
        read round trip, and each occupies the shared channel for a
        full transaction slot (see
        :attr:`~repro.machine.specs.EpiphanySpec.ext_read_transaction_cycles`).
        """
        if n_accesses <= 0:
            return
        chip = self.chip
        now = chip.engine.now
        nbytes = 8.0 * n_accesses
        self.trace.ext_read_bytes += nbytes
        chip.energy.add_ext(nbytes)
        hops = self._elink_hops
        chip.energy.add_noc(nbytes * hops)
        finish = chip.ext.scatter_read_finish(now, n_accesses)
        # Word reads ride the read plane individually; charge the mesh
        # occupancy in aggregate rather than per word.
        chip.mesh.transfer(now, self.coord, chip.elink_node, nbytes, "read")
        stall = max(0, finish + hops - now)
        self.trace.stall_cycles += stall
        chip.energy.add_busy(self.core_id, stall)
        if stall:
            yield delay(stall)
            self._record("mem", now)

    def _ext_write_stall(self, nbytes: float) -> int:
        """Account a posted write issued now; return its stall."""
        chip = self.chip
        now = chip.engine.now
        self.trace.ext_write_bytes += nbytes
        chip.energy.add_ext(nbytes)
        res = chip.mesh.transfer(
            now, self.coord, chip.elink_node, nbytes, "off_chip_write"
        )
        chip.energy.add_noc(nbytes * res.hops)
        stall = chip.ext.write_stall(now, nbytes)
        # Posted write: only issue cost + backpressure reach the core.
        self.trace.stall_cycles += stall
        chip.energy.add_busy(self.core_id, stall)
        return stall

    # -- on-chip communication ------------------------------------------
    def write_remote(self, dst_core: int, nbytes: float) -> Iterator[Waitable]:
        """Post data into a neighbour's local memory (write plane).

        On-chip writes do not stall the sender beyond store issue; the
        message occupies the mesh in the background.
        """
        chip = self.chip
        dst = chip.context(dst_core).coord
        self.trace.remote_write_bytes += nbytes
        res = chip.mesh.transfer(chip.engine.now, self.coord, dst, nbytes, "on_chip_write")
        chip.energy.add_noc(nbytes * res.hops)
        issue = int(nbytes / chip.spec.local_bytes_per_cycle)
        self.trace.compute_cycles += issue
        chip.energy.add_busy(self.core_id, issue)
        if issue:
            yield delay(issue)

    def remote_write_arrival(self, dst_core: int, nbytes: float) -> int:
        """Cycle at which a posted remote write lands at ``dst_core``."""
        chip = self.chip
        dst = chip.context(dst_core).coord
        res = chip.mesh.transfer(chip.engine.now, self.coord, dst, nbytes, "on_chip_write")
        chip.energy.add_noc(nbytes * res.hops)
        self.trace.remote_write_bytes += nbytes
        return res.finish_cycle

    def issue_stores(self, nbytes: float) -> Iterator[Waitable]:
        """Charge the core-side issue cost of streaming ``nbytes`` out
        through the store port (one 64-bit store per cycle)."""
        issue = int(nbytes / self.chip.spec.local_bytes_per_cycle)
        self.trace.compute_cycles += issue
        self.chip.energy.add_busy(self.core_id, issue)
        if issue:
            yield delay(issue)

    def read_remote(self, src_core: int, nbytes: float) -> Iterator[Waitable]:
        """Blocking read of another core's local memory (read plane)."""
        chip = self.chip
        src = chip.context(src_core).coord
        self.trace.remote_read_bytes += nbytes
        # Request there (head only) + data back.
        there = chip.mesh.transfer(chip.engine.now, self.coord, src, 4, "read")
        back = chip.mesh.transfer(there.finish_cycle, src, self.coord, nbytes, "read")
        chip.energy.add_noc(nbytes * back.hops + 4 * there.hops)
        stall = max(0, back.finish_cycle - chip.engine.now)
        self.trace.stall_cycles += stall
        if stall:
            yield delay(stall)

    # -- DMA ---------------------------------------------------------------
    def dma_prefetch(self, nbytes: float) -> Flag:
        trace = self.trace
        trace.dma_transfers += 1
        trace.ext_read_bytes += nbytes
        self.chip.energy.add_ext(nbytes)
        return self.dma.start_ext_read(nbytes, path_cycles=self._elink_hops)

    def dma_wait(self, token: Flag) -> Iterator[Waitable]:
        engine = self.chip.engine
        before = engine.now
        yield Wait(token)
        self.trace.stall_cycles += engine.now - before
        self._record("dma", before)

    # -- synchronisation -----------------------------------------------------
    def barrier(self) -> Iterator[Waitable]:
        self.trace.barriers += 1
        start = self.chip.engine.now
        yield from self.chip.barrier_obj.wait()
        self._record("sync", start)

    def set_flag(self, flag: Flag) -> None:
        flag.set()

    def wait_flag(self, flag: Flag) -> Iterator[Waitable]:
        start = self.chip.engine.now
        yield Wait(flag)
        self._record("sync", start)


class EpiphanyChip:
    """A simulated Epiphany chip ready to run core programs."""

    def __init__(self, spec: EpiphanySpec | None = None) -> None:
        self.spec = spec or EpiphanySpec()
        self.engine = Engine()
        self.mesh = Mesh(self.spec.mesh_rows, self.spec.mesh_cols, self.spec.noc)
        self.ext = ExternalMemory(self.spec)
        self.energy = EnergyMeter(self.spec)
        self.elink_node = (0, self.spec.mesh_cols - 1)
        self.timing = CoreTimingModel(self.spec)
        self.recorder = None  # optional ActivityRecorder
        self._contexts = [
            EpiphanyContext(self, i) for i in range(self.spec.n_cores)
        ]
        self.barrier_obj = None  # set per run

    # -- Machine protocol services --------------------------------------
    @property
    def n_cores(self) -> int:
        return self.spec.n_cores

    @property
    def now(self) -> int:
        """The chip clock (carried across runs)."""
        return self.engine.now

    def flag(self, name: str = "") -> Flag:
        """Create a synchronisation flag on the chip's event engine."""
        return self.engine.flag(name=name)

    def set_flag_at(self, flag: Flag, cycle: int) -> None:
        """Raise ``flag`` at absolute ``cycle`` (a background landing)."""
        engine = self.engine

        def _land() -> Iterator[Waitable]:
            gap = cycle - engine.now
            if gap > 0:
                yield delay(gap)
            flag.set()

        engine.spawn(_land(), name=f"land@{cycle}")

    def hops(self, src_core: int, dst_core: int) -> int:
        """Mesh distance between two cores' routers."""
        return self.mesh.hops(
            self.context(src_core).coord, self.context(dst_core).coord
        )

    def advance(self, cycles: int, busy_cores: int = 0) -> None:
        """Advance the chip clock by ``cycles`` of replicated
        steady-state work (``busy_cores`` are charged as active)."""
        if cycles <= 0:
            return

        def _tick() -> Iterator[Waitable]:
            yield delay(int(cycles))

        self.engine.spawn(_tick(), name="steady-state")
        self.engine.run()
        for core in range(busy_cores):
            self.energy.add_busy(core, cycles)

    def context(self, core_id: int) -> EpiphanyContext:
        if not 0 <= core_id < self.spec.n_cores:
            raise ValueError(
                f"core {core_id} outside 0..{self.spec.n_cores - 1}"
            )
        return self._contexts[core_id]

    def run(
        self,
        programs: dict[int, Callable[[EpiphanyContext], Iterator[Waitable]]],
        max_cycles: int | None = None,
    ) -> RunResult:
        """Run one program per listed core to completion.

        ``programs`` maps core id -> generator function taking the
        core's context.  Unlisted cores stay clock-gated (the three
        spare cores of the paper's autofocus mapping burn only idle
        power).
        """
        if not programs:
            raise ValueError("no programs given")
        self.barrier_obj = self.engine.barrier(len(programs), name="spmd")
        procs = []
        for core_id in sorted(programs):
            ctx = self.context(core_id)
            procs.append(
                self.engine.spawn(programs[core_id](ctx), name=f"core{core_id}")
            )
        cycles = self.engine.run(max_cycles=max_cycles)
        seconds = cycles / self.spec.clock_hz
        active = len(programs)
        energy = self.energy.energy_joules(cycles, active_cores=active)
        power = self.energy.average_power_w(cycles, active_cores=active)
        return RunResult(
            cycles=cycles,
            seconds=seconds,
            energy_joules=energy,
            average_power_w=power,
            traces=tuple(self.context(c).trace for c in sorted(programs)),
            results=tuple(p.result for p in procs),
            stalled=any(not p.done for p in procs),
        )
