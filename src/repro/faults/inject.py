"""`FaultyMachine`: deterministic fault injection behind the Machine API.

Wraps any :class:`~repro.machine.api.Machine` (the cycle-accurate
event chip *or* the analytic backend) and threads a
:class:`~repro.faults.plan.FaultPlan` through every context operation:

- **core crash** -- each context call on the crashed core at/after the
  crash cycle raises a :class:`~repro.faults.report.FaultReport`
  (kind ``core-crash``); cores crashed at cycle 0 are *dead on
  arrival* and reported by :meth:`FaultyMachine.dead_cores` so the
  runtime layer can re-map their tasks (see
  :func:`repro.runtime.mapping.remap_placement`);
- **link stall/drop** -- applied at :meth:`FaultyContext.
  remote_write_arrival` (the channel-send path): a *stall* delays the
  message tail's arrival (maskable timing fault, identical semantics
  on both backends); a *drop* suppresses the arrival flag raise, so
  the consumer's watchdog or the deadlock detector fires;
- **DMA corrupt/stall** -- resolved when :meth:`FaultyContext.
  dma_prefetch` starts the matching transfer; ``corrupt-word`` raises
  a detected :class:`FaultReport` at :meth:`~FaultyContext.dma_wait`
  completion (the integrity check), ``stall=K`` delays completion;
- **flag drop** -- the ``nth`` raise through :meth:`FaultyContext.
  set_flag` / :meth:`FaultyMachine.set_flag_at` is lost.

With an *empty* plan every method delegates unchanged -- the wrapper
is a strict pass-through, verified against the differential oracles by
the chaos gate.

Determinism: all probabilistic decisions come from the plan's
:class:`~repro.faults.plan.FaultSchedule` (stateless hash draws), and
trigger indices advance in the backend's own deterministic execution
order, so one ``(plan, seed, backend, workload)`` tuple always
reproduces the identical outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.faults.plan import (
    ChipLinkFault,
    FaultPlan,
    FaultSchedule,
    LinkFault,
    parse_plan,
)
from repro.faults.report import FaultReport
from repro.machine.api import Machine, MachineContext, Programs, RunResult

__all__ = ["FaultEvent", "FaultyContext", "FaultyMachine"]

Coord = tuple[int, int]


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault occurrence (for observability and tests)."""

    kind: str
    cycle: int
    clause: str
    detail: str = ""


@dataclass(frozen=True)
class _FaultyDmaToken:
    """A DMA token whose completion carries an injected outcome."""

    inner: Any
    extra_cycles: int
    corrupt: bool
    clause: str
    core: int


def _xy_links(src: Coord, dst: Coord) -> Iterator[tuple[Coord, Coord]]:
    """Directed links of the XY (columns-first) route -- the same
    dimension order as :meth:`repro.machine.noc.Mesh.route`."""
    r, c = src
    while c != dst[1]:
        step = 1 if dst[1] > c else -1
        yield ((r, c), (r, c + step))
        c += step
    while r != dst[0]:
        step = 1 if dst[0] > r else -1
        yield ((r, c), (r + step, c))
        r += step


class FaultyContext:
    """One core's view of a :class:`FaultyMachine`.

    Wraps the inner backend's context; generator methods stay
    generator-shaped (the event backend) or tuple-shaped (the analytic
    backend) because delegation returns the inner object unchanged --
    ``yield from`` treats both identically.
    """

    def __init__(self, machine: "FaultyMachine", inner: MachineContext) -> None:
        self.machine = machine
        self.inner = inner

    # -- delegated attributes -------------------------------------------
    @property
    def core_id(self) -> int:
        return self.inner.core_id

    @property
    def n_cores(self) -> int:
        return self.inner.n_cores

    @property
    def trace(self):
        return self.inner.trace

    @property
    def local(self):
        return self.inner.local

    @property
    def now(self) -> int:
        return self.inner.now

    # -- crash surveillance ---------------------------------------------
    def _check_crash(self) -> None:
        fault = self.machine._crash_for(self.inner.core_id)
        if fault is not None and self.inner.now >= fault.at_cycle:
            self.machine._record(
                "core-crash", self.inner.now, fault.clause(),
                f"core {fault.core} halted",
            )
            raise FaultReport(
                kind="core-crash",
                core=fault.core,
                cycle=self.inner.now,
                fault=fault.clause(),
                detail="core halted; every subsequent operation faults",
            )

    # -- compute + external memory --------------------------------------
    def work(self, block, mem: Iterable = ()):
        self._check_crash()
        return self.inner.work(block, mem)

    def ext_scatter_read(self, n_accesses: int):
        self._check_crash()
        return self.inner.ext_scatter_read(n_accesses)

    # -- on-chip communication ------------------------------------------
    def write_remote(self, dst_core: int, nbytes: float):
        self._check_crash()
        return self.inner.write_remote(dst_core, nbytes)

    def read_remote(self, src_core: int, nbytes: float):
        self._check_crash()
        return self.inner.read_remote(src_core, nbytes)

    def remote_write_arrival(self, dst_core: int, nbytes: float) -> int:
        self._check_crash()
        arrival = self.inner.remote_write_arrival(dst_core, nbytes)
        extra, dropped = self.machine._link_outcome(
            self.inner.core_id, dst_core
        )
        if dropped:
            # The landing that would publish this arrival is lost; the
            # very next set_flag_at on this machine is the publication
            # (the channel protocol posts, then raises -- single
            # threaded, so the latch cannot be claimed by anyone else).
            self.machine._drop_next_landing = True
        return arrival + extra

    def issue_stores(self, nbytes: float):
        self._check_crash()
        return self.inner.issue_stores(nbytes)

    # -- DMA -------------------------------------------------------------
    def dma_prefetch(self, nbytes: float) -> Any:
        self._check_crash()
        token = self.inner.dma_prefetch(nbytes)
        outcome = self.machine._dma_outcome(self.inner.core_id)
        if outcome is None:
            return token
        extra, corrupt, clause = outcome
        return _FaultyDmaToken(
            inner=token,
            extra_cycles=extra,
            corrupt=corrupt,
            clause=clause,
            core=self.inner.core_id,
        )

    def dma_wait(self, token: Any):
        self._check_crash()
        if not isinstance(token, _FaultyDmaToken):
            return self.inner.dma_wait(token)
        return self._dma_wait_faulty(token)

    def _dma_wait_faulty(self, token: _FaultyDmaToken) -> Iterator[Any]:
        yield from self.inner.dma_wait(token.inner)
        if token.extra_cycles:
            self.machine._record(
                "dma-stall", self.inner.now, token.clause,
                f"+{token.extra_cycles} cycles",
            )
            yield from self._extra_delay(token.extra_cycles)
        if token.corrupt:
            self.machine._record(
                "dma-corrupt", self.inner.now, token.clause,
                f"core {token.core} DMA integrity check failed",
            )
            raise FaultReport(
                kind="dma-corrupt",
                core=token.core,
                cycle=self.inner.now,
                fault=token.clause,
                detail="corrupted word detected at DMA completion",
            )

    def _extra_delay(self, cycles: int) -> Iterator[Any]:
        """Advance this core by ``cycles`` of injected stall, on either
        backend: virtual-clock backends expose ``t``; event backends
        take a ``Delay`` waitable."""
        inner = self.inner
        if hasattr(inner, "t"):  # analytic-style virtual clock
            inner.t += cycles
            inner.trace.stall_cycles += cycles
            return
        from repro.machine.event import delay

        inner.trace.stall_cycles += cycles
        yield delay(cycles)

    # -- synchronisation -------------------------------------------------
    def barrier(self):
        self._check_crash()
        return self.inner.barrier()

    def set_flag(self, flag: Any) -> None:
        self._check_crash()
        if self.machine._flag_raise_dropped():
            return
        self.inner.set_flag(flag)

    def wait_flag(self, flag: Any):
        self._check_crash()
        return self.inner.wait_flag(flag)


class FaultyMachine:
    """A :class:`~repro.machine.api.Machine` that injects a fault plan.

    ``FaultyMachine(inner, plan, seed)`` composes with any backend; the
    registry spec string ``"faulty(<plan>):<inner-spec>"`` builds one
    (see :mod:`repro.machine.backends`).
    """

    def __init__(
        self,
        inner: Machine,
        plan: FaultPlan | str = "",
        seed: int | None = None,
    ) -> None:
        self.inner = inner
        self.plan = parse_plan(plan) if isinstance(plan, str) else plan
        self.schedule = FaultSchedule(self.plan, seed)
        self.events: list[FaultEvent] = []
        self._contexts: dict[int, FaultyContext] = {}
        self._crash_by_core = {f.core: f for f in self.plan.core_faults}
        self._link_faults = [
            (j, f)
            for j, f in enumerate(self.plan.faults)
            if isinstance(f, LinkFault)
        ]
        self._link_triggers = {j: 0 for j, _ in self._link_faults}
        self._chiplink_faults = [
            (j, f)
            for j, f in enumerate(self.plan.faults)
            if isinstance(f, ChipLinkFault)
        ]
        self._chiplink_triggers = {j: 0 for j, _ in self._chiplink_faults}
        self._dma_counts: dict[int, int] = {}
        self._flag_raises = 0
        self._drop_next_landing = False
        self._chips: tuple[Machine, ...] | None = None

    # -- delegated Machine surface --------------------------------------
    @property
    def spec(self):
        return self.inner.spec

    @property
    def energy(self):
        return self.inner.energy

    @property
    def n_cores(self) -> int:
        return self.inner.n_cores

    @property
    def now(self) -> int:
        return self.inner.now

    @property
    def engine(self):
        """The inner event engine, if any (watchdogs sniff this)."""
        return getattr(self.inner, "engine", None)

    def hops(self, src_core: int, dst_core: int) -> int:
        return self.inner.hops(src_core, dst_core)

    def advance(self, cycles: int, busy_cores: int = 0) -> None:
        self.inner.advance(cycles, busy_cores)

    def flag(self, name: str = "") -> Any:
        return self.inner.flag(name=name)

    def context(self, core_id: int) -> FaultyContext:
        ctx = self._contexts.get(core_id)
        if ctx is None:
            ctx = self._contexts[core_id] = FaultyContext(
                self, self.inner.context(core_id)
            )
        return ctx

    # -- fault resolution ------------------------------------------------
    def _record(self, kind: str, cycle: int, clause: str, detail: str = "") -> None:
        self.events.append(FaultEvent(kind, int(cycle), clause, detail))

    def _crash_for(self, core_id: int):
        return self._crash_by_core.get(core_id)

    def dead_cores(self) -> tuple[int, ...]:
        """Cores crashed at cycle <= 0 (dead on arrival): the runtime
        layer re-maps their tasks onto survivors before the run."""
        return self.plan.dead_cores()

    def _coord(self, core_id: int) -> Coord:
        cols = self.inner.spec.mesh_cols
        return (core_id // cols, core_id % cols)

    def _link_outcome(self, src_core: int, dst_core: int) -> tuple[int, bool]:
        """(extra stall cycles, dropped?) for one posted message."""
        if not self._link_faults:
            return 0, False
        route = None
        extra = 0
        dropped = False
        for j, fault in self._link_faults:
            if route is None:
                route = set(
                    _xy_links(self._coord(src_core), self._coord(dst_core))
                )
            if (fault.src, fault.dst) not in route:
                continue
            idx = self._link_triggers[j]
            self._link_triggers[j] = idx + 1
            if not self.schedule.fires(j, idx):
                continue
            if fault.action == "stall":
                extra += fault.stall_cycles
                self._record(
                    "link-stall", self.inner.now, fault.clause(),
                    f"message {src_core}->{dst_core} +{fault.stall_cycles}c",
                )
            else:
                dropped = True
                self._record(
                    "link-drop", self.inner.now, fault.clause(),
                    f"message {src_core}->{dst_core} lost",
                )
        return extra, dropped

    def _dma_outcome(self, core_id: int):
        """None, or (extra cycles, corrupt?, clause) for this start."""
        if not self.plan.dma_faults:
            return None
        count = self._dma_counts.get(core_id, 0) + 1
        self._dma_counts[core_id] = count
        extra = 0
        corrupt = False
        clause = ""
        for fault in self.plan.dma_faults:
            if fault.core != core_id or fault.nth != count:
                continue
            clause = fault.clause()
            if fault.action == "stall":
                extra += fault.stall_cycles
            else:
                corrupt = True
        if not extra and not corrupt:
            return None
        return extra, corrupt, clause

    def _flag_raise_dropped(self) -> bool:
        """Count one flag raise; True if a flag fault eats it."""
        if not self.plan.flag_faults:
            return False
        self._flag_raises += 1
        n = self._flag_raises
        for fault in self.plan.flag_faults:
            if fault.nth == n:
                self._record(
                    "flag-drop", self.inner.now, fault.clause(),
                    f"flag raise #{n} lost",
                )
                return True
        return False

    # -- multi-chip fabric -------------------------------------------------
    @property
    def chips(self):
        """The inner fabric's chips, with chip 0 fault-wrapped.

        Convention: a plan's un-prefixed clauses (``core:``, ``link:``,
        ``dma:``, ``flag:``) address **chip 0** of a fabric -- the
        merge chip, where a fault hurts most -- while ``chiplink:``
        clauses address the fabric's e-links (resolved by
        :meth:`chiplink_outcome`).  None when the inner machine is not
        fabric-shaped.
        """
        inner_chips = getattr(self.inner, "chips", None)
        if inner_chips is None:
            return None
        if self._chips is None:
            self._chips = (
                FaultyMachine(
                    inner_chips[0],
                    self.plan.without_chiplink(),
                    self.schedule.seed,
                ),
            ) + tuple(inner_chips[1:])
        return self._chips

    def chiplink_cycles(self, nbytes: float, n_links: int = 1) -> int:
        return self.inner.chiplink_cycles(nbytes, n_links)

    def chiplink_energy_j(self, nbytes: float, n_links: int = 1) -> float:
        return self.inner.chiplink_energy_j(nbytes, n_links)

    def chiplink_outcome(self, src_chip: int, dst_chip: int) -> tuple[int, bool, str]:
        """(extra stall cycles, dropped?, clause) for one chip-boundary
        transfer, resolved against the plan's ``chiplink:`` clauses."""
        extra, dropped, clause = self.inner.chiplink_outcome(
            src_chip, dst_chip
        )
        for j, fault in self._chiplink_faults:
            if (fault.src_chip, fault.dst_chip) != (src_chip, dst_chip):
                continue
            idx = self._chiplink_triggers[j]
            self._chiplink_triggers[j] = idx + 1
            if not self.schedule.fires(j, idx):
                continue
            clause = fault.clause()
            if fault.action == "stall":
                extra += fault.stall_cycles
                self._record(
                    "chiplink-stall", self.inner.now, clause,
                    f"transfer chip {src_chip}->chip {dst_chip} "
                    f"+{fault.stall_cycles}c",
                )
            else:
                dropped = True
                self._record(
                    "chiplink-drop", self.inner.now, clause,
                    f"transfer chip {src_chip}->chip {dst_chip} lost",
                )
        return extra, dropped, clause

    # -- fabric services -------------------------------------------------
    def set_flag_at(self, flag: Any, cycle: int) -> None:
        if self._drop_next_landing:
            # A dropped link message: its publication flag never lands.
            self._drop_next_landing = False
            return
        if self._flag_raise_dropped():
            return
        self.inner.set_flag_at(flag, cycle)

    # -- execution --------------------------------------------------------
    def run(
        self, programs: Programs, max_cycles: int | None = None
    ) -> RunResult:
        """Run programs with every context call routed through the
        fault layer.  Structured failures (:class:`FaultReport` et al.)
        propagate; everything else is the inner backend's behaviour."""
        wrapped: Programs = {}
        for core_id, program in programs.items():
            fctx = self.context(core_id)

            def make(body, ctx):
                def kernel(_inner_ctx):
                    # ``_inner_ctx`` is the same object ``ctx`` wraps;
                    # the program sees only the fault layer.
                    return body(ctx)

                return kernel

            # Deliberately no ``functools.wraps``: the wrapper must not
            # inherit the program's ``__replay_fp__``, so a replay
            # machine underneath never serves a faulty run from cache.
            wrapped[core_id] = make(program, fctx)
        return self.inner.run(wrapped, max_cycles=max_cycles)
