"""Discrete-event simulation engine.

A minimal, deterministic process-based simulator in the SimPy style,
built from scratch for this project.  Processes are Python generators
that yield *waitables*:

- :class:`Delay` -- advance the process by a cycle count,
- :class:`Acquire` -- queue for a :class:`Resource` (a FIFO server with
  a byte/cycle service rate and optional fixed latency),
- :class:`Wait` -- block until a :class:`Flag` is set,
- :class:`Join` -- block until another process finishes.

Time is in integer clock cycles of the simulated device.  Determinism:
ties are broken by schedule order (a monotonic sequence number), so a
simulation is exactly reproducible.

Fast path
---------
What a run simulates is fixed by the sequence of ``(when, seq)``
schedule calls: every reservation on a shared resource (mesh links,
the external channel, the DMA engines) happens when the process that
makes it is stepped, and every float counter accumulates in that same
order.  The host-side fast paths keep that sequence intact and only
make each event cheaper:

- Same-cycle events (flag wakeups, joins, spawns, zero-cycle delays)
  go to a plain FIFO (:attr:`Engine._ready`) instead of the heap.
  Appends happen at non-decreasing ``now`` with strictly increasing
  sequence numbers, so the FIFO is already sorted by ``(when, seq)``
  and the run loop is a two-way merge of FIFO and heap.
- :meth:`Engine.run` steps the generator and schedules a yielded
  :class:`Delay` -- most events -- inline; only the other waitables go
  through :meth:`Engine._dispatch`.
- Waitables are ``slots=True`` dataclasses, and small delays are
  interned via :func:`delay`.

Events are never elided (say, by folding a core's row into one step):
removing one push shifts the ``seq`` of every later push, which can
reorder same-cycle ties on a shared resource.  Cycle counts, traces
and profiles are bit-identical to the plain heap engine; the golden
fingerprints in ``tests/golden/`` and the engine's step counts in
``tests/machine/test_chip.py`` gate this.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Generator, Iterable


class SimulationError(RuntimeError):
    """Raised for protocol violations inside a simulation."""


@dataclass(frozen=True, slots=True)
class Delay:
    """Wait for ``cycles`` clock cycles."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"negative delay: {self.cycles}")


@dataclass(frozen=True, slots=True)
class Acquire:
    """Queue for ``amount`` service units of a :class:`Resource`."""

    resource: "Resource"
    amount: float
    latency: int = 0


@dataclass(frozen=True, slots=True)
class Wait:
    """Block until a :class:`Flag` is set."""

    flag: "Flag"


@dataclass(frozen=True, slots=True)
class Join:
    """Block until another :class:`Process` completes."""

    process: "Process"


Waitable = Delay | Acquire | Wait | Join
ProcessBody = Generator[Waitable, Any, Any]

_DELAY_CACHE_MAX = 256
_DELAY_CACHE: tuple[Delay, ...] = tuple(Delay(c) for c in range(_DELAY_CACHE_MAX))


def delay(cycles: int) -> Delay:
    """Interned :class:`Delay` factory for hot paths.

    ``Delay`` is immutable, so equal-cycle instances are freely
    shareable; returning a cached instance for small counts skips the
    dataclass ``__init__``/``__post_init__`` allocation that otherwise
    runs once per simulated event.  Semantically identical to
    ``Delay(cycles)`` (including the negative-delay ``ValueError``).
    """
    if type(cycles) is int and 0 <= cycles < _DELAY_CACHE_MAX:
        return _DELAY_CACHE[cycles]
    return Delay(cycles)


class Flag:
    """A one-shot synchronisation flag (like an Epiphany mailbox flag).

    Waiters resume on :meth:`set`; :meth:`clear` re-arms the flag for
    reuse (the streaming channels toggle flags per message).
    """

    __slots__ = ("engine", "is_set", "_waiters", "name")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.is_set = False
        self._waiters: list[Process] = []
        self.name = name

    def set(self) -> None:
        self.is_set = True
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.engine._schedule(0, proc)

    def clear(self) -> None:
        self.is_set = False

    def _add_waiter(self, proc: "Process") -> None:
        self._waiters.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "set" if self.is_set else "clear"
        return f"Flag({self.name!r}, {state})"


class Resource:
    """A FIFO server: ``rate`` units per cycle, single queue.

    Models shared channels (NoC links, the external-memory port).  A
    request for ``amount`` units completes at::

        start   = max(now, free_at) ;  free_at = start + amount / rate
        finish  = free_at + latency

    so queueing (``free_at``), occupancy (``amount/rate``) and pipe
    latency are all represented.  ``latency`` does *not* occupy the
    server -- back-to-back requests pipeline behind one another.
    """

    __slots__ = ("engine", "rate", "name", "free_at", "busy_units", "n_requests")

    def __init__(self, engine: "Engine", rate: float, name: str = "") -> None:
        if rate <= 0:
            raise ValueError(f"resource rate must be positive, got {rate}")
        self.engine = engine
        self.rate = float(rate)
        self.name = name
        self.free_at = 0.0
        self.busy_units = 0.0
        self.n_requests = 0

    def request_finish_time(self, amount: float, latency: int) -> int:
        """Reserve ``amount`` units now; return absolute finish cycle."""
        if amount < 0:
            raise ValueError(f"negative resource request: {amount}")
        now = self.engine.now
        start = max(float(now), self.free_at)
        self.free_at = start + amount / self.rate
        self.busy_units += amount
        self.n_requests += 1
        return int(round(self.free_at)) + int(latency)

    def utilization(self) -> float:
        """Fraction of elapsed time the server has been busy."""
        if self.engine.now == 0:
            return 0.0
        return min(1.0, (self.busy_units / self.rate) / self.engine.now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Resource({self.name!r}, rate={self.rate})"


class Process:
    """A running generator inside an :class:`Engine`."""

    __slots__ = ("engine", "body", "name", "done", "cancelled", "result", "_joiners", "start_cycle", "finish_cycle")

    def __init__(self, engine: "Engine", body: ProcessBody, name: str = "") -> None:
        self.engine = engine
        self.body = body
        self.name = name
        self.done = False
        self.cancelled = False
        self.result: Any = None
        self._joiners: list[Process] = []
        self.start_cycle = engine.now
        self.finish_cycle: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


class Barrier:
    """An ``n``-party reusable barrier (SPMD sync primitive)."""

    __slots__ = ("engine", "parties", "_count", "_flag", "name", "n_waits")

    def __init__(self, engine: "Engine", parties: int, name: str = "") -> None:
        if parties < 1:
            raise ValueError(f"barrier needs >= 1 parties, got {parties}")
        self.engine = engine
        self.parties = parties
        self._count = 0
        self._flag = Flag(engine, name=f"{name}.flag")
        self.name = name
        self.n_waits = 0

    def wait(self) -> Iterable[Waitable]:
        """Yield-from this from a process to synchronise."""
        self.n_waits += 1
        self._count += 1
        if self._count == self.parties:
            self._count = 0
            flag, self._flag = self._flag, Flag(self.engine, name=f"{self.name}.flag")
            flag.set()
        else:
            flag = self._flag
            yield Wait(flag)


class Engine:
    """The event loop.

    Typical use::

        eng = Engine()
        procs = [eng.spawn(worker(ctx)) for ctx in contexts]
        eng.run()
        print(eng.now)  # total cycles
    """

    def __init__(self) -> None:
        self.now = 0
        self._heap: list[tuple[int, int, Process]] = []
        self._ready: deque[tuple[int, int, Process]] = deque()
        self._seq = 0
        self._live = 0

    # -- construction helpers -----------------------------------------
    def resource(self, rate: float, name: str = "") -> Resource:
        return Resource(self, rate, name)

    def flag(self, name: str = "") -> Flag:
        return Flag(self, name)

    def barrier(self, parties: int, name: str = "") -> Barrier:
        return Barrier(self, parties, name)

    def spawn(self, body: ProcessBody, name: str = "") -> Process:
        """Register a generator as a process, starting at time ``now``."""
        proc = Process(self, body, name)
        self._live += 1
        self._schedule(0, proc)
        return proc

    def cancel(self, proc: Process) -> None:
        """Abandon a process: pending events are discarded *without*
        advancing the clock past them.

        Used by channel watchdog timers -- a timer armed for a wait
        that completed on time must not keep the simulation alive (and
        the reported cycle count inflated) until its deadline.  Only
        cancel processes that are delay- or heap-blocked; a cancelled
        process is never stepped again and its joiners are not resumed.
        """
        if proc.done or proc.cancelled:
            return
        proc.cancelled = True
        proc.done = True
        proc.finish_cycle = self.now
        self._live -= 1
        proc.body.close()

    # -- scheduling ----------------------------------------------------
    # Same-cycle events go to the ``_ready`` FIFO instead of the heap:
    # ``now`` never decreases and ``_seq`` strictly increases, so the
    # FIFO is sorted by ``(when, seq)`` by construction and the run
    # loop's two-way merge pops events in exactly the order the
    # pure-heap engine did.

    def _schedule(self, delay: int, proc: Process) -> None:
        delay = int(delay)
        if delay == 0:
            self._ready.append((self.now, self._seq, proc))
        else:
            heapq.heappush(self._heap, (self.now + delay, self._seq, proc))
        self._seq += 1

    def _schedule_at(self, when: int, proc: Process) -> None:
        when = max(int(when), self.now)
        if when == self.now:
            self._ready.append((when, self._seq, proc))
        else:
            heapq.heappush(self._heap, (when, self._seq, proc))
        self._seq += 1

    def _dispatch(self, proc: Process, waitable: Waitable) -> None:
        """Schedule or park ``proc`` on a non-:class:`Delay` waitable
        (the run loop handles ``Delay`` itself)."""
        # ``type() is`` beats an isinstance chain; the waitables are
        # final slots-dataclasses, so exact-type checks are complete.
        cls = type(waitable)
        if cls is Acquire:
            finish = waitable.resource.request_finish_time(
                waitable.amount, waitable.latency
            )
            self._schedule_at(finish, proc)
        elif cls is Wait:
            if waitable.flag.is_set:
                self._schedule(0, proc)
            else:
                waitable.flag._add_waiter(proc)
        elif cls is Join:
            if waitable.process.done:
                self._schedule(0, proc)
            else:
                waitable.process._joiners.append(proc)
        else:
            raise SimulationError(
                f"process {proc.name!r} yielded a non-waitable: {waitable!r}"
            )

    def run(self, max_cycles: int | None = None) -> int:
        """Run until no events remain (or ``max_cycles``); return ``now``.

        Raises :class:`SimulationError` on deadlock: live processes
        remain but no event is scheduled (e.g. a flag nobody sets).
        """
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap or ready:
            # Two-way merge on (when, seq); seqs are unique so the
            # tuple comparison never reaches the Process element.
            if not ready:
                when, _seq, proc = heappop(heap)
            elif not heap or ready[0] < heap[0]:
                when, _seq, proc = ready.popleft()
            else:
                when, _seq, proc = heappop(heap)
            if proc.cancelled:
                continue  # discarded event; the clock does not advance
            if max_cycles is not None and when > max_cycles:
                self.now = max_cycles
                return self.now
            if when < self.now:
                raise SimulationError("time went backwards (engine bug)")
            self.now = when
            try:
                waitable = next(proc.body)
            except StopIteration as stop:
                proc.done = True
                proc.result = stop.value
                proc.finish_cycle = self.now
                self._live -= 1
                for joiner in proc._joiners:
                    self._schedule(0, joiner)
                proc._joiners.clear()
                continue
            if type(waitable) is not Delay:
                self._dispatch(proc, waitable)
                continue
            # The Delay path is :meth:`_schedule` inlined: most events
            # are delays.  The body may have scheduled others while it
            # ran, so ``_seq`` is read after ``next``.
            cycles = waitable.cycles
            if type(cycles) is not int:
                cycles = int(cycles)
            seq = self._seq
            if cycles == 0:
                ready.append((self.now, seq, proc))
            else:
                heappush(heap, (self.now + cycles, seq, proc))
            self._seq = seq + 1
        if self._live > 0:
            raise SimulationError(
                f"deadlock: {self._live} process(es) blocked with no pending events"
            )
        return self.now
