"""Flag-synchronised streaming channels between cores.

Paper Section VI-B: on Epiphany, MPMD streaming requires "explicit
management of synchronization between the different cores ... the
synchronization is required for the processing cores to indicate to the
following core ... that it has completed its task so that the
subsequent core can proceed".

A :class:`Channel` models exactly that idiom: the producer posts the
payload into the consumer's local memory over the on-chip write mesh
and then raises a flag; the consumer spins on the flag.  Channels are
credit-flow-controlled (the consumer's buffer has ``capacity`` slots;
a full channel stalls the producer), which is how pipeline backpressure
arises in the autofocus mapping.

Channels are written purely against the machine-abstraction layer
(:mod:`repro.machine.api`): flag creation, deferred flag raising and
mesh distances come from the :class:`~repro.machine.api.Machine`;
posting, store issue and flag waits go through the per-core
:class:`~repro.machine.api.MachineContext`.  The same channel therefore
runs on the event-driven chip and on the analytic backend.

Resilience (``docs/architecture.md`` §11): every flag wait records a
:class:`~repro.faults.report.BlameReport` in :attr:`Channel.wait_state`
while it is pending, so the pipeline deadlock detector and the stalled
``RunResult`` path can say *who* is stuck on *what*.  An optional
``watchdog`` (cycles) arms a timer on event backends: a wait that
outlives it raises :class:`~repro.faults.report.StallError` instead of
letting the run burn silently -- the diagnosis Section VI-B of the
paper leaves to the programmer.  Watchdogs default to off; fault-free
runs are byte-identical with or without this module's bookkeeping.
"""

from __future__ import annotations

from dataclasses import replace
from collections import deque
from typing import Any, Iterator

from repro.faults.report import BlameReport, StallError
from repro.machine.api import Machine, MachineContext


class Channel:
    """A single-producer single-consumer streaming channel."""

    def __init__(
        self,
        machine: Machine,
        src_core: int,
        dst_core: int,
        capacity: int = 2,
        payload_bytes: int | None = None,
        name: str = "",
        watchdog: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(
                f"capacity must be >= 1, got {capacity} "
                f"(channel from src core {src_core} to dst core {dst_core}; "
                f"a zero-capacity channel deadlocks its producer on the "
                f"first post)"
            )
        if src_core == dst_core:
            raise ValueError("channel endpoints must be distinct cores")
        if watchdog is not None and watchdog < 1:
            raise ValueError(f"watchdog must be >= 1 cycles, got {watchdog}")
        self.machine = machine
        self.src_core = src_core
        self.dst_core = dst_core
        self.capacity = capacity
        self.payload_bytes = payload_bytes
        self.watchdog = watchdog
        self.wait_state: BlameReport | None = None
        self.name = name or f"ch{src_core}->{dst_core}"
        self._data: deque[Any] = deque()
        self._credits = capacity
        self._credit_flag: Any = None
        self._recv_flag: Any = None
        self.messages = 0
        self.bytes_moved = 0.0
        self.hops = machine.hops(src_core, dst_core)
        # Consumer-side buffer lives in the destination scratchpad.
        if payload_bytes is not None:
            machine.context(dst_core).local.allocate(capacity * payload_bytes)

    @property
    def untouched(self) -> bool:
        """True until a run has sent on or waited at this channel.

        Every send counts a message; a receive that starts on an empty
        channel parks ``_recv_flag`` until the next send clears it.
        """
        return self.messages == 0 and self._recv_flag is None

    # ------------------------------------------------------------------
    def _guarded_wait(
        self, ctx: MachineContext, flag: Any, role: str
    ) -> Iterator[Any]:
        """Wait on ``flag``, recording blame while pending.

        ``role`` is ``"consumer"`` (waiting for data) or ``"producer"``
        (waiting for credit).  With a :attr:`watchdog` armed on an
        event backend, a timer force-raises the flag at the deadline
        and the resumed waiter raises :class:`StallError`; on other
        backends the machine's own deadlock detection takes over (the
        pipeline layer converts it to a structured report using
        :attr:`wait_state`).
        """
        since = ctx.now
        peer = self.src_core if role == "consumer" else self.dst_core
        self.wait_state = BlameReport(
            channel=self.name,
            role=role,
            waiter_core=ctx.core_id,
            peer_core=peer,
            flag=getattr(flag, "name", "") or repr(flag),
            since_cycle=since,
            now_cycle=since,
        )
        engine = getattr(self.machine, "engine", None)
        expired: list[bool] = []
        timer = None
        if (
            self.watchdog is not None
            and engine is not None
            and not getattr(flag, "is_set", True)
        ):
            from repro.machine.event import delay

            deadline = since + self.watchdog

            def _watchdog_timer() -> Iterator[Any]:
                gap = deadline - engine.now
                if gap > 0:
                    yield delay(gap)
                if not flag.is_set:
                    expired.append(True)
                    flag.set()  # wake the waiter so it can raise

            timer = engine.spawn(_watchdog_timer(), name=f"wd:{self.name}")
        yield from ctx.wait_flag(flag)
        if timer is not None and not timer.done:
            engine.cancel(timer)
        state, self.wait_state = self.wait_state, None
        if expired:
            raise StallError(
                replace(state, now_cycle=ctx.now), self.watchdog
            )

    def send(self, ctx: MachineContext, nbytes: float) -> Iterator[Any]:
        """Producer side: post a message of ``nbytes``.

        Stalls on missing credit (consumer buffer full), then issues
        the stores (one 64-bit store per cycle through the write mesh)
        and raises the consumer's flag when the tail lands.
        """
        if ctx.core_id != self.src_core:
            raise ValueError(
                f"{self.name}: send from core {ctx.core_id}, expected {self.src_core}"
            )
        if self.payload_bytes is not None and nbytes > self.payload_bytes:
            raise ValueError(
                f"{self.name}: message of {nbytes} B exceeds slot size "
                f"{self.payload_bytes} B"
            )
        while self._credits == 0:
            self._credit_flag = self.machine.flag(name=f"{self.name}.credit")
            yield from self._guarded_wait(ctx, self._credit_flag, "producer")
        self._credits -= 1
        self.messages += 1
        self.bytes_moved += nbytes
        ctx.trace.messages_sent += 1

        arrival = ctx.remote_write_arrival(self.dst_core, nbytes)
        data_flag = self.machine.flag(name=f"{self.name}.msg{self.messages}")
        self._data.append(data_flag)
        if self._recv_flag is not None:
            flag, self._recv_flag = self._recv_flag, None
            ctx.set_flag(flag)
        self.machine.set_flag_at(data_flag, arrival)

        # Store issue cost on the producer.
        yield from ctx.issue_stores(nbytes)

    def recv(self, ctx: MachineContext) -> Iterator[Any]:
        """Consumer side: wait for the next message and free its slot."""
        if ctx.core_id != self.dst_core:
            raise ValueError(
                f"{self.name}: recv on core {ctx.core_id}, expected {self.dst_core}"
            )
        while not self._data:
            self._recv_flag = self.machine.flag(name=f"{self.name}.empty")
            yield from self._guarded_wait(ctx, self._recv_flag, "consumer")
        flag = self._data.popleft()
        before = ctx.now
        yield from self._guarded_wait(ctx, flag, "consumer")
        ctx.trace.stall_cycles += ctx.now - before
        ctx.trace.messages_received += 1
        # Free the slot: return a credit to the producer.
        self._credits += 1
        if self._credit_flag is not None:
            cf, self._credit_flag = self._credit_flag, None
            ctx.set_flag(cf)
