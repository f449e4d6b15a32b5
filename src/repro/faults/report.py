"""Structured failure vocabulary for fault injection and resilience.

The containment invariant of the fault subsystem (see
``docs/architecture.md`` §11) is that an injected fault may change a
run's outcome in exactly one of five ways -- and never any other:

1. **result parity** -- the fault was *maskable* (pure timing: a slowed
   link, a delayed DMA) and the run completes with identical numerical
   results, possibly at a higher cycle count;
2. a structured :class:`FaultReport` -- the injected fault was detected
   and named (a crashed core, a corrupted DMA word);
3. a :class:`StallError` -- a watchdog expired on a flag wait, with a
   :class:`BlameReport` naming the stuck core, its peer, the flag and
   the wait window;
4. a :class:`DeadlockReport` -- every core of a run is blocked, with
   the per-task wait states at the deadlock cycle;
5. a *stalled* :class:`~repro.machine.api.RunResult` -- a
   ``run(max_cycles=...)`` budget cut the run short
   (``stalled=True``), with the pending ``wait_states`` attached.

A hang, a silent wrong answer, or an unstructured crash is a bug.

This module is a dependency leaf (stdlib only) so both the runtime
layer (:mod:`repro.runtime`) and the machine layer can raise these
without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "BlameReport",
    "FaultReport",
    "StallError",
    "DeadlockReport",
    "CONTAINED_FAILURES",
    "CONTAINED_CODES",
]


@dataclass(frozen=True)
class BlameReport:
    """Who is stuck, on what, since when.

    Emitted by channel watchdogs (inside a :class:`StallError`) and by
    the pipeline deadlock detector (inside a :class:`DeadlockReport`).
    ``role`` is ``"consumer"`` (waiting for data) or ``"producer"``
    (waiting for credit); ``peer_core`` is the core that should have
    unblocked the waiter.
    """

    channel: str
    role: str
    waiter_core: int
    peer_core: int
    flag: str
    since_cycle: int
    now_cycle: int

    @property
    def waited_cycles(self) -> int:
        return self.now_cycle - self.since_cycle

    def describe(self) -> str:
        return (
            f"{self.channel}: core {self.waiter_core} ({self.role}) "
            f"stuck on flag {self.flag!r} since cycle {self.since_cycle} "
            f"({self.waited_cycles} cycles; peer core {self.peer_core})"
        )


class FaultReport(RuntimeError):
    """An injected fault was detected and contained.

    Attributes: ``kind`` (``"core-crash"``, ``"dma-corrupt"``,
    ``"unmappable"``, ...), ``core`` (the affected core, if any),
    ``cycle`` (detection time), ``fault`` (the originating plan clause)
    and ``detail`` (free text).
    """

    def __init__(
        self,
        kind: str,
        detail: str = "",
        core: int | None = None,
        cycle: int | None = None,
        fault: str = "",
    ) -> None:
        bits = [f"fault contained: {kind}"]
        if core is not None:
            bits.append(f"on core {core}")
        if cycle is not None:
            bits.append(f"at cycle {cycle}")
        if fault:
            bits.append(f"[plan clause {fault!r}]")
        if detail:
            bits.append(f"-- {detail}")
        super().__init__(" ".join(bits))
        self.kind = kind
        self.core = core
        self.cycle = cycle
        self.fault = fault
        self.detail = detail

    def describe(self) -> tuple[Any, ...]:
        """Stable tuple for outcome fingerprinting (chaos gate)."""
        return ("fault", self.kind, self.core, self.fault)


class StallError(RuntimeError):
    """A watchdog expired on a flag wait: one core is stuck.

    Carries a :class:`BlameReport` diagnosing which core waited, on
    which channel flag, and for how long -- the diagnosis Section VI-B
    of the paper leaves to the programmer ("a single missed flag stalls
    the entire pipeline").
    """

    def __init__(self, blame: BlameReport, watchdog_cycles: int) -> None:
        super().__init__(
            f"stall: watchdog ({watchdog_cycles} cycles) expired -- "
            + blame.describe()
        )
        self.blame = blame
        self.watchdog_cycles = watchdog_cycles

    def describe(self) -> tuple[Any, ...]:
        b = self.blame
        return ("stall", b.channel, b.role, b.waiter_core, b.peer_core)


class DeadlockReport(RuntimeError):
    """Every core of a run is blocked; no event can unblock them.

    ``waits`` is a tuple of :class:`BlameReport` for channels that were
    mid-wait at the deadlock cycle (empty when the deadlock was not
    channel-shaped, e.g. a missing barrier party).
    """

    def __init__(
        self,
        cycle: int,
        waits: tuple[BlameReport, ...] = (),
        note: str = "",
    ) -> None:
        lines = [f"deadlock at cycle {cycle}"]
        if note:
            lines[0] += f": {note}"
        for w in waits:
            lines.append("  " + w.describe())
        super().__init__("\n".join(lines))
        self.cycle = cycle
        self.waits = waits
        self.note = note

    def describe(self) -> tuple[Any, ...]:
        return (
            "deadlock",
            tuple((w.channel, w.role, w.waiter_core) for w in self.waits),
        )


CONTAINED_FAILURES = (FaultReport, StallError, DeadlockReport)
"""The exception types an injected fault is allowed to surface as."""

CONTAINED_CODES = ("fault", "stall", "deadlock")
"""The leading ``describe()`` tags of :data:`CONTAINED_FAILURES`.

The serving tier uses these as wire-level error codes.  A contained
failure is a *diagnosed* outcome of deterministic work, so the serving
tier answers it at once: a retry would return the same diagnosis.
"""
