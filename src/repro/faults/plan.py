"""Declarative, seed-driven fault plans.

A *fault plan* is a semicolon-separated list of clauses describing
which hardware faults to inject into a simulated run::

    core:5@cycle=10000:crash            # core 5 halts at cycle 10000
    link:(1,2)->(2,2)@p=0.01:stall=40   # mesh link degrades 1% of msgs
    link:(0,0)->(0,1)@p=0.5:drop        # mesh link loses messages
    chiplink:(1)->(0)@p=0.1:stall=500   # chip 1->0 e-link runs late
    chiplink:(2)->(0)@p=0.05:drop       # chip 2->0 e-link loses data
    dma:3:corrupt-word                  # core 3's next DMA is corrupted
    dma:3@n=2:stall=64                  # core 3's 2nd DMA runs 64c late
    flag:drop@n=2                       # the 2nd flag raise is lost
    seed=7                              # plan-level RNG seed (default 0)

Probabilistic clauses (``@p=...``) expand into a *deterministic*
schedule: the decision for trigger ``i`` of fault clause ``j`` is a
pure function of ``(plan text, seed, j, i)`` via
:func:`repro.exec.seeding.derive_seed` -- stable across processes,
platforms and ``PYTHONHASHSEED``, so a plan + seed reproduces the
identical fault schedule at any ``--jobs`` level (and the chaos gate
can assert byte-identical schedules, see
:meth:`FaultSchedule.fingerprint`).

Faults split into two containment classes (see
:mod:`repro.faults.report`):

- **maskable** -- pure timing (``link ... stall``, ``dma ... stall``):
  the run must still complete with identical numerical results;
- **non-maskable** (``crash``, ``drop``, ``corrupt-word``): the run
  must end in a structured failure, never a hang or a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Union

from repro.exec.seeding import SEED_BITS, derive_seed

__all__ = [
    "CoreFault",
    "LinkFault",
    "ChipLinkFault",
    "DmaFault",
    "FlagFault",
    "Fault",
    "FaultPlan",
    "FaultSchedule",
    "parse_plan",
]

Coord = tuple[int, int]


@dataclass(frozen=True)
class CoreFault:
    """A core halts: every context operation at/after ``at_cycle``
    raises a detected :class:`~repro.faults.report.FaultReport`."""

    core: int
    at_cycle: int
    action: str = "crash"

    @property
    def maskable(self) -> bool:
        return False

    @property
    def dead_on_arrival(self) -> bool:
        """Crashed before the run started: re-mappable around."""
        return self.at_cycle <= 0

    def clause(self) -> str:
        return f"core:{self.core}@cycle={self.at_cycle}:{self.action}"


@dataclass(frozen=True)
class LinkFault:
    """A directed mesh link degrades messages whose XY route uses it.

    Per message, with probability ``p`` (seeded, deterministic), either
    delay the tail by ``stall_cycles`` (``action="stall"``, maskable)
    or lose the message entirely (``action="drop"``: the arrival flag
    is never raised, surfacing as a watchdog stall or a deadlock).
    """

    src: Coord
    dst: Coord
    p: float
    action: str
    stall_cycles: int = 0

    @property
    def maskable(self) -> bool:
        return self.action == "stall"

    def clause(self) -> str:
        tail = f"stall={self.stall_cycles}" if self.action == "stall" else "drop"
        return (
            f"link:({self.src[0]},{self.src[1]})->"
            f"({self.dst[0]},{self.dst[1]})@p={self.p:g}:{tail}"
        )


@dataclass(frozen=True)
class DmaFault:
    """One core's ``nth`` DMA transfer misbehaves.

    ``corrupt-word`` models a bit flip caught by the integrity check at
    completion (detected, non-maskable); ``stall=K`` delays completion
    by ``K`` cycles (maskable).
    """

    core: int
    action: str
    nth: int = 1
    stall_cycles: int = 0

    @property
    def maskable(self) -> bool:
        return self.action == "stall"

    def clause(self) -> str:
        tail = f"stall={self.stall_cycles}" if self.action == "stall" else self.action
        n = f"@n={self.nth}" if self.nth != 1 else ""
        return f"dma:{self.core}{n}:{tail}"


@dataclass(frozen=True)
class ChipLinkFault:
    """A directed chip-to-chip e-link degrades boundary transfers.

    The fabric analogue of :class:`LinkFault`: per transfer from chip
    ``src_chip`` to chip ``dst_chip``, with probability ``p`` (seeded,
    deterministic), either delay the arrival by ``stall_cycles``
    (``action="stall"``, maskable) or lose the transfer
    (``action="drop"``: the sharded executive surfaces a structured
    ``chiplink-drop`` :class:`~repro.faults.report.FaultReport`).
    """

    src_chip: int
    dst_chip: int
    p: float
    action: str
    stall_cycles: int = 0

    @property
    def maskable(self) -> bool:
        return self.action == "stall"

    def clause(self) -> str:
        tail = f"stall={self.stall_cycles}" if self.action == "stall" else "drop"
        return (
            f"chiplink:({self.src_chip})->({self.dst_chip})"
            f"@p={self.p:g}:{tail}"
        )


@dataclass(frozen=True)
class FlagFault:
    """The ``nth`` flag raise through the machine API is lost.

    Models the paper's Section VI-B failure mode: "a single missed
    flag stalls the entire MPMD pipeline".  Counted over context
    ``set_flag`` calls and machine ``set_flag_at`` landings, 1-based,
    in execution order (deterministic per backend).
    """

    nth: int

    @property
    def maskable(self) -> bool:
        return False

    def clause(self) -> str:
        return f"flag:drop@n={self.nth}"


Fault = Union[CoreFault, LinkFault, DmaFault, FlagFault, ChipLinkFault]

_CORE_RE = re.compile(r"^core:(\d+)@cycle=(\d+):crash$")
_LINK_RE = re.compile(
    r"^link:\((\d+),(\d+)\)->\((\d+),(\d+)\)"
    r"@p=([0-9.eE+-]+):(?:stall=(\d+)|(drop))$"
)
_CHIPLINK_RE = re.compile(
    r"^chiplink:\((\d+)\)->\((\d+)\)"
    r"@p=([0-9.eE+-]+):(?:stall=(\d+)|(drop))$"
)
_DMA_RE = re.compile(r"^dma:(\d+)(?:@n=(\d+))?:(?:(corrupt-word)|stall=(\d+))$")
_FLAG_RE = re.compile(r"^flag:drop@n=(\d+)$")
_SEED_RE = re.compile(r"^seed=(\d+)$")


@dataclass(frozen=True)
class FaultPlan:
    """A parsed fault plan: clauses plus the plan-level seed.

    ``text`` is the *canonical* form (normalised clauses joined by
    ``"; "``), so two spellings of the same plan share one schedule.
    """

    text: str
    faults: tuple[Fault, ...]
    seed: int = 0

    @staticmethod
    def empty() -> "FaultPlan":
        return FaultPlan(text="", faults=())

    def __bool__(self) -> bool:
        return bool(self.faults)

    @property
    def maskable(self) -> bool:
        """True iff *every* clause is pure-timing (the run must then
        complete with result parity)."""
        return all(f.maskable for f in self.faults)

    # Filtered views (tuples are tiny; recompute freely).
    @property
    def core_faults(self) -> tuple[CoreFault, ...]:
        return tuple(f for f in self.faults if isinstance(f, CoreFault))

    @property
    def dma_faults(self) -> tuple[DmaFault, ...]:
        return tuple(f for f in self.faults if isinstance(f, DmaFault))

    @property
    def flag_faults(self) -> tuple[FlagFault, ...]:
        return tuple(f for f in self.faults if isinstance(f, FlagFault))

    @property
    def chiplink_faults(self) -> tuple[ChipLinkFault, ...]:
        return tuple(f for f in self.faults if isinstance(f, ChipLinkFault))

    def without_chiplink(self) -> "FaultPlan":
        """The plan's chip-local clauses only (chiplink clauses removed).

        Used by the faulty fabric wrapper: un-prefixed clauses address
        chip 0, chiplink clauses address the fabric's e-links.
        """
        if not self.chiplink_faults:
            return self
        clauses = [
            f.clause()
            for f in self.faults
            if not isinstance(f, ChipLinkFault)
        ]
        if self.seed:
            clauses.append(f"seed={self.seed}")
        return parse_plan("; ".join(clauses))

    def dead_cores(self) -> tuple[int, ...]:
        """Cores crashed before cycle 1 (re-mappable around)."""
        return tuple(
            sorted({f.core for f in self.core_faults if f.dead_on_arrival})
        )


def _parse_clause(clause: str) -> Fault:
    m = _CORE_RE.match(clause)
    if m:
        return CoreFault(core=int(m.group(1)), at_cycle=int(m.group(2)))
    m = _LINK_RE.match(clause)
    if m:
        src = (int(m.group(1)), int(m.group(2)))
        dst = (int(m.group(3)), int(m.group(4)))
        if abs(src[0] - dst[0]) + abs(src[1] - dst[1]) != 1:
            raise ValueError(
                f"link fault {clause!r}: {src}->{dst} is not a directed "
                f"link between adjacent mesh nodes"
            )
        try:
            p = float(m.group(5))
        except ValueError:
            raise ValueError(f"link fault {clause!r}: bad probability") from None
        if not 0.0 < p <= 1.0:
            raise ValueError(
                f"link fault {clause!r}: p={p:g} outside (0, 1]"
            )
        if m.group(6) is not None:
            stall = int(m.group(6))
            if stall < 1:
                raise ValueError(f"link fault {clause!r}: stall must be >= 1")
            return LinkFault(src, dst, p, "stall", stall)
        return LinkFault(src, dst, p, "drop")
    m = _CHIPLINK_RE.match(clause)
    if m:
        src_chip, dst_chip = int(m.group(1)), int(m.group(2))
        if src_chip == dst_chip:
            raise ValueError(
                f"chiplink fault {clause!r}: source and destination "
                f"chip are both {src_chip}"
            )
        try:
            p = float(m.group(3))
        except ValueError:
            raise ValueError(
                f"chiplink fault {clause!r}: bad probability"
            ) from None
        if not 0.0 < p <= 1.0:
            raise ValueError(
                f"chiplink fault {clause!r}: p={p:g} outside (0, 1]"
            )
        if m.group(4) is not None:
            stall = int(m.group(4))
            if stall < 1:
                raise ValueError(
                    f"chiplink fault {clause!r}: stall must be >= 1"
                )
            return ChipLinkFault(src_chip, dst_chip, p, "stall", stall)
        return ChipLinkFault(src_chip, dst_chip, p, "drop")
    m = _DMA_RE.match(clause)
    if m:
        nth = int(m.group(2)) if m.group(2) else 1
        if nth < 1:
            raise ValueError(f"dma fault {clause!r}: n must be >= 1")
        if m.group(3):
            return DmaFault(core=int(m.group(1)), action="corrupt-word", nth=nth)
        stall = int(m.group(4))
        if stall < 1:
            raise ValueError(f"dma fault {clause!r}: stall must be >= 1")
        return DmaFault(
            core=int(m.group(1)), action="stall", nth=nth, stall_cycles=stall
        )
    m = _FLAG_RE.match(clause)
    if m:
        nth = int(m.group(1))
        if nth < 1:
            raise ValueError(f"flag fault {clause!r}: n must be >= 1")
        return FlagFault(nth=nth)
    raise ValueError(
        f"unparseable fault clause {clause!r}; expected one of "
        f"'core:<id>@cycle=<N>:crash', "
        f"'link:(r,c)->(r,c)@p=<p>:stall=<K>|drop', "
        f"'chiplink:(i)->(j)@p=<p>:stall=<K>|drop', "
        f"'dma:<core>[@n=<N>]:corrupt-word|stall=<K>', "
        f"'flag:drop@n=<N>', 'seed=<int>'"
    )


def parse_plan(text: str) -> FaultPlan:
    """Parse a fault-plan string into a :class:`FaultPlan`.

    Clauses are ``;``-separated; whitespace is insignificant; an empty
    string (or only whitespace/semicolons) is the empty plan.  Raises
    :class:`ValueError` with the offending clause on malformed input.
    """
    faults: list[Fault] = []
    seed = 0
    for raw in (text or "").split(";"):
        clause = "".join(raw.split()).lower()
        if not clause:
            continue
        m = _SEED_RE.match(clause)
        if m:
            seed = int(m.group(1))
            continue
        faults.append(_parse_clause(clause))
    clauses = [f.clause() for f in faults]
    if seed:  # a non-zero seed is part of the plan's identity
        clauses.append(f"seed={seed}")
    canonical = "; ".join(clauses)
    return FaultPlan(text=canonical, faults=tuple(faults), seed=seed)


class FaultSchedule:
    """The deterministic expansion of a plan under a seed.

    Every probabilistic decision is a pure function of
    ``(plan text, seed, clause index, trigger index)`` -- no mutable
    RNG state, so the schedule is identical however (and wherever) the
    simulation interleaves its queries.
    """

    def __init__(self, plan: FaultPlan, seed: int | None = None) -> None:
        self.plan = plan
        self.seed = plan.seed if seed is None else int(seed)

    def fires(self, fault_idx: int, trigger_idx: int) -> bool:
        """Does clause ``fault_idx`` fire on its ``trigger_idx``-th
        opportunity?  Deterministic; threshold test on a derived
        63-bit hash against ``p``."""
        fault = self.plan.faults[fault_idx]
        p = getattr(fault, "p", 1.0)
        if p >= 1.0:
            return True
        draw = derive_seed(
            self.seed, f"{self.plan.text}|{fault_idx}|{trigger_idx}"
        )
        return draw < int(p * (1 << SEED_BITS))

    def expand(self, horizon: int = 64) -> dict:
        """Materialise the first ``horizon`` decisions of every clause.

        The returned structure is canonical-JSON-stable: the
        byte-identical-schedule contract of the chaos gate compares
        :meth:`fingerprint` across processes and ``--jobs`` levels.
        """
        return {
            "plan": self.plan.text,
            "seed": self.seed,
            "clauses": [
                {
                    "clause": fault.clause(),
                    "maskable": fault.maskable,
                    "decisions": [
                        self.fires(j, i) for i in range(horizon)
                    ],
                }
                for j, fault in enumerate(self.plan.faults)
            ],
        }

    def fingerprint(self, horizon: int = 64) -> str:
        """SHA-256 hex digest of the canonical expanded schedule."""
        blob = json.dumps(
            self.expand(horizon), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
