"""``ReplayMachine``: trace-compiled execution of the event backend.

Wraps a :class:`~repro.machine.chip.EpiphanyChip` behind the
:class:`~repro.machine.api.Machine` protocol.  The first
:meth:`ReplayMachine.run` of a given *(pre-run chip state, programs,
max_cycles, recorder?)* equivalence class runs the event engine cold
and captures the resolved schedule into a
:class:`~repro.replay.schedule.CompiledSchedule`; every later run of
the same class restores the captured post-state in one pass instead of
re-simulating -- byte-identical cycles, traces, energy and results,
enforced by the ``replay`` section of the verify gate.

Caching flows through :func:`repro.perf.memoize` as the persisted
``"replay"`` kind (memory tier, then the opt-in disk tier); the key
embeds :func:`~repro.exec.cache.code_version`, so any source edit
invalidates every captured schedule at once.  The memo payload is the
schema version, the spec dataclass, the pre-run
:class:`~repro.replay.schedule.ChipState`, the programs' declared keys
(see :func:`declared_key`), ``max_cycles`` and recorder presence.

**Declared keys.**  A program is cacheable only if the builder that
made it attached a ``__replay_fp__`` attribute: a digest-stable value
(primitives, tuples, dataclasses, ndarrays) holding every input the
generator's behaviour depends on beyond its source code -- a plan, a
core count, an interpolation mode.  Source code itself is covered by
``code_version``.  The verify gate's byte-identity oracles and the
key-completeness tests in ``tests/replay`` are the backstop for an
incomplete declaration.

Safety valves (all observable through :meth:`stats`):

- a non-chip inner machine (analytic, fabric, fault-wrapped) is pure
  pass-through -- ``bypassed`` counts those runs;
- pending engine events or live processes at run entry (a stalled
  prior phase, an un-drained ``set_flag_at`` landing) bypass capture;
- a program set with any undeclared program runs cold and caches
  nothing -- ``uncacheable`` counts them.  The fault layer wraps every
  program in a fresh undeclared closure, which is what guarantees any
  ``faulty(...)`` wrapper or chaos clause misses the cache;
- a run that stalls (exhausts ``max_cycles``) is remembered as an
  *always-cold* class via the invalid-schedule sentinel.

Registry spelling: ``replay(<inner-spec>)`` composes (e.g.
``replay(event:e16)``); the bare backend name ``replay`` defaults the
inner to the event chip (``replay:e16`` == ``replay(event:e16)``).
"""

from __future__ import annotations

from typing import Any

from repro.machine.api import Machine, Programs, RunResult
from repro.replay.schedule import (
    INVALID_SCHEDULE,
    SCHEMA_VERSION,
    CompiledSchedule,
    apply_schedule,
    compile_schedule,
    snapshot_chip,
)

__all__ = ["ReplayMachine", "declared_key"]


def declared_key(programs: Programs) -> tuple | None:
    """The replay-cache key of a core->program mapping, or ``None``.

    One ``(core, digest)`` entry per core, where the digest covers the
    program's module, qualname and ``__replay_fp__`` declaration.
    ``None`` when any program is undeclared: such a set is never
    cached.  A program mapped onto several cores (SPMD) is digested
    once.
    """
    from repro.exec.cache import stable_digest

    digests: dict[int, str] = {}
    entries = []
    for core in sorted(programs):
        program = programs[core]
        digest = digests.get(id(program))
        if digest is None:
            declared = getattr(program, "__replay_fp__", None)
            if declared is None:
                return None
            digest = digests[id(program)] = stable_digest(
                (program.__module__, program.__qualname__, declared)
            )
        entries.append((core, digest))
    return tuple(entries)


class ReplayMachine:
    """A :class:`~repro.machine.api.Machine` that replays captured
    event schedules (see module docstring)."""

    def __init__(self, inner: Machine) -> None:
        from repro.machine.chip import EpiphanyChip

        self.inner = inner
        self._cacheable = type(inner) is EpiphanyChip
        self.captures = 0
        self.replays = 0
        self.bypassed = 0
        self.uncacheable = 0

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
    def recorder(self):
        return self.inner.recorder

    @recorder.setter
    def recorder(self, value) -> None:
        # ``repro profile`` attaches its ActivityRecorder with plain
        # attribute assignment; without this setter the write would
        # land on the wrapper and the chip would silently not record.
        self.inner.recorder = value

    def context(self, core_id: int):
        return self.inner.context(core_id)

    def flag(self, name: str = "") -> Any:
        return self.inner.flag(name=name)

    def set_flag_at(self, flag: Any, cycle: int) -> None:
        self.inner.set_flag_at(flag, cycle)

    def hops(self, src_core: int, dst_core: int) -> int:
        return self.inner.hops(src_core, dst_core)

    def advance(self, cycles: int, busy_cores: int = 0) -> None:
        self.inner.advance(cycles, busy_cores)

    def __getattr__(self, name: str) -> Any:
        # Anything beyond the Machine protocol (``engine`` for the
        # watchdog sniffers, fabric services, ...) delegates.
        return getattr(self.inner, name)

    def stats(self) -> dict[str, int]:
        """Capture/replay counters for tests, bench and health."""
        return {
            "captures": self.captures,
            "replays": self.replays,
            "bypassed": self.bypassed,
            "uncacheable": self.uncacheable,
        }

    # -- execution --------------------------------------------------------
    def _cold(self, programs: Programs, max_cycles: int | None) -> RunResult:
        return self.inner.run(programs, max_cycles=max_cycles)

    def run(
        self, programs: Programs, max_cycles: int | None = None
    ) -> RunResult:
        from repro.perf import memo_enabled, memo_key, memoize

        inner = self.inner
        if not self._cacheable or not memo_enabled():
            self.bypassed += 1
            return self._cold(programs, max_cycles)
        engine = inner.engine
        if engine._heap or engine._ready or engine._live:
            # Pending events (a stalled prior run, an un-drained
            # background landing): the pre-state is not fully
            # value-capturable, so this run is not an equivalence
            # class we can key.
            self.bypassed += 1
            return self._cold(programs, max_cycles)
        key = declared_key(programs)
        if key is None:
            self.uncacheable += 1
            return self._cold(programs, max_cycles)
        payload = {
            "schema": SCHEMA_VERSION,
            "spec": inner.spec,
            "pre": snapshot_chip(inner),
            "programs": key,
            "max_cycles": max_cycles,
            "recorder": inner.recorder is not None,
        }
        live: list[RunResult] = []

        def build() -> CompiledSchedule:
            intervals_before = (
                len(inner.recorder.intervals)
                if inner.recorder is not None
                else 0
            )
            result = self._cold(programs, max_cycles)
            live.append(result)
            if result.stalled:
                return INVALID_SCHEDULE
            return compile_schedule(
                inner, result, tuple(sorted(programs)), intervals_before
            )

        sched = memoize(memo_key("replay", payload), build, persist=True)
        if live:
            # This call was the capture (or the stalled cold run that
            # poisoned the class): hand back the live result untouched.
            if sched.valid:
                self.captures += 1
            else:
                self.bypassed += 1
            return live[0]
        if not sched.valid:
            # A previously-seen stalling class: always run cold (the
            # stall left pending events last time; it will again).
            self.bypassed += 1
            return self._cold(programs, max_cycles)
        self.replays += 1
        return apply_schedule(inner, sched)
