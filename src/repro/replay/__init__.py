"""Trace-compiled replay tier for the cycle-accurate event backend.

``replay(event:e16)`` runs the event engine once per *(pre-run chip
state, programs, max_cycles)* equivalence class, captures the resolved
schedule into a :class:`~repro.replay.schedule.CompiledSchedule`, and
replays it on later runs -- byte-identical cycles, traces, golden
fingerprints and energy, at a fraction of the wall clock (see
docs/architecture.md §16 and the ``replay`` section of the verify
gate).  Programs are keyed by the ``__replay_fp__`` declaration their
kernel builder attaches (:func:`~repro.replay.machine.declared_key`);
an undeclared program always runs cold.
"""

from repro.replay.machine import ReplayMachine, declared_key
from repro.replay.schedule import (
    SCHEMA_VERSION,
    ChipState,
    CompiledSchedule,
    apply_schedule,
    compile_schedule,
    restore_chip,
    snapshot_chip,
)

__all__ = [
    "ReplayMachine",
    "declared_key",
    "SCHEMA_VERSION",
    "ChipState",
    "CompiledSchedule",
    "apply_schedule",
    "compile_schedule",
    "restore_chip",
    "snapshot_chip",
]
