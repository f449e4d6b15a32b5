"""MPMD streaming pipelines.

Paper Section V-C: the parallel autofocus "uses different source codes
for the different Epiphany cores ... the overall algorithm is
partitioned into several tasks, each of which is then implemented on an
individual core" with intermediate data "passed in a streaming manner
between the compute nodes".

A :class:`Pipeline` owns a set of named :class:`Task` programs, a
placement of tasks onto cores, and the channels that realise the task
graph's edges.  Running the pipeline spawns every task on its core and
returns the chip-level result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator

from repro.faults.report import (
    CONTAINED_FAILURES,
    BlameReport,
    DeadlockReport,
)
from repro.machine.api import Machine, MachineContext, Programs, RunResult
from repro.runtime.channels import Channel
from repro.runtime.mapping import Placement

TaskProgram = Callable[
    [MachineContext, dict[str, Channel], dict[str, Channel]],
    Iterator[Any],
]
"""A task body: ``(ctx, in_channels, out_channels) -> generator``.
Channel dicts are keyed by the peer task's name."""


@dataclass(frozen=True)
class Task:
    """One pipeline stage: a name and its program."""

    name: str
    program: TaskProgram


class Pipeline:
    """A placed MPMD task pipeline on one machine (any backend)."""

    def __init__(
        self,
        machine: Machine,
        tasks: list[Task],
        placement: Placement,
        channel_capacity: int = 2,
        payload_bytes: dict[tuple[str, str], int] | None = None,
        watchdog: int | None = None,
    ) -> None:
        self.machine = machine
        self.placement = placement
        by_name = {t.name: t for t in tasks}
        if set(by_name) != set(placement.graph.tasks):
            raise ValueError(
                "tasks and placement graph disagree: "
                f"{sorted(by_name)} vs {sorted(placement.graph.tasks)}"
            )
        self.tasks = by_name
        self.channels: dict[tuple[str, str], Channel] = {}
        payload_bytes = payload_bytes or {}
        for (a, b) in placement.graph.edges:
            self.channels[(a, b)] = Channel(
                machine,
                placement.core_id(a),
                placement.core_id(b),
                capacity=channel_capacity,
                payload_bytes=payload_bytes.get((a, b)),
                name=f"{a}->{b}",
                watchdog=watchdog,
            )

    def inputs_of(self, task: str) -> dict[str, Channel]:
        return {
            a: ch for (a, b), ch in self.channels.items() if b == task
        }

    def outputs_of(self, task: str) -> dict[str, Channel]:
        return {
            b: ch for (a, b), ch in self.channels.items() if a == task
        }

    def run(self, max_cycles: int | None = None) -> RunResult:
        """Spawn every task on its placed core and run to completion.

        Failure containment (``docs/architecture.md`` §11):

        - a backend deadlock (event engine *or* analytic) is converted
          into a :class:`~repro.faults.report.DeadlockReport` carrying
          the per-channel wait states at the deadlock cycle, instead of
          surfacing as a bare engine error;
        - a run cut short by ``max_cycles`` returns with
          ``stalled=True`` and the pending channel waits in
          ``wait_states`` -- it never exhausts the budget silently.
        """
        programs: Programs = {}
        for name, task in self.tasks.items():
            core = self.placement.core_id(name)
            ins = self.inputs_of(name)
            outs = self.outputs_of(name)

            def make(body: TaskProgram, i: dict, o: dict):
                def kernel(ctx: MachineContext) -> Iterator[Any]:
                    return body(ctx, i, o)

                return kernel

            programs[core] = make(task.program, ins, outs)
        self._declare_replay_keys(programs)
        try:
            result = self.machine.run(programs, max_cycles=max_cycles)
        except CONTAINED_FAILURES:
            raise
        except RuntimeError as exc:
            if "deadlock" in str(exc).lower():
                raise DeadlockReport(
                    cycle=self.machine.now,
                    waits=self.blocked_waits(),
                    note=str(exc),
                ) from exc
            raise
        if result.stalled:
            result = replace(result, wait_states=self.blocked_waits())
        return result

    def _declare_replay_keys(self, programs: Programs) -> None:
        """Attach a replay cache key to each task's wrapper kernel.

        A wrapper's behaviour is its task program (keyed by the task
        builder's own ``__replay_fp__``), the placement and the channel
        wiring.  Channel *state* is not part of the key, so a key is
        declared only while every channel is untouched: a re-run
        pipeline runs cold.  Any undeclared task program leaves its
        wrapper undeclared, which also keeps the whole run cold.
        """
        if not all(ch.untouched for ch in self.channels.values()):
            return
        placement = tuple(
            (name, self.placement.core_id(name)) for name in self.tasks
        )
        wiring = tuple(
            (edge, ch.capacity, ch.payload_bytes, ch.watchdog)
            for edge, ch in self.channels.items()
        )
        for name, task in self.tasks.items():
            declared = getattr(task.program, "__replay_fp__", None)
            if declared is not None:
                programs[self.placement.core_id(name)].__replay_fp__ = (
                    "mpmd-task",
                    name,
                    declared,
                    placement,
                    wiring,
                )

    def blocked_waits(self) -> tuple[BlameReport, ...]:
        """The channels with a flag wait pending right now, blamed.

        Ordered by waiting core for stable reports; ``now_cycle`` is
        refreshed to the machine clock at collection time.
        """
        waits = []
        for ch in self.channels.values():
            state = ch.wait_state
            if state is not None:
                waits.append(replace(state, now_cycle=self.machine.now))
        return tuple(sorted(waits, key=lambda w: (w.waiter_core, w.channel)))

    def traffic_summary(self) -> dict[tuple[str, str], dict[str, Any]]:
        """Per-edge message/byte/hop statistics after a run."""
        return {
            edge: {
                "messages": ch.messages,
                "bytes": ch.bytes_moved,
                "hops": ch.hops,
                "byte_hops": ch.bytes_moved * ch.hops,
            }
            for edge, ch in self.channels.items()
        }
