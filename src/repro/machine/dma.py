"""Per-core DMA engines.

Paper Section III: "each core contains a DMA engine that allows it to
efficiently transfer data to and from on-chip and off-chip resources
... can transfer a double data word per clock cycle and works at the
same clock frequency as the core."

A DMA transfer runs as a background process: it contends for the
external channel (and the read-plane mesh path) like any other access,
but the issuing core keeps computing and only blocks when it waits on
the completion flag.  This is how the parallel FFBP kernel prefetches
the contributing subaperture data into the local banks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.machine.event import Engine, Flag, Waitable, delay
from repro.machine.memory import ExternalMemory
from repro.machine.specs import EpiphanySpec


@dataclass
class DmaEngine:
    """One core's DMA engine."""

    engine: Engine
    spec: EpiphanySpec
    ext: ExternalMemory
    core_id: int

    def __post_init__(self) -> None:
        self._busy_until = 0
        self.transfers = 0
        self.bytes_moved = 0.0
        self._name = f"dma-core{self.core_id}"

    def start_ext_read(self, nbytes: float, path_cycles: int = 0) -> Flag:
        """Begin an external->local transfer; returns a completion flag.

        ``path_cycles`` is the mesh traversal to the off-chip
        interface, charged once per transfer (descriptor setup and the
        head of the burst).
        """
        if nbytes < 0:
            raise ValueError("negative DMA size")
        flag = Flag(self.engine, self._name)
        self.transfers += 1
        self.bytes_moved += nbytes
        self.engine.spawn(self._run(flag, nbytes, path_cycles), self._name)
        return flag

    def _run(self, flag: Flag, nbytes: float, path_cycles: int) -> Iterator[Waitable]:
        engine = self.engine
        now = engine.now
        # The DMA engine itself serialises its own transfers.
        start_gap = self._busy_until - now
        if start_gap > 0:
            yield delay(start_gap)
            now = engine.now
        finish = self.ext.read_finish(now, nbytes)
        # Engine moves a double word per cycle, so its own pump can
        # also bound the rate.
        pump = int(nbytes / self.spec.dma_bytes_per_cycle)
        done = max(finish, now + pump) + path_cycles
        self._busy_until = done
        yield delay(max(0, done - now))
        flag.set()
