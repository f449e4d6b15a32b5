"""Declarative dataflow graphs -- the paper's future-work direction.

Paper Section VII: "a high-level language support that can raise the
abstraction level for the programmer, while not compromising the
performance benefits, is essential", pointing at the authors' occam-pi
work on CSP-style process networks.

This module is that idea in miniature: instead of hand-writing one C
program per core plus manual flag synchronisation (the MPMD burden of
Section VI-B), the programmer declares a synchronous dataflow graph --
nodes with per-firing work, edges with per-firing payloads -- and the
builder generates the per-core programs, allocates the channels, and
places the graph on the mesh with the communication-aware optimiser.
The generated network is deadlock-free by construction for acyclic
graphs (credit-flow channels + topological firing order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.machine.api import Machine, MachineContext, RunResult
from repro.machine.core import OpBlock
from repro.runtime.mapping import Placement, TaskGraph, greedy_place
from repro.runtime.mpmd import Pipeline, Task


@dataclass(frozen=True)
class NodeSpec:
    """One dataflow actor: its per-firing work."""

    name: str
    work: OpBlock


@dataclass(frozen=True)
class EdgeSpec:
    """One stream: bytes produced per upstream firing."""

    src: str
    dst: str
    nbytes: int


class GraphError(ValueError):
    """Raised for malformed dataflow graphs."""


@dataclass
class DataflowGraph:
    """A rate-1 synchronous dataflow graph.

    Every node fires once per graph iteration, consuming one token on
    each input edge and producing one on each output edge.  Build with
    :meth:`node` and :meth:`edge`, then :meth:`build` for a runnable
    :class:`~repro.runtime.mpmd.Pipeline`.
    """

    nodes: dict[str, NodeSpec] = field(default_factory=dict)
    edges: list[EdgeSpec] = field(default_factory=list)

    def node(self, name: str, work: OpBlock) -> "DataflowGraph":
        """Declare an actor; returns self for chaining."""
        if name in self.nodes:
            raise GraphError(f"duplicate node {name!r}")
        self.nodes[name] = NodeSpec(name, work)
        return self

    def edge(self, src: str, dst: str, nbytes: int) -> "DataflowGraph":
        """Declare a stream from ``src`` to ``dst``."""
        for endpoint in (src, dst):
            if endpoint not in self.nodes:
                raise GraphError(f"edge references unknown node {endpoint!r}")
        if src == dst:
            raise GraphError(f"self-loop on {src!r}")
        if nbytes < 0:
            raise GraphError("negative payload")
        if any(e.src == src and e.dst == dst for e in self.edges):
            raise GraphError(f"duplicate edge {src!r} -> {dst!r}")
        self.edges.append(EdgeSpec(src, dst, nbytes))
        return self

    # ------------------------------------------------------------------
    def topological_order(self) -> list[str]:
        """Topological node order; raises :class:`GraphError` on cycles.

        Cycles would deadlock the generated network (every actor waits
        on its inputs before producing), so they are rejected at build
        time rather than discovered at simulation time.
        """
        indeg = {n: 0 for n in self.nodes}
        for e in self.edges:
            indeg[e.dst] += 1
        ready = sorted(n for n, d in indeg.items() if d == 0)
        order: list[str] = []
        while ready:
            n = ready.pop(0)
            order.append(n)
            for e in self.edges:
                if e.src == n:
                    indeg[e.dst] -= 1
                    if indeg[e.dst] == 0:
                        ready.append(e.dst)
            ready.sort()
        if len(order) != len(self.nodes):
            cyclic = sorted(set(self.nodes) - set(order))
            raise GraphError(f"dataflow graph has a cycle through {cyclic}")
        return order

    def task_graph(self) -> TaskGraph:
        """The weighted graph the placement optimiser consumes."""
        return TaskGraph(
            tasks=tuple(self.nodes),
            edges={(e.src, e.dst): float(e.nbytes) for e in self.edges},
        )

    def _make_program(self, name: str, firings: int):
        spec = self.nodes[name]

        def program(
            ctx: MachineContext,
            ins: dict[str, "object"],
            outs: dict[str, "object"],
        ) -> Iterator[Any]:
            for _ in range(firings):
                for ch in ins.values():
                    yield from ch.recv(ctx)
                yield from ctx.work(spec.work)
                for ch in outs.values():
                    yield from ch.send(ctx, self._payload(name, ch))

        program.__replay_fp__ = (
            "dataflow-node",
            spec,
            firings,
            tuple((e.dst, e.nbytes) for e in self.edges if e.src == name),
        )
        return program

    def _payload(self, src: str, channel) -> int:
        for e in self.edges:
            if e.src == src and channel.name == f"{e.src}->{e.dst}":
                return e.nbytes
        raise GraphError(f"no edge for channel {channel.name!r}")  # pragma: no cover

    def build(
        self,
        machine: Machine,
        firings: int,
        placement: Placement | None = None,
        channel_capacity: int = 2,
        watchdog: int | None = None,
    ) -> Pipeline:
        """Generate programs, channels and placement; return a Pipeline.

        ``firings`` is how many graph iterations to run.  The payload
        buffers are sized from the edge declarations, so local-memory
        overflow is caught at build time.
        """
        if not self.nodes:
            raise GraphError("empty graph")
        if firings < 1:
            raise GraphError("need at least one firing")
        self.topological_order()  # validates acyclicity
        graph = self.task_graph()
        if len(graph.tasks) > machine.n_cores:
            raise GraphError(
                f"{len(graph.tasks)} actors exceed {machine.n_cores} cores"
            )
        place = placement or greedy_place(
            graph, machine.spec.mesh_rows, machine.spec.mesh_cols
        )
        payloads = {(e.src, e.dst): e.nbytes for e in self.edges}
        tasks = [
            Task(name, self._make_program(name, firings)) for name in self.nodes
        ]
        return Pipeline(
            machine,
            tasks,
            place,
            channel_capacity=channel_capacity,
            payload_bytes=payloads,
            watchdog=watchdog,
        )

    def run(
        self,
        machine: Machine,
        firings: int,
        placement: Placement | None = None,
    ) -> RunResult:
        """Build and run in one step."""
        return self.build(machine, firings, placement).run()


def linear_chain(
    stage_works: list[OpBlock], payload: int = 64
) -> DataflowGraph:
    """Convenience: a simple N-stage pipeline graph."""
    g = DataflowGraph()
    names = [f"stage{i}" for i in range(len(stage_works))]
    for name, work in zip(names, stage_works):
        g.node(name, work)
    for a, b in zip(names, names[1:]):
        g.edge(a, b, payload)
    return g
