"""The eMesh network-on-chip model.

Paper Section III: a 2-D mesh with four duplex links per node and
*three separate mesh planes* -- one for on-chip writes, one for
off-chip writes, one for read transactions -- XY dimension-ordered
routing, one-cycle latency per routing node, and one 64-bit transaction
per link per cycle.

The model is a wormhole-style analytic contention model: a message's
head flit advances one hop per cycle, waiting for each traversed link
to free; each link is then occupied for the message's serialisation
time.  Uncontended delivery therefore costs ``hops * hop_cycles +
bytes / link_rate`` cycles, and contention shows up as queueing on the
shared links -- which is how the correlator-core congestion question of
paper Section VI ("it may appear that the mapping would introduce some
congestion at the correlation block") is answered by simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.machine.specs import NocSpec

Coord = tuple[int, int]


def xy_route(src: Coord, dst: Coord) -> list[tuple[Coord, Coord]]:
    """Directed links of the XY dimension-ordered route: columns first,
    then rows.  No bounds check (see :meth:`Mesh.route`)."""
    path: list[tuple[Coord, Coord]] = []
    r, c = src
    while c != dst[1]:
        step = 1 if dst[1] > c else -1
        path.append(((r, c), (r, c + step)))
        c += step
    while r != dst[0]:
        step = 1 if dst[0] > r else -1
        path.append(((r, c), (r + step, c)))
        r += step
    return path


@dataclass(slots=True)
class _Link:
    """Directed link between adjacent routers on one plane."""

    free_at: float = 0.0
    bytes_moved: float = 0.0


class TransferResult(NamedTuple):
    """Outcome of one mesh transfer."""

    finish_cycle: int
    hops: int
    queue_cycles: int


LinkState = tuple[tuple[tuple[str, Coord, Coord], float, float], ...]
"""Every link's ``((plane, a, b), free_at, bytes_moved)``, sorted by key."""


class Mesh:
    """All three eMesh planes of a ``rows x cols`` chip."""

    def __init__(self, rows: int, cols: int, spec: NocSpec | None = None) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("mesh must have positive dimensions")
        self.rows = rows
        self.cols = cols
        self.spec = spec or NocSpec()
        self._links: dict[tuple[str, Coord, Coord], _Link] = {}
        # (plane, src, dst) -> the route's links, built on first use so
        # ``_links`` holds exactly the links some message has crossed.
        self._routes: dict[tuple[str, Coord, Coord], tuple[_Link, ...]] = {}
        self.total_byte_hops = 0.0
        self.messages = 0

    # -- topology -------------------------------------------------------
    def route(self, src: Coord, dst: Coord) -> list[tuple[Coord, Coord]]:
        """XY dimension-ordered route: columns first, then rows."""
        self._check(src)
        self._check(dst)
        return xy_route(src, dst)

    def hops(self, src: Coord, dst: Coord) -> int:
        """Manhattan distance (number of link traversals)."""
        return abs(src[0] - dst[0]) + abs(src[1] - dst[1])

    def _check(self, node: Coord) -> None:
        r, c = node
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"node {node} outside {self.rows}x{self.cols} mesh")

    def _link(self, plane: str, a: Coord, b: Coord) -> _Link:
        if plane not in self.spec.planes:
            raise ValueError(f"unknown mesh plane {plane!r}")
        key = (plane, a, b)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = _Link()
        return link

    def _path(self, key: tuple[str, Coord, Coord]) -> tuple[_Link, ...]:
        plane, src, dst = key
        path = tuple(self._link(plane, a, b) for a, b in self.route(src, dst))
        self._routes[key] = path
        return path

    # -- link state (replay snapshots) ------------------------------------
    def link_state(self) -> LinkState:
        """Every link's occupancy, by value."""
        return tuple(
            (key, link.free_at, link.bytes_moved)
            for key, link in sorted(self._links.items())
        )

    def restore_link_state(self, state: LinkState) -> None:
        """Set the links to ``state``; cached routes are rebuilt from the
        restored links on their next use."""
        self._routes.clear()
        self._links = {
            key: _Link(free_at=free_at, bytes_moved=bytes_moved)
            for key, free_at, bytes_moved in state
        }

    # -- traffic ----------------------------------------------------------
    def transfer(
        self, now: int, src: Coord, dst: Coord, nbytes: float, plane: str
    ) -> TransferResult:
        """Reserve the route for a message; return its finish time.

        ``now`` is the injection cycle.  The head advances hop by hop,
        stalling at busy links (round-robin arbitration is approximated
        by FIFO order of injection, which the event engine guarantees
        is time-ordered); each traversed link is then held for the
        serialisation time of the message body.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if src == dst:
            return TransferResult(int(now), 0, 0)
        key = (plane, src, dst)
        path = self._routes.get(key) or self._path(key)
        spec = self.spec
        hop_cycles = spec.hop_cycles
        serial = nbytes / spec.link_bytes_per_cycle
        t_head = float(now)
        queue = 0.0
        for link in path:
            wait = link.free_at - t_head
            if wait > 0.0:
                queue += wait
                t_head = t_head + wait + hop_cycles
            else:
                t_head = t_head + hop_cycles
            link.free_at = t_head + serial
            link.bytes_moved += nbytes
        hops = len(path)
        self.total_byte_hops += nbytes * hops
        self.messages += 1
        return TransferResult(int(round(t_head + serial)), hops, int(round(queue)))

    def link_utilization(self, now: int) -> dict[tuple[str, Coord, Coord], float]:
        """Per-link occupied fraction of elapsed time (for reports)."""
        if now <= 0:
            return {k: 0.0 for k in self._links}
        rate = self.spec.link_bytes_per_cycle
        return {
            k: min(1.0, (l.bytes_moved / rate) / now) for k, l in self._links.items()
        }
