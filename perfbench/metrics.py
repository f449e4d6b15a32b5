"""Helpers of the benchmark: percentiles, names, the host probe, windows.

Nothing here imports ``repro``; ``test_perfbench.py`` covers these
helpers with hand-checked inputs.
"""

from __future__ import annotations

import bisect
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from typing import Sequence

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TAIL_BEYOND = 10
"""The tail percentile is the highest one with at least this many
samples beyond it."""


def validate_name(name: str) -> str:
    """Return ``name`` if it is a legal metric or workload name.

    A name starts with a letter or digit and is at most 64 characters
    from ``[A-Za-z0-9_.-]``; anything else raises ``ValueError``.
    """
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError(
            f"bad name {name!r}: want 1-64 chars of [A-Za-z0-9_.-], "
            f"starting with a letter or digit"
        )
    return name


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def tail(samples: Sequence[float]) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With the samples sorted ascending, the value at index ``k`` has
    ``n - 1 - k`` samples beyond it, so the rule picks ``k = n - 11``
    and reports it as percentile ``100 * (k + 1) / n``.  Failed ops are
    passed in as ``inf``: they exceed any limit, so they push the tail
    up instead of vanishing from it.  With fewer than eleven samples no
    percentile qualifies; the maximum is reported and ``rule_met`` is
    false, so a reader can tell the two apart.
    """
    if not samples:
        raise ValueError("tail of no samples")
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND
    rule_met = k >= 0
    if not rule_met:
        k = n - 1
    return {
        "value": ordered[k],
        "percentile": round(100.0 * (k + 1) / n, 3),
        "beyond": n - 1 - k,
        "samples": n,
        "rule_met": rule_met,
    }


def segmented_tail(segments: Sequence[Sequence[float]]) -> dict:
    """Median, over consecutive segments of a window, of each one's tail.

    An open loop timed from the due time turns one host stall of a few
    hundred milliseconds into dozens of late requests -- more than the
    ten the tail rule leaves beyond, so a single stall would set the
    whole run's tail.  Taking the tail of each few-second segment and
    reporting their median keeps the rule inside every segment while a
    stall moves only the segment it hit.

    Failures are not smoothed that way: when the whole run's tail is a
    failed op (``inf``), so is the reported value, however the failures
    spread over the segments.  The whole run's tail record goes along
    as ``whole_run``.
    """
    tails = [tail(seg) for seg in segments if seg]
    if not tails:
        raise ValueError("tail of no samples")
    whole = tail([ms for seg in segments for ms in seg])
    value = median([t["value"] for t in tails])
    return {
        "value": math.inf if whole["value"] == math.inf else value,
        "percentile": median([t["percentile"] for t in tails]),
        "beyond": min(t["beyond"] for t in tails),
        "samples": sum(t["samples"] for t in tails),
        "rule_met": all(t["rule_met"] for t in tails),
        "segments": [t["value"] for t in tails],
        "whole_run": whole,
    }


def latency_from_due(due_s: float, done_s: float) -> float:
    """Open-loop latency in ms, measured from when the op was *due*.

    A request sent late because the generator (or the process) stalled
    still counts the stall: the clock starts at the schedule, not at
    the send.
    """
    return (done_s - due_s) * 1e3


def lateness_ms(due_s: float, sent_s: float) -> float:
    """How far behind schedule one request was sent (never negative)."""
    return max(0.0, (sent_s - due_s) * 1e3)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """The process RSS high-water mark in MiB (Linux ``ru_maxrss``)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        rss /= 1024
    return rss / 1024.0


class Probe:
    """A fixed host-speed probe, interleaved with a closed loop's ops.

    The host this benchmark runs on is shared, and its speed drifts by
    tens of percent over minutes.  One chunk is a fixed pure-Python
    arithmetic loop: it shares no code with the program, so no change
    to the program can move it, and its working set fits in the first
    cache level, so the program's memory state does not either.  A
    window spends ``SHARE`` of its time in chunks run between its ops,
    on the same core as the ops.  The host speed changes within a
    window too, so each op is scaled by the chunks run within ``HALO_S``
    of it: ``REFERENCE_MS / local median`` takes its time to a
    reference host (:meth:`local_scale`).
    """

    SHARE = 0.02
    LOOP = 20_000
    REFERENCE_MS = 1.4
    HALO_S = 1.0

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []
        self.spent_s = 0.0
        self.start = time.perf_counter()

    def chunk(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.LOOP):
            acc += i * i % 7
        t1 = time.perf_counter()
        ms = (t1 - t0) * 1e3
        self.samples.append(ms)
        self.times.append(t1)
        self.spent_s += ms / 1e3

    def due(self) -> bool:
        elapsed = time.perf_counter() - self.start - self.spent_s
        return not self.samples or self.spent_s < self.SHARE * elapsed

    def top_up(self) -> None:
        """Between two ops: catch up on chunks."""
        while self.due():
            self.chunk()

    def idle_ms(self, chunks: int = 15) -> float:
        """Median of ``chunks`` chunks run back to back, now."""
        for _ in range(chunks):
            self.chunk()
        return self.median_ms()

    def median_ms(self) -> float:
        return median(self.samples)

    def scale(self) -> float:
        """Factor from this host's times to the reference host's."""
        return self.REFERENCE_MS / self.median_ms()

    def local_scale(self, start: float, end: float) -> float:
        """:meth:`scale` from the chunks within ``HALO_S`` of an op
        that ran from ``start`` to ``end`` (all chunks if none did)."""
        lo = bisect.bisect_left(self.times, start - self.HALO_S)
        hi = bisect.bisect_right(self.times, end + self.HALO_S)
        near = self.samples[lo:hi] or self.samples
        return self.REFERENCE_MS / median(near)


def host_record(calibration_ms: float) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "calibration_ms": calibration_ms,
        "calibration_reference_ms": Probe.REFERENCE_MS,
    }


class Window:
    """The outcome of one timed window: per-op latencies and failures.

    A failed or wrong op is attempted, counted in ``failed`` and enters
    the latency list as ``inf`` -- it misses any latency limit.
    """

    MAX_PROBLEMS = 20

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.ends: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.detail: dict = {}
        self.segments: dict[int, list[float]] = {}
        self.start = time.perf_counter()
        self.end: float | None = None
        self.probe = Probe()

    def ok(self, ms: float, segment: int | None = None) -> None:
        """An op that took ``ms`` and has just ended."""
        self.attempted += 1
        self.latencies_ms.append(ms)
        self.ends.append(time.perf_counter())
        if segment is not None:
            self.segments.setdefault(segment, []).append(ms)

    def fail(self, problem: str, segment: int | None = None) -> None:
        self.attempted += 1
        self.failed += 1
        self.latencies_ms.append(math.inf)
        self.ends.append(time.perf_counter())
        if segment is not None:
            self.segments.setdefault(segment, []).append(math.inf)
        if len(self.problems) < self.MAX_PROBLEMS:
            self.problems.append(problem)

    def tail(self) -> dict:
        """The tail record: per segment when the ops were segmented."""
        if self.segments:
            return segmented_tail([self.segments[k] for k in sorted(self.segments)])
        return tail(self.latencies_ms)

    def close(self) -> None:
        self.end = time.perf_counter()

    @property
    def seconds(self) -> float:
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    @property
    def ok_latencies_ms(self) -> list[float]:
        return [ms for ms in self.latencies_ms if ms != math.inf]

    def scaled_latencies_ms(self) -> list[float]:
        """Each op's time on the reference host, by the probe chunks
        run around it (a failed op stays ``inf``)."""
        return [
            ms if ms == math.inf else ms * self.probe.local_scale(end - ms / 1e3, end)
            for ms, end in zip(self.latencies_ms, self.ends)
        ]


def per_op_ms(rec, name: str, ops: int) -> float:
    """Milliseconds spent in spans called ``name``, per op."""
    return rec.total_s(name) * 1e3 / max(1, ops)


def per_call_ms(rec, name: str) -> float:
    """Mean milliseconds of one span called ``name`` (0 if none ran)."""
    spans = rec.named(name)
    return sum(s.duration for s in spans) * 1e3 / len(spans) if spans else 0.0
