"""``sweep-analytic``: seeded design-space points on the analytic engine.

Closed loop, one thread.  Each op is one point: a distinct geometry
derived from ``RadarConfig.paper().with_(...)`` -- ``n_pulses`` cycles
through 256, 512 and 1024 while ``n_ranges`` (stratified), ``r0``,
``theta_span``, the prefetch window and the core count are drawn from
the seed -- that
gets a cold ``plan_ffbp`` and then ``run_ffbp_spmd`` on
``analytic:e16``.  Planning dominates and the event engine is
bypassed.  A 1024-pulse plan is about 100 MB, so a few of them exceed
the 256 MiB ``perf.memo`` budget: the memo takes inserts and
evictions here, while the other workloads only read from it.

Check: after the window, one seeded point of every size class
(``n_ranges`` stratum x pulse count) the window reached is planned and
run again from a cleared memo; its cycles must repeat exactly.  The
digest of all per-point cycles goes into the result document, so two
runs with one seed can be compared too.
"""

from __future__ import annotations

import hashlib
import random
import time

import repro.machine.analytic  # noqa: F401  (the analytic engine: import in setup)
from repro.exec.seeding import derive_seed
from repro.kernels.ffbp_common import plan_ffbp
from repro.kernels.ffbp_spmd import run_ffbp_spmd
from repro.machine.backends import get_machine
from repro.perf import clear_memo
from repro.sar.config import RadarConfig

from metrics import Window, per_op_ms

BACKEND = "analytic:e16"
PULSES = (256, 512, 1024)
RANGES = (400, 1001)
STRATA = 8

TRACE_POINTS = [
    ("repro.kernels.ffbp_common", "stage_maps", "sar.stage_maps"),
    ("repro.kernels.ffbp_spmd", "ffbp_spmd_kernel", "kernels.build"),
    ("repro.machine.analytic", "AnalyticMachine.run", "machine.analytic_run"),
]


def size_class(i: int) -> tuple[int, int]:
    """(``n_ranges`` stratum, ``PULSES`` index) of the ``i``-th point."""
    return (i // len(PULSES)) % STRATA, i % len(PULSES)


def point(seed: int, i: int) -> tuple[RadarConfig, int, int]:
    """The ``i``-th sweep point: (config, prefetch window, cores).

    ``n_ranges`` is drawn inside one of ``STRATA`` equal slices of its
    range, taken in turn for each pulse count, so every seed sweeps the
    same spread of sizes: seeds move the points, not the cost mix.
    """
    rng = random.Random(derive_seed(seed, f"sweep/point/{i}"))
    stratum, pulses = size_class(i)
    span = RANGES[1] - RANGES[0] + 1
    cfg = RadarConfig.paper().with_(
        n_pulses=PULSES[pulses],
        n_ranges=RANGES[0] + int((stratum + rng.random()) * span / STRATA),
        r0=rng.uniform(1500.0, 2500.0),
        theta_span=rng.uniform(0.2, 0.4),
    )
    return cfg, rng.choice((8008, 16016, 32032)), rng.choice((4, 8, 16))


class Workload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.next_point = 0
        self.cycles: list[int] = []

    def setup(self) -> None:
        clear_memo()
        self.next_point = 0
        self.cycles = []

    def teardown(self) -> None:
        clear_memo()

    def _op(self, i: int, rec) -> int:
        cfg, window, cores = point(self.seed, i)
        with rec.span("kernels.plan"):
            plan = plan_ffbp(cfg, window)
        with rec.span("machine.construct"):
            machine = get_machine(BACKEND)
        result = run_ffbp_spmd(machine, plan, cores)
        if result.stalled or result.cycles <= 0:
            raise RuntimeError(f"point {i}: stalled={result.stalled} cycles={result.cycles}")
        return int(result.cycles)

    def run(self, seconds: float, rec) -> Window:
        win = Window()
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            win.probe.top_up()
            i = self.next_point
            self.next_point += 1
            t0 = time.perf_counter()
            try:
                with rec.span("op", rid=i):
                    cycles = self._op(i, rec)
            except Exception as exc:  # counted, reported, never fatal
                self.cycles.append(-1)
                win.fail(f"point {i}: {type(exc).__name__}: {exc}")
                continue
            win.ok((time.perf_counter() - t0) * 1e3)
            self.cycles.append(cycles)
        win.close()
        win.detail["points"] = self.next_point
        win.detail["cycles_digest"] = hashlib.sha256(
            ",".join(map(str, self.cycles)).encode()
        ).hexdigest()
        return win

    def layers(self, win: Window, rec) -> dict:
        ops = max(1, win.attempted)
        return {
            "kernels.plan_ms": per_op_ms(rec, "kernels.plan", ops),
            "kernels.build_ms": per_op_ms(rec, "kernels.build", ops),
            "sar.stage_maps_ms": per_op_ms(rec, "sar.stage_maps", ops),
            "machine.construct_ms": per_op_ms(rec, "machine.construct", ops),
            "machine.analytic_run_ms": per_op_ms(rec, "machine.analytic_run", ops),
        }

    def recheck_points(self) -> list[int]:
        """One seeded point of every size class the window reached."""
        classes: dict[tuple[int, int], list[int]] = {}
        for i, cycles in enumerate(self.cycles):
            if cycles >= 0:
                classes.setdefault(size_class(i), []).append(i)
        rng = random.Random(derive_seed(self.seed, "sweep/recheck"))
        return sorted(rng.choice(points) for _, points in sorted(classes.items()))

    def check(self) -> list[str]:
        """Cold re-runs of a sample covering every size class must
        repeat their cycles exactly."""
        from spans import NullRecorder

        clear_memo()
        problems = []
        for i in self.recheck_points():
            again = self._op(i, NullRecorder())
            if again != self.cycles[i]:
                problems.append(f"point {i}: cycles {again} on re-run, {self.cycles[i]} before")
        return problems
