"""Parameter sweeps: the data series behind the scaling figures.

Packages the experiments the ablation benchmarks run into reusable
series producers (core count, prefetch window, clock, candidate grid,
chip generation, fabric chip count), each returning a :class:`Series`
that the report helpers can render as an ASCII chart.

Every sweep takes a ``backend`` spec string (see
:mod:`repro.machine.backends`); design-space exploration normally runs
on ``"analytic"`` (an order of magnitude faster), while calibrated
figures use the default event engine.

Every sweep also takes ``jobs``: with ``jobs > 1`` the independent
sweep points fan out over the :class:`~repro.exec.ExperimentRunner`
worker pool.  Points are keyed by backend and x-value and the point
functions are pure, so the resulting :class:`Series` is byte-identical
at any ``jobs`` level (``jobs=1``, the default, runs inline).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.exec import ExperimentRunner, TaskSpec
from repro.kernels.autofocus_mpmd import run_autofocus_mpmd, run_autofocus_scaled
from repro.kernels.ffbp_common import FfbpPlan, plan_ffbp
from repro.kernels.ffbp_spmd import run_ffbp_spmd
from repro.kernels.opcounts import AutofocusWorkload
from repro.machine.backends import get_machine, parse_backend, resolve_backend
from repro.machine.specs import EpiphanySpec
from repro.sar.config import RadarConfig


@dataclass(frozen=True)
class Series:
    """One swept quantity: ``(x, y)`` pairs plus axis labels."""

    name: str
    x_label: str
    y_label: str
    x: tuple
    y: tuple

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal lengths")

    def chart(self, width: int = 48) -> str:
        """Render as a horizontal ASCII bar chart.

        Bars scale by the series' peak *magnitude* so all-negative and
        mixed-sign series (energy deltas, regressions) keep their
        shape; negative bars are drawn with ``-`` instead of ``#``.
        An all-zero series renders values with no bars rather than
        dividing by a zero peak.
        """
        if not self.y:
            return f"{self.name}: (empty)"
        peak = max(abs(float(yv)) for yv in self.y)
        lines = [f"{self.name}  [{self.y_label} vs {self.x_label}]"]
        label_w = max(len(str(xv)) for xv in self.x)
        for xv, yv in zip(self.x, self.y):
            if peak > 0:
                glyph = "#" if yv >= 0 else "-"
                bar = glyph * max(1, int(round(width * abs(yv) / peak)))
            else:
                bar = ""
            lines.append(f"  {str(xv):>{label_w}} | {bar} {yv:.3g}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Point workers (module level: picklable for the process pool).  Each
# resolves its backend *in the worker* -- factories close over engine
# classes and are not picklable, spec strings are.
# ---------------------------------------------------------------------------

def _ffbp_cores_point(
    backend: str, spec: EpiphanySpec | None, plan: FfbpPlan, n_cores: int
) -> int:
    make, base_spec = resolve_backend(backend)
    return run_ffbp_spmd(make(spec or base_spec), plan, n_cores).cycles


def _ffbp_window_point(
    backend: str, cfg: RadarConfig, window_bytes: int, n_cores: int
) -> float:
    make, spec = resolve_backend(backend)
    plan = plan_ffbp(cfg, window_bytes=window_bytes)
    return run_ffbp_spmd(make(spec), plan, n_cores).seconds * 1e3


def _af_units_point(
    backend: str, work: AutofocusWorkload, lanes: int, units: int
) -> float:
    make, spec = resolve_backend(backend)
    res = run_autofocus_scaled(make(spec), work, lanes=lanes, units=units)
    return units * work.pixels / res.seconds


def _clock_point(
    backend: str, plan: FfbpPlan, clock_hz: float, n_cores: int
) -> float:
    make, base_spec = resolve_backend(backend)
    spec = base_spec.with_clock(clock_hz)
    return run_ffbp_spmd(make(spec), plan, n_cores).seconds * 1e3


def _candidate_point(backend: str, n_candidates: int) -> float:
    make, spec = resolve_backend(backend)
    w = AutofocusWorkload(n_candidates=n_candidates)
    res = run_autofocus_mpmd(make(spec), w)
    return w.pixels / res.seconds


def _ffbp_chips_point(
    backend: str, cfg: RadarConfig, n_chips: int, n_cores: int
) -> int:
    from repro.kernels.ffbp_fabric import run_ffbp_fabric

    plan = plan_ffbp(cfg)
    fabric = replace(parse_backend(backend), spec=f"{n_chips}x(e16)")
    machine = get_machine(str(fabric))
    return run_ffbp_fabric(machine, plan, n_cores).cycles


def _run_points(
    series: str,
    backend: str,
    fn: Callable[..., Any],
    points: Sequence[tuple],
    keys: Sequence[Any],
    jobs: int,
) -> list:
    """Fan independent sweep points out over the experiment runner.

    Tasks are keyed ``sweep/<series>/<backend>/<x>`` -- stable across
    runs, so cached results survive and seeds (none needed here; the
    sweeps are deterministic) would derive identically.
    """
    resolve_backend(backend)  # usage errors raise ValueError *here*,
    # in the caller's process, not as a wrapped TaskFailure in a worker
    runner = ExperimentRunner(jobs=jobs)
    tasks = [
        TaskSpec(key=f"sweep/{series}/{backend}/{key}", fn=fn, args=args)
        for key, args in zip(keys, points)
    ]
    return [r.value for r in runner.run(tasks)]


# ---------------------------------------------------------------------------
# Series producers
# ---------------------------------------------------------------------------

def ffbp_core_sweep(
    plan: FfbpPlan | None = None,
    cores: Sequence[int] = (1, 2, 4, 8, 16),
    spec: EpiphanySpec | None = None,
    backend: str = "event",
    jobs: int = 1,
) -> Series:
    """Parallel-FFBP speedup versus core count (Fig. 6 scalability)."""
    plan = plan or plan_ffbp(RadarConfig.paper())
    cycles = _run_points(
        "ffbp-cores",
        backend,
        _ffbp_cores_point,
        [(backend, spec, plan, n) for n in cores],
        cores,
        jobs,
    )
    base = cycles[0]
    speedups = tuple(round(base / c, 3) for c in cycles)
    return Series(
        name="FFBP strong scaling",
        x_label="cores",
        y_label=f"speedup vs {cores[0]} core(s)",
        x=tuple(cores),
        y=speedups,
    )


def ffbp_window_sweep(
    cfg: RadarConfig | None = None,
    windows: Sequence[int] = (8, 8008, 16016, 32032, 64064),
    n_cores: int = 16,
    backend: str = "event",
    jobs: int = 1,
) -> Series:
    """Parallel-FFBP time versus prefetch-window bytes."""
    cfg = cfg or RadarConfig.paper()
    ys = _run_points(
        "ffbp-window",
        backend,
        _ffbp_window_point,
        [(backend, cfg, w, n_cores) for w in windows],
        windows,
        jobs,
    )
    return Series(
        name="FFBP vs prefetch window",
        x_label="window bytes",
        y_label="time (ms)",
        x=tuple(windows),
        y=tuple(round(v, 2) for v in ys),
    )


def autofocus_unit_sweep(
    work: AutofocusWorkload | None = None,
    units: Sequence[int] = (1, 2, 3, 4),
    lanes: int = 3,
    backend: str = "event:e64",
    jobs: int = 1,
) -> Series:
    """Autofocus throughput versus replicated pipeline units (E64)."""
    w = work or AutofocusWorkload()
    ys = _run_points(
        "af-units",
        backend,
        _af_units_point,
        [(backend, w, lanes, u) for u in units],
        units,
        jobs,
    )
    return Series(
        name="autofocus unit scaling (E64)",
        x_label="pipeline units",
        y_label="pixels/s",
        x=tuple(units),
        y=tuple(round(v) for v in ys),
    )


def ffbp_chip_sweep(
    cfg: RadarConfig | None = None,
    chips: Sequence[int] = (1, 2, 4),
    n_cores: int = 16,
    backend: str = "analytic",
    jobs: int = 1,
) -> Series:
    """Sharded-FFBP speedup versus chip count (the multi-chip outlook).

    Each point runs the phased fabric executive
    (:func:`~repro.kernels.ffbp_fabric.run_ffbp_fabric`) on
    ``<n>x(e16)``; the 1-chip point is the zero-overhead fabric
    wrapper, so the series measures exactly what scale-out buys.
    ``backend`` must name no chip spec (``analytic``,
    ``faulty(<plan>):event``) -- the sweep composes the fabric spec
    itself.
    """
    if parse_backend(backend, default_spec="").spec:
        raise ValueError(
            f"ffbp-chips sweeps a fabric spec per point; pass a bare "
            f"backend name, not {backend!r}"
        )
    cfg = cfg or RadarConfig.paper()
    cycles = _run_points(
        "ffbp-chips",
        backend,
        _ffbp_chips_point,
        [(backend, cfg, n, n_cores) for n in chips],
        chips,
        jobs,
    )
    base = cycles[0]
    return Series(
        name="FFBP fabric scale-out",
        x_label="chips",
        y_label=f"speedup vs {chips[0]} chip(s)",
        x=tuple(chips),
        y=tuple(round(base / c, 3) for c in cycles),
    )


def clock_sweep(
    plan: FfbpPlan | None = None,
    clocks_hz: Sequence[float] = (400e6, 600e6, 800e6, 1e9),
    n_cores: int = 16,
    backend: str = "event",
    jobs: int = 1,
) -> Series:
    """Parallel-FFBP wall time versus core clock (board vs spec)."""
    plan = plan or plan_ffbp(RadarConfig.paper())
    ys = _run_points(
        "clock",
        backend,
        _clock_point,
        [(backend, plan, clk, n_cores) for clk in clocks_hz],
        [int(c) for c in clocks_hz],
        jobs,
    )
    return Series(
        name="FFBP vs clock",
        x_label="clock (Hz)",
        y_label="time (ms)",
        x=tuple(int(c) for c in clocks_hz),
        y=tuple(round(v, 1) for v in ys),
    )


def candidate_sweep(
    candidates: Sequence[int] = (27, 54, 108, 216, 432),
    backend: str = "event",
    jobs: int = 1,
) -> Series:
    """Autofocus throughput versus candidate-grid size."""
    ys = _run_points(
        "candidates",
        backend,
        _candidate_point,
        [(backend, n) for n in candidates],
        candidates,
        jobs,
    )
    return Series(
        name="autofocus vs candidate grid",
        x_label="candidates",
        y_label="pixels/s",
        x=tuple(candidates),
        y=tuple(round(v) for v in ys),
    )
