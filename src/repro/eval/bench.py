"""Machine-readable performance benchmarks (``repro bench``).

Tracks the *implementation* cost of the reproduction -- host wall
time, simulated cycles and peak RSS -- for the Table-I workloads on
both simulation backends, plus the FFBP geometry planning that the
performance layer (:mod:`repro.perf`) memoises.  Output is a single
JSON document (schema :data:`BENCH_SCHEMA`) so successive commits form
a comparable trajectory: ``BENCH_<n>.json`` files at the repo root are
the committed baselines, and :func:`compare_bench` gates a candidate
run against one.

Schema (``repro-bench/1``)
--------------------------
::

    {
      "schema":  "repro-bench/1",
      "repeats": 3,                      # timing repeats (min is kept)
      "host":    {"python": .., "platform": .., "numpy": ..},
      "results": {
        "<scale>/<workload>/<backend>": {
          "wall_s":       0.0123,   # best-of-repeats host seconds
          "cycles":       3243780,  # simulated cycles (null: host-only)
          "rss_delta_kb": 81234     # growth of the RSS high-water mark
        }                           # across this row's repeats
      }
    }

Keys are ``{scale}/{workload}/{backend}``: scale is ``quick``
(256x257), ``paper`` (1024x1001) or ``fixed`` (scale-independent
workloads); backend is a registry spec (``event:e16``) or ``host`` for
pure-Python work.  ``wall_s`` is the only gated metric -- cycles are
deterministic outputs guarded by the verify gate's golden
fingerprints, and RSS is informational.  ``rss_delta_kb`` is measured
as the *growth* of ``ru_maxrss`` across the row's own repeats:
``ru_maxrss`` is a monotonic process-global high-water mark, so the
absolute value after a workload mostly describes whatever heavy row
ran before it.  The delta isolates each row's own contribution -- a
light workload scheduled after a heavy one reports ~0, not the heavy
row's inherited peak.  (Documents from schema revisions before PR 7
carry the old absolute ``peak_rss_kb`` field instead; readers here
accept both.)

The sharded-fabric rows (``{scale}/ffbp_sharded/{fabric-spec}``) add
two informational keys on top of the schema triple -- ``energy_j``
(simulated joules for the full fabric) and ``speedup_vs_1chip``
(simulated-cycle ratio against one chip of the same fabric) -- the
measured counterpart of the paper's multi-chip outlook.  The opt-in
replay rows (``.../replay(event:e16)``, ``--replay``) likewise add
``speedup_vs_cold``: the wall ratio of a compiled-schedule cache hit
against a cold event-engine run of the same workload.
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from typing import Any, Callable, Mapping

BENCH_SCHEMA = "repro-bench/1"
DEFAULT_BACKENDS: tuple[str, ...] = ("event:e16", "analytic:e16")
DEFAULT_FABRIC_BACKENDS: tuple[str, ...] = ("analytic:4x(8x8)",)
DEFAULT_REGRESSION_FACTOR = 2.0
DEFAULT_REPEATS = 3

_SCALES: dict[str, tuple[int, int]] = {
    "quick": (256, 257),
    "paper": (1024, 1001),
}

_ABS_SLACK_S = 0.01
"""Absolute slack added to the regression threshold so microsecond-scale
entries (memo hits) cannot fail the gate on scheduler noise."""


def _peak_rss_kb() -> int:
    """Process peak RSS in KiB (Linux ``ru_maxrss`` unit); 0 if unknown."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        rss //= 1024
    return int(rss)


def _time_best(fn: Callable[[], Any], repeats: int) -> tuple[float, Any, int]:
    """Best-of-``repeats`` wall time, last return value, and RSS delta.

    The third element is the growth of the process RSS high-water mark
    (KiB) across the repeats.  Snapshotting ``ru_maxrss`` before and
    after -- rather than reporting its absolute value -- keeps a row
    from inheriting the peak of whatever heavier workload happened to
    run earlier in the process.
    """
    before = _peak_rss_kb()
    best = float("inf")
    value = None
    # As timeit does, keep the cyclic collector out of the timed call: a
    # generation-2 pass over objects that earlier work left in the
    # process can cost more than a quick row itself.
    gc_was_enabled = gc.isenabled()
    for _ in range(max(1, repeats)):
        gc.disable()
        try:
            t0 = time.perf_counter()
            value = fn()
            best = min(best, time.perf_counter() - t0)
        finally:
            if gc_was_enabled:
                gc.enable()
    return best, value, max(0, _peak_rss_kb() - before)


def _bench_plan(cfg, repeats: int) -> dict[str, dict[str, Any]]:
    """Geometry planning: cold (memo off) vs memoised (warm hit)."""
    from repro.kernels.ffbp_common import plan_ffbp
    from repro.perf import memo_disabled

    out: dict[str, dict[str, Any]] = {}

    def cold():
        with memo_disabled():
            return plan_ffbp(cfg)

    wall, _, rss = _time_best(cold, repeats)
    out["plan_ffbp_cold/host"] = {
        "wall_s": wall, "cycles": None, "rss_delta_kb": rss
    }

    plan_ffbp(cfg)  # warm the memo
    wall, _, rss = _time_best(lambda: plan_ffbp(cfg), repeats)
    out["plan_ffbp_memo/host"] = {
        "wall_s": wall, "cycles": None, "rss_delta_kb": rss
    }
    return out


def _bench_ffbp(cfg, backends: tuple[str, ...], repeats: int):
    """The Table-I parallel FFBP row (16-core SPMD) per backend."""
    from repro.kernels.ffbp_common import plan_ffbp
    from repro.kernels.ffbp_spmd import run_ffbp_spmd
    from repro.machine.backends import get_machine

    plan = plan_ffbp(cfg)
    out: dict[str, dict[str, Any]] = {}
    for backend in backends:
        wall, res, rss = _time_best(
            lambda b=backend: run_ffbp_spmd(get_machine(b), plan, 16), repeats
        )
        out[f"ffbp_spmd16/{backend}"] = {
            "wall_s": wall,
            "cycles": int(res.cycles),
            "rss_delta_kb": rss,
        }
    return out


def _bench_autofocus(backends: tuple[str, ...], repeats: int):
    """The Table-I parallel autofocus row (scale-independent)."""
    from repro.kernels.autofocus_mpmd import run_autofocus_mpmd
    from repro.kernels.opcounts import AutofocusWorkload
    from repro.machine.backends import get_machine

    work = AutofocusWorkload()
    out: dict[str, dict[str, Any]] = {}
    for backend in backends:
        wall, res, rss = _time_best(
            lambda b=backend: run_autofocus_mpmd(get_machine(b), work), repeats
        )
        out[f"autofocus_mpmd/{backend}"] = {
            "wall_s": wall,
            "cycles": int(res.cycles),
            "rss_delta_kb": rss,
        }
    return out


def _bench_fabric(cfg, fabric_backends: tuple[str, ...], repeats: int):
    """Sharded FFBP over a multi-chip fabric, vs one chip of the same
    fabric (the measured counterpart of the paper's E64/E1024 outlook).

    Extra row keys beyond the schema triple -- ``energy_j`` and
    ``speedup_vs_1chip`` -- are informational; :func:`compare_bench`
    gates only ``wall_s``, so adding them never breaks a baseline.
    """
    from repro.kernels.ffbp_common import plan_ffbp
    from repro.kernels.ffbp_fabric import run_ffbp_fabric
    from repro.kernels.ffbp_spmd import run_ffbp_spmd
    from repro.machine.backends import resolve_backend
    from repro.machine.specs import FabricSpec

    plan = plan_ffbp(cfg)
    out: dict[str, dict[str, Any]] = {}
    for backend in fabric_backends:
        make, spec = resolve_backend(backend)
        if not isinstance(spec, FabricSpec):
            raise ValueError(
                f"fabric backend {backend!r} is not a fabric spec; "
                f"expected the '<n>x(<chip-spec>)' form"
            )
        base = run_ffbp_spmd(make(spec.chip), plan, spec.cores_per_chip)
        wall, res, rss = _time_best(
            lambda: run_ffbp_fabric(make(spec), plan), repeats
        )
        out[f"ffbp_sharded/{backend}"] = {
            "wall_s": wall,
            "cycles": int(res.cycles),
            "rss_delta_kb": rss,
            "energy_j": float(res.energy_joules),
            "speedup_vs_1chip": round(base.cycles / res.cycles, 3),
        }
    return out


def _bench_replay(cfg, repeats: int, include_autofocus: bool = True):
    """The trace-compiled replay tier on the Table-I event rows.

    Each row warms the compiled-schedule cache with one capture run,
    then times *hits only* on fresh ``replay(event:e16)`` machines --
    the steady-state cost of a repeated event row.  ``speedup_vs_cold``
    (informational, like the fabric rows' extra keys) is the measured
    ratio against a cold event-engine run of the same workload;
    ``cycles`` must equal the cold row's byte-for-byte, which the
    verify gate's replay section enforces.
    """
    from repro.kernels.autofocus_mpmd import run_autofocus_mpmd
    from repro.kernels.ffbp_common import plan_ffbp
    from repro.kernels.ffbp_spmd import run_ffbp_spmd
    from repro.kernels.opcounts import AutofocusWorkload
    from repro.machine.backends import get_machine

    backend = "replay(event:e16)"
    plan = plan_ffbp(cfg)
    work = AutofocusWorkload()
    out: dict[str, dict[str, Any]] = {}
    cases = {
        f"ffbp_spmd16/{backend}": (
            lambda b: run_ffbp_spmd(get_machine(b), plan, 16)
        ),
    }
    if include_autofocus:
        cases[f"autofocus_mpmd/{backend}"] = (
            lambda b: run_autofocus_mpmd(get_machine(b), work)
        )
    for key, runner in cases.items():
        cold_wall, cold_res, _ = _time_best(lambda: runner("event:e16"), 1)
        runner(backend)  # warm: the capture run populates the cache
        wall, res, rss = _time_best(lambda: runner(backend), repeats)
        if res.cycles != cold_res.cycles:  # pragma: no cover - gate bug
            raise AssertionError(
                f"{key}: replay cycles {res.cycles} != cold {cold_res.cycles}"
            )
        out[key] = {
            "wall_s": wall,
            "cycles": int(res.cycles),
            "rss_delta_kb": rss,
            "speedup_vs_cold": round(cold_wall / max(wall, 1e-9), 2),
        }
    return out


def run_bench(
    quick: bool = False,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
    repeats: int = DEFAULT_REPEATS,
    fabric_backends: tuple[str, ...] = DEFAULT_FABRIC_BACKENDS,
    replay: bool = False,
) -> dict[str, Any]:
    """Run the benchmark suite; return the schema document.

    ``quick=True`` restricts the scaled workloads to the 256x257 quick
    scale (the CI smoke configuration); the default also runs the
    paper's 1024x1001 workload.  ``fabric_backends`` names the fabric
    specs the sharded-FFBP rows run on (empty tuple: skip them).
    ``replay=True`` adds the trace-compiled tier's rows
    (``.../replay(event:e16)`` with an informational
    ``speedup_vs_cold``), timing cache *hits* against the cold event
    engine.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if not backends:
        raise ValueError("need at least one backend")
    from repro.sar.config import RadarConfig

    scales = ("quick",) if quick else tuple(_SCALES)
    results: dict[str, dict[str, Any]] = {}
    for scale in scales:
        pulses, ranges = _SCALES[scale]
        cfg = (
            RadarConfig.paper()
            if scale == "paper"
            else RadarConfig.small(n_pulses=pulses, n_ranges=ranges)
        )
        for key, row in _bench_plan(cfg, repeats).items():
            results[f"{scale}/{key}"] = row
        for key, row in _bench_ffbp(cfg, backends, repeats).items():
            results[f"{scale}/{key}"] = row
        for key, row in _bench_fabric(cfg, fabric_backends, repeats).items():
            results[f"{scale}/{key}"] = row
        if replay:
            rows = _bench_replay(
                cfg, repeats, include_autofocus=scale == scales[-1]
            )
            for key, row in rows.items():
                scope = "fixed" if key.startswith("autofocus") else scale
                results[f"{scope}/{key}"] = row
    for key, row in _bench_autofocus(backends, repeats).items():
        results[f"fixed/{key}"] = row
    return {
        "schema": BENCH_SCHEMA,
        "repeats": int(repeats),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "numpy": __import__("numpy").__version__,
        },
        "results": results,
    }


def compare_bench(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    factor: float = DEFAULT_REGRESSION_FACTOR,
) -> tuple[list[str], list[str]]:
    """Gate ``current`` against ``baseline``.

    Returns ``(regressions, notes)``.  A key regresses when its wall
    time exceeds ``factor * baseline + 10 ms`` (the absolute slack
    keeps microsecond-scale entries out of noise range).  Keys present
    on only one side, and simulated-cycle drift, are *notes*: cycle
    identity is the verify gate's job, and quick runs legitimately
    cover a subset of a full baseline.
    """
    for doc, side in ((current, "current"), (baseline, "baseline")):
        if doc.get("schema") != BENCH_SCHEMA:
            raise ValueError(
                f"{side} document schema {doc.get('schema')!r} != {BENCH_SCHEMA!r}"
            )
    if factor <= 0:
        raise ValueError(f"regression factor must be positive, got {factor}")
    cur = current["results"]
    base = baseline["results"]
    regressions: list[str] = []
    notes: list[str] = []
    for key in sorted(set(cur) & set(base)):
        c, b = cur[key], base[key]
        limit = factor * float(b["wall_s"]) + _ABS_SLACK_S
        if float(c["wall_s"]) > limit:
            regressions.append(
                f"{key}: wall {c['wall_s']:.4f}s > {factor:g}x baseline "
                f"{b['wall_s']:.4f}s (+{_ABS_SLACK_S:g}s slack)"
            )
        if c.get("cycles") != b.get("cycles"):
            notes.append(
                f"{key}: cycles {c.get('cycles')} != baseline "
                f"{b.get('cycles')} (model change?)"
            )
    for key in sorted(set(cur) ^ set(base)):
        side = "baseline" if key in base else "current"
        notes.append(f"{key}: only in {side}")
    return regressions, notes


def format_summary(doc: Mapping[str, Any]) -> str:
    """One line per result, aligned, for human eyes (stderr)."""
    lines = []
    for key in sorted(doc["results"]):
        row = doc["results"][key]
        cycles = "-" if row.get("cycles") is None else str(row["cycles"])
        if "rss_delta_kb" in row:
            rss = f"rss=+{row['rss_delta_kb']} KiB"
        elif "peak_rss_kb" in row:  # pre-PR-7: absolute high-water mark
            rss = f"rss={row['peak_rss_kb']} KiB"
        else:  # no memory accounting in this row at all
            rss = "rss=n/a"
        lines.append(
            f"{key:<42} {row['wall_s']*1e3:>10.2f} ms  "
            f"cycles={cycles:>12}  {rss}"
        )
    return "\n".join(lines)


def load_bench(path: str) -> dict[str, Any]:
    """Load and schema-check a bench document from ``path``."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: schema {doc.get('schema')!r} != {BENCH_SCHEMA!r}"
        )
    return doc
