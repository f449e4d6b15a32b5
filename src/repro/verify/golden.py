"""Golden-trace snapshots: deterministic fingerprints under version
control.

A *fingerprint* is a nested dict of derived metrics that should only
change when someone **means** to change them: Table-I style
performance/energy rows, per-core profile histograms, NoC/DMA traffic
counters, and SAR image-quality metrics.  Each registered fingerprint
is snapshotted as ``tests/golden/<name>.json`` -- sorted keys, fixed
indentation, floats rounded to 12 significant digits at build time --
so regeneration under an unchanged tree is **byte-stable** and a real
change shows up as a small reviewable diff.

Workflow::

    repro verify                   # compare against the snapshots
    repro verify --update-golden   # regenerate; inspect with git diff

Comparison policy: integers, booleans and strings are exact;
floats use the fingerprint's declared relative-or-absolute band
(:class:`~repro.verify.tolerance.Tolerance`), tight enough that
perturbing any calibrated model constant trips the gate, loose enough
to absorb last-ulp libm/FFT differences across platforms.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.verify.oracles import (
    EXACT_TRACE_FIELDS,
    RunInputs,
    verify_cpu_run,
    verify_run,
)
from repro.verify.tolerance import Check, Tolerance, check_equal, check_value

__all__ = [
    "Fingerprint",
    "FINGERPRINTS",
    "round_sig",
    "golden_dir",
    "golden_path",
    "save_golden",
    "load_golden",
    "compare_fingerprint",
    "verify_golden",
    "update_golden",
]

SIG_DIGITS = 12
"""Significant digits kept in stored fingerprints.  Well above every
comparison band, well below where cross-platform last-ulp noise lives."""

FLOAT_TOL = Tolerance(rel=1e-6, abs=1e-12)
"""Default float band for machine-model metrics (deterministic
arithmetic; the band only absorbs rounding of the stored form)."""

QUALITY_TOL = Tolerance(rel=1e-4, abs=1e-9)
"""Band for FFT-backed image-quality metrics, where BLAS/FFT backends
may differ in the last ulps."""


def round_sig(x: float, sig: int = SIG_DIGITS) -> float:
    """Round to ``sig`` significant digits (identity for 0/inf/nan)."""
    if x == 0 or not math.isfinite(x):
        return float(x)
    return float(f"{float(x):.{sig}g}")


def _clean(obj: Any) -> Any:
    """Canonicalise for JSON: numpy scalars -> python, floats rounded."""
    if isinstance(obj, Mapping):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round_sig(float(obj))
    return obj


# ---------------------------------------------------------------------------
# Fingerprint builders
# ---------------------------------------------------------------------------

def table1_fingerprint(backend: str = "event:e16") -> dict:
    """Table-I shaped metrics at the reduced verification scale.

    Times, speedups, modeled power and energy for all six rows -- the
    exact derived quantities the paper's headline numbers (4.25x/8.93x
    speedups, ~38x/~78x energy gains) flow from.  The rows come from
    the Table-I row functions of :mod:`repro.eval.table1` applied to
    the gate's shared runs: the four Epiphany runs through
    :func:`~repro.verify.oracles.verify_run` and the two i7 runs
    through :func:`~repro.verify.oracles.verify_cpu_run`, all at
    :class:`~repro.verify.oracles.RunInputs` defaults.
    """
    from repro.eval.energy import energy_efficiency_ratios
    from repro.eval.table1 import autofocus_rows, ffbp_rows
    from repro.machine.backends import resolve_backend
    from repro.machine.specs import CpuSpec

    inputs = RunInputs()
    espec, cspec = resolve_backend(backend)[1], CpuSpec()
    ffbp = ffbp_rows(
        verify_cpu_run("ffbp", inputs),
        verify_run("ffbp_seq", backend, inputs),
        verify_run("ffbp_spmd16", backend, inputs),
        espec,
        cspec,
    )
    af = autofocus_rows(
        verify_cpu_run("autofocus", inputs),
        verify_run("autofocus_seq", backend, inputs),
        verify_run("autofocus_mpmd", backend, inputs),
        espec,
        cspec,
        inputs.work,
    )
    rows: dict[str, dict] = {}
    for table in (ffbp, af):
        for r in table.rows:
            rows[r.name] = {
                "cores": r.cores,
                "time_ms": r.time_ms,
                "throughput_px_s": r.throughput_px_s,
                "speedup": r.speedup,
                "modeled_power_w": r.modeled_power_w,
                "energy_j": r.energy_j,
            }
    fb = energy_efficiency_ratios(ffbp, "ffbp_epi_par", "ffbp_cpu")
    ab = energy_efficiency_ratios(af, "af_epi_par", "af_cpu")
    return _clean(
        {
            "backend": backend,
            "rows": rows,
            "ratios": {
                "ffbp_speedup": fb.speedup,
                "ffbp_efficiency": fb.estimated,
                "af_speedup": ab.speedup,
                "af_efficiency": ab.estimated,
            },
        }
    )


def profile_fingerprint(backend: str = "event:e16") -> dict:
    """Per-core cycle-breakdown histogram of the parallel FFBP run."""
    from repro.machine.profile import profile_run

    res = verify_run("ffbp_spmd16", backend, RunInputs())
    # strict: a backend whose traces overcommit (compute + stall > run
    # total) must fail the gate loudly, not fingerprint a profile whose
    # clamped idle fraction silently hides the inconsistency.
    prof = profile_run(res, strict=True)
    hist = [0] * 10
    for core in prof.cores:
        hist[min(9, int(core.busy_fraction * 10))] += 1
    return _clean(
        {
            "backend": backend,
            "cycles": prof.cycles,
            "verdict": prof.classify(),
            "mean_compute_fraction": prof.mean_compute_fraction,
            "mean_stall_fraction": prof.mean_stall_fraction,
            "busy_fraction_histogram": hist,
            "cores": [
                {
                    "compute_cycles": c.compute_cycles,
                    "stall_cycles": c.stall_cycles,
                }
                for c in prof.cores
            ],
        }
    )


def traffic_fingerprint(backend: str = "event:e16") -> dict:
    """NoC/DMA/external traffic counters of both case studies.

    These are exact-contract counters (every backend replays the same
    generators), so the stored integers are compared bit-for-bit.
    """
    out: dict[str, Any] = {"backend": backend}
    for name in ("ffbp_spmd16", "autofocus_mpmd"):
        t = verify_run(name, backend, RunInputs()).trace
        out[name] = {f: getattr(t, f) for f in EXACT_TRACE_FIELDS}
    return _clean(out)


def quality_fingerprint() -> dict:
    """SAR image-quality metrics on a seed-pinned simulated scene.

    Uses the deterministic six-target scene and the default simulation
    seed; FFBP (nearest and bilinear) is scored against the GBP
    reference with the :mod:`repro.sar.quality` metrics -- the
    quantified form of the paper's Fig. 7 discussion.
    """
    from repro.eval.figures import default_scene
    from repro.sar.config import RadarConfig
    from repro.sar.ffbp import FfbpOptions, ffbp
    from repro.sar.gbp import gbp_polar
    from repro.sar.quality import QualityReport
    from repro.sar.simulate import simulate_compressed

    cfg = RadarConfig.small(n_pulses=64, n_ranges=129)
    data = simulate_compressed(cfg, default_scene(cfg))
    ref = gbp_polar(np.asarray(data, np.complex128), cfg).magnitude
    out: dict[str, Any] = {"cfg": {"n_pulses": 64, "n_ranges": 129}}
    for interp in ("nearest", "bilinear"):
        img = ffbp(data, cfg, FfbpOptions(interpolation=interp)).magnitude
        q = QualityReport.of(img, ref)
        out[interp] = {
            "peak_to_background_db": q.peak_to_background_db,
            "entropy": q.entropy,
            "rmse_vs_gbp": q.rmse_vs_reference,
        }
    gq = QualityReport.of(ref)
    out["gbp"] = {
        "peak_to_background_db": gq.peak_to_background_db,
        "entropy": gq.entropy,
    }
    return _clean(out)


@dataclass(frozen=True)
class Fingerprint:
    """A registered golden fingerprint: builder + comparison band."""

    name: str
    build: Callable[[], dict]
    float_tol: Tolerance = FLOAT_TOL
    quick: bool = True


FINGERPRINTS: dict[str, Fingerprint] = {
    fp.name: fp
    for fp in (
        Fingerprint("table1_small", table1_fingerprint),
        Fingerprint("profile_ffbp_spmd16", profile_fingerprint),
        Fingerprint("traffic_counters", traffic_fingerprint),
        Fingerprint(
            "image_quality", quality_fingerprint, float_tol=QUALITY_TOL
        ),
    )
}


# ---------------------------------------------------------------------------
# Snapshot store
# ---------------------------------------------------------------------------

def golden_dir(root: str | os.PathLike | None = None) -> Path:
    """The snapshot directory (override with ``REPRO_GOLDEN_DIR``)."""
    if root is not None:
        return Path(root)
    env = os.environ.get("REPRO_GOLDEN_DIR")
    if env:
        return Path(env)
    # src/repro/verify/golden.py -> repo root is three levels up.
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def golden_path(name: str, root: str | os.PathLike | None = None) -> Path:
    return golden_dir(root) / f"{name}.json"


def save_golden(
    name: str, data: dict, root: str | os.PathLike | None = None
) -> Path:
    """Write a fingerprint snapshot (sorted keys, byte-stable)."""
    path = golden_path(name, root)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    return path


def load_golden(name: str, root: str | os.PathLike | None = None) -> dict:
    path = golden_path(name, root)
    if not path.exists():
        raise FileNotFoundError(
            f"no golden snapshot {path}; generate it with "
            f"'repro verify --update-golden'"
        )
    return json.loads(path.read_text())


def compare_fingerprint(
    actual: Any,
    golden: Any,
    float_tol: Tolerance = FLOAT_TOL,
    prefix: str = "",
) -> list[Check]:
    """Structurally compare a fingerprint against its snapshot.

    Dicts recurse over the key union (missing/extra keys fail by
    name); lists compare elementwise after a length check; bools,
    ints and strings are exact; floats use ``float_tol``.
    """
    checks: list[Check] = []
    label = prefix or "fingerprint"
    if isinstance(golden, dict) or isinstance(actual, dict):
        if not (isinstance(golden, dict) and isinstance(actual, dict)):
            checks.append(check_equal(label, actual, golden))
            return checks
        for key in sorted(set(golden) | set(actual)):
            sub = f"{label}.{key}" if prefix else key
            if key not in actual:
                checks.append(
                    Check(sub, False, actual="<missing>", expected=golden[key])
                )
            elif key not in golden:
                checks.append(
                    Check(
                        sub,
                        False,
                        actual=actual[key],
                        expected="<missing>",
                        note="not in snapshot; rerun --update-golden",
                    )
                )
            else:
                checks.extend(
                    compare_fingerprint(
                        actual[key], golden[key], float_tol, sub
                    )
                )
        return checks
    if isinstance(golden, list) or isinstance(actual, list):
        if not (isinstance(golden, list) and isinstance(actual, list)):
            checks.append(check_equal(label, actual, golden))
            return checks
        if len(actual) != len(golden):
            checks.append(
                check_equal(f"{label}.len", len(actual), len(golden))
            )
            return checks
        for i, (a, g) in enumerate(zip(actual, golden)):
            checks.extend(
                compare_fingerprint(a, g, float_tol, f"{label}[{i}]")
            )
        return checks
    # Scalars.  bool before int (bool is an int subclass, and
    # ``True == 1.0`` must *not* pass as a number); None and strings
    # exact; mixed int/float pairs compare as floats.
    if isinstance(golden, bool) or isinstance(actual, bool):
        checks.append(
            Check(
                name=label,
                passed=isinstance(golden, bool)
                and isinstance(actual, bool)
                and golden == actual,
                actual=actual,
                expected=golden,
                note="exact",
            )
        )
    elif isinstance(golden, float) or isinstance(actual, float):
        checks.append(check_value(label, actual, golden, float_tol))
    elif isinstance(golden, int) and isinstance(actual, int):
        checks.append(check_equal(label, actual, golden))
    else:
        checks.append(check_equal(label, actual, golden))
    return checks


def verify_golden(
    name: str, root: str | os.PathLike | None = None
) -> list[Check]:
    """Build fingerprint ``name`` and compare it to its snapshot."""
    fp = FINGERPRINTS[name]
    try:
        golden = load_golden(name, root)
    except FileNotFoundError as exc:
        return [Check(name=f"{name}.snapshot", passed=False, note=str(exc))]
    return compare_fingerprint(fp.build(), golden, fp.float_tol, prefix=name)


def update_golden(
    name: str, root: str | os.PathLike | None = None
) -> Path:
    """Regenerate snapshot ``name`` (byte-stable under a fixed tree)."""
    fp = FINGERPRINTS[name]
    return save_golden(name, fp.build(), root)
