"""Replay conformance oracles: byte-identity of the trace-compiled tier.

``replay(event:<spec>)`` promises *byte identity*, not banded
agreement: a replayed run must be indistinguishable from the cold
event run it stands in for -- same cycles, seconds, energy, power,
every per-core trace counter bit-for-bit, same results, same
activity-recorder intervals.  Two oracles enforce the contract:

- :func:`replay_identity_oracle` runs one of :data:`REPLAY_WORKLOADS`
  three ways -- cold on the bare event backend, on a fresh replay
  machine (the capture), and on a second fresh replay machine (the
  hit) -- and compares every observable exactly.  It also asserts
  that the hit really *was* a replay (``stats()["replays"] == 1``): a
  silently-bypassing cache would pass the identity clauses while
  delivering none of the speedup.
- :func:`replay_golden_oracle` rebuilds a registered golden
  fingerprint under ``replay(event:e16)`` and compares it field-exact
  against the ``event:e16`` build (the ``backend`` label normalised
  away) -- the end-to-end form of the same contract, through the
  Table-I / profile / traffic derivation pipelines.

Both oracles are pure functions of the source tree, so they are safe
to run as cacheable gate cells at any ``--jobs`` level.  The identity
oracle observes its machines (recorders, replay statistics), so it
calls the :data:`~repro.verify.oracles.WORKLOADS` runners on fresh
machines of its own rather than sharing runs through
:func:`~repro.verify.oracles.verify_run`.
"""

from __future__ import annotations

from typing import Any

from repro.sar.config import RadarConfig
from repro.verify.oracles import EXACT_TRACE_FIELDS, WORKLOADS, RunInputs
from repro.verify.tolerance import Check

__all__ = [
    "replay_identity_oracle",
    "replay_golden_oracle",
    "REPLAY_TRACE_FIELDS",
    "REPLAY_WORKLOADS",
]

REPLAY_WORKLOADS: tuple[str, ...] = (
    "ffbp_spmd16",
    "autofocus_mpmd",
    "ffbp_seq",
    "autofocus_seq",
    "gbp_spmd16",
    "linear_chain",
)
"""One :data:`~repro.verify.oracles.WORKLOADS` entry per kernel builder
that declares a replay key: the FFBP SPMD and sequential kernels, the
autofocus MPMD pipeline and sequential kernel, SPMD GBP, and a
generated dataflow pipeline."""

REPLAY_INPUTS = RunInputs(cfg=RadarConfig.small(n_pulses=64, n_ranges=65))
"""The replay oracle's geometry: 64x65 keeps three runs per workload
cheap."""

REPLAY_TRACE_FIELDS: tuple[str, ...] = EXACT_TRACE_FIELDS + (
    "compute_cycles",
    "stall_cycles",
)
"""Merged-trace counters compared bit-for-bit between cold and replay
(the differential oracle's exact set *plus* the cycle counters, which
are only banded across engines but exact within one)."""


def _byte_equal(a: Any, b: Any) -> bool:
    """Structural bit-level equality (arrays compared elementwise)."""
    import numpy as np

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and bool(np.array_equal(a, b))
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_byte_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _byte_equal(x, y) for x, y in zip(a, b)
        )
    return bool(a == b) and type(a) is type(b)


def _identity_checks(prefix: str, ref: Any, cand: Any) -> list[Check]:
    """Every byte-identity clause between two RunResults."""
    checks = [
        Check(
            name=f"{prefix}.{field}",
            passed=getattr(cand, field) == getattr(ref, field),
            actual=getattr(cand, field),
            expected=getattr(ref, field),
            note="exact",
        )
        for field in (
            "cycles",
            "seconds",
            "energy_joules",
            "average_power_w",
            "stalled",
        )
    ]
    rt, ct = ref.trace, cand.trace
    checks.extend(
        Check(
            name=f"{prefix}.trace.{field}",
            passed=getattr(ct, field) == getattr(rt, field),
            actual=getattr(ct, field),
            expected=getattr(rt, field),
            note="exact",
        )
        for field in REPLAY_TRACE_FIELDS
    )
    checks.append(
        Check(
            name=f"{prefix}.results",
            passed=_byte_equal(cand.results, ref.results),
            actual=f"<{len(cand.results)} results>",
            expected=f"<{len(ref.results)} results>",
            note="exact (structural)",
        )
    )
    return checks


def replay_identity_oracle(
    workload: str = "ffbp_spmd16", spec: str = "e16"
) -> list[Check]:
    """Cold event vs capture vs replay hit: byte identity end to end.

    The capture machine and the hit machine are *separate, fresh*
    ``replay(event:<spec>)`` machines: the hit must come entirely from
    the cache (pre-state key + declared program keys), never from state
    carried on the machine object.  Recorder intervals are asserted
    identical too (count and content), since the activity timeline is
    part of the replay contract.  The oracle first drops the resident
    compiled schedules (``clear_memo(CompiledSchedule)``), so the
    capture runs in this call; every other memo entry -- the
    :func:`~repro.verify.oracles.verify_run` runs, the FFBP plans --
    stays resident.
    """
    from repro.machine.backends import get_machine
    from repro.machine.tracing import ActivityRecorder
    from repro.perf import clear_memo
    from repro.replay.schedule import CompiledSchedule

    run = WORKLOADS[workload]
    clear_memo(CompiledSchedule)  # the capture must happen inside this cell
    prefix = f"replay/{workload}/{spec}"
    checks: list[Check] = []

    cold_machine = get_machine(f"event:{spec}")
    cold_machine.recorder = ActivityRecorder()
    cold = run(cold_machine, REPLAY_INPUTS)

    capture_machine = get_machine(f"replay(event:{spec})")
    capture_machine.recorder = ActivityRecorder()
    captured = run(capture_machine, REPLAY_INPUTS)

    hit_machine = get_machine(f"replay(event:{spec})")
    hit_machine.recorder = ActivityRecorder()
    hit = run(hit_machine, REPLAY_INPUTS)

    checks.extend(_identity_checks(f"{prefix}.capture", cold, captured))
    checks.extend(_identity_checks(f"{prefix}.hit", cold, hit))

    stats = hit_machine.stats()
    checks.append(
        Check(
            name=f"{prefix}.hit.replayed",
            passed=stats["replays"] >= 1
            and stats["bypassed"] == 0
            and stats["uncacheable"] == 0,
            actual=stats,
            expected="replays >= 1, no bypass/uncacheable",
            note="the hit must be served from the compiled schedule",
        )
    )
    checks.append(
        Check(
            name=f"{prefix}.capture.cacheable",
            passed=capture_machine.stats()["uncacheable"] == 0,
            actual=capture_machine.stats(),
            expected="uncacheable == 0",
            note="every workload program must declare a replay key",
        )
    )

    cold_iv = cold_machine.recorder.intervals
    hit_iv = hit_machine.recorder.intervals
    checks.append(
        Check(
            name=f"{prefix}.hit.recorder",
            passed=len(cold_iv) == len(hit_iv)
            and all(a == b for a, b in zip(cold_iv, hit_iv)),
            actual=f"<{len(hit_iv)} intervals>",
            expected=f"<{len(cold_iv)} intervals>",
            note="activity timeline replays exactly",
        )
    )
    return checks


def replay_golden_oracle(name: str, spec: str = "e16") -> list[Check]:
    """One golden fingerprint, rebuilt under replay: field-exact.

    Runs the registered builder twice -- ``event:<spec>`` and
    ``replay(event:<spec>)`` -- and requires the outputs identical
    after normalising the ``backend`` label.  Exact comparison (no
    tolerance band): the replay tier does not re-derive, it restores.
    """
    import json

    from repro.verify.golden import FINGERPRINTS

    fp = FINGERPRINTS[name]
    ref = dict(fp.build(backend=f"event:{spec}"))
    cand = dict(fp.build(backend=f"replay(event:{spec})"))
    ref.pop("backend", None)
    cand.pop("backend", None)
    same = json.dumps(cand, sort_keys=True) == json.dumps(ref, sort_keys=True)
    return [
        Check(
            name=f"replay/golden/{name}/{spec}",
            passed=same,
            actual="<replay fingerprint>" if same else cand,
            expected="<event fingerprint>" if same else ref,
            note="byte-identical after backend-label normalisation",
        )
    ]
