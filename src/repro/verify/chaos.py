"""Chaos gate: seeded fault-plan fuzzing with a containment contract.

``python -m repro verify --chaos N`` runs ``N`` generated fault plans
against *both* registered backends and asserts the containment
invariant of the fault subsystem (``docs/architecture.md`` §11): an
injected fault may change a run's outcome in exactly one of five
structured ways --

- ``ok``        -- the run completed; for *maskable* (pure-timing)
  plans this is mandatory **and** the work fingerprint (operation
  counts, message counts, byte counters, numerical results) must equal
  the fault-free run's; any completed run, maskable or not, must match
  it too (a completed run with a different fingerprint is a silent
  corruption -- the one forbidden outcome);
- ``fault``     -- a detected :class:`~repro.faults.report.FaultReport`;
- ``stall``     -- a channel watchdog :class:`~repro.faults.report.
  StallError` with a blame report;
- ``deadlock``  -- a structured :class:`~repro.faults.report.
  DeadlockReport`;
- ``stalled``   -- the cycle budget cut the run short
  (``RunResult.stalled``), with the pending waits attached.

Anything else -- a hang, a bare engine error, a wrong answer -- fails
the gate.  Every case runs **twice** and both executions must produce
byte-identical outcome records (and byte-identical
:meth:`~repro.faults.plan.FaultSchedule.fingerprint` expansions), so a
plan + seed is a reproducer, not a flake.

Plans are generated deterministically from ``(seed, case index)`` via
:func:`~repro.exec.seeding.derive_seed` -- no RNG state, so the case
set is identical across processes and ``--jobs`` levels.

``python -m repro verify --chaos-serve N`` extends the contract to the
serving tier (:func:`run_chaos_serve_case`): each case boots a real
:class:`~repro.serve.service.ImageService` (real sockets, process-pool
groups, chaos hooks armed) and drives a scripted adversarial scenario
-- injected stalls on ``event:*`` specs, SIGKILLed workers via
``fail_marker``, a guaranteed deadline miss, an admission-control
burst, and an in-flight request at shutdown.  The gate asserts the
containment contract end-to-end: every request gets exactly one
terminal response and every terminal is structured (``result``, a
contained-fault code, ``deadline``, ``overloaded`` or ``broken-pool``);
cached and degraded responses are byte-flagged, never byte-wrong; the
circuit breaker's trips and recoveries surface in ``health``; a clean
shutdown drains in-flight work; and the whole scenario replays
decision-identically from the same seed (fresh server, fresh cache,
same admission/retry/degradation decisions).
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Sequence

from repro.exec.seeding import derive_seed
from repro.faults.inject import FaultyMachine
from repro.faults.plan import FaultPlan, FaultSchedule, parse_plan
from repro.faults.report import (
    CONTAINED_FAILURES,
    DeadlockReport,
    FaultReport,
    StallError,
)
from repro.verify.tolerance import Check

__all__ = [
    "CHAOS_BACKENDS",
    "chaos_cell",
    "chaos_serve_cell",
    "random_plan",
    "run_chaos_case",
    "run_chaos_serve_case",
]

CHAOS_BACKENDS = ("event", "analytic", "replay")
"""Backends every chaos case runs against.

``replay`` rides the same cases as ``event``: the fault wrapper hands
the replay machine fresh closures that declare no replay key, so they
are never cached and every injected run executes cold -- chaos
coverage here is the end-to-end proof of that must-miss contract (the
fault-free parity runs may legitimately replay: they are
byte-identical by the gate's own replay section)."""

CHAOS_SPEC = "e16"

CHAOS_FABRIC_SPEC = "2x(e16)"
"""Fabric spec for the multi-chip chaos cases: two chips keep the
sharded run cheap while exercising the e-link path and ``chiplink:``
fault clauses."""

CHAOS_FABRIC_CHIPS = 2

WATCHDOG_CYCLES = 50_000
"""Channel watchdog for chaos pipeline runs: generous against the
largest injected stall (a few hundred cycles) yet small enough that a
lost flag surfaces quickly."""

MAX_CYCLES = 2_000_000
"""Hard cycle budget per run -- the wall-clock bound of the no-hang
invariant.  Fault-free chaos workloads finish in well under 1% of it."""

_OUTCOME_KINDS = ("ok", "fault", "stall", "deadlock", "stalled")

# -- deterministic plan generation ------------------------------------------


def _draw(seed: int, case: int, key: str, n: int) -> int:
    """A uniform draw in ``[0, n)``, pure in ``(seed, case, key)``."""
    return derive_seed(seed, f"chaos/{case}/{key}") % n


def random_plan(
    seed: int, case: int, rows: int = 4, cols: int = 4, chips: int = 1
) -> str:
    """Generate the fault plan for one chaos case, deterministically.

    1-2 clauses drawn over every fault family of the grammar, plus an
    explicit plan-level ``seed=`` clause so probabilistic link faults
    expand reproducibly.  ``chips > 1`` (the fabric cases) adds the
    ``chiplink:`` family to the draw; single-chip draws are unchanged,
    so pre-fabric chaos cases keep their historical plans.
    """
    n_clauses = 1 + _draw(seed, case, "n_clauses", 2)
    clauses = []
    for j in range(n_clauses):
        kind = _draw(seed, case, f"kind/{j}", 6 if chips < 2 else 7)
        if kind == 0:  # core crash (sometimes dead-on-arrival)
            core = _draw(seed, case, f"core/{j}", rows * cols - 3)
            cycle = (0, 500, 5_000)[_draw(seed, case, f"cycle/{j}", 3)]
            clauses.append(f"core:{core}@cycle={cycle}:crash")
        elif kind in (1, 2):  # link stall / drop
            r = _draw(seed, case, f"lr/{j}", rows)
            c = _draw(seed, case, f"lc/{j}", cols - 1)
            horiz = _draw(seed, case, f"lh/{j}", 2)
            if horiz:
                src, dst = (r, c), (r, c + 1)
            else:
                r2 = _draw(seed, case, f"lr2/{j}", rows - 1)
                src, dst = (r2, c), (r2 + 1, c)
            p = ("0.05", "0.5", "1")[_draw(seed, case, f"lp/{j}", 3)]
            if kind == 1:
                stall = (8, 40, 200)[_draw(seed, case, f"ls/{j}", 3)]
                tail = f"stall={stall}"
            else:
                tail = "drop"
            clauses.append(
                f"link:({src[0]},{src[1]})->({dst[0]},{dst[1]})"
                f"@p={p}:{tail}"
            )
        elif kind == 3:  # dma stall
            core = _draw(seed, case, f"dcore/{j}", rows * cols)
            nth = 1 + _draw(seed, case, f"dn/{j}", 3)
            stall = (16, 64, 256)[_draw(seed, case, f"ds/{j}", 3)]
            clauses.append(f"dma:{core}@n={nth}:stall={stall}")
        elif kind == 4:  # dma corruption
            core = _draw(seed, case, f"ccore/{j}", rows * cols)
            nth = 1 + _draw(seed, case, f"cn/{j}", 3)
            clauses.append(f"dma:{core}@n={nth}:corrupt-word")
        elif kind == 5:  # lost flag raise
            nth = 1 + _draw(seed, case, f"fn/{j}", 12)
            clauses.append(f"flag:drop@n={nth}")
        else:  # chip-to-chip e-link stall / drop (fabric cases only)
            src = _draw(seed, case, f"xs/{j}", chips)
            dst = _draw(seed, case, f"xd/{j}", chips - 1)
            if dst >= src:
                dst += 1
            p = ("0.05", "0.5", "1")[_draw(seed, case, f"xp/{j}", 3)]
            if _draw(seed, case, f"xk/{j}", 3):
                stall = (64, 500, 2000)[_draw(seed, case, f"xst/{j}", 3)]
                tail = f"stall={stall}"
            else:
                tail = "drop"
            clauses.append(f"chiplink:({src})->({dst})@p={p}:{tail}")
    clauses.append(f"seed={_draw(seed, case, 'plan_seed', 1_000_000)}")
    return "; ".join(clauses)


# -- one case ----------------------------------------------------------------


def _work_fingerprint(result) -> str:
    """Timing-independent digest of what a run *did*.

    Operation counts, byte counters and message counts are invariant
    under pure-timing (maskable) faults; cycle counts are not.  A
    completed faulty run whose fingerprint differs from the fault-free
    run's has been silently corrupted.
    """
    h = hashlib.sha256()
    for t in result.traces:
        h.update(
            repr(
                (
                    round(t.total_flops, 6),
                    round(t.ext_read_bytes, 6),
                    round(t.ext_write_bytes, 6),
                    round(t.remote_read_bytes, 6),
                    round(t.remote_write_bytes, 6),
                    t.messages_sent,
                    t.messages_received,
                    t.barriers,
                    t.dma_transfers,
                )
            ).encode()
        )
    h.update(repr(result.results).encode())
    return h.hexdigest()


def _case_chips(case: int) -> int:
    """Chip count of one chaos case: every third case runs the fabric."""
    return CHAOS_FABRIC_CHIPS if case % 3 == 2 else 1


def _build_machine(
    backend: str, plan: FaultPlan | None, spec: str = CHAOS_SPEC
) -> object:
    from repro.machine.backends import get_machine

    inner = get_machine(f"{backend}:{spec}")
    if plan is None:
        return inner
    return FaultyMachine(inner, plan)


def _execute(backend: str, case: int, plan: FaultPlan | None) -> dict:
    """One run; returns a canonical outcome record (JSON-stable)."""
    from repro.kernels.autofocus_mpmd import build_pipeline, paper_placement
    from repro.kernels.ffbp_common import plan_ffbp
    from repro.kernels.ffbp_fabric import run_ffbp_fabric
    from repro.kernels.ffbp_spmd import run_ffbp_spmd
    from repro.kernels.opcounts import AutofocusWorkload, RadarConfig
    from repro.runtime.mapping import remap_placement

    chips = _case_chips(case)
    spec = CHAOS_FABRIC_SPEC if chips > 1 else CHAOS_SPEC
    machine = _build_machine(backend, plan, spec)
    try:
        if chips > 1:
            # Sharded fabric FFBP: per-chip SPMD phases, e-link
            # transfers (the chiplink: fault surface), top merge.
            fplan = plan_ffbp(RadarConfig.small(n_pulses=64, n_ranges=65))
            result = run_ffbp_fabric(machine, fplan, 16)
            if result.stalled:
                return {"kind": "stalled", "waits": []}
            return {
                "kind": "ok",
                "remapped": [],
                "work": _work_fingerprint(result),
            }
        if case % 2 == 0:
            # MPMD autofocus: channels, flags, the Fig. 9 mapping.
            work = AutofocusWorkload(
                block_beams=6, block_ranges=4, n_candidates=2, iterations=1
            )
            place = paper_placement(work, 4, 4)
            dead = tuple(getattr(machine, "dead_cores", tuple)())
            place, moved = remap_placement(place, dead)
            pipeline = build_pipeline(
                machine, work, place, watchdog=WATCHDOG_CYCLES
            )
            result = pipeline.run(max_cycles=MAX_CYCLES)
            if result.stalled:
                return {
                    "kind": "stalled",
                    "waits": [w.describe() for w in result.wait_states],
                }
            return {
                "kind": "ok",
                "remapped": sorted(moved),
                "work": _work_fingerprint(result),
            }
        # SPMD FFBP: DMA prefetch, scatter reads, barriers.
        fplan = plan_ffbp(RadarConfig.small(n_pulses=64, n_ranges=65))
        result = run_ffbp_spmd(machine, fplan, 16)
        if result.stalled:
            return {"kind": "stalled", "waits": []}
        return {"kind": "ok", "remapped": [], "work": _work_fingerprint(result)}
    except FaultReport as exc:
        return {"kind": "fault", "describe": list(exc.describe())}
    except StallError as exc:
        return {"kind": "stall", "describe": list(exc.describe())}
    except DeadlockReport as exc:
        return {
            "kind": "deadlock",
            "describe": [list(w) if isinstance(w, tuple) else w
                         for w in exc.describe()[1]],
        }


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def run_chaos_case(backend: str, case: int, seed: int) -> list[Check]:
    """Run one chaos case on one backend; return its contract checks."""
    checks: list[Check] = []
    plan_text = random_plan(seed, case, chips=_case_chips(case))
    prefix = f"chaos/{backend}/{case}"
    t0 = time.perf_counter()
    try:
        plan = parse_plan(plan_text)
        schedule_fp = FaultSchedule(plan).fingerprint()
        first = _execute(backend, case, plan)
        second = _execute(backend, case, plan)
    except CONTAINED_FAILURES:  # pragma: no cover - _execute catches these
        raise
    except Exception as exc:  # the forbidden outcome: an unstructured crash
        return [
            Check(
                name=f"{prefix}.contained",
                passed=False,
                note=(
                    f"plan {plan_text!r} escaped containment: "
                    f"{type(exc).__name__}: {exc}"
                ),
            )
        ]
    elapsed = time.perf_counter() - t0

    checks.append(
        Check(
            name=f"{prefix}.contained",
            passed=first["kind"] in _OUTCOME_KINDS,
            note=f"plan {plan_text!r} -> {first['kind']}",
        )
    )
    checks.append(
        Check(
            name=f"{prefix}.deterministic",
            passed=_canonical(first) == _canonical(second),
            note=(
                f"schedule {schedule_fp[:12]}; "
                f"rerun must reproduce the outcome byte-identically"
            ),
        )
    )
    if plan.maskable:
        ok = first["kind"] == "ok"
        note = f"maskable plan {plan_text!r} must complete; got {first['kind']}"
        if ok:
            clean = _execute(backend, case, None)
            ok = first.get("work") == clean.get("work")
            note = f"maskable plan {plan_text!r}: result parity vs fault-free"
        checks.append(
            Check(name=f"{prefix}.maskable", passed=ok, note=note)
        )
    elif first["kind"] == "ok":
        # A non-maskable fault that never fired (or was re-mapped
        # around) may complete -- but never with different work.
        clean = _execute(backend, case, None)
        if first.get("remapped"):
            note = (
                f"completed via re-mapping of {first['remapped']}; "
                f"work fingerprint may legitimately differ in routing "
                f"counters, numerical results must not"
            )
            passed = True  # re-mapping is the sanctioned degraded path
        else:
            passed = first.get("work") == clean.get("work")
            note = (
                f"non-maskable plan {plan_text!r} completed -- "
                f"work must equal the fault-free run (no silent corruption)"
            )
        checks.append(
            Check(name=f"{prefix}.no-silent-corruption", passed=passed, note=note)
        )
    checks.append(
        Check(
            name=f"{prefix}.bounded",
            passed=elapsed < 60.0,
            note=f"{elapsed:.2f}s wall for two executions",
        )
    )
    return checks


def chaos_cell(backend: str, cases: Sequence[int], seed: int) -> list[Check]:
    """Gate cell: a chunk of chaos cases on one backend (picklable)."""
    checks: list[Check] = []
    for case in cases:
        checks.extend(run_chaos_case(backend, case, seed))
    return checks


# -- serve-level chaos --------------------------------------------------------

CHAOS_SERVE_STALL_PLAN = "link:(0,0)->(0,1)@p=1:stall=500000"
"""The degradation pivot of the serve scenario: on ``event:*`` this
plan stalls the autofocus pipeline's first channel (watchdog blame);
on the ``analytic:*`` substitute the watchdog is never armed and the
run completes -- so a tripped breaker has a real, deterministic
degraded path to offer."""

TERMINAL_TYPES = ("result", "error", "health", "ok")
"""Frame types that terminate one request on the wire."""


def _serve_record(frame: dict, minimal: bool = False) -> dict:
    """The decision-relevant projection of one terminal frame.

    Everything nondeterministic (elapsed times, retry-after hints,
    failure text carrying temp paths) is excluded; everything that
    encodes a *decision* -- outcome type/code, cache/degraded flags,
    retry count, result bytes (sha256) and model outputs (cycles) --
    is kept, so two same-seed executions must match byte-for-byte.
    ``minimal`` drops the cache flag for requests whose batching
    window (and hence coalesce-vs-cache-hit) is timing-dependent.
    """
    rec: dict = {
        "id": frame.get("id"),
        "type": frame.get("type"),
        "code": frame.get("code"),
    }
    if not minimal:
        rec.update(
            cached=bool(frame.get("cached", False)),
            degraded=bool(frame.get("degraded", False)),
            degraded_to=frame.get("degraded_to"),
            retries=frame.get("retries"),
            outcome=frame.get("outcome"),
            cycles=frame.get("cycles"),
        )
    if frame.get("image"):
        rec["sha256"] = frame["image"].get("sha256")
    return rec


class _ServeClient:
    """One scripted client connection against the scenario service."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port: int) -> "_ServeClient":
        import asyncio

        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def send(self, obj: dict) -> None:
        from repro.serve.protocol import encode_frame

        self.writer.write(encode_frame(obj))
        await self.writer.drain()

    async def read_terminal(self) -> dict:
        """Next terminal frame (``partial`` streaming frames skipped)."""
        import asyncio

        from repro.serve.protocol import read_frame

        while True:
            frame = await asyncio.wait_for(read_frame(self.reader), timeout=30.0)
            if frame is None:
                raise ConnectionError("connection closed before a terminal frame")
            if frame.get("type") in TERMINAL_TYPES:
                return frame

    async def request(self, obj: dict) -> dict:
        await self.send(obj)
        return await self.read_terminal()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _drive_chaos_serve(case: int, seed: int, tmpdir: str) -> dict:
    """One scripted execution of the serve chaos scenario.

    Returns ``{"records": [...], "health": {...}, "drained": ...,
    "burst_overloaded": N}`` -- the canonical decision trace a
    same-seed rerun must reproduce exactly.
    """
    import asyncio
    import os

    from repro.serve.service import ImageService, ServeSettings

    settings = ServeSettings(
        port=0,
        workers=2,
        batch_window_ms=1.0,
        cache_dir=os.path.join(tmpdir, "cache"),
        max_inflight=8,
        max_connection_inflight=2,
        max_retries=1,
        retry_backoff_ms=2.0,
        breaker_window=4,
        breaker_failures=2,
        breaker_cooldown=2,
        group_jobs=2,
        allow_chaos=True,
        resilience_seed=seed,
    )
    service = ImageService(settings)
    await service.start()
    server_task = asyncio.create_task(service.serve_until_shutdown())
    records: list[dict] = []

    # Per-case variation, all pure in (seed, case).
    img_seed = _draw(seed, case, "serve/img_seed", 1_000_000)
    # FFBP needs a power-of-two aperture: 16 or 32 pulses per case.
    pulses = 16 << _draw(seed, case, "serve/pulses", 2)
    burst_extra = 2 + _draw(seed, case, "serve/burst", 3)
    plan_seed = _draw(seed, case, "serve/plan_seed", 1_000_000)
    stall_spec = (
        f"faulty({CHAOS_SERVE_STALL_PLAN}; seed={plan_seed}):event:e16"
    )
    image = {
        "kind": "image",
        "pulses": pulses,
        "ranges": pulses + 1,
        "noise_seed": img_seed,
    }
    stall_profile = {
        "kind": "profile",
        "backend": stall_spec,
        "kernel": "autofocus",
        "watchdog": 5000,
    }
    ffbp_profile = {"kind": "profile", "kernel": "ffbp", "pulses": 16, "ranges": 17}

    try:
        main = await _ServeClient.connect(service.port)

        # A. response cache: cold compute, then a byte-flagged repeat.
        records.append(_serve_record(await main.request({**image, "id": "a0"})))
        records.append(_serve_record(await main.request({**image, "id": "a1"})))

        # B. guaranteed deadline miss (budget far below the batch window).
        records.append(
            _serve_record(
                await main.request(
                    {**image, "id": "a2", "noise_seed": img_seed + 1,
                     "deadline_ms": 0.001}
                )
            )
        )

        # C. breaker trip on the stall spec: two contained stalls open
        # it, two requests degrade onto the analytic substitute, the
        # probe re-stalls and re-trips.
        for rid in ("f0", "f1", "f2", "f3", "f4"):
            records.append(
                _serve_record(await main.request({**stall_profile, "id": rid}))
            )

        # D. pool self-healing: a worker SIGKILL fails the group with
        # broken-pool and the serve-level retry heals it (h1).
        records.append(
            _serve_record(
                await main.request(
                    {**ffbp_profile, "id": "h1", "backend": "analytic:e16",
                     "fail_marker": os.path.join(tmpdir, "m1"),
                     "fail_times": 1}
                )
            )
        )

        # E. breaker trip via repeated broken pools on event:e16 (kills
        # outlast every retry), then cooldown degrades, then a clean
        # probe recovers the breaker.
        for rid, marker in (("t0", "m2"), ("t1", "m3")):
            records.append(
                _serve_record(
                    await main.request(
                        {**ffbp_profile, "id": rid, "backend": "event:e16",
                         "fail_marker": os.path.join(tmpdir, marker),
                         "fail_times": 4}
                    )
                )
            )
        for rid in ("r0", "r1", "r2", "r3"):
            records.append(
                _serve_record(
                    await main.request(
                        {**ffbp_profile, "id": rid, "backend": "event:e16"}
                    )
                )
            )

        # F. admission burst: one connection pipelines more work than
        # its in-flight cap; the excess must be rejected *immediately*
        # with structured overloaded answers while the admitted two
        # compute to results.
        burst = await _ServeClient.connect(service.port)
        burst_n = 2 + burst_extra
        for i in range(burst_n):
            await burst.send(
                {**image, "id": f"b{i}", "noise_seed": img_seed + 2}
            )
        burst_frames = [await burst.read_terminal() for _ in range(burst_n)]
        by_id = {f.get("id"): f for f in burst_frames}
        duplicate_free = len(by_id) == burst_n
        burst_overloaded = sum(
            1 for f in burst_frames if f.get("code") == "overloaded"
        )
        for bid in sorted(by_id):
            records.append(_serve_record(by_id[bid], minimal=True))
        # The next frame on this connection must answer *health* -- a
        # duplicate terminal for b* would surface here as a wrong id.
        probe = await burst.request({"id": "bh", "kind": "health"})
        duplicate_free = duplicate_free and probe.get("id") == "bh"
        await burst.close()

        # G. health snapshot: the breaker/retry/admission decisions.
        health = await main.request({"id": "hh", "kind": "health"})
        res = health.get("resilience", {})
        health_decisions = {
            "served": health.get("served"),
            "errors": health.get("errors"),
            "deadline_misses": health.get("deadline_misses"),
            "contained": (health.get("faults") or {}).get("contained"),
            "stalls": (health.get("faults") or {}).get("stalls"),
            "overloaded": res.get("overloaded"),
            "retries": res.get("retries"),
            "degraded": res.get("degraded"),
            "pool_rebuilds": res.get("pool_rebuilds"),
            "breaker_trips": (res.get("breaker") or {}).get("trips"),
            "breaker_recoveries": (res.get("breaker") or {}).get("recoveries"),
        }

        # H. shutdown drain: an in-flight image must still get its
        # terminal result, then the connection sees a clean EOF.
        drainer = await _ServeClient.connect(service.port)
        await drainer.send(
            {**image, "id": "d0", "noise_seed": img_seed + 3}
        )
        await asyncio.sleep(0.05)  # let the server admit d0
        shut = await main.request({"id": "sd", "kind": "shutdown"})
        drained_frame = await drainer.read_terminal()
        from repro.serve.protocol import read_frame

        eof = await asyncio.wait_for(read_frame(drainer.reader), timeout=30.0)
        records.append(_serve_record(drained_frame, minimal=True))
        await drainer.close()
        await main.close()
        await asyncio.wait_for(server_task, timeout=30.0)
        return {
            "records": records,
            "health": health_decisions,
            "burst_overloaded": burst_overloaded,
            "duplicate_free": duplicate_free,
            "shutdown_ok": shut.get("type") == "ok",
            "drained": drained_frame.get("type"),
            "drain_eof": eof is None,
        }
    finally:
        server_task.cancel()
        await service.close()


def run_chaos_serve_case(case: int, seed: int) -> list[Check]:
    """Run one serve-level chaos case; return its contract checks.

    The scripted scenario executes **twice** against fresh servers and
    caches; beyond the per-execution containment checks, the two
    decision traces must be byte-identical.
    """
    import asyncio
    import tempfile

    from repro.serve.load import STRUCTURED_ERROR_CODES

    prefix = f"chaos-serve/{case}"
    t0 = time.perf_counter()
    outs = []
    try:
        for _ in range(2):
            with tempfile.TemporaryDirectory(prefix="repro-chaos-serve-") as tmp:
                outs.append(asyncio.run(_drive_chaos_serve(case, seed, tmp)))
    except Exception as exc:  # the forbidden outcome: an unstructured crash
        return [
            Check(
                name=f"{prefix}.contained",
                passed=False,
                note=f"scenario escaped containment: {type(exc).__name__}: {exc}",
            )
        ]
    elapsed = time.perf_counter() - t0
    first, second = outs
    checks: list[Check] = []

    bad_terminals = [
        r for r in first["records"]
        if not (
            r["type"] == "result"
            or (r["type"] == "error" and r["code"] in STRUCTURED_ERROR_CODES)
        )
    ]
    checks.append(
        Check(
            name=f"{prefix}.contained",
            passed=not bad_terminals,
            note=(
                "every terminal is a result or a structured error; "
                f"violations: {bad_terminals[:3]}"
            ),
        )
    )
    checks.append(
        Check(
            name=f"{prefix}.exactly-once",
            passed=bool(first["duplicate_free"] and second["duplicate_free"]),
            note="one terminal response per request id, even under burst",
        )
    )

    by_id = {r["id"]: r for r in first["records"]}
    a0, a1 = by_id.get("a0", {}), by_id.get("a1", {})
    cache_ok = (
        a0.get("type") == "result"
        and a1.get("type") == "result"
        and a1.get("cached") is True
        and a0.get("sha256") == a1.get("sha256") is not None
    )
    checks.append(
        Check(
            name=f"{prefix}.cache-byte-identical",
            passed=cache_ok,
            note="repeat request served from cache with identical bytes",
        )
    )
    checks.append(
        Check(
            name=f"{prefix}.deadline",
            passed=by_id.get("a2", {}).get("code") == "deadline",
            note="a sub-window deadline converts to a structured miss",
        )
    )
    # Degradation ladder: fault-wrapped specs (f2/f3) skip the replay
    # rung and land on the analytic substitute; bare event specs
    # (r0/r1) descend one rung onto the byte-identical replay tier.
    degraded_expect = {
        "f2": lambda to: "analytic" in to,
        "f3": lambda to: "analytic" in to,
        "r0": lambda to: to == "replay(event:e16)",
        "r1": lambda to: to == "replay(event:e16)",
    }
    degraded_ok = all(
        by_id.get(rid, {}).get("type") == "result"
        and by_id.get(rid, {}).get("degraded") is True
        and want(by_id.get(rid, {}).get("degraded_to") or "")
        for rid, want in degraded_expect.items()
    )
    checks.append(
        Check(
            name=f"{prefix}.degraded-flagged",
            passed=degraded_ok,
            note=(
                "breaker-tripped requests answer on the substitute one "
                "rung down (replay for bare event, analytic for "
                "fault-wrapped) and are flagged degraded"
            ),
        )
    )
    heal_ok = (
        by_id.get("h1", {}).get("type") == "result"
        and by_id.get("h1", {}).get("retries") == 1
        and by_id.get("r2", {}).get("type") == "result"
        and by_id.get("r2", {}).get("degraded") is False
    )
    checks.append(
        Check(
            name=f"{prefix}.pool-heals",
            passed=heal_ok,
            note=(
                "a SIGKILLed worker heals via the serve-level retry and "
                "the probe recovers the real backend"
            ),
        )
    )
    h = first["health"]
    health_ok = (
        (h.get("breaker_trips") or 0) >= 3
        and (h.get("breaker_recoveries") or 0) >= 1
        and (h.get("retries") or 0) >= 1
        and (h.get("pool_rebuilds") or 0) >= 1
        and h.get("overloaded") == first["burst_overloaded"] >= 1
        and (h.get("degraded") or 0) >= 4
    )
    checks.append(
        Check(
            name=f"{prefix}.health-observability",
            passed=health_ok,
            note=f"breaker/retry/admission decisions surface in health: {h}",
        )
    )
    checks.append(
        Check(
            name=f"{prefix}.shutdown-drains",
            passed=bool(
                first["shutdown_ok"]
                and first["drained"] == "result"
                and first["drain_eof"]
            ),
            note=(
                "an in-flight request at shutdown still gets its result, "
                "then a clean EOF"
            ),
        )
    )
    checks.append(
        Check(
            name=f"{prefix}.decision-identical",
            passed=_canonical(first) == _canonical(second),
            note=(
                "same seed, fresh server: identical admission/retry/"
                "degradation decisions and identical result bytes"
            ),
        )
    )
    checks.append(
        Check(
            name=f"{prefix}.bounded",
            passed=elapsed < 60.0,
            note=f"{elapsed:.2f}s wall for two executions",
        )
    )
    return checks


def chaos_serve_cell(cases: Sequence[int], seed: int) -> list[Check]:
    """Gate cell: a chunk of serve-level chaos cases (picklable)."""
    checks: list[Check] = []
    for case in cases:
        checks.extend(run_chaos_serve_case(case, seed))
    return checks
