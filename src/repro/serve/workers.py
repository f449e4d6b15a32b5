"""Pure task functions behind the serving tier.

Module-level (picklable) so the service can run them on its process
pool (:func:`compute` is the task of every miss), and pure
functions of their request payload so the service's content-addressed
response cache (a :class:`~repro.exec.cache.ResultCache`) can serve
repeats byte-identically: the cache key digests the payload dict plus
:func:`~repro.exec.cache.code_version`, so any source edit invalidates
every cached response at once.

The heavy geometry inside (one FFBP gather table per merge stage and
options, see :func:`repro.sar.ffbp.stage_maps`) flows through
:mod:`repro.perf` memoisation, so concurrent tenants asking for the
*same grid* but different scenes/seeds still share one build -- the
serving counterpart of the sweep-time memo win (one memo per pool
worker).  A request reaches :func:`form_image` or
:func:`profile_kernel` only after
:func:`repro.serve.protocol.parse_request` has refused the sizes, shard
and core counts and options the kernels cannot answer.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Callable

from repro.faults.report import CONTAINED_FAILURES, StallError
from repro.serve.protocol import encode_array, radar_config

_channel = None
"""``(write end, lock)`` of the partial channel of this worker's pool,
set by :func:`init_worker`."""


def _simulate(payload: dict):
    from repro.eval.figures import default_scene
    from repro.sar.simulate import simulate_compressed

    cfg = radar_config(payload["pulses"], payload["ranges"])
    scene = default_scene(cfg)
    # A non-zero noise floor by default, so distinct noise_seed values
    # yield distinct scenes (the load harness's cache-miss workload).
    data = simulate_compressed(
        cfg,
        scene,
        noise_sigma=float(payload.get("noise_sigma", 0.05)),
        seed=payload.get("noise_seed", 1234),
    )
    return cfg, data


def init_worker(channel) -> None:
    """Pool-worker initializer: keep the pool's partial channel (handed
    over once per worker, never pickled per job), then point every
    socket descriptor inherited through fork at ``/dev/null``, so a
    connection the server closes reaches its peer at once, not when the
    worker exits.  ``dup2``, not ``close``: a socket object finalised
    later closes only the stand-in.  The channel is a one-way pipe, not
    a socket, so it survives."""
    global _channel
    _channel = channel
    import os
    import stat

    devnull = os.open(os.devnull, os.O_RDWR)
    for fd in map(int, os.listdir("/dev/fd")):
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(devnull, fd)
        except OSError:  # the listing's own descriptor, now closed
            pass
    os.close(devnull)


def compute(payload: dict, stream: tuple[int, bool] | None = None) -> dict:
    """The result value of one request payload, dispatched on ``kind``
    in the worker.

    ``stream`` is ``(token, stream_data)`` for a streamed image: each
    merge level is posted on the pool's channel as it completes, tagged
    with ``token``, and an end marker follows the last one before the
    value returns -- so the service reads every partial of the job
    before it sees the result.
    """
    if payload.get("kind") == "profile":
        return profile_kernel(payload)
    if stream is None:
        return form_image(payload)
    token, stream_data = stream

    def emit(level: int, n_levels: int, stage) -> None:
        frame: dict[str, Any] = {
            "level": level,
            "n_levels": n_levels,
            "subapertures": int(stage.shape[0]),
            "beams": int(stage.shape[1]),
            "sha256": hashlib.sha256(stage.tobytes()).hexdigest(),
        }
        if stream_data:
            frame["stage"] = encode_array(stage)
        _post(token, frame)

    try:
        return form_image(payload, emit)
    finally:
        _post(token, None)


def _post(token: int, frame: dict | None) -> None:
    """One ``[token, frame]`` JSON line on the channel (``json.dumps``
    escapes every newline inside it); the lock keeps the lines of
    concurrent workers whole."""
    import os

    conn, lock = _channel
    view = memoryview(json.dumps([token, frame]).encode() + b"\n")
    with lock:
        while view:
            view = view[os.write(conn.fileno(), view):]


def form_image(
    payload: dict, emit: Callable[[int, int, Any], None] | None = None
) -> dict:
    """Form one image from a simulated collection; JSON-ready result.

    ``payload`` is :meth:`~repro.serve.protocol.ImageRequest.payload`
    -- exactly the cache-addressable fields.  The returned dict is what
    goes on the wire inside the ``result`` frame, so a cache hit is
    byte-identical to a cold compute all the way to the client.

    With ``emit`` (FFBP only), ``emit(level, n_levels, stage)`` is
    called for every stage of the serial merge tree as it completes --
    also for ``shards``, whose result bytes are the serial ones -- and
    the result is the same bytes either way.
    """
    import numpy as np

    from repro.sar.ffbp import FfbpOptions, ffbp_stages
    from repro.sar.gbp import gbp_polar
    from repro.sar.rda import range_doppler_image

    t0 = time.perf_counter()
    cfg, data = _simulate(payload)
    algorithm = payload["algorithm"]
    if algorithm == "ffbp":
        opts = FfbpOptions(
            interpolation=payload.get("interpolation", "nearest"),
            phase_correction=bool(payload.get("phase_correction", False)),
        )
        shards = int(payload.get("shards", 1))
        if shards > 1 and emit is None:
            from repro.sar.shard import sharded_ffbp

            out = sharded_ffbp(data, cfg, shards, opts).data
        else:
            from repro.geometry.apertures import SubapertureTree

            tree = SubapertureTree(cfg.n_pulses, cfg.spacing, cfg.merge_base)
            for level, stage in enumerate(ffbp_stages(data, cfg, opts, tree=tree)):
                if emit is not None:
                    emit(level, tree.n_stages, stage)
            out = stage[0]
    elif algorithm == "gbp":
        out = gbp_polar(np.asarray(data, np.complex128), cfg).data
    else:
        out = range_doppler_image(np.asarray(data, np.complex128), cfg).data
    return {
        "image": encode_array(out),
        "algorithm": algorithm,
        "compute_ms": round((time.perf_counter() - t0) * 1e3, 3),
    }


def _maybe_chaos_kill(payload: dict) -> None:
    """Chaos hook: the first ``fail_times`` claimants of a marker die.

    Each kill claims one ``<marker>.<n>`` slot with ``O_CREAT|O_EXCL``
    (atomic even across concurrent worker processes) and then SIGKILLs
    itself -- the hardest worker death there is, indistinguishable from
    a segfault to the pool.  Once every slot is claimed the payload
    computes normally, so a request retried by the serve layer heals
    deterministically.  The service only routes marker-carrying
    requests here when booted with ``allow_chaos``, and always on its
    process pool, so the kill never takes the server itself down.
    """
    marker = payload.get("fail_marker")
    if not marker:
        return
    import os
    import signal

    for n in range(int(payload.get("fail_times", 1))):
        try:
            fd = os.open(f"{marker}.{n}", os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)


def profile_kernel(payload: dict) -> dict:
    """Run a kernel timing model on a registry backend spec.

    Contained failures -- an injected fault, a watchdog
    :class:`~repro.faults.report.StallError` with its blame report, a
    deadlock -- come back as a *structured value* (an ``"error"`` key)
    rather than an exception, so the serving layer can answer with the
    diagnosis and count it in the health report instead of failing the
    job.
    """
    from repro.machine.backends import get_machine

    _maybe_chaos_kill(payload)
    t0 = time.perf_counter()
    machine = get_machine(payload["backend"])
    try:
        if payload["kernel"] == "ffbp":
            from repro.kernels.ffbp_common import plan_ffbp
            from repro.kernels.ffbp_spmd import run_ffbp_spmd

            cfg = radar_config(payload["pulses"], payload["ranges"])
            res = run_ffbp_spmd(machine, plan_ffbp(cfg), payload["cores"])
        else:
            from repro.kernels.autofocus_mpmd import (
                run_autofocus_mpmd_resilient,
            )
            from repro.kernels.opcounts import AutofocusWorkload

            res, _moved = run_autofocus_mpmd_resilient(
                machine, AutofocusWorkload(), watchdog=payload.get("watchdog")
            )
    except CONTAINED_FAILURES as exc:
        error: dict[str, Any] = {
            "code": exc.describe()[0],
            "detail": str(exc).splitlines()[0],
            "outcome": list(map(str, exc.describe())),
        }
        if isinstance(exc, StallError):
            b = exc.blame
            error["blame"] = {
                "channel": b.channel,
                "role": b.role,
                "waiter_core": b.waiter_core,
                "peer_core": b.peer_core,
                "flag": b.flag,
                "waited_cycles": b.waited_cycles,
            }
        return {"error": error, "backend": payload["backend"]}
    return {
        "backend": payload["backend"],
        "kernel": payload["kernel"],
        "cycles": int(res.cycles),
        "energy_j": float(res.energy_joules),
        "average_power_w": float(res.average_power_w),
        "stalled": bool(res.stalled),
        "compute_ms": round((time.perf_counter() - t0) * 1e3, 3),
    }
