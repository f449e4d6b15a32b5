"""Pure task functions behind the serving tier.

Module-level (picklable) so the service can schedule them through an
:class:`repro.exec.ExperimentRunner` at any ``jobs`` level, and pure
functions of their request payload so the service's content-addressed
response cache (a :class:`~repro.exec.cache.ResultCache`) can serve
repeats byte-identically: the cache key digests the payload dict plus
:func:`~repro.exec.cache.code_version`, so any source edit invalidates
every cached response at once.

The heavy geometry inside (one FFBP gather table per merge stage and
options, see :func:`repro.sar.ffbp.stage_maps`) flows through
:mod:`repro.perf` memoisation, so concurrent tenants asking for the
*same grid* but different scenes/seeds still share one build -- the
serving counterpart of the sweep-time memo win.  An FFBP image request
reaches :func:`form_image` only after
:func:`repro.serve.protocol.parse_request` has refused the sizes, shard
counts and options the kernels cannot answer.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.faults.report import CONTAINED_FAILURES, StallError
from repro.serve.protocol import encode_array, radar_config


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


def form_image(payload: dict) -> dict:
    """Form one image from a simulated collection; JSON-ready result.

    ``payload`` is :meth:`~repro.serve.protocol.ImageRequest.payload`
    -- exactly the cache-addressable fields.  The returned dict is what
    goes on the wire inside the ``result`` frame, so a cache hit is
    byte-identical to a cold compute all the way to the client.
    """
    import numpy as np

    from repro.sar.ffbp import FfbpOptions, ffbp
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
        if shards > 1:
            from repro.sar.shard import sharded_ffbp

            img = sharded_ffbp(data, cfg, shards, opts)
        else:
            img = ffbp(data, cfg, opts)
        out = img.data
    elif algorithm == "gbp":
        out = gbp_polar(np.asarray(data, np.complex128), cfg).data
    else:
        out = range_doppler_image(np.asarray(data, np.complex128), cfg).data
    return {
        "image": encode_array(out),
        "algorithm": algorithm,
        "compute_ms": round((time.perf_counter() - t0) * 1e3, 3),
    }


def form_image_streaming(
    payload: dict, emit: Callable[[dict], None], stream_data: bool = False
) -> dict:
    """FFBP with one ``partial`` emission per merge level.

    ``emit`` is called from the worker thread with a JSON-ready dict
    for every stage of the merge tree as it completes -- level index,
    stage shape and the stage digest (plus the stage bytes when
    ``stream_data`` is set).  Returns the same final payload as
    :func:`form_image`, so streaming never changes the result bytes.
    """
    import hashlib

    from repro.geometry.apertures import SubapertureTree
    from repro.sar.ffbp import FfbpOptions, ffbp_stages

    t0 = time.perf_counter()
    cfg, data = _simulate(payload)
    opts = FfbpOptions(
        interpolation=payload.get("interpolation", "nearest"),
        phase_correction=bool(payload.get("phase_correction", False)),
    )
    tree = SubapertureTree(cfg.n_pulses, cfg.spacing, cfg.merge_base)
    n_levels = tree.n_stages
    stage = None
    for level, stage in enumerate(ffbp_stages(data, cfg, opts, tree=tree)):
        frame: dict[str, Any] = {
            "level": level,
            "n_levels": n_levels,
            "subapertures": int(stage.shape[0]),
            "beams": int(stage.shape[1]),
            "sha256": hashlib.sha256(stage.tobytes()).hexdigest(),
        }
        if stream_data:
            frame["stage"] = encode_array(stage)
        emit(frame)
    return {
        "image": encode_array(stage[0]),
        "algorithm": "ffbp",
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
    requests here when booted with ``allow_chaos`` *and* a real
    process pool (``group_jobs >= 2``); otherwise the kill would take
    the server itself down.
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
    diagnosis and count it in the health report instead of tearing the
    batch down.
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
            cores = min(int(payload.get("cores", 16)), machine.n_cores)
            res = run_ffbp_spmd(machine, plan_ffbp(cfg), cores)
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
