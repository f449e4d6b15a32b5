"""Command-line interface: ``python -m repro <command>``.

Gives shell access to the main entry points so the reproduction can be
driven without writing Python:

- ``table1``      regenerate Table I (both case studies),
- ``speedups``    the Section VI on-chip speedups and energy ratios,
- ``fig7``        render the Fig. 7 panels as ASCII art,
- ``image``       simulate a scene and form an image (ffbp/gbp/rda),
- ``profile``     cycle breakdown of a kernel on the simulated chip,
- ``sweep``       parameter sweeps (cores, window, clock, ...) as charts,
- ``specs``       dump the machine models' constants,
- ``verify``      cross-backend conformance gate (oracles, golden
  snapshots, fuzz drivers; see :mod:`repro.verify`),
- ``serve``       long-running async image-formation service over a
  length-prefixed JSON protocol (see :mod:`repro.serve`): batched
  scheduling, content-addressed response cache, streamed FFBP merge
  levels, structured deadline/stall responses,
- ``load``        load generator + latency harness against a running
  ``serve`` (p50/p99 under N concurrent clients, ``repro-load/1``
  JSON output).

Commands that run the simulator accept ``--backend`` with a
``[backend][:spec]`` string (see :mod:`repro.machine.backends`):
``event`` is the calibrated default, ``analytic`` the fast closed-form
engine, and specs select the chip (``e16``, ``e64``, ``8x8@800e6``) or
a multi-chip fabric (``4x(8x8)@800e6``, ``2x(e16)``).

``table1``, ``sweep`` and ``verify`` accept ``--jobs N`` (``-j N``) to
fan their independent simulations out over N worker processes via the
execution layer (:mod:`repro.exec`); output is byte-identical at any
``N``, and ``--jobs 1`` (the default) runs inline exactly as before.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Sequence

import numpy as np


def _add_scale_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--pulses", type=int, default=256, help="aperture pulse count"
    )
    p.add_argument(
        "--ranges", type=int, default=257, help="range bins per pulse"
    )
    p.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's 1024x1001 workload",
    )


def _add_backend_arg(p: argparse.ArgumentParser, default: str = "event") -> None:
    p.add_argument(
        "--backend",
        default=default,
        metavar="SPEC",
        help="simulation backend as '[backend][:spec]', e.g. 'event', "
        "'analytic', 'analytic:e64', '8x8@800e6', or a multi-chip "
        "fabric 'analytic:4x(8x8)' (default: %(default)s)",
    )


def _add_jobs_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="fan independent simulations out over N worker processes; "
        "output is byte-identical at any N (default: %(default)s)",
    )


def _shard_count(text: str) -> int:
    """argparse type for ``--shards``: an integer >= 1.

    Validating at the parser level turns misuse into a proper usage
    error (exit 2, usage + one-line message on stderr, no traceback)
    *before* any scene is simulated.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _validate_image(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Cross-field checks for ``image``, run before any work starts.

    ``--shards`` and ``--interpolation`` only affect the ffbp
    algorithm; combining them with gbp/rda used to be silently ignored
    or rejected deep in the command body -- both are argparse-level
    usage errors now.
    """
    if args.shards > 1 and args.algorithm != "ffbp":
        parser.error(
            f"--shards applies to the ffbp algorithm, not {args.algorithm!r}"
        )
    if args.interpolation != "nearest" and args.algorithm != "ffbp":
        parser.error(
            f"--interpolation applies to the ffbp algorithm, "
            f"not {args.algorithm!r}"
        )


def _backend_with_default_spec(token: str, spec: str) -> str:
    """Give a bare backend token (``analytic``) a default chip spec.

    Sweep series that need a particular chip (the unit-scaling series
    wants an E64) still honour an explicit spec in the token.
    """
    from repro.machine.backends import available_backends

    token = (token or "").strip()
    if not token:
        return ":" + spec
    if ":" in token:
        return token
    if token.lower() in available_backends():
        return f"{token}:{spec}"
    return token


def _config(args: argparse.Namespace):
    from repro.sar.config import RadarConfig

    if getattr(args, "paper_scale", False):
        return RadarConfig.paper()
    return RadarConfig.small(n_pulses=args.pulses, n_ranges=args.ranges)


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.eval.table1 import autofocus_table, ffbp_table
    from repro.kernels.ffbp_common import plan_ffbp
    from repro.sar.config import RadarConfig

    cfg = RadarConfig.paper() if args.paper_scale else _config(args)
    jobs = getattr(args, "jobs", 1)
    print(
        ffbp_table(
            plan=plan_ffbp(cfg), backend=args.backend, jobs=jobs
        ).format()
    )
    print()
    print(autofocus_table(backend=args.backend, jobs=jobs).format())
    return 0


def cmd_speedups(args: argparse.Namespace) -> int:
    from repro.eval.energy import energy_efficiency_ratios
    from repro.eval.table1 import autofocus_table, ffbp_table
    from repro.kernels.ffbp_common import plan_ffbp

    cfg = _config(args)
    f = ffbp_table(plan=plan_ffbp(cfg), backend=args.backend)
    a = autofocus_table(backend=args.backend)
    fb = energy_efficiency_ratios(f, "ffbp_epi_par", "ffbp_cpu")
    af = energy_efficiency_ratios(a, "af_epi_par", "af_cpu")
    print(f"FFBP  parallel speedup vs i7: {fb.speedup:6.2f}x   "
          f"throughput/W ratio: {fb.estimated:6.1f}x")
    print(f"AF    parallel speedup vs i7: {af.speedup:6.2f}x   "
          f"throughput/W ratio: {af.estimated:6.1f}x")
    return 0


def cmd_fig7(args: argparse.Namespace) -> int:
    from repro.eval.figures import ascii_image, fig7_images

    panels = fig7_images(_config(args))
    for name, mag in (
        ("(a) pulse-compressed data", np.abs(panels.raw)),
        ("(b) GBP", panels.gbp.magnitude),
        ("(c) FFBP [Intel path]", panels.ffbp_intel.magnitude),
        ("(d) FFBP [Epiphany path]", panels.ffbp_epiphany.magnitude),
    ):
        print(f"\nFig. 7{name}:")
        print(ascii_image(mag, args.width, args.height))
    return 0


def cmd_image(args: argparse.Namespace) -> int:
    from repro.eval.figures import ascii_image, default_scene
    from repro.sar.ffbp import FfbpOptions, ffbp
    from repro.sar.gbp import gbp_polar
    from repro.sar.rda import range_doppler_image
    from repro.sar.simulate import simulate_compressed

    # --shards / --interpolation misuse is rejected at argparse level
    # (see _validate_image); by the time we are here the combination is
    # legal and work may start.
    cfg = _config(args)
    scene = default_scene(cfg)
    data = simulate_compressed(cfg, scene)
    if args.algorithm == "ffbp":
        opts = FfbpOptions(interpolation=args.interpolation)
        if args.shards > 1:
            from repro.sar.shard import sharded_ffbp

            img = sharded_ffbp(data, cfg, args.shards, opts)
        else:
            img = ffbp(data, cfg, opts)
        mag = img.magnitude
    elif args.algorithm == "gbp":
        mag = gbp_polar(np.asarray(data, np.complex128), cfg).magnitude
    else:
        mag = range_doppler_image(
            np.asarray(data, np.complex128), cfg
        ).magnitude
    print(ascii_image(mag, args.width, args.height))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.kernels.autofocus_mpmd import run_autofocus_mpmd
    from repro.kernels.ffbp_common import plan_ffbp
    from repro.kernels.ffbp_spmd import run_ffbp_spmd
    from repro.kernels.opcounts import AutofocusWorkload
    from repro.machine.backends import get_machine
    from repro.machine.profile import profile_run
    from repro.machine.tracing import ActivityRecorder

    machine = get_machine(args.backend)
    if args.timeline or args.trace_json:
        if not hasattr(machine, "recorder"):
            print(
                f"--timeline/--trace-json need an event backend; "
                f"{args.backend!r} does not record activity",
                file=sys.stderr,
            )
            return 2
        machine.recorder = ActivityRecorder()
    if args.kernel == "ffbp":
        res = run_ffbp_spmd(machine, plan_ffbp(_config(args)), 16)
    else:
        res = run_autofocus_mpmd(machine, AutofocusWorkload())
    print(profile_run(res).format())
    if args.timeline:
        print()
        print(machine.recorder.ascii_timeline(width=72))
    if args.trace_json:
        with open(args.trace_json, "w") as fh:
            fh.write(machine.recorder.chrome_trace(machine.spec.clock_hz))
        print(f"\nChrome trace written to {args.trace_json}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.eval import sweeps
    from repro.kernels.ffbp_common import plan_ffbp

    backend = args.backend
    jobs = getattr(args, "jobs", 1)
    if args.series == "ffbp-cores":
        cores = tuple(int(c) for c in args.cores.split(","))
        series = sweeps.ffbp_core_sweep(
            plan=plan_ffbp(_config(args)),
            cores=cores,
            backend=backend,
            jobs=jobs,
        )
    elif args.series == "ffbp-window":
        series = sweeps.ffbp_window_sweep(
            _config(args), backend=backend, jobs=jobs
        )
    elif args.series == "af-units":
        series = sweeps.autofocus_unit_sweep(
            backend=_backend_with_default_spec(backend, "e64"), jobs=jobs
        )
    elif args.series == "clock":
        series = sweeps.clock_sweep(
            plan=plan_ffbp(_config(args)), backend=backend, jobs=jobs
        )
    elif args.series == "ffbp-chips":
        chips = tuple(int(c) for c in args.chips.split(","))
        series = sweeps.ffbp_chip_sweep(
            cfg=_config(args), chips=chips, backend=backend, jobs=jobs
        )
    else:  # candidates
        series = sweeps.candidate_sweep(backend=backend, jobs=jobs)
    print(series.chart(width=args.chart_width))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.gate import DEFAULT_SEED, run_verify

    return run_verify(
        quick=not args.full,
        update=args.update_golden,
        seed=DEFAULT_SEED if args.seed is None else args.seed,
        fuzz_cases=args.fuzz_cases,
        specs=tuple(args.specs.split(",")) if args.specs else None,
        candidate=args.backend,
        golden_root=args.golden_dir,
        skip_fuzz=args.no_fuzz,
        verbose=args.verbose,
        jobs=getattr(args, "jobs", 1),
        chaos_cases=args.chaos,
        chaos_serve_cases=args.chaos_serve,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve.service import ImageService, ServeSettings

    settings = ServeSettings(
        host=args.host,
        port=args.port,
        workers=args.workers,
        batch_window_ms=args.batch_window_ms,
        max_frame_bytes=args.max_frame_bytes,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        default_deadline_ms=args.deadline_ms,
        max_inflight=args.max_inflight,
        max_connection_inflight=args.max_conn_inflight,
        max_retries=args.max_retries,
        retry_backoff_ms=args.retry_backoff_ms,
        breaker_window=args.breaker_window,
        breaker_failures=args.breaker_failures,
        breaker_cooldown=args.breaker_cooldown,
        group_jobs=args.group_jobs,
        allow_chaos=args.allow_chaos,
    )

    async def _serve() -> int:
        service = ImageService(settings)
        await service.start()
        print(
            f"serve: listening on {settings.host}:{service.port} "
            f"({settings.workers} workers, "
            f"{settings.batch_window_ms:g} ms batch window)",
            file=sys.stderr,
            flush=True,
        )
        if args.port_file:
            with open(args.port_file, "w") as fh:
                fh.write(f"{service.port}\n")
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, service._shutdown.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await service.serve_until_shutdown()
        s = service.stats
        print(
            f"serve: shut down cleanly -- {s.served} responses, "
            f"{s.errors} errors, {s.batches} batches "
            f"({s.coalesced} coalesced), {s.streams} streams",
            file=sys.stderr,
        )
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive ^C
        return 0


def cmd_load(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.load import dump_load, format_load, run_load

    if args.profile_backend:
        payload = {
            "kind": "profile",
            "backend": args.profile_backend,
            "kernel": args.profile_kernel,
            "pulses": args.pulses,
            "ranges": args.ranges,
        }
        if args.watchdog is not None:
            payload["watchdog"] = args.watchdog
    else:
        payload = {
            "pulses": args.pulses,
            "ranges": args.ranges,
            "algorithm": args.algorithm,
        }
    if args.deadline_ms is not None:
        payload["deadline_ms"] = args.deadline_ms

    async def _load() -> int:
        host, port, service = args.host, args.port, None
        if args.spawn:
            from repro.serve.service import ImageService, ServeSettings

            service = ImageService(
                ServeSettings(host=host, port=0, workers=args.workers)
            )
            await service.start()
            port = service.port
        elif not port:  # None or 0: no usable target
            raise ValueError("--port is required (or use --spawn)")
        try:
            doc = await run_load(
                host,
                port,
                clients=args.clients,
                requests=args.requests,
                payload=payload,
                unique=args.unique,
                shutdown_after=args.shutdown_after,
            )
        finally:
            if service is not None:
                await service.close()
        text = dump_load(doc)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            print(f"load: wrote {args.out}", file=sys.stderr)
        else:
            print(text)
        print(format_load(doc), file=sys.stderr)
        if args.allow_faults:
            # Against a fault-injected backend, contained diagnoses
            # (fault/stall/deadline/overloaded/...) are contractual
            # answers; only unstructured errors fail the run.
            return 0 if doc["unstructured_errors"] == 0 else 1
        return 0 if doc["errors"] == 0 else 1

    try:
        return asyncio.run(_load())
    except ConnectionError as exc:
        print(
            f"error: cannot reach {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2


def cmd_specs(_args: argparse.Namespace) -> int:
    from dataclasses import fields

    from repro.machine.specs import CpuSpec, EpiphanySpec

    for name, spec in (("Epiphany", EpiphanySpec()), ("CPU", CpuSpec())):
        print(f"[{name}]")
        for f in fields(spec):
            print(f"  {f.name} = {getattr(spec, f.name)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="regenerate Table I")
    _add_scale_args(p)
    _add_backend_arg(p)
    _add_jobs_arg(p)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("speedups", help="Section VI speedups + energy ratios")
    _add_scale_args(p)
    _add_backend_arg(p)
    p.set_defaults(fn=cmd_speedups)

    p = sub.add_parser("fig7", help="render the Fig. 7 panels")
    _add_scale_args(p)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=16)
    p.set_defaults(fn=cmd_fig7)

    p = sub.add_parser("image", help="simulate and image a scene")
    _add_scale_args(p)
    p.add_argument(
        "--algorithm", choices=("ffbp", "gbp", "rda"), default="ffbp"
    )
    p.add_argument(
        "--interpolation", choices=("nearest", "bilinear"), default="nearest"
    )
    p.add_argument(
        "--shards",
        type=_shard_count,
        default=1,
        metavar="N",
        help="shard the FFBP aperture as N chips would (>= 1, a power "
        "of the merge base, ffbp only); the image is byte-identical "
        "to --shards 1",
    )
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=20)
    p.set_defaults(fn=cmd_image, validate=partial(_validate_image, p))

    p = sub.add_parser("profile", help="cycle breakdown of a kernel")
    _add_scale_args(p)
    p.add_argument("--kernel", choices=("ffbp", "autofocus"), default="ffbp")
    p.add_argument(
        "--timeline", action="store_true", help="print an ASCII Gantt chart"
    )
    p.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help="write a Chrome/Perfetto trace file",
    )
    _add_backend_arg(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "sweep", help="run a parameter sweep and chart the series"
    )
    _add_scale_args(p)
    _add_backend_arg(p, default="analytic")
    _add_jobs_arg(p)
    p.add_argument(
        "series",
        choices=(
            "ffbp-cores",
            "ffbp-window",
            "af-units",
            "clock",
            "candidates",
            "ffbp-chips",
        ),
        help="which data series to produce",
    )
    p.add_argument(
        "--cores",
        default="1,2,4,8,16",
        help="comma-separated core counts (ffbp-cores series)",
    )
    p.add_argument(
        "--chips",
        default="1,2,4",
        help="comma-separated fabric chip counts (ffbp-chips series)",
    )
    p.add_argument("--chart-width", type=int, default=48)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "verify",
        help="cross-backend conformance gate (oracles + golden + fuzz)",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick",
        action="store_true",
        help="quick gate: default chip spec, quick workloads, reduced "
        "fuzz budget (the default)",
    )
    mode.add_argument(
        "--full",
        action="store_true",
        help="full gate: all chip specs, sequential baselines, 4x fuzz "
        "budget",
    )
    p.add_argument(
        "--update-golden",
        action="store_true",
        help="regenerate tests/golden/*.json instead of comparing "
        "(review with git diff)",
    )
    p.add_argument(
        "--backend",
        default="analytic",
        metavar="NAME",
        help="candidate backend compared against the event reference "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--specs",
        default=None,
        metavar="S1,S2",
        help="comma-separated chip specs to verify on (default: e16 for "
        "--quick, e16,e64,board for --full)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="fuzz seed (default: the pinned gate seed)",
    )
    p.add_argument(
        "--fuzz-cases",
        type=int,
        default=None,
        help="cases per fuzz driver (default: 25 quick / 100 full)",
    )
    p.add_argument(
        "--no-fuzz", action="store_true", help="skip the fuzz drivers"
    )
    p.add_argument(
        "--chaos",
        type=int,
        default=0,
        metavar="N",
        help="also run N seeded fault-injection plans per backend "
        "through the chaos containment gate (default: off)",
    )
    p.add_argument(
        "--chaos-serve",
        type=int,
        default=0,
        metavar="N",
        help="also run N serve-level chaos cases: each boots a real "
        "ImageService with chaos hooks armed (injected stalls, "
        "SIGKILLed workers, admission bursts, shutdown drain) and "
        "asserts end-to-end containment plus same-seed decision "
        "identity (default: off)",
    )
    p.add_argument(
        "--golden-dir",
        default=None,
        metavar="DIR",
        help="override the golden snapshot directory",
    )
    p.add_argument(
        "--verbose", action="store_true", help="print passing checks too"
    )
    _add_jobs_arg(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("specs", help="dump machine-model constants")
    p.set_defaults(fn=cmd_specs)

    p = sub.add_parser(
        "serve",
        help="run the async image-formation service (length-prefixed "
        "JSON protocol; see repro.serve)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port; 0 binds an ephemeral port (default: %(default)s)",
    )
    p.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="write the bound port here once listening (for scripts/CI)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker threads executing request batches (default: %(default)s)",
    )
    p.add_argument(
        "--batch-window-ms",
        type=float,
        default=5.0,
        metavar="MS",
        help="how long a cache miss waits for batchable company; "
        "cache hits are answered at once (default: %(default)s)",
    )
    p.add_argument(
        "--max-frame-bytes",
        type=int,
        default=1 << 20,
        metavar="N",
        help="per-frame byte ceiling (default: 1 MiB)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="response-cache directory (default: a private temporary "
        "directory; the cache is content-addressed and "
        "code_version()-invalidated)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the response cache entirely",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="default per-request deadline; exceeding it returns a "
        "structured 'deadline' error instead of blocking",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="admission-control budget: total in-flight work requests "
        "before new ones get a structured 'overloaded' answer with a "
        "retry-after hint (default: %(default)s)",
    )
    p.add_argument(
        "--max-conn-inflight",
        type=int,
        default=8,
        metavar="N",
        help="per-connection concurrency cap (default: %(default)s)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=1,
        metavar="N",
        help="serve-level retries of a request whose group fails with "
        "a contained fault or broken pool (default: %(default)s)",
    )
    p.add_argument(
        "--retry-backoff-ms",
        type=float,
        default=25.0,
        metavar="MS",
        help="base of the seeded exponential retry backoff "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--breaker-window",
        type=int,
        default=8,
        metavar="N",
        help="rolling per-backend-spec outcome window of the circuit "
        "breaker (default: %(default)s)",
    )
    p.add_argument(
        "--breaker-failures",
        type=int,
        default=4,
        metavar="N",
        help="failures in the window that trip the breaker; 0 disables "
        "degradation entirely (default: %(default)s)",
    )
    p.add_argument(
        "--breaker-cooldown",
        type=int,
        default=4,
        metavar="N",
        help="degraded requests served before the breaker probes the "
        "real backend again (default: %(default)s)",
    )
    p.add_argument(
        "--group-jobs",
        type=int,
        default=1,
        metavar="N",
        help="process-pool width for request groups; 1 executes inline "
        "in the worker thread (default: %(default)s)",
    )
    p.add_argument(
        "--allow-chaos",
        action="store_true",
        help="accept fail_marker chaos requests that SIGKILL pool "
        "workers (requires --group-jobs >= 2; test/CI only)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "load",
        help="drive a running serve with N concurrent clients and "
        "report p50/p99 latency (repro-load/1 JSON)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=None,
        help="port of a running 'repro serve' (omit with --spawn)",
    )
    p.add_argument(
        "--spawn",
        action="store_true",
        help="spawn an in-process service for a self-contained run",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads of the --spawn service (default: %(default)s)",
    )
    p.add_argument("--clients", type=int, default=2, metavar="N")
    p.add_argument("--requests", type=int, default=8, metavar="M",
                   help="requests per client (default: %(default)s)")
    p.add_argument("--pulses", type=int, default=64)
    p.add_argument("--ranges", type=int, default=65)
    p.add_argument(
        "--algorithm", choices=("ffbp", "gbp", "rda"), default="ffbp"
    )
    p.add_argument(
        "--profile-backend",
        metavar="SPEC",
        default=None,
        help="switch the workload to kernel-profiling requests on this "
        "registry backend spec (e.g. 'faulty(<plan>):event:e16' to "
        "drive load through injected faults)",
    )
    p.add_argument(
        "--profile-kernel",
        choices=("ffbp", "autofocus"),
        default="ffbp",
        help="kernel for --profile-backend requests (default: %(default)s)",
    )
    p.add_argument(
        "--watchdog",
        type=int,
        default=None,
        metavar="CYCLES",
        help="channel watchdog for autofocus profiling requests, so an "
        "injected stall resolves to a structured blame report",
    )
    p.add_argument(
        "--allow-faults",
        action="store_true",
        help="exit 0 as long as every error is structured (contained "
        "fault, deadline, overloaded); for fault-injected backends",
    )
    p.add_argument(
        "--unique",
        action="store_true",
        help="distinct scene per request (a cache-miss workload; the "
        "default repeats one request to exercise the response cache)",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-request deadline forwarded to the server",
    )
    p.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the repro-load/1 JSON document here instead of stdout",
    )
    p.add_argument(
        "--shutdown-after",
        action="store_true",
        help="send a shutdown request once the load completes",
    )
    p.set_defaults(fn=cmd_load)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Parse and dispatch; usage errors exit 2 with a clear message.

    Malformed ``--backend``/``--specs`` strings (and any other
    ``ValueError`` raised while *setting up* a command) are user input
    errors, not crashes: report them on stderr, exit non-zero, no
    traceback.  A task that fails *inside* the parallel executor is an
    execution failure, not a usage error: its structured report (child
    traceback included) goes to stderr with exit status 1.
    """
    from repro.exec import TaskFailure

    parser = build_parser()
    args = parser.parse_args(argv)
    validate = getattr(args, "validate", None)
    if validate is not None:
        validate(args)
    try:
        return args.fn(args)
    except TaskFailure as exc:
        print(exc.format(), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
