"""The repository benchmark: one command, named workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-event --seed 1 --seconds 30 --trace 0

Workloads (see each ``wl_*.py`` for why it exists and what it checks):

- ``table1-event``   paper-scale Table-I rows on the event engine,
- ``sweep-analytic`` seeded design-space points: cold plan + analytic run,
- ``serve-mixed``    open-loop image requests against an in-process server,
- ``verify-quick``   the quick conformance gate, one section per op.

With ``--trace 0`` the run measures for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it measures half the time
untraced and half with spans recorded around every layer's entry
points, and reports the per-layer metrics, the tracing overhead and a
Chrome trace-event file.  The last line of standard output is always
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
full result document -- host record, tail percentile and sample
counts, raw latencies, problems -- is written under ``.perfbench/`` in
the current directory.

Host drift: the shared hosts this runs on change speed by tens of
percent over minutes.  The closed-loop workloads therefore report
their times in *reference-host* units: a fixed probe loop runs between
their ops, and each op's time is scaled by ``REFERENCE_MS / median``
of the probe chunks run around it (see ``metrics.Probe``).  The open
loop reports raw values; per-layer metrics are raw host times.  Raw
end-to-end values are always in the result document.

Seeds: the workload inputs are drawn from ``--seed`` through
``repro.exec.seeding.derive_seed``.  Seed ``HELD_OUT_SEED`` is kept out
of tuning; a performance claim must also hold on it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import time
from pathlib import Path

import metrics
from metrics import peak_rss_mb

RSS_AT_START_MB = peak_rss_mb()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = Path(".perfbench")

HELD_OUT_SEED = 20130821
SETUP_REPEATS = 3

WORKLOADS = {
    "table1-event": "wl_table1",
    "sweep-analytic": "wl_sweep",
    "serve-mixed": "wl_serve",
    "verify-quick": "wl_verify",
}

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "success_rate": "ratio",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "kernels.build_ms": "ms",
    "kernels.plan_ms": "ms",
    "machine.construct_ms": "ms",
    "machine.run_ms": "ms",
    "machine.analytic_run_ms": "ms",
    "machine.host_us_per_msg": "us",
    "machine.sim_cycles": "cycles",
    "machine.energy_j": "J",
    "machine.sim_noc_messages": "count",
    "machine.sim_dma_transfers": "count",
    "machine.sim_ext_bytes": "B",
    "machine.sim_stall_cycles": "cycles",
    "sar.stage_maps_ms": "ms",
    "sar.simulate_ms": "ms",
    "sar.ffbp_ms": "ms",
    "sar.rda_ms": "ms",
    "perf.memo_hits": "count",
    "perf.memo_misses": "count",
    "perf.memo_evictions": "count",
    "perf.memo_mb": "MB",
    "exec.cache_get_ms": "ms",
    "exec.cache_put_ms": "ms",
    "exec.cache_hit_ratio": "ratio",
    "exec.cache_lookups": "count",
    "serve.overhead_hit_ms": "ms",
    "serve.overhead_miss_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.batches": "count",
    "serve.coalesced": "count",
    "serve.overloaded": "count",
    "serve.retries": "count",
    "verify.oracles_s": "s",
    "verify.fabric_s": "s",
    "verify.replay_s": "s",
    "verify.golden_s": "s",
    "verify.fuzz_s": "s",
    "verify.checks": "count",
    "loadgen.late_p95_ms": "ms",
    "self.op_ms": "ms",
    "self.kernels_ms": "ms",
    "self.machine_ms": "ms",
    "self.sar_ms": "ms",
    "self.exec_ms": "ms",
    "self.serve_ms": "ms",
    "self.verify_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def isolate() -> None:
    """Run against the source tree, with no state shared across runs."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    # No persistent perf memo or result cache, default memo budget.
    for var in ("REPRO_CACHE_DIR", "REPRO_PERF_MEMO_BYTES"):
        os.environ.pop(var, None)
    OUT_DIR.mkdir(exist_ok=True)


def memo_counts() -> dict:
    from repro.perf import memo_stats

    return memo_stats()


def layer_metrics(
    wl, win, rec, memo_before: dict, untraced_p50: float
) -> tuple[dict, list[str]]:
    """Every per-layer metric of a traced window (raw host times), and
    the names of those the workload does not run.

    A metric the workload does not run reads 0, so every workload's
    traced run prints the same metric set; the second value lists them
    so a 0 that was not measured is not read as a measurement.
    """
    values: dict = {}
    after = memo_counts()
    for key in ("hits", "misses", "evictions"):
        values[f"perf.memo_{key}"] = after[key] - memo_before[key]
    values["perf.memo_mb"] = after["bytes"] / 1e6
    ops = max(1, win.attempted)
    for layer, total in rec.self_by_layer().items():
        name = f"self.{layer}_ms"
        if name in PER_LAYER:
            values[name] = total * 1e3 / ops
    values.update(wl.layers(win, rec))
    traced = win.ok_latencies_ms
    if traced and untraced_p50 is not None:
        values["trace.overhead_ms"] = metrics.median(traced) - untraced_p50
    values["trace.spans"] = len(rec.spans)
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise AssertionError(f"undeclared per-layer metrics: {sorted(unknown)}")
    not_run = [name for name in PER_LAYER if name not in values]
    return {name: values.get(name, 0.0) for name in PER_LAYER}, not_run


def end_to_end(win, setup_s: float, rss_mb: float, open_loop: bool) -> tuple[dict, dict, dict]:
    """(reported values, raw host values, tail record) of a window.

    A closed loop's op times are scaled to the reference host one by
    one, by the host-speed probe chunks run around each op
    (:meth:`metrics.Window.scaled_latencies_ms`), so host drift -- also
    within a window -- does not read as a regression; set-up time and
    throughput are scaled by the ops' time-weighted mean factor.  An
    open loop reports raw values: its throughput is its schedule, and
    its latency is mostly batching and queueing that the host's speed
    does not scale.  Raw values always go into the result document.
    """
    ok = win.ok_latencies_ms
    tail = win.tail()
    raw = {
        "setup_s": setup_s,
        "op_p50_ms": metrics.median(ok) if ok else 0.0,
        "op_tail_ms": min(tail["value"], 1e9),
        "ops_per_s": len(ok) / win.seconds,
        "success_rate": (win.attempted - win.failed) / max(1, win.attempted),
        "peak_rss_mb": rss_mb,
    }
    if open_loop:
        return dict(raw), raw, tail
    scaled = win.scaled_latencies_ms()
    scaled_ok = [ms for ms in scaled if ms != math.inf]
    scale = sum(scaled_ok) / sum(ok) if ok else win.probe.scale()
    tail = metrics.tail(scaled)
    values = dict(
        raw,
        setup_s=setup_s * scale,
        op_p50_ms=metrics.median(scaled_ok) if scaled_ok else 0.0,
        op_tail_ms=min(tail["value"], 1e9),
        ops_per_s=raw["ops_per_s"] / scale,
    )
    return values, raw, tail


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    for name in (*WORKLOADS, *END_TO_END, *PER_LAYER):
        metrics.validate_name(name)
    isolate()

    t0 = time.perf_counter()
    module = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - t0
    from spans import NullRecorder, SpanRecorder

    wl = module.Workload(args.seed)
    setups = []
    for i in range(SETUP_REPEATS):
        if i:
            wl.teardown()
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + metrics.median(setups)

    rec = NullRecorder()
    untraced_p50 = None
    try:
        if args.trace:
            first = wl.run(args.seconds / 2, rec)
            ok = first.ok_latencies_ms
            untraced_p50 = metrics.median(ok) if ok else None
            rec = SpanRecorder()
            memo_before = memo_counts()
            with rec.patch(module.TRACE_POINTS):
                win = wl.run(args.seconds / 2, rec)
            layers, not_run = layer_metrics(wl, win, rec, memo_before, untraced_p50)
            win.problems[:0] = first.problems
            win.attempted += first.attempted
            win.failed += first.failed
        else:
            win = wl.run(args.seconds, rec)
        problems = list(win.problems) + wl.check()
    finally:
        wl.teardown()
    rss_mb = peak_rss_mb() - RSS_AT_START_MB

    e2e, raw, tail = end_to_end(
        win, setup_s, rss_mb, getattr(module, "OPEN_LOOP", False)
    )
    reported = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    correct = not problems
    result = {
        "correct": correct,
        "attempted": int(win.attempted),
        "failed": int(win.failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in reported.items()
        },
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": args.seed == HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": metrics.host_record(
            win.probe.median_ms() if win.probe.samples else win.probe.idle_ms()
        ),
        "setup": {"import_s": import_s, "repeats_s": setups},
        "tail": tail,
        "window_s": win.seconds,
        "latencies_ms": [ms if math.isfinite(ms) else None for ms in win.latencies_ms],
        "problems": problems,
        "detail": win.detail,
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "result": result,
    }
    if args.trace:
        doc["per_layer"] = layers
        doc["per_layer_not_run"] = not_run
        trace_path = OUT_DIR / f"{stem}.trace.json"
        trace_path.write_text(rec.chrome_trace())
        doc["trace_file"] = str(trace_path)
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True, default=str)
    )

    for name, value in e2e.items():
        print(f"{name:>14} {value:14.4f} {END_TO_END[name]}", file=sys.stderr)
    print(
        f"{'tail':>14} p{tail['percentile']:g} of {tail['samples']} samples "
        f"({tail['beyond']} beyond"
        + (f", median of {len(tail['segments'])} segments)" if "segments" in tail else ")"),
        file=sys.stderr,
    )
    if args.trace:
        print(f"not run by {args.workload} (reported as 0): {', '.join(not_run)}", file=sys.stderr)
    for problem in problems[:5]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
