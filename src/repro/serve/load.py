"""Load generator and latency harness for the serving tier.

``repro load`` drives N concurrent client connections against a
running ``repro serve``, each issuing M image-formation requests, and
reports the latency distribution -- p50/p99 being the numbers the
Ericsson Epiphany latency study (PAPERS.md) argues matter for
real-time SAR, not mean throughput.  The default request mix repeats
one identical request, which exercises the serving tier's
content-addressed response cache: the first request computes, every
repeat must come back ``cached`` and byte-identical (the SHA-256
digests of all responses are compared).

Output is a single JSON document (schema ``repro-load/1``), so every
load run leaves a comparable latency data point::

    {
      "schema": "repro-load/1",
      "clients": 4, "requests_per_client": 20, "total": 80,
      "errors": 0,
      "latency_ms": {"p50": 1.9, "p99": 58.2, "mean": ..., "max": ...},
      "latency_ms_cached": {"p50": 1.2, "p99": 3.4},
      "latency_ms_computed": {"p50": 21.0, "p99": 58.2},
      "wall_s": 0.61, "throughput_rps": 131.4,
      "cached_responses": 79, "byte_identical": true,
      "server": {...health snapshot...}
    }

``latency_ms_cached`` and ``latency_ms_computed`` split the ``result``
latencies by outcome -- answered from the response cache or computed
(coalesced duplicates included) -- with ``null`` percentiles when an
outcome has no samples.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any

from repro.faults.report import CONTAINED_CODES
from repro.serve.protocol import encode_frame, read_frame

LOAD_SCHEMA = "repro-load/1"

STRUCTURED_ERROR_CODES = CONTAINED_CODES + ("deadline", "overloaded", "broken-pool")
"""Error codes that are *contractual* answers under adverse
conditions: a diagnosed fault, a missed deadline, or admission-control
backpressure.  Everything else (``internal``, protocol errors) is an
unstructured failure -- the thing resilience CI gates on being zero."""

TERMINAL_TYPES = ("result", "error", "health", "ok")
"""Frame types that end one request on the wire; its ``partial``
frames come before."""

__all__ = [
    "LOAD_SCHEMA",
    "STRUCTURED_ERROR_CODES",
    "TERMINAL_TYPES",
    "read_terminal",
    "run_load",
    "format_load",
    "percentile",
]


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated percentile of ``samples`` (q in [0, 100])."""
    if not samples:
        raise ValueError("no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _p50_p99(samples: list[float]) -> dict[str, float | None]:
    if not samples:
        return {"p50": None, "p99": None}
    return {
        "p50": round(percentile(samples, 50), 3),
        "p99": round(percentile(samples, 99), 3),
    }


async def read_terminal(reader, partials: list | None = None) -> dict:
    """The next terminal frame on ``reader``; the ``partial`` frames
    before it are skipped, or appended to ``partials``.  Each frame must
    arrive within 30 s."""
    while True:
        frame = await asyncio.wait_for(read_frame(reader), 30.0)
        if frame is None:
            raise ConnectionError("connection closed before a terminal frame")
        if frame.get("type") in TERMINAL_TYPES:
            return frame
        if partials is not None:
            partials.append(frame)


async def _request(reader, writer, obj: dict) -> tuple[dict, float]:
    """Send one request, await its terminal frame, return (frame, ms):
    the latency to the ``result``/``error`` frame, past any partials."""
    t0 = time.perf_counter()
    writer.write(encode_frame(obj))
    await writer.drain()
    frame = await read_terminal(reader)
    return frame, (time.perf_counter() - t0) * 1e3


async def _client(
    host: str,
    port: int,
    client_id: int,
    requests: int,
    payload: dict,
    unique: bool,
) -> list[dict]:
    """One connection's worth of sequential requests."""
    reader, writer = await asyncio.open_connection(host, port)
    records: list[dict] = []
    try:
        for i in range(requests):
            obj = dict(payload)
            obj["id"] = f"c{client_id}/r{i}"
            if unique and obj.get("kind", "image") == "image":
                # Distinct scenes per request: a cache-miss workload.
                obj["noise_seed"] = 1_000_003 * client_id + i
            frame, ms = await _request(reader, writer, obj)
            records.append(
                {
                    "id": obj["id"],
                    "ms": ms,
                    "type": frame.get("type"),
                    "code": frame.get("code"),
                    "cached": bool(frame.get("cached", False)),
                    "degraded": bool(frame.get("degraded", False)),
                    "retries": int(frame.get("retries") or 0),
                    "sha256": (frame.get("image") or {}).get("sha256"),
                }
            )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return records


async def run_load(
    host: str,
    port: int,
    clients: int = 2,
    requests: int = 8,
    payload: dict | None = None,
    unique: bool = False,
    shutdown_after: bool = False,
) -> dict[str, Any]:
    """Drive the load and assemble the ``repro-load/1`` document."""
    if clients < 1 or requests < 1:
        raise ValueError("clients and requests must both be >= 1")
    base = {"kind": "image", "pulses": 64, "ranges": 65}
    if payload:
        base.update(payload)
    t0 = time.perf_counter()
    per_client = await asyncio.gather(
        *(
            _client(host, port, c, requests, base, unique)
            for c in range(clients)
        )
    )
    wall_s = time.perf_counter() - t0
    records = [r for client_records in per_client for r in client_records]
    latencies = [r["ms"] for r in records]
    errors = [r for r in records if r["type"] != "result"]
    results = [r for r in records if r["type"] == "result"]
    unstructured = [
        r for r in errors if r["code"] not in STRUCTURED_ERROR_CODES
    ]
    shas = {r["sha256"] for r in records if r["sha256"]}

    # Health snapshot (and optional clean shutdown) on a fresh
    # connection, outside the timed window.
    reader, writer = await asyncio.open_connection(host, port)
    try:
        health, _ = await _request(
            reader, writer, {"id": "load/health", "kind": "health"}
        )
        if shutdown_after:
            await _request(
                reader, writer, {"id": "load/shutdown", "kind": "shutdown"}
            )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    return {
        "schema": LOAD_SCHEMA,
        "clients": clients,
        "requests_per_client": requests,
        "total": len(records),
        "errors": len(errors),
        "structured_errors": len(errors) - len(unstructured),
        "unstructured_errors": len(unstructured),
        "error_detail": [
            {"id": r["id"], "code": r["code"]} for r in errors[:10]
        ],
        "degraded_responses": sum(1 for r in records if r["degraded"]),
        "retries": sum(r["retries"] for r in records),
        "latency_ms": {
            **_p50_p99(latencies),
            "mean": round(sum(latencies) / len(latencies), 3),
            "max": round(max(latencies), 3),
        },
        "latency_ms_cached": _p50_p99([r["ms"] for r in results if r["cached"]]),
        "latency_ms_computed": _p50_p99(
            [r["ms"] for r in results if not r["cached"]]
        ),
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(len(records) / wall_s, 2) if wall_s else None,
        "cached_responses": sum(1 for r in records if r["cached"]),
        "byte_identical": (len(shas) == 1) if shas and not unique else None,
        "payload": {k: v for k, v in base.items() if k != "id"},
        "server": {
            k: health.get(k)
            for k in (
                "served",
                "errors",
                "batches",
                "coalesced",
                "deadline_misses",
                "cache",
                "faults",
                "window",
                "resilience",
            )
        },
    }


def _ms(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f} ms"


def format_load(doc: dict[str, Any]) -> str:
    """Human-readable one-screen summary (stderr)."""
    lat = doc["latency_ms"]
    lines = [
        f"load: {doc['clients']} clients x {doc['requests_per_client']} "
        f"requests = {doc['total']} total, {doc['errors']} errors",
        f"load: p50 {lat['p50']:.2f} ms   p99 {lat['p99']:.2f} ms   "
        f"mean {lat['mean']:.2f} ms   max {lat['max']:.2f} ms",
        "load: "
        + "   ".join(
            f"{outcome} p50 {_ms(split['p50'])} p99 {_ms(split['p99'])}"
            for outcome, split in (
                ("cached", doc["latency_ms_cached"]),
                ("computed", doc["latency_ms_computed"]),
            )
        ),
        f"load: {doc['wall_s']:.3f}s wall, {doc['throughput_rps']} req/s, "
        f"{doc['cached_responses']} cached responses",
    ]
    if doc.get("byte_identical") is not None:
        lines.append(
            "load: responses byte-identical: "
            + ("yes" if doc["byte_identical"] else "NO")
        )
    if doc.get("errors"):
        lines.append(
            f"load: {doc.get('structured_errors', 0)} structured / "
            f"{doc.get('unstructured_errors', 0)} unstructured errors"
        )
    if doc.get("retries") or doc.get("degraded_responses"):
        lines.append(
            f"load: {doc.get('retries', 0)} server retries, "
            f"{doc.get('degraded_responses', 0)} degraded responses"
        )
    cache = (doc.get("server") or {}).get("cache")
    if cache:
        lines.append(
            f"load: server cache {cache['hits']} hit / "
            f"{cache['misses']} miss / {cache['stores']} stored"
        )
    return "\n".join(lines)


def dump_load(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)
