"""``serve-mixed``: open-loop image requests against an in-process server.

Open loop at ``RATE`` requests per second, about half the capacity
measured on a 2-core host (near 160 requests per second the
per-connection in-flight cap starts refusing).  The benchmark starts an
``ImageService`` in this process, with a private response-cache
directory under ``.perfbench/``, and drives it from one asyncio
generator over two pipelined connections, matching responses by id.
Each request is timed from the moment it was *due*, so a stall of the
generator or the server counts against every request it delays.  The
tail is taken per ``SEGMENT_S`` segment of due times and the median
reported (``metrics.segmented_tail``), so one host stall moves one
segment, not the run; when failed or refused requests set the whole
run's tail, the reported tail is a failure too.

About three quarters of the requests come from a hot set of
``HOT`` payloads that setup computes once, so they are response-cache
hits (or coalesced duplicates).  The rest carry a unique
``noise_seed`` -- cache misses that simulate echoes, form an FFBP or
RDA image at 128x129, encode it and write the cache.  The median falls
in the hit mode and the tail in the miss mode.

Checks: every response must be a result whose image bytes hash to the
digest it carries; every hit must be byte-identical to the response
that computed it; after the window a sample of misses is recomputed
with a direct ``workers.form_image`` call and must match byte for
byte.  A refused (``overloaded``) or failed request counts as failed.
The run is invalid -- ``correct`` is false -- if the generator sent
its requests more than ``LATE_BOUND_MS`` behind schedule at p95: the
load it claims was not the load it offered.
"""

from __future__ import annotations

import asyncio
import base64
import functools
import hashlib
import os
import random
import shutil
import time
from pathlib import Path

from repro.exec.seeding import derive_seed
from repro.serve import workers
from repro.serve.protocol import encode_frame, read_frame
from repro.serve.service import ImageService, ServeSettings
import repro.sar.ffbp  # noqa: F401  (numerics imported in setup)
import repro.sar.rda  # noqa: F401
import repro.sar.simulate  # noqa: F401

from metrics import (
    Window,
    lateness_ms,
    latency_from_due,
    median,
    per_call_ms,
    percentile,
)

OPEN_LOOP = True
RATE = 80.0
HOT = 4
HOT_SHARE = 0.75
PULSES, RANGES = 128, 129
ALGORITHMS = ("ffbp", "rda")
CONNECTIONS = 2
LATE_BOUND_MS = 25.0
DRAIN_S = 20.0
SEGMENT_S = 5.0  # the tail is the median of per-segment tails
DIRECT_SAMPLE = 4
CACHE_ROOT = Path(".perfbench")


def _rid_of_payload(payload: dict) -> str:
    return f"{payload['algorithm']}/{payload['noise_seed']}"


TRACE_POINTS = [
    ("repro.exec.runner", "ExperimentRunner.run", "exec.run"),
    ("repro.exec.cache", "ResultCache.get", "exec.cache_get"),
    ("repro.exec.cache", "ResultCache.put", "exec.cache_put"),
    ("repro.serve.workers", "form_image", "serve.form_image", _rid_of_payload),
    ("repro.serve.workers", "encode_array", "serve.encode"),
    ("repro.sar.simulate", "simulate_compressed", "sar.simulate"),
    ("repro.sar.ffbp", "ffbp", "sar.ffbp"),
    ("repro.sar.rda", "range_doppler_image", "sar.rda"),
]


def image_payload(algorithm: str, noise_seed: int) -> dict:
    return {
        "kind": "image",
        "pulses": PULSES,
        "ranges": RANGES,
        "algorithm": algorithm,
        "noise_seed": noise_seed,
    }


def image_digest(frame: dict) -> str:
    """sha256 of the image bytes actually received (not the claimed one)."""
    return hashlib.sha256(base64.b64decode(frame["image"]["data_b64"])).hexdigest()


class Conn:
    """One pipelined client connection; a reader task resolves by id."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.waiting: dict[str, asyncio.Future] = {}
        self.task = asyncio.create_task(self._read())

    async def _read(self) -> None:
        while True:
            frame = await read_frame(self.reader)
            if frame is None:
                return
            done = time.perf_counter()
            fut = self.waiting.pop(frame.get("id"), None)
            if fut is not None and not fut.done():
                fut.set_result((frame, done))

    def send(self, obj: dict) -> asyncio.Future:
        fut = asyncio.get_running_loop().create_future()
        self.waiting[obj["id"]] = fut
        self.writer.write(encode_frame(obj))
        return fut

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionResetError):
            pass


class Workload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.hot = [
            image_payload(ALGORITHMS[k % 2], derive_seed(seed, f"serve/hot/{k}"))
            for k in range(HOT)
        ]
        self.mix = random.Random(derive_seed(seed, "serve/mix"))
        self.sent = 0
        self.loop: asyncio.AbstractEventLoop | None = None
        self.service: ImageService | None = None
        self.conns: list[Conn] = []
        self.cache_dir: Path | None = None
        self.setups = 0
        self.hot_digest: dict[int, str] = {}
        self.miss_digest: list[tuple[dict, str]] = []

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> None:
        self.setups += 1
        self.cache_dir = CACHE_ROOT / f"serve-cache-{os.getpid()}-{self.setups}"
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        # After a host stall of a few hundred ms the generator sends the
        # requests that fell due meanwhile in one burst; the default cap of
        # 8 in flight per connection would refuse part of it.  The two
        # connections split the whole admission budget instead, which
        # still refuses real overload.
        budget = ServeSettings().max_inflight
        self.service = ImageService(
            ServeSettings(
                cache_dir=str(self.cache_dir),
                max_connection_inflight=budget // CONNECTIONS,
            )
        )
        await self.service.start()
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", self.service.port)
            self.conns.append(Conn(reader, writer))
        # Compute the hot set once: from here on it is served from cache.
        for k, payload in enumerate(self.hot):
            frame, _ = await self.conns[0].send(dict(payload, id=f"warm/{k}"))
            if frame.get("type") != "result":
                raise RuntimeError(f"hot payload {k} failed in setup: {frame}")
            self.hot_digest[k] = image_digest(frame)

    def teardown(self) -> None:
        if self.loop is None:
            return
        self.loop.run_until_complete(self._stop())
        self.loop.close()
        self.loop = None
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    async def _stop(self) -> None:
        for conn in self.conns:
            await conn.close()
        self.conns = []
        await self.service.close()
        self.service = None

    # -- the timed window -------------------------------------------------

    def _next_request(self) -> tuple[dict, int | None]:
        """The next payload and, for a hot one, its hot-set index."""
        self.sent += 1
        if self.mix.random() < HOT_SHARE:
            k = self.mix.randrange(HOT)
            return self.hot[k], k
        algorithm = self.mix.choice(ALGORITHMS)
        seed = derive_seed(self.seed, f"serve/miss/{self.sent}")
        return image_payload(algorithm, seed), None

    async def _health(self) -> dict:
        frame, _ = await self.conns[0].send({"id": f"health/{self.sent}", "kind": "health"})
        return frame

    def run(self, seconds: float, rec) -> Window:
        return self.loop.run_until_complete(self._run(seconds, rec))

    async def _run(self, seconds: float, rec) -> Window:
        win = Window()
        health0 = await self._health()
        late: list[float] = []
        hits: list[float] = []
        miss_overhead: list[float] = []
        outstanding: set[asyncio.Future] = set()
        n = max(1, int(seconds * RATE))
        start = time.perf_counter() + 0.01
        win.start = last_done = start

        def settle(due, payload, hot, rid, fut) -> None:
            # Runs on the loop as each reply lands, so no frame outlives
            # its check.
            nonlocal last_done
            outstanding.discard(fut)
            segment = int((due - start) // SEGMENT_S)
            if fut.cancelled():
                win.fail(f"{rid}: no response within {DRAIN_S} s of the window", segment)
                return
            frame, done = fut.result()
            last_done = max(last_done, done)
            if frame.get("type") != "result":
                win.fail(f"{rid}: {frame.get('code')}: {frame.get('detail')}", segment)
                return
            digest = image_digest(frame)
            if digest != frame["image"]["sha256"]:
                win.fail(f"{rid}: image bytes do not match their digest", segment)
                return
            if hot is not None and digest != self.hot_digest[hot]:
                win.fail(f"{rid}: hot payload {hot} differs from its first response", segment)
                return
            ms = latency_from_due(due, done)
            win.ok(ms, segment)
            rec.record("loadgen.request", due, done, rid=_rid_of_payload(payload))
            if frame.get("cached"):
                hits.append(ms)
            elif hot is None:
                miss_overhead.append(ms - float(frame["compute_ms"]))
                if len(self.miss_digest) < DIRECT_SAMPLE * 4:
                    self.miss_digest.append((payload, digest))

        for i in range(n):
            due = start + i / RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            payload, hot = self._next_request()
            rid = f"req/{self.sent}"
            sent = time.perf_counter()
            fut = self.conns[i % CONNECTIONS].send(dict(payload, id=rid))
            late.append(lateness_ms(due, sent))
            outstanding.add(fut)
            fut.add_done_callback(functools.partial(settle, due, payload, hot, rid))
        if outstanding:
            await asyncio.wait(set(outstanding), timeout=DRAIN_S)
        for fut in list(outstanding):
            fut.cancel()
        await asyncio.sleep(0)  # let the cancelled callbacks count themselves
        win.close()
        win.end = last_done
        health1 = await self._health()
        late_p95 = percentile(late, 95)
        if late_p95 > LATE_BOUND_MS:
            win.problems.append(
                f"invalid run: generator p95 lateness {late_p95:.1f} ms "
                f"> {LATE_BOUND_MS} ms bound"
            )
        win.detail.update(
            late_p95_ms=late_p95,
            hits=len(hits),
            misses=len(miss_overhead),
            overhead_hit_ms=_median(hits),
            overhead_miss_ms=_median(miss_overhead),
            health=_health_delta(health0, health1),
        )
        return win

    def layers(self, win: Window, rec) -> dict:
        d = win.detail
        h = d["health"]
        lookups = h["cache_hits"] + h["cache_misses"]
        return {
            "sar.simulate_ms": per_call_ms(rec, "sar.simulate"),
            "sar.ffbp_ms": per_call_ms(rec, "sar.ffbp"),
            "sar.rda_ms": per_call_ms(rec, "sar.rda"),
            "exec.cache_get_ms": per_call_ms(rec, "exec.cache_get"),
            "exec.cache_put_ms": per_call_ms(rec, "exec.cache_put"),
            "exec.cache_hit_ratio": h["cache_hits"] / max(1, lookups),
            "exec.cache_lookups": lookups,
            "serve.encode_ms": per_call_ms(rec, "serve.encode"),
            "serve.overhead_hit_ms": d["overhead_hit_ms"],
            "serve.overhead_miss_ms": d["overhead_miss_ms"],
            "serve.batches": h["batches"],
            "serve.coalesced": h["coalesced"],
            "serve.overloaded": h["overloaded"],
            "serve.retries": h["retries"],
            "loadgen.late_p95_ms": d["late_p95_ms"],
        }

    def check(self) -> list[str]:
        """A sample of misses must equal a direct ``form_image`` call."""
        problems = []
        rng = random.Random(derive_seed(self.seed, "serve/direct"))
        sample = rng.sample(self.miss_digest, min(DIRECT_SAMPLE, len(self.miss_digest)))
        for payload, digest in sample:
            direct = workers.form_image(payload)
            raw = base64.b64decode(direct["image"]["data_b64"])
            if hashlib.sha256(raw).hexdigest() != digest:
                problems.append(f"{_rid_of_payload(payload)}: served image != direct form_image")
        if not sample:
            problems.append("no cache misses were served; the mix did not run")
        return problems


def _median(values: list[float]) -> float:
    return median(values) if values else 0.0


def _health_delta(before: dict, after: dict) -> dict:
    def counts(h: dict) -> dict:
        cache = h.get("cache") or {}
        res = h.get("resilience") or {}
        return {
            "batches": h["batches"],
            "coalesced": h["coalesced"],
            "overloaded": res.get("overloaded", 0),
            "retries": res.get("retries", 0),
            "cache_hits": cache.get("hits", 0),
            "cache_misses": cache.get("misses", 0),
        }

    a, b = counts(before), counts(after)
    return {k: b[k] - a[k] for k in a}
