"""End-to-end service tests over real sockets (loopback).

Every test spins up an :class:`ImageService` on an ephemeral port
inside one ``asyncio.run`` and talks the real wire protocol to it, so
framing, batching, caching, streaming and containment are exercised
exactly as ``repro serve`` runs them.
"""

import asyncio
import json
import struct
import threading
import time
from concurrent.futures import Executor, Future

import numpy as np
import pytest

from repro.serve import ImageService, ServeSettings, decode_array, encode_frame, read_frame
from repro.serve import service as service_module

FAST = dict(host="127.0.0.1", port=0, workers=2, batch_window_ms=1.0)


def service_test(coro_fn, **settings):
    """Run ``coro_fn(service)`` against a started service, then close."""

    async def main():
        service = ImageService(ServeSettings(**{**FAST, **settings}))
        await service.start()
        try:
            return await coro_fn(service)
        finally:
            await service.close()

    return asyncio.run(main())


async def send_recv(reader, writer, obj, max_bytes=None):
    """One request; collect frames until the terminal one.

    Returns ``(terminal, partials)``.
    """
    writer.write(encode_frame(obj))
    await writer.drain()
    partials = []
    while True:
        frame = await read_frame(reader, max_bytes or (1 << 20))
        assert frame is not None, "server closed the connection mid-request"
        if frame.get("type") == "partial":
            partials.append(frame)
            continue
        return frame, partials


async def one_shot(service, obj):
    reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
    try:
        return await send_recv(reader, writer, obj)
    finally:
        writer.close()
        await writer.wait_closed()


IMG = {"kind": "image", "pulses": 32, "ranges": 33}


class TestImagePath:
    def test_result_matches_direct_ffbp(self):
        async def scenario(service):
            frame, _ = await one_shot(service, {**IMG, "id": "r0"})
            return frame

        frame = service_test(scenario)
        assert frame["type"] == "result"
        assert frame["id"] == "r0"
        assert frame["cached"] is False
        served = decode_array(frame["image"])

        from repro.eval.figures import default_scene
        from repro.sar.config import RadarConfig
        from repro.sar.ffbp import FfbpOptions, ffbp
        from repro.sar.simulate import simulate_compressed

        cfg = RadarConfig.small(n_pulses=32, n_ranges=33)
        data = simulate_compressed(
            cfg, default_scene(cfg), noise_sigma=0.05, seed=1234
        )
        expected = ffbp(data, cfg, FfbpOptions()).data
        np.testing.assert_array_equal(served, expected)

    def test_repeat_request_hits_the_response_cache(self):
        async def scenario(service):
            first, _ = await one_shot(service, {**IMG, "id": "cold"})
            # Fresh connection: the hit must come from the cache, not
            # any per-connection state.
            second, _ = await one_shot(service, {**IMG, "id": "warm"})
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return first, second, health

        first, second, health = service_test(scenario)
        assert first["cached"] is False
        assert second["cached"] is True
        # Byte-identical replay is the cache contract.
        assert second["image"]["sha256"] == first["image"]["sha256"]
        assert second["image"]["data_b64"] == first["image"]["data_b64"]
        assert health["cache"]["hits"] >= 1
        assert health["cache"]["stores"] >= 1

    def test_no_cache_mode_never_reports_cached(self):
        async def scenario(service):
            await one_shot(service, {**IMG, "id": "a"})
            frame, _ = await one_shot(service, {**IMG, "id": "b"})
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(scenario, no_cache=True)
        assert frame["cached"] is False
        assert health["cache"] is None

    def test_unwritable_cache_dir_still_serves_the_result(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("occupied")

        async def scenario(service):
            frame, _ = await one_shot(service, {**IMG, "id": "nd"})
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(scenario, cache_dir=str(not_a_dir))
        assert frame["type"] == "result", frame
        assert frame["cached"] is False
        assert health["cache"]["stores"] == 0

    def test_identical_requests_in_one_window_coalesce(self):
        async def scenario(service):
            async def client(tag):
                return (await one_shot(service, {**IMG, "id": tag}))[0]

            frames = await asyncio.gather(client("a"), client("b"), client("c"))
            return frames, service.stats.coalesced

        frames, coalesced = service_test(scenario, batch_window_ms=200.0)
        shas = {f["image"]["sha256"] for f in frames}
        assert len(shas) == 1
        assert coalesced >= 1

    def test_distinct_seeds_do_not_coalesce(self):
        async def scenario(service):
            a, _ = await one_shot(service, {**IMG, "id": "a", "noise_seed": 1})
            b, _ = await one_shot(service, {**IMG, "id": "b", "noise_seed": 2})
            return a, b

        a, b = service_test(scenario)
        assert a["image"]["sha256"] != b["image"]["sha256"]


class TestHitPath:
    """A response-cache hit is answered on arrival: one lookup, no
    batch window, no group, no worker."""

    def test_hit_is_answered_while_the_only_worker_is_busy(self, monkeypatch):
        started, release = threading.Event(), threading.Event()
        form_image = service_module.workers.form_image

        def blocking(payload):
            if payload.get("noise_seed") == 7:
                started.set()
                release.wait(30)
            return form_image(payload)

        monkeypatch.setattr(service_module.workers, "form_image", blocking)

        async def scenario(service):
            first, _ = await one_shot(service, {**IMG, "id": "cold"})
            busy = asyncio.create_task(
                one_shot(service, {**IMG, "id": "busy", "noise_seed": 7})
            )
            try:
                assert await asyncio.to_thread(started.wait, 30)
                batches = service.stats.batches
                hit, _ = await asyncio.wait_for(
                    one_shot(service, {**IMG, "id": "hit"}), timeout=10
                )
                while_busy = not release.is_set()
                hit_batches = service.stats.batches
            finally:
                release.set()
                miss, _ = await busy
            return first, hit, miss, while_busy, batches, hit_batches

        first, hit, miss, while_busy, batches, hit_batches = service_test(
            scenario, workers=1
        )
        assert hit["type"] == "result" and hit["cached"] is True
        assert while_busy
        assert hit_batches == batches
        assert hit["image"]["data_b64"] == first["image"]["data_b64"]
        assert miss["type"] == "result" and miss["cached"] is False

    def test_one_cache_lookup_per_request(self):
        n = 4

        async def scenario(service):
            frames = [
                (await one_shot(service, {**IMG, "id": f"r{i}"}))[0]
                for i in range(n)
            ]
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frames, health

        frames, health = service_test(scenario)
        assert [f["cached"] for f in frames] == [False] + [True] * (n - 1)
        assert health["cache"]["hits"] == n - 1
        assert health["cache"]["misses"] == 1
        assert health["cache"]["stores"] == 1
        assert health["batches"] == 1  # only the miss formed a group


class TestStreaming:
    def test_partials_cover_every_merge_level(self):
        async def scenario(service):
            streamed, partials = await one_shot(
                service, {**IMG, "id": "s", "stream": True}
            )
            batched, _ = await one_shot(service, {**IMG, "id": "b"})
            return streamed, partials, batched

        streamed, partials, batched = service_test(scenario)
        assert streamed["type"] == "result"
        assert partials, "streaming produced no partial frames"
        n_levels = partials[0]["n_levels"]
        assert [p["level"] for p in partials] == list(range(n_levels + 1))
        # Merge tree narrows to a single aperture at the top...
        assert partials[-1]["subapertures"] == 1
        assert partials[0]["subapertures"] > partials[-1]["subapertures"]
        # ...and the streamed final level IS the result image.
        assert partials[-1]["sha256"] == streamed["image"]["sha256"]
        # Streaming never changes the answer.
        assert streamed["image"]["sha256"] == batched["image"]["sha256"]

    def test_stream_data_carries_stage_bytes(self):
        async def scenario(service):
            _, partials = await one_shot(
                service,
                {**IMG, "id": "sd", "stream": True, "stream_data": True},
            )
            return partials

        partials = service_test(scenario)
        for p in partials:
            stage = decode_array(p["stage"])
            assert stage.shape[0] == p["subapertures"]
            assert stage.shape[1] == p["beams"]


class TestContainment:
    """Satellite: malformed input never takes the connection down."""

    def test_bad_json_then_connection_still_usable(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                bad = b"this is not json"
                writer.write(struct.pack(">I", len(bad)) + bad)
                await writer.drain()
                err = await read_frame(reader)
                ok, _ = await send_recv(reader, writer, {"kind": "health", "id": "h"})
                return err, ok
            finally:
                writer.close()
                await writer.wait_closed()

        err, ok = service_test(scenario)
        assert err["type"] == "error"
        assert err["code"] == "bad-json"
        assert ok["type"] == "health"

    def test_oversized_payload_then_connection_still_usable(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                body = json.dumps({"pad": "x" * 4096}).encode()
                writer.write(struct.pack(">I", len(body)) + body)
                await writer.drain()
                err = await read_frame(reader)
                ok, _ = await send_recv(reader, writer, {"kind": "health", "id": "h"})
                return err, ok
            finally:
                writer.close()
                await writer.wait_closed()

        err, ok = service_test(scenario, max_frame_bytes=2048)
        assert err["code"] == "oversized"
        assert ok["type"] == "health"

    def test_oversized_result_is_a_structured_error(self):
        """A result over the frame limit answers ``oversized`` naming
        the limit -- computed and cached alike -- counts as an error,
        and leaves the connection usable."""

        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                first, _ = await asyncio.wait_for(
                    send_recv(reader, writer, {**IMG, "id": "big"}), timeout=30
                )
                repeat, _ = await asyncio.wait_for(
                    send_recv(reader, writer, {**IMG, "id": "again"}), timeout=30
                )
                small, _ = await send_recv(
                    reader, writer, {**IMG, "id": "small", "pulses": 8, "ranges": 9}
                )
            finally:
                writer.close()
                await writer.wait_closed()
            return first, repeat, small, service.stats, service._cache.stats()

        first, repeat, small, stats, cache = service_test(
            scenario, max_frame_bytes=4096
        )
        for frame, rid in ((first, "big"), (repeat, "again")):
            assert frame["type"] == "error", frame
            assert frame["code"] == "oversized"
            assert frame["id"] == rid
            assert "4096-byte limit" in frame["detail"]
        assert cache["hits"] == 1  # the repeat took the hit path
        assert small["type"] == "result"
        assert stats.errors == 2
        assert stats.served == 1

    def test_oversized_partial_is_a_structured_error(self):
        """A streamed ``partial`` over the frame limit answers the
        client-class ``oversized`` code, not ``internal``, counts one
        error, and leaves the connection usable."""

        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                streamed, _ = await asyncio.wait_for(
                    send_recv(
                        reader,
                        writer,
                        {"kind": "image", "id": "s", "pulses": 64, "ranges": 65,
                         "algorithm": "ffbp", "stream": True,
                         "stream_data": True},
                    ),
                    timeout=30,
                )
                health, _ = await send_recv(
                    reader, writer, {"kind": "health", "id": "h"}
                )
            finally:
                writer.close()
                await writer.wait_closed()
            return streamed, health, service.stats

        streamed, health, stats = service_test(
            scenario, max_frame_bytes=16384, no_cache=True
        )
        assert streamed["type"] == "error", streamed
        assert streamed["code"] == "oversized"
        assert streamed["id"] == "s"
        assert streamed["detail"].startswith("partial frame of ")
        assert "16384-byte limit" in streamed["detail"]
        assert stats.errors == 1
        assert health["type"] == "health"

    def test_unknown_backend_is_a_structured_error(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                err, _ = await send_recv(
                    reader,
                    writer,
                    {"kind": "profile", "id": "p", "backend": "quantum:q9000"},
                )
                ok, _ = await send_recv(reader, writer, {"kind": "health", "id": "h"})
                return err, ok
            finally:
                writer.close()
                await writer.wait_closed()

        err, ok = service_test(scenario)
        assert err["type"] == "error"
        assert err["code"] == "unknown-backend"
        assert err["id"] == "p"
        assert ok["type"] == "health"

    def test_unknown_kind_is_a_structured_error(self):
        async def scenario(service):
            return await one_shot(service, {"kind": "teleport", "id": "t"})

        err, _ = service_test(scenario)
        assert err["type"] == "error"
        assert err["code"] == "bad-request"

    def test_unanswerable_ffbp_is_bad_request_not_internal(self):
        async def scenario(service):
            bad, _ = await one_shot(service, {**IMG, "id": "b", "pulses": 100})
            big, _ = await one_shot(
                service, {**IMG, "id": "ok", "pulses": 256, "ranges": 17}
            )
            return bad, big

        bad, big = service_test(scenario)
        assert bad["type"] == "error"
        assert bad["code"] == "bad-request"
        assert "not a power of merge_base=2" in bad["detail"]
        assert big["type"] == "result", big
        assert decode_array(big["image"]).shape == (256, 17)

    def test_error_counters_accumulate(self):
        async def scenario(service):
            await one_shot(service, {"kind": "image", "id": "x", "pulses": 1})
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return health

        health = service_test(scenario)
        assert health["errors"] >= 1


class TestDeadlines:
    def test_deadline_yields_structured_timeout(self):
        async def scenario(service):
            frame, _ = await one_shot(
                service, {**IMG, "id": "slow", "deadline_ms": 1}
            )
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        # A 200 ms batch window guarantees a 1 ms deadline fires first.
        frame, health = service_test(scenario, batch_window_ms=200.0)
        assert frame["type"] == "error"
        assert frame["code"] == "deadline"
        assert frame["id"] == "slow"
        assert health["deadline_misses"] >= 1

    def test_default_deadline_from_settings(self):
        async def scenario(service):
            frame, _ = await one_shot(service, {**IMG, "id": "d"})
            return frame

        frame = service_test(
            scenario, batch_window_ms=200.0, default_deadline_ms=1.0
        )
        assert frame["type"] == "error"
        assert frame["code"] == "deadline"


class InlineExecutor(Executor):
    """Runs each job on submit: the job is done before it is awaited."""

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


OVERRUN_S = 0.005  # every job below takes 5 ms against a 1 ms deadline


class TestOneDeadlineRule:
    """Measured elapsed time against the effective deadline decides
    ``deadline`` vs ``result``, even when the work is already done by
    the time the service awaits it -- no timer race decides."""

    def test_batched_done_job_past_deadline_is_a_miss(self):
        async def scenario(service):
            async def enqueue_done(pending):
                time.sleep(OVERRUN_S)
                pending.future.set_result(("ok", {"image": None}, False))

            service._enqueue = enqueue_done
            frame, _ = await one_shot(
                service, {**IMG, "id": "late", "deadline_ms": 1}
            )
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(scenario)
        assert frame["type"] == "error"
        assert frame["code"] == "deadline"
        assert frame["id"] == "late"
        assert health["deadline_misses"] == 1

    def test_streaming_done_job_past_deadline_is_a_miss(self, monkeypatch):
        def overrun(payload, emit, stream_data=False):
            time.sleep(OVERRUN_S)
            return {"image": None}

        monkeypatch.setattr(
            service_module.workers, "form_image_streaming", overrun
        )

        async def scenario(service):
            pool, service._pool = service._pool, InlineExecutor()
            try:
                frame, _ = await one_shot(
                    service, {**IMG, "id": "late", "stream": True, "deadline_ms": 1}
                )
            finally:
                service._pool = pool
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(scenario)
        assert frame["type"] == "error"
        assert frame["code"] == "deadline"
        assert "stream exceeded its 1" in frame["detail"]
        assert health["deadline_misses"] == 1


class TestProfilePath:
    def test_profile_returns_machine_numbers(self):
        async def scenario(service):
            frame, _ = await one_shot(
                service,
                {"kind": "profile", "id": "p", "backend": "analytic:e16", "pulses": 32, "ranges": 33},
            )
            return frame

        frame = service_test(scenario)
        assert frame["type"] == "result"
        assert frame["cycles"] > 0
        assert frame["energy_j"] > 0

    def test_injected_fault_is_contained_and_counted(self):
        async def scenario(service):
            frame, _ = await one_shot(
                service,
                {
                    "kind": "profile",
                    "id": "f",
                    "backend": "faulty(core:1@cycle=100:crash):event:e16",
                    "kernel": "autofocus",
                },
            )
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(scenario)
        assert frame["type"] == "error"
        assert frame["code"] == "fault"
        assert frame["outcome"], "containment must carry the outcome report"
        assert health["faults"]["contained"] >= 1
        assert health["faults"]["last"]

    def test_stall_carries_a_blame_report(self):
        async def scenario(service):
            frame, _ = await one_shot(
                service,
                {
                    "kind": "profile",
                    "id": "s",
                    "backend": "faulty(link:(0,0)->(0,1)@p=1:stall=500000):event:e16",
                    "kernel": "autofocus",
                    "watchdog": 5000,
                },
            )
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(scenario)
        assert frame["code"] == "stall"
        blame = frame["blame"]
        assert blame["channel"]
        assert blame["waited_cycles"] > 0
        assert health["faults"]["stalls"] >= 1
        assert health["faults"]["last_blame"] == blame


class TestLifecycle:
    def test_health_shape(self):
        async def scenario(service):
            frame, _ = await one_shot(service, {"kind": "health", "id": 9})
            return frame

        frame = service_test(scenario)
        assert frame["type"] == "health"
        assert frame["id"] == 9
        assert frame["protocol"] == "repro-serve/1"
        assert frame["status"] == "ok"
        assert isinstance(frame["code_version"], str)
        assert frame["uptime_s"] >= 0
        assert isinstance(frame["memo"], dict)

    def test_shutdown_request_stops_serve_until_shutdown(self):
        async def main():
            service = ImageService(ServeSettings(**FAST))
            await service.start()
            waiter = asyncio.create_task(service.serve_until_shutdown())
            frame, _ = await one_shot(service, {"kind": "shutdown", "id": "bye"})
            await asyncio.wait_for(waiter, timeout=10)
            return frame

        frame = asyncio.run(main())
        assert frame["type"] == "ok"

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            ServeSettings(workers=0)
        with pytest.raises(ValueError):
            ServeSettings(batch_window_ms=-1)
        with pytest.raises(ValueError):
            ServeSettings(max_frame_bytes=16)
        with pytest.raises(ValueError):
            ServeSettings(max_inflight=0)
        with pytest.raises(ValueError):
            ServeSettings(max_retries=-1)
        with pytest.raises(ValueError):
            # A chaos kill on an inline (jobs=1) group would take the
            # server itself down -- rejected at construction.
            ServeSettings(allow_chaos=True, group_jobs=1)


STALL_SPEC = "faulty(link:(0,0)->(0,1)@p=1:stall=500000):event:e16"
STALL_PROFILE = {
    "kind": "profile",
    "backend": STALL_SPEC,
    "kernel": "autofocus",
    "watchdog": 5000,
}


class TestResilience:
    def test_budget_exhaustion_is_structured_overloaded(self):
        async def scenario(service):
            r1, w1 = await asyncio.open_connection("127.0.0.1", service.port)
            r2, w2 = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                # First request parks in the long batch window holding
                # the only admission slot ...
                w1.write(encode_frame({**IMG, "id": "slow"}))
                await w1.drain()
                await asyncio.sleep(0.05)
                # ... so the second is rejected immediately.
                rejected, _ = await send_recv(r2, w2, {**IMG, "id": "rej"})
                admitted = await read_until_terminal(r1)
                health, _ = await one_shot(service, {"kind": "health", "id": "h"})
                return rejected, admitted, health
            finally:
                for w in (w1, w2):
                    w.close()
                    await w.wait_closed()

        rejected, admitted, health = service_test(
            scenario, max_inflight=1, batch_window_ms=300.0
        )
        assert rejected["type"] == "error"
        assert rejected["code"] == "overloaded"
        assert rejected["retry_after_ms"] > 0
        assert admitted["type"] == "result"  # the admitted one completes
        assert health["resilience"]["overloaded"] == 1
        assert health["resilience"]["admission"]["rejected"] == 1

    def test_per_connection_cap_rejects_pipelined_excess(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            try:
                for rid in ("p0", "p1"):
                    writer.write(encode_frame({**IMG, "id": rid}))
                await writer.drain()
                frames = [await read_until_terminal(reader) for _ in range(2)]
                return {f["id"]: f for f in frames}
            finally:
                writer.close()
                await writer.wait_closed()

        by_id = service_test(
            scenario, max_connection_inflight=1, batch_window_ms=300.0
        )
        assert by_id["p0"]["type"] == "result"
        assert by_id["p1"]["code"] == "overloaded"

    def test_cap_rejection_hint_routes_through_admission(self):
        # Regression: the connection-cap (and drain) rejections must
        # carry the controller's pressure-scaled retry_hint(), not a
        # static constant snapshotted at boot.
        async def scenario(service):
            service._admission.retry_hint = lambda: 777.25
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            try:
                for rid in ("p0", "p1"):
                    writer.write(encode_frame({**IMG, "id": rid}))
                await writer.drain()
                frames = [await read_until_terminal(reader) for _ in range(2)]
                return {f["id"]: f for f in frames}
            finally:
                writer.close()
                await writer.wait_closed()

        by_id = service_test(
            scenario, max_connection_inflight=1, batch_window_ms=300.0
        )
        assert by_id["p1"]["code"] == "overloaded"
        assert by_id["p1"]["retry_after_ms"] == 777.25

    def test_chaos_marker_requires_allow_chaos(self, tmp_path):
        async def scenario(service):
            frame, _ = await one_shot(
                service,
                {
                    "kind": "profile",
                    "id": "c",
                    "backend": "analytic:e16",
                    "fail_marker": str(tmp_path / "m"),
                },
            )
            return frame

        frame = service_test(scenario)  # allow_chaos defaults off
        assert frame["type"] == "error"
        assert frame["code"] == "bad-request"

    def test_serve_retry_heals_a_broken_pool(self, tmp_path):
        async def scenario(service):
            frame, _ = await one_shot(
                service,
                {
                    "kind": "profile",
                    "id": "k",
                    "backend": "analytic:e16",
                    "pulses": 16,
                    "ranges": 17,
                    "fail_marker": str(tmp_path / "m"),
                    "fail_times": 1,
                },
            )
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(
            scenario,
            allow_chaos=True,
            group_jobs=2,
            max_retries=1,
            retry_backoff_ms=2.0,
        )
        assert frame["type"] == "result"
        assert frame["cycles"] > 0
        assert frame["retries"] == 1  # healed by the serve-level retry
        assert health["resilience"]["retries"] == 1
        assert health["resilience"]["pool_rebuilds"] >= 1

    def test_exhausted_retries_surface_structured_broken_pool(self, tmp_path):
        async def scenario(service):
            frame, _ = await one_shot(
                service,
                {
                    "kind": "profile",
                    "id": "k",
                    "backend": "analytic:e16",
                    "pulses": 16,
                    "ranges": 17,
                    "fail_marker": str(tmp_path / "m"),
                    "fail_times": 8,  # outlasts the retry budget
                },
            )
            return frame

        frame = service_test(
            scenario,
            allow_chaos=True,
            group_jobs=2,
            max_retries=1,
            retry_backoff_ms=2.0,
        )
        assert frame["type"] == "error"
        assert frame["code"] == "broken-pool"
        assert frame["retries"] == 1

    def test_killed_request_heals_and_its_batch_sibling_completes(
        self, tmp_path
    ):
        """Two distinct profile requests share one batch group on a
        process pool; one SIGKILLs its worker.  Both must still get a
        result: the killed one through the serve-level retry, the
        sibling either before the pool broke or through that same
        retry."""

        async def scenario(service):
            killed = {
                "kind": "profile",
                "id": "k",
                "backend": "analytic:e16",
                "pulses": 16,
                "ranges": 17,
                "fail_marker": str(tmp_path / "m"),
                "fail_times": 1,
            }
            sibling = {
                "kind": "profile",
                "id": "s",
                "backend": "analytic:e16",
                "pulses": 32,
                "ranges": 33,
            }
            frames = await asyncio.gather(
                one_shot(service, killed), one_shot(service, sibling)
            )
            return [frame for frame, _ in frames]

        killed, sibling = service_test(
            scenario,
            allow_chaos=True,
            group_jobs=2,
            max_retries=1,
            retry_backoff_ms=2.0,
            batch_window_ms=200.0,
        )
        assert killed["type"] == "result"
        assert killed["retries"] == 1
        assert sibling["type"] == "result"
        assert sibling["retries"] in (0, 1)

    def test_group_exception_is_internal_with_retries(self, monkeypatch):
        """An exception escaping the group executor still yields a
        batched terminal frame carrying ``retries``."""
        from repro.serve import service as service_mod

        def explode(*args, **kwargs):
            raise RuntimeError("group executor exploded")

        monkeypatch.setattr(service_mod, "_execute_group", explode)

        async def scenario(service):
            frame, _ = await one_shot(service, {**IMG, "id": "x"})
            return frame

        frame = service_test(scenario)
        assert frame["type"] == "error"
        assert frame["code"] == "internal"
        assert frame["retries"] == 0
        assert "exploded" in frame["detail"]

    def test_breaker_degrades_event_requests_after_trip(self):
        async def scenario(service):
            tripping, _ = await one_shot(service, {**STALL_PROFILE, "id": "t"})
            degraded, _ = await one_shot(service, {**STALL_PROFILE, "id": "d"})
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return tripping, degraded, health

        tripping, degraded, health = service_test(
            scenario, breaker_window=4, breaker_failures=1, breaker_cooldown=4
        )
        assert tripping["code"] == "stall"
        # Post-trip the same spec answers on the analytic substitute.
        assert degraded["type"] == "result"
        assert degraded["degraded"] is True
        assert degraded["degraded_to"].endswith(":analytic:e16")
        breaker = health["resilience"]["breaker"]
        assert breaker["trips"] == 1
        assert health["resilience"]["degraded"] == 1
        assert health["window"]["events"].get("degraded") == 1

    def test_health_window_and_resilience_shape(self):
        async def scenario(service):
            await one_shot(service, {**IMG, "id": "w"})
            frame, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame

        frame = service_test(scenario)
        window = frame["window"]
        assert window["horizon_s"] > 0
        assert window["events"].get("served") == 1
        assert window["per_s"]["served"] > 0
        res = frame["resilience"]
        assert res["admission"]["budget"] >= 1
        assert res["breaker"]["trips"] == 0
        assert set(res) >= {
            "admission",
            "overloaded",
            "retries",
            "degraded",
            "pool_rebuilds",
            "breaker",
        }

    def test_streaming_deadline_message_uses_effective_deadline(self):
        async def scenario(service):
            frame, _ = await one_shot(
                service, {**IMG, "id": "sd", "stream": True}
            )
            return frame

        # Only the *settings-level* default applies; the message must
        # report that value, never "None ms".
        frame = service_test(scenario, default_deadline_ms=0.001)
        assert frame["code"] == "deadline"
        assert "0.001 ms" in frame["detail"]
        assert "None" not in frame["detail"]


async def read_until_terminal(reader):
    while True:
        frame = await read_frame(reader, 1 << 20)
        assert frame is not None, "server closed mid-request"
        if frame.get("type") != "partial":
            return frame
