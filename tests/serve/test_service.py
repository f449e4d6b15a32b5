"""End-to-end service tests over real sockets (loopback).

Every test spins up an :class:`ImageService` on an ephemeral port
inside one ``asyncio.run`` and talks the real wire protocol to it, so
framing, coalescing, caching, streaming and containment are exercised
exactly as ``repro serve`` runs them.
"""

import asyncio
import json
import logging
import multiprocessing
import os
import signal
import struct
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve import ImageService, ServeSettings, decode_array, encode_frame, read_frame
from repro.serve.load import read_terminal
from repro.serve.protocol import ProtocolError
from repro.serve import service as service_module

FAST = dict(host="127.0.0.1", port=0, workers=2)


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


async def send_recv(reader, writer, obj):
    """One request; collect frames until the terminal one.

    Returns ``(terminal, partials)``.
    """
    writer.write(encode_frame(obj))
    await writer.drain()
    partials = []
    return await read_terminal(reader, partials), partials


async def one_shot(service, obj):
    reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
    try:
        return await send_recv(reader, writer, obj)
    finally:
        writer.close()
        await writer.wait_closed()


IMG = {"kind": "image", "pulses": 32, "ranges": 33}
HELD = {**IMG, "noise_seed": 7}
"""The image request the ``held`` fixture holds in its worker."""


class FileFlag:
    """A flag a pool worker polls.  Unlike a ``multiprocessing.Event``,
    whose ``set()`` waits for every sleeping waiter to wake, it cannot
    be wedged by a waiter that the pool kills mid-wait."""

    def __init__(self, path) -> None:
        self.path = path

    def set(self) -> None:
        open(self.path, "a").close()

    def is_set(self) -> bool:
        return os.path.exists(self.path)

    def wait(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while not self.is_set() and time.monotonic() < deadline:
            time.sleep(0.005)
        return self.is_set()


@pytest.fixture
def held(monkeypatch, tmp_path):
    """Hold every compute of ``HELD`` in its pool worker until
    ``release`` is set; ``started`` (a fork-inherited process event) is
    set once one holds.  A streamed compute holds after posting merge
    levels 0 and 1, an unstreamed one before it starts.  Patched in
    before the pool forks its workers, so they inherit it."""
    started, release = multiprocessing.Event(), FileFlag(tmp_path / "release")
    form_image = service_module.workers.form_image

    def hold():
        started.set()
        release.wait(30)

    def holding(payload, emit=None):
        if payload.get("noise_seed") != HELD["noise_seed"]:
            return form_image(payload, emit)
        if emit is None:
            hold()
            return form_image(payload)

        def emit_then_hold(level, n_levels, stage):
            emit(level, n_levels, stage)
            if level == 1:
                hold()

        return form_image(payload, emit_then_hold)

    monkeypatch.setattr(service_module.workers, "form_image", holding)
    yield SimpleNamespace(started=started, release=release)
    release.set()


async def until(predicate, timeout=10.0):
    """Poll ``predicate`` until it holds or ``timeout`` runs out."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        await asyncio.sleep(0.005)
    return predicate()


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

    def test_identical_requests_in_one_window_coalesce(self, held):
        """A miss that arrives while an identical miss holds the worker
        joins that job: one pool job, identical bytes.  The coalescing
        window is the whole time the compute is in flight."""

        async def scenario(service):
            first = asyncio.create_task(one_shot(service, {**HELD, "id": "a"}))
            try:
                assert await asyncio.to_thread(held.started.wait, 30)
                second = asyncio.create_task(one_shot(service, {**HELD, "id": "b"}))
                joined = await until(lambda: service.stats.coalesced == 1)
            finally:
                held.release.set()
            (a, _), (b, _) = await asyncio.gather(first, second)
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return joined, a, b, health

        joined, a, b, health = service_test(scenario)
        assert joined
        assert (health["coalesced"], health["batches"]) == (1, 1)
        assert a["type"] == b["type"] == "result"
        assert a["cached"] is b["cached"] is False
        assert a["image"]["data_b64"] == b["image"]["data_b64"]
        assert health["cache"]["stores"] == 1

    def test_distinct_seeds_do_not_coalesce(self):
        async def scenario(service):
            a, _ = await one_shot(service, {**IMG, "id": "a", "noise_seed": 1})
            b, _ = await one_shot(service, {**IMG, "id": "b", "noise_seed": 2})
            return a, b

        a, b = service_test(scenario)
        assert a["image"]["sha256"] != b["image"]["sha256"]


class TestHitPath:
    """A response-cache hit is answered on arrival: one lookup, no pool
    job, no worker."""

    def test_hit_is_answered_while_the_only_worker_is_busy(self, held):
        async def scenario(service):
            first, _ = await one_shot(service, {**IMG, "id": "cold"})
            busy = asyncio.create_task(one_shot(service, {**HELD, "id": "busy"}))
            try:
                assert await asyncio.to_thread(held.started.wait, 30)
                batches = service.stats.batches
                hit, _ = await asyncio.wait_for(
                    one_shot(service, {**IMG, "id": "hit"}), timeout=10
                )
                while_busy = not held.release.is_set()
                hit_batches = service.stats.batches
            finally:
                held.release.set()
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
        assert health["batches"] == 1  # only the miss ran a pool job


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

    @pytest.mark.parametrize(
        "options",
        [{}, {"interpolation": "cubic_range"}, {"phase_correction": True}],
        ids=["nearest", "cubic_range", "phase_correction"],
    )
    def test_partials_equal_the_ffbp_stages_reference(self, options):
        """Every served ``partial`` frame, stage bytes included, equals
        one built here from ``ffbp_stages`` over the same scene."""
        from repro.eval.figures import default_scene
        from repro.geometry.apertures import SubapertureTree
        from repro.sar.config import RadarConfig
        from repro.sar.ffbp import FfbpOptions, ffbp_stages
        from repro.sar.simulate import simulate_compressed
        from repro.serve.protocol import encode_array

        async def scenario(service):
            request = {**IMG, **options, "id": "ref", "stream": True,
                       "stream_data": True}
            return await one_shot(service, request)

        terminal, partials = service_test(scenario)
        cfg = RadarConfig.small(n_pulses=32, n_ranges=33)
        data = simulate_compressed(
            cfg, default_scene(cfg), noise_sigma=0.05, seed=1234
        )
        tree = SubapertureTree(cfg.n_pulses, cfg.spacing, cfg.merge_base)
        opts = FfbpOptions(**options)
        expected = [
            {"id": "ref", "type": "partial", "level": level,
             "n_levels": tree.n_stages, "subapertures": stage.shape[0],
             "beams": stage.shape[1],
             "sha256": encode_array(stage)["sha256"],
             "stage": encode_array(stage)}
            for level, stage in enumerate(ffbp_stages(data, cfg, opts, tree=tree))
        ]
        assert partials == expected
        assert terminal["image"]["sha256"] == expected[-1]["sha256"]

    def test_channel_reads_the_lines_workers_post(self, monkeypatch):
        """The two ends of the partial channel agree on its framing: a
        partial whose strings hold newlines reaches its job's waiter
        whole, and the end marker sets the job's event."""
        from repro.serve import workers

        frame = {"level": 0, "note": "two\nlines"}

        async def scenario():
            channel = service_module._Channel(multiprocessing.get_context())
            monkeypatch.setattr(workers, "_channel", (channel.writer, channel.lock))
            job = service_module._Job(stream=False)
            queue = job.join(False)
            token, ended = channel.open_job(job)
            workers._post(token, frame)
            workers._post(token, None)
            await asyncio.wait_for(ended.wait(), 5)
            channel.retire()
            return queue.get_nowait()

        assert asyncio.run(scenario()) == frame

    def test_first_partial_arrives_while_the_worker_computes(self, monkeypatch):
        """A partial reaches the client while its job still runs: the
        stub worker holds after its first merge level until the test has
        read that level's frame."""
        reached, release = multiprocessing.Event(), multiprocessing.Event()
        form_image = service_module.workers.form_image

        def held(payload, emit=None):
            def first_then_hold(level, n_levels, stage):
                if level == 0:
                    reached.set()  # set before the client can see level 0
                emit(level, n_levels, stage)
                if level == 0:
                    release.wait(30)

            return form_image(payload, first_then_hold if emit else None)

        # In place before the pool forks, so the workers inherit it.
        monkeypatch.setattr(service_module.workers, "form_image", held)

        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                writer.write(encode_frame({**IMG, "id": "live", "stream": True}))
                await writer.drain()
                first = await asyncio.wait_for(read_frame(reader), timeout=10)
                held_then = reached.is_set() and not release.is_set()
                release.set()
                terminal = await read_terminal(reader)
            finally:
                release.set()
                writer.close()
                await writer.wait_closed()
            return first, held_then, terminal

        first, held_then, terminal = service_test(scenario)
        assert first["type"] == "partial" and first["level"] == 0
        assert held_then
        assert terminal["type"] == "result" and terminal["cached"] is False

    @pytest.mark.parametrize("max_retries", [0, 1])
    def test_worker_death_mid_stream_answers_structured_frames(
        self, tmp_path, monkeypatch, max_retries
    ):
        """A worker SIGKILLed after two merge levels breaks the pool: the
        client sees those partials, then either the retried stream from
        level 0 and its result, or a structured ``broken-pool``."""
        marker = str(tmp_path / "kill")
        form_image = service_module.workers.form_image

        def dying(payload, emit=None):
            def emit_then_die(level, n_levels, stage):
                emit(level, n_levels, stage)
                if level == 1:
                    try:
                        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                    except FileExistsError:
                        return  # the retry computes
                    os.kill(os.getpid(), signal.SIGKILL)

            return form_image(payload, emit_then_die if emit else None)

        monkeypatch.setattr(service_module.workers, "form_image", dying)

        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                writer.write(encode_frame({**IMG, "id": "k", "stream": True}))
                await writer.drain()
                frames = []
                while not frames or frames[-1]["type"] == "partial":
                    frames.append(await asyncio.wait_for(read_frame(reader), 30))
            finally:
                writer.close()
                await writer.wait_closed()
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frames, health

        frames, health = service_test(
            scenario, allow_chaos=True, max_retries=max_retries,
            retry_backoff_ms=2.0,
        )
        *partials, terminal = frames
        assert all(p["type"] == "partial" and p["id"] == "k" for p in partials)
        levels = [p["level"] for p in partials]
        assert terminal["retries"] == max_retries
        assert health["resilience"]["pool_rebuilds"] == 1
        if max_retries:
            n_levels = partials[0]["n_levels"]
            assert levels == [0, 1] + list(range(n_levels + 1))
            assert terminal["type"] == "result"
            assert terminal["image"]["sha256"] == partials[-1]["sha256"]
        else:
            assert levels == [0, 1]
            assert terminal["type"] == "error"
            assert terminal["code"] == "broken-pool"

    def test_streamed_repeat_is_a_hit_without_partials(self):
        """A streamed repeat is answered from the response cache: the
        ``result`` alone, byte-identical to the streamed compute."""

        async def scenario(service):
            cold = await one_shot(service, {**IMG, "id": "cold", "stream": True})
            warm = await one_shot(service, {**IMG, "id": "warm", "stream": True})
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return cold, warm, health

        (cold, cold_partials), (warm, warm_partials), health = service_test(scenario)
        assert cold["cached"] is False and cold_partials
        assert warm["type"] == "result" and warm["cached"] is True
        assert warm_partials == []
        assert warm["image"]["data_b64"] == cold["image"]["data_b64"]
        assert (health["cache"]["hits"], health["cache"]["stores"]) == (1, 1)
        assert health["streams"] == 2

    def test_identical_streams_in_one_window_coalesce(self, held):
        """A lean stream that arrives while a ``stream_data`` stream of
        the same payload holds its worker after two merge levels joins
        that job: it gets the levels already routed first, so it still
        sees every level, and no stage bytes."""
        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                writer.write(encode_frame(
                    {**HELD, "id": "a", "stream": True, "stream_data": True}
                ))
                await writer.drain()
                a_partials = [await asyncio.wait_for(read_frame(reader), 30)
                              for _ in range(2)]
                late = asyncio.create_task(
                    one_shot(service, {**HELD, "id": "b", "stream": True})
                )
                joined = await until(lambda: service.stats.coalesced == 1)
                held.release.set()
                a = await read_terminal(reader, a_partials)
            finally:
                held.release.set()
                writer.close()
                await writer.wait_closed()
            b, b_partials = await late
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return joined, a, a_partials, b, b_partials, health

        joined, a, a_partials, b, b_partials, health = service_test(scenario)
        assert joined
        assert (health["coalesced"], health["batches"]) == (1, 1)
        n_levels = a_partials[0]["n_levels"]
        for partials, rid in ((a_partials, "a"), (b_partials, "b")):
            assert [p["level"] for p in partials] == list(range(n_levels + 1))
            assert {p["id"] for p in partials} == {rid}
        assert all("stage" in p for p in a_partials)
        assert not any("stage" in p for p in b_partials)
        assert [p["sha256"] for p in a_partials] == [p["sha256"] for p in b_partials]
        assert a["cached"] is b["cached"] is False
        assert a["image"]["data_b64"] == b["image"]["data_b64"]

    def test_stream_data_miss_submits_its_own_job_beside_a_lean_one(self, held):
        """A ``stream_data`` stream cannot join a lean job: it submits
        its own, which then serves a later unstreamed miss; the lean job
        still answers its own stream."""

        async def scenario(service):
            lean = asyncio.create_task(
                one_shot(service, {**HELD, "id": "lean", "stream": True})
            )
            try:
                assert await asyncio.to_thread(held.started.wait, 30)
                data = asyncio.create_task(one_shot(
                    service,
                    {**HELD, "id": "data", "stream": True, "stream_data": True},
                ))
                submitted = await until(lambda: service.stats.batches == 2)
                plain = asyncio.create_task(one_shot(service, {**HELD, "id": "plain"}))
                joined = await until(lambda: service.stats.coalesced == 1)
            finally:
                held.release.set()
            frames = await asyncio.gather(lean, data, plain)
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return submitted, joined, frames, health

        submitted, joined, frames, health = service_test(scenario)
        (lean, lean_partials), (data, data_partials), (plain, plain_partials) = frames
        assert submitted and joined
        assert (health["coalesced"], health["batches"]) == (1, 2)
        n_levels = lean_partials[0]["n_levels"]
        for partials in (lean_partials, data_partials):
            assert [p["level"] for p in partials] == list(range(n_levels + 1))
        assert not any("stage" in p for p in lean_partials)
        assert all("stage" in p for p in data_partials)
        assert plain_partials == []
        assert lean["image"]["data_b64"] == data["image"]["data_b64"]
        assert plain["image"]["data_b64"] == data["image"]["data_b64"]

    def test_streamed_shards_answer_the_batched_bytes(self):
        """A streamed request with shards walks the serial merge tree; it
        shares its cache entry with the batched sharded request, so the
        bytes must agree."""

        async def scenario(service):
            request = {**IMG, "pulses": 64, "ranges": 65, "shards": 4}
            streamed, _ = await one_shot(service, {**request, "id": "s", "stream": True})
            batched, _ = await one_shot(service, {**request, "id": "b"})
            return streamed, batched

        streamed, batched = service_test(scenario, no_cache=True)
        assert streamed["image"]["data_b64"] == batched["image"]["data_b64"]


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

    def test_server_close_reaches_the_peer_after_the_pool_forks(self):
        """A connection open while the pool forks its workers still sees
        EOF as soon as the server closes it: no worker keeps a copy of
        the socket."""

        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                first, _ = await send_recv(reader, writer, {**IMG, "id": "fork"})
                writer.write(b"\x00\x00")  # half a length prefix, then EOF
                writer.write_eof()
                tail = await asyncio.wait_for(reader.read(), timeout=10)
            finally:
                writer.close()
                await writer.wait_closed()
            return first, tail

        first, tail = service_test(scenario)
        assert first["type"] == "result"
        assert tail == b""  # the truncated frame closed the connection

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
        """An image whose result cannot fit in one frame answers
        ``oversized`` naming the limit before any compute -- no cache
        lookup, no pool job -- counts as an error, and leaves the
        connection usable."""

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
        assert small["type"] == "result"
        assert (cache["hits"], cache["misses"]) == (0, 1)  # only the small one
        assert stats.batches == 1
        assert stats.errors == 2
        assert stats.served == 1

    def test_oversized_partial_is_a_structured_error(self, monkeypatch):
        """A streamed ``partial`` over the frame limit answers the
        client-class ``oversized`` code, not ``internal``, counts one
        error, and leaves the connection usable.  A real stage frame is
        10-12 bytes under its request's decode-time result bound (measured
        at 2-256 pulses), so a stub worker emits an oversized stage."""

        def oversized_stream(payload, emit=None):
            emit(0, 1, np.zeros((4, 1024), np.complex64))
            return {"image": None}

        # In place before the pool forks, so the workers inherit it.
        monkeypatch.setattr(service_module.workers, "form_image", oversized_stream)

        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                streamed, _ = await asyncio.wait_for(
                    send_recv(
                        reader,
                        writer,
                        {"kind": "image", "id": "s", "pulses": 16, "ranges": 17,
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

    def test_result_over_the_limit_at_send_time_is_oversized(self, monkeypatch):
        """The send-time check stays behind the decode-time bound: a
        result frame that still overflows answers ``oversized``, counts
        one error, and leaves the connection usable."""

        def oversized_result(payload, emit=None):
            return {"pad": "x" * 20000}

        monkeypatch.setattr(service_module.workers, "form_image", oversized_result)

        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                frame, _ = await send_recv(
                    reader,
                    writer,
                    {**IMG, "id": "r", "pulses": 16, "ranges": 17, "stream": True},
                )
                health, _ = await send_recv(
                    reader, writer, {"kind": "health", "id": "h"}
                )
            finally:
                writer.close()
                await writer.wait_closed()
            return frame, health

        frame, health = service_test(scenario, max_frame_bytes=16384)
        assert frame["code"] == "oversized", frame
        assert frame["detail"].startswith("result frame of ")
        assert "16384-byte limit" in frame["detail"]
        assert health["errors"] == 1

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


class TestFrameBound:
    """Sizes swept across the frame limit are either answered or
    refused at decode: no image is computed only to be refused as
    ``oversized``, and no request whose result fits is refused."""

    LIMIT = 1 << 14

    @pytest.mark.parametrize("algorithm", ["ffbp", "gbp", "rda"])
    def test_size_sweep_has_no_post_compute_oversized(self, algorithm):
        itemsize = 8 if algorithm == "ffbp" else 16
        sizes = []
        for pulses in (16, 32):
            # Where pulses x ranges x itemsize x 4/3 crosses the limit.
            cross = self.LIMIT * 3 // (4 * pulses * itemsize)
            sizes += [(pulses, ranges) for ranges in range(cross - 4, cross + 5)]

        async def scenario(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            out = []
            try:
                for pulses, ranges in sizes:
                    batches = service.stats.batches
                    frame, _ = await send_recv(
                        reader,
                        writer,
                        {"kind": "image", "id": f"{pulses}x{ranges}",
                         "algorithm": algorithm, "pulses": pulses,
                         "ranges": ranges},
                    )
                    out.append((frame, service.stats.batches > batches))
            finally:
                writer.close()
                await writer.wait_closed()
            return out

        outcomes = service_test(scenario, max_frame_bytes=self.LIMIT, no_cache=True)
        refused = []
        for (pulses, ranges), (frame, computed) in zip(sizes, outcomes):
            if frame["type"] == "result":
                assert computed
                continue
            assert frame["code"] == "oversized", frame
            assert not computed, f"{frame['id']} was computed, then refused"
            assert f"{self.LIMIT}-byte limit" in frame["detail"]
            refused.append((pulses, ranges, frame["id"]))
        assert refused and len(refused) < len(sizes)  # the sweep straddles
        for pulses, ranges, rid in refused:
            # Would the result really not have fit?
            value = service_module.workers.form_image(
                {"kind": "image", "algorithm": algorithm, "pulses": pulses,
                 "ranges": ranges}
            )
            response = dict(
                value, id=rid, type="result", cached=False,
                elapsed_ms=value["compute_ms"], retries=0,
            )
            with pytest.raises(ProtocolError):
                encode_frame(response, self.LIMIT)


class TestServedBytes:
    """A miss at the ``serve-mixed`` benchmark's 128x129 size, computed
    by a fresh pool worker with a cold geometry memo, equals a direct
    ``workers.form_image`` in this process with its memo warm."""

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"interpolation": "bilinear"},
            {"interpolation": "cubic_range"},
            {"phase_correction": True},
            {"algorithm": "rda"},
        ],
        ids=["ffbp-nearest", "ffbp-bilinear", "ffbp-cubic", "ffbp-phase", "rda"],
    )
    def test_cold_worker_equals_warm_direct(self, fields):
        from repro.perf import clear_memo, memo_stats
        from repro.serve.protocol import parse_request

        request = {"kind": "image", "pulses": 128, "ranges": 129,
                   "noise_seed": 20130821, **fields}
        clear_memo()  # the worker forks from this process: it starts cold

        async def scenario(service):
            frame, _ = await one_shot(service, {**request, "id": "cold"})
            return frame

        served = service_test(scenario, workers=1, no_cache=True)
        assert served["type"] == "result" and served["cached"] is False
        payload = parse_request(request).payload()
        service_module.workers.form_image(payload)  # warms this memo
        if fields.get("algorithm", "ffbp") == "ffbp":
            assert memo_stats()["entries"] > 0
        direct = service_module.workers.form_image(payload)
        assert served["image"]["data_b64"] == direct["image"]["data_b64"]
        assert served["image"]["sha256"] == direct["image"]["sha256"]


class TestDeadlines:
    def test_deadline_yields_structured_timeout(self, held):
        async def scenario(service):
            try:
                # The held worker guarantees a 1 ms deadline fires first.
                frame, _ = await one_shot(
                    service, {**HELD, "id": "slow", "deadline_ms": 1}
                )
            finally:
                held.release.set()
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(scenario)
        assert frame["type"] == "error"
        assert frame["code"] == "deadline"
        assert frame["id"] == "slow"
        assert health["deadline_misses"] >= 1

    def test_default_deadline_from_settings(self, held):
        async def scenario(service):
            try:
                frame, _ = await one_shot(service, {**HELD, "id": "d"})
            finally:
                held.release.set()
            return frame

        frame = service_test(scenario, default_deadline_ms=1.0)
        assert frame["type"] == "error"
        assert frame["code"] == "deadline"


OVERRUN_S = 0.005  # every job below takes 5 ms against a 1 ms deadline


class TestOneDeadlineRule:
    """Measured elapsed time against the effective deadline decides
    ``deadline`` vs ``result``, even when the work is already done by
    the time the service awaits it -- no timer race decides."""

    def test_batched_done_job_past_deadline_is_a_miss(self):
        async def scenario(service):
            async def execute_done(job, payload):
                time.sleep(OVERRUN_S)
                return ("ok", {"image": None}, False)

            service._execute = execute_done
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

    def test_streaming_done_job_past_deadline_is_a_miss(self):
        async def scenario(service):
            async def execute_done(job, payload):
                time.sleep(OVERRUN_S)
                return ("ok", {"image": None}, False)

            service._execute = execute_done
            frame, _ = await one_shot(
                service, {**IMG, "id": "late", "stream": True, "deadline_ms": 1}
            )
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(scenario)
        assert frame["type"] == "error"
        assert frame["code"] == "deadline"
        assert "stream exceeded its 1" in frame["detail"]
        assert frame["retries"] == 0  # the one decision path answered
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

    def test_contained_fault_is_answered_without_a_retry(self):
        """A stall is a deterministic diagnosis: with a retry budget
        left, it is still answered at once, not replayed from the
        cache after a backoff."""
        async def scenario(service):
            frame, _ = await one_shot(service, {**STALL_PROFILE, "id": "s"})
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frame, health

        frame, health = service_test(scenario, max_retries=1)
        assert frame["code"] == "stall"
        assert frame["retries"] == 0
        assert health["resilience"]["retries"] == 0
        assert health["cache"]["hits"] == 0

    def test_contained_fault_frame_says_whether_it_was_cached(self):
        """A repeated stall is answered from the response cache, and its
        error frame says so, timed like a result frame."""
        async def scenario(service):
            first, _ = await one_shot(service, {**STALL_PROFILE, "id": "s0"})
            second, _ = await one_shot(service, {**STALL_PROFILE, "id": "s1"})
            return first, second

        first, second = service_test(scenario)
        assert first["code"] == second["code"] == "stall"
        assert (first["cached"], second["cached"]) == (False, True)
        assert first["elapsed_ms"] > 0 and second["elapsed_ms"] > 0
        assert second["blame"] == first["blame"]

    def test_spellings_of_one_machine_share_cache_and_breaker(self):
        """``e16`` and ``event:e16`` name one machine: the second
        request is a cache hit, and the breaker keeps one window."""
        profile = {"kind": "profile", "kernel": "ffbp", "pulses": 16, "ranges": 17}

        async def scenario(service):
            short, _ = await one_shot(service, {**profile, "id": "a", "backend": "e16"})
            full, _ = await one_shot(
                service, {**profile, "id": "b", "backend": "event:e16"}
            )
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return short, full, health

        short, full, health = service_test(scenario)
        assert short["type"] == full["type"] == "result"
        assert (short["cached"], full["cached"]) == (False, True)
        assert short["backend"] == full["backend"] == "event:e16"
        assert list(health["resilience"]["breaker"]["specs"]) == ["event:e16"]


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
        assert isinstance(frame["cache"], dict)
        # The geometry memo lives in the pool workers, not the server.
        assert "memo" not in frame

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

    def test_close_waits_for_the_connected_handlers(self, caplog):
        """``close()`` returns with no connection handler left running,
        so ``asyncio.run`` has none to cancel (and log) at teardown."""

        async def main():
            service = ImageService(ServeSettings(**FAST))
            await service.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            await send_recv(reader, writer, {"kind": "health", "id": "h"})
            await service.close()
            left = service._connections
            writer.close()
            return left

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            left = asyncio.run(main())
        assert left == 0
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []

    def test_close_aborts_a_peer_that_does_not_read(self, monkeypatch):
        """A peer that never reads its last frames cannot hold shutdown:
        after the grace period its connection is aborted."""
        monkeypatch.setattr(service_module, "CLOSE_GRACE_S", 0.2)

        async def main():
            service = ImageService(ServeSettings(**FAST))
            await service.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            await send_recv(reader, writer, {"kind": "health", "id": "h"})
            # More bytes than the loopback socket buffers hold: the
            # server's transport keeps the rest, unread.
            (server_writer,) = service._handlers
            server_writer.write(b"\x00" * (32 << 20))
            t0 = time.monotonic()
            await asyncio.wait_for(service.close(), timeout=10)
            elapsed = time.monotonic() - t0
            writer.close()
            return service._connections, elapsed

        left, elapsed = asyncio.run(main())
        assert left == 0
        assert elapsed < 5

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            ServeSettings(workers=0)
        with pytest.raises(ValueError):
            ServeSettings(max_frame_bytes=16)
        with pytest.raises(ValueError):
            ServeSettings(max_inflight=0)
        with pytest.raises(ValueError):
            ServeSettings(max_retries=-1)

    @pytest.mark.parametrize(
        "field", ["default_deadline_ms", "retry_backoff_ms"]
    )
    @pytest.mark.parametrize(
        "value", [0.0, -5.0, float("nan"), float("inf")]
    )
    def test_settings_refuse_a_nonpositive_or_nonfinite_time(self, field, value):
        """The protocol refuses a non-positive per-request deadline; the
        server-wide default and the retry backoff follow the same rule,
        and refuse non-finite values too."""
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            ServeSettings(**{field: value})

    def test_settings_accept_a_positive_deadline_or_none(self):
        assert ServeSettings(default_deadline_ms=None).default_deadline_ms is None
        assert ServeSettings(default_deadline_ms=0.5).default_deadline_ms == 0.5


STALL_SPEC = "faulty(link:(0,0)->(0,1)@p=1:stall=500000):event:e16"
STALL_PROFILE = {
    "kind": "profile",
    "backend": STALL_SPEC,
    "kernel": "autofocus",
    "watchdog": 5000,
}


class TestResilience:
    def test_budget_exhaustion_is_structured_overloaded(self, held):
        async def scenario(service):
            r1, w1 = await asyncio.open_connection("127.0.0.1", service.port)
            r2, w2 = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                # First request holds its worker and the only admission
                # slot ...
                w1.write(encode_frame({**HELD, "id": "slow"}))
                await w1.drain()
                assert await asyncio.to_thread(held.started.wait, 30)
                # ... so the second is rejected immediately.
                rejected, _ = await send_recv(r2, w2, {**IMG, "id": "rej"})
                held.release.set()
                admitted = await read_terminal(r1)
                health, _ = await one_shot(service, {"kind": "health", "id": "h"})
                return rejected, admitted, health
            finally:
                for w in (w1, w2):
                    w.close()
                    await w.wait_closed()

        rejected, admitted, health = service_test(scenario, max_inflight=1)
        assert rejected["type"] == "error"
        assert rejected["code"] == "overloaded"
        assert rejected["retry_after_ms"] > 0
        assert admitted["type"] == "result"  # the admitted one completes
        assert health["resilience"]["overloaded"] == 1
        assert health["resilience"]["admission"]["rejected"] == 1

    def test_per_connection_cap_rejects_pipelined_excess(self, held):
        async def scenario(service):
            return await pipeline_past_the_cap(service, held)

        by_id = service_test(scenario, max_connection_inflight=1)
        assert by_id["p0"]["type"] == "result"
        assert by_id["p1"]["code"] == "overloaded"

    def test_cap_rejection_hint_routes_through_admission(self, held):
        # Regression: the connection-cap (and drain) rejections must
        # carry the controller's pressure-scaled retry_hint(), not a
        # static constant snapshotted at boot.
        async def scenario(service):
            service._admission.retry_hint = lambda: 777.25
            return await pipeline_past_the_cap(service, held)

        by_id = service_test(scenario, max_connection_inflight=1)
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
            max_retries=1,
            retry_backoff_ms=2.0,
        )
        assert frame["type"] == "error"
        assert frame["code"] == "broken-pool"
        assert frame["retries"] == 1

    def test_killed_request_heals_and_its_batch_sibling_completes(
        self, tmp_path, held
    ):
        """A profile request SIGKILLs its worker while a distinct image
        request holds the other one.  Both must still get a result: the
        killed one through the serve-level retry, the sibling either
        before the pool broke or through that same retry."""

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
            sibling = asyncio.create_task(one_shot(service, {**HELD, "id": "s"}))
            try:
                assert await asyncio.to_thread(held.started.wait, 30)
                killed, _ = await one_shot(service, killed)
            finally:
                held.release.set()
            sibling, _ = await sibling
            return killed, sibling

        killed, sibling = service_test(
            scenario,
            allow_chaos=True,
            max_retries=1,
            retry_backoff_ms=2.0,
        )
        assert killed["type"] == "result"
        assert killed["retries"] == 1
        assert sibling["type"] == "result"
        assert sibling["retries"] in (0, 1)

    def test_group_exception_is_internal_with_retries(self, monkeypatch):
        """An exception escaping the pool submission still yields a
        structured terminal frame carrying ``retries``."""

        async def explode(self, job, payload):
            raise RuntimeError("job executor exploded")

        monkeypatch.setattr(ImageService, "_execute", explode)

        async def scenario(service):
            frame, _ = await one_shot(service, {**IMG, "id": "x"})
            return frame

        frame = service_test(scenario)
        assert frame["type"] == "error"
        assert frame["code"] == "internal"
        assert frame["retries"] == 0
        assert "exploded" in frame["detail"]

    def test_one_break_under_two_groups_rebuilds_the_pool_once(
        self, tmp_path, monkeypatch
    ):
        """An image job is in flight on the pool when a later profile
        job SIGKILLs its worker.  The break fails both, the pool is
        rebuilt once, and both requests heal through the serve-level
        retry."""
        image_started = multiprocessing.Event()
        form_image = service_module.workers.form_image
        hold = str(tmp_path / "hold")

        def held_image(payload):
            # The first attempt holds its worker until the break
            # terminates it; the retry computes.
            try:
                os.close(os.open(hold, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                return form_image(payload)
            image_started.set()
            time.sleep(30)
            return form_image(payload)

        # In place before the pool forks, so the workers inherit it.
        monkeypatch.setattr(service_module.workers, "form_image", held_image)

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
            image = asyncio.create_task(one_shot(service, {**IMG, "id": "i"}))
            assert await asyncio.to_thread(image_started.wait, 20)
            frames = await asyncio.wait_for(
                asyncio.gather(one_shot(service, killed), image), timeout=25
            )
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return [frame for frame, _ in frames], health

        (killed, image), health = service_test(
            scenario, allow_chaos=True, max_retries=1, retry_backoff_ms=2.0
        )
        assert killed["type"] == "result", killed
        assert killed["retries"] == 1
        assert image["type"] == "result", image
        assert image["retries"] == 1
        assert health["batches"] >= 3  # two jobs, then their retries
        assert health["resilience"]["pool_rebuilds"] == 1
        assert health["resilience"]["retries"] == 2

    def test_sequential_misses_share_one_pool(self, monkeypatch):
        """Every miss runs in a worker process of the one pool created
        with the service; nothing rebuilds it between misses."""
        form_image = service_module.workers.form_image

        def with_pid(payload):
            return dict(form_image(payload), pid=os.getpid())

        monkeypatch.setattr(service_module.workers, "form_image", with_pid)
        n = 6

        async def scenario(service):
            pool = service._pool
            frames = [
                (await one_shot(service, {**IMG, "id": f"m{i}", "noise_seed": i}))[0]
                for i in range(n)
            ]
            health, _ = await one_shot(service, {"kind": "health", "id": "h"})
            return frames, health, service._pool is pool

        frames, health, same_pool = service_test(scenario)
        assert all(f["type"] == "result" and not f["cached"] for f in frames)
        pids = {f["pid"] for f in frames}
        assert os.getpid() not in pids  # computed off the server process
        assert len(pids) <= FAST["workers"]
        assert same_pool
        assert health["batches"] == n
        assert health["resilience"]["pool_rebuilds"] == 0

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


async def pipeline_past_the_cap(service, held):
    """Pipeline a held request and one more on one connection; return
    the terminal frames by id."""
    reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
    try:
        writer.write(encode_frame({**HELD, "id": "p0"}))
        writer.write(encode_frame({**IMG, "id": "p1"}))
        await writer.drain()
        rejected = await read_terminal(reader)
        held.release.set()
        frames = [rejected, await read_terminal(reader)]
        return {f["id"]: f for f in frames}
    finally:
        held.release.set()
        writer.close()
        await writer.wait_closed()
