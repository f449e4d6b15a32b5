"""The asyncio image-formation service (``repro serve``).

Layering (docs/architecture.md §14): the service is *glue, not
physics*.  It owns sockets, framing, batching and deadlines; every
answer it produces comes from the layers below --

- **workers** (:mod:`repro.serve.workers`): pure, picklable task
  functions over the ``sar``/``kernels`` stacks,
- **execution** (:mod:`repro.exec`): each miss runs through
  :func:`~repro.exec.runner.invoke` on one process pool, and a
  :class:`~repro.exec.cache.ResultCache` is the content-addressed
  *response cache* -- a repeated identical request is served from
  disk, byte-identical, ``code_version()``-invalidated, and the hit is
  counted,
- **performance** (:mod:`repro.perf`): merge geometry memoised across
  tenants sharing a grid,
- **faults** (:mod:`repro.faults`): watchdog stalls and injected
  faults surface as structured error responses with blame reports,
  and accumulate in the ``health`` diagnostics,
- **resilience** (:mod:`repro.serve.resilience`, §15): admission
  control bounds in-flight work (structured ``overloaded`` + retry
  hint instead of queue growth), contained faults and broken pools are
  retried with seeded deterministic backoff (the only retry loop in
  the stack: the pool runs each task once), and a
  per-backend-spec circuit breaker degrades profile requests one rung
  down the ladder (``event:*`` onto byte-identical
  ``replay(event:*)``, then ``analytic:*``) when the real backend
  keeps failing.

Scheduling: every request first looks up the response cache, once
per attempt, on the event loop; a hit is answered there and then,
ahead of the batch window and the worker pool.  Only misses land on
the queue; a batcher drains it, waits ``batch_window_ms`` for
company, groups the window by cache payload (identical misses
*coalesce* onto a single compute) and submits each payload to the one
process pool created with the service; the loop stores each computed
value in the cache.  The ``batches`` and ``coalesced`` counters
therefore count only windows of misses.  Per-request deadlines convert
to structured ``deadline`` error responses -- a slow request can never
hang its connection.  A worker death is contained (``broken-pool``
failures, retried on the pool rebuilt once per break by the
serve-level retry) -- one poisoned request cannot take down its batch
window.  Streamed FFBP runs on a thread: its per-level callback cannot
cross a process.  ``close()`` drains: queued and in-flight requests
get their terminal response before the listener and the pool go away.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.exec.cache import ResultCache, code_version, stable_digest
from repro.exec.runner import TaskFailure, invoke
from repro.faults.report import CONTAINED_CODES
from repro.serve import protocol, workers
from repro.serve.protocol import (
    HealthRequest,
    ImageRequest,
    ProfileRequest,
    ProtocolError,
    RequestError,
    ShutdownRequest,
    encode_frame,
    error_response,
    read_frame,
)
from repro.serve.resilience import (
    DEFAULT_RESILIENCE_SEED,
    AdmissionController,
    CircuitBreaker,
    RetryPolicy,
    RollingWindow,
)

__all__ = ["ServeSettings", "ServeStats", "ImageService"]

CLOSE_GRACE_S = 2.0
"""How long :meth:`ImageService.close` lets a connected peer read its
last frames before the connection is aborted."""


@dataclass(frozen=True)
class ServeSettings:
    """Tunables of one service instance.

    ``max_retries`` (with ``retry_backoff_ms`` and ``resilience_seed``)
    is the one retry budget: the serve layer retries a whole request,
    and the process pool runs every task once."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 1
    """Width of the one process pool that computes every batched miss;
    one worker leaves a core of a 2-core host to the event loop."""
    batch_window_ms: float = 5.0
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    cache_dir: str | None = None
    """Response-cache directory; ``None`` uses a private temporary
    directory (cleaned up on close) so caching is on by default."""
    no_cache: bool = False
    default_deadline_ms: float | None = None
    max_inflight: int = 64
    """Admission budget: work requests in flight across all
    connections; one more gets a structured ``overloaded`` answer."""
    max_connection_inflight: int = 8
    """Per-connection concurrency cap (a single greedy client cannot
    drain the whole admission budget)."""
    max_retries: int = 1
    """Seeded-backoff retries per request on contained faults and
    broken pools; ``0`` disables retrying."""
    retry_backoff_ms: float = 25.0
    """Base of the exponential retry backoff (jittered, capped)."""
    breaker_window: int = 8
    """Rolling outcome window per backend spec for the breaker."""
    breaker_failures: int = 4
    """Failures within the window that trip the breaker; ``0``
    disables degradation entirely."""
    breaker_cooldown: int = 4
    """Degraded requests served per open period before a probe."""
    resilience_seed: int = DEFAULT_RESILIENCE_SEED
    """Root seed of the deterministic retry jitter."""
    allow_chaos: bool = False
    """Accept ``fail_marker`` chaos requests (worker suicide hooks);
    the kill hits a pool process, not the server."""
    window_s: float = 60.0
    """Horizon of the rolling rate window in ``health``."""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.batch_window_ms < 0:
            raise ValueError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}"
            )
        if self.max_frame_bytes < 1024:
            raise ValueError(
                f"max_frame_bytes must be >= 1024, got {self.max_frame_bytes}"
            )
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_connection_inflight < 1:
            raise ValueError(
                "max_connection_inflight must be >= 1, got "
                f"{self.max_connection_inflight}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff_ms <= 0:
            raise ValueError(
                f"retry_backoff_ms must be positive, got {self.retry_backoff_ms}"
            )
        if self.breaker_failures < 0:
            raise ValueError(
                f"breaker_failures must be >= 0, got {self.breaker_failures}"
            )
        if self.breaker_failures > self.breaker_window:
            raise ValueError(
                f"breaker_failures ({self.breaker_failures}) cannot exceed "
                f"breaker_window ({self.breaker_window})"
            )
        if self.window_s <= 0:
            raise ValueError(
                f"window_s must be positive, got {self.window_s}"
            )


@dataclass
class ServeStats:
    """Cumulative counters exposed through ``health`` responses.

    Lifetime totals; the last-N-seconds view lives in the ``window``
    block of the health report (:class:`RollingWindow`)."""

    served: int = 0
    errors: int = 0
    batches: int = 0
    coalesced: int = 0
    deadline_misses: int = 0
    streams: int = 0
    contained_faults: int = 0
    stalls: int = 0
    overloaded: int = 0
    retries: int = 0
    degraded: int = 0
    pool_rebuilds: int = 0
    last_fault: str | None = None
    last_blame: dict | None = None


@dataclass
class _Pending:
    """One batchable request (a cache miss) waiting for its compute.

    The future resolves to ``("ok", value, False)`` or
    ``("fail", kind, text)`` -- never an exception for a *task-level*
    failure, so the dispatch side can classify retryability."""

    request: ImageRequest | ProfileRequest
    future: asyncio.Future = field(default_factory=asyncio.Future)


class ImageService:
    """Long-running asyncio server over the length-prefixed protocol."""

    def __init__(self, settings: ServeSettings | None = None) -> None:
        self.settings = settings or ServeSettings()
        self.stats = ServeStats()
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue[_Pending] = asyncio.Queue()
        self._batcher: asyncio.Task | None = None
        self._group_tasks: set[asyncio.Task] = set()
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._handlers: dict = {}  # writer -> its connection handler task
        self._pool = self._new_pool()
        self._tmpdir = None
        if self.settings.no_cache:
            self._cache: ResultCache | None = None
        elif self.settings.cache_dir is not None:
            self._cache = ResultCache(self.settings.cache_dir)
        else:
            import tempfile

            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
            self._cache = ResultCache(self._tmpdir.name)
        self._admission = AdmissionController(
            budget=self.settings.max_inflight,
            retry_after_ms=max(self.settings.batch_window_ms, 1.0) * 4,
        )
        self._retry = RetryPolicy(
            max_retries=self.settings.max_retries,
            base_ms=self.settings.retry_backoff_ms,
            seed=self.settings.resilience_seed,
        )
        self._breaker = CircuitBreaker(
            window=self.settings.breaker_window,
            failures=self.settings.breaker_failures,
            cooldown=self.settings.breaker_cooldown,
        )
        self._window = RollingWindow(horizon_s=self.settings.window_s)
        self._connections = 0
        self._started = time.monotonic()
        self._shutdown = asyncio.Event()
        self._closing = False

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_client, self.settings.host, self.settings.port
        )
        self._started = time.monotonic()
        self._batcher = asyncio.create_task(self._batch_loop())

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`close`)."""
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        """Drain and stop: every in-flight request still gets its
        terminal response.

        Order matters: mark closing (admission rejects new work with a
        structured "draining" answer), stop listening, stop the
        batcher, flush whatever it left on the queue as a group, then
        settle dispatch/group tasks to quiescence -- a draining retry
        re-enters through :meth:`_enqueue`, which runs it as its own
        group once the batcher is gone, so no future is ever orphaned.
        Only then close lingering idle connections (their handlers are
        parked in ``read_frame``), wait for their handlers to finish,
        and close the pool.
        """
        self._closing = True
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        while True:
            leftovers = []
            while not self._queue.empty():
                leftovers.append(self._queue.get_nowait())
            if leftovers:
                self._spawn_group(leftovers)
            tasks = [
                t
                for t in (*self._dispatch_tasks, *self._group_tasks)
                if not t.done()
            ]
            if not leftovers and not tasks:
                break
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        # Closing a writer flushes it, then ends its handler's read with
        # EOF: wait for the handlers, so none is left to the loop's
        # teardown.  A peer that does not read its last frames within
        # the grace period is aborted rather than holding shutdown.
        handlers = dict(self._handlers)
        for writer in handlers:
            writer.close()
        if handlers:
            _, stuck = await asyncio.wait(handlers.values(), timeout=CLOSE_GRACE_S)
            for writer, task in handlers.items():
                if task in stuck:
                    writer.transport.abort()
            await asyncio.gather(*handlers.values(), return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=True)
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    # -- connection handling ---------------------------------------------

    async def _on_client(self, reader, writer) -> None:
        self._connections += 1
        self._handlers[writer] = asyncio.current_task()
        lock = asyncio.Lock()
        conn_tasks: set[asyncio.Task] = set()

        async def send(obj: dict | bytes) -> None:
            """Write one frame: a response dict, or one already encoded."""
            if not isinstance(obj, bytes):
                obj = encode_frame(obj, self.settings.max_frame_bytes)
            async with lock:
                writer.write(obj)
                await writer.drain()

        try:
            while True:
                try:
                    frame = await read_frame(
                        reader, self.settings.max_frame_bytes
                    )
                except ProtocolError as exc:
                    self._mark_error()
                    if not exc.recoverable:
                        break
                    await send(error_response(None, exc.code, exc.detail))
                    continue
                if frame is None:
                    break
                try:
                    request = protocol.parse_request(
                        frame, self.settings.max_frame_bytes
                    )
                except RequestError as exc:
                    self._mark_error()
                    await send(
                        error_response(frame.get("id"), exc.code, exc.detail)
                    )
                    continue
                if isinstance(request, HealthRequest):
                    await send(self._health(request.id))
                    self._mark_served()
                    continue
                if isinstance(request, ShutdownRequest):
                    await send(
                        {"id": request.id, "type": "ok", "detail": "shutting down"}
                    )
                    self._mark_served()
                    self._shutdown.set()
                    break
                # Work request: chaos gate, then admission control.
                if (
                    isinstance(request, ProfileRequest)
                    and request.fail_marker is not None
                    and not self.settings.allow_chaos
                ):
                    self._mark_error()
                    await send(
                        error_response(
                            request.id,
                            "bad-request",
                            "'fail_marker' requires a server started with "
                            "allow_chaos",
                        )
                    )
                    continue
                if self._closing:
                    await self._reject_overloaded(
                        request.id,
                        "server is draining for shutdown",
                        self._admission.retry_hint(),
                        send,
                    )
                    continue
                conn_tasks = {t for t in conn_tasks if not t.done()}
                if len(conn_tasks) >= self.settings.max_connection_inflight:
                    await self._reject_overloaded(
                        request.id,
                        f"connection exceeded its "
                        f"{self.settings.max_connection_inflight} in-flight "
                        f"request cap",
                        self._admission.retry_hint(),
                        send,
                    )
                    continue
                hint = self._admission.try_admit()
                if hint is not None:
                    await self._reject_overloaded(
                        request.id,
                        f"server is at its {self.settings.max_inflight} "
                        f"in-flight request budget",
                        hint,
                        send,
                    )
                    continue
                task = asyncio.create_task(self._run_admitted(request, send))
                conn_tasks.add(task)
                self._dispatch_tasks.add(task)
                task.add_done_callback(self._dispatch_tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            # A closing connection still drains its in-flight work --
            # the shutdown contract: one terminal response per request.
            if conn_tasks:
                await asyncio.gather(*conn_tasks, return_exceptions=True)
            self._connections -= 1
            self._handlers.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _run_admitted(self, request, send) -> None:
        """One admitted work request, releasing its admission slot."""
        try:
            if isinstance(request, ImageRequest) and request.stream:
                await self._run_streaming(request, send)
            else:
                await self._run_batched(request, send)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._admission.release()

    async def _reject_overloaded(
        self, req_id, detail: str, hint_ms: float, send
    ) -> None:
        self._mark_error()
        self.stats.overloaded += 1
        self._window.record("overloaded")
        response = error_response(req_id, "overloaded", detail)
        response["retry_after_ms"] = hint_ms
        await send(response)

    # -- stats plumbing ---------------------------------------------------

    def _mark_served(self) -> None:
        self.stats.served += 1
        self._window.record("served")

    def _mark_error(self) -> None:
        self.stats.errors += 1
        self._window.record("error")

    async def _send_result(self, request, response: dict, send) -> None:
        """Send a ``result`` frame and count it served -- or, when the
        result does not fit in one frame, answer ``oversized``."""
        try:
            frame = encode_frame(response, self.settings.max_frame_bytes)
        except ProtocolError as exc:
            extra = {
                key: response[key]
                for key in ("retries", "degraded", "degraded_to")
                if key in response
            }
            await self._send_oversized(request, "result", exc, send, **extra)
            return
        self._mark_served()
        await send(frame)

    async def _send_oversized(
        self, request, what: str, exc: ProtocolError, send, **extra
    ) -> None:
        """Answer a frame over the byte limit with a structured
        ``oversized`` error naming the limit, and count an error.  Frames
        are encoded before any byte is written, so nothing of the refused
        frame went out and the connection stays usable."""
        self._mark_error()
        response = error_response(request.id, exc.code, f"{what} {exc.detail}")
        response.update(extra)
        await send(response)

    # -- request execution -----------------------------------------------

    def _effective_deadline_ms(self, request) -> float | None:
        if request.deadline_ms is not None:
            return request.deadline_ms
        return self.settings.default_deadline_ms

    def _deadline_of(self, request) -> float | None:
        deadline_ms = self._effective_deadline_ms(request)
        return None if deadline_ms is None else deadline_ms / 1e3

    def _missed_deadline(self, request, elapsed: float) -> bool:
        """The one deadline rule, shared by the batched and streamed
        paths: a request whose measured ``elapsed`` seconds exceed its
        effective deadline answers ``deadline``, never ``result`` --
        whether its wait timed out or its work was already done."""
        deadline = self._deadline_of(request)
        return deadline is not None and elapsed > deadline

    async def _send_deadline(self, request, what: str, send, **extra) -> None:
        """Answer a missed deadline with a structured ``deadline`` error."""
        self._mark_error()
        self.stats.deadline_misses += 1
        self._window.record("deadline_miss")
        response = error_response(
            request.id,
            "deadline",
            f"{what} exceeded its "
            f"{self._effective_deadline_ms(request)} ms deadline",
        )
        response.update(extra)
        await send(response)

    async def _enqueue(self, pending: _Pending) -> None:
        """Hand a request to the batcher -- or, once the batcher is
        gone (draining close), run it as its own group so its future
        still resolves."""
        if self._batcher is None:
            self._spawn_group([pending])
        else:
            await self._queue.put(pending)

    def _retry_delay_s(
        self,
        retryable: bool,
        retries: int,
        retry_key: str,
        deadline: float | None,
        t0: float,
    ) -> float | None:
        """Backoff before the next retry, or ``None`` to stop.

        Stops when the failure class is terminal, the retry budget is
        spent, the server is draining, or the backoff would not fit in
        the request's remaining deadline."""
        if not retryable or retries >= self._retry.max_retries or self._closing:
            return None
        delay = self._retry.backoff_ms(retry_key, retries + 1) / 1e3
        if deadline is not None:
            if (time.perf_counter() - t0) + delay >= deadline:
                return None
        return delay

    def _breaker_record(self, spec: str | None, verdict: str, ok: bool) -> None:
        """Feed the terminal outcome of a real-backend attempt."""
        if spec is not None and verdict in ("pass", "probe"):
            self._breaker.record(spec, ok)

    def _lookup(self, request) -> tuple | None:
        """The response-cache hit for ``request`` as an ``("ok", value,
        True)`` outcome, or ``None`` on a miss (or with no cache).

        Runs inline on the loop thread: one small disk read and unpickle.
        """
        if self._cache is None:
            return None
        found, value = self._cache.get(
            response_key(self._cache, request.payload())
        )
        return ("ok", value, True) if found else None

    async def _compute(
        self, request, deadline: float | None, t0: float
    ) -> tuple | None:
        """Batch a cache miss and await its outcome; ``None`` when the
        request's deadline runs out first."""
        pending = _Pending(request=request)
        await self._enqueue(pending)
        timeout = None
        if deadline is not None:
            timeout = max(deadline - (time.perf_counter() - t0), 0.0)
        try:
            return await asyncio.wait_for(pending.future, timeout=timeout)
        except asyncio.TimeoutError:
            return None

    async def _run_batched(self, request, send) -> None:
        t0 = time.perf_counter()
        deadline = self._deadline_of(request)
        spec = request.backend if isinstance(request, ProfileRequest) else None
        verdict, substitute = "pass", None
        degraded = False
        effective = request
        if spec is not None:
            verdict, substitute = self._breaker.decide(spec)
            if verdict == "degrade":
                effective = dataclasses.replace(request, backend=substitute)
                degraded = True
                self.stats.degraded += 1
                self._window.record("degraded")
        retry_key = stable_digest(effective.payload())
        retries = 0
        while True:
            try:
                # A hit is answered here, on the loop: no window, no pool.
                outcome = self._lookup(effective) or await self._compute(
                    effective, deadline, t0
                )
            except Exception as exc:  # structured, never a connection drop
                self._mark_error()
                response = error_response(request.id, "internal", str(exc))
                response["retries"] = retries
                await send(response)
                return
            elapsed = time.perf_counter() - t0
            err = None
            if outcome is not None and outcome[0] == "ok":
                _, value, cached = outcome
                err = value.get("error") if isinstance(value, dict) else None
            # A timed-out wait, or a result (not a contained fault)
            # measured past the deadline, is a deadline miss.
            if outcome is None or (
                outcome[0] == "ok"
                and err is None
                and self._missed_deadline(request, elapsed)
            ):
                self._breaker_record(spec, verdict, ok=False)
                await self._send_deadline(request, "request", send, retries=retries)
                return
            if outcome[0] == "ok":
                if err is None:
                    self._breaker_record(spec, verdict, ok=True)
                    response = dict(value)
                    response.update(
                        id=request.id,
                        type="result",
                        cached=bool(cached),
                        elapsed_ms=round(elapsed * 1e3, 3),
                        retries=retries,
                    )
                    if degraded:
                        response.update(
                            degraded=True, degraded_to=effective.backend
                        )
                    await self._send_result(request, response, send)
                    return
                # A contained fault (stall blame, injected fault) from
                # the profile path: retryable -- the work is pure and
                # the diagnosis structured.
                retryable = err.get("code") in CONTAINED_CODES
            else:
                # Pool-level failure: a broken pool is retryable (the
                # pool is rebuilt and the work is uncached); a task
                # error is terminal.
                _, fkind, ftext = outcome
                retryable = fkind == "broken-pool"
            delay = self._retry_delay_s(
                retryable, retries, retry_key, deadline, t0
            )
            if delay is not None:
                retries += 1
                self.stats.retries += 1
                self._window.record("retry")
                await asyncio.sleep(delay)
                continue
            self._breaker_record(spec, verdict, ok=False)
            if err is not None:
                await self._send_contained(
                    request, err, retries, degraded, effective, send
                )
                return
            self._mark_error()
            code = "broken-pool" if fkind == "broken-pool" else "internal"
            response = error_response(request.id, code, ftext)
            response["retries"] = retries
            await send(response)
            return

    async def _send_contained(
        self, request, err: dict, retries: int, degraded: bool, effective, send
    ) -> None:
        """Answer with a contained fault's structured diagnosis."""
        self._mark_error()
        self.stats.contained_faults += 1
        self._window.record("contained_fault")
        self.stats.last_fault = err.get("detail")
        if err.get("code") == "stall":
            self.stats.stalls += 1
            self.stats.last_blame = err.get("blame")
        response = error_response(
            request.id, err.get("code", "fault"), err.get("detail", "")
        )
        response["outcome"] = err.get("outcome")
        if err.get("blame"):
            response["blame"] = err["blame"]
        response["retries"] = retries
        if degraded:
            response.update(degraded=True, degraded_to=effective.backend)
        await send(response)

    async def _run_streaming(self, request: ImageRequest, send) -> None:
        """FFBP with merge levels streamed back as ``partial`` frames."""
        self.stats.streams += 1
        loop = asyncio.get_running_loop()
        frames: asyncio.Queue = asyncio.Queue()
        _DONE = object()

        def emit(frame: dict) -> None:
            loop.call_soon_threadsafe(frames.put_nowait, frame)

        def run() -> dict:
            try:
                return workers.form_image_streaming(
                    request.payload(), emit, stream_data=request.stream_data
                )
            finally:
                loop.call_soon_threadsafe(frames.put_nowait, _DONE)

        t0 = time.perf_counter()
        job = loop.run_in_executor(None, run)
        deadline = self._deadline_of(request)

        async def forward() -> dict:
            while True:
                frame = await frames.get()
                if frame is _DONE:
                    break
                partial = dict(frame)
                partial.update(id=request.id, type="partial")
                await send(partial)
            return await job

        try:
            value = await asyncio.wait_for(forward(), timeout=deadline)
        except asyncio.TimeoutError:
            value = None
        except ProtocolError as exc:  # a partial frame over the limit
            await self._send_oversized(request, "partial", exc, send)
            return
        except Exception as exc:
            self._mark_error()
            await send(error_response(request.id, "internal", str(exc)))
            return
        elapsed = time.perf_counter() - t0
        if value is None or self._missed_deadline(request, elapsed):
            await self._send_deadline(request, "stream", send)
            return
        response = dict(value)
        response.update(
            id=request.id,
            type="result",
            cached=False,
            elapsed_ms=round(elapsed * 1e3, 3),
        )
        await self._send_result(request, response, send)

    # -- batching ---------------------------------------------------------

    async def _batch_loop(self) -> None:
        """Drain the queue, gather a window, dispatch it as one group."""
        loop = asyncio.get_running_loop()
        window = self.settings.batch_window_ms / 1e3
        while True:
            batch = [await self._queue.get()]
            deadline = loop.time() + window
            while True:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), remaining)
                    )
                except asyncio.TimeoutError:
                    break
            self._spawn_group(batch)

    def _spawn_group(self, group: list[_Pending]) -> None:
        task = asyncio.create_task(self._run_group(group))
        self._group_tasks.add(task)
        task.add_done_callback(self._group_tasks.discard)

    async def _run_group(self, group: list[_Pending]) -> None:
        self.stats.batches += 1
        # Coalesce identical payloads: one compute, fanned out to all.
        unique: dict[str, list[_Pending]] = {}
        for pending in group:
            unique.setdefault(
                stable_digest(pending.request.payload()), []
            ).append(pending)
        self.stats.coalesced += len(group) - len(unique)
        order = list(unique.items())
        try:
            outcomes = await asyncio.gather(
                *(self._execute(ws[0].request.payload()) for _, ws in order)
            )
        except Exception as exc:
            for _, waiters in order:
                for pending in waiters:
                    if not pending.future.done():
                        pending.future.set_exception(exc)
            return
        for (_, waiters), outcome in zip(order, outcomes):
            for pending in waiters:
                if not pending.future.done():  # else its client timed out
                    pending.future.set_result(outcome)

    async def _execute(self, payload: dict) -> tuple:
        """Compute one miss on the pool: ``("ok", value, False)``, stored
        in the cache here on the loop, or ``("fail", kind, text)`` -- a
        task exception with the child's traceback, or ``broken-pool``
        for every task in flight when a worker dies -- never an
        exception, so one bad request cannot poison its batch-mates."""
        key, pool = _task_key(payload), self._pool
        try:
            status, value, _ = await asyncio.wrap_future(
                pool.submit(invoke, workers.compute, (payload,), {})
            )
        except BrokenProcessPool as exc:
            if pool is self._pool:  # rebuild once per break
                self._pool = self._new_pool()
                self.stats.pool_rebuilds += 1
                self._window.record("pool_rebuild")
                pool.shutdown(wait=False)  # some workers are still dying
            failure = TaskFailure(key, "broken-pool", str(exc))
            return ("fail", failure.kind, failure.format())
        if status == "err":
            etype, msg, tb = value
            failure = TaskFailure(key, "error", f"{etype}: {msg}", tb)
            return ("fail", failure.kind, failure.format())
        if self._cache is not None:
            self._cache.put(response_key(self._cache, payload), value)
        return ("ok", value, False)

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.settings.workers, initializer=workers.detach_sockets
        )

    # -- health ----------------------------------------------------------

    def _health(self, req_id) -> dict:
        s = self.stats
        return {
            "id": req_id,
            "type": "health",
            "status": "ok",
            "protocol": protocol.PROTOCOL,
            "code_version": code_version(),
            "uptime_s": round(time.monotonic() - self._started, 3),
            "connections": self._connections,
            "served": s.served,
            "errors": s.errors,
            "batches": s.batches,
            "coalesced": s.coalesced,
            "deadline_misses": s.deadline_misses,
            "streams": s.streams,
            "cache": None if self._cache is None else self._cache.stats(),
            "faults": {
                "contained": s.contained_faults,
                "stalls": s.stalls,
                "last": s.last_fault,
                "last_blame": s.last_blame,
            },
            "window": self._window.snapshot(),
            "resilience": {
                "admission": self._admission.snapshot(),
                "overloaded": s.overloaded,
                "retries": s.retries,
                "degraded": s.degraded,
                "pool_rebuilds": s.pool_rebuilds,
                "breaker": self._breaker.snapshot(),
            },
        }


def _task_key(payload: dict) -> str:
    return f"serve/{payload.get('kind')}/{stable_digest(payload)}"


def response_key(cache: ResultCache, payload: dict) -> str:
    """The response-cache address of ``payload``: the entry an
    :class:`ExperimentRunner` with ``cache`` attached would use for the
    ``serve/{kind}/{stable_digest(payload)}`` task over ``payload``."""
    return cache.entry_key(_task_key(payload), payload=((payload,), {}))
