"""The asyncio image-formation service (``repro serve``).

The service is *glue, not physics* (docs/architecture.md §14-15): it
owns sockets, framing, coalescing and deadlines, and every answer comes
from a lower layer -- the task functions of :mod:`repro.serve.workers`
run through :func:`~repro.exec.runner.invoke` on one process pool, a
:class:`~repro.exec.cache.ResultCache` is the content-addressed
response cache, :mod:`repro.faults` diagnoses contained faults, and
:mod:`repro.serve.resilience` holds the admission, retry and breaker
policies.

Every work request takes one path.  It first looks up the response
cache, once per attempt, on the event loop; a hit is answered there
and then.  A miss joins the in-flight job computing its payload, or
submits a new job to the pool at once: the in-flight table holds one
job per payload digest, and a job stores its value in the cache and
leaves the table in one synchronous step, so every request sees either
a hit or the live job.  A measured elapsed time past the request's
deadline answers a structured ``deadline``; a worker death fails every
job in flight with ``broken-pool``, which the serve-level retry (the
only retry loop in the stack) runs again on the pool, rebuilt once per
break.  A streamed FFBP is such a miss too: its worker posts each merge
level on the pool's partial channel as it completes, and the loop
forwards them as ``partial`` frames ahead of the ``result``; a stream
that joins a job late gets the levels already routed first.  A streamed
hit answers the ``result`` alone (partials report the progress of a
compute), and a stream retried after a broken pool streams again from
level 0.  ``close()`` drains: in-flight requests get their terminal
response before the listener and the pool go away.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.exec.cache import ResultCache, code_version, stable_digest
from repro.exec.runner import TaskFailure, invoke
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
    """Width of the one process pool that computes every miss;
    one worker leaves a core of a 2-core host to the event loop."""
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
    """Seeded-backoff retries per request on a broken pool; ``0``
    disables retrying."""
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

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
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
        # The protocol's per-request rule, for the server-wide default.
        for name in ("default_deadline_ms", "retry_backoff_ms"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be positive and finite, got {value}"
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


@dataclass
class ServeStats:
    """Cumulative counters exposed through ``health`` responses.

    Lifetime totals; the last-N-seconds view lives in the ``window``
    block of the health report (:class:`RollingWindow`)."""

    served: int = 0
    errors: int = 0
    batches: int = 0
    """Jobs submitted to the pool (one per computed miss)."""
    coalesced: int = 0
    """Requests that joined a job already in flight for their payload."""
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


class _Job:
    """One pool job: the compute of one payload, and the requests that
    joined it.

    ``stream`` is ``None`` for a job that streams nothing, else whether
    its worker posts the stage bytes (``stream_data``).  Each streamed
    waiter has a queue of partial frames, ended by ``None``; ``backlog``
    keeps every partial routed so far, so a stream that joins late still
    gets every level.  ``task`` runs the job and returns its outcome."""

    def __init__(self, stream: bool | None) -> None:
        self.stream = stream
        self.backlog: list[tuple[dict, dict]] = []  # (frame, lean frame)
        self.queues: list[tuple[asyncio.Queue, bool]] = []
        self.task: asyncio.Task | None = None

    def serves(self, stream: bool | None) -> bool:
        """Whether a request streaming at ``stream`` (same meaning) may
        join: every job serves an unstreamed request, a ``stream_data``
        job every stream, and a lean job lean streams only."""
        if stream is None:
            return True
        return self.stream is not None and (self.stream or not stream)

    def join(self, stream: bool | None) -> asyncio.Queue | None:
        """Add a waiter; a streamed one gets its partial queue, holding
        the backlog already."""
        if stream is None:
            return None
        queue: asyncio.Queue = asyncio.Queue()
        for frame, lean in self.backlog:
            queue.put_nowait(frame if stream else lean)
        self.queues.append((queue, stream))
        return queue

    def route(self, frame: dict) -> None:
        """Keep one partial and hand it to every streamed waiter; the
        ``stage`` bytes go only to those that asked ``stream_data``."""
        lean = {k: v for k, v in frame.items() if k != "stage"}
        self.backlog.append((frame, lean))
        for queue, data in self.queues:
            queue.put_nowait(frame if data else lean)

    def end(self) -> None:
        """End every waiter's stream."""
        for queue, _ in self.queues:
            queue.put_nowait(None)


class _Channel:
    """The partial channel of one pool generation.

    Workers post ``[token, frame]`` JSON lines on a one-way pipe under
    a lock (:func:`repro.serve.workers.compute`); ``frame`` is ``None``
    at the end of a job.  The loop reads without blocking, so a message
    torn by a worker killed mid-write stays unread instead of stalling
    the loop, and routes each partial to its job.  The break of its
    pool retires the channel with it."""

    def __init__(self, ctx) -> None:
        self.reader, self.writer = ctx.Pipe(duplex=False)
        self.lock = ctx.Lock()
        self.fd = self.reader.fileno()
        os.set_blocking(self.fd, False)
        self._buf = bytearray()
        self._tokens = itertools.count()
        self.jobs: dict[int, tuple[_Job, asyncio.Event]] = {}

    def open_job(self, job: _Job) -> tuple[int, asyncio.Event]:
        """Token of a streamed job, and the event its end marker sets."""
        token, ended = next(self._tokens), asyncio.Event()
        self.jobs[token] = (job, ended)
        asyncio.get_running_loop().add_reader(self.fd, self.route)
        return token, ended

    def route(self) -> None:
        """Route every complete message readable now to its job."""
        try:
            while chunk := os.read(self.fd, 1 << 16):
                self._buf += chunk
        except BlockingIOError:
            pass
        *lines, self._buf = self._buf.split(b"\n")
        for line in lines:
            token, frame = json.loads(line)
            if token not in self.jobs:  # its job has already settled
                continue
            job, ended = self.jobs[token]
            if frame is None:
                ended.set()
            else:
                job.route(frame)

    def retire(self) -> None:
        """Route what is left, stop reading, close, and release every
        job still waiting for its end marker.  The reader goes before
        the pipe: with no writer left, the read end stays readable at
        EOF and the loop would spin on it."""
        if self.reader.closed:
            return
        self.route()
        asyncio.get_running_loop().remove_reader(self.fd)
        self.reader.close()
        self.writer.close()
        for _, ended in self.jobs.values():
            ended.set()


class ImageService:
    """Long-running asyncio server over the length-prefixed protocol."""

    def __init__(self, settings: ServeSettings | None = None) -> None:
        self.settings = settings or ServeSettings()
        self.stats = ServeStats()
        self._server: asyncio.AbstractServer | None = None
        self._inflight: dict[str, _Job] = {}  # payload digest -> its job
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._handlers: dict = {}  # writer -> its connection handler task
        self._pool, self._channel = self._new_pool()
        self._tmpdir = None
        if self.settings.no_cache:
            self._cache: ResultCache | None = None
        elif self.settings.cache_dir is not None:
            self._cache = ResultCache(self.settings.cache_dir)
        else:
            import tempfile

            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
            self._cache = ResultCache(self._tmpdir.name)
        self._admission = AdmissionController(budget=self.settings.max_inflight)
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
        self._window = RollingWindow()
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

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`close`)."""
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        """Drain and stop: every in-flight request still gets its
        terminal response.

        Order matters: mark closing (admission rejects new work with a
        structured "draining" answer), stop listening, then settle the
        dispatch tasks and the in-flight jobs to quiescence -- a retry
        already backing off may still submit a job.  Only then close
        lingering idle connections (their handlers are parked in
        ``read_frame``), wait for their handlers to finish, and close
        the pool.
        """
        self._closing = True
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
        jobs = self._inflight.values()
        while tasks := [
            t for t in (*self._dispatch_tasks, *(j.task for j in jobs)) if not t.done()
        ]:
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
        self._channel.retire()
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
                    if not exc.recoverable:
                        self._mark_error()
                        break
                    await self._send_error(None, exc.code, exc.detail, send)
                    continue
                if frame is None:
                    break
                try:
                    request = protocol.parse_request(
                        frame, self.settings.max_frame_bytes
                    )
                except RequestError as exc:
                    await self._send_error(frame.get("id"), exc.code, exc.detail, send)
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
                    await self._send_error(
                        request.id,
                        "bad-request",
                        "'fail_marker' requires a server started with allow_chaos",
                        send,
                    )
                    continue
                conn_tasks = {t for t in conn_tasks if not t.done()}
                cap, hint = self.settings.max_connection_inflight, None
                if self._closing:
                    refusal = "server is draining for shutdown"
                elif len(conn_tasks) >= cap:
                    refusal = f"connection exceeded its {cap} in-flight request cap"
                else:
                    hint = self._admission.try_admit()
                    refusal = None if hint is None else (
                        f"server is at its {self.settings.max_inflight} "
                        "in-flight request budget"
                    )
                if refusal:
                    # Every refusal carries the pressure-scaled hint.
                    self.stats.overloaded += 1
                    self._window.record("overloaded")
                    await self._send_error(
                        request.id, "overloaded", refusal, send,
                        retry_after_ms=hint or self._admission.retry_hint(),
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
            await self._run_request(request, send)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._admission.release()

    # -- stats plumbing ---------------------------------------------------

    def _mark_served(self) -> None:
        self.stats.served += 1
        self._window.record("served")

    def _mark_error(self) -> None:
        self.stats.errors += 1
        self._window.record("error")

    async def _send_error(self, req_id, code: str, detail: str, send, **extra) -> None:
        """Send a structured ``error`` frame (plus ``extra`` keys) and
        count an error."""
        self._mark_error()
        await send({**error_response(req_id, code, detail), **extra})

    # -- request execution -----------------------------------------------

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
        self, request, digest: str, deadline: float | None, t0: float, send=None
    ) -> tuple | None:
        """Join the in-flight job for a cache miss, or submit one, and
        await its outcome -- forwarding its partial frames with ``send``
        meanwhile when it streams; ``None`` when the request's deadline
        runs out first.

        Called right after the cache lookup, and nothing before the wait
        yields the loop: the request joins or submits in the same step
        as its miss."""
        stream = None if send is None else request.stream_data
        job = self._inflight.get(digest)
        if job is not None and job.serves(stream):
            self.stats.coalesced += 1
        else:
            # A stream that needs more detail than the live job posts
            # submits its own; that job serves every later joiner.
            job = self._inflight[digest] = _Job(stream)
            job.task = asyncio.create_task(
                self._run_job(digest, job, request.payload())
            )
            self.stats.batches += 1
        queue = job.join(stream)
        timeout = None
        if deadline is not None:
            timeout = max(deadline - (time.perf_counter() - t0), 0.0)
        try:
            return await asyncio.wait_for(
                _forward(job, queue, request.id, send), timeout=timeout
            )
        except asyncio.TimeoutError:
            return None

    async def _run_request(self, request, send) -> None:
        """Every work request: cache lookup, else a pool job (joined or
        submitted), then the deadline rule, the breaker and the retry
        loop."""
        t0 = time.perf_counter()
        deadline_ms = request.deadline_ms or self.settings.default_deadline_ms
        deadline = None if deadline_ms is None else deadline_ms / 1e3
        stream = isinstance(request, ImageRequest) and request.stream
        self.stats.streams += stream
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
        digest = stable_digest(effective.payload())
        retries = 0
        while True:
            try:
                # A hit is answered here, on the loop: no pool.
                outcome = self._lookup(effective) or await self._compute(
                    effective, digest, deadline, t0, send if stream else None
                )
            except ProtocolError as exc:  # a partial frame over the limit
                await self._send_error(
                    request.id, exc.code, f"partial {exc.detail}", send,
                    retries=retries,
                )
                return
            except Exception as exc:  # structured, never a connection drop
                await self._send_error(
                    request.id, "internal", str(exc), send, retries=retries
                )
                return
            elapsed = time.perf_counter() - t0
            err = None
            if outcome is not None and outcome[0] == "ok":
                _, value, cached = outcome
                err = value.get("error") if isinstance(value, dict) else None
            # The one deadline rule: a timed-out wait, or a result (not a
            # contained fault) measured past the deadline, answers
            # ``deadline`` -- even when the work was already done.
            if outcome is None or (
                outcome[0] == "ok"
                and err is None
                and deadline is not None
                and elapsed > deadline
            ):
                self._breaker_record(spec, verdict, ok=False)
                self.stats.deadline_misses += 1
                self._window.record("deadline_miss")
                await self._send_error(
                    request.id,
                    "deadline",
                    f"{'stream' if stream else 'request'} exceeded its "
                    f"{deadline_ms} ms deadline",
                    send,
                    retries=retries,
                )
                return
            if outcome[0] == "ok":
                if err is None:
                    self._breaker_record(spec, verdict, ok=True)
                    extra = {"retries": retries}
                    if degraded:
                        extra.update(degraded=True, degraded_to=effective.backend)
                    response = dict(
                        value, id=request.id, type="result", cached=bool(cached),
                        elapsed_ms=round(elapsed * 1e3, 3), **extra,
                    )
                    # Encoded before any byte is written: a result over the
                    # limit answers ``oversized`` on a still-usable connection.
                    try:
                        frame = encode_frame(response, self.settings.max_frame_bytes)
                    except ProtocolError as exc:
                        await self._send_error(
                            request.id, exc.code, f"result {exc.detail}", send, **extra
                        )
                        return
                    self._mark_served()
                    await send(frame)
                    return
                # A contained fault (stall blame, injected fault) from
                # the profile path: the kernels are deterministic, so
                # the diagnosis is the answer -- a retry would repeat it.
                self._breaker_record(spec, verdict, ok=False)
                await self._send_contained(
                    request, err, retries, degraded, effective, send,
                    cached=bool(cached), elapsed_ms=round(elapsed * 1e3, 3),
                )
                return
            # Pool-level failure: a broken pool is retryable (the pool
            # is rebuilt and the work is uncached); a task error is
            # terminal.
            _, fkind, ftext = outcome
            retryable = fkind == "broken-pool"
            delay = self._retry_delay_s(retryable, retries, digest, deadline, t0)
            if delay is not None:
                retries += 1
                self.stats.retries += 1
                self._window.record("retry")
                await asyncio.sleep(delay)
                continue
            self._breaker_record(spec, verdict, ok=False)
            code = "broken-pool" if fkind == "broken-pool" else "internal"
            await self._send_error(request.id, code, ftext, send, retries=retries)
            return

    async def _send_contained(
        self, request, err: dict, retries: int, degraded: bool, effective, send,
        cached: bool, elapsed_ms: float,
    ) -> None:
        """Answer with a contained fault's structured diagnosis, flagged
        ``cached`` and timed like a result frame."""
        self.stats.contained_faults += 1
        self._window.record("contained_fault")
        self.stats.last_fault = err.get("detail")
        if err.get("code") == "stall":
            self.stats.stalls += 1
            self.stats.last_blame = err.get("blame")
        extra = {
            "outcome": err.get("outcome"),
            "retries": retries,
            "cached": cached,
            "elapsed_ms": elapsed_ms,
        }
        if err.get("blame"):
            extra["blame"] = err["blame"]
        if degraded:
            extra.update(degraded=True, degraded_to=effective.backend)
        await self._send_error(
            request.id, err.get("code", "fault"), err.get("detail", ""), send, **extra
        )

    # -- pool jobs --------------------------------------------------------

    async def _run_job(self, digest: str, job: _Job, payload: dict) -> tuple:
        """Run one job and settle its in-flight entry, then end its
        streams; the job's waiters wake when this returns.

        The value goes into the cache and the entry leaves the table in
        one synchronous step, and a failed job leaves before any waiter
        wakes, so a retry submits fresh work instead of joining a dead
        job.  The entry is popped only while it is still this job's."""
        try:
            outcome = await self._execute(job, payload)
            if outcome[0] == "ok" and self._cache is not None:
                self._cache.put(response_key(self._cache, payload), outcome[1])
            return outcome
        finally:
            if self._inflight.get(digest) is job:
                del self._inflight[digest]
            job.end()

    async def _execute(self, job: _Job, payload: dict) -> tuple:
        """Compute one miss on the pool: ``("ok", value, False)``, or
        ``("fail", kind, text)`` -- a task exception with the child's
        traceback, or ``broken-pool`` for every task in flight when a
        worker dies -- never an exception, so one bad request cannot
        poison the jobs beside it.

        A streamed job gets a token: its worker posts the partials on
        the pool's channel, and the outcome waits for the job's end
        marker, so every partial precedes the result."""
        key, pool, channel = _task_key(payload), self._pool, self._channel
        args: tuple = (payload,)
        if job.stream is not None:
            token, ended = channel.open_job(job)
            args = (payload, (token, job.stream))
        try:
            status, value, _ = await asyncio.wrap_future(
                pool.submit(invoke, workers.compute, args, {})
            )
            if job.stream is not None:
                await ended.wait()
        except BrokenProcessPool as exc:
            if pool is self._pool:  # rebuild once per break
                channel.retire()
                self._pool, self._channel = self._new_pool()
                self.stats.pool_rebuilds += 1
                self._window.record("pool_rebuild")
                pool.shutdown(wait=False)  # some workers are still dying
            failure = TaskFailure(key, "broken-pool", str(exc))
            return ("fail", failure.kind, failure.format())
        finally:
            if job.stream is not None:
                del channel.jobs[token]
        if status == "err":
            etype, msg, tb = value
            failure = TaskFailure(key, "error", f"{etype}: {msg}", tb)
            return ("fail", failure.kind, failure.format())
        return ("ok", value, False)

    def _new_pool(self) -> tuple[ProcessPoolExecutor, _Channel]:
        """One pool generation: the pool and the partial channel its
        workers inherit through the initializer."""
        ctx = multiprocessing.get_context()
        channel = _Channel(ctx)
        pool = ProcessPoolExecutor(
            max_workers=self.settings.workers,
            mp_context=ctx,
            initializer=workers.init_worker,
            initargs=((channel.writer, channel.lock),),
        )
        return pool, channel

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


async def _forward(job: _Job, queue: asyncio.Queue | None, req_id, send) -> tuple:
    """Send a streamed waiter's partial frames as they arrive, then
    return its job's outcome (shielded: a waiter that gives up leaves
    the job running for the others)."""
    if queue is not None:
        while (frame := await queue.get()) is not None:
            await send(dict(frame, id=req_id, type="partial"))
    return await asyncio.shield(job.task)


def _task_key(payload: dict) -> str:
    return f"serve/{payload.get('kind')}/{stable_digest(payload)}"


def response_key(cache: ResultCache, payload: dict) -> str:
    """The response-cache address of ``payload``: the entry an
    :class:`ExperimentRunner` with ``cache`` attached would use for the
    ``serve/{kind}/{stable_digest(payload)}`` task over ``payload``."""
    return cache.entry_key(_task_key(payload), payload=((payload,), {}))
