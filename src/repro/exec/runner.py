"""`ExperimentRunner`: deterministic fan-out of independent tasks.

The design-space workloads of this repo -- Table-I rows, core/clock/
prefetch sweeps, the verify gate's oracle x backend matrix, fuzz
drivers -- are embarrassingly parallel: every task is an independent
pure function of ``(backend spec, workload, seed)``.  This module runs
such task sets over a :class:`concurrent.futures.ProcessPoolExecutor`
with three guarantees the bare executor does not give:

**Determinism.**  Results are returned in task order and every task's
randomness comes from :func:`~repro.exec.seeding.derive_seed` applied
to its stable key, so the output is byte-identical at any ``jobs``
level -- including ``jobs=1``, which runs inline in-process (no pool,
no pickling) and therefore preserves exact serial behaviour.

**Caching.**  With a :class:`~repro.exec.cache.ResultCache` attached,
completed task values are memoised on disk under a content address of
(task key, payload, seed, code version); hits skip execution entirely
and are counted for reporting.

**Failure containment.**  A worker exception is captured *in the
child* with its traceback and surfaced as a structured
:class:`TaskFailure` (kind ``"error"``); a worker dying outright
(segfault, ``os._exit``) fails with kind ``"broken-pool"`` instead of
leaking :class:`~concurrent.futures.process.BrokenProcessPool`.  Each
task runs exactly once; every :meth:`ExperimentRunner.run` starts on a
fresh pool, so a caller that wants to retry simply runs the failed
task again.

Task functions must be picklable (module-level) for ``jobs > 1``; on
POSIX the default fork start method also carries dynamically
registered backends into the workers.
"""

from __future__ import annotations

import traceback as _traceback
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.exec.cache import ResultCache, default_cache
from repro.exec.seeding import derive_seed

__all__ = [
    "TaskSpec",
    "TaskResult",
    "TaskFailure",
    "ExecStats",
    "ExperimentRunner",
    "invoke",
]


class TaskFailure(RuntimeError):
    """One task's structured failure record.

    Attributes
    ----------
    key:
        The failing task's key.
    kind:
        ``"error"`` (the task function raised) or ``"broken-pool"``
        (the worker process died without reporting back).
    message:
        One-line summary (exception type + message, or the pool
        diagnosis).
    child_traceback:
        The full traceback formatted *in the worker*, empty when the
        child could not report (broken pool).
    """

    def __init__(
        self, key: str, kind: str, message: str, child_traceback: str = ""
    ) -> None:
        super().__init__(f"task {key!r} failed ({kind}): {message}")
        self.key = key
        self.kind = kind
        self.message = message
        self.child_traceback = child_traceback

    def format(self) -> str:
        """Human-readable report: summary + child traceback."""
        lines = [str(self)]
        if self.child_traceback:
            lines.append("  child traceback:")
            lines.extend(
                "    " + ln for ln in self.child_traceback.rstrip().splitlines()
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class TaskSpec:
    """One independent unit of work.

    ``key`` must be unique within a run: it orders results, derives the
    task seed and addresses the cache.  ``fn(*args, **kwargs)`` must be
    picklable for parallel execution.  If ``seed_arg`` is set and the
    runner has a ``root_seed``, the derived per-task seed is injected
    under that keyword.  ``cacheable=False`` opts a task out of the
    result cache (e.g. tasks reading mutable files).
    """

    key: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    seed_arg: str | None = None
    cacheable: bool = True


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one task (success, cache hit, or failure)."""

    key: str
    value: Any = None
    seed: int | None = None
    cached: bool = False
    seconds: float = 0.0
    failure: TaskFailure | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class ExecStats:
    """Aggregate accounting for one :meth:`ExperimentRunner.run`."""

    jobs: int = 1
    tasks: int = 0
    completed: int = 0
    failed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    pool_rebuilds: int = 0
    """Worker pools that died mid-run (the next run starts on a fresh
    pool)."""
    wall_seconds: float = 0.0

    def format(self) -> str:
        cache = (
            f"cache {self.cache_hits} hit / {self.cache_misses} miss"
            if (self.cache_hits or self.cache_misses)
            else "cache off"
        )
        return (
            f"jobs={self.jobs}, {self.tasks} tasks "
            f"({self.completed} ok, {self.failed} failed), {cache}, "
            f"{self.wall_seconds:.2f}s wall"
        )


def invoke(fn: Callable[..., Any], args: tuple, kwargs: dict) -> tuple:
    """Run one task, capturing failures *with traceback*.

    Runs in the worker (or inline for serial runs).  Returns
    ``("ok", value, seconds)`` or ``("err", (type, message, tb), seconds)``
    -- always picklable, so a task exception can never surface as an
    opaque pool crash.
    """
    t0 = perf_counter()
    try:
        value = fn(*args, **kwargs)
        return ("ok", value, perf_counter() - t0)
    except Exception as exc:  # noqa: BLE001 -- re-raised structured
        detail = (type(exc).__name__, str(exc), _traceback.format_exc())
        return ("err", detail, perf_counter() - t0)


@dataclass
class _Prepared:
    """A task with its derived seed, final kwargs and cache address."""

    task: TaskSpec
    kwargs: dict
    seed: int | None
    cache_key: str | None


class ExperimentRunner:
    """Deterministic parallel executor for independent experiment tasks.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (the default) runs inline and
        preserves serial behaviour exactly.
    root_seed:
        Root of the per-task seed derivation; tasks with a
        ``seed_arg`` receive ``derive_seed(root_seed, task.key)``.
    cache:
        A :class:`~repro.exec.cache.ResultCache`, ``None`` to disable,
        or the default sentinel which enables caching iff
        ``REPRO_CACHE_DIR`` is set (see
        :func:`~repro.exec.cache.default_cache`).
    """

    _ENV = object()  # sentinel: resolve cache from the environment

    def __init__(
        self,
        jobs: int = 1,
        root_seed: int | None = None,
        cache: ResultCache | None | object = _ENV,
    ) -> None:
        if int(jobs) < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.root_seed = root_seed
        self.cache = default_cache() if cache is ExperimentRunner._ENV else cache
        self.stats = ExecStats(jobs=self.jobs)

    # -- public API ------------------------------------------------------

    def run(
        self, tasks: Sequence[TaskSpec], strict: bool = True
    ) -> list[TaskResult]:
        """Execute ``tasks``; results come back in task order.

        Each task runs once.  With ``strict=True`` (default) the first
        :class:`TaskFailure` is raised once every task has run;
        ``strict=False`` returns failures embedded in their
        :class:`TaskResult`.
        """
        t0 = perf_counter()
        stats = ExecStats(jobs=self.jobs, tasks=len(tasks))
        seen: set[str] = set()
        for task in tasks:
            if task.key in seen:
                raise ValueError(f"duplicate task key {task.key!r}")
            seen.add(task.key)

        results: dict[str, TaskResult] = {}
        pending: list[_Prepared] = []
        for task in tasks:
            prepared = self._prepare(task)
            if prepared.cache_key is not None:
                hit, value = self.cache.get(prepared.cache_key)
                if hit:
                    stats.cache_hits += 1
                    results[task.key] = TaskResult(
                        key=task.key,
                        value=value,
                        seed=prepared.seed,
                        cached=True,
                    )
                    continue
                stats.cache_misses += 1
            pending.append(prepared)

        if self.jobs == 1:
            self._run_serial(pending, results)
        else:
            self._run_parallel(pending, results, stats)

        stats.completed = sum(1 for r in results.values() if r.ok)
        stats.failed = sum(1 for r in results.values() if not r.ok)
        stats.wall_seconds = perf_counter() - t0
        self.stats = stats

        ordered = [results[t.key] for t in tasks]
        if strict:
            for res in ordered:
                if res.failure is not None:
                    raise res.failure
        return ordered

    def map(
        self,
        fn: Callable[..., Any],
        payloads: Iterable[Any],
        name: str | None = None,
        seed_arg: str | None = None,
    ) -> list[Any]:
        """Convenience: apply ``fn`` to payload tuples, return values.

        Each payload is a tuple of positional arguments (bare values
        are wrapped).  Keys are ``<name>/<index>``.
        """
        prefix = name or getattr(fn, "__qualname__", "task")
        tasks = [
            TaskSpec(
                key=f"{prefix}/{i}",
                fn=fn,
                args=p if isinstance(p, tuple) else (p,),
                seed_arg=seed_arg,
            )
            for i, p in enumerate(payloads)
        ]
        return [r.value for r in self.run(tasks, strict=True)]

    # -- internals -------------------------------------------------------

    def _prepare(self, task: TaskSpec) -> _Prepared:
        kwargs = dict(task.kwargs)
        seed = None
        if task.seed_arg is not None and self.root_seed is not None:
            seed = derive_seed(self.root_seed, task.key)
            kwargs[task.seed_arg] = seed
        cache_key = None
        if self.cache is not None and task.cacheable:
            cache_key = self.cache.entry_key(
                task.key, payload=(task.args, kwargs), seed=seed
            )
        return _Prepared(task=task, kwargs=kwargs, seed=seed, cache_key=cache_key)

    def _record_success(
        self,
        prepared: _Prepared,
        value: Any,
        seconds: float,
        results: dict[str, TaskResult],
    ) -> None:
        if prepared.cache_key is not None:
            self.cache.put(prepared.cache_key, value)
        results[prepared.task.key] = TaskResult(
            key=prepared.task.key,
            value=value,
            seed=prepared.seed,
            seconds=seconds,
        )

    @staticmethod
    def _record_failure(
        prepared: _Prepared,
        results: dict[str, TaskResult],
        kind: str,
        message: str,
        child_traceback: str = "",
    ) -> None:
        key = prepared.task.key
        results[key] = TaskResult(
            key=key,
            seed=prepared.seed,
            failure=TaskFailure(key, kind, message, child_traceback),
        )

    def _record_outcome(
        self, prepared: _Prepared, outcome: tuple, results: dict[str, TaskResult]
    ) -> None:
        """File one :func:`invoke` outcome as a success or an error."""
        status, payload, seconds = outcome
        if status == "ok":
            self._record_success(prepared, payload, seconds, results)
        else:
            etype, msg, tb = payload
            self._record_failure(prepared, results, "error", f"{etype}: {msg}", tb)

    def _run_serial(
        self, pending: list[_Prepared], results: dict[str, TaskResult]
    ) -> None:
        for prepared in pending:
            outcome = invoke(prepared.task.fn, prepared.task.args, prepared.kwargs)
            self._record_outcome(prepared, outcome, results)

    def _run_parallel(
        self,
        pending: list[_Prepared],
        results: dict[str, TaskResult],
        stats: ExecStats,
    ) -> None:
        if not pending:
            return
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(pending)))
        futures = [
            pool.submit(invoke, p.task.fn, p.task.args, p.kwargs)
            for p in pending
        ]
        broken = False
        for prepared, fut in zip(pending, futures):
            if broken and not fut.done():
                self._record_failure(
                    prepared,
                    results,
                    "broken-pool",
                    "worker pool died before this task completed",
                )
                continue
            try:
                outcome = fut.result()
            except (BrokenProcessPool, CancelledError) as exc:
                broken = True
                self._record_failure(
                    prepared,
                    results,
                    "broken-pool",
                    str(exc) or "worker process died without reporting back",
                )
            except Exception as exc:  # e.g. unpicklable result
                self._record_failure(
                    prepared, results, "error", f"{type(exc).__name__}: {exc}"
                )
            else:
                self._record_outcome(prepared, outcome, results)
        # Never join the workers: after a break some are still dying,
        # and the next run builds a fresh pool anyway.
        pool.shutdown(wait=False, cancel_futures=True)
        if broken:
            stats.pool_rebuilds += 1
