"""ExperimentRunner: determinism, failure containment, caching.

Worker functions live at module level so they pickle for the process
pool (``tests`` is a package; fork workers re-import by name).
"""

import os

import pytest

from repro.exec import (
    ExperimentRunner,
    ResultCache,
    TaskFailure,
    TaskSpec,
    derive_seed,
)


# -- picklable worker functions ---------------------------------------------

def _square(x):
    return x * x


def _echo_seed(tag, seed=None):
    return (tag, seed)


def _boom(x):
    raise ValueError(f"injected failure {x}")


def _exit_hard():
    os._exit(13)  # simulate a segfaulting worker


def _sigkill_self():
    import signal

    os.kill(os.getpid(), signal.SIGKILL)  # harder than os._exit: no cleanup


def _sigkill_until_marked(marker, payload):
    """SIGKILL the worker once (claiming ``marker``), then compute."""
    import signal

    try:
        fd = os.open(f"{marker}", os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return payload * payload
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _tasks(n):
    return [TaskSpec(key=f"sq/{i}", fn=_square, args=(i,)) for i in range(n)]


# -- determinism ------------------------------------------------------------

class TestDeterminism:
    def test_serial_results_in_task_order(self):
        runner = ExperimentRunner(jobs=1, cache=None)
        results = runner.run(_tasks(6))
        assert [r.value for r in results] == [i * i for i in range(6)]
        assert [r.key for r in results] == [f"sq/{i}" for i in range(6)]

    def test_parallel_equals_serial(self):
        serial = ExperimentRunner(jobs=1, cache=None).run(_tasks(8))
        parallel = ExperimentRunner(jobs=4, cache=None).run(_tasks(8))
        assert [r.value for r in serial] == [r.value for r in parallel]
        assert [r.key for r in serial] == [r.key for r in parallel]

    def test_seed_injection_matches_derivation_at_any_jobs(self):
        tasks = [
            TaskSpec(
                key=f"mc/{i}", fn=_echo_seed, args=(i,), seed_arg="seed"
            )
            for i in range(5)
        ]
        expected = [(i, derive_seed(99, f"mc/{i}")) for i in range(5)]
        for jobs in (1, 3):
            runner = ExperimentRunner(jobs=jobs, root_seed=99, cache=None)
            results = runner.run(tasks)
            assert [r.value for r in results] == expected
            assert [r.seed for r in results] == [s for _, s in expected]

    def test_no_root_seed_means_no_injection(self):
        runner = ExperimentRunner(jobs=1, cache=None)
        (res,) = runner.run(
            [TaskSpec(key="t", fn=_echo_seed, args=("t",), seed_arg="seed")]
        )
        assert res.value == ("t", None)

    def test_duplicate_keys_rejected(self):
        runner = ExperimentRunner(jobs=1, cache=None)
        with pytest.raises(ValueError, match="duplicate task key"):
            runner.run([_tasks(1)[0], _tasks(1)[0]])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)

    def test_map_convenience(self):
        runner = ExperimentRunner(jobs=2, cache=None)
        assert runner.map(_square, range(5)) == [0, 1, 4, 9, 16]


# -- failure containment ----------------------------------------------------

class TestFailures:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_child_traceback_surfaced(self, jobs):
        runner = ExperimentRunner(jobs=jobs, cache=None)
        results = runner.run(
            [
                TaskSpec(key="ok", fn=_square, args=(3,)),
                TaskSpec(key="bad", fn=_boom, args=(7,)),
            ],
            strict=False,
        )
        assert results[0].ok and results[0].value == 9
        failure = results[1].failure
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "error"
        assert "injected failure 7" in failure.message
        assert "ValueError" in failure.child_traceback
        assert "_boom" in failure.child_traceback
        assert "bad" in failure.format()

    def test_strict_raises_first_failure(self):
        runner = ExperimentRunner(jobs=1, cache=None)
        with pytest.raises(TaskFailure, match="injected failure"):
            runner.run([TaskSpec(key="bad", fn=_boom, args=(1,))])

    def test_dead_worker_reports_broken_pool_not_raw_exception(self):
        runner = ExperimentRunner(jobs=2, cache=None)
        results = runner.run(
            [
                TaskSpec(key="die", fn=_exit_hard),
                TaskSpec(key="ok", fn=_square, args=(4,)),
            ],
            strict=False,
        )
        assert results[0].failure is not None
        assert results[0].failure.kind == "broken-pool"
        # The runner never retries: the sibling either finished before the
        # pool broke or was collateral damage -- but collateral damage
        # must be the *structured* broken-pool kind, never a raw
        # BrokenProcessPool escaping the runner.
        if results[1].ok:
            assert results[1].value == 16
        else:
            assert results[1].failure.kind == "broken-pool"

    def test_sigkill_is_structured_broken_pool(self):
        """A SIGKILLed worker -- the closest stand-in for a segfault --
        must surface as a structured broken-pool TaskFailure, never as
        a raw BrokenProcessPool escape."""
        runner = ExperimentRunner(jobs=2, cache=None)
        (res,) = runner.run(
            [TaskSpec(key="die", fn=_sigkill_self)], strict=False
        )
        assert not res.ok
        failure = res.failure
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "broken-pool"
        assert "die" in failure.format()
        assert runner.stats.pool_rebuilds >= 1

    def test_sigkill_retry_heals_pool_and_recovers(self, tmp_path):
        """The runner runs a task once; the caller's retry after a
        worker SIGKILL must run on a *fresh* pool and recover -- the
        self-healing contract the serving tier's retry builds on."""
        marker = tmp_path / "kill-once"
        task = TaskSpec(key="heal", fn=_sigkill_until_marked, args=(marker, 6))
        runner = ExperimentRunner(jobs=2, cache=None)
        (dead,) = runner.run([task], strict=False)
        assert dead.failure is not None
        assert dead.failure.kind == "broken-pool"
        assert runner.stats.pool_rebuilds == 1
        (res,) = runner.run([task])
        assert res.ok and res.value == 36
        assert runner.stats.pool_rebuilds == 0

    def test_healed_runner_reruns_byte_identically(self, tmp_path):
        """After a broken-pool failure, subsequent submissions on the
        same runner succeed and match a never-broken runner exactly."""
        clean = ExperimentRunner(jobs=2, cache=None).run(_tasks(4))
        runner = ExperimentRunner(jobs=2, cache=None)
        (dead,) = runner.run(
            [TaskSpec(key="die", fn=_sigkill_self)], strict=False
        )
        assert dead.failure is not None
        assert dead.failure.kind == "broken-pool"
        healed = runner.run(_tasks(4))
        assert all(r.ok for r in healed)
        assert [r.value for r in healed] == [r.value for r in clean]
        assert [r.key for r in healed] == [r.key for r in clean]


# -- caching ----------------------------------------------------------------

class TestCaching:
    def test_second_run_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        r1 = ExperimentRunner(jobs=1, cache=cache)
        out1 = [r.value for r in r1.run(_tasks(4))]
        assert r1.stats.cache_hits == 0 and r1.stats.cache_misses == 4
        r2 = ExperimentRunner(jobs=1, cache=cache)
        results = r2.run(_tasks(4))
        assert [r.value for r in results] == out1
        assert all(r.cached for r in results)
        assert r2.stats.cache_hits == 4 and r2.stats.cache_misses == 0

    def test_parallel_run_can_consume_serial_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentRunner(jobs=1, cache=cache).run(_tasks(4))
        runner = ExperimentRunner(jobs=4, cache=cache)
        results = runner.run(_tasks(4))
        assert all(r.cached for r in results)
        assert [r.value for r in results] == [i * i for i in range(4)]

    def test_uncacheable_tasks_bypass(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = TaskSpec(key="t", fn=_square, args=(5,), cacheable=False)
        ExperimentRunner(jobs=1, cache=cache).run([task])
        runner = ExperimentRunner(jobs=1, cache=cache)
        (res,) = runner.run([task])
        assert not res.cached
        assert runner.stats.cache_hits == 0

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = TaskSpec(key="bad", fn=_boom, args=(1,))
        ExperimentRunner(jobs=1, cache=cache).run([task], strict=False)
        runner = ExperimentRunner(jobs=1, cache=cache)
        (res,) = runner.run([task], strict=False)
        assert not res.ok and not res.cached

    def test_stats_format_mentions_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(jobs=1, cache=cache)
        runner.run(_tasks(2))
        text = runner.stats.format()
        assert "cache" in text and "2 tasks" in text
