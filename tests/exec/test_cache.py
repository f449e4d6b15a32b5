"""Result cache: addressing, counters, invalidation, robustness."""

import sys
import threading

import numpy as np
import pytest

from repro.exec.cache import (
    ResultCache,
    code_version,
    default_cache,
    stable_digest,
)


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestStableDigest:
    def test_deterministic(self):
        payload = {"a": 1, "b": (2.0, "x"), "c": [1, 2, 3]}
        assert stable_digest(payload) == stable_digest(dict(payload))

    def test_value_sensitivity(self):
        assert stable_digest({"a": 1}) != stable_digest({"a": 2})
        assert stable_digest((1, 2)) != stable_digest((2, 1))

    def test_type_sensitivity(self):
        assert stable_digest(1) != stable_digest(1.0)
        assert stable_digest("1") != stable_digest(1)
        assert stable_digest([1]) != stable_digest((1,))

    def test_ndarray_contents_hash(self):
        a = np.arange(6, dtype=np.float64)
        b = np.arange(6, dtype=np.float64)
        assert stable_digest(a) == stable_digest(b)
        b[3] = -1.0
        assert stable_digest(a) != stable_digest(b)
        assert stable_digest(a) != stable_digest(a.astype(np.float32))

    def test_dataclass_fields_hash(self):
        from repro.machine.specs import EpiphanySpec

        assert stable_digest(EpiphanySpec()) == stable_digest(EpiphanySpec())
        assert stable_digest(EpiphanySpec()) != stable_digest(
            EpiphanySpec().with_clock(123e6)
        )


class TestEntryKey:
    def test_spec_workload_seed_version_all_key(self, cache):
        base = cache.entry_key("t", payload=(1,), seed=7, version="v1")
        assert base == cache.entry_key("t", payload=(1,), seed=7, version="v1")
        assert base != cache.entry_key("u", payload=(1,), seed=7, version="v1")
        assert base != cache.entry_key("t", payload=(2,), seed=7, version="v1")
        assert base != cache.entry_key("t", payload=(1,), seed=8, version="v1")
        assert base != cache.entry_key("t", payload=(1,), seed=7, version="v2")

    def test_default_version_is_code_version(self, cache):
        assert cache.entry_key("t") == cache.entry_key(
            "t", version=code_version()
        )

    def test_code_version_bump_invalidates(self, cache):
        key_now = cache.entry_key("t", payload=(1,), seed=0)
        cache.put(key_now, "value")
        # Simulate a source edit: the embedded code version changes, so
        # the same logical task addresses a different entry -> miss.
        key_after_edit = cache.entry_key(
            "t", payload=(1,), seed=0, version=code_version() + "x"
        )
        assert key_after_edit != key_now
        hit, _ = cache.get(key_after_edit)
        assert not hit


class TestStore:
    def test_roundtrip_and_counters(self, cache):
        key = cache.entry_key("t", payload=("a", 1))
        hit, value = cache.get(key)
        assert not hit and value is None
        cache.put(key, {"cycles": 123})
        hit, value = cache.get(key)
        assert hit and value == {"cycles": 123}
        assert cache.stats() == {
            "entries": 0,
            "bytes": 0,
            "hits": 1,
            "misses": 1,
            "disk_hits": 1,
            "stores": 1,
            "evictions": 0,
        }

    def test_disk_only_values_stay_writable(self, cache):
        key = cache.entry_key("t")
        cache.put(key, np.arange(3.0))
        _, value = cache.get(key)
        value[0] = 7.0  # never shared, so never frozen

    def test_corrupt_entry_is_a_miss_and_dropped(self, cache):
        key = cache.entry_key("t")
        cache.put(key, [1, 2, 3])
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        hit, _ = cache.get(key)
        assert not hit
        assert not path.exists()
        # And the slot is reusable.
        cache.put(key, "fresh")
        assert cache.get(key) == (True, "fresh")

    def test_transient_read_failure_is_a_miss_that_keeps_the_entry(
        self, cache, monkeypatch
    ):
        """A flaky read (EIO, a slow mount) must NOT delete a good entry.

        Before PR 7 any read exception unlinked the file, so a single
        transient I/O error destroyed a valid cache entry that a
        concurrent reader (or the very next call) could have served.
        """
        key = cache.entry_key("t")
        cache.put(key, [1, 2, 3])
        path = cache._path(key)

        def flaky_read(p):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(cache, "_read_blob", flaky_read)
        hit, value = cache.get(key)
        assert not hit and value is None
        assert path.exists(), "transient read failure must not unlink"
        monkeypatch.undo()
        # The entry survives and serves the next reader.
        assert cache.get(key) == (True, [1, 2, 3])

    def test_only_confirmed_corruption_unlinks(self, cache, monkeypatch):
        """Unlink happens iff the *fully read* blob fails to unpickle."""
        key = cache.entry_key("t")
        cache.put(key, "good")
        path = cache._path(key)

        # Truncated pickle: the read succeeds, the unpickle fails ->
        # confirmed corrupt, dropped.
        path.write_bytes(path.read_bytes()[:-2])
        hit, _ = cache.get(key)
        assert not hit
        assert not path.exists()

        # Whereas a read error on a good entry leaves it in place.
        cache.put(key, "good again")
        monkeypatch.setattr(
            cache, "_read_blob", lambda p: (_ for _ in ()).throw(OSError())
        )
        assert cache.get(key) == (False, None)
        monkeypatch.undo()
        assert path.exists()
        assert cache.get(key) == (True, "good again")

    def test_unpicklable_value_skipped_gracefully(self, cache):
        key = cache.entry_key("t")
        cache.put(key, lambda: None)  # lambdas don't pickle
        assert cache.stores == 0
        hit, _ = cache.get(key)
        assert not hit


    def test_unwritable_root_is_a_counted_no_op(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("occupied")
        cache = ResultCache(not_a_dir)
        key = cache.entry_key("t")
        cache.put(key, [1, 2, 3])  # must not raise
        assert cache.stores == 0
        assert cache.get(key) == (False, None)
        assert cache.stats()["misses"] == 1


KIB_ARRAY = 128  # float64 elements: 1 KiB per array


class TestMemoryTier:
    def test_lru_evicts_the_least_recently_used(self):
        cache = ResultCache(budget_bytes=2 * 1024)
        for name in ("a", "b"):
            cache.put(name, np.zeros(KIB_ARRAY))
        assert cache.get("a")[0]  # "a" is now the most recent
        cache.put("c", np.zeros(KIB_ARRAY))  # evicts "b", not "a"
        assert cache.get("a")[0] and cache.get("c")[0]
        assert cache.get("b") == (False, None)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert stats["bytes"] == 2 * 1024

    def test_value_larger_than_budget_never_resident(self):
        cache = ResultCache(budget_bytes=512)
        big = np.zeros(1024)  # 8 KiB > budget
        cache.put("big", big)
        assert cache.stats()["entries"] == 0
        assert cache.stores == 0
        assert big.flags.writeable  # only resident values are frozen

    def test_zero_budget_means_no_memory_tier(self):
        cache = ResultCache(budget_bytes=0)
        value = np.arange(4.0)
        cache.put("k", value)
        assert cache.get("k") == (False, None)
        assert cache.stats()["entries"] == 0
        assert value.flags.writeable

    def test_hits_return_the_frozen_resident_value(self):
        cache = ResultCache(budget_bytes=1 << 20)
        value = {"arr": np.arange(4.0)}
        cache.put("k", value)
        hit, got = cache.get("k")
        assert hit and got is value
        with pytest.raises(ValueError):
            got["arr"][0] = 1.0

    def test_clear_drops_residents_and_keeps_counters(self):
        cache = ResultCache(budget_bytes=1 << 20)
        cache.put("k", np.zeros(2))
        cache.get("k")
        cache.clear()
        stats = cache.stats()
        assert (stats["entries"], stats["bytes"]) == (0, 0)
        assert (stats["hits"], stats["stores"]) == (1, 1)


class TestTiers:
    def test_disk_hit_is_promoted_into_memory(self, tmp_path):
        cache = ResultCache(tmp_path, budget_bytes=1 << 20)
        key = cache.entry_key("t")
        cache.put(key, {"arr": np.arange(6.0)})
        cache.clear()  # the disk copy survives
        hit, value = cache.get(key)
        assert hit
        np.testing.assert_array_equal(value["arr"], np.arange(6.0))
        with pytest.raises(ValueError):
            value["arr"][0] = 1.0  # resident again, so frozen
        assert cache.get(key)[1] is value  # served from memory now
        stats = cache.stats()
        assert (stats["hits"], stats["disk_hits"], stats["misses"]) == (2, 1, 0)
        assert stats["entries"] == 1

    def test_disk_false_skips_the_disk_tier(self, tmp_path):
        cache = ResultCache(tmp_path, budget_bytes=1 << 20)
        cache.put("k", np.zeros(2), disk=False)
        assert list(tmp_path.iterdir()) == []
        cache.put("d", np.zeros(2))
        cache.clear()
        assert cache.get("d", disk=False) == (False, None)
        assert cache.get("d")[0]

    def test_concurrent_use_of_one_store(self, tmp_path):
        """``ImageService`` shares one store across its worker threads."""
        cache = ResultCache(tmp_path, budget_bytes=24 * 1024)
        n_threads, rounds, n_keys = 8, 2000, 12
        expected = {f"k{i}": np.full(KIB_ARRAY, float(i)) for i in range(n_keys)}
        start = threading.Barrier(n_threads)
        bad: list[str] = []

        def worker(t: int) -> None:
            start.wait()
            for r in range(rounds):
                key = f"k{(t * 7 + r) % n_keys}"
                hit, value = cache.get(key)
                if hit:
                    if not np.array_equal(value, expected[key]):
                        bad.append(key)
                else:
                    cache.put(key, expected[key].copy())
                if r % 20 == 19:
                    cache.clear()

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)

        assert bad == []
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == n_threads * rounds
        resident = list(cache._memory.values())
        assert stats["entries"] == len(resident)
        assert stats["bytes"] == sum(size for _, size in resident)
        assert stats["bytes"] <= cache.budget_bytes


class TestEnvironmentDefaults:
    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "d"))
        cache = default_cache()
        assert cache is not None
        assert cache.root == tmp_path / "d"
        cache.put(cache.entry_key("t"), [1])
        assert (tmp_path / "d").is_dir()

    def test_default_cache_off_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache() is None

    def test_default_cache_on_with_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = default_cache()
        assert cache is not None
        assert cache.root == tmp_path


class TestCodeVersion:
    def test_stable_within_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16
