"""Unit tests for the process memo front-end (:mod:`repro.perf`).

The store itself (LRU order, byte budget, tiers, counters) is tested in
``tests/exec/test_cache.py``; these tests cover the front-end wiring.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import repro.perf
from repro.exec.cache import ResultCache
from repro.perf import (
    clear_memo,
    freeze,
    memo_disabled,
    memo_enabled,
    memo_key,
    memo_stats,
    memoize,
)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


class TestMemoize:
    def test_hit_returns_same_object(self):
        calls = []

        def build():
            calls.append(1)
            return np.arange(8.0)

        a = memoize(memo_key("t/hit", ("k",)), build)
        b = memoize(memo_key("t/hit", ("k",)), build)
        assert a is b
        assert len(calls) == 1

    def test_distinct_payloads_build_separately(self):
        a = memoize(memo_key("t/d", (1,)), lambda: np.zeros(3))
        b = memoize(memo_key("t/d", (2,)), lambda: np.ones(3))
        assert not np.array_equal(a, b)

    def test_kind_namespaces_keys(self):
        a = memoize(memo_key("t/ns1", ("same",)), lambda: np.zeros(2))
        b = memoize(memo_key("t/ns2", ("same",)), lambda: np.ones(2))
        assert not np.array_equal(a, b)

    def test_cached_arrays_are_frozen(self):
        arr = memoize(memo_key("t/frozen", ()), lambda: np.arange(4.0))
        with pytest.raises(ValueError):
            arr[0] = 99.0

    def test_disabled_builds_cold_and_writable(self):
        with memo_disabled():
            assert not memo_enabled()
            a = memoize(memo_key("t/off", ()), lambda: np.arange(4.0))
            b = memoize(memo_key("t/off", ()), lambda: np.arange(4.0))
        assert memo_enabled()
        assert a is not b
        a[0] = 5.0  # uncached values stay writable
        assert memo_stats()["entries"] == 0

    def test_zero_budget_disables(self, monkeypatch):
        monkeypatch.setattr(repro.perf, "_STORE", ResultCache(budget_bytes=0))
        a = memoize(memo_key("t/zb", ()), lambda: np.arange(4.0))
        b = memoize(memo_key("t/zb", ()), lambda: np.arange(4.0))
        assert a is not b
        a[0] = 5.0  # never resident, so never frozen
        assert memo_stats()["entries"] == 0

    def test_lru_eviction_under_budget(self, monkeypatch):
        # Budget fits ~2 of the 1 KiB arrays (plus key overhead).
        budget = 2 * 1024 + 200
        monkeypatch.setattr(
            repro.perf, "_STORE", ResultCache(budget_bytes=budget)
        )
        for i in range(4):
            memoize(memo_key("t/lru", (i,)), lambda: np.zeros(128))
        stats = memo_stats()
        assert stats["evictions"] == 2
        assert stats["bytes"] <= budget
        # The two most recent builds are the residents.
        calls = []
        for i in (2, 3):
            memoize(memo_key("t/lru", (i,)), lambda: calls.append(i))
        assert calls == []

    def test_value_larger_than_budget_never_resident(self, monkeypatch):
        monkeypatch.setattr(repro.perf, "_STORE", ResultCache(budget_bytes=512))
        memoize(memo_key("t/big", ()), lambda: np.zeros(1024))  # 8 KiB
        assert memo_stats()["entries"] == 0

    def test_stats_count_hits_and_misses(self):
        before = memo_stats()
        memoize(memo_key("t/st", ()), lambda: np.zeros(2))
        memoize(memo_key("t/st", ()), lambda: np.zeros(2))
        after = memo_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1
        assert after["stores"] == before["stores"] + 1

    def test_clear_of_one_type_keeps_the_rest(self):
        keep = memoize(memo_key("t/keep", ()), lambda: np.zeros(4))
        memoize(memo_key("t/drop", ()), lambda: (np.zeros(8),))
        assert memo_stats()["bytes"] == 32 + 64
        clear_memo(tuple)
        assert memo_stats()["entries"] == 1
        assert memo_stats()["bytes"] == 32
        assert memoize(memo_key("t/keep", ()), lambda: np.ones(4)) is keep
        clear_memo()
        assert (memo_stats()["entries"], memo_stats()["bytes"]) == (0, 0)

    def test_stats_have_the_store_shape(self):
        assert set(memo_stats()) == {
            "entries", "bytes", "hits", "misses", "disk_hits", "stores",
            "evictions",
        }


class TestMemoKey:
    def test_stable_across_calls(self):
        assert memo_key("k", (1, "a")) == memo_key("k", (1, "a"))

    def test_payload_sensitivity(self):
        assert memo_key("k", (1,)) != memo_key("k", (2,))

    def test_kind_sensitivity(self):
        assert memo_key("k", (1,)) != memo_key("j", (1,))


class TestFreeze:
    def test_freezes_nested_containers(self):
        obj = {"a": [np.zeros(2), (np.ones(2),)]}
        freeze(obj)
        with pytest.raises(ValueError):
            obj["a"][0][0] = 1.0
        with pytest.raises(ValueError):
            obj["a"][1][0][0] = 2.0

    def test_freezes_dataclass_fields(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Box:
            data: np.ndarray

        box = Box(np.zeros(3))
        freeze(box)
        with pytest.raises(ValueError):
            box.data[0] = 1.0


class TestDiskPersistence:
    @pytest.fixture()
    def store(self, tmp_path, monkeypatch):
        """The process memo, with a disk tier under ``tmp_path``."""
        store = ResultCache(tmp_path, budget_bytes=1 << 20)
        monkeypatch.setattr(repro.perf, "_STORE", store)
        return store

    def test_persist_round_trips_through_result_cache(self, store):
        calls = []

        def build():
            calls.append(1)
            return {"arr": np.arange(6.0)}

        key = memo_key("t/disk", ("p",))
        first = memoize(key, build, persist=True)
        clear_memo()  # drop the resident copy; disk survives
        second = memoize(key, build, persist=True)
        assert len(calls) == 1
        np.testing.assert_array_equal(first["arr"], second["arr"])
        assert memo_stats()["disk_hits"] == 1
        # The disk hit was promoted into memory, frozen.
        assert memoize(key, build, persist=True) is second
        with pytest.raises(ValueError):
            second["arr"][0] = 1.0

    def test_non_persisted_kinds_never_touch_disk(self, store, tmp_path):
        key = memo_key("t/mem-only", ())
        memoize(key, lambda: np.zeros(2))
        clear_memo()
        memoize(key, lambda: np.zeros(2))
        assert list(tmp_path.iterdir()) == []
        assert memo_stats()["disk_hits"] == 0
        assert memo_stats()["misses"] == 2

    def test_disk_tier_is_read_from_cache_dir_at_import(self):
        env = os.environ.get("REPRO_CACHE_DIR")
        assert repro.perf._STORE.root == (Path(env) if env else None)

    def test_no_disk_without_persist_or_cache_dir(self, monkeypatch):
        monkeypatch.setattr(
            repro.perf, "_STORE", ResultCache(None, budget_bytes=1 << 20)
        )
        key = memo_key("t/nodisk", ())
        memoize(key, lambda: np.zeros(2), persist=True)
        clear_memo()
        memoize(key, lambda: np.zeros(2), persist=True)
        assert memo_stats()["disk_hits"] == 0
        assert memo_stats()["misses"] == 2
