"""Cross-cutting performance layer: the process memo.

The FFBP merge geometry (paper eqs. 1-4), its gather tables, the kernel
cost plans and the replay tier's compiled schedules depend only on
their inputs, yet the hot paths would otherwise rebuild them for every
Monte-Carlo repeat, sweep point, oracle cell and golden build.  They
are memoised in one process-level :class:`~repro.exec.cache.ResultCache`:
a 256 MiB memory tier, plus a disk tier at ``$REPRO_CACHE_DIR`` (read
once, at import) for ``persist=True`` kinds only.

A hit returns the *same arrays* a cold build would produce;
:func:`memo_disabled` restores the exact uncached behaviour, and
``tests/perf/`` asserts byte identity between the two.  The package
imports nothing from ``repro`` outside ``repro.exec.cache``, so any
layer may use it without an import cycle.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.exec.cache import ResultCache, freeze

__all__ = [
    "clear_memo",
    "freeze",
    "memo_disabled",
    "memo_enabled",
    "memo_key",
    "memo_stats",
    "memoize",
]

_STORE = ResultCache(
    os.environ.get("REPRO_CACHE_DIR") or None, budget_bytes=256 * 1024 * 1024
)
_enabled = True


def memo_enabled() -> bool:
    """Whether the process memo is live (not inside :func:`memo_disabled`)."""
    return _enabled


@contextmanager
def memo_disabled() -> Iterator[None]:
    """Context manager: run with the exact uncached behaviour."""
    global _enabled
    prev = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = prev


def clear_memo(of_type: type | None = None) -> None:
    """Drop every resident entry, or only the values of type ``of_type``
    (disk entries and counters survive)."""
    _STORE.clear(of_type)


def memo_stats() -> dict[str, int]:
    """Snapshot of the memo counters (see :meth:`ResultCache.stats`)."""
    return _STORE.stats()


def memo_key(kind: str, payload: Any) -> str:
    """Content key of ``payload`` under ``kind``, for both tiers.

    :func:`~repro.exec.cache.stable_digest` hashes the payload
    structurally, so equal geometry means equal key across processes;
    the key embeds :func:`~repro.exec.cache.code_version`, so a source
    edit misses every persisted entry.
    """
    return _STORE.entry_key(f"perf/{kind}", payload)


def memoize(key: str, build: Callable[[], Any], persist: bool = False) -> Any:
    """Return ``build()`` memoised under ``key`` (see :func:`memo_key`).

    Lookup order: memory, then (``persist=True`` only) disk, then a
    cold build.  With the memo disabled this is exactly ``build()`` --
    no freezing, no stores.
    """
    if not _enabled:
        return build()
    hit, value = _STORE.get(key, disk=persist)
    if hit:
        return value
    value = build()
    _STORE.put(key, value, disk=persist)
    return value
