"""The content-addressed cache store: a memory tier, then a disk tier.

Sweeps and verification runs re-execute the same deterministic
simulations over and over (CI re-runs, report regeneration, design
iterations that only touch one axis of a sweep), and the hot paths
rebuild the same deterministic geometry for every run.  Since every
cached value is a pure function of its inputs and the simulator
source, it can be stored under a key that names exactly those inputs:

    sha256(task_key \\x1f payload_digest \\x1f seed \\x1f code_version)

- ``payload_digest`` canonically hashes the task's arguments
  (:func:`stable_digest` walks dataclasses, dicts, numpy arrays ...),
- ``code_version`` hashes every source file of the ``repro`` package,
  so *any* code change invalidates the whole cache -- conservative,
  but it can never serve a stale result after a model retune.

:class:`ResultCache` is the one store.  ``repro.perf`` runs a 256 MiB
memory tier per process; the runner and the serving tier use
disk-only stores.  The serving tier looks each request up on arrival
and answers a hit without batching it; its one process pool computes
only the misses, and the service stores their values.  Outside
serving the disk tier is **opt-in**: it is enabled exactly when
``REPRO_CACHE_DIR`` is set (:func:`default_cache`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "ResultCache",
    "default_cache",
    "code_version",
    "freeze",
    "stable_digest",
]

_CODE_VERSION: str | None = None


def code_version() -> str:
    """Hash of every ``repro`` source file (memoised per process).

    Cache entries embed this, so rebuilding after *any* edit under
    ``src/repro`` misses cleanly instead of replaying stale physics.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        root = Path(__file__).resolve().parents[1]  # src/repro
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\x00")
            h.update(path.read_bytes())
            h.update(b"\x00")
        _CODE_VERSION = h.hexdigest()[:16]
    return _CODE_VERSION


def _hash_into(h: "hashlib._Hash", obj: Any) -> None:
    """Canonical recursive hashing of task payloads.

    Handles the payload vocabulary the experiment layer actually uses
    (primitives, containers, frozen dataclasses, numpy arrays and
    scalars); anything else falls back to its pickle bytes, which is
    deterministic within one interpreter version -- acceptable because
    the cache key also embeds :func:`code_version`.
    """
    import numpy as np

    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        h.update(f"{type(obj).__name__}:{obj!r}\x1e".encode())
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}[{len(obj)}](\x1e".encode())
        for item in obj:
            _hash_into(h, item)
        h.update(b")\x1e")
    elif isinstance(obj, dict):
        h.update(f"dict[{len(obj)}](\x1e".encode())
        for key in sorted(obj, key=repr):
            _hash_into(h, key)
            _hash_into(h, obj[key])
        h.update(b")\x1e")
    elif isinstance(obj, np.ndarray):
        h.update(f"ndarray:{obj.dtype}:{obj.shape}\x1e".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        h.update(f"np:{obj.dtype}:{obj!r}\x1e".encode())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"dc:{type(obj).__qualname__}(\x1e".encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            h.update(b"=")
            _hash_into(h, getattr(obj, f.name))
        h.update(b")\x1e")
    else:
        h.update(b"pickle:")
        h.update(pickle.dumps(obj, protocol=4))


def stable_digest(obj: Any) -> str:
    """Hex digest of an arbitrary task payload (see :func:`_hash_into`)."""
    h = hashlib.sha256()
    _hash_into(h, obj)
    return h.hexdigest()


def default_cache() -> "ResultCache | None":
    """The opt-in default: a disk-only store iff ``REPRO_CACHE_DIR`` is set.

    Keeping the implicit default *off* preserves exact pre-existing
    behaviour (and CI determinism); exporting ``REPRO_CACHE_DIR``
    turns on cross-run memoisation everywhere at once.
    """
    root = os.environ.get("REPRO_CACHE_DIR")
    return ResultCache(root) if root else None


def _leaves(obj: Any) -> Iterator[Any]:
    """Leaves of a value, through mappings, lists, tuples and dataclasses."""
    if isinstance(obj, Mapping):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        children = (getattr(obj, f.name) for f in dataclasses.fields(obj))
    else:
        yield obj
        return
    for child in children:
        yield from _leaves(child)


def _nbytes(obj: Any) -> int:
    """Resident bytes of a value: array bytes, 64 per other leaf."""
    import numpy as np

    return sum(
        int(leaf.nbytes) if isinstance(leaf, np.ndarray) else 64
        for leaf in _leaves(obj)
    )


def freeze(obj: Any) -> Any:
    """Recursively mark every ndarray in ``obj`` read-only (in place).

    Memory-tier values are shared across callers; freezing turns a
    would-be silent cross-run corruption into an immediate
    ``ValueError`` at the mutation site.  Returns ``obj`` for chaining.
    """
    import numpy as np

    for leaf in _leaves(obj):
        if isinstance(leaf, np.ndarray):
            leaf.flags.writeable = False
    return obj


class ResultCache:
    """Content-addressed store: memory LRU first, then pickle directory.

    ``budget_bytes`` bounds the memory tier's resident array bytes
    (``0``: no memory tier); resident values are frozen because every
    hit shares them.  ``root`` holds the disk tier (``None``: none).
    :meth:`get` tries memory, then disk, and promotes a disk hit into
    memory; :meth:`put` writes both, best-effort.  One lock covers the
    memory tier and every counter; disk I/O runs outside it, since
    files are written by atomic rename.
    """

    def __init__(
        self, root: str | os.PathLike | None = None, budget_bytes: int = 0
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.budget_bytes = max(0, int(budget_bytes))
        self._memory: "OrderedDict[str, tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.stores = 0
        self.evictions = 0

    # -- keying ----------------------------------------------------------

    def entry_key(
        self,
        task_key: str,
        payload: Any = None,
        seed: int | None = None,
        version: str | None = None,
    ) -> str:
        """Content address of one task's result."""
        material = "\x1f".join(
            (
                task_key,
                stable_digest(payload),
                "" if seed is None else str(seed),
                version if version is not None else code_version(),
            )
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- store -----------------------------------------------------------

    def get(self, key: str, disk: bool = True) -> tuple[bool, Any]:
        """``(hit, value)`` from memory, else (with ``disk``) from disk.

        A disk hit also counts as a ``disk_hit`` and is promoted.
        """
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                return True, entry[0]
        found, value = False, None
        if disk and self.root is not None:
            found, value = self._disk_get(key)
            if found:
                self._admit(key, value)
        with self._lock:
            if found:
                self.hits += 1
                self.disk_hits += 1
            else:
                self.misses += 1
        return found, value

    def put(self, key: str, value: Any, disk: bool = True) -> None:
        """Store ``value`` in memory (if it fits) and, with ``disk``, on disk."""
        stored = self._admit(key, value)
        if disk and self.root is not None:
            stored = self._disk_put(key, value) or stored
        if stored:
            with self._lock:
                self.stores += 1

    def clear(self, of_type: type | None = None) -> None:
        """Drop the memory tier, or only its values of type ``of_type``
        (disk entries and counters survive)."""
        with self._lock:
            for key in [
                k
                for k, (v, _) in self._memory.items()
                if of_type is None or isinstance(v, of_type)
            ]:
                self._bytes -= self._memory.pop(key)[1]

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._memory),
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "stores": self.stores,
                "evictions": self.evictions,
            }

    def _admit(self, key: str, value: Any) -> bool:
        """Freeze ``value`` into the LRU unless it exceeds the whole
        budget; evict least-recently-used entries past the budget."""
        if self.budget_bytes <= 0:
            return False
        size = _nbytes(value)
        if size > self.budget_bytes:
            return False
        freeze(value)
        with self._lock:
            if key in self._memory:
                return False
            self._memory[key] = (value, size)
            self._bytes += size
            while self._bytes > self.budget_bytes:
                _k, (_v, sz) = self._memory.popitem(last=False)
                self._bytes -= sz
                self.evictions += 1
        return True

    def _read_blob(self, path: Path) -> bytes:
        """Read one entry's full bytes (separate for fault-injection tests)."""
        with open(path, "rb") as fh:
            return fh.read()

    def _disk_get(self, key: str) -> tuple[bool, Any]:
        """``(found, value)`` from disk; corrupt entries are dropped.

        Only a *confirmed-corrupt* entry is unlinked: the blob was read
        in full and still failed to unpickle.  A read that fails partway
        (EIO, EINTR, a transient mount hiccup) is just a miss -- the
        entry on disk may be perfectly good, and writers are atomic
        (temp + rename), so a concurrent ``put`` can never leave a
        half-written blob at ``path`` for readers to destroy.
        """
        path = self._path(key)
        try:
            blob = self._read_blob(path)
        except OSError:  # absent, or a transient read failure: keep it
            return False, None
        try:
            return True, pickle.loads(blob)
        except Exception:  # the full blob is corrupt: drop it
            try:
                path.unlink()
            except OSError:
                pass
            return False, None

    def _disk_put(self, key: str, value: Any) -> bool:
        """Atomic write (temp + rename); ``False`` when nothing landed."""
        try:
            blob = pickle.dumps(value, protocol=4)
        except Exception:
            return False  # caching is best-effort; the caller has the value
        path = self._path(key)
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
            return True
        except OSError:  # an unwritable root included
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            return False
