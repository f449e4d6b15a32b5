"""Wire protocol of the serving tier: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON encoding one object.  The framing is
symmetric (requests and responses use the same envelope) and boring on
purpose: any language with sockets and a JSON parser is a client.

Containment mirrors the fault subsystem's philosophy (see
``docs/architecture.md`` §11): a malformed request must never take the
connection down, let alone the server.  Every recoverable input
problem -- unparseable JSON, an oversized payload, an unknown request
kind, a bad field, an unknown backend spec -- maps to a structured
``{"type": "error", "code": ..., "detail": ...}`` response and the
connection stays usable for the next frame.  Only a truncated frame
(the peer died mid-send) closes the connection.  A bad field includes
an FFBP image or profile the kernels cannot form (the detail names the
bound, from :func:`repro.sar.shard.check_ffbp`) and an option that
would be a silent no-op: ``shards``/``interpolation``/
``phase_correction`` with gbp or rda, ``phase_correction`` with a
non-nearest interpolation.

Request vocabulary (``kind`` field):

- ``image``    simulate a scene and form an image (ffbp/gbp/rda); with
  ``"stream": true`` the FFBP merge levels stream back as ``partial``
  frames while they complete,
- ``profile``  run a kernel timing model on a registry backend spec
  and return cycles/energy (watchdog-guarded; a stall comes back as a
  structured error with its blame report),
- ``health``   server status: uptime, counters, response-cache and
  geometry-memo stats, contained-fault history,
- ``shutdown`` ask the server to drain and exit cleanly.

Image payloads travel as base64 of the raw array bytes plus dtype,
shape and a SHA-256 digest, so clients can assert byte-identity
(the response cache's contract) without trusting float round-trips.

Resilience extensions (additive to ``repro-serve/1``; old clients see
only keys they ignore):

- error code ``overloaded`` -- admission control rejected the request
  (in-flight budget or per-connection cap exhausted, or the server is
  draining for shutdown); the response carries a ``retry_after_ms``
  hint,
- ``retries`` on batched terminal responses -- how many seeded-backoff
  retries the server spent before this answer,
- ``degraded: true`` plus ``degraded_to`` -- the circuit breaker
  tripped on the requested backend and the answer was computed on the
  named substitute spec one rung down the degradation ladder
  (``replay(event:*)`` for bare event specs, ``analytic:*`` below),
- profile requests accept ``fail_marker``/``fail_times`` (a filesystem
  token that makes the first N executions kill their worker process) --
  the chaos gate's hook for exercising pool self-healing end-to-end;
  the service rejects it unless booted with ``allow_chaos``.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Any

import numpy as np

PROTOCOL = "repro-serve/1"
MAX_FRAME_BYTES = 1 << 20
"""Default per-frame byte ceiling (requests and responses)."""

_LEN = struct.Struct(">I")

REQUEST_KINDS = ("image", "profile", "health", "shutdown")
ALGORITHMS = ("ffbp", "gbp", "rda")
PROFILE_KERNELS = ("ffbp", "autofocus")
MAX_PULSES = 4096
MAX_RANGES = 8192


class ProtocolError(Exception):
    """A framing-level problem.

    ``recoverable`` means the stream is still frame-aligned (the bad
    bytes were fully consumed) and the connection may continue after an
    error response; a non-recoverable error means the peer vanished
    mid-frame and the connection must close.
    """

    def __init__(self, code: str, detail: str, recoverable: bool = True) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.recoverable = recoverable


class RequestError(ValueError):
    """A well-framed request with bad content (always recoverable)."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def encode_frame(obj: Any, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialise one JSON-compatible object into a length-prefixed frame."""
    body = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()
    if len(body) > max_bytes:
        raise ProtocolError(
            "oversized",
            f"frame of {len(body)} bytes exceeds the {max_bytes}-byte limit",
        )
    return _LEN.pack(len(body)) + body


def decode_frames(buf: bytes) -> list[dict]:
    """Decode every complete frame in ``buf`` (testing helper)."""
    out: list[dict] = []
    view = memoryview(buf)
    while len(view) >= _LEN.size:
        (n,) = _LEN.unpack_from(view)
        if len(view) < _LEN.size + n:
            break
        out.append(json.loads(bytes(view[_LEN.size:_LEN.size + n])))
        view = view[_LEN.size + n:]
    return out


async def read_frame(reader, max_bytes: int = MAX_FRAME_BYTES) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`ProtocolError`:

    - ``oversized`` (recoverable): the declared length exceeds
      ``max_bytes``; the offending body is read *and discarded* so the
      stream stays frame-aligned,
    - ``bad-json`` (recoverable): the body is not a JSON object,
    - ``truncated`` (non-recoverable): EOF arrived mid-frame.
    """
    import asyncio

    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError(
            "truncated", "connection closed mid length prefix",
            recoverable=False,
        ) from exc
    (length,) = _LEN.unpack(header)
    if length > max_bytes:
        # Drain the oversized body so the next frame starts aligned.
        remaining = length
        try:
            while remaining:
                chunk = await reader.read(min(remaining, 1 << 16))
                if not chunk:
                    raise ProtocolError(
                        "truncated",
                        "connection closed inside an oversized frame",
                        recoverable=False,
                    )
                remaining -= len(chunk)
        except ProtocolError:
            raise
        raise ProtocolError(
            "oversized",
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit",
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            "truncated", "connection closed mid frame", recoverable=False
        ) from exc
    try:
        obj = json.loads(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad-json", f"unparseable frame body: {exc}")
    if not isinstance(obj, dict):
        raise ProtocolError(
            "bad-json", f"frame body must be a JSON object, got {type(obj).__name__}"
        )
    return obj


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

def _require_int(obj: dict, name: str, default: int, lo: int, hi: int) -> int:
    value = obj.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError("bad-request", f"{name!r} must be an integer")
    if not lo <= value <= hi:
        raise RequestError(
            "bad-request", f"{name!r} must be in [{lo}, {hi}], got {value}"
        )
    return value


def _require_choice(obj: dict, name: str, default: str, choices: tuple) -> str:
    value = obj.get(name, default)
    if value not in choices:
        raise RequestError(
            "bad-request", f"{name!r} must be one of {choices}, got {value!r}"
        )
    return value


def _noise_sigma(obj: dict) -> float:
    value = obj.get("noise_sigma", 0.05)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError("bad-request", "'noise_sigma' must be a number")
    if not 0 <= value <= 10:
        raise RequestError(
            "bad-request", f"'noise_sigma' must be in [0, 10], got {value}"
        )
    return float(value)


def _deadline_ms(obj: dict) -> float | None:
    value = obj.get("deadline_ms")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError("bad-request", "'deadline_ms' must be a number")
    if value <= 0:
        raise RequestError(
            "bad-request", f"'deadline_ms' must be positive, got {value}"
        )
    return float(value)


@dataclass(frozen=True)
class ImageRequest:
    """Simulate-and-form-an-image work order (the serving hot path)."""

    id: Any
    pulses: int = 64
    ranges: int = 65
    algorithm: str = "ffbp"
    interpolation: str = "nearest"
    phase_correction: bool = False
    shards: int = 1
    noise_seed: int = 1234
    noise_sigma: float = 0.05
    stream: bool = False
    stream_data: bool = False
    deadline_ms: float | None = None
    kind: str = field(default="image", init=False)

    def payload(self) -> dict:
        """The canonical, cache-addressable content of this request.

        Everything that determines the *result bytes* -- and nothing
        that does not (id, deadline, streaming preferences) -- so two
        tenants asking for the same image share one cache entry.
        """
        return {
            "kind": "image",
            "pulses": self.pulses,
            "ranges": self.ranges,
            "algorithm": self.algorithm,
            "interpolation": self.interpolation,
            "phase_correction": self.phase_correction,
            "shards": self.shards,
            "noise_seed": self.noise_seed,
            "noise_sigma": self.noise_sigma,
        }


@dataclass(frozen=True)
class ProfileRequest:
    """Run a kernel timing model on a backend spec."""

    id: Any
    backend: str = "analytic:e16"
    kernel: str = "ffbp"
    pulses: int = 64
    ranges: int = 65
    cores: int = 16
    watchdog: int | None = None
    deadline_ms: float | None = None
    fail_marker: str | None = None
    """Chaos hook: filesystem token whose first ``fail_times``
    claimants SIGKILL their worker process before computing (see
    :func:`repro.serve.workers.profile_kernel`).  Part of the payload
    when set -- a chaos request must never share a cache entry with
    the clean request it imitates."""
    fail_times: int = 1
    kind: str = field(default="profile", init=False)

    def payload(self) -> dict:
        payload = {
            "kind": "profile",
            "backend": self.backend,
            "kernel": self.kernel,
            "pulses": self.pulses,
            "ranges": self.ranges,
            "cores": self.cores,
            "watchdog": self.watchdog,
        }
        if self.fail_marker is not None:
            payload["fail_marker"] = self.fail_marker
            payload["fail_times"] = self.fail_times
        return payload


@dataclass(frozen=True)
class HealthRequest:
    id: Any
    kind: str = field(default="health", init=False)


@dataclass(frozen=True)
class ShutdownRequest:
    id: Any
    kind: str = field(default="shutdown", init=False)


Request = ImageRequest | ProfileRequest | HealthRequest | ShutdownRequest


def radar_config(pulses: int, ranges: int):
    """The radar geometry an image or profile request of this size runs on."""
    from repro.sar.config import RadarConfig

    return RadarConfig.small(n_pulses=pulses, n_ranges=ranges)


def _check_ffbp(
    pulses: int,
    ranges: int,
    shards: int,
    interpolation: str,
    phase_correction: bool,
) -> None:
    """Refuse FFBP work the kernels could not do, naming the bound."""
    from repro.sar.shard import check_ffbp

    try:
        check_ffbp(
            radar_config(pulses, ranges), shards, interpolation, phase_correction
        )
    except ValueError as exc:
        raise RequestError("bad-request", str(exc)) from exc


def parse_request(obj: dict) -> Request:
    """Validate one decoded frame into a typed request.

    Raises :class:`RequestError` (code ``bad-request`` or
    ``unknown-backend``) on anything off-contract; the caller answers
    with a structured error and keeps the connection.
    """
    req_id = obj.get("id")
    kind = obj.get("kind")
    if kind not in REQUEST_KINDS:
        raise RequestError(
            "bad-request",
            f"'kind' must be one of {REQUEST_KINDS}, got {kind!r}",
        )
    if kind == "health":
        return HealthRequest(id=req_id)
    if kind == "shutdown":
        return ShutdownRequest(id=req_id)
    if kind == "image":
        pulses = _require_int(obj, "pulses", 64, 2, MAX_PULSES)
        ranges = _require_int(obj, "ranges", 65, 3, MAX_RANGES)
        algorithm = _require_choice(obj, "algorithm", "ffbp", ALGORITHMS)
        shards = _require_int(obj, "shards", 1, 1, 64)
        interpolation = _require_choice(
            obj, "interpolation", "nearest",
            ("nearest", "bilinear", "cubic_range"),
        )
        phase_correction = bool(obj.get("phase_correction", False))
        if algorithm == "ffbp":
            _check_ffbp(pulses, ranges, shards, interpolation, phase_correction)
        else:
            # FFBP-only fields would be silent no-ops that still split
            # the response cache; refuse them as the CLI does.
            for name, value, default in (
                ("shards", shards, 1),
                ("interpolation", interpolation, "nearest"),
                ("phase_correction", phase_correction, False),
            ):
                if value != default:
                    raise RequestError(
                        "bad-request",
                        f"{name!r} applies to the ffbp algorithm, "
                        f"not {algorithm!r}",
                    )
        return ImageRequest(
            id=req_id,
            pulses=pulses,
            ranges=ranges,
            algorithm=algorithm,
            interpolation=interpolation,
            phase_correction=phase_correction,
            shards=shards,
            noise_seed=_require_int(obj, "noise_seed", 1234, 0, 2**63 - 1),
            noise_sigma=_noise_sigma(obj),
            stream=bool(obj.get("stream", False)),
            stream_data=bool(obj.get("stream_data", False)),
            deadline_ms=_deadline_ms(obj),
        )
    # profile
    backend = obj.get("backend", "analytic:e16")
    if not isinstance(backend, str):
        raise RequestError("bad-request", "'backend' must be a string")
    from repro.machine.backends import resolve_backend

    try:
        resolve_backend(backend)
    except ValueError as exc:
        raise RequestError("unknown-backend", str(exc)) from exc
    watchdog = obj.get("watchdog")
    if watchdog is not None:
        watchdog = _require_int(obj, "watchdog", 0, 1, 2**31)
    fail_marker = obj.get("fail_marker")
    fail_times = 1
    if fail_marker is not None:
        if not isinstance(fail_marker, str) or not fail_marker:
            raise RequestError(
                "bad-request", "'fail_marker' must be a non-empty string"
            )
        fail_times = _require_int(obj, "fail_times", 1, 1, 16)
    kernel = _require_choice(obj, "kernel", "ffbp", PROFILE_KERNELS)
    pulses = _require_int(obj, "pulses", 64, 2, MAX_PULSES)
    ranges = _require_int(obj, "ranges", 65, 3, MAX_RANGES)
    if kernel == "ffbp":
        # The cost plan walks the same merge tree as the image path.
        _check_ffbp(pulses, ranges, 1, "nearest", False)
    return ProfileRequest(
        id=req_id,
        backend=backend,
        kernel=kernel,
        pulses=pulses,
        ranges=ranges,
        cores=_require_int(obj, "cores", 16, 1, 4096),
        watchdog=watchdog,
        deadline_ms=_deadline_ms(obj),
        fail_marker=fail_marker,
        fail_times=fail_times,
    )


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------

def encode_array(arr: np.ndarray) -> dict:
    """Base64 payload of an array's exact bytes, with a digest."""
    arr = np.ascontiguousarray(arr)
    raw = arr.tobytes()
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data_b64": base64.b64encode(raw).decode("ascii"),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }


def decode_array(payload: dict) -> np.ndarray:
    """Inverse of :func:`encode_array`; verifies the digest."""
    raw = base64.b64decode(payload["data_b64"])
    digest = hashlib.sha256(raw).hexdigest()
    if digest != payload["sha256"]:
        raise ValueError(
            f"image digest mismatch: {digest} != {payload['sha256']}"
        )
    return np.frombuffer(raw, dtype=np.dtype(payload["dtype"])).reshape(
        payload["shape"]
    )


def error_response(req_id: Any, code: str, detail: str) -> dict:
    return {"id": req_id, "type": "error", "code": code, "detail": detail}
