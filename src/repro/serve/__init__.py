"""SAR-as-a-service: the async streaming image-formation tier.

The layer *above* the batch CLI (docs/architecture.md §14): a
long-running asyncio server that accepts image-formation and kernel-
profiling requests over a length-prefixed JSON protocol
(:mod:`repro.serve.protocol`), batches compatible requests, schedules
them onto the execution layer with the content-addressed
:class:`~repro.exec.cache.ResultCache` as a response cache, and
streams partial FFBP merge levels back as they complete
(:mod:`repro.serve.service`).  :mod:`repro.serve.load` is the paired
load generator / latency-percentile harness (``repro load``), emitting
one ``repro-load/1`` JSON document per run.
"""

from repro.serve.load import LOAD_SCHEMA, format_load, run_load, run_load_sync
from repro.serve.resilience import (
    AdmissionController,
    CircuitBreaker,
    RetryPolicy,
    RollingWindow,
    degrade_spec,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL,
    ProtocolError,
    RequestError,
    decode_array,
    encode_array,
    encode_frame,
    parse_request,
    read_frame,
)
from repro.serve.service import ImageService, ServeSettings, ServeStats

__all__ = [
    "PROTOCOL",
    "LOAD_SCHEMA",
    "MAX_FRAME_BYTES",
    "ImageService",
    "ServeSettings",
    "ServeStats",
    "ProtocolError",
    "RequestError",
    "encode_frame",
    "read_frame",
    "encode_array",
    "decode_array",
    "parse_request",
    "run_load",
    "run_load_sync",
    "format_load",
    "AdmissionController",
    "CircuitBreaker",
    "RetryPolicy",
    "RollingWindow",
    "degrade_spec",
]
