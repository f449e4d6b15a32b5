"""Wire-protocol unit tests: framing, validation, array transport."""

import asyncio
import json
import struct

import numpy as np
import pytest

from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ImageRequest,
    ProfileRequest,
    ProtocolError,
    RequestError,
    decode_array,
    decode_frames,
    encode_array,
    encode_frame,
    parse_request,
    read_frame,
)


def read_all(data: bytes, max_bytes: int = MAX_FRAME_BYTES):
    """Feed ``data`` through an asyncio StreamReader and read frames.

    Returns the list of outcomes: decoded dicts, ``None`` for clean
    EOF, or the raised :class:`ProtocolError`.
    """

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        out = []
        while True:
            try:
                frame = await read_frame(reader, max_bytes)
            except ProtocolError as exc:
                out.append(exc)
                if not exc.recoverable:
                    return out
                continue
            out.append(frame)
            if frame is None:
                return out

    return asyncio.run(run())


class TestFraming:
    def test_round_trip(self):
        obj = {"kind": "health", "id": 7}
        frames = read_all(encode_frame(obj))
        assert frames == [obj, None]

    def test_multiple_frames_in_one_buffer(self):
        objs = [{"id": i, "kind": "health"} for i in range(3)]
        buf = b"".join(encode_frame(o) for o in objs)
        assert read_all(buf) == objs + [None]
        assert decode_frames(buf) == objs

    def test_decode_frames_ignores_trailing_partial(self):
        buf = encode_frame({"id": 1}) + b"\x00\x00\x00\x08trunc"
        assert decode_frames(buf) == [{"id": 1}]

    def test_clean_eof_is_none(self):
        assert read_all(b"") == [None]

    def test_truncated_prefix_is_fatal(self):
        (err,) = read_all(b"\x00\x00")
        assert isinstance(err, ProtocolError)
        assert err.code == "truncated"
        assert not err.recoverable

    def test_truncated_body_is_fatal(self):
        (err,) = read_all(struct.pack(">I", 100) + b"short")
        assert err.code == "truncated"
        assert not err.recoverable

    def test_bad_json_is_recoverable_and_stream_stays_aligned(self):
        bad = b"not json at all!"
        buf = (
            struct.pack(">I", len(bad))
            + bad
            + encode_frame({"id": "after", "kind": "health"})
        )
        err, frame, eof = read_all(buf)
        assert isinstance(err, ProtocolError)
        assert err.code == "bad-json"
        assert err.recoverable
        assert frame == {"id": "after", "kind": "health"}
        assert eof is None

    def test_non_object_body_is_bad_json(self):
        body = json.dumps([1, 2, 3]).encode()
        (err, _eof) = read_all(struct.pack(">I", len(body)) + body)
        assert err.code == "bad-json"

    def test_oversized_frame_is_drained_and_recoverable(self):
        big = json.dumps({"pad": "x" * 5000}).encode()
        buf = (
            struct.pack(">I", len(big))
            + big
            + encode_frame({"id": "next", "kind": "health"})
        )
        err, frame, eof = read_all(buf, max_bytes=2048)
        assert err.code == "oversized"
        assert err.recoverable
        # The oversized body was consumed: the next frame decodes.
        assert frame == {"id": "next", "kind": "health"}
        assert eof is None

    def test_eof_inside_oversized_frame_is_fatal(self):
        (err,) = read_all(struct.pack(">I", 1 << 30) + b"only a little", max_bytes=2048)
        assert err.code == "truncated"
        assert not err.recoverable

    def test_encode_frame_enforces_the_limit(self):
        with pytest.raises(ProtocolError) as exc_info:
            encode_frame({"pad": "x" * 4096}, max_bytes=1024)
        assert exc_info.value.code == "oversized"


class TestParseRequest:
    def test_image_defaults(self):
        req = parse_request({"kind": "image", "id": "a"})
        assert isinstance(req, ImageRequest)
        assert (req.pulses, req.ranges, req.algorithm) == (64, 65, "ffbp")
        assert req.deadline_ms is None

    def test_payload_excludes_identity_and_delivery_fields(self):
        a = parse_request({"kind": "image", "id": "a", "deadline_ms": 5, "stream": True})
        b = parse_request({"kind": "image", "id": "b"})
        assert a.payload() == b.payload()

    def test_profile_round_trip(self):
        req = parse_request(
            {"kind": "profile", "id": 1, "backend": "analytic:e16", "kernel": "autofocus", "watchdog": 5000}
        )
        assert isinstance(req, ProfileRequest)
        assert req.watchdog == 5000

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "teleport"},
            {},
            {"kind": "image", "pulses": "many"},
            {"kind": "image", "pulses": True},
            {"kind": "image", "pulses": 1},
            {"kind": "image", "pulses": 1 << 20},
            {"kind": "image", "algorithm": "fft-magic"},
            {"kind": "image", "shards": 0},
            {"kind": "image", "shards": 4, "algorithm": "gbp"},
            {"kind": "image", "deadline_ms": 0},
            {"kind": "image", "deadline_ms": "fast"},
            {"kind": "image", "noise_sigma": "loud"},
            {"kind": "image", "noise_sigma": -0.5},
            {"kind": "profile", "kernel": "matmul"},
            {"kind": "profile", "backend": 42},
            {"kind": "profile", "watchdog": 0},
        ],
    )
    def test_bad_requests(self, obj):
        with pytest.raises(RequestError) as exc_info:
            parse_request(obj)
        assert exc_info.value.code == "bad-request"

    def test_unknown_backend_has_its_own_code(self):
        with pytest.raises(RequestError) as exc_info:
            parse_request({"kind": "profile", "backend": "quantum:q9000"})
        assert exc_info.value.code == "unknown-backend"


class TestImageEnvelope:
    """Image requests the kernels cannot answer, or would answer with a
    silent no-op, are refused at decode time as ``bad-request``."""

    @pytest.mark.parametrize(
        "fields, bound",
        [
            ({"pulses": 100}, "not a power of merge_base=2"),
            ({"pulses": 512, "ranges": 65}, "exceeds the sampling bound"),
            ({"shards": 3}, "power of merge base 2"),
            ({"shards": 8, "pulses": 4}, "8 shards need at least 8 pulses"),
        ],
        ids=["pulses-not-power", "sampling-bound", "shards-not-power", "too-many-shards"],
    )
    def test_unanswerable_ffbp_names_the_bound(self, fields, bound):
        with pytest.raises(RequestError) as exc_info:
            parse_request({"kind": "image", **fields})
        assert exc_info.value.code == "bad-request"
        assert bound in exc_info.value.detail

    @pytest.mark.parametrize(
        "fields",
        [
            {"algorithm": "rda", "interpolation": "bilinear"},
            {"algorithm": "gbp", "interpolation": "cubic_range"},
            {"algorithm": "rda", "phase_correction": True},
            {"algorithm": "gbp", "phase_correction": True},
            {"interpolation": "bilinear", "phase_correction": True},
            {"interpolation": "cubic_range", "phase_correction": True},
        ],
        ids=[
            "rda-interpolation",
            "gbp-interpolation",
            "rda-phase",
            "gbp-phase",
            "bilinear-phase",
            "cubic-phase",
        ],
    )
    def test_silent_no_ops_are_refused(self, fields):
        with pytest.raises(RequestError) as exc_info:
            parse_request({"kind": "image", **fields})
        assert exc_info.value.code == "bad-request"
        bad = "interpolation" if "phase_correction" not in fields else "phase_correction"
        assert bad in exc_info.value.detail

    @pytest.mark.parametrize("pulses", [100, 512])
    def test_unplannable_ffbp_profile_is_refused(self, pulses):
        with pytest.raises(RequestError) as exc_info:
            parse_request({"kind": "profile", "pulses": pulses})
        assert exc_info.value.code == "bad-request"
        assert parse_request(
            {"kind": "profile", "kernel": "autofocus", "pulses": pulses}
        ).pulses == pulses

    @pytest.mark.parametrize(
        "fields",
        [
            {"pulses": 256},
            {"pulses": 256, "shards": 4},
            {"pulses": 64, "shards": 64},
            {"phase_correction": True},
            {"algorithm": "rda", "interpolation": "nearest", "phase_correction": False},
        ],
    )
    def test_answerable_requests_still_parse(self, fields):
        req = parse_request({"kind": "image", **fields})
        assert isinstance(req, ImageRequest)


class TestArrayTransport:
    def test_round_trip_complex(self):
        rng = np.random.default_rng(7)
        arr = rng.normal(size=(5, 9)) + 1j * rng.normal(size=(5, 9))
        payload = encode_array(arr)
        back = decode_array(payload)
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_json_serialisable(self):
        payload = encode_array(np.arange(6, dtype=np.float32).reshape(2, 3))
        again = json.loads(json.dumps(payload))
        np.testing.assert_array_equal(
            decode_array(again), np.arange(6, dtype=np.float32).reshape(2, 3)
        )

    def test_digest_mismatch_raises(self):
        payload = encode_array(np.arange(4.0))
        payload["sha256"] = "0" * 64
        with pytest.raises(ValueError, match="digest mismatch"):
            decode_array(payload)
