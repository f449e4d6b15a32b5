"""Load-harness tests: percentiles, the repro-load/1 document, CLI glue."""

import asyncio
import json

import pytest

from repro.serve import ImageService, ServeSettings
from repro.serve.load import LOAD_SCHEMA, dump_load, format_load, percentile, run_load


class TestPercentile:
    def test_single_sample(self):
        assert percentile([42.0], 50) == 42.0
        assert percentile([42.0], 99) == 42.0

    def test_median_interpolates(self):
        assert percentile([1.0, 3.0], 50) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_extremes(self):
        samples = [5.0, 1.0, 3.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 5.0

    def test_p99_tracks_the_tail(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.5
        assert 99.0 <= percentile(samples, 99) <= 100.0
        assert percentile(samples, 100) == 100.0

    def test_order_independent(self):
        assert percentile([9.0, 1.0, 5.0], 50) == percentile([1.0, 5.0, 9.0], 50)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 150)


class TestRunLoad:
    def _run(self, **load_kwargs):
        async def main():
            service = ImageService(
                ServeSettings(host="127.0.0.1", port=0, batch_window_ms=1.0)
            )
            await service.start()
            try:
                return await run_load("127.0.0.1", service.port, **load_kwargs)
            finally:
                await service.close()

        return asyncio.run(main())

    def test_document_shape_and_zero_errors(self):
        doc = self._run(
            clients=2, requests=3, payload={"pulses": 32, "ranges": 33}
        )
        assert doc["schema"] == LOAD_SCHEMA
        assert doc["total"] == 6
        assert doc["errors"] == 0
        assert doc["error_detail"] == []
        lat = doc["latency_ms"]
        assert 0 < lat["p50"] <= lat["p99"] <= lat["max"]
        assert doc["throughput_rps"] > 0
        # Identical requests: repeats must be cache/coalesce-served and
        # byte-identical across every client.
        assert doc["byte_identical"] is True
        assert doc["cached_responses"] >= 1
        assert doc["server"]["served"] >= 6
        assert doc["server"]["cache"]["hits"] + doc["server"]["coalesced"] >= 1
        # Latency split by outcome: the first request computes.
        for split in (doc["latency_ms_computed"], doc["latency_ms_cached"]):
            assert 0 < split["p50"] <= split["p99"] <= lat["max"]
        # The whole document must survive JSON (the bench trajectory).
        assert json.loads(dump_load(doc)) == doc

    def test_unique_mode_defeats_the_cache(self):
        doc = self._run(
            clients=2,
            requests=2,
            payload={"pulses": 32, "ranges": 33},
            unique=True,
        )
        assert doc["errors"] == 0
        assert doc["byte_identical"] is None
        assert doc["latency_ms_cached"] == {"p50": None, "p99": None}
        assert doc["latency_ms_computed"]["p50"] > 0

    def test_shutdown_after_stops_the_server(self):
        async def main():
            service = ImageService(
                ServeSettings(host="127.0.0.1", port=0, batch_window_ms=1.0)
            )
            await service.start()
            waiter = asyncio.create_task(service.serve_until_shutdown())
            doc = await run_load(
                "127.0.0.1",
                service.port,
                clients=1,
                requests=1,
                payload={"pulses": 32, "ranges": 33},
                shutdown_after=True,
            )
            await asyncio.wait_for(waiter, timeout=10)
            return doc

        doc = asyncio.run(main())
        assert doc["errors"] == 0

    def test_format_load_is_one_screen(self):
        doc = self._run(clients=1, requests=2, payload={"pulses": 32, "ranges": 33})
        text = format_load(doc)
        assert "p50" in text and "p99" in text
        assert "cached p50" in text and "computed p50" in text
        assert "byte-identical: yes" in text
        assert len(text.splitlines()) <= 6

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            asyncio.run(run_load("127.0.0.1", 1, clients=0))
