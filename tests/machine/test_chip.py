"""Tests for the assembled Epiphany chip and its core contexts."""

import json
from pathlib import Path

import pytest

from repro.machine.backends import get_machine
from repro.machine.chip import EpiphanyChip
from repro.machine.context import load, store
from repro.machine.core import OpBlock
from repro.machine.specs import EpiphanySpec


class TestChipRun:
    def test_single_core_compute(self):
        chip = EpiphanyChip()

        def prog(ctx):
            yield from ctx.work(OpBlock(flops=990))

        res = chip.run({0: prog})
        assert res.cycles == 1000  # 990 / 0.99 issue efficiency
        assert res.seconds == pytest.approx(1000 / 1e9)

    def test_no_programs_rejected(self):
        with pytest.raises(ValueError):
            EpiphanyChip().run({})

    def test_core_bounds(self):
        chip = EpiphanyChip()
        with pytest.raises(ValueError):
            chip.context(16)

    def test_results_collected_in_core_order(self):
        chip = EpiphanyChip()

        def make(i):
            def prog(ctx):
                yield from ctx.work(OpBlock(flops=10))
                return i * 10

            return prog

        res = chip.run({i: make(i) for i in range(4)})
        assert res.results == (0, 10, 20, 30)

    def test_traces_per_core(self):
        chip = EpiphanyChip()

        def prog(ctx):
            yield from ctx.work(OpBlock(flops=50, fmas=25))

        res = chip.run({0: prog, 1: prog})
        assert len(res.traces) == 2
        assert res.traces[0].total_flops == 100
        assert res.trace.total_flops == 200  # merged

    def test_barrier_synchronises_cores(self):
        chip = EpiphanyChip()
        after = {}

        def make(i):
            def prog(ctx):
                yield from ctx.work(OpBlock(flops=100 * (i + 1)))
                yield from ctx.barrier()
                after[i] = ctx.chip.engine.now

            return prog

        chip.run({0: make(0), 1: make(1), 2: make(2)})
        assert len(set(after.values())) == 1  # all released together


class TestExternalAccess:
    def test_read_stalls_core(self):
        chip = EpiphanyChip()

        def prog(ctx):
            yield from ctx.work(OpBlock(), [load(80)])

        res = chip.run({0: prog})
        # Mesh traversal + channel + latency: strictly more than the
        # pure bandwidth time.
        assert res.cycles > 80 / 8

    def test_posted_write_cheaper_than_read(self):
        def reader(ctx):
            yield from ctx.work(OpBlock(), [load(800)])

        def writer(ctx):
            yield from ctx.work(OpBlock(), [store(800)])

        r = EpiphanyChip().run({0: reader})
        w = EpiphanyChip().run({0: writer})
        assert w.cycles < r.cycles / 1.5

    def test_scatter_read_slower_than_streaming(self):
        """100 words fetched one-by-one cost far more than one 800-byte
        burst -- the FFBP gather penalty."""

        def scattered(ctx):
            yield from ctx.ext_scatter_read(100)

        def streamed(ctx):
            yield from ctx.work(OpBlock(), [load(800)])

        s = EpiphanyChip().run({0: scattered})
        b = EpiphanyChip().run({0: streamed})
        assert s.cycles > 5 * b.cycles

    def test_sixteen_core_reads_share_channel(self):
        def prog(ctx):
            yield from ctx.ext_scatter_read(100)

        one = EpiphanyChip().run({0: prog})
        sixteen = EpiphanyChip().run({i: prog for i in range(16)})
        # Contention must slow things, but far less than 16x (latency
        # overlaps across cores).
        assert sixteen.cycles > one.cycles
        assert sixteen.cycles < 16 * one.cycles

    def test_ext_traffic_traced(self):
        chip = EpiphanyChip()

        def prog(ctx):
            yield from ctx.work(OpBlock(), [load(160), store(320)])

        res = chip.run({0: prog})
        assert res.trace.ext_read_bytes == 160
        assert res.trace.ext_write_bytes == 320


class TestDma:
    def test_prefetch_overlaps_compute(self):
        """DMA + compute together finish earlier than serially."""

        def overlapped(ctx):
            tok = ctx.dma_prefetch(8000)
            yield from ctx.work(OpBlock(flops=2000))
            yield from ctx.dma_wait(tok)

        def serial(ctx):
            yield from ctx.work(OpBlock(), [load(8000)])
            yield from ctx.work(OpBlock(flops=2000))

        a = EpiphanyChip().run({0: overlapped})
        b = EpiphanyChip().run({0: serial})
        assert a.cycles < b.cycles

    def test_dma_counts_as_ext_traffic(self):
        chip = EpiphanyChip()

        def prog(ctx):
            tok = ctx.dma_prefetch(4096)
            yield from ctx.dma_wait(tok)

        res = chip.run({0: prog})
        assert res.trace.ext_read_bytes == 4096
        assert res.trace.dma_transfers == 1


class TestRemoteAccess:
    def test_remote_write_is_posted(self):
        chip = EpiphanyChip()

        def prog(ctx):
            yield from ctx.write_remote(5, 80)

        res = chip.run({0: prog})
        assert res.cycles == 10  # store issue only

    def test_remote_read_blocks_for_round_trip(self):
        chip = EpiphanyChip()

        def prog(ctx):
            yield from ctx.read_remote(5, 80)

        res = chip.run({0: prog})
        hops = chip.mesh.hops((0, 0), chip.context(5).coord)
        assert res.cycles >= 2 * hops + 10

    def test_local_allocation_enforced(self):
        chip = EpiphanyChip()
        ctx = chip.context(0)
        with pytest.raises(MemoryError):
            ctx.local.allocate(64 * 1024)


class TestEnergyAccounting:
    def test_busy_chip_power_near_datasheet(self):
        """All 16 cores busy at 1 GHz ~ the 2 W datasheet figure."""

        def prog(ctx):
            yield from ctx.work(OpBlock(fmas=100000))

        res = EpiphanyChip().run({i: prog for i in range(16)})
        assert 1.5 < res.average_power_w < 2.5

    def test_idle_cores_cost_little(self):
        def prog(ctx):
            yield from ctx.work(OpBlock(fmas=100000))

        one = EpiphanyChip().run({0: prog})
        assert one.average_power_w < 0.8

    def test_energy_scales_with_time(self):
        def short(ctx):
            yield from ctx.work(OpBlock(fmas=1000))

        def long(ctx):
            yield from ctx.work(OpBlock(fmas=10000))

        a = EpiphanyChip().run({0: short})
        b = EpiphanyChip().run({0: long})
        assert b.energy_joules > 5 * a.energy_joules

    def test_board_clock_slows_but_saves_nothing_per_cycle(self):
        """At 400 MHz the same program takes the same cycles, 2.5x the
        time."""
        spec = EpiphanySpec.board()

        def prog(ctx):
            yield from ctx.work(OpBlock(fmas=1000))

        a = EpiphanyChip().run({0: prog})
        b = EpiphanyChip(spec).run({0: prog})
        assert a.cycles == b.cycles
        assert b.seconds == pytest.approx(2.5 * a.seconds)


class TestPaperScaleEvents:
    """The paper-scale Table-I rows on ``event:e16`` pin the event
    sequence itself: the engine's schedule count and every simulated
    counter of ``perfbench/golden.json``.  A host-side optimisation of
    the engine, mesh, DMA or core model must leave both unchanged."""

    GOLDEN = json.loads(
        (Path(__file__).parents[2] / "perfbench" / "golden.json").read_text()
    )

    @staticmethod
    def _fingerprint(machine, result) -> dict:
        trace = result.trace
        return {
            "cycles": int(result.cycles),
            "energy_j": float(result.energy_joules),
            "noc_messages": int(machine.mesh.messages),
            "dma_transfers": int(trace.dma_transfers),
            "ext_bytes": float(trace.total_ext_bytes),
            "stall_cycles": float(trace.stall_cycles),
        }

    def test_ffbp_spmd16(self):
        from repro.kernels.ffbp_common import plan_ffbp
        from repro.kernels.ffbp_spmd import run_ffbp_spmd
        from repro.sar.config import RadarConfig

        machine = get_machine("event:e16")
        result = run_ffbp_spmd(machine, plan_ffbp(RadarConfig.paper()), 16)
        assert self._fingerprint(machine, result) == self.GOLDEN["ffbp_spmd16"]
        assert machine.engine._seq == 55_622

    def test_autofocus_mpmd(self):
        from repro.kernels.autofocus_mpmd import run_autofocus_mpmd
        from repro.kernels.opcounts import AutofocusWorkload

        machine = get_machine("event:e16")
        result = run_autofocus_mpmd(machine, AutofocusWorkload())
        assert self._fingerprint(machine, result) == self.GOLDEN["autofocus_mpmd"]
        assert machine.engine._seq == 42_785
