"""``table1-event``: paper-scale Table-I rows on the event engine.

Closed loop, one thread.  Each op is one Table-I row on ``event:e16``:
FFBP SPMD-16 at 1024x1001 or the 13-core autofocus MPMD pipeline.
Rows come in blocks of four -- three FFBP rows and one autofocus row,
in an order drawn from the seed -- so the median sits inside the FFBP
mode rather than in the gap between the two modes, and the autofocus
rows show in ``ops_per_s``.  ``plan_ffbp`` runs in setup, so each
FFBP op finds the plan memo warm.

Every op's cycles, energy and simulated traffic counters must equal
``golden.json`` (the same values as ``BENCH_10.json`` and the
``af_epi_par`` row of ``tests/golden/table1_small.json``).
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import repro.machine.chip  # noqa: F401  (the event engine: import in setup)
from repro.exec.seeding import derive_seed
from repro.kernels.autofocus_mpmd import run_autofocus_mpmd
from repro.kernels.ffbp_common import plan_ffbp
from repro.kernels.ffbp_spmd import run_ffbp_spmd
from repro.kernels.opcounts import AutofocusWorkload
from repro.machine.backends import get_machine
from repro.perf import clear_memo
from repro.sar.config import RadarConfig

from metrics import Window, per_op_ms

BACKEND = "event:e16"
GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())
BLOCK = ("ffbp_spmd16",) * 3 + ("autofocus_mpmd",)

TRACE_POINTS = [
    ("repro.kernels.ffbp_spmd", "ffbp_spmd_kernel", "kernels.build"),
    ("repro.kernels.autofocus_mpmd", "build_pipeline", "kernels.build"),
    ("repro.machine.chip", "EpiphanyChip.run", "machine.run"),
]


def fingerprint(machine, result) -> dict:
    trace = result.trace
    return {
        "cycles": int(result.cycles),
        "energy_j": float(result.energy_joules),
        "noc_messages": int(machine.mesh.messages),
        "dma_transfers": int(trace.dma_transfers),
        "ext_bytes": float(trace.total_ext_bytes),
        "stall_cycles": float(trace.stall_cycles),
    }


class Workload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cfg = RadarConfig.paper()
        self.work = AutofocusWorkload()
        self.n_ops = 0

    def setup(self) -> None:
        clear_memo()
        plan_ffbp(self.cfg)

    def teardown(self) -> None:
        pass

    def _kinds(self):
        block = 0
        while True:
            order = list(BLOCK)
            random.Random(derive_seed(self.seed, f"table1/block/{block}")).shuffle(order)
            yield from order
            block += 1

    def _op(self, kind: str, rec):
        with rec.span("machine.construct"):
            machine = get_machine(BACKEND)
        if kind == "ffbp_spmd16":
            result = run_ffbp_spmd(machine, plan_ffbp(self.cfg), 16)
        else:
            result = run_autofocus_mpmd(machine, self.work)
        return machine, result

    def run(self, seconds: float, rec) -> Window:
        win = Window()
        seen: dict[str, dict] = {}
        msgs = 0
        kinds = self._kinds()
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            win.probe.top_up()
            kind = next(kinds)
            self.n_ops += 1
            t0 = time.perf_counter()
            try:
                with rec.span("op", rid=self.n_ops):
                    machine, result = self._op(kind, rec)
            except Exception as exc:  # counted, reported, never fatal
                win.fail(f"{kind}: {type(exc).__name__}: {exc}")
                continue
            ms = (time.perf_counter() - t0) * 1e3
            fp = fingerprint(machine, result)
            if fp != GOLDEN[kind]:
                win.fail(f"{kind}: fingerprint {fp} != golden {GOLDEN[kind]}")
                continue
            win.ok(ms)
            seen[kind] = fp
            msgs += fp["noc_messages"] + fp["dma_transfers"]
        win.close()
        win.detail["sim"] = seen
        win.detail["msgs"] = msgs
        return win

    def layers(self, win: Window, rec) -> dict:
        ops = max(1, win.attempted)
        sim = win.detail["sim"]
        out = {
            "kernels.build_ms": per_op_ms(rec, "kernels.build", ops),
            "machine.construct_ms": per_op_ms(rec, "machine.construct", ops),
            "machine.run_ms": per_op_ms(rec, "machine.run", ops),
        }
        # One FFBP row plus one autofocus row: the deterministic counts.
        fields = {
            "machine.sim_cycles": "cycles",
            "machine.energy_j": "energy_j",
            "machine.sim_noc_messages": "noc_messages",
            "machine.sim_dma_transfers": "dma_transfers",
            "machine.sim_ext_bytes": "ext_bytes",
            "machine.sim_stall_cycles": "stall_cycles",
        }
        for metric, key in fields.items():
            out[metric] = sum(fp[key] for fp in sim.values())
        out["machine.host_us_per_msg"] = (
            rec.total_s("machine.run") * 1e6 / max(1, win.detail["msgs"])
        )
        return out

    def check(self) -> list[str]:
        return []
