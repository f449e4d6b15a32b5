"""``verify-quick``: the quick conformance gate, one section at a time.

Closed loop, one thread.  Each op is one section of the quick gate --
the differential oracles, the fabric oracles, the replay oracles, the
golden fingerprints or the fuzz drivers -- made of the cells
``run_verify(quick=True)`` schedules for it, called through the verify
layer's public functions with the gate's own arguments.  The ops go
round in the gate's order; one round is the whole quick gate, and
``perf.memo`` is cleared before each round because every
``repro verify --quick`` starts from an empty memo.  A round takes
about 2.5 s, so a window holds a dozen rounds and about sixty ops.
The oracle, replay and golden sections each take about a fifth of a
round, so the median and the tail both fall among them.  This is the
only workload that runs the ``replay``, ``machine.fabric`` and
``verify`` layers.

Checks: every check of every op must pass, and every completed round
must hold exactly ``CHECKS`` checks.  After the window, one
``run_verify(quick=True)`` must exit 0 with ``CHECKS`` checks, so a
gate whose cells drift from this list fails the benchmark.  The
benchmark seed does not change the gate's inputs: the gate pins its
own seed.
"""

from __future__ import annotations

import re
import time
from functools import partial

from repro.perf import clear_memo
from repro.verify.fuzz import FUZZ_DRIVERS
from repro.verify.gate import DEFAULT_SEED, QUICK_FUZZ_CASES, QUICK_SPECS, run_verify
from repro.verify.golden import FINGERPRINTS, verify_golden
from repro.verify.oracles import (
    differential_oracle,
    fabric_identity_oracle,
    fabric_timing_oracle,
    oracle_workloads,
    work_parity_oracle,
)
from repro.verify.replay import replay_golden_oracle, replay_identity_oracle
from repro.verify.tolerance import failures

from metrics import Window, per_op_ms

CHECKS = 257
VERDICT_RE = re.compile(r"verify: (PASS|FAIL) \((\d+) checks, (\d+) failed\)")

TRACE_POINTS: list = []


def _oracle(name: str, spec: str):
    # Like the gate, rebuild the workloads inside the cell.
    wl = {w.name: w for w in oracle_workloads()}[name]
    return differential_oracle(
        wl, candidates=(f"analytic:{spec}",), reference=f"event:{spec}"
    )


def _work_parity(names: tuple[str, ...]):
    return work_parity_oracle([w for w in oracle_workloads() if w.name in names])


def gate_sections() -> dict[str, list]:
    """Span name -> the quick gate's cells of that section, in order."""
    quick = tuple(w.name for w in oracle_workloads() if w.quick)
    return {
        "verify.oracles": [
            partial(_oracle, name, spec) for name in quick for spec in QUICK_SPECS
        ] + [partial(_work_parity, quick)],
        "verify.fabric": [
            partial(fabric_identity_oracle, "ffbp"),
            partial(fabric_identity_oracle, "strip"),
            partial(fabric_timing_oracle, "2x(e16)"),
        ],
        "verify.replay": [
            partial(replay_identity_oracle, "ffbp_spmd16", "e16"),
            partial(replay_golden_oracle, "traffic_counters", "e16"),
        ],
        "verify.golden": [
            partial(verify_golden, name, None)
            for name, fp in FINGERPRINTS.items()
            if fp.quick
        ],
        "verify.fuzz": [
            partial(fn, DEFAULT_SEED, QUICK_FUZZ_CASES) for fn in FUZZ_DRIVERS.values()
        ],
    }


class Workload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sections: dict[str, list] = {}

    def setup(self) -> None:
        clear_memo()
        self.sections = gate_sections()

    def teardown(self) -> None:
        clear_memo()

    def run(self, seconds: float, rec) -> Window:
        win = Window()
        order = list(self.sections)
        rounds: list[int] = []
        n_checks = 0
        i = 0
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            win.probe.top_up()
            pos = i % len(order)
            i += 1
            if pos == 0:
                clear_memo()
            section = order[pos]
            t0 = time.perf_counter()
            try:
                with rec.span("op", rid=i), rec.span(section):
                    checks = [c for cell in self.sections[section] for c in cell()]
            except Exception as exc:  # counted, reported, never fatal
                win.fail(f"{section}: {type(exc).__name__}: {exc}")
            else:
                ms = (time.perf_counter() - t0) * 1e3
                n_checks += len(checks)
                bad = failures(checks)
                if bad:
                    win.fail(f"{section}: {len(bad)} checks failed, first {bad[0].name}")
                else:
                    win.ok(ms)
            if pos == len(order) - 1:
                rounds.append(n_checks)
                n_checks = 0
        win.close()
        win.detail["round_checks"] = rounds
        win.problems += [
            f"round {r}: {n} checks (want {CHECKS})"
            for r, n in enumerate(rounds)
            if n != CHECKS
        ]
        return win

    def layers(self, win: Window, rec) -> dict:
        # Seconds per round: the five add up to one quick gate.
        rounds = max(1.0, win.attempted / len(self.sections))
        out = {f"{s}_s": per_op_ms(rec, s, 1) / 1e3 / rounds for s in self.sections}
        out["verify.checks"] = max(win.detail["round_checks"], default=0)
        return out

    def check(self) -> list[str]:
        """One whole quick gate, as ``repro verify --quick`` runs it."""
        clear_memo()
        report: list[str] = []
        status = run_verify(quick=True, out=report.append)
        verdict = VERDICT_RE.search(report[-1] if report else "")
        if status != 0 or not verdict or int(verdict.group(2)) != CHECKS or verdict.group(3) != "0":
            return [f"run_verify: exit {status}, {report[-1:]} (want 0 and {CHECKS} checks)"]
        return []
