"""The ``repro verify`` gate: exit codes, update workflow, reporting,
shared runs, and seeded bugs it must catch."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.machine.analytic import AnalyticMachine
from repro.machine.chip import EpiphanyChip
from repro.perf import clear_memo
from repro.sar.config import RadarConfig
from repro.verify.gate import DEFAULT_SEED, GateReport, run_verify
from repro.verify.golden import FINGERPRINTS, golden_path, load_golden, save_golden
from repro.verify.oracles import WORKLOADS, RunInputs, verify_run
from repro.verify.tolerance import Check


def _quiet(_line: str) -> None:
    pass


class TestGateReport:
    def test_pass_fail_aggregation(self):
        r = GateReport()
        r.add("a", [Check("x", True)])
        assert r.passed
        r.add("b", [Check("y", False, actual=1, expected=2)])
        assert not r.passed
        text = r.format()
        assert "verify: FAIL" in text
        assert "FAIL] y" in text

    def test_verbose_lists_passes(self):
        r = GateReport()
        r.add("a", [Check("x", True)])
        assert "[ok  ] x" in r.format(verbose=True)
        assert "[ok  ] x" not in r.format(verbose=False)


class TestRunVerify:
    def test_quick_gate_passes_on_clean_checkout(self):
        rc = run_verify(
            quick=True, fuzz_cases=5, seed=DEFAULT_SEED, out=_quiet
        )
        assert rc == 0

    def test_unknown_candidate_backend_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown candidate backend"):
            run_verify(candidate="bogus", out=_quiet)

    def test_malformed_spec_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown machine spec"):
            run_verify(specs=("4x",), out=_quiet)

    def test_update_then_verify_round_trip(self, tmp_path):
        rc = run_verify(
            quick=True,
            update=True,
            skip_fuzz=True,
            golden_root=tmp_path,
            out=_quiet,
        )
        assert rc == 0
        for name in FINGERPRINTS:
            assert golden_path(name, tmp_path).exists()
        rc = run_verify(
            quick=True, skip_fuzz=True, golden_root=tmp_path, out=_quiet
        )
        assert rc == 0

    def test_perturbed_snapshot_fails_with_named_metric(self, tmp_path):
        run_verify(
            quick=True,
            update=True,
            skip_fuzz=True,
            golden_root=tmp_path,
            out=_quiet,
        )
        doc = load_golden("table1_small", tmp_path)
        doc["rows"]["ffbp_epi_par"]["energy_j"] *= 1.05
        save_golden("table1_small", doc, tmp_path)
        lines: list[str] = []
        rc = run_verify(
            quick=True,
            skip_fuzz=True,
            golden_root=tmp_path,
            out=lines.append,
        )
        assert rc == 1
        text = "\n".join(lines)
        assert "energy_j" in text
        assert "FAIL" in text

    def test_missing_snapshots_fail_not_crash(self, tmp_path):
        rc = run_verify(
            quick=True, skip_fuzz=True, golden_root=tmp_path, out=_quiet
        )
        assert rc == 1


@pytest.fixture()
def fresh_memo():
    """Start from an empty memo, as ``repro verify`` does, and leave no
    run behind: a test that seeds a bug must not share its runs."""
    clear_memo()
    yield
    clear_memo()


@pytest.fixture()
def event_runs(monkeypatch):
    """Cycle count -> number of cold ``event`` chip runs that ended there."""
    counts: Counter = Counter()
    run = EpiphanyChip.run

    def counting(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        counts[result.cycles] += 1
        return result

    monkeypatch.setattr(EpiphanyChip, "run", counting)
    return counts


def _failed_sections(lines: list[str]) -> set[str]:
    """Names of the report sections with at least one failed check."""
    return {
        line[3:].split(":")[0]
        for line in "\n".join(lines).splitlines()
        if line.startswith("-- ") and "FAILED" in line
    }


@pytest.mark.usefixtures("fresh_memo")
class TestSharedRuns:
    def test_quick_gate_makes_each_cold_run_once_per_role(self, event_runs):
        inputs = RunInputs()
        want = {
            "ffbp_spmd16": 2,
            "autofocus_mpmd": 2,
            "ffbp_seq": 1,
            "autofocus_seq": 1,
        }
        cycles = {
            name: WORKLOADS[name](EpiphanyChip(), inputs).cycles for name in want
        }
        assert len(set(cycles.values())) == len(cycles)
        event_runs.clear()
        assert run_verify(quick=True, skip_fuzz=True, out=_quiet) == 0
        # The parallel kernels: the oracle's event reference run, and
        # the replay golden cell's capture under replay(event:e16).
        # The sequential kernels: one event run, shared by the oracle
        # (autofocus) or made by the Table-I fingerprint (FFBP).  The
        # Table-I, profile and traffic fingerprints read the oracles'
        # runs, and the replay identity oracle's clear leaves them.
        assert {n: event_runs[c] for n, c in cycles.items()} == want
        assert sum(event_runs.values()) == 11

    def test_replay_identity_oracle_keeps_shared_runs(self, event_runs):
        from repro.verify.replay import replay_identity_oracle

        small = RunInputs(cfg=RadarConfig.small(n_pulses=16, n_ranges=17))
        before = verify_run("ffbp_spmd16", "event:e16", small)
        for _ in range(2):  # the second call starts with schedules resident
            checks = replay_identity_oracle("ffbp_spmd16", "e16")
            assert all(c.passed for c in checks)
            capture = next(c for c in checks if c.name.endswith(".capture.cacheable"))
            assert capture.actual["captures"] == 1
        n = sum(event_runs.values())
        assert verify_run("ffbp_spmd16", "event:e16", small) is before
        assert sum(event_runs.values()) == n

    def test_two_scales_of_one_workload_do_not_share_a_run(self, event_runs):
        small = RunInputs(cfg=RadarConfig.small(n_pulses=16, n_ranges=17))
        larger = RunInputs(cfg=RadarConfig.small(n_pulses=32, n_ranges=33))
        a = verify_run("ffbp_spmd16", "event:e16", small)
        b = verify_run("ffbp_spmd16", "event:e16", larger)
        assert a.cycles != b.cycles
        assert sum(event_runs.values()) == 2
        narrower = replace(small, window_bytes=small.window_bytes // 2)
        verify_run("ffbp_spmd16", "event:e16", narrower)
        assert sum(event_runs.values()) == 3
        # The same inputs again are served from the memo.
        assert verify_run("ffbp_spmd16", "event:e16", small) is a
        assert sum(event_runs.values()) == 3


@pytest.mark.usefixtures("fresh_memo")
class TestSeededBugs:
    """The shared-run gate still catches bugs planted in each layer."""

    def _gate(self) -> tuple[int, set[str]]:
        lines: list[str] = []
        rc = run_verify(quick=True, skip_fuzz=True, out=lines.append)
        return rc, _failed_sections(lines)

    def test_analytic_cycles_ten_percent_high(self, monkeypatch):
        run = AnalyticMachine.run

        def slow(self, *args, **kwargs):
            res = run(self, *args, **kwargs)
            return replace(res, cycles=int(res.cycles * 1.1))

        monkeypatch.setattr(AnalyticMachine, "run", slow)
        rc, failed = self._gate()
        assert rc == 1
        assert "oracle[ffbp_spmd16]" in failed
        assert "oracle[autofocus_mpmd]" in failed

    def test_event_trace_counter_off_by_one(self, monkeypatch):
        run = EpiphanyChip.run

        def miscount(self, *args, **kwargs):
            res = run(self, *args, **kwargs)
            first = replace(
                res.traces[0], dma_transfers=res.traces[0].dma_transfers + 1
            )
            return replace(res, traces=(first, *res.traces[1:]))

        monkeypatch.setattr(EpiphanyChip, "run", miscount)
        rc, failed = self._gate()
        assert rc == 1
        assert "oracle[ffbp_spmd16]" in failed
        assert "golden" in failed

    def test_replay_restore_perturbs_energy(self, monkeypatch):
        from repro.replay import machine as replay_machine

        apply = replay_machine.apply_schedule

        def perturbed(chip, sched):
            res = apply(chip, sched)
            return replace(res, energy_joules=res.energy_joules * 1.001)

        monkeypatch.setattr(replay_machine, "apply_schedule", perturbed)
        rc, failed = self._gate()
        assert rc == 1
        assert failed == {"replay"}
