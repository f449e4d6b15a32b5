"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["image"])
        assert args.algorithm == "ffbp"
        assert args.pulses == 256


class TestCommands:
    def test_specs(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        assert "Epiphany" in out
        assert "ext_read_latency_cycles" in out

    def test_image_ffbp(self, capsys):
        rc = main(["image", "--pulses", "64", "--ranges", "129",
                   "--width", "32", "--height", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(out.strip().split("\n")) == 8

    def test_image_rda(self, capsys):
        rc = main(["image", "--algorithm", "rda", "--pulses", "64",
                   "--ranges", "129", "--width", "32", "--height", "8"])
        assert rc == 0

    def test_image_gbp(self, capsys):
        rc = main(["image", "--algorithm", "gbp", "--pulses", "32",
                   "--ranges", "65", "--width", "16", "--height", "4"])
        assert rc == 0

    def test_fig7(self, capsys):
        rc = main(["fig7", "--pulses", "64", "--ranges", "129",
                   "--width", "24", "--height", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig. 7(b) GBP" in out

    def test_table1(self, capsys):
        rc = main(["table1", "--pulses", "64", "--ranges", "129"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ffbp_epi_par" in out
        assert "af_epi_par" in out

    def test_speedups(self, capsys):
        rc = main(["speedups", "--pulses", "64", "--ranges", "129"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput/W" in out

    def test_profile_ffbp(self, capsys):
        rc = main(["profile", "--pulses", "64", "--ranges", "129"])
        assert rc == 0
        assert "verdict" in capsys.readouterr().out

    def test_profile_autofocus(self, capsys):
        rc = main(["profile", "--kernel", "autofocus"])
        assert rc == 0
        assert "verdict" in capsys.readouterr().out

    def test_profile_timeline(self, capsys):
        rc = main(["profile", "--kernel", "autofocus", "--timeline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "#=compute" in out

    def test_profile_trace_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        rc = main(["profile", "--kernel", "autofocus", "--trace-json", str(path)])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) > 10

    def test_verify_quick(self, capsys):
        rc = main(["verify", "--quick", "--no-fuzz"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        assert "golden" in out

    def test_verify_update_golden_round_trip(self, capsys, tmp_path):
        rc = main(
            ["verify", "--update-golden", "--no-fuzz",
             "--golden-dir", str(tmp_path)]
        )
        assert rc == 0
        assert "updated" in capsys.readouterr().out or (
            tmp_path / "table1_small.json"
        ).exists()
        rc = main(
            ["verify", "--no-fuzz", "--golden-dir", str(tmp_path)]
        )
        assert rc == 0


class TestErrorPaths:
    """Malformed user input exits non-zero with a message, never a
    traceback (satellite: CLI exit codes and --backend error paths)."""

    def test_verify_unknown_backend(self, capsys):
        rc = main(["verify", "--backend", "bogus"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "unknown candidate backend" in err
        assert "Traceback" not in err

    def test_verify_malformed_spec(self, capsys):
        rc = main(["verify", "--specs", "4x"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown machine spec" in err

    def test_sweep_unknown_backend(self, capsys):
        rc = main(
            ["sweep", "clock", "--backend", "bogus:nope",
             "--pulses", "16", "--ranges", "33"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown backend" in err
        assert "Traceback" not in err

    def test_sweep_malformed_mesh(self, capsys):
        rc = main(
            ["sweep", "ffbp-cores", "--backend", "0x4",
             "--pulses", "16", "--ranges", "33"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_table1_malformed_clock(self, capsys):
        rc = main(
            ["table1", "--backend", "event:4x4@zoom",
             "--pulses", "16", "--ranges", "33"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_profile_malformed_backend(self, capsys):
        rc = main(
            ["profile", "--backend", "analytic:9y9",
             "--pulses", "16", "--ranges", "33"]
        )
        assert rc == 2
        assert "unknown machine spec" in capsys.readouterr().err

    def test_mutually_exclusive_quick_full(self):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--quick", "--full"])


class TestFabricCli:
    """Fabric spec grammar and sharding through the CLI surface."""

    def test_image_with_shards_matches_serial(self, capsys):
        args = ["image", "--algorithm", "ffbp", "--pulses", "64",
                "--ranges", "65"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--shards", "4"]) == 0
        sharded = capsys.readouterr().out
        assert sharded == serial

    def test_image_shards_requires_ffbp(self, capsys):
        """--shards with gbp is an argparse usage error: exit 2 before
        any simulation work, usage line on stderr, no traceback."""
        with pytest.raises(SystemExit) as exc_info:
            main(["image", "--algorithm", "gbp", "--pulses", "64",
                  "--ranges", "65", "--shards", "2"])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err
        assert "error:" in captured.err and "ffbp" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""  # rejected before any work started

    def test_image_interpolation_requires_ffbp(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["image", "--algorithm", "rda", "--pulses", "64",
                  "--ranges", "65", "--interpolation", "bilinear"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "ffbp" in err

    @pytest.mark.parametrize("bad", ["0", "-2", "four"])
    def test_image_shards_rejected_at_parse_time(self, bad, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["image", "--shards", bad])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--shards" in err
        assert "Traceback" not in err

    def test_image_shards_must_divide_the_tree(self, capsys):
        rc = main(["image", "--algorithm", "ffbp", "--pulses", "64",
                   "--ranges", "65", "--shards", "3"])
        assert rc == 2
        assert "power of merge base" in capsys.readouterr().err

    def test_sweep_ffbp_chips(self, capsys):
        rc = main(["sweep", "ffbp-chips", "--chips", "1,2",
                   "--pulses", "64", "--ranges", "65"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fabric" in out.lower()

    def test_sweep_ffbp_chips_rejects_spec_suffix(self, capsys):
        rc = main(["sweep", "ffbp-chips", "--backend", "analytic:e16",
                   "--pulses", "64", "--ranges", "65"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "bare backend" in err

    @pytest.mark.parametrize(
        ("spec", "needle"),
        [
            ("analytic:4x(", "unbalanced"),
            ("analytic:0x(8x8)", "at least 1 chip"),
            ("analytic:2x()", "empty chip spec"),
            ("analytic:2x(e16)junk", "trailing"),
            ("faulty(core:0@cycle=0:crash:2x(e16)", "error:"),
        ],
    )
    def test_malformed_fabric_specs_exit_two(self, capsys, spec, needle):
        rc = main(["table1", "--backend", spec,
                   "--pulses", "16", "--ranges", "33"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and needle in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1  # one clean line

    def test_fabric_backend_accepted_by_table1(self, capsys):
        rc = main(["table1", "--backend", "analytic:2x(e16)",
                   "--pulses", "16", "--ranges", "33"])
        assert rc == 0


class TestServeCli:
    """The serving-tier CLI surface (``repro serve`` / ``repro load``)."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.workers == 2
        args = build_parser().parse_args(["load", "--spawn"])
        assert args.clients == 2
        assert args.requests == 8
        assert args.spawn is True

    def test_load_without_port_or_spawn_is_an_error(self, capsys):
        rc = main(["load", "--port", "0" ])
        # --port 0 is falsy: equivalent to not giving a port at all.
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--spawn" in err

    def test_load_spawn_round_trip(self, capsys, tmp_path):
        """End to end in one process: spawn a server, drive a burst,
        check the repro-load/1 document it writes."""
        import json

        out = tmp_path / "load.json"
        rc = main([
            "load", "--spawn", "--clients", "2", "--requests", "2",
            "--pulses", "32", "--ranges", "33", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-load/1"
        assert doc["errors"] == 0
        assert doc["total"] == 4
        assert doc["byte_identical"] is True
        assert doc["latency_ms"]["p50"] <= doc["latency_ms"]["p99"]
        err = capsys.readouterr().err
        assert "p50" in err and "p99" in err

    def test_load_rejects_bad_counts(self, capsys):
        rc = main(["load", "--spawn", "--clients", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
