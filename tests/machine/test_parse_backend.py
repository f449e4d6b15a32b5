"""Tests for :func:`parse_backend`, the one reader of backend strings."""

import pytest

from repro.machine import backends
from repro.machine.backends import BackendSpec, parse_backend, resolve_backend
from repro.verify.fuzz import FUZZ_DRIVERS


class TestCanonicalSpelling:
    @pytest.mark.parametrize(
        "spelling", ["", "e16", ":e16", "EVENT:E16", "event", " event:e16 ", "event:"]
    )
    def test_spellings_of_the_default_machine(self, spelling):
        assert str(parse_backend(spelling)) == "event:e16"

    @pytest.mark.parametrize(
        ("spelling", "canonical"),
        [
            ("replay", "replay(event:e16)"),
            ("replay:e64", "replay(event:e64)"),
            ("replay(event)", "replay(event:e16)"),
            ("faulty(flag:drop@n=1)", "faulty(flag:drop@n=1):event:e16"),
            (
                "FAULTY(core:(0,0)@i=1; seed=2):replay:e16",
                "faulty(core:(0,0)@i=1; seed=2):replay(event:e16)",
            ),
            ("replay(faulty():analytic)", "replay(faulty():analytic:e16)"),
            ("analytic:2x(e16)@400e6", "analytic:2x(e16)@400e6"),
        ],
    )
    def test_wrappers_and_defaults(self, spelling, canonical):
        assert str(parse_backend(spelling)) == canonical

    def test_default_spec_fills_only_an_omitted_spec(self):
        assert str(parse_backend("faulty():analytic", "e64")) == "faulty():analytic:e64"
        assert str(parse_backend("replay(event)", "e64")) == "replay(event:e64)"
        assert str(parse_backend("analytic:e16", "e64")) == "analytic:e16"
        assert str(parse_backend("event", "")) == "event"

    def test_parsed_value(self):
        assert parse_backend("faulty(x):replay:8x8") == BackendSpec(
            engine="event", spec="8x8", wrappers=("faulty(x)", "replay")
        )

    def test_resolve_backend_takes_the_parsed_value(self):
        parsed = parse_backend("analytic:e64")
        assert resolve_backend(parsed)[1] == resolve_backend("analytic:e64")[1]

    @pytest.mark.parametrize(
        ("bad", "needle"),
        [
            ("faulty(core:0", "unbalanced parentheses in faulty spec"),
            ("replay(event:e16", "unbalanced parentheses in replay spec"),
            ("replay(event:e16)x", "trailing 'x' after replay spec"),
            ("analytc", "unknown backend or machine spec"),
            ("0x(8x8)", "at least 1 chip"),
        ],
    )
    def test_malformed_text_names_the_mistake(self, bad, needle):
        with pytest.raises(ValueError, match=needle):
            parse_backend(bad)


def test_canonical_spelling_round_trips_the_fuzz_forms(monkeypatch):
    """Every spelling the ``spec_strings`` fuzz driver builds has a
    canonical form that names the same machine, bare and wrapped."""
    built = []
    get_machine = backends.get_machine

    def recording(name=""):
        machine = get_machine(name)
        built.append(name)
        return machine

    monkeypatch.setattr(backends, "get_machine", recording)
    assert all(c.passed for c in FUZZ_DRIVERS["spec_strings"](20130821, 60))
    assert len(built) > 20
    for token in built:
        for spelling in (token, f"faulty():{token}", f"replay({token})"):
            canonical = str(parse_backend(spelling))
            assert parse_backend(canonical) == parse_backend(spelling)
            assert str(parse_backend(canonical)) == canonical
            assert resolve_backend(canonical)[1] == resolve_backend(spelling)[1]
