"""Backend registry and factory: machines from spec strings.

One string names both *how* to simulate (the backend) and *what* to
simulate (the chip spec)::

    get_machine("event:e16")            # cycle-accurate 4x4 @ 1 GHz
    get_machine("event:e64")            # cycle-accurate 8x8 @ 800 MHz
    get_machine("analytic:e16")         # closed-form replay, same spec
    get_machine("analytic:8x8@800e6")   # custom mesh and clock
    get_machine("e16")                  # bare spec -> default backend
    get_machine("analytic")             # bare backend -> default spec

Grammar: ``[backend][:spec]`` where *backend* is a registered name
(``event`` is the default) and *spec* is either a named configuration
(``e16``, ``e64``, ``board``), a custom ``<rows>x<cols>[@<clock_hz>]``
mesh, or a named configuration with a clock override
(``e16@700e6``).  Clocks accept any Python float literal (``800e6``,
``1.0e9``).

Multi-chip fabrics spell ``<n>x(<chip-spec>)[@<clock_hz>]``: a linear
fabric of ``n`` identical chips joined by chip-to-chip e-links (see
:class:`~repro.machine.specs.FabricSpec`)::

    get_machine("analytic:4x(8x8)@800e6")   # 4 chips of 8x8 @ 800 MHz
    get_machine("event:2x(e16)")            # 2 event-driven E16 chips
    get_machine("1x(e64)")                  # one chip, fabric-wrapped

``1x(...)`` deliberately stays a fabric (the wrapper must add zero
cycles or energy -- the E64 parity test in ``benchmarks/`` holds it to
that).  Fabric specs nest inside ``faulty(...)`` but not inside other
fabrics.

Backends compose: ``faulty(<plan>):<inner-spec>`` wraps any inner
backend in a :class:`~repro.faults.inject.FaultyMachine` injecting the
given fault plan (see :mod:`repro.faults.plan` for the grammar)::

    get_machine("faulty(core:5@cycle=10000:crash):event:e16")
    get_machine("faulty(dma:3:corrupt-word; seed=7):analytic:e16")
    get_machine("faulty():e64")     # empty plan -> pure pass-through

``replay(<inner-spec>)`` wraps the inner backend in a
:class:`~repro.replay.machine.ReplayMachine`: the first run of an
event-chip equivalence class is captured, later identical runs replay
the compiled schedule byte-identically (see :mod:`repro.replay`)::

    get_machine("replay(event:e16)")    # trace-compiled event chip
    get_machine("replay:e16")           # bare form, same machine
    get_machine("replay(analytic:e16)") # legal; pure pass-through

Non-chip inners (analytic, fabrics, ``faulty(...)`` wrappers) pass
through untouched, and only programs whose builder declared a replay
key are cached.  A ``faulty(...)`` wrapper outside hands the replay
machine undeclared closures, so chaos semantics never come from a
cache.

:func:`parse_backend` is the one reader of this grammar; the
``str()`` of its value is the canonical spelling.

New backends register with :func:`register_backend`; the CLI and the
eval drivers (`--backend`) pass user strings straight to
:func:`get_machine`, so a registered backend is immediately usable
everywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from repro.machine.api import Machine
from repro.machine.specs import EpiphanySpec, FabricSpec

__all__ = [
    "BackendSpec",
    "get_machine",
    "get_spec",
    "parse_backend",
    "resolve_backend",
    "register_backend",
    "available_backends",
    "DEFAULT_BACKEND",
    "DEFAULT_SPEC",
]

MachineSpec = EpiphanySpec | FabricSpec
BackendFactory = Callable[[MachineSpec], Machine]

DEFAULT_BACKEND = "event"
DEFAULT_SPEC = "e16"

_NAMED_SPECS: dict[str, Callable[[], EpiphanySpec]] = {
    "e16": EpiphanySpec,
    "e64": EpiphanySpec.e64,
    "board": EpiphanySpec.board,
}

_MESH_RE = re.compile(
    r"^(?P<rows>\d+)x(?P<cols>\d+)(?:@(?P<clock>[0-9.eE+-]+))?$"
)
_NAMED_CLOCK_RE = re.compile(r"^(?P<name>[a-z][a-z0-9]*)@(?P<clock>[0-9.eE+-]+)$")

_REGISTRY: dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register a machine factory under ``name``.

    ``factory`` receives a fully resolved :class:`EpiphanySpec` and
    must return an object satisfying the :class:`~repro.machine.api.
    Machine` protocol.  Re-registering a name replaces the factory
    (useful for tests injecting instrumented backends).
    """
    if not name or ":" in name:
        raise ValueError(f"invalid backend name {name!r}")
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


_FABRIC_OPEN_RE = re.compile(r"^(?P<chips>\d+)x\(")
_WRAPPER_FORMS = {
    "faulty": "faulty(<plan>)[:<backend>[:<spec>]]",
    "replay": "replay(<backend>[:<spec>])",
}


def _match_paren(token: str, open_at: int) -> int:
    """Index of the ``)`` closing the ``(`` at ``open_at``, or -1.

    Fault plans (link coordinates) and fabric specs nest parentheses,
    so the match counts depth rather than taking the first ``)``.
    """
    depth = 0
    for i in range(open_at, len(token)):
        if token[i] == "(":
            depth += 1
        elif token[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _try_fabric(token: str) -> FabricSpec | None:
    """Parse a ``<n>x(<chip-spec>)[@<clock>]`` fabric token, or None.

    Returns None when the token does not *look* like a fabric (no
    ``<digits>x(`` prefix); raises a clean ValueError when it looks
    like one but is malformed, so the error names the actual mistake
    (unbalanced parens, zero chips, empty inner spec) instead of
    falling through to the generic unknown-spec message.
    """
    m = _FABRIC_OPEN_RE.match(token)
    if m is None:
        return None
    close = _match_paren(token, m.end() - 1)
    if close < 0:
        raise ValueError(
            f"unbalanced parentheses in fabric spec {token!r}; expected "
            f"'<n>x(<chip-spec>)[@<clock_hz>]'"
        )
    n_chips = int(m.group("chips"))
    if n_chips < 1:
        raise ValueError(
            f"fabric needs at least 1 chip, got {n_chips} in {token!r}"
        )
    inner = token[m.end() : close]
    if not inner:
        raise ValueError(f"empty chip spec in fabric spec {token!r}")
    if _FABRIC_OPEN_RE.match(inner):
        raise ValueError(
            f"nested fabric in spec {token!r}; fabrics hold chips, "
            f"not fabrics"
        )
    rest = token[close + 1 :]
    chip = get_spec(inner)
    if rest:
        if not rest.startswith("@"):
            raise ValueError(
                f"trailing {rest!r} after fabric spec {token!r}; expected "
                f"'@<clock_hz>' or nothing"
            )
        chip = chip.with_clock(_parse_clock(rest[1:], token))
    return FabricSpec(chip=chip, n_chips=n_chips)


def get_spec(token: str) -> MachineSpec:
    """Resolve a spec token (named, named@clock, RxC[@clock], or the
    ``<n>x(<chip-spec>)[@<clock>]`` fabric form)."""
    token = token.strip().lower()
    named = _NAMED_SPECS.get(token)
    if named is not None:
        return named()
    fabric = _try_fabric(token)
    if fabric is not None:
        return fabric
    m = _NAMED_CLOCK_RE.match(token)
    if m and m.group("name") in _NAMED_SPECS:
        return _NAMED_SPECS[m.group("name")]().with_clock(
            _parse_clock(m.group("clock"), token)
        )
    m = _MESH_RE.match(token)
    if m:
        rows, cols = int(m.group("rows")), int(m.group("cols"))
        if rows < 1 or cols < 1:
            raise ValueError(f"mesh {rows}x{cols} must be at least 1x1")
        spec = EpiphanySpec(mesh_rows=rows, mesh_cols=cols)
        if m.group("clock"):
            spec = spec.with_clock(_parse_clock(m.group("clock"), token))
        return spec
    raise ValueError(
        f"unknown machine spec {token!r}; expected one of "
        f"{sorted(_NAMED_SPECS)}, '<name>@<clock_hz>', "
        f"'<rows>x<cols>[@<clock_hz>]' or the fabric form "
        f"'<n>x(<chip-spec>)[@<clock_hz>]'"
    )


def _parse_clock(text: str, token: str) -> float:
    try:
        clock = float(text)
    except ValueError:
        raise ValueError(f"bad clock {text!r} in spec {token!r}") from None
    if clock <= 0:
        raise ValueError(f"clock must be positive in spec {token!r}")
    return clock


@dataclass(frozen=True)
class BackendSpec:
    """A parsed backend string.  ``wrappers`` are the ``faulty(<plan>)``
    and ``replay`` wrappers, outermost first; ``str()`` is the
    canonical spelling (``e16``, ``:e16`` and ``EVENT:E16`` all read
    ``event:e16``), which parses back to the same value."""

    engine: str
    spec: str
    wrappers: tuple[str, ...] = ()

    def __str__(self) -> str:
        text = f"{self.engine}:{self.spec}" if self.spec else self.engine
        for wrapper in reversed(self.wrappers):
            text = f"replay({text})" if wrapper == "replay" else f"{wrapper}:{text}"
        return text


def parse_backend(text: str = "", default_spec: str = DEFAULT_SPEC) -> BackendSpec:
    """Parse ``[faulty(<plan>):|replay(...)]...[backend][:spec]``.

    Peels the wrappers, then reads ``<engine>[:<spec>]``, filling in
    ``event`` and ``default_spec`` (an empty one leaves an omitted spec
    out); ``replay[:<spec>]`` reads as ``replay(event[:<spec>])``.
    Plans and specs are checked by :func:`resolve_backend`, except a
    bare token that names no backend: it must be a spec.
    """
    token = (text or "").strip().lower()
    wrappers: list[str] = []
    while token.startswith(("faulty(", "replay(")):
        kind = token[: token.index("(")]
        close = _match_paren(token, len(kind))
        if close < 0:
            raise ValueError(
                f"unbalanced parentheses in {kind} spec {token!r}; "
                f"expected {_WRAPPER_FORMS[kind]!r}"
            )
        rest = token[close + 1 :]
        if kind == "faulty":
            wrappers.append(token[: close + 1])
            token = rest[1:] if rest.startswith(":") else rest
        elif rest:
            raise ValueError(
                f"trailing {rest!r} after replay spec {token!r}; "
                f"expected {_WRAPPER_FORMS[kind]!r}"
            )
        else:
            wrappers.append("replay")
            token = token[len("replay(") : close]
        token = token.strip()
    engine, colon, spec = token.partition(":")
    if token and not colon and token not in _REGISTRY:
        # A bare token that names no backend *might* be a spec -- or a
        # misspelled backend ("analytc"): if it is neither, name both.
        engine, spec = "", token
        try:
            get_spec(token)
        except ValueError:
            # A bare token that *looks* like a fabric ('<n>x(...') is a
            # spec mistake: keep the specific parse error.
            if _FABRIC_OPEN_RE.match(token):
                raise
            raise ValueError(
                f"unknown backend or machine spec {token!r}; "
                f"backends: {', '.join(available_backends())}; "
                f"specs: {', '.join(sorted(_NAMED_SPECS))}, "
                f"'<name>@<clock_hz>' or '<rows>x<cols>[@<clock_hz>]'"
            ) from None
    if engine == "replay":
        wrappers.append("replay")
        engine = ""
    return BackendSpec(
        engine or DEFAULT_BACKEND, spec or default_spec, tuple(wrappers)
    )


def _wrap(wrapper: str, inner: BackendFactory) -> BackendFactory:
    """``inner`` behind one ``replay`` or ``faulty(<plan>)`` wrapper;
    the plan is validated here, eagerly."""
    if wrapper == "replay":
        from repro.replay.machine import ReplayMachine

        return lambda s: ReplayMachine(inner(s))
    from repro.faults.inject import FaultyMachine
    from repro.faults.plan import parse_plan

    plan = parse_plan(wrapper[len("faulty(") : -1])
    return lambda s: FaultyMachine(inner(s), plan)


def resolve_backend(
    name: str | BackendSpec = "",
) -> tuple[BackendFactory, EpiphanySpec]:
    """Parse a backend string (or take a parsed one) into (factory,
    base spec); the factory wraps the engine's once per wrapper.

    Callers that derive their own spec variants (clock sweeps, mesh
    scaling) use the returned factory with a modified copy of the base
    spec; :func:`get_machine` is the plain compose-and-build shortcut.
    """
    parsed = name if isinstance(name, BackendSpec) else parse_backend(name)
    factory = _REGISTRY.get(parsed.engine)
    if factory is None:
        raise ValueError(
            f"unknown backend {parsed.engine!r}; "
            f"available: {', '.join(available_backends())}"
        )
    for wrapper in reversed(parsed.wrappers):
        factory = _wrap(wrapper, factory)
    return factory, get_spec(parsed.spec)


def get_machine(name: str = "") -> Machine:
    """Build a machine from a ``[backend][:spec]`` string.

    An empty string gives the default (``event:e16``).  A bare token is
    tried first as a backend name, then as a spec for the default
    backend -- so both ``get_machine("analytic")`` and
    ``get_machine("e64")`` do what they look like.
    """
    factory, spec = resolve_backend(name)
    return factory(spec)


def _register_builtins() -> None:
    # Imported lazily so importing the registry never drags in both
    # engines when only one is used.  A FabricSpec builds one chip per
    # slot behind a FabricMachine -- even for 1x(...), so the fabric
    # wrapper's zero-overhead contract stays testable.
    def _event(spec: MachineSpec) -> Machine:
        from repro.machine.chip import EpiphanyChip

        if isinstance(spec, FabricSpec):
            from repro.machine.fabric import FabricMachine

            return FabricMachine(spec, EpiphanyChip)
        return EpiphanyChip(spec)

    def _analytic(spec: MachineSpec) -> Machine:
        from repro.machine.analytic import AnalyticMachine

        if isinstance(spec, FabricSpec):
            from repro.machine.fabric import FabricMachine

            return FabricMachine(spec, AnalyticMachine)
        return AnalyticMachine(spec)

    def _replay(spec: MachineSpec) -> Machine:
        from repro.replay.machine import ReplayMachine

        return ReplayMachine(_event(spec))

    register_backend("event", _event)
    register_backend("analytic", _analytic)
    register_backend("replay", _replay)


_register_builtins()
