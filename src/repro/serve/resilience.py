"""Resilience policies of the serving tier: admission, retry, breaker.

The policy layer for overload, contained faults and failing
backends, kept apart from :mod:`repro.serve.service` (which stays
glue).  Every decision is a pure function of ``(settings, seed,
request history)``, never of wall clock or scheduling jitter, so a
same-seed rerun of the chaos gate makes identical admission/retry/
degradation decisions:

- :class:`AdmissionController` -- a bounded in-flight budget.  A
  request over budget is *rejected immediately* with a structured
  ``overloaded`` error and a ``retry_after_ms`` hint instead of
  joining an unbounded queue (per-connection caps live in the
  connection loop, see :meth:`~repro.serve.service.ImageService`).
- :class:`RetryPolicy` -- deterministic exponential backoff with
  seeded jitter via :func:`~repro.exec.seeding.derive_seed`: the
  delay for ``(request key, attempt)`` is the same in every process
  and every rerun, so retry schedules are reproducible evidence, not
  flakes.
- :class:`CircuitBreaker` -- a rolling outcome window per canonical
  backend spec.  Enough failures trip the breaker; while open, profile
  requests transparently degrade one rung down the
  :func:`degrade_spec` ladder -- bare ``event:*`` onto the
  byte-identical trace-compiled ``replay(event:*)`` tier,
  ``replay(event:*)`` and fault-wrapped specs onto the banded
  ``analytic:*`` model -- a degraded-but-bounded answer, flagged
  ``degraded: true``, beats a timeout (the always-on argument of the
  automotive SAR paper, PAPERS.md).  The window is
  **count-based**, not time-based, precisely so breaker decisions
  replay identically under the chaos gate.
- :class:`RollingWindow` -- last-N-seconds event rates for ``health``
  responses, so load harnesses read *rates*, not lifetime totals.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace

from repro.exec.seeding import derive_seed
from repro.machine.backends import parse_backend

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "RetryPolicy",
    "RollingWindow",
    "degrade_spec",
]

DEFAULT_RESILIENCE_SEED = 20130821
"""Default jitter seed -- the same vintage as the verify gate's."""


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

class AdmissionController:
    """Bounded in-flight budget with an immediate structured rejection.

    ``try_admit`` either admits (returns ``None``) or rejects with the
    ``retry_after_ms`` hint the ``overloaded`` error response should
    carry.  The hint scales linearly with how far over budget the
    server is, so a thundering herd spreads out instead of re-arriving
    in lockstep -- combined with each client's seeded jitter this is
    the deterministic cousin of randomized backoff.
    """

    def __init__(self, budget: int, retry_after_ms: float = 20.0) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if retry_after_ms <= 0:
            raise ValueError(
                f"retry_after_ms must be positive, got {retry_after_ms}"
            )
        self.budget = budget
        self.retry_after_ms = retry_after_ms
        self.inflight = 0
        self.admitted = 0
        self.rejected = 0

    def try_admit(self) -> float | None:
        """Admit (``None``) or reject (the retry-after hint in ms)."""
        if self.inflight >= self.budget:
            self.rejected += 1
            return self.retry_hint()
        self.inflight += 1
        self.admitted += 1
        return None

    def retry_hint(self) -> float:
        """The current pressure-scaled retry-after hint, in ms.

        The same linear-in-overload formula :meth:`try_admit` attaches
        to a budget rejection, but without counting one -- for
        rejection paths that never consult the budget (shutdown
        drain, per-connection caps): their hints should track actual
        server pressure too, not a static constant.
        """
        overload = 1 + max(0, self.inflight - self.budget) / self.budget
        return round(self.retry_after_ms * overload, 3)

    def release(self) -> None:
        if self.inflight <= 0:
            raise RuntimeError("release() without a matching admit")
        self.inflight -= 1

    def snapshot(self) -> dict:
        return {
            "inflight": self.inflight,
            "budget": self.budget,
            "admitted": self.admitted,
            "rejected": self.rejected,
        }


# ---------------------------------------------------------------------------
# Retry with deterministic backoff
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff: reproducible, capped, jittered.

    ``backoff_ms(key, attempt)`` for ``attempt >= 1`` is
    ``base * 2**(attempt-1)`` (capped) scaled into ``[0.5, 1.0)`` by a
    jitter drawn from :func:`derive_seed(seed, "retry/<key>/<n>")` --
    a pure function of its arguments, so two runs of the same request
    mix sleep for exactly the same total and the chaos gate's
    decision records replay byte-identically.
    """

    max_retries: int = 1
    base_ms: float = 25.0
    cap_ms: float = 1000.0
    seed: int = DEFAULT_RESILIENCE_SEED

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_ms <= 0 or self.cap_ms < self.base_ms:
            raise ValueError(
                f"need 0 < base_ms <= cap_ms, got "
                f"base={self.base_ms}, cap={self.cap_ms}"
            )

    def backoff_ms(self, key: str, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based) of request ``key``."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(self.base_ms * 2 ** (attempt - 1), self.cap_ms)
        jitter = derive_seed(self.seed, f"retry/{key}/{attempt}") % 1024
        return round(raw * (0.5 + 0.5 * jitter / 1024), 3)


# ---------------------------------------------------------------------------
# Circuit breaker with ladder degradation (event -> replay -> analytic)
# ---------------------------------------------------------------------------

def degrade_spec(spec: str) -> str | None:
    """The next-cheaper substitute of an ``event``-engined backend spec.

    Two-step degradation ladder (each breaker trip descends one rung),
    a rewrite of the :func:`~repro.machine.backends.parse_backend`
    value:

    - a bare ``event:*`` degrades onto ``replay(event:*)`` -- the
      trace-compiled tier, byte-identical to the cycle-accurate run
      (see :mod:`repro.replay`) but served from the compiled-schedule
      cache when the class has been seen before;
    - ``replay(event:*)`` degrades onto ``analytic:*`` -- the modeled
      engine, banded rather than exact, but immune to whatever made
      the event engine slow or wedged.

    ``faulty(<plan>):``-wrapped specs skip the replay rung: the replay
    machine refuses to cache fault-injected runs (the chaos gate
    depends on cold-run semantics), so a substitute that re-runs the
    event engine cold buys nothing.  The ``faulty`` wrappers stay --
    the injected environment is part of the request -- and the engine
    goes straight to ``analytic``.  Returns ``None`` when the engine
    is not ``event``: no rung is left below it.
    """
    parsed = parse_backend(spec, default_spec="")
    if parsed.engine != "event":
        return None
    if not parsed.wrappers:
        return str(replace(parsed, wrappers=("replay",)))
    faulty = tuple(w for w in parsed.wrappers if w != "replay")
    return str(replace(parsed, engine="analytic", wrappers=faulty))


@dataclass
class _BreakerState:
    """Per-spec breaker bookkeeping."""

    window: deque = field(default_factory=deque)
    state: str = "closed"  # closed | open | half-open
    cooldown_left: int = 0


class CircuitBreaker:
    """Count-based rolling failure window per backend spec.

    State machine (all transitions counted, all deterministic in the
    outcome sequence):

    - **closed**: outcomes accumulate in a ``window``-deep deque; once
      ``failures`` of the last ``window`` outcomes are failures the
      breaker *trips* to open.
    - **open**: ``decide()`` answers ``"degrade"`` for the next
      ``cooldown`` requests (served on the :func:`degrade_spec`
      substitute, flagged), then offers one ``"probe"`` through to the
      real backend (half-open).
    - **half-open**: the probe's outcome closes the breaker (a
      *recovery*) or re-trips it; other requests keep degrading while
      the probe is outstanding.

    Specs without a substitute (nothing to degrade to) never degrade:
    ``decide()`` stays ``"pass"`` and the window is bookkeeping only.
    ``failures <= 0`` disables the breaker entirely.
    """

    def __init__(
        self, window: int = 8, failures: int = 4, cooldown: int = 4
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if failures > window:
            raise ValueError(
                f"failures ({failures}) cannot exceed window ({window})"
            )
        if cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {cooldown}")
        self.window = window
        self.failures = failures
        self.cooldown = cooldown
        self.trips = 0
        self.recoveries = 0
        self._specs: dict[str, _BreakerState] = {}

    @property
    def enabled(self) -> bool:
        return self.failures > 0

    def _state(self, spec: str) -> _BreakerState:
        st = self._specs.get(spec)
        if st is None:
            st = self._specs[spec] = _BreakerState(
                window=deque(maxlen=self.window)
            )
        return st

    def decide(self, spec: str) -> tuple[str, str | None]:
        """Route one request: ``(verdict, substitute_spec)``.

        Verdicts: ``"pass"`` (closed, or nothing to degrade to),
        ``"degrade"`` (open: serve on the substitute, flag the
        response), ``"probe"`` (half-open: one request through to the
        real backend; its :meth:`record` settles the state).
        """
        substitute = degrade_spec(spec)
        if not self.enabled or substitute is None:
            return "pass", None
        st = self._state(spec)
        if st.state == "open":
            if st.cooldown_left > 0:
                st.cooldown_left -= 1
                return "degrade", substitute
            st.state = "half-open"
            return "probe", None
        if st.state == "half-open":
            # A probe is already outstanding; keep degrading.
            return "degrade", substitute
        return "pass", None

    def record(self, spec: str, ok: bool) -> None:
        """Record the outcome of a ``pass``/``probe`` attempt."""
        if not self.enabled:
            return
        st = self._state(spec)
        if st.state == "half-open":
            if ok:
                st.state = "closed"
                st.window.clear()
                self.recoveries += 1
            else:
                st.state = "open"
                st.cooldown_left = self.cooldown
                self.trips += 1
            return
        st.window.append(ok)
        if (
            st.state == "closed"
            and len(st.window) >= self.failures
            and sum(1 for o in st.window if not o) >= self.failures
        ):
            st.state = "open"
            st.cooldown_left = self.cooldown
            st.window.clear()
            self.trips += 1

    def snapshot(self) -> dict:
        """Health-report block: counters plus per-spec state."""
        return {
            "trips": self.trips,
            "recoveries": self.recoveries,
            "window": self.window,
            "failures": self.failures,
            "cooldown": self.cooldown,
            "specs": {
                spec: {
                    "state": st.state,
                    "recent_failures": sum(1 for o in st.window if not o),
                    "cooldown_left": st.cooldown_left,
                }
                for spec, st in sorted(self._specs.items())
            },
        }


# ---------------------------------------------------------------------------
# Rolling event-rate window
# ---------------------------------------------------------------------------

class RollingWindow:
    """Last-``horizon_s``-seconds event counts and rates.

    The cumulative counters of :class:`~repro.serve.service.ServeStats`
    answer "how many, ever"; a load harness watching a long-running
    server (or an operator eyeballing ``health``) needs "how many,
    *lately*".  ``record(kind)`` timestamps one event; ``snapshot()``
    prunes everything older than the horizon and reports counts plus
    per-second rates.  ``clock`` is injectable for tests.
    """

    def __init__(self, horizon_s: float = 60.0, clock=time.monotonic) -> None:
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive, got {horizon_s}")
        self.horizon_s = horizon_s
        self._clock = clock
        self._events: deque = deque()  # (timestamp, kind)

    def record(self, kind: str) -> None:
        now = self._clock()
        self._events.append((now, kind))
        self._prune(now)

    def _prune(self, now: float) -> None:
        cutoff = now - self.horizon_s
        while self._events and self._events[0][0] < cutoff:
            self._events.popleft()

    def snapshot(self) -> dict:
        now = self._clock()
        self._prune(now)
        counts: dict[str, int] = {}
        for _, kind in self._events:
            counts[kind] = counts.get(kind, 0) + 1
        span = self.horizon_s
        if self._events:
            span = max(now - self._events[0][0], 1e-9)
        return {
            "horizon_s": self.horizon_s,
            "events": dict(sorted(counts.items())),
            "per_s": {
                kind: round(n / span, 3)
                for kind, n in sorted(counts.items())
            },
        }
