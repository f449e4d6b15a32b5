"""Epiphany core issue/timing model.

Kernels describe work as :class:`OpBlock` batches -- counts of floating
point operations (split into fusable multiply-adds, simple ops, square
roots and "special" libm-class ops), integer/addressing operations and
local load/stores.  The core model turns a block into issue cycles
under the dual-issue rule: one FPU instruction and one IALU/load-store
instruction may issue per cycle, so integer work is free until it
exceeds the FP stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from repro.machine.specs import EpiphanySpec

_CYCLES_CACHE_MAX = 4096


@dataclass(frozen=True)
class OpBlock:
    """A batch of homogeneous arithmetic + local-memory work.

    Attributes
    ----------
    flops:
        Simple FP add/mul operations (not counting those inside
        ``fmas``).
    fmas:
        Fused multiply-adds: one issue slot, two flops of work.
    sqrts:
        Square-root evaluations.
    specials:
        Libm-class operations (arccos, division, exp, ...).
    int_ops:
        Integer/addressing operations (index arithmetic, compares).
    local_loads / local_stores:
        Local-memory accesses in *words* (issue one per cycle on the
        IALU/load-store slot; the local banks sustain them).
    """

    flops: float = 0.0
    fmas: float = 0.0
    sqrts: float = 0.0
    specials: float = 0.0
    int_ops: float = 0.0
    local_loads: float = 0.0
    local_stores: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "flops",
            "fmas",
            "sqrts",
            "specials",
            "int_ops",
            "local_loads",
            "local_stores",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def scaled(self, n: float) -> "OpBlock":
        """The same op mix repeated ``n`` times."""
        return OpBlock(
            flops=self.flops * n,
            fmas=self.fmas * n,
            sqrts=self.sqrts * n,
            specials=self.specials * n,
            int_ops=self.int_ops * n,
            local_loads=self.local_loads * n,
            local_stores=self.local_stores * n,
        )

    def __add__(self, other: "OpBlock") -> "OpBlock":
        # Sums of validated (non-negative) fields need no validation:
        # fill the frozen instance directly, skipping ``__init__`` and
        # ``__post_init__`` (every traced compute block lands here).
        total = object.__new__(OpBlock)
        d = total.__dict__
        d["flops"] = self.flops + other.flops
        d["fmas"] = self.fmas + other.fmas
        d["sqrts"] = self.sqrts + other.sqrts
        d["specials"] = self.specials + other.specials
        d["int_ops"] = self.int_ops + other.int_ops
        d["local_loads"] = self.local_loads + other.local_loads
        d["local_stores"] = self.local_stores + other.local_stores
        return total

    @property
    def total_flops(self) -> float:
        """Flops retired (an FMA retires two)."""
        return self.flops + 2.0 * self.fmas + self.sqrts + self.specials


@dataclass
class CoreTimingModel:
    """Issue-cycle estimator for one Epiphany core."""

    spec: EpiphanySpec = field(default_factory=EpiphanySpec)

    def __post_init__(self) -> None:
        # id -> (block, cycles); the kept reference pins the id.  Kernels
        # share their frozen row blocks, so a run prices each one once.
        # Cleared at _CYCLES_CACHE_MAX entries, so a long-lived machine
        # fed fresh blocks does not keep them all alive.
        self._cycles: dict[int, tuple[OpBlock, int]] = {}

    def compute_cycles(self, block: OpBlock) -> int:
        """Issue cycles for a block under the dual-issue model.

        FPU stream: each simple flop and each FMA is one issue; sqrt
        and special ops serialise for their latency (they are iterative
        FMA sequences, so they occupy the FPU).  IALU stream: integer
        ops and local load/stores.  The block takes the longer stream,
        divided by the sustained issue efficiency.
        """
        hit = self._cycles.get(id(block))
        if hit is not None:
            return hit[1]
        s = self.spec
        if not s.fma_supported:
            # Without FMA each fused op splits into a multiply + add.
            fpu_issues = block.flops + 2.0 * block.fmas
        else:
            fpu_issues = block.flops + block.fmas
        fpu_issues += block.sqrts * s.sqrt_cycles
        fpu_issues += block.specials * s.special_cycles
        ialu_issues = block.int_ops + block.local_loads + block.local_stores
        if s.dual_issue:
            cycles = max(fpu_issues, ialu_issues)
        else:
            cycles = fpu_issues + ialu_issues
        issue = ceil(cycles / s.issue_efficiency)
        if len(self._cycles) >= _CYCLES_CACHE_MAX:
            self._cycles.clear()
        self._cycles[id(block)] = (block, issue)
        return issue
