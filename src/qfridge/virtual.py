"""Virtual-qubit calculus: the engine behind every repeated protocol.

A virtual qubit is a two-level subspace of the machine's joint spectrum.  A
swap of the target against it mixes the target's ground population toward the
virtual qubit's normalized one with weight equal to the subspace norm, which
is what makes the n-step closed forms geometric series.

Virtual qubits are value snapshots.  The "machine reset between swaps"
semantics of the repeated protocols is modeled by the caller re-extracting a
fresh snapshot each cycle, which keeps the update laws pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .thermal import DomainError, INFINITE


class EmptyVirtualQubitError(DomainError):
    """Both subspace levels carry zero population: the virtual qubit is empty."""


@dataclass(frozen=True)
class VirtualQubit:
    """Populations, norm, bias, and virtual temperature of a two-level subspace."""

    p_g: float
    p_e: float
    gap: float

    def __post_init__(self) -> None:
        if not (self.p_g >= 0.0 and self.p_e >= 0.0):
            raise DomainError(f"populations must be >= 0, got ({self.p_g}, {self.p_e})")
        if self.norm == 0.0:
            raise EmptyVirtualQubitError("virtual qubit with zero norm")
        if self.norm > 1.0 + 1e-12:
            raise DomainError(f"virtual-qubit norm {self.norm} exceeds 1")
        if not math.isfinite(self.gap):
            raise DomainError(f"virtual-qubit gap must be finite, got {self.gap}")

    @property
    def norm(self) -> float:
        return self.p_g + self.p_e

    @property
    def r_v(self) -> float:
        """Normalized ground population p_g / (p_g + p_e)."""
        return self.p_g / self.norm

    @property
    def t_v(self) -> float:
        """Virtual temperature from the Gibbs ratio p_e/p_g = exp(-gap/t_v).

        Exactly zero for an empty excited level (pure ground-state virtual
        qubit) rather than a float underflow; ``math.inf`` for equal
        populations.
        """
        if self.p_e == 0.0:
            return 0.0
        ratio = self.p_g / self.p_e
        if ratio == 1.0:
            return INFINITE
        return self.gap / math.log(ratio)


def extract_virtual_qubit(
    machine_state: Sequence[float], level_g: int, level_e: int, gap: float
) -> VirtualQubit:
    """Snapshot the two-level subspace (level_g, level_e) of a diagonal state."""
    p_g = float(machine_state[level_g])
    p_e = float(machine_state[level_e])
    return VirtualQubit(p_g=p_g, p_e=p_e, gap=gap)


def _require_population(r: float) -> None:
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"starting population must lie in [0, 1], got {r}")


def swap_update(r: float, vq: VirtualQubit) -> float:
    """Target ground population after one full swap with the virtual qubit."""
    _require_population(r)
    return vq.norm * vq.r_v + (1.0 - vq.norm) * r


def n_swap_population(r0: float, vq: VirtualQubit, n: float) -> float:
    """Closed form for n reset-and-swap cycles: geometric approach to r_v.

    ``n`` may be a non-negative integer or ``math.inf`` (the asymptote r_v).
    """
    if not n >= 0:
        raise DomainError(f"repetition count must be >= 0, got {n}")
    _require_population(r0)
    contraction = 0.0 if math.isinf(n) else (1.0 - vq.norm) ** n
    return vq.r_v - (vq.r_v - r0) * contraction
