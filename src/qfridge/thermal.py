"""Thermal-state arithmetic shared by every cooling protocol.

Energies and temperatures are in natural units (k_B = hbar = 1) and every
qubit has its ground state at zero energy.  ``math.inf`` serves as the
distinguished infinite temperature: ``exp(-gap/inf)`` evaluates to ``exp(0.0)``
exactly, so hot-bath limits such as the half-filled population carry no
rounding error, and the Carnot factor ``(t_hot - t_room)/t_hot`` is taken as
exactly ``1.0``.

All values are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

INFINITE: float = math.inf

# Relative tolerance accepted for the machine resonance condition e_b = e + e_c.
RESONANCE_RTOL = 1e-9


class DomainError(ValueError):
    """An argument lies outside the physically meaningful domain."""


class ConfigurationError(DomainError):
    """A protocol needs a piece of machine configuration that was not set."""


class NegativeTemperatureError(DomainError):
    """Temperature extraction hit a ground population at or below one half.

    A population below 1/2 corresponds to an inverted (negative-temperature)
    qubit.  No cooling protocol in this package produces one, so reaching this
    error in protocol code indicates a bug rather than a physical regime.
    """


class InfeasibleTargetError(ValueError):
    """A requested target population or work budget is out of the machine's reach.

    Raised by the majorization solver for a population no unitary reaches and
    by the frontier inversions for a budget beyond their curve.
    """


def _require_gap(name: str, gap: float) -> None:
    # An infinite gap has no population: exp(-gap/temp) is NaN at temp = inf.
    if not 0.0 <= gap < INFINITE:
        raise DomainError(f"{name} must be finite and >= 0, got {gap}")


@dataclass(frozen=True)
class QubitSpec:
    """A two-level system with ground state at zero energy."""

    gap: float

    def __post_init__(self) -> None:
        _require_gap("qubit gap", self.gap)


@dataclass(frozen=True)
class MachineSpec:
    """Target qubit, machine qubits, and the bath temperatures driving them.

    ``t_room`` is the environment temperature every qubit starts at;
    ``t_hot`` is the optional hot-bath temperature used by incoherent
    protocols (``math.inf`` for the unbounded hot bath).  For two-qubit
    machines the convention is ``machine = (B, C)`` with qubit C the one
    coupled to the hot bath.
    """

    target: QubitSpec
    machine: tuple[QubitSpec, ...]
    t_room: float
    t_hot: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "machine", tuple(self.machine))
        if not self.t_room > 0.0:
            raise DomainError(f"t_room must be > 0, got {self.t_room}")
        if self.t_hot is not None and not self.t_hot >= self.t_room:
            raise DomainError(
                f"t_hot must be >= t_room, got t_hot={self.t_hot}, t_room={self.t_room}"
            )

    @classmethod
    def one_qubit(cls, e_b: float, t_room: float, *, e: float = 1.0) -> "MachineSpec":
        """Target of gap ``e`` plus a single machine qubit of gap ``e_b``, no hot bath."""
        _require_gap("target gap", e)
        _require_gap("machine gap e_b", e_b)
        return cls(QubitSpec(e), (QubitSpec(e_b),), t_room)

    @classmethod
    def target_only(cls, e: float, t_room: float, t_hot: float | None) -> "MachineSpec":
        """Target of gap ``e`` and the baths, for the ladders that bring their own qubits."""
        _require_gap("target gap", e)
        return cls(QubitSpec(e), (), t_room, t_hot)

    @classmethod
    def two_qubit(
        cls, e_c: float, t_room: float, t_hot: float | None = None, e: float = 1.0
    ) -> "MachineSpec":
        """Resonant two-qubit machine: ``e_b`` is derived as ``e + e_c``.

        Deriving the B gap removes any tolerance question about the resonance
        condition at the source.
        """
        _require_gap("target gap", e)
        _require_gap("machine gap e_c", e_c)
        return cls(QubitSpec(e), (QubitSpec(e + e_c), QubitSpec(e_c)), t_room, t_hot)

    @property
    def e(self) -> float:
        return self.target.gap

    @property
    def e_b(self) -> float:
        return self.machine[0].gap

    @property
    def e_c(self) -> float:
        return self.machine[1].gap

    @property
    def gaps(self) -> tuple[float, ...]:
        """Gaps in product-basis order: target first, then machine qubits."""
        return (self.target.gap,) + tuple(q.gap for q in self.machine)

    @property
    def n_qubits(self) -> int:
        return 1 + len(self.machine)

    def is_resonant(self) -> bool:
        """Whether e_b = e + e_c holds within RESONANCE_RTOL (two-qubit machines)."""
        if len(self.machine) != 2:
            return False
        return abs(self.e_b - self.e - self.e_c) <= RESONANCE_RTOL * max(1.0, self.e_b)

    def require_resonance(self) -> None:
        if not self.is_resonant():
            raise DomainError(
                "two-qubit machine with e_b = e + e_c required, got "
                f"gaps {self.gaps}"
            )

    def require_hot_bath(self) -> float:
        if self.t_hot is None:
            raise ConfigurationError("this protocol needs t_hot, but none was set")
        return self.t_hot


def boltzmann_population(gap: float, temp: float) -> float:
    """Ground-state population 1/(1 + exp(-gap/temp)) of a thermal qubit.

    ``temp = math.inf`` returns exactly 0.5.  Monotone increasing in ``gap``
    and decreasing in ``temp``.
    """
    _require_gap("gap", gap)
    if not temp > 0.0:
        raise DomainError(f"temperature must be > 0 or infinite, got {temp}")
    return 1.0 / (1.0 + math.exp(-gap / temp))


def excited_population(gap: float, temp: float) -> float:
    """Excited-state population q/(1 + q), q = exp(-gap/temp), of a thermal qubit.

    The complement of :func:`boltzmann_population` without its cancellation:
    within a few ulps also where the ground population rounds to 1.0, and
    exactly 0.0, never an overflow, once gap/temp passes ~745.  ``temp =
    math.inf`` returns exactly 0.5.  It is evaluated as 1/(1 + exp(gap/temp))
    up to gap/temp = 40 and as exp(-gap/temp) beyond, where the two differ by
    less than 1e-17 relative; each branch is a chain of monotone roundings,
    so the result is monotone decreasing in ``gap`` and increasing in ``temp``.
    """
    _require_gap("gap", gap)
    if not temp > 0.0:
        raise DomainError(f"temperature must be > 0 or infinite, got {temp}")
    x = gap / temp
    return math.exp(-x) if x > 40.0 else 1.0 / (1.0 + math.exp(x))


def temperature_from_population(gap: float, r: float) -> float:
    """Invert the Boltzmann distribution: gap / ln(r/(1-r)).

    Returns ``math.inf`` for r = 1/2 (symmetric populations).  Populations
    below 1/2 would correspond to a negative temperature and raise
    :class:`NegativeTemperatureError` instead of being silently returned.
    """
    if not 0.0 < gap < INFINITE:
        raise DomainError(f"gap must be finite and > 0, got {gap}")
    if not 0.0 < r < 1.0:
        raise DomainError(f"population must satisfy 0 < r < 1, got {r}")
    if r == 0.5:
        return INFINITE
    if r < 0.5:
        raise NegativeTemperatureError(
            f"population {r} < 1/2 corresponds to a non-positive temperature"
        )
    return gap / (math.log(r) - math.log1p(-r))


def resource_free_energy(heat: float, t_hot: float, t_room: float) -> float:
    """Free energy drawn from a hot bath: heat times the Carnot factor.

    The factor is (t_hot - t_room) / t_hot, whose subtraction is exact near
    the reversible limit t_hot -> t_room, where 1 - t_room / t_hot loses
    digits.  ``t_hot = math.inf`` returns ``heat`` exactly; ``t_hot =
    t_room`` returns zero (an equilibrium resource carries no free energy),
    also when both are infinite.
    """
    if not t_room > 0.0:
        raise DomainError(f"t_room must be > 0, got {t_room}")
    if not t_hot >= t_room:
        raise DomainError(f"t_hot must be >= t_room, got {t_hot} < {t_room}")
    if not math.isfinite(heat):
        raise DomainError(f"heat must be finite, got {heat}")
    if t_hot == t_room:
        return heat * 0.0
    if math.isinf(t_hot):
        return heat
    return heat * ((t_hot - t_room) / t_hot)


def binary_entropy(r: float) -> float:
    """Shannon entropy -r ln r - (1-r) ln(1-r) of a two-outcome distribution."""
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"population must lie in [0, 1], got {r}")
    if r == 0.0 or r == 1.0:
        return 0.0
    return -r * math.log(r) - (1.0 - r) * math.log1p(-r)


# The positive nodes of 10-point Gauss-Legendre on [-1, 1] and their weights.
_GAUSS_LEGENDRE_10 = (
    (0.14887433898163122, 0.2955242247147528),
    (0.4333953941292472, 0.2692667193099965),
    (0.6794095682990244, 0.219086362515982),
    (0.8650633666889845, 0.1494513491505804),
    (0.9739065285171717, 0.06667134430868814),
)
# (t, w (1 - t)) on [0, 1], for the integral of (1 - t) f(t).
_BREGMAN_NODES = tuple(
    (t, 0.5 * weight * (1.0 - t))
    for node, weight in _GAUSS_LEGENDRE_10
    for t in (0.5 * (1.0 - node), 0.5 * (1.0 + node))
)


def relative_entropy(gap: float, temp: float, ref_temp: float) -> float:
    """D(γ(temp) ‖ γ(ref_temp)) between two Gibbs states of one qubit.

    ``ref_temp·D`` is the free energy, at ``ref_temp``, of a qubit at
    ``temp`` above one at ``ref_temp``.  In the exponents x = gap/temp and
    x + δ = gap/ref_temp, taking δ = x (temp - ref_temp)/ref_temp while the
    temperatures are within a factor 2, where it is exact, D = sp(-x - δ) -
    sp(-x) + s δ, with sp softplus and s the excited population at ``temp``.  For |δ| <= 0.5, where those terms
    cancel, it is δ² ∫₀¹ (1 - t) s(1 - s)(x + tδ) dt by 10-point
    Gauss-Legendre, within a few ulps.  Either temperature may be
    ``math.inf``; D is inf only when gap/ref_temp overflows at a finite x.
    """
    _require_gap("gap", gap)
    if not (temp > 0.0 and ref_temp > 0.0):
        raise DomainError(f"temperatures must be > 0 or infinite, got {temp} and {ref_temp}")
    if temp == ref_temp:
        return 0.0
    x = gap / temp
    x_ref = gap / ref_temp
    if 0.5 <= temp / ref_temp <= 2.0:  # temp - ref_temp is exact
        delta = x * ((temp - ref_temp) / ref_temp)
    else:
        delta = x_ref - x
    if abs(delta) <= 0.5:
        total = 0.0
        for t, weight in _BREGMAN_NODES:
            q = math.exp(-(x + t * delta))
            total += weight * q / ((1.0 + q) * (1.0 + q))
        return delta * delta * total
    q = math.exp(-x)
    s = q / (1.0 + q)
    q_ref = math.exp(-x_ref)
    d = math.log1p(-s) - math.log1p(-q_ref / (1.0 + q_ref))
    return max(0.0, d + s * delta if s else d)  # D >= 0; its terms may round below


def thermal_populations(
    gaps: Sequence[float], temps: Sequence[float]
) -> np.ndarray:
    """Diagonal of the tensor product of single-qubit Gibbs states.

    Product-basis ordering |a b c ...> with the first qubit's bit most
    significant, i.e. index 4a + 2b + c for three qubits.  Like
    :func:`hamiltonian_diagonal` it loads numpy on its first call, so the
    closed forms never pay for it.
    """
    import numpy as np

    if len(gaps) != len(temps):
        raise DomainError(
            f"got {len(gaps)} gaps but {len(temps)} temperatures"
        )
    pops = np.array([1.0])
    for gap, temp in zip(gaps, temps):
        r = boltzmann_population(gap, temp)
        pops = np.multiply.outer(pops, np.array([r, 1.0 - r])).ravel()
    return pops


def hamiltonian_diagonal(gaps: Sequence[float]) -> np.ndarray:
    """Diagonal of the non-interacting Hamiltonian in the same basis ordering."""
    import numpy as np

    h = np.array([0.0])
    for gap in gaps:
        h = np.add.outer(h, np.array([0.0, gap])).ravel()
    return h
