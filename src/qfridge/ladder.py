"""N-stage ladder machines that squeeze the work cost toward the second law.

A single swap against a large-gap qubit reaches any temperature but wastes
work; splitting the descent over N machine qubits with linearly increasing
gaps moves each unit of population against a smaller gradient, and the excess
over the target's free-energy increase shrinks as O(1/N).  The incoherent
twin runs one resonant two-qubit stage per step and pays the same
stage-by-stage work plus only the Carnot-weighted preheating of its hot-side
qubits, which an embedded multilevel ladder makes arbitrarily small.

Each stage is evaluated in its fully swapped / steady limit; stage repetition
counts are not modeled (repeating swaps against the same virtual qubit costs
the same work per unit population).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .thermal import ConfigurationError, DomainError, binary_entropy, resource_free_energy


class LadderStage(NamedTuple):
    index: int
    temperature: float
    r: float
    work: float


@dataclass(frozen=True)
class LadderSpec:
    """Ladder machine description: stage count, temperatures, optional extras.

    ``t_hot`` is needed for the incoherent twin only.  ``e_ground_offset``
    selects the embedded-virtual-ladder preheating model; when left unset the
    incoherent ladder preheats N real C-qubits instead.
    """

    n_steps: int
    t_cold: float
    t_room: float
    t_hot: float | None = None
    e_ground_offset: float | None = None
    target_gap: float = 1.0

    def __post_init__(self) -> None:
        n = self.n_steps
        if isinstance(n, bool) or not hasattr(type(n), "__index__") or n < 1:
            raise DomainError(f"ladder needs an integer n_steps >= 1, got {n!r}")
        object.__setattr__(self, "n_steps", operator.index(n))  # numpy ints too
        if not 0.0 < self.t_room < math.inf:
            raise DomainError(f"t_room must be finite and > 0, got {self.t_room}")
        if not 0.0 < self.target_gap < math.inf:
            raise DomainError(f"target gap must be finite and > 0, got {self.target_gap}")
        if not 0.0 < self.t_cold <= self.t_room:
            raise DomainError(f"t_cold must satisfy 0 < t_cold <= t_room, got {self.t_cold}")
        if not max(self.target_gap, self.t_room) / self.t_cold < math.inf:
            raise DomainError(f"t_cold = {self.t_cold} overflows E/t_cold or t_room/t_cold")
        # The last stage's gap, in the float operations of _walk at f = 1.
        if not self.target_gap * (1.0 + (self.t_room / self.t_cold - 1.0)) < math.inf:
            raise DomainError(
                f"target gap {self.target_gap} overflows the largest stage gap "
                f"E t_room/t_cold at t_room = {self.t_room}, t_cold = {self.t_cold}"
            )
        if self.target_gap / self.t_room == 0.0:
            raise DomainError(
                f"target gap {self.target_gap} underflows E/t_room to 0 at t_room = {self.t_room}"
            )
        if self.t_hot is not None and not self.t_hot >= self.t_room:
            raise DomainError(f"t_hot must be >= t_room, got {self.t_hot}")
        if self.e_ground_offset is not None and not 0.0 <= self.e_ground_offset < math.inf:
            raise DomainError(f"e_ground_offset must be finite and >= 0, got {self.e_ground_offset}")


@dataclass(frozen=True)
class LadderOutcome:
    """Total work, target free-energy increase, and their second-law gap.

    The totals are computed when it is built.  ``per_step``, the coherent
    stages of ``spec``, is built by a second walk on first read, and never
    otherwise.
    """

    w_total: float
    df_target: float
    gap: float
    spec: LadderSpec
    q_init: float | None = None

    @cached_property
    def per_step(self) -> tuple[LadderStage, ...]:
        stages: list[LadderStage] = []
        _walk(self.spec, stages)
        return tuple(stages)


def _walk(spec: LadderSpec, stages: list[LadderStage] | None = None) -> tuple[float, float, float]:
    """(w_total, r_0, r_N) of :func:`coherent_ladder`; each stage goes to ``stages`` if given."""
    e = spec.target_gap
    n = spec.n_steps
    excess = spec.t_room / spec.t_cold - 1.0
    x_room = e / spec.t_room
    span = e / spec.t_cold - x_room
    r_0 = r_prev = 1.0 / (1.0 + math.exp(-x_room))
    w_total = 0.0
    for i in range(1, n + 1):
        f = i / n
        x = x_room + f * span
        r = 1.0 / (1.0 + math.exp(-x))
        work = (r - r_prev) * (e * (1.0 + f * excess) - e)
        w_total += work
        if stages is not None:
            stages.append(LadderStage(i, e / x, r, work))
        r_prev = r
    return w_total, r_0, r_prev


def coherent_ladder(spec: LadderSpec) -> LadderOutcome:
    """Sequential swaps against N qubits with linearly increasing gaps.

    Stage i leaves the target at 1/T_i = 1/T_R + (i/N)(1/T_C - 1/T_R) and
    costs the population increment times the gap excess E_i - E.  The gap
    over the target's free-energy increase is positive and O(1/N).  One
    walk in constant memory; stage records are built when ``per_step`` is read.
    """
    w_total, r_0, r_n = _walk(spec)
    e = spec.target_gap
    df_target = spec.t_room * (binary_entropy(r_0) - binary_entropy(r_n)) - e * (r_n - r_0)
    return LadderOutcome(w_total, df_target, w_total - df_target, spec)


def _incoherent_max_gap(spec: LadderSpec, t_hot: float) -> float:
    # E (1/T_C - 1/T_H)/(1/T_R - 1/T_H), written as E plus a term >= 0 so that
    # the spacing e_max - E is never negative and is exactly 0 at T_C = T_R.
    e = spec.target_gap
    e_max = e + e * (1.0 / spec.t_cold - 1.0 / spec.t_room) / (1.0 / spec.t_room - 1.0 / t_hot)
    if not e_max < math.inf:  # also NaN, once 1/T_C and 1/T_R both overflow
        raise DomainError(f"the incoherent ladder's largest stage gap overflows at t_hot = {t_hot}")
    return e_max


def embedded_ladder_preheat(spec: LadderSpec) -> float:
    """Preheating cost of the embedded (N+2)-level virtual ladder.

    Average-energy difference between thermal states at t_hot and t_room of
    an evenly spaced (N+1)-level ladder plus one extra ground level offset
    e_ground_offset below it.  Decays to zero once the offset freezes the
    ladder out at both temperatures (offsets well above t_hot); defaults the
    offset to 50 max(t_hot, t_room) (N+1) when unset, which puts the cost
    below double precision.  No finite offset lies above an infinite hot
    bath, so ``t_hot = inf`` raises :class:`DomainError`.
    """
    t_hot = spec.t_hot
    if t_hot is None:
        raise ConfigurationError("embedded preheating needs t_hot")
    if math.isinf(t_hot):
        raise DomainError(
            "embedded preheating needs a finite t_hot: no ground offset can "
            "freeze the ladder out at an infinite hot-bath temperature"
        )
    if 1.0 / t_hot == 1.0 / spec.t_room:  # also a t_hot whose reciprocal rounds to 1/t_room
        return 0.0
    e_g = spec.e_ground_offset
    if e_g is None:
        e_g = 50.0 * max(t_hot, spec.t_room) * (spec.n_steps + 1)
    spacing = _incoherent_max_gap(spec, t_hot) - spec.target_gap
    n = spec.n_steps

    def mean_energy(temp: float) -> float:
        # Shift by +e_g so the extra ground level sits at zero; the
        # average-energy difference between two temperatures is shift
        # invariant.  Both moments are summed left to right in one pass and
        # the ground level's weight of 1 is added after, which keeps the bits
        # of the list-building form in tests/ladder_reference.py.
        partition = moment = 0.0
        for i in range(n + 1):
            level = e_g + (i / n) * spacing
            weight = math.exp(-level / temp)
            partition += weight
            moment += level * weight
        return moment / (1.0 + partition)

    return mean_energy(t_hot) - mean_energy(spec.t_room)


def _real_qubit_preheat(spec: LadderSpec, t_hot: float) -> float:
    # boltzmann_population inline: the spec and a finite spacing give it
    # 0 <= e_ci < inf and positive temperatures.
    spacing = _incoherent_max_gap(spec, t_hot) - spec.target_gap
    n = spec.n_steps
    t_room = spec.t_room
    total = 0.0
    for i in range(1, n + 1):
        e_ci = (i / n) * spacing
        total += e_ci * (
            1.0 / (1.0 + math.exp(-e_ci / t_room)) - 1.0 / (1.0 + math.exp(-e_ci / t_hot))
        )
    return total


def incoherent_ladder(spec: LadderSpec) -> LadderOutcome:
    """2N-qubit incoherent twin of the coherent ladder.

    Stage gaps are chosen so each resonant two-qubit stage steadies the
    target at exactly the coherent stage temperature; the work cost is the
    coherent one plus the Carnot-weighted preheating heat q_init of the N
    hot-side qubits (real qubits, or the embedded virtual ladder when
    e_ground_offset is set).  A hot bath at room temperature cannot drive
    the stages, so ``t_hot == t_room`` raises :class:`DomainError`.
    """
    _driving_hot_bath(spec)  # before the coherent ladder is built
    return incoherent_twin(spec, coherent_ladder(spec))


def _driving_hot_bath(spec: LadderSpec) -> float:
    t_hot = spec.t_hot
    if t_hot is None:
        raise ConfigurationError("incoherent ladder needs t_hot")
    if 1.0 / t_hot == 1.0 / spec.t_room:  # also a t_hot whose reciprocal rounds to 1/t_room
        raise DomainError(
            "incoherent ladder needs 1/t_hot < 1/t_room: a hot bath at room "
            "temperature supplies no free energy to cool with"
        )
    return t_hot


def incoherent_twin(spec: LadderSpec, coherent: LadderOutcome) -> LadderOutcome:
    """:func:`incoherent_ladder` priced on ``coherent = coherent_ladder(spec)``.

    For callers that already hold the coherent outcome, so the ladder is
    not walked twice.  q_init is summed here in constant memory; the
    outcome's ``per_step`` is built from ``spec`` when read.
    """
    t_hot = _driving_hot_bath(spec)
    if spec.e_ground_offset is not None:
        q_init = embedded_ladder_preheat(spec)
    else:
        q_init = _real_qubit_preheat(spec, t_hot)
    w_total = resource_free_energy(q_init, t_hot, spec.t_room) + coherent.w_total
    return LadderOutcome(
        w_total=w_total,
        df_target=coherent.df_target,
        gap=w_total - coherent.df_target,
        spec=spec,
        q_init=q_init,
    )
