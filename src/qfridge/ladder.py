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

from .thermal import (
    _GAUSS_LEGENDRE_10,
    ConfigurationError,
    DomainError,
    relative_entropy,
    resource_free_energy,
)


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
    stages of ``spec``, is built by a walk over the N stages on first read,
    and never otherwise.
    """

    w_total: float
    df_target: float
    gap: float
    spec: LadderSpec
    q_init: float | None = None

    @cached_property
    def per_step(self) -> tuple[LadderStage, ...]:
        return _walk(self.spec)


def _walk(spec: LadderSpec) -> tuple[LadderStage, ...]:
    """The N coherent stages of ``spec``, walked once in plain floats."""
    e = spec.target_gap
    n = spec.n_steps
    excess = spec.t_room / spec.t_cold - 1.0
    x_room = e / spec.t_room
    span = e / spec.t_cold - x_room
    r_prev = 1.0 / (1.0 + math.exp(-x_room))
    stages = []
    for i in range(1, n + 1):
        f = i / n
        x = x_room + f * span
        r = 1.0 / (1.0 + math.exp(-x))
        stages.append(LadderStage(i, e / x, r, (r - r_prev) * (e * (1.0 + f * excess) - e)))
        r_prev = r
    return tuple(stages)


# B_2k/(2k)! for k = 1..8 and the odd derivatives of the excited population
# s = 1/(1 + e^x) as polynomials in u = s(1 - s): s^(2k-1) = -Q_k(u), with
# Q_1 = u and Q_k+1 = Q_k'' u^2 (1 - 4u) + Q_k' (u - 6u^2).  Each Q_k is
# listed from u^k down to u^1; it has no constant term.
_BERNOULLI_TERMS = (
    (0.08333333333333333, (1.0,)),
    (-0.001388888888888889, (-6.0, 1.0)),
    (3.306878306878307e-05, (120.0, -30.0, 1.0)),
    (-8.267195767195768e-07, (-5040.0, 1680.0, -126.0, 1.0)),
    (2.08767569878681e-08, (362880.0, -151200.0, 17640.0, -510.0, 1.0)),
    (-5.284190138687493e-10, (-39916800.0, 19958400.0, -3160080.0, 168960.0, -2046.0, 1.0)),
    (
        1.3382536530684679e-11,
        (6227020800.0, -3632428800.0, 726485760.0, -57657600.0, 1561560.0, -8190.0, 1.0),
    ),
    (
        -3.3896802963225827e-13,
        (
            -1307674368000.0, 871782912000.0, -210680870400.0, 22313491200.0,
            -988107120.0, 14217840.0, -32766.0, 1.0,
        ),
    ),
)


def _series_row(k: int) -> tuple[float, tuple[float, ...], tuple[float, ...], float, float, float]:
    # B_2k/(2k)!, P_k = Q_k/u and R_k of F^(2k-1) = t R_k(u) - w u P_k(u) (see
    # _bernoulli_series): R_k = (2k - 1) u Q_k-1' for k >= 2, from
    # s^(2k-2) = (1 - 2s) u Q_k-1'(u), and R_1 = -1/2, which reads (y s)' = s - y u
    # as s - 1/2 = -t/2.  Then |B_2k/(2k)!| times the bounds on |P_k|, R_k's
    # constant r_0 and (R_k - r_0)/u over 0 <= u <= 1/4, each sum_j |c_j| 4^-j
    # over its coefficients c_j of u^j.  Every polynomial is listed from its
    # top power down, as Horner's rule reads it.
    bernoulli, odd = _BERNOULLI_TERMS[k - 1]
    previous = _BERNOULLI_TERMS[k - 2][1] if k > 1 else ()
    slope = tuple((2 * k - 1) * (len(previous) - j) * c for j, c in enumerate(previous))
    even = slope + (0.0 if k > 1 else -0.5,)
    odd_bound, even_bound = (
        abs(bernoulli) * sum(abs(c) * 0.25**j for j, c in enumerate(reversed(p))) for p in (odd, slope)
    )
    return bernoulli, odd, even, odd_bound, abs(bernoulli * even[-1]), even_bound


_SERIES = tuple(_series_row(k) for k in range(1, len(_BERNOULLI_TERMS) + 1))


def _end(y: float) -> tuple[float, float, float, float]:
    # q = e^-y, the excited population s = q/(1 + q), u = s(1 - s) = s/(1 + q)
    # and tanh(y/2) = 1 - 2s, exact also as y -> 0.
    q = math.exp(-y)
    s = q / (1.0 + q)
    return q, s, s / (1.0 + q), math.tanh(0.5 * y)


def _bernoulli_series(h: float, first: float, scale: float, a: tuple, b: tuple) -> float:
    """Σ_k B_2k/(2k)! first h^(2k-2) (F^(2k-1)(b) - F^(2k-1)(a)), F = s or y s.

    At first = h², the Bernoulli terms of the Euler-Maclaurin series of the
    step-h sum h Σ F over [a, b]; at first = 1, those terms over h², which
    stay finite as h underflows.  Each end is (w, u, t), u = s(1 - s), with
    F^(2k-1) = t R_k(u) - w u P_k(u): w = 1 and t = 0 for F = s, whose odd
    derivatives are -Q_k(u); w = y and t = tanh(y/2) for F = y s, whose are
    -y Q_k(u) + (2k - 1) t u Q_k-1'(u).  The first term whose bound falls
    below 2^-55 of ``scale`` ends the series: for h <= 0.25 each bound is at
    most 0.11 of the one before.  s has poles at ±iπ, so the series diverges,
    but at h <= 0.25 its first eight terms are within 1e-16 of the excess.
    """
    (w_a, u_a, t_a), (w_b, u_b, t_b) = a, b
    # Each row's bound, summed over the ends, weighs its odd_bound by w u,
    # its even_bound by t u and its even_floor by t.
    odd_weight, even_weight, floor_weight = w_a * u_a + w_b * u_b, t_a * u_a + t_b * u_b, t_a + t_b
    cutoff = 2.0**-55 * scale
    h2 = h * h
    power = first
    total = 0.0
    for bernoulli, odd, even, odd_bound, even_floor, even_bound in _SERIES:
        if power * (odd_weight * odd_bound + even_weight * even_bound + floor_weight * even_floor) <= cutoff:
            break
        p_a = p_b = r_a = r_b = 0.0
        for c in odd:
            p_a = p_a * u_a + c
            p_b = p_b * u_b + c
        for c in even:
            r_a = r_a * u_a + c
            r_b = r_b * u_b + c
        f_a = t_a * r_a - w_a * (u_a * p_a)
        f_b = t_b * r_b - w_b * (u_b * p_b)
        total += bernoulli * power * (f_b - f_a)
        power *= h2
    return total


def _left_sum_drop(x_room: float, x_cold: float, h: float, n: int) -> float:
    """Σ_{i<n} (s(x_room + i h) - s(x_cold)), h > 0.25, over at most 3000 terms.

    The terms past x = 746, where s underflows to 0, are exactly 0, since
    x_cold lies beyond them.  Every term is >= 0, so a rounding below 0
    among subnormals reads 0.
    """
    terms = n if x_room + n * h <= 746.0 else max(0, math.ceil((746.0 - x_room) / h))
    qs = [math.exp(-(x_room + i * h)) for i in range(terms)]
    q_c = math.exp(-x_cold)
    return max(0.0, math.fsum([q / (1.0 + q) for q in qs]) - n * (q_c / (1.0 + q_c)))


def coherent_ladder(spec: LadderSpec) -> LadderOutcome:
    """Sequential swaps against N qubits with linearly increasing gaps.

    Stage i leaves the target at 1/T_i = 1/T_R + (i/N)(1/T_C - 1/T_R) and
    costs the population increment times the gap excess E_i - E.  Summed by
    parts, the total is T_R·h·Σ_{i<N} (s_i - s_N), where s_i is the excited
    population after stage i and h = (E/T_C - E/T_R)/N, the step in E/T.
    The target's free-energy increase is T_R·D, with D the integral of the
    same excess over E/T, so the gap is T_R times the left Riemann sum's
    excess over its integral: positive and O(1/N).  For h <= 0.25 the gap
    is its Euler-Maclaurin series for F = s, led by (h/2)(s_R - s_C), so
    the totals take O(1) time at any N; beyond, the sum has fewer than
    4 (E/T_C - E/T_R) terms.  Stage records are built when ``per_step`` is
    read.
    """
    e = spec.target_gap
    t_room = spec.t_room
    x_room = e / t_room
    x_cold = e / spec.t_cold
    span = x_cold * ((t_room - spec.t_cold) / t_room)  # exact as T_C -> T_R
    df_target = t_room * relative_entropy(e, spec.t_cold, t_room)
    h = span / spec.n_steps
    if h <= 0.25:
        q_r, s_r, u_r, _ = _end(x_room)
        _, s_c, u_c, _ = _end(x_cold)
        # s_R - s_C = r_R s_C (e^span - 1) has no cancellation while span is small.
        drop = s_c / (1.0 + q_r) * math.expm1(span) if span <= 1.0 else s_r - s_c
        lead = 0.5 * h * drop
        gap = t_room * (lead + _bernoulli_series(h, h * h, lead, (1.0, u_r, 0.0), (1.0, u_c, 0.0)))
        return LadderOutcome(df_target + gap, df_target, gap, spec)
    w_total = t_room * h * _left_sum_drop(x_room, x_cold, h, spec.n_steps)
    # At h > 0.25 the gap is over 8% of w_total; only subnormals round below 0.
    return LadderOutcome(w_total, df_target, max(0.0, w_total - df_target), spec)


def _hot_side_spacing(spec: LadderSpec, t_hot: float) -> float:
    # The hot-side gaps' spacing S = E (1/T_C - 1/T_R)/(1/T_R - 1/T_H), as
    # E ((T_R - T_C)/T_C) (T_H/(T_H - T_R)): with no rounded reciprocal, S is
    # within 3 ulps, >= 0 and exactly 0 at T_C = T_R.
    e = spec.target_gap
    carnot = 1.0 if math.isinf(t_hot) else t_hot / (t_hot - spec.t_room)
    spacing = e * ((spec.t_room - spec.t_cold) / spec.t_cold) * carnot
    if not e + spacing < math.inf:
        raise DomainError(f"the incoherent ladder's largest stage gap overflows at t_hot = {t_hot}")
    return spacing


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
    spacing = _hot_side_spacing(spec, t_hot)
    if not e_g + spacing < math.inf:
        raise DomainError(
            f"e_ground_offset {e_g} overflows the embedded ladder's top level, "
            f"e_ground_offset + spacing {spacing}"
        )
    n = spec.n_steps
    t_room = spec.t_room
    # With the extra ground level at zero, the mean energy at T is
    # (e_g P + spacing M)/(1 + P) over the ladder's weights w_i, P = Σ w_i
    # and M = Σ (i/N) w_i.  Its rise from T_R to T_H is written in the
    # weights' rises w_i(T_H) - w_i(T_R) = w_i(T_H) (1 - e^-(level_i/T_R)
    # (T_H - T_R)/T_H), each >= 0 and without cancellation, so the offset
    # e_g never cancels against itself.
    share = (t_hot - t_room) / t_hot
    partition_hot = partition_room = moment_hot = moment_room = rise = moment_rise = 0.0
    for i in range(n + 1):
        f = i / n
        level = e_g + f * spacing
        x_room = level / t_room
        w_hot = math.exp(-level / t_hot)
        w_room = math.exp(-x_room)
        dw = -w_hot * math.expm1(-x_room * share)
        partition_hot += w_hot
        partition_room += w_room
        moment_hot += f * w_hot
        moment_room += f * w_room
        rise += dw
        moment_rise += f * dw
    # Every weight is at most 1, so only the energy moment can overflow.
    if not e_g * partition_hot + spacing * moment_hot < math.inf:
        raise DomainError(
            f"e_ground_offset {e_g} overflows the embedded ladder's energy sum "
            f"over its {n + 1} levels at t_hot = {t_hot}"
        )
    # The offset's share e_g ΔP and the spacing's share, spacing (ΔM (1 + P_R)
    # - M_R ΔP), are each >= 0; both over (1 + P_H)(1 + P_R).
    scale = 1.0 + partition_hot
    rise_share = rise / scale / (1.0 + partition_room)
    spread = moment_rise / scale - moment_room * rise_share
    return e_g * rise_share + spacing * max(0.0, spread)


# π²/12, the integral of y s(y) over y >= 0.
_PI2_OVER_12 = 0.8224670334241132
# (t, w t / 2) on [0, 1], for half the integral of t f(t).
_MOMENT_NODES = tuple(
    (t, 0.25 * weight * t)
    for node, weight in _GAUSS_LEGENDRE_10
    for t in (0.5 * (1.0 - node), 0.5 * (1.0 + node))
)


def _energy_sums(spacing: float, n: int, temp: float) -> tuple[float, float]:
    """Σ e_i s(e_i/T) and Σ e_i (1/2 - s(e_i/T)) over e_i = (i/n) spacing, i = 1..n.

    The two add up to spacing (n + 1)/4; each is computed without the other,
    so neither cancels.  In y = e/T, with Y = spacing/T and step η = Y/n,
    the first is T Σ φ(i η), φ(y) = y s(y).  For η <= 0.25 both are their
    Euler-Maclaurin series: spacing times n J(Y)/Y², with J the integral of
    φ over [0, Y], plus the endpoint term s(Y)/2 and up to eight Bernoulli
    terms in φ^(2k-1) = y s^(2k-1) + (2k - 1) s^(2k-2), over n.  J comes
    from 10-point Gauss-Legendre of its complement while Y <= 2 and from
    π²/12 - Y ln(1 + e^-Y) + Li2(-e^-Y) beyond.  For η > 0.25 the first is
    summed directly over the stages up to y = 746, past which every s
    underflows to 0.
    """
    if math.isinf(temp):
        return spacing * (0.25 * (n + 1)), 0.0
    y = spacing / temp
    eta = y / n
    if eta > 0.25:
        total = 0.0  # Σ i s(i η), fewer than 2984 terms
        for i in range(1, n + 1 if y <= 746.0 else math.ceil(746.0 / eta) + 1):
            q = math.exp(-i * eta)
            total += i * (q / (1.0 + q))
        excited = spacing * (total / n)
        return excited, spacing * (0.25 * (n + 1)) - excited
    q, s, u, tanh = _end(y)
    if y <= 2.0:
        deficit = 0.0  # ∫ t (1/2 - s(t Y)) dt over [0, 1]
        for t, weight in _MOMENT_NODES:
            deficit += weight * math.tanh(0.5 * t * y)
        integral = 0.25 - deficit  # J(Y)/Y²
    else:
        dilog, power, k = 0.0, -q, 1
        while abs(power) > 2.0**-56:
            dilog += power / (k * k)
            k += 1
            power *= -q
        integral = ((_PI2_OVER_12 - y * math.log1p(q) + dilog) / y) / y
        deficit = 0.25 - integral
    # The Bernoulli terms of Σ φ(i η) times η.  φ and its odd derivatives
    # are 0 at y = 0, where s = 1/2, u = 1/4 and t = 0.
    scale = min(integral, deficit) * n * n
    correction = _bernoulli_series(eta, 1.0, scale, (0.0, 0.25, 0.0), (y, u, tanh))
    return (
        spacing * (n * integral + 0.5 * s + correction / n),
        spacing * (n * deficit + 0.25 * tanh - correction / n),
    )


def _real_qubit_preheat(spec: LadderSpec, t_hot: float) -> float:
    # Σ e_i (s(e_i/T_H) - s(e_i/T_R)) over the N hot-side gaps e_i: the
    # difference of the excited-energy sums, or of their deficits from half
    # filling, whichever is smaller at its larger end, so it loses the
    # fewest digits.
    spacing = _hot_side_spacing(spec, t_hot)
    if spacing == 0.0:
        return 0.0
    excited_hot, deficit_hot = _energy_sums(spacing, spec.n_steps, t_hot)
    excited_room, deficit_room = _energy_sums(spacing, spec.n_steps, spec.t_room)
    if excited_hot <= deficit_room:
        return max(0.0, excited_hot - excited_room)
    return max(0.0, deficit_room - deficit_hot)


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

    For callers that already hold the coherent outcome, so its totals are
    not computed twice.  q_init is computed here in constant memory, in
    O(1) time for real qubits; the gap is the coherent gap plus q_init's
    Carnot-weighted free energy, not a difference of totals.  The outcome's ``per_step`` is built from ``spec``
    when read.
    """
    t_hot = _driving_hot_bath(spec)
    if spec.e_ground_offset is not None:
        q_init = embedded_ladder_preheat(spec)
    else:
        q_init = _real_qubit_preheat(spec, t_hot)
    preheat = resource_free_energy(q_init, t_hot, spec.t_room)
    return LadderOutcome(
        w_total=preheat + coherent.w_total,
        df_target=coherent.df_target,
        gap=coherent.gap + preheat,
        spec=spec,
        q_init=q_init,
    )
