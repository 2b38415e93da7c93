"""Closed-form evaluators for every named cooling protocol.

Each evaluator returns a :class:`ProtocolOutcome` holding the final ground
population, the extracted temperature, the resource free-energy cost, the
heat drawn (incoherent scenarios only), and the per-step trajectory.  The
evaluators are purely closed-form; the dense density-matrix route lives in
:mod:`qfridge.oracle` so that formula/oracle independence is architectural.

Every two-qubit evaluator starts from _resonant(spec), the one builder of a
machine record: it checks the resonance e_b = e + e_c, a target gap e > 0
and the hot bath where one is read, each error naming its input.  One that
another reuses is f(spec) = _f(_resonant(spec)); internal calls take _f.

Infinite repetition counts and infinite hot-bath temperatures are exact limit
branches, never large-number approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple

from . import virtual
from .thermal import (
    DomainError,
    INFINITE,
    InfeasibleTargetError,
    MachineSpec,
    RESONANCE_RTOL,
    boltzmann_population,
    excited_population,
    relative_entropy,
    resource_free_energy,
    temperature_from_population,
)


class TrajectoryPoint(NamedTuple):
    step: float
    r: float
    delta_f: float


class _Kink(NamedTuple):
    # A kink of a single-cycle coherent frontier: the gap of the qubit whose population the target
    # has reached, that population, the cost so far, and the gradient of the phase ending here.
    gap: float
    r: float
    work: float
    gradient: float


def _kinks(e: float, r: float, phases: list[tuple[float, float, float]]) -> tuple[_Kink, ...]:
    # The frontier from the target (gap e, population r) through each (gap, r_end, gradient) phase.
    rows = [_Kink(e, r, 0.0, 0.0)]
    for gap, r_end, gradient in phases:
        last = rows[-1]
        rows.append(_Kink(gap, r_end, last.work + (r_end - last.r) * gradient, gradient))
    return tuple(rows)


@dataclass(frozen=True)
class ProtocolOutcome:
    """Final state and cost of one protocol run."""

    r_final: float
    t_final: float
    work_cost: float
    heat_drawn: float | None = None
    trajectory: tuple[TrajectoryPoint, ...] = ()
    flag: str | None = None


@dataclass(frozen=True)
class _Machine:
    # A resonant two-qubit machine with a target gap > 0, built only by
    # _resonant.  Each field is computed on first read, so a caller pays only
    # for what it reads: the incoherent inversion never builds the frontier.
    spec: MachineSpec

    @cached_property
    def r(self) -> float:
        return boltzmann_population(self.spec.e, self.spec.t_room)

    @cached_property
    def r_b(self) -> float:
        return boltzmann_population(self.spec.e_b, self.spec.t_room)

    @cached_property
    def r_c(self) -> float:
        return boltzmann_population(self.spec.e_c, self.spec.t_room)

    @cached_property
    def r_ch(self) -> float:
        # C's ground population at the hot bath _resonant(spec, True) checked.
        return boltzmann_population(self.spec.e_c, self.spec.t_hot)

    @cached_property
    def frontier(self) -> tuple[_Kink, ...]:
        # The optimal single cycle swaps the target up to r_B: with C first
        # (to r_C at e_c - e) exactly when E_C > E, then with B (at e_b - e = e_c).
        e, e_c = self.spec.e, self.spec.e_c
        head = [(e_c, self.r_c, e_c - e)] if e_c > e else []
        return _kinks(e, self.r, head + [(self.spec.e_b, self.r_b, e_c)])

    @property
    def w_half(self) -> float:
        # W(1/2) = E_C (r_C - 1/2), the incoherent frontier's cost at
        # t_hot = inf, beyond which it has no point.
        return self.spec.e_c * (self.r_c - 0.5)


def _resonant(spec: MachineSpec, hot_bath: bool = False) -> _Machine:
    # The two-qubit protocols' one machine check.
    spec.require_resonance()
    if not spec.e > 0.0:
        # No temperature reads off a gapless target, and E = E_C = 0 leaves
        # the swap asymptotes' T_R E/(E_B + E_C) as 0/0.
        raise DomainError(f"the two-qubit protocols need a target gap > 0, got {spec.e}")
    if hot_bath:
        spec.require_hot_bath()
    return _Machine(spec)


def _require_repetition_count(n: float) -> None:
    # Integer-valued floats (the curve grid passes float(k)) and math.inf are
    # counts; anything else would be silently truncated by int(n).
    if not n >= 0:
        raise DomainError(f"repetition count must be >= 0, got {n}")
    if not (math.isinf(n) or float(n).is_integer()):
        raise DomainError(f"repetition count must be an integer or inf, got {n}")


def _final_temperature(spec: MachineSpec, r_final: float) -> float:
    # Populations saturate to exactly 1.0 in double precision once
    # gap/temperature exceeds ~37; the corresponding temperature is below
    # anything a float population can resolve, reported as 0.0.
    if r_final >= 1.0:
        return 0.0
    return temperature_from_population(spec.e, r_final)


def point_temperature(spec: MachineSpec, point: TrajectoryPoint) -> float:
    """Temperature of a two-qubit trajectory point, machine checked; step 0 at r is t_room."""
    return _point_temperature(_resonant(spec), point)


def _point_temperature(m: _Machine, point: TrajectoryPoint) -> float:
    if point.step == 0 and point.r == m.r:
        return m.spec.t_room
    return _final_temperature(m.spec, point.r)


def _single_cycle(
    spec: MachineSpec, r: float, r_final: float, work: float, heat: float | None = None
) -> ProtocolOutcome:
    # One cycle from the room population r to r_final at the given cost.
    trajectory = (TrajectoryPoint(0, r, 0.0), TrajectoryPoint(1, r_final, work))
    return ProtocolOutcome(r_final, _final_temperature(spec, r_final), work, heat, trajectory)


def one_qubit_coherent(spec: MachineSpec, r_target: float) -> ProtocolOutcome:
    """Work-optimal single-cycle cooling against one machine qubit."""
    if len(spec.machine) != 1:
        raise DomainError("one-qubit protocol needs exactly one machine qubit")
    if spec.e >= spec.e_b:
        raise DomainError(
            f"cooling impossible: needs e < e_b, got e={spec.e}, e_b={spec.e_b}"
        )
    if not spec.e > 0.0:
        raise DomainError(f"the one-qubit protocol needs a target gap > 0, got {spec.e}")
    r = boltzmann_population(spec.e, spec.t_room)
    r_b = boltzmann_population(spec.e_b, spec.t_room)
    frontier = _kinks(spec.e, r, [(spec.e_b, r_b, spec.e_b - spec.e)])
    return _single_cycle(spec, r, r_target, _phase_work(frontier, r_target))


def _degenerate_swap_population(r: float, r_b: float, c_pop: float) -> float:
    # Target ground population after one swap of |010>, |101> with B thermal
    # at r_b and C's ground population at c_pop.
    return r * r_b + ((1.0 - r) * r_b + r * (1.0 - r_b)) * (1.0 - c_pop)


def two_qubit_incoherent_single(spec: MachineSpec) -> ProtocolOutcome:
    """Heat qubit C, swap the degenerate pair |010>, |101> once."""
    return _incoherent_single(_resonant(spec, hot_bath=True))


def _incoherent_single(m: _Machine) -> ProtocolOutcome:
    r_final = _degenerate_swap_population(m.r, m.r_b, m.r_ch)
    heat = m.spec.e_c * (m.r_c - m.r_ch)
    work = resource_free_energy(heat, m.spec.t_hot, m.spec.t_room)
    return _single_cycle(m.spec, m.r, r_final, work, heat)


def _origin_temperature(t_room: float, delta_f: float) -> float:
    # A frontier inverse at a budget that is not > 0: t_room, or NaN rejected.
    if delta_f <= 0.0:
        return t_room
    raise DomainError(f"work budget must be a number, got {delta_f}")


def _incoherent_work(u: float, r_x: float, s_c: float, e_c: float, t_room: float) -> float:
    # W = (s_x - s_C)(E_C - T_R ln(r_x/s_x)), the incoherent frontier's cost
    # at C's hot excited population s_x = s_C + u (ground r_x = r_C - u), in
    # complement form: with E_C/T_R = ln(r_C/s_C), W = T_R u ln(1 + y),
    # y = u/(s_C r_x), whose terms cannot cancel as u -> 0 or as E_C -> 0.
    # Each rounding step is monotone in u and in r_x.  Once s_C < 1e-300, y
    # would overflow: ln y = ln(u/r_x) + E_C/T_R there (ln s_C = -E_C/T_R
    # to the last bit) and ln(1 + y) is its softplus.
    if s_c >= 1e-300:
        return t_room * u * math.log1p(u / (s_c * r_x))
    log_y = math.log(u / r_x) + e_c / t_room
    if log_y > 0.0:
        return t_room * u * (log_y + math.log1p(math.exp(-log_y)))
    return t_room * u * math.log1p(math.exp(log_y))


def incoherent_temperature_of_work(spec: MachineSpec, delta_f: float) -> float:
    """Inverse of the single-cycle incoherent frontier: work budget to temperature.

    The frontier of :func:`two_qubit_incoherent_single` over t_hot >= t_room
    is parametrised by C's hot ground population x in [1/2, r_C]: its work
    cost W = (r_C - x)(E_C - T_R ln(x/(1-x))) falls monotonically from
    E_C (r_C - 1/2) at x = 1/2 (t_hot = inf) to 0 at x = r_C (t_hot = t_room).
    W is evaluated in complement form, T_R u ln(1 + u/(s_C x)) with
    u = r_C - x and s_C = 1 - r_C carried as an excited population, so no
    term cancels near either end or as E_C -> 0.  The inversion is plain
    bisection of [1/2, r_C] on the float predicate W(x) < delta_f until the
    bracket holds two adjacent doubles (no tolerance parameter); the target
    population follows from the same degenerate-pair swap.  The result is
    nonincreasing in the budget over the doubles, to the last ulp: each
    rounding step of W is monotone, so the predicate is monotone in x and in
    the budget, the result is an end of the one adjacent pair on which it
    flips, and the swap population and the temperature are monotone in x.
    Budgets <= 0 return t_room before the machine is checked; budgets at or
    beyond W(1/2) raise :class:`InfeasibleTargetError` naming W(1/2); NaN
    raises :class:`DomainError`.
    """
    if not delta_f > 0.0:
        return _origin_temperature(spec.t_room, delta_f)
    m = _resonant(spec)
    w_half = m.w_half
    if delta_f >= w_half:
        raise InfeasibleTargetError(f"work budget {delta_f!r} at or beyond W(1/2)={w_half!r}")
    e_c, t_room = spec.e_c, spec.t_room
    s_c = excited_population(e_c, t_room)
    lo, hi = 0.5, m.r_c  # W(lo) >= delta_f > W(hi)
    while True:
        x = 0.5 * (lo + hi)
        if x == lo or x == hi:
            break
        if _incoherent_work(m.r_c - x, x, s_c, e_c, t_room) < delta_f:
            hi = x
        else:
            lo = x
    return _final_temperature(spec, _degenerate_swap_population(m.r, m.r_b, x))


def _phase_work(frontier: tuple[_Kink, ...], r_target: float) -> float:
    # Work of raising the target to r_target, from the kink that starts the
    # phase r_target falls in.  Targets within 1e-12 of the range are clamped
    # into it, as the T-transform solver clamps its mixing weight.
    r, r_top = frontier[0].r, frontier[-1].r
    if not r - 1e-12 <= r_target <= r_top + 1e-12:
        raise InfeasibleTargetError(
            f"r_target={r_target} outside the reachable range [{r}, {r_top}]"
        )
    r_target = min(max(r_target, r), r_top)
    k = next(k for k in range(1, len(frontier)) if r_target <= frontier[k].r)
    return frontier[k - 1].work + (r_target - frontier[k - 1].r) * frontier[k].gradient


def single_cycle_coherent_cost(spec: MachineSpec) -> float:
    """Optimal work of maximal single-cycle coherent cooling (r_target = r_B)."""
    return _resonant(spec).frontier[-1].work


def coherent_single_population(spec: MachineSpec, mu: float) -> float:
    """Target population of the optimal single-cycle frontier at mixing ``mu``.

    mu in [0, 1] walks the swap phases, an equal share each: r to r_B, or
    (through C) r to r_C by mu = 1/2, then on to r_B.
    """
    frontier = _resonant(spec).frontier
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"mu must lie in [0, 1], got {mu}")
    position = (len(frontier) - 1) * mu
    k = max(math.ceil(position), 1)  # the kink that ends mu's phase
    start, end = frontier[k - 1], frontier[k]
    return start.r + (position - (k - 1)) * (end.r - start.r)


def coherent_temperature_of_work(spec: MachineSpec, delta_f: float) -> float:
    """Inverse of the piecewise-linear single-cycle coherent frontier.

    Reads the budget's phase off the frontier's kinks.  Budgets <= 0
    return t_room before the machine is checked; budgets beyond
    :func:`single_cycle_coherent_cost` return r_B's temperature (0.0 once r_B
    saturates to 1 in double precision); NaN raises :class:`DomainError`.
    """
    if not delta_f > 0.0:
        return _origin_temperature(spec.t_room, delta_f)
    frontier = _resonant(spec).frontier
    if frontier[-1].r <= frontier[0].r:
        return spec.t_room
    last = len(frontier) - 1
    k = next((k for k in range(1, last) if delta_f <= frontier[k].work), last)
    start, end = frontier[k - 1], frontier[k]
    if k < last:  # a head phase: the budget left over its gradient
        return _final_temperature(spec, start.r + (delta_f - start.work) / end.gradient)
    cost = (end.r - start.r) * end.gradient
    share = 1.0 if delta_f - start.work >= cost else (delta_f - start.work) / cost
    return _final_temperature(spec, start.r + share * (end.r - start.r))


def frontier_gap_sign(spec: MachineSpec) -> tuple[float, Callable[[float], int]]:
    """(f_max, sign): the coherent full cost and the sign of T_inc(dF) - T_coh(dF).

    T_inc(f) > T_coh(f) exactly when the incoherent frontier needs more than
    f to reach the coherent population at f.  The degenerate-pair swap is
    linear in C's hot population, so that need is one forward evaluation,
    not an inversion: the coherent phases, walked in excited populations,
    lower the target's s by drop at f, and C's hot excited population must
    then be s_x = ((s - s') + r s_B)/(s r_B + r s_B) with s' = s - drop, that
    is s_C + u with u = drop/(s r_B + r s_B) (the resonance makes
    r s_B r_C = s s_C r_B).  The sign is +1 once s_x >= 1/2, that is
    u >= tanh(E_C/2T_R)/2, which no hot bath reaches, and otherwise that of
    W(s_x) - f, with W in the complement form
    :func:`incoherent_temperature_of_work` evaluates.  Excited populations
    keep every term free of cancellation, also where r, r_B and r_C round
    to 1.  The machine is checked and its constants, f_max =
    :func:`single_cycle_coherent_cost` among them, are computed here once
    from one record; a sign costs one phase walk and one W evaluation.
    Budgets <= 0 give 0; budgets at or beyond W(1/2) raise
    :class:`InfeasibleTargetError`, as the incoherent inversion does; NaN
    raises :class:`DomainError`.
    """
    m = _resonant(spec)
    e_c, t_room = spec.e_c, spec.t_room
    frontier = m.frontier
    s_kinks = [excited_population(kink.gap, t_room) for kink in frontier]  # s, [s_C,] s_B
    s, s_b = s_kinks[0], s_kinks[-1]
    s_c = excited_population(e_c, t_room)
    r_c, w_half = m.r_c, m.w_half
    denominator = s * (1.0 - s_b) + (1.0 - s) * s_b
    u_half = 0.5 * math.tanh(0.5 * e_c / t_room)
    # (span of s, gradient) of each coherent phase, in phase order.
    spans = [(a - b, kink.gradient) for a, b, kink in zip(s_kinks, s_kinks[1:], frontier[1:])]
    *head, (last_span, last_gradient) = spans

    def sign(delta_f: float) -> int:
        if not delta_f > 0.0:
            _origin_temperature(t_room, delta_f)
            return 0
        if delta_f >= w_half:
            raise InfeasibleTargetError(f"work budget {delta_f!r} at or beyond W(1/2)={w_half!r}")
        if not denominator > 0.0:
            return 0  # s = s_B = 0.0: the target rounds to absolute zero
        work, drop = 0.0, 0.0
        for span, gradient in head:
            cost = span * gradient
            if delta_f - work <= cost:
                drop += (delta_f - work) / gradient
                break
            work, drop = work + cost, drop + span
        else:
            cost = last_span * last_gradient
            drop += last_span if delta_f - work >= cost else (delta_f - work) / cost * last_span
        u = drop / denominator
        if u >= u_half:
            return 1
        if not u > 0.0:
            return -1
        need = _incoherent_work(u, r_c - u, s_c, e_c, t_room)
        return (need > delta_f) - (need < delta_f)

    return frontier[-1].work, sign


def two_qubit_coherent_single(spec: MachineSpec, r_target: float) -> ProtocolOutcome:
    """Work-optimal single-cycle coherent cooling of the resonant machine."""
    m = _resonant(spec)
    return _single_cycle(spec, m.r, r_target, _phase_work(m.frontier, r_target))


def _virtual_qubit(m: _Machine, c_pop: float, coherent: bool) -> virtual.VirtualQubit:
    # B thermal at t_room, C at ground population c_pop; the coherent swaps
    # use the {00,11} pair (gap e_b + e_c), the incoherent ones {01,10}.
    r_b, s_b, s_c = m.r_b, 1.0 - m.r_b, 1.0 - c_pop
    state = (r_b * c_pop, r_b * s_c, s_b * c_pop, s_b * s_c)
    if coherent:
        return virtual.extract_virtual_qubit(state, 0, 3, m.spec.e_b + m.spec.e_c)
    return virtual.extract_virtual_qubit(state, 1, 2, m.spec.e_b - m.spec.e_c)


def _reset_and_swap(
    m: _Machine,
    n: float,
    start: tuple[float, float],
    virtual_qubit: Callable[[], virtual.VirtualQubit],
    limit: Callable[[], tuple[float, float]],
    cost: Callable[[float, float], float],
    heat: Callable[[float], float] | None = None,
) -> ProtocolOutcome:
    # n reset-and-swap cycles from start = (r0, f0): cycle k lands on
    # r_k = n_swap_population(r0, vq, k) at cost(r_k, r_(k-1)).  n = inf
    # takes the exact limit (r_final, t_final) instead, priced with
    # r_(k-1) = r_final; the virtual qubit is built for finite n only, and an
    # empty one (norm 0) moves nothing.  heat, when given, maps the last
    # cycle's r_(k-1) to the heat drawn.
    r0, f0 = start
    if math.isinf(n):
        r_final, t_final = limit()
        r_prev = r_final
        trajectory = (
            TrajectoryPoint(0, r0, f0),
            TrajectoryPoint(INFINITE, r_final, cost(r_final, r_final)),
        )
    else:
        try:
            vq = virtual_qubit()
            rs = [virtual.n_swap_population(r0, vq, k) for k in range(int(n) + 1)]
        except virtual.EmptyVirtualQubitError:
            rs = [r0] * (int(n) + 1)
        trajectory = (TrajectoryPoint(0, r0, f0),) + tuple(
            TrajectoryPoint(k, rs[k], cost(rs[k], rs[k - 1])) for k in range(1, len(rs))
        )
        r_prev = rs[-2] if n else r0
        t_final = _point_temperature(m, trajectory[-1])
    last = trajectory[-1]
    heat_drawn = None if heat is None else heat(r_prev)
    return ProtocolOutcome(last.r, t_final, last.delta_f, heat_drawn, trajectory)


def repeated_incoherent(spec: MachineSpec, n: float) -> ProtocolOutcome:
    """n reset-and-swap incoherent cycles (asymptote: the autonomous fridge).

    The heat ledger holds the initial preheat of qubit C plus the re-heats
    before every swap after the first, which follow the population r_(k-1)
    moved by the earlier swaps; the work cost is that heat times the Carnot
    factor.
    """
    _require_repetition_count(n)
    m = _resonant(spec, hot_bath=True)
    preheat = spec.e_c * (m.r_c - m.r_ch)

    def heat(r_prev: float) -> float:
        return preheat + spec.e_c * (r_prev - m.r)

    return _reset_and_swap(
        m,
        n,
        (m.r, resource_free_energy(preheat, spec.t_hot, spec.t_room)),
        lambda: _virtual_qubit(m, m.r_ch, False),
        lambda: _incoherent_limit(spec),
        lambda r_k, r_prev: resource_free_energy(heat(r_prev), spec.t_hot, spec.t_room),
        heat,
    )


def _incoherent_limit(spec: MachineSpec) -> tuple[float, float]:
    # (r, t) of the autonomous fridge; the bias vanishes only when t_room
    # (and so t_hot) is infinite.
    bias = spec.e_b / spec.t_room - spec.e_c / spec.t_hot
    t = spec.e / bias if bias > 0.0 else INFINITE
    return boltzmann_population(spec.e, t), t


def _swap_limit(m: _Machine, pair_gap: float) -> tuple[float, float]:
    # (r, t) = (r, T_R E / pair_gap), the asymptote of repeated {00,11} swaps
    # against a thermal machine (pair_gap e_b + e_c) or with C fully precooled
    # to B's population (2 e_b).
    t = m.spec.t_room * m.spec.e / pair_gap
    return boltzmann_population(m.spec.e, t), t


def _algorithmic_limit(m: _Machine) -> tuple[float, float]:
    return _swap_limit(m, 2.0 * m.spec.e_b)


def autonomous_steady_state(spec: MachineSpec) -> ProtocolOutcome:
    """Steady state of the always-on three-qubit fridge.

    Identical final population and cumulative heat to infinitely repeated
    incoherent operations; only the steady-state formulas are implemented,
    not the open-system dynamics reaching them.
    """
    return _autonomous(_resonant(spec, hot_bath=True))


def _autonomous(m: _Machine) -> ProtocolOutcome:
    r_auto, t_auto = _incoherent_limit(m.spec)
    heat = m.spec.e_c * (m.r_c - m.r_ch + r_auto - m.r)
    work = resource_free_energy(heat, m.spec.t_hot, m.spec.t_room)
    return ProtocolOutcome(
        r_final=r_auto,
        t_final=t_auto,
        work_cost=work,
        heat_drawn=heat,
        trajectory=(TrajectoryPoint(0, m.r, 0.0), TrajectoryPoint(INFINITE, r_auto, work)),
    )


def repeated_coherent(spec: MachineSpec, n: float) -> ProtocolOutcome:
    """Optimal first cycle, then reset-and-swap against the {00,11} subspace.

    The first cycle is the work-optimal single-cycle operation (it lands on
    exactly the same population r_B as one {00,11}-subspace swap, but at
    lower cost); each later cycle swaps |100> with |011> after the machine is
    rethermalized, moving population at gradient e_b + e_c - e = 2 e_c.
    """
    return _repeated_coherent(_resonant(spec), n)


def _repeated_coherent(m: _Machine, n: float) -> ProtocolOutcome:
    _require_repetition_count(n)
    first_cost = m.frontier[-1].work
    return _reset_and_swap(
        m,
        n,
        (m.r, 0.0),
        lambda: _virtual_qubit(m, m.r_c, True),
        lambda: _swap_limit(m, m.spec.e_b + m.spec.e_c),
        lambda r_k, _: first_cost + 2.0 * m.spec.e_c * (r_k - m.r_b),
    )


def precooled_population(spec: MachineSpec, nu: float) -> float:
    """Qubit C ground population after a nu-partial precooling swap with B."""
    return _precooled(_resonant(spec), nu)


def _precooled(m: _Machine, nu: float) -> float:
    if not 0.0 <= nu <= 1.0:
        raise DomainError(f"nu must lie in [0, 1], got {nu}")
    return m.r_c + nu * (m.r_b - m.r_c)


def precool_mixing_for_population(spec: MachineSpec, r_target: float) -> float:
    """Mixing nu whose asymptotic {00,11} population equals ``r_target``.

    At and beyond the full-precooling floor the mixing is exactly 1; the
    closed form would lose that to the cancellation in 1 - r_target.
    """
    return _precool_mixing(_resonant(spec), r_target)


def _precool_mixing(m: _Machine, r_target: float) -> float:
    if not 0.0 <= r_target <= 1.0:
        raise DomainError(f"population must lie in [0, 1], got {r_target}")
    if r_target >= _algorithmic_limit(m)[0]:
        return 1.0
    r_b, r_c = m.r_b, m.r_c
    denom = r_target * (1.0 - r_b) + r_b * (1.0 - r_target)
    c_pop = r_target * (1.0 - r_b) / denom
    span = r_b - r_c
    if span <= 0.0:
        return 0.0
    return min(max((c_pop - r_c) / span, 0.0), 1.0)


def algorithmic_cooling(
    spec: MachineSpec, n: float, nu: float = 1.0, r0: float | None = None
) -> ProtocolOutcome:
    """Precool C through B, then swap the target against the {00,11} subspace.

    ``nu`` tunes the precooling partial swap (1 = full algorithmic cooling,
    0 = plain repeated coherent populations); ``r0`` in [r, 1] is the target
    population the procedure starts from (default: thermal at t_room).  Work
    per cycle: 2 e_c per unit of population cooled plus e per unit of
    precooling restored.
    """
    return _algorithmic_cooling(_resonant(spec), n, nu, r0)


def _algorithmic_cooling(m: _Machine, n: float, nu: float, r0: float | None) -> ProtocolOutcome:
    spec = m.spec
    _require_repetition_count(n)
    r0 = m.r if r0 is None else r0
    if not m.r - 1e-12 <= r0 <= 1.0:
        raise DomainError(f"starting population {r0} must lie in [{m.r}, 1]")
    c_pop = _precooled(m, nu)
    precool_cost = spec.e * (c_pop - m.r_c)

    def virtual_qubit() -> virtual.VirtualQubit:
        return _virtual_qubit(m, c_pop, True)

    def limit() -> tuple[float, float]:
        if nu == 1.0:
            return _algorithmic_limit(m)
        r_v = virtual_qubit().r_v
        return r_v, _final_temperature(spec, r_v)

    return _reset_and_swap(
        m,
        n,
        (r0, 0.0),
        virtual_qubit,
        limit,
        lambda r_k, r_prev: precool_cost + 2.0 * spec.e_c * (r_k - r0) + spec.e * (r_prev - r0),
    )


def optimal_sequence(spec: MachineSpec, t_target: float) -> ProtocolOutcome:
    """Cheapest route to ``t_target``: swap chain, repeats, tuned precooling.

    Phases in order, each at its energy gradient, stopping at the phase that
    reaches the target: the single cycle's target<->C swap (if any) and
    target<->B swap, repeated {00,11} swaps down to their asymptote, then
    precooling tuned so the asymptotic population matches the target exactly.
    """
    m = _resonant(spec)
    if not t_target > 0.0:
        raise DomainError(f"target temperature must be > 0, got {t_target}")
    r_floor, t_floor = _algorithmic_limit(m)
    r_t = boltzmann_population(spec.e, t_target)
    if r_t > r_floor * (1.0 + 1e-12) or t_target < t_floor * (1.0 - 1e-12):
        raise InfeasibleTargetError(
            f"target temperature {t_target} below the reachable floor {t_floor}"
        )
    r_t = min(r_t, r_floor)
    if r_t <= m.r:
        return ProtocolOutcome(m.r, spec.t_room, 0.0)

    r_coh_inf, t_coh_inf = _swap_limit(m, spec.e_b + spec.e_c)
    # (population endpoint, gradient): the single cycle, then {00,11} swaps.
    phases = [(kink.r, kink.gradient) for kink in m.frontier[1:]] + [(r_coh_inf, 2.0 * spec.e_c)]

    work, r_now = 0.0, m.r
    trajectory = [TrajectoryPoint(0, m.r, 0.0)]
    for index, (r_end, gradient) in enumerate(phases, start=1):
        work += (min(r_t, r_end) - r_now) * gradient
        r_now = min(r_t, r_end)
        trajectory.append(TrajectoryPoint(index, r_now, work))
        # The {00,11} phase reaches the target by temperature: on cold
        # machines its population and r_t both round to 1.0.
        reached = t_target >= t_coh_inf if index == len(phases) else r_t <= r_end
        if reached:
            return ProtocolOutcome(r_t, t_target, work, trajectory=tuple(trajectory))

    # Tuned-precooling tail from the repeated-coherent asymptote to the target.
    nu = _precool_mixing(m, r_t)
    c_pop = _precooled(m, nu)
    work += spec.e * (c_pop - m.r_c) + (spec.e + 2.0 * spec.e_c) * (r_t - r_now)
    trajectory.append(TrajectoryPoint(len(phases) + 1, r_t, work))
    return ProtocolOutcome(
        r_final=r_t,
        t_final=t_target,
        work_cost=work,
        trajectory=tuple(trajectory),
        flag=f"precool mixing nu={nu!r}",
    )


def boxed_limits(spec: MachineSpec) -> dict:
    """Every boxed limit quantity of the one- and two-qubit machines, as ``summary`` prints it.

    One record of the machine with its hot bath at infinity gives them all,
    the repeated ones at n = inf; ``machine`` echoes ``spec``, t_hot included.
    """
    m = _resonant(replace(spec, t_hot=INFINITE), hot_bath=True)
    e, e_b, e_c, t = spec.e, spec.e_b, spec.e_c, spec.t_room
    t_coh_star = t * e / e_b
    inc = _incoherent_single(m)
    auto = _autonomous(m)
    coh_inf = _repeated_coherent(m, INFINITE)
    algo_inf = _algorithmic_cooling(m, INFINITE, 1.0, None)
    # The optimal_sequence cost at t_algo_inf (algo_inf.work_cost overcharges):
    # the repeated-coherent asymptote, then the full-precooling tail.
    df_algo_inf = coh_inf.work_cost + e * (m.r_b - m.r_c) + (2.0 * e_c + e) * (
        algo_inf.r_final - coh_inf.r_final
    )
    return {
        "machine": {"e": e, "e_b": e_b, "e_c": e_c, "t_room": t, "t_hot": spec.t_hot},
        "one_qubit": {
            "t_coh_star": t_coh_star,
            "r_coh_star": m.r_b,
            "delta_f_coh_star": (m.r_b - m.r) * (e_b - e),
        },
        "two_qubit": {
            "t_inc_star": inc.t_final,
            "r_inc_star": inc.r_final,
            "delta_f_inc_star": inc.work_cost,
            "t_auto_star": auto.t_final,
            "r_auto_star": auto.r_final,
            "delta_f_auto_star": auto.work_cost,
            "t_coh_star": t_coh_star,
            "r_coh_star": m.r_b,
            "delta_f_coh_star": m.frontier[-1].work,
            "delta_f_coh_star_ab_swap": (m.r_b - m.r) * e_c,
            "delta_f_coh_star_two_swap": (m.r_c - m.r) * (e_c - e) + (m.r_b - m.r_c) * e_c,
            "t_coh_inf": coh_inf.t_final,
            "r_coh_inf": coh_inf.r_final,
            "delta_f_coh_inf": coh_inf.work_cost,
            "t_algo_inf": algo_inf.t_final,
            "r_algo_inf": algo_inf.r_final,
            "delta_f_algo_inf": df_algo_inf,
        },
    }


def internal_resource(
    spec: MachineSpec, scenario: str, control: float
) -> ProtocolOutcome:
    """Single-cycle cooling with qubit C itself as the resource.

    ``scenario='incoherent'``: C is exchanged with a copy thermal at
    ``control`` (= T_H >= t_room) and charged the free energy of that copy
    over C at t_room, T_R·D, which stays positive and exact as T_H -> T_R.
    ``scenario='coherent'``: a local
    unitary with mixing ``control`` (= mu in [0, 1]) is applied to C and the
    energy change of the state is charged.  Both end with the degenerate-pair
    swap.  The incoherent variant dominates the coherent one at any
    temperature both can reach.
    """
    m = _resonant(spec)
    r_c = m.r_c
    if scenario == "incoherent":
        t_hot = control
        if not t_hot >= spec.t_room:
            raise DomainError(f"internal hot temperature must be >= t_room, got {t_hot}")
        c_pop = boltzmann_population(spec.e_c, t_hot)
        work = 0.0  # an equilibrium copy is free, also at t_room = inf
        if t_hot > spec.t_room:
            work = spec.t_room * relative_entropy(spec.e_c, t_hot, spec.t_room)
            if work == INFINITE:
                # E_C/T_R overflows, so D does, and C's room population is 1:
                # T_R·D = s_H E_C (T_H - T_R)/T_H + T_R ln(1 - s_H), whose
                # last term is below E_C·4e-309 and is dropped.
                work = resource_free_energy(
                    spec.e_c * excited_population(spec.e_c, t_hot), t_hot, spec.t_room
                )
    elif scenario == "coherent":
        mu = control
        if not 0.0 <= mu <= 1.0:
            raise DomainError(f"mu must lie in [0, 1], got {mu}")
        c_pop = (1.0 - mu) * r_c + mu * (1.0 - r_c)
        work = (r_c - c_pop) * spec.e_c
    else:
        raise DomainError(f"unknown scenario {scenario!r}")
    return _single_cycle(spec, m.r, _degenerate_swap_population(m.r, m.r_b, c_pop), work)


@dataclass(frozen=True)
class DegeneracyClassification:
    """Degeneracy relations of a three-qubit spectrum and whether they cool."""

    degeneracies: tuple[str, ...]
    cooling_enabled: bool
    enabling_subspace: tuple[int, int] | None = None


def degeneracy_classifier(e: float, e_b: float, e_c: float) -> DegeneracyClassification:
    """Enumerate the spectrum's degeneracy types and whether cooling is enabled.

    Only the resonance e_b = e + e_c opens a degenerate pair (|010>, |101>)
    whose populations an energy-conserving unitary can tilt toward the target
    ground state; every other relation (equal gaps, zero gaps, the other sum
    rules, and their combinations) leaves the target no colder.  The
    resonance itself goes dead when e_c = 0, which forces the pair's
    populations equal at any hot-bath temperature.
    """
    for name, value in (("e", e), ("e_b", e_b), ("e_c", e_c)):
        if not 0.0 <= value < INFINITE:
            raise DomainError(f"{name} must be finite and >= 0, got {value}")
    tol = RESONANCE_RTOL * max(1.0, e, e_b, e_c)
    found: list[str] = []
    labels = {"a": e, "b": e_b, "c": e_c}
    for name, value in labels.items():
        if value <= tol:
            found.append(f"E_{name.upper()}=0")
    for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
        if abs(labels[x] - labels[y]) <= tol:
            found.append(f"E_{x.upper()}=E_{y.upper()}")
    sums = (
        ("E_A=E_B+E_C", e, e_b + e_c),
        ("E_B=E_A+E_C", e_b, e + e_c),
        ("E_C=E_A+E_B", e_c, e + e_b),
    )
    for label, left, right in sums:
        if abs(left - right) <= tol:
            found.append(label)
    enabled = abs(e_b - e - e_c) <= tol and e_c > tol and e_b > tol
    return DegeneracyClassification(
        degeneracies=tuple(found),
        cooling_enabled=enabled,
        enabling_subspace=(2, 5) if enabled else None,
    )
