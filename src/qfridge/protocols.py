"""Closed-form evaluators for every named cooling protocol.

Each evaluator returns a :class:`ProtocolOutcome` holding the final ground
population, the extracted temperature, the resource free-energy cost, the
heat drawn (incoherent scenarios only), and the per-step trajectory.  The
evaluators are purely closed-form; the dense density-matrix route lives in
:mod:`qfridge.oracle` so that formula/oracle independence is architectural.

Infinite repetition counts and infinite hot-bath temperatures are exact limit
branches, never large-number approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    resource_free_energy,
    temperature_from_population,
)


class TrajectoryPoint(NamedTuple):
    step: float
    r: float
    delta_f: float


@dataclass(frozen=True)
class ProtocolOutcome:
    """Final state and cost of one protocol run."""

    r_final: float
    t_final: float
    work_cost: float
    heat_drawn: float | None = None
    trajectory: tuple[TrajectoryPoint, ...] = ()
    flag: str | None = None


def _require_repetition_count(n: float) -> None:
    # Integer-valued floats (the curve grid passes float(k)) and math.inf are
    # counts; anything else would be silently truncated by int(n).
    if not n >= 0:
        raise DomainError(f"repetition count must be >= 0, got {n}")
    if not (math.isinf(n) or float(n).is_integer()):
        raise DomainError(f"repetition count must be an integer or inf, got {n}")


def _room_population(spec: MachineSpec) -> float:
    return boltzmann_population(spec.e, spec.t_room)


def _machine_room_populations(spec: MachineSpec) -> tuple[float, float]:
    return (
        boltzmann_population(spec.e_b, spec.t_room),
        boltzmann_population(spec.e_c, spec.t_room),
    )


def _final_temperature(spec: MachineSpec, r_final: float) -> float:
    # Populations saturate to exactly 1.0 in double precision once
    # gap/temperature exceeds ~37; the corresponding temperature is below
    # anything a float population can resolve, reported as 0.0.
    if r_final >= 1.0:
        return 0.0
    return temperature_from_population(spec.e, r_final)


def point_temperature(spec: MachineSpec, point: TrajectoryPoint) -> float:
    """Temperature of a trajectory point; step 0 at the room population is t_room."""
    if point.step == 0 and point.r == _room_population(spec):
        return spec.t_room
    return _final_temperature(spec, point.r)


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
    r = _room_population(spec)
    r_b = boltzmann_population(spec.e_b, spec.t_room)
    return _single_cycle(spec, r, r_target, _phase_work(r, [(r_b, spec.e_b - spec.e)], r_target))


def _degenerate_swap_population(r: float, r_b: float, c_pop: float) -> float:
    # Target ground population after one swap of |010>, |101> with B thermal
    # at r_b and C's ground population at c_pop.
    return r * r_b + ((1.0 - r) * r_b + r * (1.0 - r_b)) * (1.0 - c_pop)


def two_qubit_incoherent_single(spec: MachineSpec) -> ProtocolOutcome:
    """Heat qubit C, swap the degenerate pair |010>, |101> once."""
    spec.require_resonance()
    t_hot = spec.require_hot_bath()
    r = _room_population(spec)
    r_b, r_c = _machine_room_populations(spec)
    r_ch = boltzmann_population(spec.e_c, t_hot)
    r_final = _degenerate_swap_population(r, r_b, r_ch)
    heat = spec.e_c * (r_c - r_ch)
    return _single_cycle(spec, r, r_final, resource_free_energy(heat, t_hot, spec.t_room), heat)


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


def _frontier_end(spec: MachineSpec) -> tuple[float, float]:
    # C's room ground population r_C and W(1/2) = E_C (r_C - 1/2), the
    # incoherent frontier's cost at t_hot = inf, beyond which it has no point.
    r_c = boltzmann_population(spec.e_c, spec.t_room)
    return r_c, spec.e_c * (r_c - 0.5)


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
    Budgets <= 0 return t_room before the machine is checked for resonance;
    budgets at or beyond W(1/2) raise :class:`InfeasibleTargetError`; NaN
    raises :class:`DomainError`.
    """
    if not delta_f > 0.0:
        return _origin_temperature(spec.t_room, delta_f)
    spec.require_resonance()
    e_c, t_room = spec.e_c, spec.t_room
    r_c, w_half = _frontier_end(spec)
    if delta_f >= w_half:
        raise InfeasibleTargetError("work budget beyond the incoherent curve")
    s_c = excited_population(e_c, t_room)
    lo, hi = 0.5, r_c  # W(lo) >= delta_f > W(hi)
    while True:
        x = 0.5 * (lo + hi)
        if x == lo or x == hi:
            break
        if _incoherent_work(r_c - x, x, s_c, e_c, t_room) < delta_f:
            hi = x
        else:
            lo = x
    r_final = _degenerate_swap_population(
        _room_population(spec), boltzmann_population(spec.e_b, t_room), x
    )
    return _final_temperature(spec, r_final)


def _swap_phases(
    spec: MachineSpec, via_c: bool, ends: tuple[float, float] | None = None
) -> list[tuple[float, float]]:
    # (population endpoint, gradient) of each swap raising the target from r
    # to r_B: with C first when via_c (to r_C at e_c - e), then with B (to r_B
    # at e_b - e = e_c).  ends = (s_B, s_C) gives the endpoints as excited
    # populations instead.
    end_b, end_c = _machine_room_populations(spec) if ends is None else ends
    return ([(end_c, spec.e_c - spec.e)] if via_c else []) + [(end_b, spec.e_c)]


def _single_cycle_phases(
    spec: MachineSpec, ends: tuple[float, float] | None = None
) -> list[tuple[float, float]]:
    # The work-optimal single cycle goes through C exactly when e_c > e.
    return _swap_phases(spec, spec.e_c > spec.e, ends)


def _phase_work(r: float, phases: list[tuple[float, float]], r_target: float) -> float:
    # Work of raising the target from r to r_target along the swap phases,
    # each at its gradient.  Targets within 1e-12 of the range are clamped
    # into it, as the T-transform solver clamps its mixing weight.
    r_top = phases[-1][0]
    if not r - 1e-12 <= r_target <= r_top + 1e-12:
        raise InfeasibleTargetError(
            f"r_target={r_target} outside the reachable range [{r}, {r_top}]"
        )
    r_target = min(max(r_target, r), r_top)
    work, r_now = 0.0, r
    for r_end, gradient in phases:
        work += (min(r_target, r_end) - r_now) * gradient
        if r_target <= r_end:
            break
        r_now = r_end
    return work


def swap_route_cost(spec: MachineSpec, via_c: bool) -> float:
    """Work of swapping the target up to r_B, through C first when ``via_c``."""
    spec.require_resonance()
    phases = _swap_phases(spec, via_c)
    return _phase_work(_room_population(spec), phases, phases[-1][0])


def single_cycle_coherent_cost(spec: MachineSpec) -> float:
    """Optimal work of maximal single-cycle coherent cooling (r_target = r_B)."""
    spec.require_resonance()
    return swap_route_cost(spec, spec.e_c > spec.e)


def coherent_single_population(spec: MachineSpec, mu: float) -> float:
    """Target population of the optimal single-cycle frontier at mixing ``mu``.

    mu in [0, 1] walks the swap phases, an equal share each: r to r_B, or
    (e_c > e) r to r_C by mu = 1/2, then on to r_B.
    """
    spec.require_resonance()
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"mu must lie in [0, 1], got {mu}")
    phases = _single_cycle_phases(spec)
    r_now, position = _room_population(spec), len(phases) * mu
    for k, (r_end, _) in enumerate(phases):
        if position <= k + 1:
            break
        r_now = r_end
    return r_now + (position - k) * (r_end - r_now)


def coherent_temperature_of_work(spec: MachineSpec, delta_f: float) -> float:
    """Inverse of the piecewise-linear single-cycle coherent frontier.

    Walks the swap phases at their gradients up to the budget.  Budgets <= 0
    return t_room before the machine is checked for resonance; budgets beyond
    :func:`single_cycle_coherent_cost` return r_B's temperature (0.0 once r_B
    saturates to 1 in double precision); NaN raises :class:`DomainError`.
    """
    if not delta_f > 0.0:
        return _origin_temperature(spec.t_room, delta_f)
    spec.require_resonance()
    r = _room_population(spec)
    phases = _single_cycle_phases(spec)
    if phases[-1][0] <= r:
        return spec.t_room
    work, r_now = 0.0, r
    for r_end, gradient in phases[:-1]:
        cost = (r_end - r_now) * gradient
        if delta_f - work <= cost:
            return _final_temperature(spec, r_now + (delta_f - work) / gradient)
        work, r_now = work + cost, r_end
    r_end, gradient = phases[-1]
    cost = (r_end - r_now) * gradient
    share = 1.0 if delta_f - work >= cost else (delta_f - work) / cost
    return _final_temperature(spec, r_now + share * (r_end - r_now))


def frontier_gap_sign(spec: MachineSpec) -> Callable[[float], int]:
    """Sign of T_inc(dF) - T_coh(dF) between the single-cycle frontiers.

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
    to 1.  The resonance check and the machine's constants are computed here
    once; a sign costs one phase walk and one W evaluation.
    Budgets <= 0 give 0; budgets at or beyond W(1/2) raise
    :class:`InfeasibleTargetError`, as the incoherent inversion does; NaN
    raises :class:`DomainError`.
    """
    spec.require_resonance()
    e_c, t_room = spec.e_c, spec.t_room
    s = excited_population(spec.e, t_room)
    s_b = excited_population(spec.e_b, t_room)
    s_c = excited_population(e_c, t_room)
    r_c, w_half = _frontier_end(spec)
    denominator = s * (1.0 - s_b) + (1.0 - s) * s_b
    u_half = 0.5 * math.tanh(0.5 * e_c / t_room)
    # (span of s, gradient) of each coherent phase, in phase order.
    spans, s_now = [], s
    for s_end, gradient in _single_cycle_phases(spec, (s_b, s_c)):
        spans.append((s_now - s_end, gradient))
        s_now = s_end
    *head, (last_span, last_gradient) = spans

    def sign(delta_f: float) -> int:
        if not delta_f > 0.0:
            _origin_temperature(t_room, delta_f)
            return 0
        if delta_f >= w_half:
            raise InfeasibleTargetError("work budget beyond the incoherent curve")
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

    return sign


def two_qubit_coherent_single(spec: MachineSpec, r_target: float) -> ProtocolOutcome:
    """Work-optimal single-cycle coherent cooling of the resonant machine."""
    spec.require_resonance()
    r = _room_population(spec)
    return _single_cycle(spec, r, r_target, _phase_work(r, _single_cycle_phases(spec), r_target))


def _virtual_qubit(spec: MachineSpec, c_pop: float, coherent: bool) -> virtual.VirtualQubit:
    # B thermal at t_room, C at ground population c_pop; the coherent swaps
    # use the {00,11} pair (gap e_b + e_c), the incoherent ones {01,10}.
    r_b, _ = _machine_room_populations(spec)
    s_b, s_c = 1.0 - r_b, 1.0 - c_pop
    state = (r_b * c_pop, r_b * s_c, s_b * c_pop, s_b * s_c)
    if coherent:
        return virtual.extract_virtual_qubit(state, 0, 3, spec.e_b + spec.e_c)
    return virtual.extract_virtual_qubit(state, 1, 2, spec.e_b - spec.e_c)


def _reset_and_swap(
    spec: MachineSpec,
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
        t_final = point_temperature(spec, trajectory[-1])
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
    spec.require_resonance()
    t_hot = spec.require_hot_bath()
    r = _room_population(spec)
    _, r_c = _machine_room_populations(spec)
    r_ch = boltzmann_population(spec.e_c, t_hot)
    preheat = spec.e_c * (r_c - r_ch)

    def heat(r_prev: float) -> float:
        return preheat + spec.e_c * (r_prev - r)

    return _reset_and_swap(
        spec,
        n,
        (r, resource_free_energy(preheat, t_hot, spec.t_room)),
        lambda: _virtual_qubit(spec, r_ch, False),
        lambda: _incoherent_limit(spec, t_hot),
        lambda r_k, r_prev: resource_free_energy(heat(r_prev), t_hot, spec.t_room),
        heat,
    )


def _incoherent_limit(spec: MachineSpec, t_hot: float) -> tuple[float, float]:
    # (r, t) of the autonomous fridge; the bias vanishes only when t_room
    # (and so t_hot) is infinite.
    bias = spec.e_b / spec.t_room - spec.e_c / t_hot
    t = spec.e / bias if bias > 0.0 else INFINITE
    return boltzmann_population(spec.e, t), t


def _swap_limit(spec: MachineSpec, pair_gap: float) -> tuple[float, float]:
    # (r, t) = (r, T_R E / pair_gap), the asymptote of repeated {00,11} swaps
    # against a thermal machine (pair_gap e_b + e_c) or with C fully precooled
    # to B's population (2 e_b).  A gapless target has no such temperature,
    # and E = E_C = 0 leaves it as 0/0.
    if not spec.e > 0.0:
        raise DomainError(f"the repeated-swap asymptotes need a target gap > 0, got {spec.e}")
    t = spec.t_room * spec.e / pair_gap
    return boltzmann_population(spec.e, t), t


def _coherent_limit(spec: MachineSpec) -> tuple[float, float]:
    return _swap_limit(spec, spec.e_b + spec.e_c)


def _algorithmic_limit(spec: MachineSpec) -> tuple[float, float]:
    return _swap_limit(spec, 2.0 * spec.e_b)


def autonomous_steady_state(spec: MachineSpec) -> ProtocolOutcome:
    """Steady state of the always-on three-qubit fridge.

    Identical final population and cumulative heat to infinitely repeated
    incoherent operations; only the steady-state formulas are implemented,
    not the open-system dynamics reaching them.
    """
    spec.require_resonance()
    t_hot = spec.require_hot_bath()
    r = _room_population(spec)
    _, r_c = _machine_room_populations(spec)
    r_ch = boltzmann_population(spec.e_c, t_hot)
    r_auto, t_auto = _incoherent_limit(spec, t_hot)
    heat = spec.e_c * (r_c - r_ch + r_auto - r)
    work = resource_free_energy(heat, t_hot, spec.t_room)
    return ProtocolOutcome(
        r_final=r_auto,
        t_final=t_auto,
        work_cost=work,
        heat_drawn=heat,
        trajectory=(TrajectoryPoint(0, r, 0.0), TrajectoryPoint(INFINITE, r_auto, work)),
    )


def repeated_coherent(spec: MachineSpec, n: float) -> ProtocolOutcome:
    """Optimal first cycle, then reset-and-swap against the {00,11} subspace.

    The first cycle is the work-optimal single-cycle operation (it lands on
    exactly the same population r_B as one {00,11}-subspace swap, but at
    lower cost); each later cycle swaps |100> with |011> after the machine is
    rethermalized, moving population at gradient e_b + e_c - e = 2 e_c.
    """
    spec.require_resonance()
    _require_repetition_count(n)
    r_b, r_c = _machine_room_populations(spec)
    first_cost = single_cycle_coherent_cost(spec)
    return _reset_and_swap(
        spec,
        n,
        (_room_population(spec), 0.0),
        lambda: _virtual_qubit(spec, r_c, True),
        lambda: _coherent_limit(spec),
        lambda r_k, _: first_cost + 2.0 * spec.e_c * (r_k - r_b),
    )


def precooled_population(spec: MachineSpec, nu: float) -> float:
    """Qubit C ground population after a nu-partial precooling swap with B."""
    spec.require_resonance()
    if not 0.0 <= nu <= 1.0:
        raise DomainError(f"nu must lie in [0, 1], got {nu}")
    r_b, r_c = _machine_room_populations(spec)
    return r_c + nu * (r_b - r_c)


def precool_mixing_for_population(spec: MachineSpec, r_target: float) -> float:
    """Mixing nu whose asymptotic {00,11} population equals ``r_target``.

    At and beyond the full-precooling floor the mixing is exactly 1; the
    closed form would lose that to the cancellation in 1 - r_target.
    """
    spec.require_resonance()
    if not 0.0 <= r_target <= 1.0:
        raise DomainError(f"population must lie in [0, 1], got {r_target}")
    if r_target >= _algorithmic_limit(spec)[0]:
        return 1.0
    r_b, r_c = _machine_room_populations(spec)
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
    spec.require_resonance()
    _require_repetition_count(n)
    r = _room_population(spec)
    if r0 is None:
        r0 = r
    if not r - 1e-12 <= r0 <= 1.0:
        raise DomainError(f"starting population {r0} must lie in [{r}, 1]")
    _, r_c = _machine_room_populations(spec)
    c_pop = precooled_population(spec, nu)
    precool_cost = spec.e * (c_pop - r_c)

    def virtual_qubit() -> virtual.VirtualQubit:
        return _virtual_qubit(spec, c_pop, True)

    def limit() -> tuple[float, float]:
        if nu == 1.0:
            return _algorithmic_limit(spec)
        r_v = virtual_qubit().r_v
        return r_v, _final_temperature(spec, r_v)

    return _reset_and_swap(
        spec,
        n,
        (r0, 0.0),
        virtual_qubit,
        limit,
        lambda r_k, r_prev: precool_cost + 2.0 * spec.e_c * (r_k - r0) + spec.e * (r_prev - r0),
    )


def optimal_sequence(spec: MachineSpec, t_target: float) -> ProtocolOutcome:
    """Cheapest route to ``t_target``: swap chain, repeats, tuned precooling.

    Phases in order, each at its energy gradient, stopping at the phase that
    reaches the target: (if e_c > e) target<->C swap, target<->B swap,
    repeated {00,11} swaps down to their asymptote, then precooling tuned so
    the asymptotic population matches the target exactly.
    """
    spec.require_resonance()
    if not t_target > 0.0:
        raise DomainError(f"target temperature must be > 0, got {t_target}")
    r = _room_population(spec)
    _, r_c = _machine_room_populations(spec)
    r_floor, t_floor = _algorithmic_limit(spec)
    r_t = boltzmann_population(spec.e, t_target)
    if r_t > r_floor * (1.0 + 1e-12) or t_target < t_floor * (1.0 - 1e-12):
        raise InfeasibleTargetError(
            f"target temperature {t_target} below the reachable floor {t_floor}"
        )
    r_t = min(r_t, r_floor)
    if r_t <= r:
        return ProtocolOutcome(r, spec.t_room, 0.0)

    r_coh_inf, t_coh_inf = _coherent_limit(spec)
    # (population endpoint, gradient): the single cycle, then {00,11} swaps.
    phases = _single_cycle_phases(spec) + [(r_coh_inf, 2.0 * spec.e_c)]

    work, r_now = 0.0, r
    trajectory = [TrajectoryPoint(0, r, 0.0)]
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
    nu = precool_mixing_for_population(spec, r_t)
    c_pop = precooled_population(spec, nu)
    work += spec.e * (c_pop - r_c) + (spec.e + 2.0 * spec.e_c) * (r_t - r_now)
    trajectory.append(TrajectoryPoint(len(phases) + 1, r_t, work))
    return ProtocolOutcome(
        r_final=r_t,
        t_final=t_target,
        work_cost=work,
        trajectory=tuple(trajectory),
        flag=f"precool mixing nu={nu!r}",
    )


def internal_resource(
    spec: MachineSpec, scenario: str, control: float
) -> ProtocolOutcome:
    """Single-cycle cooling with qubit C itself as the resource.

    ``scenario='incoherent'``: C is exchanged with a copy thermal at
    ``control`` (= T_H >= t_room) and the free energy is charged from the
    system state, entropy term included.  ``scenario='coherent'``: a local
    unitary with mixing ``control`` (= mu in [0, 1]) is applied to C and the
    energy change of the state is charged.  Both end with the degenerate-pair
    swap.  The incoherent variant dominates the coherent one at any
    temperature both can reach.
    """
    spec.require_resonance()
    r = _room_population(spec)
    r_b, r_c = _machine_room_populations(spec)
    if scenario == "incoherent":
        t_hot = control
        if not t_hot >= spec.t_room:
            raise DomainError(f"internal hot temperature must be >= t_room, got {t_hot}")
        c_pop = boltzmann_population(spec.e_c, t_hot)
        work = 0.0  # an equilibrium copy is free, also at t_room = inf
        if t_hot > spec.t_room:
            work = spec.e_c * (1.0 - spec.t_room / t_hot) * (1.0 - c_pop) + (
                spec.t_room * math.log(c_pop / r_c)
            )
    elif scenario == "coherent":
        mu = control
        if not 0.0 <= mu <= 1.0:
            raise DomainError(f"mu must lie in [0, 1], got {mu}")
        c_pop = (1.0 - mu) * r_c + mu * (1.0 - r_c)
        work = (r_c - c_pop) * spec.e_c
    else:
        raise DomainError(f"unknown scenario {scenario!r}")
    return _single_cycle(spec, r, _degenerate_swap_population(r, r_b, c_pop), work)


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
