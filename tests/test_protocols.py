import ast
import math
import random
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decimal_reference
from qfridge import oracle, protocols, virtual
from qfridge.majorization import InfeasibleTargetError, solve_two_qubit, vertex_oracle_min
from qfridge.protocols import TrajectoryPoint
from qfridge.thermal import (
    ConfigurationError,
    DomainError,
    INFINITE,
    MachineSpec,
    QubitSpec,
    boltzmann_population,
    excited_population,
    hamiltonian_diagonal,
    resource_free_energy,
    temperature_from_population,
    thermal_populations,
)


def _r(gap, temp):
    return boltzmann_population(gap, temp)


class TestOneQubitCoherent:
    def test_no_cooling_requested(self):
        spec = MachineSpec.one_qubit(1.4, 1.0)
        out = protocols.one_qubit_coherent(spec, _r(1.0, 1.0))
        assert out.work_cost == pytest.approx(0.0, abs=1e-14)

    def test_full_swap_temperature_scaling(self):
        spec = MachineSpec.one_qubit(2.0, 1.0)
        out = protocols.one_qubit_coherent(spec, _r(2.0, 1.0))
        assert out.t_final == pytest.approx(0.5, rel=1e-12)

    def test_against_dense_swap_simulation(self):
        spec = MachineSpec.one_qubit(2.0, 1.0)
        r_dense, cost_dense = oracle.simulate_one_qubit_partial_swap(1.0, 2.0, 1.0, 1.0)
        out = protocols.one_qubit_coherent(spec, _r(2.0, 1.0))
        assert out.r_final == pytest.approx(r_dense, abs=1e-14)
        assert out.work_cost == pytest.approx(cost_dense, abs=1e-14)

    def test_work_cost_formula(self):
        spec = MachineSpec.one_qubit(1.4, 1.0)
        r = _r(1.0, 1.0)
        out = protocols.one_qubit_coherent(spec, 0.77)
        assert out.work_cost == pytest.approx((0.77 - r) * 0.4, abs=1e-13)

    @pytest.mark.parametrize(
        "spec, message",
        [
            (MachineSpec.one_qubit(0.9, 1.0), "needs e < e_b, got e=1.0, e_b=0.9"),
            (MachineSpec.one_qubit(2.0, 1.0, e=0.0), "target gap > 0, got 0.0"),
        ],
        ids=["inverted-gaps", "gapless-target"],
    )
    def test_bad_machine_rejected_naming_the_input(self, spec, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            protocols.one_qubit_coherent(spec, 0.6)


class TestTwoQubitIncoherentSingle:
    def test_room_temperature_hot_bath_does_nothing(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 1.0)
        out = protocols.two_qubit_incoherent_single(spec)
        assert out.r_final == pytest.approx(_r(1.0, 1.0), abs=1e-14)
        assert out.work_cost == 0.0

    def test_infinite_hot_bath_limit(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, INFINITE)
        out = protocols.two_qubit_incoherent_single(spec)
        r, r_b = _r(1.0, 1.0), _r(1.4, 1.0)
        assert out.r_final == pytest.approx(0.5 * (r + r_b), abs=1e-14)
        r_c = _r(0.4, 1.0)
        assert out.work_cost == pytest.approx(0.4 * (r_c - 0.5), abs=1e-14)

    def test_against_dense_simulation(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 2.0)
        (r_dense,), (heat_dense,), (work_dense,) = oracle.simulate_incoherent_single([spec])
        out = protocols.two_qubit_incoherent_single(spec)
        assert out.r_final == pytest.approx(r_dense, abs=1e-14)
        assert out.heat_drawn == pytest.approx(heat_dense, abs=1e-14)
        assert out.work_cost == pytest.approx(work_dense, abs=1e-14)

    def test_missing_hot_bath_is_configuration_error(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        with pytest.raises(ConfigurationError):
            protocols.two_qubit_incoherent_single(spec)


def _nested_bisection_temperature_of_work(spec, delta_f):
    """Reference inversion: bisect t_hot through the full protocol evaluator."""
    if delta_f <= 0.0:
        return spec.t_room

    def work_of(y):
        # y in [0, 1) maps monotonically onto t_hot in [t_room, inf).
        t_hot = spec.t_room / (1.0 - y) if y < 1.0 else INFINITE
        out = protocols.two_qubit_incoherent_single(
            MachineSpec(spec.target, spec.machine, spec.t_room, t_hot)
        )
        return out.work_cost

    lo, hi = 0.0, 1.0 - 1e-16
    if delta_f >= work_of(hi):
        raise InfeasibleTargetError("work budget beyond the incoherent curve")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if work_of(mid) < delta_f:
            lo = mid
        else:
            hi = mid
    t_hot = spec.t_room / (1.0 - 0.5 * (lo + hi))
    out = protocols.two_qubit_incoherent_single(
        MachineSpec(spec.target, spec.machine, spec.t_room, t_hot)
    )
    return out.t_final


def _full_range_bisection_temperature_of_work(spec, delta_f):
    """Reference inversion: bisect x over all of [1/2, r_C] to adjacent doubles."""
    e_c, t_room = spec.e_c, spec.t_room
    r_c, s_c = _r(e_c, t_room), excited_population(e_c, t_room)
    lo, hi = 0.5, r_c
    while True:
        x = 0.5 * (lo + hi)
        if x == lo or x == hi:
            break
        if protocols._incoherent_work(r_c - x, x, s_c, e_c, t_room) < delta_f:
            hi = x
        else:
            lo = x
    r_final = protocols._degenerate_swap_population(
        _r(spec.e, t_room), _r(spec.e_b, t_room), x
    )
    return protocols._final_temperature(spec, r_final)


def _work_evaluations(function, *args):
    """Result of ``function(*args)`` and the number of W evaluations it made."""
    calls = []
    work = protocols._incoherent_work
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocols, "_incoherent_work", lambda *a: calls.append(a) or work(*a))
        result = function(*args)
    return result, len(calls)


def _incoherent_work_ceiling(spec):
    # W(1/2) = E_C (r_C - 1/2): the infinite-bath end of the frontier.
    return spec.e_c * (_r(spec.e_c, spec.t_room) - 0.5)


@st.composite
def _frontier_machines(draw):
    t_room = draw(st.floats(0.02, 30.0))
    e_c = draw(
        st.one_of(
            st.just(1e-6),
            st.floats(1e-6, 5.0),
            # E_C/T_R past ~37 saturates r_C to exactly 1.0
            st.floats(37.0, 100.0).map(lambda ratio: ratio * t_room),
        )
    )
    return MachineSpec.two_qubit(e_c, t_room)


class TestIncoherentTemperatureOfWork:
    @settings(max_examples=200)
    @given(spec=_frontier_machines(), frac=st.floats(1e-9, 1.0 - 1e-9))
    def test_matches_nested_bisection_reference(self, spec, frac):
        delta_f = frac * _incoherent_work_ceiling(spec)
        expected = _nested_bisection_temperature_of_work(spec, delta_f)
        got = protocols.incoherent_temperature_of_work(spec, delta_f)
        assert abs(got - expected) <= 1e-12 * expected

    @settings(max_examples=300)
    @given(
        spec=_frontier_machines(),
        frac=st.one_of(st.floats(1e-9, 1.0 - 1e-9), st.floats(1e-300, 1e-9)),
    )
    def test_bit_identical_to_full_range_bisection(self, spec, frac):
        delta_f = frac * _incoherent_work_ceiling(spec)
        expected, bisection_evaluations = _work_evaluations(
            _full_range_bisection_temperature_of_work, spec, delta_f
        )
        got, evaluations = _work_evaluations(protocols.incoherent_temperature_of_work, spec, delta_f)
        assert got == expected
        assert evaluations == bisection_evaluations
        ceiling = _incoherent_work_ceiling(spec)
        for delta_f in (ceiling, 2.0 * ceiling):
            with pytest.raises(InfeasibleTargetError):
                protocols.incoherent_temperature_of_work(spec, delta_f)

    # E_C/T_R from tiny through the saturated r_C == 1.0 family to past the
    # smallest double (s_C = 0.0), on both sides of the 1e-300 branch in s_C.
    @pytest.mark.parametrize("ratio", [1e-12, 1e-3, 1.0, 30.0, 690.0, 700.0, 800.0, 5000.0])
    def test_work_in_complement_form_matches_the_decimal_reference(self, ratio):
        t_room = 0.7
        e_c = ratio * t_room
        r_c, s_c = _r(e_c, t_room), excited_population(e_c, t_room)
        machine = decimal_reference.Machine(1.0, e_c, t_room)
        u_end = 0.5 * math.tanh(0.5 * e_c / t_room)  # 1/2 - s_C
        for share in (1e-9, 1e-4, 0.1, 0.5, 0.999):
            u = share * u_end
            got = protocols._incoherent_work(u, r_c - u, s_c, e_c, t_room)
            want = machine.incoherent_work(u)
            assert abs(Decimal(got) - want) <= Decimal(1e-13) * want

    def test_infeasible_boundary_is_the_infinite_bath_cost(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        ceiling = _incoherent_work_ceiling(spec)
        at_inf = protocols.two_qubit_incoherent_single(MachineSpec.two_qubit(0.4, 1.0, INFINITE))
        # Both errors name W(1/2), to the bit the infinite bath's cost.
        named = re.escape(f"W(1/2)={at_inf.work_cost!r}")
        for delta_f in (ceiling, 2.0 * ceiling):
            with pytest.raises(InfeasibleTargetError, match=named):
                protocols.incoherent_temperature_of_work(spec, delta_f)
            with pytest.raises(InfeasibleTargetError, match=named):
                protocols.frontier_gap_sign(spec)[1](delta_f)
        below = math.nextafter(ceiling, 0.0)
        t = protocols.incoherent_temperature_of_work(spec, below)
        assert t == pytest.approx(at_inf.t_final, rel=1e-12, abs=0.0)

    @settings(max_examples=300)
    @given(
        t_room=st.floats(0.02, 30.0),
        e_c=st.one_of(
            # E_C/T_R past ~37 saturates r_C to exactly 1.0
            st.floats(1e-6, 50.0),
            st.floats(-6.0, math.log10(50.0)).map(lambda x: 10.0**x),
        ),
        frac=st.one_of(st.floats(1e-9, 1.0 - 1e-9), st.floats(1e-300, 1e-9)),
        u=st.floats(0.0, 1.0),
    )
    def test_nonincreasing_in_the_budget(self, t_room, e_c, frac, u):
        # The crossing search settles probe signs on this, to the last ulp.
        spec = MachineSpec.two_qubit(e_c, t_room)
        ceiling = _incoherent_work_ceiling(spec)
        f = frac * ceiling
        budgets = sorted({f, math.nextafter(f, math.inf), f * (1.0 + u)})
        temperatures = [
            protocols.incoherent_temperature_of_work(spec, b) for b in budgets if b < ceiling
        ]
        assert temperatures == sorted(temperatures, reverse=True)

    def test_non_positive_budget_is_room_temperature(self):
        spec = MachineSpec.two_qubit(0.4, 1.3)
        assert protocols.incoherent_temperature_of_work(spec, 0.0) == 1.3
        assert protocols.incoherent_temperature_of_work(spec, -1.0) == 1.3
        assert protocols.coherent_temperature_of_work(spec, 0.0) == 1.3
        assert protocols.coherent_temperature_of_work(spec, -1.0) == 1.3


class TestFrontierInverses:
    """Both frontier inversions reject budgets and machines they cannot answer."""

    def test_nan_budget_rejected(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        for inverse in (
            lambda f: protocols.incoherent_temperature_of_work(spec, f),
            lambda f: protocols.coherent_temperature_of_work(spec, f),
        ):
            with pytest.raises(DomainError, match="work budget"):
                inverse(math.nan)

    def test_non_resonant_machine(self):
        # A non-positive budget reads t_room before the resonance check.
        spec = MachineSpec(QubitSpec(1.0), (QubitSpec(2.0), QubitSpec(0.4)), 1.3)
        assert protocols.incoherent_temperature_of_work(spec, 0.0) == 1.3
        with pytest.raises(DomainError):
            protocols.incoherent_temperature_of_work(spec, 0.01)
        with pytest.raises(DomainError):
            # resonance is checked before the budget is compared with W(1/2)
            protocols.incoherent_temperature_of_work(spec, 1e300)


class TestCoherentFrontier:
    @settings(max_examples=300)
    @given(
        e_c=st.floats(0.05, 5.0), t_room=st.floats(0.2, 5.0), mu=st.floats(0.0, 1.0)
    )
    def test_inversion_recovers_the_frontier_temperature(self, e_c, t_room, mu):
        spec = MachineSpec.two_qubit(e_c, t_room)
        r = protocols.coherent_single_population(spec, mu)
        work = protocols.two_qubit_coherent_single(spec, r).work_cost
        got = protocols.coherent_temperature_of_work(spec, work)
        expected = temperature_from_population(spec.e, r)
        # Near r = 1 the temperature is ill-conditioned: a single ulp of r
        # moves it by d ln T = ulp / (r (1 - r) ln(r / (1 - r))), up to ~1e-6
        # here, so the 1e-8 bound carries that two-ulp term on top.
        ulp_shift = math.ulp(r) / (r * (1.0 - r) * math.log(r / (1.0 - r)))
        assert abs(got - expected) <= (1e-8 + 2.0 * ulp_shift) * expected

    @pytest.mark.parametrize("e_c", [0.4, 1.7])
    def test_population_walks_the_swap_phases(self, e_c):
        spec = MachineSpec.two_qubit(e_c, 1.0)
        r, r_b, r_c = _r(1.0, 1.0), _r(1.0 + e_c, 1.0), _r(e_c, 1.0)
        assert protocols.coherent_single_population(spec, 0.0) == r
        assert protocols.coherent_single_population(spec, 1.0) == pytest.approx(
            r_b, abs=1e-15
        )
        if e_c > 1.0:  # the target<->C swap ends at mu = 1/2
            half = protocols.coherent_single_population(spec, 0.5)
            assert half == pytest.approx(r_c, abs=1e-15)
        for mu in (-1e-9, 1.0 + 1e-9, math.nan):
            with pytest.raises(DomainError):
                protocols.coherent_single_population(spec, mu)

    @pytest.mark.parametrize("e_c, t_room", [(37.0, 1.0), (40.0, 1.0), (5.0, 0.1)])
    def test_budget_beyond_a_saturated_frontier(self, e_c, t_room):
        # r_B == r_C == 1.0 in double precision: the last phase has zero cost
        spec = MachineSpec.two_qubit(e_c, t_room)
        f_max = protocols.single_cycle_coherent_cost(spec)
        assert protocols.coherent_temperature_of_work(spec, 1.5 * f_max) == 0.0

    # (37, 1) and (5, 0.1): r_B == r_C == 1.0, so the B swap adds nothing.
    @pytest.mark.parametrize("e_c, t_room", [(0.4, 1.0), (1.7, 1.0), (37.0, 1.0), (5.0, 0.1)])
    def test_route_costs_bracket_the_frontier(self, e_c, t_room):
        spec = MachineSpec.two_qubit(e_c, t_room)
        two = protocols.boxed_limits(spec)["two_qubit"]
        direct, via_c = two["delta_f_coh_star_ab_swap"], two["delta_f_coh_star_two_swap"]
        cost = protocols.single_cycle_coherent_cost(spec)
        assert cost == two["delta_f_coh_star"] == min(direct, via_c)
        assert cost == (via_c if e_c > 1.0 else direct)
        assert protocols.frontier_gap_sign(spec)[0] == cost


# Every public two-qubit evaluator, with a hot bath where it reads one.
_TWO_QUBIT_CALLS = {
    "incoherent_single": lambda spec: protocols.two_qubit_incoherent_single(_hot(spec)),
    "coherent_single": lambda spec: protocols.two_qubit_coherent_single(spec, 0.8),
    "boxed_limits": protocols.boxed_limits,
    "single_cycle_cost": protocols.single_cycle_coherent_cost,
    "coherent_population": lambda spec: protocols.coherent_single_population(spec, 0.5),
    "incoherent_of_work": lambda spec: protocols.incoherent_temperature_of_work(spec, 0.01),
    "coherent_of_work": lambda spec: protocols.coherent_temperature_of_work(spec, 0.01),
    "gap_sign": protocols.frontier_gap_sign,
    "repeated_incoherent": lambda spec: protocols.repeated_incoherent(_hot(spec), 3),
    "repeated_incoherent_inf": lambda spec: protocols.repeated_incoherent(_hot(spec), INFINITE),
    "autonomous": lambda spec: protocols.autonomous_steady_state(_hot(spec)),
    "repeated_coherent": lambda spec: protocols.repeated_coherent(spec, 3),
    "repeated_coherent_inf": lambda spec: protocols.repeated_coherent(spec, INFINITE),
    "precooled": lambda spec: protocols.precooled_population(spec, 0.5),
    "precool_mixing": lambda spec: protocols.precool_mixing_for_population(spec, 0.9),
    "algorithmic": lambda spec: protocols.algorithmic_cooling(spec, 3),
    "algorithmic_inf": lambda spec: protocols.algorithmic_cooling(spec, INFINITE),
    "optimal_sequence": lambda spec: protocols.optimal_sequence(spec, 0.5),
    "internal_incoherent": lambda spec: protocols.internal_resource(spec, "incoherent", 2.0),
    "internal_coherent": lambda spec: protocols.internal_resource(spec, "coherent", 0.5),
    # A trajectory point's temperature checks the machine at every step.
    "point_temperature_start": lambda spec: protocols.point_temperature(
        spec, protocols.TrajectoryPoint(0, 0.7, 0.0)
    ),
    "point_temperature_later": lambda spec: protocols.point_temperature(
        spec, protocols.TrajectoryPoint(3, 0.9, 0.1)
    ),
}


def _hot(spec):
    return MachineSpec(spec.target, spec.machine, spec.t_room, 2.0 * spec.t_room)


@pytest.mark.parametrize(
    "spec, fault",
    [
        (MachineSpec.one_qubit(2.0, 1.0), r"e_b = e \+ e_c required"),
        (
            MachineSpec(QubitSpec(1.0), (QubitSpec(2.0), QubitSpec(0.4)), 1.3),
            r"e_b = e \+ e_c required",
        ),
        (MachineSpec.two_qubit(0.0, 1.0, e=0.0), r"target gap > 0, got 0\.0"),
        (MachineSpec.two_qubit(0.4, 1.0, e=0.0), r"target gap > 0, got 0\.0"),
    ],
    ids=["one-qubit", "non-resonant", "gapless-e_c-0", "gapless-e_c-0.4"],
)
@pytest.mark.parametrize("call", _TWO_QUBIT_CALLS.values(), ids=_TWO_QUBIT_CALLS.keys())
def test_two_qubit_evaluator_names_the_bad_machine(call, spec, fault):
    # One-qubit machines raised IndexError and non-resonant pairs were priced
    # with the resonant formulas; gapless targets returned numbers, hit a 0/0
    # or blamed a temperature or gap the caller never passed.
    with pytest.raises(DomainError, match=fault):
        call(spec)


class TestTwoQubitCoherentSingle:
    @pytest.mark.parametrize("e_c", [0.4, 1.7])
    def test_endpoint_cost_both_regimes(self, e_c):
        spec = MachineSpec.two_qubit(e_c, 1.0)
        r, r_b, r_c = _r(1.0, 1.0), _r(1.0 + e_c, 1.0), _r(e_c, 1.0)
        out = protocols.two_qubit_coherent_single(spec, r_b)
        if e_c <= 1.0:
            expected = e_c * (r_b - r)
        else:
            expected = (e_c - 1.0) * (r_c - r) + e_c * (r_b - r_c)
        assert out.work_cost == pytest.approx(expected, abs=1e-13)
        assert out.t_final == pytest.approx(1.0 / (1.0 + e_c), rel=1e-12)

    def test_cost_continuous_with_slope_kink_at_half(self):
        # finite-difference slopes on a dense mu grid: continuous value,
        # discontinuous first derivative at mu = 1/2
        spec = MachineSpec.two_qubit(1.7, 1.0)
        r, r_b, r_c = _r(1.0, 1.0), _r(2.7, 1.0), _r(1.7, 1.0)

        def cost(mu):
            if mu <= 0.5:
                r_target = r + 2 * mu * (r_c - r)
            else:
                r_target = r_c + (2 * mu - 1) * (r_b - r_c)
            return protocols.two_qubit_coherent_single(spec, r_target).work_cost

        eps = 1e-6
        left = (cost(0.5) - cost(0.5 - eps)) / eps
        right = (cost(0.5 + eps) - cost(0.5)) / eps
        assert abs(cost(0.5 + eps) - cost(0.5 - eps)) < 1e-5  # continuity
        assert right > left * 1.5  # derivative kink

    def test_infeasible_target(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        with pytest.raises(InfeasibleTargetError):
            protocols.two_qubit_coherent_single(spec, 0.99)

    @pytest.mark.parametrize("e_c", [0.4, 1.7])
    def test_endpoint_is_the_single_cycle_cost(self, e_c):
        spec = MachineSpec.two_qubit(e_c, 1.0)
        out = protocols.two_qubit_coherent_single(spec, _r(1.0 + e_c, 1.0))
        assert out.work_cost == protocols.single_cycle_coherent_cost(spec)

    def test_work_is_exact_along_the_frontier(self):
        # One phase at e_c <= e: the work is (r_t - r) e_c rounded once.
        spec = MachineSpec.two_qubit(0.4, 1.0)
        r = _r(1.0, 1.0)
        for mu in np.linspace(0.0, 1.0, 1000):
            r_t = protocols.coherent_single_population(spec, float(mu))
            work = protocols.two_qubit_coherent_single(spec, r_t).work_cost
            exact = (Fraction(r_t) - Fraction(r)) * Fraction(0.4)
            assert abs(Fraction(work) - exact) <= Fraction(2.3e-16) * exact

    @pytest.mark.parametrize("e_c", [0.4, 1.7])
    def test_targets_within_slack_are_clamped(self, e_c):
        spec = MachineSpec.two_qubit(e_c, 1.0)
        r, r_b = _r(1.0, 1.0), _r(1.0 + e_c, 1.0)
        below = protocols.two_qubit_coherent_single(spec, r - 5e-13)
        above = protocols.two_qubit_coherent_single(spec, r_b + 5e-13)
        assert below.work_cost == 0.0
        assert above.work_cost == protocols.single_cycle_coherent_cost(spec)
        assert (below.r_final, above.r_final) == (r - 5e-13, r_b + 5e-13)

    @settings(max_examples=100)
    @given(e_c=st.floats(0.05, 5.0), t_room=st.floats(0.2, 5.0), frac=st.floats(0.0, 1.0))
    def test_closed_form_matches_the_solver_and_the_oracle(self, e_c, t_room, frac):
        spec = MachineSpec.two_qubit(e_c, t_room)
        rho = thermal_populations(spec.gaps, (t_room,) * 3)
        h = hamiltonian_diagonal(spec.gaps)
        r, r_b = rho[:4].sum(), rho[[0, 1, 4, 5]].sum()
        r_target = float(r + frac * (r_b - r))
        closed = protocols.two_qubit_coherent_single(spec, r_target).work_cost
        closed += float(rho @ h)
        assert abs(closed - solve_two_qubit(rho, h, r_target).objective) <= 1e-14
        assert abs(closed - vertex_oracle_min(rho, h, 4, r_target)) <= 1e-10


class TestRepeatedIncoherent:
    def test_infinite_room_temperature_is_finite(self):
        spec = MachineSpec.two_qubit(0.4, INFINITE, INFINITE)
        for n in (0, 3, INFINITE):
            out = protocols.repeated_incoherent(spec, n)
            assert (out.work_cost, out.r_final, out.t_final) == (0.0, 0.5, INFINITE)

    def test_zero_steps_pays_only_preheat(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 3.0)
        out = protocols.repeated_incoherent(spec, 0)
        r_c, r_ch = _r(0.4, 1.0), _r(0.4, 3.0)
        assert out.r_final == pytest.approx(_r(1.0, 1.0), abs=1e-15)
        assert out.heat_drawn == pytest.approx(0.4 * (r_c - r_ch), abs=1e-15)
        assert out.t_final == spec.t_room

    def test_infinite_repetitions_at_infinite_bath_reach_coherent_star(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, INFINITE)
        out = protocols.repeated_incoherent(spec, INFINITE)
        assert out.t_final == pytest.approx(1.0 / 1.4, rel=1e-14)
        assert out.r_final == pytest.approx(_r(1.4, 1.0), rel=1e-14)

    def test_three_steps_against_dense_simulation(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 3.0)
        out = protocols.repeated_incoherent(spec, 3)
        (rs,), (heats,) = oracle.simulate_repeated_incoherent([spec], 3)
        assert out.r_final == pytest.approx(rs[-1], abs=1e-14)
        assert out.heat_drawn == pytest.approx(heats[-1], abs=1e-14)
        for point, r_dense in zip(out.trajectory, rs):
            assert point.r == pytest.approx(r_dense, abs=1e-14)

    def test_missing_hot_bath_rejected(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        with pytest.raises(ConfigurationError):
            protocols.repeated_incoherent(spec, 2)

    def test_trajectory_monotone(self):
        spec = MachineSpec.two_qubit(0.7, 1.0, 4.0)
        out = protocols.repeated_incoherent(spec, 8)
        rs = [p.r for p in out.trajectory]
        assert all(b >= a - 1e-15 for a, b in zip(rs, rs[1:]))

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_empty_virtual_qubit_leaves_the_room_state_at_no_cost(self, n):
        # B's room and C's hot ground populations both round to 1.0, so the
        # {01,10} pair is empty and the swaps move nothing.
        spec = MachineSpec.two_qubit(5.0, 0.05, 0.05)
        assert _r(spec.e_b, 0.05) == _r(spec.e_c, 0.05) == 1.0
        out = protocols.repeated_incoherent(spec, n)
        assert len(out.trajectory) == n + 1
        for point in out.trajectory:
            assert (point.r, point.delta_f) == (_r(1.0, 0.05), 0.0)
        assert (out.work_cost, out.heat_drawn) == (0.0, 0.0)


class TestAutonomousSteadyState:
    def test_matches_infinite_repetition_exactly(self):
        spec = MachineSpec.two_qubit(0.9, 1.3, 4.2)
        auto = protocols.autonomous_steady_state(spec)
        rep = protocols.repeated_incoherent(spec, INFINITE)
        assert auto.r_final == rep.r_final
        assert auto.heat_drawn == rep.heat_drawn

    def test_room_temperature_bath_gives_room_temperature(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 1.0)
        out = protocols.autonomous_steady_state(spec)
        assert out.t_final == pytest.approx(1.0, rel=1e-14)

    def test_closed_form_value(self):
        # 1/(2 - 1/4) with E = 1, E_C = 1, T_R = 1, T_H = 4
        spec = MachineSpec.two_qubit(1.0, 1.0, 4.0)
        out = protocols.autonomous_steady_state(spec)
        assert out.t_final == pytest.approx(1.0 / 1.75, rel=1e-15)

    def test_long_dense_run_converges_to_steady_state(self):
        spec = MachineSpec.two_qubit(0.8, 1.0, 5.0)
        auto = protocols.autonomous_steady_state(spec)
        (rs,), (heats,) = oracle.simulate_repeated_incoherent([spec], 120)
        assert rs[-1] == pytest.approx(auto.r_final, abs=1e-12)
        assert heats[-1] == pytest.approx(auto.heat_drawn, abs=1e-12)


class TestRepeatedEvaluators:
    """The three repeated evaluators against copies of their earlier loops."""

    @staticmethod
    def _virtual_qubit(spec, c_pop, coherent):
        r_b = _r(spec.e_b, spec.t_room)
        s_b, s_c = 1.0 - r_b, 1.0 - c_pop
        state = (r_b * c_pop, r_b * s_c, s_b * c_pop, s_b * s_c)
        if coherent:
            return virtual.extract_virtual_qubit(state, 0, 3, spec.e_b + spec.e_c)
        return virtual.extract_virtual_qubit(state, 1, 2, spec.e_b - spec.e_c)

    def _incoherent(self, spec, n):
        # (trajectory, t_final, heat_drawn); work_cost is the last point's cost.
        t_hot = spec.t_hot
        r, r_c, r_ch = _r(spec.e, spec.t_room), _r(spec.e_c, spec.t_room), _r(spec.e_c, t_hot)
        preheat = spec.e_c * (r_c - r_ch)
        if math.isinf(n):
            bias = spec.e_b / spec.t_room - spec.e_c / t_hot
            t_final = spec.e / bias if bias > 0.0 else INFINITE
            r_final = _r(spec.e, t_final)
            heat = preheat + spec.e_c * (r_final - r)
            work = resource_free_energy(heat, t_hot, spec.t_room)
            f0 = resource_free_energy(preheat, t_hot, spec.t_room)
            return (TrajectoryPoint(0, r, f0), TrajectoryPoint(INFINITE, r_final, work)), t_final, heat
        vq = self._virtual_qubit(spec, r_ch, False)
        points, heat = [], preheat
        for k in range(int(n) + 1):
            r_k = virtual.n_swap_population(r, vq, k)
            points.append(TrajectoryPoint(k, r_k, resource_free_energy(heat, t_hot, spec.t_room)))
            if k < n:
                heat = preheat + spec.e_c * (r_k - r)
        return tuple(points), protocols.point_temperature(spec, points[-1]), heat

    @staticmethod
    def _unmoved_incoherent(spec, n):
        # An empty {01,10} pair: every row stays at the room population, at
        # the incoherent cost rule's price for a heat ledger that never grows.
        r = _r(spec.e, spec.t_room)
        preheat = spec.e_c * (_r(spec.e_c, spec.t_room) - _r(spec.e_c, spec.t_hot))
        price = resource_free_energy(preheat, spec.t_hot, spec.t_room)
        points = tuple(TrajectoryPoint(k, r, price) for k in range(int(n) + 1))
        return points, protocols.point_temperature(spec, points[-1]), preheat

    def _coherent(self, spec, n):
        r, r_b, r_c = (_r(gap, spec.t_room) for gap in spec.gaps)
        first_cost = protocols.single_cycle_coherent_cost(spec)
        if math.isinf(n):
            t_final = spec.t_room * spec.e / (spec.e_b + spec.e_c)
            r_final = _r(spec.e, t_final)
            work = first_cost + 2.0 * spec.e_c * (r_final - r_b)
            return (TrajectoryPoint(0, r, 0.0), TrajectoryPoint(INFINITE, r_final, work)), t_final, None
        vq = self._virtual_qubit(spec, r_c, True)
        points = [TrajectoryPoint(0, r, 0.0)]
        for k in range(1, int(n) + 1):
            r_k = virtual.n_swap_population(r, vq, k)
            points.append(TrajectoryPoint(k, r_k, first_cost + 2.0 * spec.e_c * (r_k - r_b)))
        return tuple(points), protocols.point_temperature(spec, points[-1]), None

    def _algorithmic(self, spec, n, nu, r0):
        r_c = _r(spec.e_c, spec.t_room)
        c_pop = protocols.precooled_population(spec, nu)
        precool_cost = spec.e * (c_pop - r_c)

        def cost_at(r_k, r_prev):
            return precool_cost + 2.0 * spec.e_c * (r_k - r0) + spec.e * (r_prev - r0)

        if math.isinf(n):
            if nu == 1.0:
                t_final = spec.t_room * spec.e / (2.0 * spec.e_b)
                r_final = _r(spec.e, t_final)
            else:
                r_final = self._virtual_qubit(spec, c_pop, True).r_v
                t_final = protocols._final_temperature(spec, r_final)
            work = cost_at(r_final, r_final)
            return (TrajectoryPoint(0, r0, 0.0), TrajectoryPoint(INFINITE, r_final, work)), t_final, None
        vq = self._virtual_qubit(spec, c_pop, True)
        points = [TrajectoryPoint(0, r0, 0.0)]
        r_prev = virtual.n_swap_population(r0, vq, 0)
        for k in range(1, int(n) + 1):
            r_k = virtual.n_swap_population(r0, vq, k)
            points.append(TrajectoryPoint(k, r_k, cost_at(r_k, r_prev)))
            r_prev = r_k
        return tuple(points), protocols.point_temperature(spec, points[-1]), None

    @staticmethod
    def _machine(seed):
        rng = random.Random(seed)
        if seed == "empty-pair":
            # B's room and C's hot ground populations both round to 1.0.
            return MachineSpec.two_qubit(50.0, 1.0, 1.2), rng
        t_room = 10.0 ** rng.uniform(-1.5, 1.0)
        t_hot = rng.choice([t_room, t_room * (1.0 + 10.0 ** rng.uniform(-3.0, 3.0)), INFINITE])
        e = rng.choice([1.0, rng.uniform(0.2, 3.0)])
        return MachineSpec.two_qubit(10.0 ** rng.uniform(-1.3, 0.7), t_room, t_hot, e=e), rng

    @pytest.mark.parametrize("seed", [*range(50), "empty-pair"])
    def test_walker_reproduces_the_three_loops_exactly(self, seed):
        spec, rng = self._machine(seed)
        r = _r(spec.e, spec.t_room)
        custom_r0 = r + rng.random() * (1.0 - r)
        cases = [(protocols.repeated_incoherent, (), self._incoherent, ())]
        cases.append((protocols.repeated_coherent, (), self._coherent, ()))
        for nu, r0 in ((1.0, None), (0.3, None), (0.0, None), (1.0, custom_r0)):
            legacy_args = (nu, r if r0 is None else r0)
            cases.append((protocols.algorithmic_cooling, (nu, r0), self._algorithmic, legacy_args))
        for evaluate, args, legacy, legacy_args in cases:
            for n in (0, 1, 2, 7, INFINITE):
                try:
                    trajectory, t_final, heat = legacy(spec, n, *legacy_args)
                except virtual.EmptyVirtualQubitError:
                    # Only the incoherent loop raises, at finite n; the walker
                    # leaves the room state where the loop stopped.
                    assert legacy == self._incoherent and not math.isinf(n)
                    trajectory, t_final, heat = self._unmoved_incoherent(spec, n)
                out = evaluate(spec, n, *args)
                assert out.trajectory == trajectory, (seed, evaluate.__name__, n, args)
                assert repr(out.trajectory) == repr(trajectory)
                assert out.r_final == trajectory[-1].r
                assert out.t_final == t_final
                assert out.work_cost == trajectory[-1].delta_f
                assert out.heat_drawn == heat

    def test_empty_incoherent_virtual_qubit_has_a_no_cooling_limit(self):
        # B and C both saturate: the {01,10} pair is empty, so finite runs
        # and the n = inf limit all leave the target at t_room for free.
        spec = MachineSpec.two_qubit(50.0, 1.0, 1.0)
        finite = protocols.repeated_incoherent(spec, 3)
        assert (finite.r_final, finite.work_cost) == (_r(1.0, 1.0), 0.0)
        out = protocols.repeated_incoherent(spec, INFINITE)
        assert (out.r_final, out.t_final, out.work_cost) == (_r(1.0, 1.0), 1.0, 0.0)

    @pytest.mark.parametrize(
        "name", ["repeated_incoherent", "repeated_coherent", "algorithmic_cooling"]
    )
    def test_count_is_integer_or_inf(self, name):
        evaluate = getattr(protocols, name)
        spec = MachineSpec.two_qubit(0.4, 1.0, 3.0)
        for n in (1.5, -1, math.nan):
            with pytest.raises(DomainError, match="repetition count"):
                evaluate(spec, n)
        assert evaluate(spec, 2.0).trajectory[-1].step == 2
        assert evaluate(spec, INFINITE).trajectory[-1].step == INFINITE


class TestRepeatedCoherent:
    def test_single_repetition_is_single_cycle_endpoint(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        out = protocols.repeated_coherent(spec, 1)
        single = protocols.two_qubit_coherent_single(spec, _r(1.4, 1.0))
        assert out.r_final == pytest.approx(single.r_final, abs=1e-14)
        assert out.work_cost == pytest.approx(single.work_cost, abs=1e-14)

    def test_asymptote_population(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        out = protocols.repeated_coherent(spec, INFINITE)
        assert out.r_final == pytest.approx(
            1.0 / (1.0 + math.exp(-1.8)), abs=1e-15
        )
        assert out.t_final == 1.0 * 1.0 / (1.4 + 0.4)

    def test_four_steps_against_dense_simulation(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        out = protocols.repeated_coherent(spec, 4)
        (rs,), (works,) = oracle.simulate_repeated_coherent([spec], 4)
        for point, r_dense, w_dense in zip(out.trajectory, rs, works):
            assert point.r == pytest.approx(r_dense, abs=1e-13)
            assert point.delta_f == pytest.approx(w_dense, abs=1e-13)

    def test_dense_simulation_large_ec_regime(self):
        spec = MachineSpec.two_qubit(1.6, 1.0)
        out = protocols.repeated_coherent(spec, 4)
        (rs,), (works,) = oracle.simulate_repeated_coherent([spec], 4)
        assert out.r_final == pytest.approx(rs[-1], abs=1e-13)
        assert out.work_cost == pytest.approx(works[-1], abs=1e-13)

    def test_non_integer_count_rejected(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        with pytest.raises(DomainError):
            protocols.repeated_coherent(spec, 2.7)
        assert protocols.repeated_coherent(spec, 3.0) == protocols.repeated_coherent(
            spec, 3
        )


class TestAlgorithmicCooling:
    def test_full_precool_asymptotic_temperature(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        out = protocols.algorithmic_cooling(spec, INFINITE, nu=1.0)
        assert out.t_final == 1.0 * 1.0 / (2.0 * 1.4)

    def test_half_of_single_cycle_coherent_temperature(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        t_coh_star = 1.0 * 1.0 / 1.4
        out = protocols.algorithmic_cooling(spec, INFINITE, nu=1.0)
        assert out.t_final == t_coh_star / 2.0

    def test_zero_mixing_reproduces_repeated_coherent_asymptote(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        coh = protocols.repeated_coherent(spec, INFINITE)
        out = protocols.algorithmic_cooling(spec, INFINITE, nu=0.0, r0=coh.r_final)
        assert out.r_final == pytest.approx(coh.r_final, abs=1e-13)

    def test_two_cycles_against_dense_four_step_simulation(self):
        spec = MachineSpec.two_qubit(1.0, 1.0)
        out = protocols.algorithmic_cooling(spec, 2, nu=1.0)
        (rs,), (works,) = oracle.simulate_algorithmic([spec], 2, nu=1.0)
        for point, r_dense, w_dense in zip(out.trajectory, rs, works):
            assert point.r == pytest.approx(r_dense, abs=1e-13)
            assert point.delta_f == pytest.approx(w_dense, abs=1e-13)

    def test_partial_precool_against_reset_model_simulation(self):
        spec = MachineSpec.two_qubit(0.9, 1.0)
        for nu in (0.0, 0.35, 0.75):
            out = protocols.algorithmic_cooling(spec, 6, nu=nu)
            (rs,), (works,) = oracle.simulate_algorithmic([spec], 6, nu=nu)
            assert out.r_final == pytest.approx(rs[-1], abs=1e-13)
            assert out.work_cost == pytest.approx(works[-1], abs=1e-13)

    @pytest.mark.parametrize("e_c", [0.4, 1.0, 1.7])
    def test_full_precool_trajectory_against_dense_simulation(self, e_c):
        spec = MachineSpec.two_qubit(e_c, 1.0)
        out = protocols.algorithmic_cooling(spec, 6, nu=1.0)
        (rs,), (works,) = oracle.simulate_algorithmic([spec], 6)
        assert len(out.trajectory) == len(rs) == len(works) == 7
        for point, r_dense, w_dense in zip(out.trajectory, rs, works):
            assert point.r == pytest.approx(r_dense, abs=1e-13)
            assert point.delta_f == pytest.approx(w_dense, abs=1e-13)

    def test_full_precool_charges_the_b_c_swap_through_its_energy_change(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        h = hamiltonian_diagonal(spec.gaps)
        state = oracle.build_thermal_state(spec, (1.0,) * 3)
        state = oracle.rethermalize(state, 1, spec.e_b, 1.0)
        _, precool_de, state = oracle.apply_and_measure(
            state, oracle.qubit_swap_unitary(3, 1, 2), h
        )
        # B<->C swap at room populations costs (e_b - e_c)(r_b - r_c)
        assert precool_de == pytest.approx(1.0 * (_r(1.4, 1.0) - _r(0.4, 1.0)), abs=1e-15)
        state = oracle.rethermalize(state, 1, spec.e_b, 1.0)
        _, cool_de, _ = oracle.apply_and_measure(state, oracle.swap_unitary(8, 3, 4), h)
        _, (works,) = oracle.simulate_algorithmic([spec], 1)
        assert works[1] == precool_de + cool_de

    def test_partial_precool_trajectory_from_custom_start(self):
        spec = MachineSpec.two_qubit(0.6, 1.0)
        for nu in (0.2, 0.6):
            out = protocols.algorithmic_cooling(spec, 5, nu=nu, r0=0.8)
            (rs,), (works,) = oracle.simulate_algorithmic([spec], 5, nu=nu, r0=0.8)
            for point, r_dense, w_dense in zip(out.trajectory, rs, works):
                assert point.r == pytest.approx(r_dense, abs=1e-13)
                assert point.delta_f == pytest.approx(w_dense, abs=1e-13)

    @pytest.mark.parametrize("r0", [1.5, 1.0 + 1e-9, INFINITE, math.nan, 0.5])
    def test_starting_population_outside_thermal_to_one_rejected(self, r0):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        for n in (3, INFINITE):
            with pytest.raises(DomainError):
                protocols.algorithmic_cooling(spec, n, r0=r0)

    def test_starting_population_of_one_is_allowed(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        out = protocols.algorithmic_cooling(spec, 3, r0=1.0)
        assert out.trajectory[0].r == 1.0
        assert all(math.isfinite(p.r) and math.isfinite(p.delta_f) for p in out.trajectory)

    def test_custom_starting_population(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        r0 = 0.85
        out = protocols.algorithmic_cooling(spec, 3, nu=1.0, r0=r0)
        (rs,), (works,) = oracle.simulate_algorithmic([spec], 3, nu=1.0, r0=r0)
        assert out.r_final == pytest.approx(rs[-1], abs=1e-13)
        assert out.work_cost == pytest.approx(works[-1], abs=1e-13)

    def test_zero_cycles_cost_nothing(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        out = protocols.algorithmic_cooling(spec, 0)
        assert out.work_cost == 0.0
        assert out.r_final == pytest.approx(_r(1.0, 1.0), abs=1e-15)

    def test_non_integer_count_rejected(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        with pytest.raises(DomainError):
            protocols.algorithmic_cooling(spec, 1.5)
        assert protocols.algorithmic_cooling(
            spec, 2.0
        ) == protocols.algorithmic_cooling(spec, 2)


class TestOptimalSequence:
    def test_floor_target_mixes_fully(self):
        # 1 - r_t cancels in the mixing closed form this close to r = 1
        spec = MachineSpec.two_qubit(3.5306839722763645, 0.2469289964268594)
        out = protocols.optimal_sequence(spec, spec.t_room * spec.e / (2 * spec.e_b))
        assert out.flag == "precool mixing nu=1.0"

    def test_room_temperature_target_is_free(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        out = protocols.optimal_sequence(spec, 1.0)
        assert out.work_cost == 0.0
        assert out.trajectory == ()

    @pytest.mark.parametrize("e_c", [0.4, 1.6])
    def test_full_sequence_total_cost(self, e_c):
        # phase-wise gradient sums down to the algorithmic asymptote
        e = 1.0
        spec = MachineSpec.two_qubit(e_c, 1.0)
        e_b = e + e_c
        r, r_b, r_c = _r(e, 1.0), _r(e_b, 1.0), _r(e_c, 1.0)
        r_coh_inf = _r(e, 1.0 * e / (e_b + e_c))
        r_algo_inf = _r(e, 1.0 * e / (2 * e_b))
        if e_c > e:
            first = (r_c - r) * (e_c - e) + (r_b - r_c) * (e_b - e)
        else:
            first = (r_b - r) * (e_b - e)
        expected = (
            first
            + (r_coh_inf - r_b) * 2 * e_c
            + (r_algo_inf - r_coh_inf) * ((e_b - e_c) + 2 * e_c)
            + (r_b - r_c) * (e_b - e_c)
        )
        out = protocols.optimal_sequence(spec, 1.0 * e / (2 * e_b))
        assert out.work_cost == pytest.approx(expected, rel=1e-12)

    def test_box_identity_with_algorithmic_asymptote(self):
        # total equals the repeated-coherent cost plus the algorithmic tail
        spec = MachineSpec.two_qubit(0.4, 1.0)
        e, e_b, e_c = 1.0, 1.4, 0.4
        r_b, r_c = _r(e_b, 1.0), _r(e_c, 1.0)
        coh_inf = protocols.repeated_coherent(spec, INFINITE)
        r_algo_inf = _r(e, 1.0 * e / (2 * e_b))
        expected = (
            coh_inf.work_cost
            + e * (r_b - r_c)
            + (2 * e_c + e) * (r_algo_inf - coh_inf.r_final)
        )
        out = protocols.optimal_sequence(spec, 1.0 * e / (2 * e_b))
        assert out.work_cost == pytest.approx(expected, rel=1e-12)

    def test_intermediate_target_uses_tuned_precooling(self):
        # nu found by independent bisection on the asymptotic population
        spec = MachineSpec.two_qubit(0.7, 1.0)
        coh_inf = protocols.repeated_coherent(spec, INFINITE)
        algo_inf = protocols.algorithmic_cooling(spec, INFINITE, nu=1.0)
        t_target = 0.5 * (coh_inf.t_final + algo_inf.t_final)
        r_t = _r(1.0, t_target)

        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            r_mid = protocols.algorithmic_cooling(spec, INFINITE, nu=mid).r_final
            if r_mid < r_t:
                lo = mid
            else:
                hi = mid
        nu_bisect = 0.5 * (lo + hi)
        nu_closed = protocols.precool_mixing_for_population(spec, r_t)
        assert nu_closed == pytest.approx(nu_bisect, abs=1e-10)

        # cost decomposition: repeated-coherent part plus the nu-tail
        out = protocols.optimal_sequence(spec, t_target)
        c_pop = protocols.precooled_population(spec, nu_closed)
        r_c = _r(0.7, 1.0)
        expected_tail = 1.0 * (c_pop - r_c) + (1.0 + 2 * 0.7) * (r_t - coh_inf.r_final)
        assert out.work_cost == pytest.approx(
            coh_inf.work_cost + expected_tail, rel=1e-11
        )

        # dense verification of the nu-cycle asymptote
        (rs,), _ = oracle.simulate_algorithmic([spec], 400, nu=nu_closed)
        assert rs[-1] == pytest.approx(r_t, abs=1e-10)

    def test_unreachable_target_rejected(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        with pytest.raises(InfeasibleTargetError):
            protocols.optimal_sequence(spec, 0.1)

    def test_never_more_expensive_than_algorithmic_from_scratch(self):
        spec = MachineSpec.two_qubit(1.0, 1.0)
        for n in range(1, 9):
            algo = protocols.algorithmic_cooling(spec, n, nu=1.0)
            seq = protocols.optimal_sequence(spec, algo.t_final)
            assert seq.work_cost <= algo.work_cost + 1e-12

    def test_phase_milestones_and_mid_phase_gradients(self):
        e, e_c = 1.0, 1.6
        e_b = e + e_c
        spec = MachineSpec.two_qubit(e_c, 1.0)
        r = _r(e, 1.0)
        r_b, r_c = _r(e_b, 1.0), _r(e_c, 1.0)
        # temperature milestones of the phases in order
        t_after_c = 1.0 * e / e_c
        t_after_b = 1.0 * e / e_b
        t_after_rep = 1.0 * e / (e_b + e_c)
        assert protocols.optimal_sequence(spec, t_after_c).work_cost == pytest.approx(
            (r_c - r) * (e_c - e), rel=1e-12
        )
        assert protocols.optimal_sequence(spec, t_after_b).work_cost == pytest.approx(
            (r_c - r) * (e_c - e) + (r_b - r_c) * (e_b - e), rel=1e-12
        )
        # mid-phase targets advance at the phase gradient
        for t_hi, t_lo, gradient, r_lo in (
            (1.0, t_after_c, e_c - e, r),
            (t_after_c, t_after_b, e_b - e, r_c),
            (t_after_b, t_after_rep, 2 * e_c, r_b),
        ):
            t_mid = 0.5 * (t_hi + t_lo)
            base = protocols.optimal_sequence(spec, t_hi).work_cost
            out = protocols.optimal_sequence(spec, t_mid)
            expected = base + (out.r_final - max(r_lo, _r(e, t_hi))) * gradient
            assert out.work_cost == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("e_c", [0.4, 1.6])
    def test_one_machine_record_per_call(self, e_c, monkeypatch):
        # 3 records when the precooling tail re-entered the public evaluators.
        records = []
        real = protocols._Machine

        def counted(spec):
            records.append(spec)
            return real(spec)

        monkeypatch.setattr(protocols, "_Machine", counted)
        # Halfway between the {00,11} asymptote and the full-precooling floor.
        t_target = 0.5 * (1.0 / (1.0 + 2.0 * e_c) + 1.0 / (2.0 * (1.0 + e_c)))
        out = protocols.optimal_sequence(MachineSpec.two_qubit(e_c, 1.0), t_target)
        assert out.flag is not None and out.flag.startswith("precool mixing")
        assert len(records) == 1

    def test_precool_mixing_rejects_nan_population(self):
        spec = MachineSpec.two_qubit(1.6, 1.0)
        with pytest.raises(DomainError):
            protocols.precool_mixing_for_population(spec, math.nan)

    def test_cost_continuous_and_increasing_in_target_population(self):
        spec = MachineSpec.two_qubit(1.6, 1.0)
        floor = 1.0 / (2.0 * 2.6)
        temps = np.linspace(1.0, floor, 400)
        costs = [protocols.optimal_sequence(spec, float(t)).work_cost for t in temps]
        assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))
        jumps = np.abs(np.diff(costs))
        assert jumps.max() < 0.01  # no discontinuity at phase boundaries


class TestSingleCycleCurve:
    @pytest.mark.parametrize(
        "spec, scenario, control",
        [
            (MachineSpec.two_qubit(0.4, 1.0), "inc-single", 0.999),
            (MachineSpec.two_qubit(0.4, 1.0), "inc-single", math.nan),
            (MachineSpec.two_qubit(0.4, INFINITE), "inc-single", 1e300),
            (MachineSpec.two_qubit(0.4, 1.0), "internal-inc", 0.999),
            (MachineSpec.two_qubit(0.4, 1.0), "internal-inc", math.nan),
            (MachineSpec.two_qubit(0.4, INFINITE), "internal-inc", 1e300),
            (MachineSpec.two_qubit(0.4, 1.0), "coh-single", -1e-9),
            (MachineSpec.two_qubit(1.7, 1.0), "coh-single", 1.5),
            (MachineSpec.two_qubit(0.4, 1.0), "coh-single", math.nan),
            (MachineSpec.two_qubit(0.4, 1.0), "internal-coh", -1e-9),
            (MachineSpec.two_qubit(0.4, 1.0), "internal-coh", 1.5),
            (MachineSpec.two_qubit(0.4, 1.0), "internal-coh", math.nan),
        ],
    )
    def test_control_out_of_range_is_rejected_naming_it(self, spec, scenario, control):
        # A t_hot below t_room or a mu outside [0, 1], among valid controls.
        good = 0.5 if "coh" in scenario else 2.0 * spec.t_room
        message = {
            "inc-single": "t_hot must be >= t_room",
            "internal-inc": "internal hot temperature must be >= t_room",
        }.get(scenario, r"mu must lie in \[0, 1\]")
        with pytest.raises(DomainError, match=message):
            protocols.single_cycle_curve(spec, scenario, [good, control])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(DomainError, match="inc-repeat"):
            protocols.single_cycle_curve(MachineSpec.two_qubit(0.4, 1.0), "inc-repeat", [1.0])


class TestInternalResource:
    def test_infinite_room_temperature_costs_nothing(self):
        spec = MachineSpec.two_qubit(0.4, INFINITE)
        out = protocols.internal_resource(spec, "incoherent", INFINITE)
        assert out.work_cost == 0.0
        assert out.r_final == 0.5

    def test_equilibrium_control_costs_nothing(self):
        spec = MachineSpec.two_qubit(1.0 / 3.0, 1.0)
        inc = protocols.internal_resource(spec, "incoherent", 1.0)
        coh = protocols.internal_resource(spec, "coherent", 0.0)
        assert inc.work_cost == pytest.approx(0.0, abs=1e-14)
        assert coh.work_cost == pytest.approx(0.0, abs=1e-14)

    def test_incoherent_dominates_coherent_at_matched_temperature(self):
        spec = MachineSpec.two_qubit(1.0 / 3.0, 1.0)
        r_c = _r(1.0 / 3.0, 1.0)
        for t_hot in (1.5, 2.5, 6.0, 25.0):
            inc = protocols.internal_resource(spec, "incoherent", t_hot)
            r_ch = _r(1.0 / 3.0, t_hot)
            mu = (r_c - r_ch) / (2.0 * r_c - 1.0)
            coh = protocols.internal_resource(spec, "coherent", mu)
            assert coh.r_final == pytest.approx(inc.r_final, abs=1e-13)
            assert inc.work_cost < coh.work_cost

    def test_incoherent_against_dense_free_energy(self):
        # free energy computed from the dense state, entropy term included
        spec = MachineSpec.two_qubit(1.0 / 3.0, 1.0, 2.0)

        def free_energy(state):
            pops = state.diagonal()
            h = hamiltonian_diagonal(spec.gaps)
            entropy = -float(np.sum(pops * np.log(pops)))
            return float(pops @ h) - spec.t_room * entropy

        cold = oracle.build_thermal_state(spec, (1.0, 1.0, 1.0))
        hot = oracle.build_thermal_state(spec, (1.0, 1.0, 2.0))
        expected = free_energy(hot) - free_energy(cold)
        out = protocols.internal_resource(spec, "incoherent", 2.0)
        assert out.work_cost == pytest.approx(expected, abs=1e-12)

        # final population from the dense degenerate-pair swap
        h = hamiltonian_diagonal(spec.gaps)
        swap = oracle.swap_unitary(8, 2, 5, tag="energy_conserving")
        r_dense, _, _ = oracle.apply_and_measure(hot, swap, h)
        assert out.r_final == pytest.approx(r_dense, abs=1e-14)

    def test_coherent_against_dense_local_unitary(self):
        spec = MachineSpec.two_qubit(1.0 / 3.0, 1.0)
        mu = 0.37
        state = oracle.build_thermal_state(spec, (1.0,) * 3)
        h = hamiltonian_diagonal(spec.gaps)
        c, s = math.sqrt(1 - mu), math.sqrt(mu)
        local = np.kron(np.eye(4), np.array([[c, s], [-s, c]]))
        rotated = oracle.DenseState(local @ state.matrix @ local.conj().T)
        cost_dense = float(
            (rotated.diagonal() - state.diagonal()) @ h
        )
        swap = oracle.swap_unitary(8, 2, 5)
        r_dense, _, _ = oracle.apply_and_measure(rotated, swap, h)
        out = protocols.internal_resource(spec, "coherent", mu)
        assert out.work_cost == pytest.approx(cost_dense, abs=1e-13)
        assert out.r_final == pytest.approx(r_dense, abs=1e-13)

    def test_unknown_scenario_rejected(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        with pytest.raises(DomainError):
            protocols.internal_resource(spec, "hybrid", 0.5)

    @pytest.mark.parametrize("e_c, t_room", [(2.0, 0.5), (1.0 / 3.0, 1.0), (0.4, 1.0), (30.0, 0.7)])
    @pytest.mark.parametrize("closeness", [10.0**-k for k in range(1, 16)] + [1.0, 9.0, INFINITE])
    def test_incoherent_cost_is_t_room_times_d_near_the_reversible_limit(
        self, e_c, t_room, closeness
    ):
        # e_c (1 - T_R/T_H)(1 - c) + T_R ln(c/r_C) cancelled as T_H -> T_R:
        # -4.33e-17 at (2.0, 0.5) and T_H = 0.5 (1 + 1e-8), where T_R D is 7.07e-18.
        t_hot = t_room * (1.0 + closeness)
        out = protocols.internal_resource(MachineSpec.two_qubit(e_c, t_room), "incoherent", t_hot)
        want = t_room * float(decimal_reference.relative_entropy(e_c, t_hot, t_room))
        assert out.work_cost > 0.0
        assert out.work_cost == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t_room", [5e-324, 1e-310, 5e-309])
    @pytest.mark.parametrize("e_c, t_hot", [(1.0, 2.0), (1.0, INFINITE), (3.0, 0.05), (700.0, 1.0)])
    def test_incoherent_cost_stays_finite_where_e_c_over_t_room_overflows(self, t_room, e_c, t_hot):
        # D overflows with E_C/T_R, T_R·D does not: it is E_C s_H (T_H - T_R)/T_H
        # up to T_R ln(1 - s_H), below E_C·4e-309 (0.3775 at E_C = 1, T_H = 2).
        out = protocols.internal_resource(MachineSpec.two_qubit(e_c, t_room), "incoherent", t_hot)
        d = decimal_reference.relative_entropy(e_c, t_hot, t_room)
        want = decimal_reference.CONTEXT.multiply(Decimal(t_room), d)
        assert e_c / t_room == INFINITE
        assert out.work_cost > 0.0
        assert out.work_cost == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_incoherent_infinite_bath_limit(self):
        spec = MachineSpec.two_qubit(1.0 / 3.0, 1.0, INFINITE)
        out = protocols.internal_resource(spec, "incoherent", INFINITE)
        r_c = _r(1.0 / 3.0, 1.0)
        expected = (1.0 / 3.0) * 0.5 + math.log(0.5 / r_c)
        assert out.work_cost == pytest.approx(expected, rel=1e-13)

        def free_energy(state):
            pops = state.diagonal()
            h = hamiltonian_diagonal(spec.gaps)
            entropy = -float(np.sum(pops * np.log(pops)))
            return float(pops @ h) - spec.t_room * entropy

        cold = oracle.build_thermal_state(spec, (1.0, 1.0, 1.0))
        hot = oracle.build_thermal_state(spec, (1.0, 1.0, INFINITE))
        assert out.work_cost == pytest.approx(
            free_energy(hot) - free_energy(cold), abs=1e-12
        )


class TestDegeneracyClassifier:
    def test_infinite_gap_rejected(self):
        # An infinite gap made the tolerance infinite, so E_C = 1 read as 0.
        with pytest.raises(DomainError, match="e_b must be finite"):
            protocols.degeneracy_classifier(1.0, INFINITE, 1.0)
        with pytest.raises(DomainError, match="e must be finite"):
            protocols.degeneracy_classifier(INFINITE, INFINITE, 1.0)

    def test_resonance_enables_cooling(self):
        result = protocols.degeneracy_classifier(1.0, 1.4, 0.4)
        assert result.cooling_enabled
        assert result.enabling_subspace == (2, 5)
        assert "E_B=E_A+E_C" in result.degeneracies

    def test_target_sum_rule_does_not_cool(self):
        result = protocols.degeneracy_classifier(1.0, 0.5, 0.5)
        assert not result.cooling_enabled
        assert "E_A=E_B+E_C" in result.degeneracies
        assert "E_B=E_C" in result.degeneracies

    def test_all_zero_gaps_disabled(self):
        result = protocols.degeneracy_classifier(0.0, 0.0, 0.0)
        assert not result.cooling_enabled
        assert "E_A=0" in result.degeneracies

    def test_dead_resonance_with_zero_ec(self):
        result = protocols.degeneracy_classifier(1.0, 1.0, 0.0)
        assert not result.cooling_enabled
        assert "E_B=E_A+E_C" in result.degeneracies

    def test_zero_target_gap_with_equal_machine_gaps_cools(self):
        result = protocols.degeneracy_classifier(0.0, 0.7, 0.7)
        assert result.cooling_enabled


class TestOutcomeInvariants:
    def _outcomes(self):
        spec = MachineSpec.two_qubit(0.7, 1.0, 4.0)
        yield protocols.two_qubit_incoherent_single(spec)
        yield protocols.two_qubit_coherent_single(spec, 0.78)
        yield protocols.repeated_incoherent(spec, 5)
        yield protocols.repeated_incoherent(spec, INFINITE)
        yield protocols.autonomous_steady_state(spec)
        yield protocols.repeated_coherent(spec, 4)
        yield protocols.repeated_coherent(spec, INFINITE)
        yield protocols.algorithmic_cooling(spec, 4, nu=1.0)
        yield protocols.algorithmic_cooling(spec, INFINITE, nu=1.0)
        yield protocols.optimal_sequence(spec, 0.5)
        yield protocols.internal_resource(spec, "incoherent", 4.0)
        yield protocols.internal_resource(spec, "coherent", 0.6)

    def test_temperature_consistent_with_population(self):
        for out in self._outcomes():
            expected = temperature_from_population(1.0, out.r_final)
            assert out.t_final == pytest.approx(expected, rel=1e-12)

    def test_trajectories_monotone_and_costed(self):
        for out in self._outcomes():
            rs = [p.r for p in out.trajectory]
            fs = [p.delta_f for p in out.trajectory]
            assert all(b >= a - 1e-15 for a, b in zip(rs, rs[1:]))
            assert all(b >= a - 1e-15 for a, b in zip(fs, fs[1:]))
            assert out.work_cost >= -1e-15


class TestEndpointOrderings:
    def test_coherent_beats_incoherent_on_parameter_grid(self):
        for e_c in np.linspace(0.05, 5.0, 10):
            for t_room in np.linspace(0.2, 5.0, 10):
                spec = MachineSpec.two_qubit(float(e_c), float(t_room), INFINITE)
                r = _r(spec.e, spec.t_room)
                r_b = _r(spec.e_b, spec.t_room)
                r_c = _r(spec.e_c, spec.t_room)
                t_coh_star = spec.t_room * spec.e / spec.e_b
                t_inc_star = temperature_from_population(spec.e, 0.5 * (r + r_b))
                df_coh_star = protocols.single_cycle_coherent_cost(spec)
                df_inc_star = spec.e_c * (r_c - 0.5)
                assert t_coh_star < t_inc_star
                assert df_coh_star < df_inc_star

    def test_repeated_regimes_extend_below_single_cycle(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, INFINITE)
        t_coh_star = 1.0 / 1.4
        t_inc_star = protocols.two_qubit_incoherent_single(spec).t_final
        t_auto_star = protocols.autonomous_steady_state(spec).t_final
        t_coh_inf = protocols.repeated_coherent(spec, INFINITE).t_final
        t_algo_inf = protocols.algorithmic_cooling(spec, INFINITE).t_final
        assert t_auto_star < t_inc_star
        assert t_coh_inf < t_coh_star
        assert t_algo_inf < t_coh_inf


def test_protocols_price_without_the_solver():
    # The T-transform solver checks the closed forms only while the closed
    # forms cannot reach it; protocols stays free of array code too.
    tree = ast.parse(Path(protocols.__file__).read_text())
    imported, from_majorization = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if (node.module or "").split(".")[-1] == "majorization":
                from_majorization += names
            else:
                imported += [node.module or ""] + names
    assert from_majorization == []
    assert not [name for name in imported if name.split(".")[-1] == "majorization"]
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
