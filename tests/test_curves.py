"""Repetition curves: one trajectory per curve, and the step-0 temperature rule."""

import pytest

from qfridge import protocols
from qfridge.cli import CurvePoint, curve_points
from qfridge.thermal import (
    INFINITE,
    MachineSpec,
    boltzmann_population,
    temperature_from_population,
)

EVALUATORS = ("repeated_incoherent", "repeated_coherent", "algorithmic_cooling")

# (E_C, T_R) pairs: unsaturated, saturated room population, infinite room.
MACHINES = [(1.7, 0.3), (0.4, 0.025), (1.0, 1.0), (0.4, INFINITE)]


def _per_n_curve(scenario, spec, grid, nu=1.0, r0=None):
    """The curve as one evaluator call per n = 0..grid-2, inf."""
    ns = [INFINITE] if grid <= 1 else [float(k) for k in range(grid - 1)] + [INFINITE]
    points = []
    for n in ns:
        if scenario == "inc-repeat":
            out = protocols.repeated_incoherent(spec, n)
        elif scenario == "coh-repeat":
            out = protocols.repeated_coherent(spec, n)
        else:
            out = protocols.algorithmic_cooling(spec, n, nu=nu, r0=r0)
        points.append(CurvePoint(n, out.work_cost, out.t_final, out.r_final))
    return points


def _cases():
    for e_c, t_r in MACHINES:
        for t_h in (2.0, 10.0, INFINITE):
            if t_h >= t_r:
                yield "inc-repeat", e_c, t_r, t_h, {}
        yield "coh-repeat", e_c, t_r, None, {}
        yield "algo", e_c, t_r, None, {}
        yield "algo", e_c, t_r, None, {"nu": 0.3}
        r = boltzmann_population(1.0, t_r)
        yield "algo", e_c, t_r, None, {"r0": 0.5 * (r + 1.0)}


@pytest.mark.parametrize("grid", [1, 2, 3, 17])
@pytest.mark.parametrize("scenario,e_c,t_r,t_h,extra", list(_cases()))
def test_rows_equal_one_evaluator_call_per_n(scenario, e_c, t_r, t_h, extra, grid):
    spec = MachineSpec.two_qubit(e_c, t_r, t_h)
    got = curve_points(scenario, spec, grid, **extra)
    assert got == _per_n_curve(scenario, spec, grid, **extra)


@pytest.fixture
def evaluator_calls(monkeypatch):
    calls = []
    for name in EVALUATORS:
        original = getattr(protocols, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)

        monkeypatch.setattr(protocols, name, counted)
    return calls


@pytest.mark.parametrize("scenario", ["inc-repeat", "coh-repeat", "algo"])
@pytest.mark.parametrize("grid,expected", [(1000, 2), (1, 1)])
def test_curve_makes_one_finite_and_one_infinite_call(scenario, grid, expected, evaluator_calls):
    spec = MachineSpec.two_qubit(1.0, 1.0, 10.0)
    points = curve_points(scenario, spec, grid)
    assert len(points) == grid
    assert len(evaluator_calls) == expected


@pytest.mark.parametrize("e_c,t_r", [(0.4, 0.025), (1.7, 0.3)])
@pytest.mark.parametrize("scenario", ["inc-repeat", "coh-repeat", "algo"])
def test_step_zero_reads_room_temperature(scenario, e_c, t_r):
    spec = MachineSpec.two_qubit(e_c, t_r, 2.0)
    first = curve_points(scenario, spec, 5)[0]
    assert first.control == 0.0
    assert first.temperature == t_r


def test_step_zero_away_from_room_population_goes_through_the_population():
    spec = MachineSpec.two_qubit(1.7, 0.3)
    r0 = 0.5 * (boltzmann_population(1.0, 0.3) + 1.0)
    first = curve_points("algo", spec, 3, r0=r0)[0]
    assert first.r == r0
    assert first.temperature == temperature_from_population(1.0, r0)
