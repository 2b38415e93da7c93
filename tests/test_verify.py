import dataclasses
import decimal
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import decimal_reference
from qfridge import ladder, majorization, oracle, protocols
from qfridge.cli import main
from qfridge.thermal import DomainError, MachineSpec
from qfridge.verify import (
    check_formula_dense_equivalence,
    check_ladder_gap_rate,
    check_pareto_sweep,
    check_thermalization_gradients,
    check_vertex_oracle,
    coherent_single_cycle_curve,
    run_verification,
)


def _mutated_check(mutation, name, capsys):
    # The one failing check of a small `verify --mutate` run.
    argv = ["verify", "--samples", "200", "--machines", "4", "--instances", "4"]
    assert main([*argv, "--mutate", mutation]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    (check,) = [c for c in checks if not c["passed"]]
    assert check["name"] == name
    return check


@pytest.mark.parametrize("machines, instances", [(-3, -2), (-1, 0), (0, -1)])
def test_negative_machine_or_instance_count_rejected(machines, instances):
    with pytest.raises(DomainError):
        run_verification(seed=1, samples=0, machines=machines, instances=instances)


class TestThermalizationGradientReport:
    def test_wrong_slope_sign_reports_the_slope_and_the_machine(self, monkeypatch):
        for slopes, label, wrong in (((0.25, 0.5), "B", 0.25), ((-0.25, -0.5), "C", -0.5)):
            monkeypatch.setattr(
                oracle, "thermalization_gradient_check", lambda spec, t_b, t_c: slopes
            )
            result = check_thermalization_gradients(seed=5)
            assert not result.passed
            assert math.isfinite(result.residual)
            assert result.residual == wrong
            assert f"d/dT_{label}" in result.detail
            for name in ("e_c=", "t_room=", "t_hot=", "t_b=", "t_c="):
                assert name in result.detail

    @pytest.mark.parametrize("label", ["B", "C"])
    def test_slope_off_the_closed_form_names_the_worst_machine(self, label, monkeypatch):
        real = oracle.thermalization_gradient_check
        scale = {"B": (1.01, 1.0), "C": (1.0, 1.02)}[label]

        def off(spec, t_b, t_c):
            slope_b, slope_c = real(spec, t_b, t_c)
            return slope_b * scale[0], slope_c * scale[1]

        monkeypatch.setattr(oracle, "thermalization_gradient_check", off)
        result = check_thermalization_gradients(seed=5)
        assert not result.passed
        assert result.residual == pytest.approx(max(scale) - 1.0, rel=1e-3)
        assert result.detail.startswith(
            "25 machines, central differences vs closed-form slopes; worst: machine "
        )
        assert f", d/dT_{label} = " in result.detail
        for name in ("e_c=", "t_room=", "t_hot=", "t_b=", "t_c="):
            assert name in result.detail

    @pytest.mark.parametrize("label", ["B", "C"])
    def test_nan_slope_fails_with_an_infinite_residual(self, label, monkeypatch):
        real = oracle.thermalization_gradient_check

        def with_nan(spec, t_b, t_c):
            slope_b, slope_c = real(spec, t_b, t_c)
            return (math.nan, slope_c) if label == "B" else (slope_b, math.nan)

        monkeypatch.setattr(oracle, "thermalization_gradient_check", with_nan)
        result = check_thermalization_gradients(seed=5)
        assert not result.passed
        assert result.residual == math.inf
        assert f"; worst: machine 0, d/dT_{label} = nan against " in result.detail

    def test_passing_report_is_unchanged(self):
        result = check_thermalization_gradients(seed=5)
        assert result.passed
        assert 0.0 <= result.residual <= result.tolerance == 1e-6
        assert result.detail == "25 machines, central differences vs closed-form slopes"


class TestVertexOracleGatesTheClosedForm:
    @pytest.mark.parametrize(
        "name, dim",
        [("one_qubit_coherent", 4), ("two_qubit_coherent_single", 8)],
        ids=["one_qubit_coherent", "two_qubit_coherent_single"],
    )
    def test_shifted_closed_form_fails(self, name, dim, monkeypatch):
        closed_form = getattr(protocols, name)

        def shifted(spec, r_target):
            out = closed_form(spec, r_target)
            return dataclasses.replace(out, work_cost=out.work_cost + 1e-6)

        assert check_vertex_oracle(seed=3, instances=4).passed
        monkeypatch.setattr(protocols, name, shifted)
        result = check_vertex_oracle(seed=3, instances=4)
        assert not result.passed
        assert result.residual == pytest.approx(1e-6, rel=1e-6)
        assert (result.name, result.tolerance) == ("vertex_oracle", 1e-10)
        assert f", dimension {dim}, r_target=" in result.detail
        assert ", closed form missed, " in result.detail


class TestVertexOracleReport:
    def test_passing_report_is_unchanged(self):
        result = check_vertex_oracle(seed=3, instances=4)
        assert result.passed
        assert result.detail == "4 random instances, dimensions 4 and 8"

    def test_mutated_solver_names_the_worst_instance(self, capsys):
        check = _mutated_check("vertex", "vertex_oracle", capsys)
        assert check["detail"].startswith("4 random instances, dimensions 4 and 8; worst: ")
        assert "; worst: instance " in check["detail"]
        for name in (", dimension ", ", r_target=", ", solver missed, ", "e=", "e_b=", "t_room="):
            assert name in check["detail"]

    def test_nan_from_the_solver_fails_with_an_infinite_residual(self, monkeypatch):
        solve = majorization.solve_two_qubit

        def with_nan(rho, h, r_target):
            return dataclasses.replace(solve(rho, h, r_target), objective=math.nan)

        monkeypatch.setattr(majorization, "solve_two_qubit", with_nan)
        result = check_vertex_oracle(seed=3, instances=4)
        assert not result.passed
        assert result.residual == math.inf
        assert "; worst: instance 1, dimension 8, " in result.detail
        assert ", solver missed, " in result.detail


@pytest.mark.parametrize("e_c", [0.4, 1.7], ids=["e_c<e", "e_c>e"])
@pytest.mark.parametrize("t_room", [0.21, 1.0, 5.0])
def test_three_point_frontier_interpolates_the_closed_form(e_c, t_room):
    # The frontier is linear in mu between mu = 0, 1/2 and 1, so the kink
    # points alone give the closed-form cost at every population between.
    spec = MachineSpec.two_qubit(e_c, t_room)
    f_kinks, r_kinks = np.array(coherent_single_cycle_curve(spec)).T
    for mu in np.linspace(0.0, 1.0, 201):
        r_target = protocols.coherent_single_population(spec, float(mu))
        cost = protocols.two_qubit_coherent_single(spec, r_target).work_cost
        assert abs(np.interp(r_target, r_kinks, f_kinks) - cost) <= 1e-15 * abs(cost), mu


class TestParetoSweepReport:
    def test_passing_report_is_unchanged(self):
        result = check_pareto_sweep(seed=5, samples=50)
        assert result.passed
        assert result.detail == "50 Haar unitaries plus optimal-unitary probes, seed 5"

    def test_mutated_curve_names_the_worst_probe(self, capsys):
        check = _mutated_check("pareto", "pareto_sweep", capsys)
        assert "; worst: probe mu=" in check["detail"]
        for name in (", r=", ", delta_f=", ", curve delta_f="):
            assert name in check["detail"]

    def test_nan_probe_cost_fails_with_an_infinite_residual(self, monkeypatch):
        simulate = oracle.simulate_coherent_single

        def with_nan(specs, mus):
            r, work = simulate(specs, mus)
            work[2] = math.nan
            return r, work

        monkeypatch.setattr(oracle, "simulate_coherent_single", with_nan)
        result = check_pareto_sweep(seed=5, samples=50)
        assert not result.passed
        assert result.residual == math.inf
        assert "; worst: probe mu=0.5, " in result.detail
        assert ", delta_f=nan, " in result.detail

    def test_dominating_sample_is_named(self, monkeypatch):
        sweep = oracle.haar_pareto_sweep
        points = (
            oracle.DominatingPoint(index=17, r=0.75, delta_f=0.25, excess=1e-3),
            oracle.DominatingPoint(index=42, r=0.5, delta_f=0.125, excess=2e-3),
        )

        def dominated(*args, **kwargs):
            return dataclasses.replace(sweep(*args, **kwargs), dominating=points)

        monkeypatch.setattr(oracle, "haar_pareto_sweep", dominated)
        result = check_pareto_sweep(seed=5, samples=50)
        assert not result.passed
        assert result.residual == 2e-3
        assert result.detail.endswith(
            "; worst: Haar sample 42, r=0.5, delta_f=0.125, excess=0.002"
        )


class TestFormulaDenseReport:
    def test_passing_report_is_unchanged(self):
        result = check_formula_dense_equivalence(seed=9, machines=6)
        assert result.passed
        assert result.detail == "6 machines, single-cycle and repeated protocols"

    def test_failure_names_the_worst_instance(self, monkeypatch):
        # Shift the last closed-form point of the third machine only; the
        # closed forms run machine by machine, in draw order.
        seen = []
        closed_form = protocols.repeated_coherent

        def shifted(spec, n):
            out = closed_form(spec, n)
            seen.append(spec)
            if len(seen) != 3:
                return out
            *head, last = out.trajectory
            return SimpleNamespace(trajectory=[*head, last._replace(r=last.r + 1e-6)])

        monkeypatch.setattr(protocols, "repeated_coherent", shifted)
        result = check_formula_dense_equivalence(seed=9, machines=4)
        assert not result.passed
        assert result.residual == pytest.approx(1e-6, rel=1e-6)
        spec = seen[2]
        assert result.detail.startswith("4 machines, single-cycle and repeated protocols; ")
        assert f"repeated coherent on machine 2, e_c={spec.e_c!r}, " in result.detail
        assert f"t_room={spec.t_room!r}, t_hot={spec.t_hot!r}, n=" in result.detail
        assert "mu=" not in result.detail

    @pytest.mark.parametrize("route", ["closed form", "dense"])
    def test_nan_from_either_route_fails_with_an_infinite_residual(self, route, monkeypatch):
        if route == "dense":
            simulate = oracle.simulate_coherent_single

            def with_nan(specs, mus):
                r, work = simulate(specs, mus)
                r[1] = math.nan
                return r, work

            monkeypatch.setattr(oracle, "simulate_coherent_single", with_nan)
        else:
            monkeypatch.setattr(protocols, "coherent_single_population", lambda spec, mu: math.nan)
        result = check_formula_dense_equivalence(seed=9, machines=4)
        assert not result.passed
        assert result.residual == math.inf
        machine = 1 if route == "dense" else 0
        assert f"coherent single cycle on machine {machine}, " in result.detail
        assert ", mu=" in result.detail


class TestLadderGapRateReport:
    def test_passing_report_is_unchanged(self):
        result = check_ladder_gap_rate()
        assert result.passed
        # The decimal reference's max |gap(2N)/gap(N) - 1/2| is
        # 0.00158342858282938089...; the stage loop's float gaps read
        # 0.0015834285828311145, off by 1.1e-12 relative.
        assert result.residual == 0.0015834285828294492
        assert result.tolerance == 0.1
        assert result.detail == "gap ratios at N in {16, 32, 64}; embedded preheat offset 0.000e+00"

    def test_residual_matches_the_decimal_reference(self):
        with decimal.localcontext(decimal_reference.CONTEXT):
            gaps = [decimal_reference.ladder_totals(1.0, 0.5, 1.0, n)[0] for n in (16, 32, 64, 128)]
            worst = max(abs(b / a - decimal.Decimal("0.5")) for a, b in zip(gaps, gaps[1:]))
        assert check_ladder_gap_rate().residual == pytest.approx(float(worst), rel=1e-13, abs=0.0)

    def test_broken_preheat_names_the_gate_and_the_ladder(self, monkeypatch):
        twin = ladder.incoherent_twin

        def broken(spec, coh):
            return SimpleNamespace(w_total=twin(spec, coh).w_total + 1e-3)

        monkeypatch.setattr(ladder, "incoherent_twin", broken)
        result = check_ladder_gap_rate()
        assert not result.passed
        assert result.detail == (
            "gap ratios at N in {16, 32, 64}; embedded preheat offset 1.000e-03; "
            "preheat offset failed: not below 1e-9 at "
            "N=8, T_C=0.5, T_R=1.0, T_H=10.0, offset=4500.0"
        )

    def test_broken_ratio_names_the_gate_and_the_ladder(self, monkeypatch):
        # A gap that stops shrinking with N: every ratio is 2.
        coherent = ladder.coherent_ladder
        monkeypatch.setattr(
            ladder,
            "coherent_ladder",
            lambda spec: SimpleNamespace(gap=coherent(spec).gap * spec.n_steps**2),
        )
        result = check_ladder_gap_rate()
        assert not result.passed
        assert result.residual == pytest.approx(2.0, rel=1e-2)
        assert result.detail.startswith("ratio window failed: gap(2N)/gap(N) = ")
        assert result.detail.endswith(
            " outside [0.4, 0.6] at N=16, T_C=0.5, T_R=1.0, T_H=None, offset=None"
        )


def test_verification_at_the_bench_size_holds_no_batch_tables():
    # The bench's `verify --samples 100000 --machines 200 --instances 200`.
    # All 8! vertices alone are 2.6 MB.  The small run first loads what the
    # first call imports and caches.
    run_verification(seed=1, samples=10, machines=2, instances=2)
    tracemalloc.start()
    try:
        report = run_verification(seed=7, samples=100_000, machines=200, instances=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 2e6
