import argparse
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import decimal_reference
from qfridge import cli, ladder, protocols
from qfridge.cli import (
    CSV_HEADER,
    coherent_temperature_of_work,
    crossing_report,
    curve_points,
    incoherent_temperature_of_work,
    load_config,
    main,
)
from qfridge.ladder import LadderSpec, coherent_ladder, incoherent_ladder
from qfridge.oracle import DEFAULT_SEED
from qfridge.thermal import INFINITE, InfeasibleTargetError, MachineSpec, boltzmann_population


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(args):
    """Run ``python -m qfridge.cli`` in a child that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "qfridge.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)


STANDARD = ["--e-c", "0.4", "--t-r", "1"]


class TestCurveCommand:
    def test_header_and_row_count(self, capsys):
        rc = main(["curve", "coh-single", *STANDARD, "--grid", "10"])
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert rc == 0
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11

    def test_single_point_grid_is_the_endpoint(self, capsys):
        rc = main(["curve", "inc-single", *STANDARD, "--grid", "1"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert len(lines) == 2
        assert lines[1].startswith("inf,")

    @pytest.mark.parametrize(
        "argv", [["ladder-coh", "--t-c", "0.5"], ["ladder-inc", "--t-c", "0.5", "--t-h", "10"]]
    )
    def test_ladder_curves_need_no_machine_qubit_gap(self, argv, capsys):
        # The ladder builds its own machine qubits; --e-c is accepted, unread.
        outputs = []
        for extra in ([], ["--e-c", "0.4"]):
            rc = main(["curve", *argv, "--grid", "2", "--full-precision", *extra])
            captured = capsys.readouterr()
            assert (rc, captured.err) == (0, "")
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 3

    @pytest.mark.parametrize("grid", [2, 3, 6])
    def test_empty_incoherent_virtual_qubit_rows_stay_at_the_room_state(self, grid, capsys):
        argv = ["curve", "inc-repeat", "--e-c", "5", "--t-r", "0.05", "--t-h", "0.05"]
        rc = main([*argv, "--grid", str(grid), "--full-precision"])
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert rc == 0
        assert [row[0] for row in rows] == [repr(float(n)) for n in range(grid - 1)] + ["inf"]
        for _, delta_f, _, r in rows[:-1]:
            assert (float(delta_f), float(r)) == (0.0, boltzmann_population(1.0, 0.05))

    def test_control_values_are_increasing(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 3.0)
        scenarios = (
            "inc-single",
            "coh-single",
            "inc-repeat",
            "coh-repeat",
            "algo",
            "internal-inc",
            "internal-coh",
        )
        for scenario in scenarios:
            pts = curve_points(scenario, spec, 12)
            controls = [p.control for p in pts]
            assert controls == sorted(controls)
        for scenario in ("ladder-coh", "ladder-inc"):
            pts = curve_points(scenario, spec, 6, t_cold=0.5)
            controls = [p.control for p in pts]
            assert controls == sorted(controls)
            assert len(pts) == 6

    def test_internal_curves_against_protocol_evaluators(self):
        spec = MachineSpec.two_qubit(1.0 / 3.0, 1.0, 4.0)
        pts = curve_points("internal-inc", spec, 8)
        out = protocols.internal_resource(spec, "incoherent", pts[3].control)
        assert pts[3].delta_f == pytest.approx(out.work_cost, abs=1e-14)
        pts = curve_points("internal-coh", spec, 8)
        out = protocols.internal_resource(spec, "coherent", pts[3].control)
        assert pts[3].r == pytest.approx(out.r_final, abs=1e-14)

    def test_output_file_and_bit_stability(self, tmp_path):
        target_a = tmp_path / "a.csv"
        target_b = tmp_path / "b.csv"
        for target in (target_a, target_b):
            rc = main(
                [
                    "curve",
                    "inc-single",
                    *STANDARD,
                    "--grid",
                    "25",
                    "--full-precision",
                    "-o",
                    str(target),
                ]
            )
            assert rc == 0
        assert target_a.read_bytes() == target_b.read_bytes()

    def test_curve_endpoints_match_summary(self, tmp_path):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        quantities = protocols.boxed_limits(spec)["two_qubit"]

        coh = curve_points("coh-single", spec, 51)[-1]
        assert abs(coh.delta_f - quantities["delta_f_coh_star"]) <= 1e-12
        assert abs(coh.temperature - quantities["t_coh_star"]) <= 1e-12
        assert abs(coh.r - quantities["r_coh_star"]) <= 1e-12

        hot = MachineSpec.two_qubit(0.4, 1.0, INFINITE)
        inc = curve_points("inc-single", hot, 51)[-1]
        assert abs(inc.delta_f - quantities["delta_f_inc_star"]) <= 1e-12
        assert abs(inc.temperature - quantities["t_inc_star"]) <= 1e-12
        assert abs(inc.r - quantities["r_inc_star"]) <= 1e-12

        rep = curve_points("coh-repeat", spec, 31)[-1]
        assert abs(rep.delta_f - quantities["delta_f_coh_inf"]) <= 1e-12
        assert abs(rep.temperature - quantities["t_coh_inf"]) <= 1e-12

        algo = curve_points("algo", spec, 31)[-1]
        assert abs(algo.temperature - quantities["t_algo_inf"]) <= 1e-12
        assert abs(algo.r - quantities["r_algo_inf"]) <= 1e-12

        auto = curve_points("inc-repeat", hot, 31)[-1]
        assert abs(auto.temperature - quantities["t_auto_star"]) <= 1e-12
        assert abs(auto.delta_f - quantities["delta_f_auto_star"]) <= 1e-12

    @pytest.mark.parametrize(
        "scenario",
        ["inc-single", "coh-single", "inc-repeat", "coh-repeat", "algo"]
        + ["internal-inc", "internal-coh"],
    )
    def test_infinite_room_temperature_is_finite(self, scenario, capsys):
        args = ["--e-c", "0.4", "--t-r", "inf", "--grid", "5"]
        hot = ["--t-h", "inf"] if "t_h" in cli.SCENARIOS[scenario] else []
        rc = main(["curve", scenario, *args, *hot])
        out = capsys.readouterr().out
        assert rc == 0
        assert "nan" not in out.lower()
        assert len(out.strip().splitlines()) == 6

    def test_ladder_scenarios_need_cold_temperature(self, capsys):
        rc = main(["curve", "ladder-coh", *STANDARD, "--grid", "4"])
        assert rc == 2
        rc = main(["curve", "ladder-coh", *STANDARD, "--grid", "4", "--t-c", "0.5"])
        assert rc == 0

    @pytest.mark.parametrize(
        "extra", [["--grid", "3", "--r0", "1.5"], ["--grid", "1", "--r0", "nan"]]
    )
    def test_algo_start_outside_thermal_to_one_is_usage_error(self, extra, capsys):
        rc = main(["curve", "algo", "--e-c", "1", *extra])
        assert rc == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "command",
        [
            ["curve", "inc-single", "--grid", "3"],
            ["curve", "coh-single", "--grid", "3"],
            ["curve", "inc-repeat", "--t-h", "2", "--grid", "3"],
            ["curve", "coh-repeat", "--grid", "1"],
            ["curve", "algo", "--grid", "1"],
            ["curve", "internal-inc", "--grid", "3"],
            ["curve", "internal-coh", "--grid", "3"],
            ["crossing"],
        ],
        ids=lambda command: command[1] if command[0] == "curve" else command[0],
    )
    @pytest.mark.parametrize("e_c", ["0", "0.4"])
    def test_gapless_target_asymptote_is_usage_error_naming_it(self, command, e_c, capsys):
        # E = E_C = 0 made the n = inf temperature T_R E/(E_B + E_C) a 0/0;
        # the other scenarios and crossing blamed a gap the caller never
        # passed, and crossing at E = E_C = 0 reported no crossing.
        rc = main([*command, "--e", "0", "--e-c", e_c])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "target gap > 0, got 0.0" in captured.err

    def test_unknown_scenario_is_usage_error(self):
        result = _run(["curve", "nonsense", *STANDARD])
        assert result.returncode == 2

    def test_unwritable_path_is_usage_error(self):
        rc = main(
            ["curve", "coh-single", *STANDARD, "-o", "/nonexistent-dir/x.csv"]
        )
        assert rc == 2


def _per_probe_crossing(spec, tolerance):
    """The crossing search with both frontiers inverted from scratch per probe."""
    spec.require_resonance()
    f_max = protocols.single_cycle_coherent_cost(spec)
    if f_max <= 0.0:
        return cli.CrossingReport(None, None, None, 0)

    def gap(f):
        return incoherent_temperature_of_work(spec, f) - coherent_temperature_of_work(
            spec, f
        )

    probes = [f_max * u for u in cli._logspace(-9.0, -0.0001, 160)] + [f_max]
    values = [gap(float(f)) for f in probes]
    zeros = []
    for (f_lo, g_lo), (f_hi, g_hi) in zip(
        zip(probes, values), zip(probes[1:], values[1:])
    ):
        if g_lo == 0.0:
            zeros.append(float(f_lo))
            continue
        if g_lo * g_hi >= 0.0:
            continue
        lo, hi = float(f_lo), float(f_hi)
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if gap(mid) * g_lo > 0.0:
                lo = mid
            else:
                hi = mid
        zeros.append(0.5 * (lo + hi))
    if not zeros:
        return cli.CrossingReport(None, None, None, 1)
    t_crit = 0.5 * (
        incoherent_temperature_of_work(spec, zeros[0])
        + coherent_temperature_of_work(spec, zeros[0])
    )
    return cli.CrossingReport(zeros[0], t_crit, zeros[-1], 1 + len(zeros))


def _crossing_machines():
    # Figure, kinked (E_C > E), saturated (r_C == 1.0) and cold machines, then
    # uniform draws over the E_C and T_R ranges verify draws from.
    rng = np.random.default_rng(20171030)
    fixed = [(0.4, 1.0), (1.7, 1.0), (1.0 / 3.0, 1.0), (40.0, 1.0), (0.4, 0.25)]
    drawn = zip(rng.uniform(0.05, 5.0, 15), rng.uniform(0.2, 5.0, 15))
    return [MachineSpec.two_qubit(float(e_c), float(t)) for e_c, t in [*fixed, *drawn]]


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda x: 10.0**x)


def _clean_exit_payload(argv):
    """Run ``main(argv)``: exit 0 or 2 with no traceback, and JSON with no NaN.

    Returns the payload, or None on exit 2 (which prints nothing to stdout).
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert out.getvalue() == ""
        return None

    def no_nan(token):
        assert token != "NaN", "NaN in the JSON payload"
        return float(token)

    return json.loads(out.getvalue(), parse_constant=no_nan)


@st.composite
def _drawn_crossing_machines(draw):
    # Tiny E_C (where ground populations leave the gap's sign to noise),
    # E_C < E and kinked machines (E_C > E), at E = 1 and E != 1; or E, E_C
    # and T_R log-uniform over wide ranges, cold ones included, up to
    # E_B/T_R = 600.
    if draw(st.booleans()):
        e = draw(_log_uniform(0.1, 10.0))
        e_c = draw(_log_uniform(1e-6, 100.0))
        return MachineSpec.two_qubit(e_c, draw(_log_uniform(max(0.01, (e + e_c) / 600.0), 100.0)), e=e)
    e = draw(st.one_of(st.just(1.0), st.floats(0.2, 5.0)))
    e_c = draw(
        st.one_of(
            _log_uniform(1e-13, 1e-8),
            st.floats(0.01, 1.0).map(lambda share: share * e),
            st.floats(1.01, 20.0).map(lambda share: share * e),
        )
    )
    return MachineSpec.two_qubit(e_c, draw(st.floats(0.05, 20.0)), e=e)


def _assert_matches_the_decimal_reference(spec, tolerance):
    """Probe signs, sign changes and the first zero, against 50 digits."""
    f_max = protocols.single_cycle_coherent_cost(spec)
    machine = decimal_reference.Machine(spec.e, spec.e_c, spec.t_room)
    try:
        report = crossing_report(spec, tolerance)
    except InfeasibleTargetError:
        # f_max and W(1/2) are both differences of ground populations, each
        # within a few 1e-16 of the truth.
        slack = Decimal(1e-15) * Decimal(2.0 * spec.e_c + spec.e)
        assert machine.coherent_full_cost() >= machine.incoherent_end() - slack
        return
    if f_max <= 0.0:
        # r and r_B round to 1.0: the crossing reports no domain.
        assert report == cli.CrossingReport(None, None, None, 0)
        return
    probes = [f_max * u for u in cli._logspace(-9.0, -0.0001, 160)] + [f_max]
    signs = [machine.gap_sign(f) for f in probes]
    _, sign = protocols.frontier_gap_sign(spec)
    assert [sign(f) for f in probes] == signs
    count, zeros = decimal_reference.sign_changes(signs)
    assert report.sign_changes == count
    if zeros:
        k = zeros[0]
        z = Decimal(probes[k]) if signs[k] == 0 else decimal_reference.zero_between(
            machine, probes[k], probes[k + 1]
        )
        bound = max(tolerance, 4.0 * math.ulp(float(z)))
        assert abs(Decimal(report.delta_f_crit) - z) <= Decimal(bound)


class TestCrossingCommand:
    def test_reference_machine_geometry(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        report = crossing_report(spec, 1e-10)
        assert report.sign_changes == 2
        assert report.delta_f_crit is not None and report.delta_f_crit > 0.0
        assert report.delta_f_crit_prime >= report.delta_f_crit
        # below the critical cost the incoherent route is strictly colder,
        # above the prime threshold strictly hotter
        f_max = protocols.single_cycle_coherent_cost(spec)
        for frac in np.linspace(0.02, 0.98, 25):
            f = float(report.delta_f_crit * frac)
            assert incoherent_temperature_of_work(
                spec, f
            ) < coherent_temperature_of_work(spec, f)
            f = float(
                report.delta_f_crit_prime
                + (f_max - report.delta_f_crit_prime) * frac
            )
            assert incoherent_temperature_of_work(
                spec, f
            ) > coherent_temperature_of_work(spec, f)

    def test_critical_temperature_consistency(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        report = crossing_report(spec, 1e-10)
        t_inc = incoherent_temperature_of_work(spec, report.delta_f_crit)
        t_coh = coherent_temperature_of_work(spec, report.delta_f_crit)
        assert t_inc == pytest.approx(t_coh, abs=1e-6)
        assert report.t_crit == pytest.approx(t_inc, abs=1e-6)

    def test_zero_tolerance_rejected(self, capsys):
        rc = main(["crossing", *STANDARD, "--tolerance", "0"])
        assert rc == 2

    def test_command_emits_json(self, capsys):
        rc = main(["crossing", *STANDARD])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["sign_changes"] == 2
        assert payload["delta_f_crit"] > 0.0

    def test_colder_environment_shrinks_critical_cost(self):
        # qualitative trend: toward small T_R the crossing cost goes small
        warm = crossing_report(MachineSpec.two_qubit(0.4, 1.0), 1e-10)
        cold = crossing_report(MachineSpec.two_qubit(0.4, 0.25), 1e-10)
        assert cold.delta_f_crit < warm.delta_f_crit

    def test_critical_cost_peaks_at_an_interior_environment_temperature(self):
        import numpy as np

        for e_c in (0.4, 1.0):
            grid = np.linspace(0.2, 4.0, 12)
            crits = [
                crossing_report(MachineSpec.two_qubit(e_c, float(t)), 1e-10).delta_f_crit
                for t in grid
            ]
            peak = int(np.argmax(crits))
            assert 0 < peak < len(grid) - 1

    def test_reference_machine_critical_cost_is_pinned(self):
        report = crossing_report(MachineSpec.two_qubit(0.4, 1.0), 1e-10)
        assert report.delta_f_crit == 0.005055054214935581

    def test_frontier_inversions_are_the_library_functions(self):
        assert coherent_temperature_of_work is protocols.coherent_temperature_of_work
        assert incoherent_temperature_of_work is protocols.incoherent_temperature_of_work

    @pytest.mark.parametrize("tolerance", [1e-10, 1e-6])
    def test_equals_the_per_probe_search(self, tolerance):
        for spec in _crossing_machines():
            assert crossing_report(spec, tolerance) == _per_probe_crossing(spec, tolerance)

    @settings(max_examples=150)
    @given(spec=_drawn_crossing_machines(), tolerance=st.sampled_from([1e-10, 1e-6]))
    def test_matches_the_decimal_reference_on_drawn_machines(self, spec, tolerance):
        _assert_matches_the_decimal_reference(spec, tolerance)

    @pytest.mark.parametrize(
        "e, e_c, t_room, count",
        [
            # 97 and 9 sign changes of noise when each probe inverted T_inc
            (0.9707969357468366, 5.098404036901539, 0.033287969787308365, 1),
            (1.4057, 1.27e-6, 0.0736, 2),
            # W in plain excited populations, (s_x - s_C)(E_C - T_R ln(r_x/s_x)),
            # gets probe 149's sign wrong here
            (1.0, 1.1633823840919966e-13, 14.918700432853685, 2),
        ],
    )
    @pytest.mark.parametrize("tolerance", [1e-10, 1e-6])
    def test_matches_the_decimal_reference_on_noisy_machines(self, e, e_c, t_room, count, tolerance):
        spec = MachineSpec.two_qubit(e_c, t_room, e=e)
        assert crossing_report(spec, tolerance).sign_changes == count
        _assert_matches_the_decimal_reference(spec, tolerance)

    def test_inverts_only_the_probes_monotonicity_leaves_open(self, monkeypatch):
        # The per-probe search inverts the incoherent frontier 185 times here:
        # at 161 probes, 23 bisection steps and t_crit.
        budgets = []
        real = protocols.incoherent_temperature_of_work

        def counted(spec, delta_f):
            budgets.append(delta_f)
            return real(spec, delta_f)

        monkeypatch.setattr(protocols, "incoherent_temperature_of_work", counted)
        report = crossing_report(MachineSpec.two_qubit(0.4, 1.0), 1e-10)
        assert report.sign_changes == 2
        assert len(budgets) <= 60

    def test_inverts_the_incoherent_frontier_only_for_the_critical_temperature(self, monkeypatch):
        budgets = []
        real = protocols.incoherent_temperature_of_work

        def counted(spec, delta_f):
            budgets.append(delta_f)
            return real(spec, delta_f)

        monkeypatch.setattr(protocols, "incoherent_temperature_of_work", counted)
        report = crossing_report(MachineSpec.two_qubit(0.4, 1.0), 1e-10)
        assert budgets == [report.delta_f_crit]

    @pytest.mark.parametrize("scale", [1e-160, 1e-250])
    def test_machine_in_tiny_units_keeps_every_sign_change(self, scale):
        # The product of two gaps underflows to 0 here; their signs do not.
        unit = crossing_report(MachineSpec.two_qubit(0.4, 1.0), 1e-10)
        tiny = crossing_report(MachineSpec.two_qubit(0.4 * scale, scale, e=scale), 1e-10 * scale)
        assert tiny.sign_changes == unit.sign_changes == 2
        assert tiny.delta_f_crit / scale == pytest.approx(unit.delta_f_crit, rel=1e-12, abs=0.0)
        assert tiny.t_crit / scale == pytest.approx(unit.t_crit, rel=1e-12, abs=0.0)

    def test_infeasible_budget_error_names_the_machine(self, capsys):
        # r_C - 1/2 is a few ulps, so the coherent f_max reaches W(1/2).
        rc = main(["crossing", "--e-c", "1e-15", "--t-r", "2"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        for name in ("E_C=1e-15", "T_R=2.0", "f_max=", "W(1/2)="):
            assert name in captured.err

    @pytest.mark.parametrize("e_c", [0.4, 1.7])
    def test_machine_constants_are_computed_once(self, e_c, monkeypatch):
        # ~1100 calls when each probe re-derived r, r_B and r_C.
        calls = []
        real = protocols.boltzmann_population

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(protocols, "boltzmann_population", counted)
        report = crossing_report(MachineSpec.two_qubit(e_c, 1.0), 1e-10)
        assert report.sign_changes == 2
        assert len(calls) <= 10

    @pytest.mark.parametrize("e_c", [0.4, 1.7])
    def test_three_machine_records_per_crossing(self, e_c, monkeypatch):
        # f_max and the signs share one record, and each frontier inversion at
        # t_crit builds its own; 4 when f_max had a record of its own.
        records = []
        real = protocols._Machine

        def counted(spec):
            records.append(spec)
            return real(spec)

        monkeypatch.setattr(protocols, "_Machine", counted)
        report = crossing_report(MachineSpec.two_qubit(e_c, 1.0), 1e-10)
        assert report.sign_changes == 2
        assert len(records) == 3

    @pytest.mark.parametrize(
        "args, scale",
        [
            ([*STANDARD, "--tolerance", "1e-19"], 1.0),
            ([*STANDARD, "--tolerance", "1e-300"], 1.0),
            # the reference machine in units of 1e9: the default 1e-10 is
            # below one ulp of its budgets
            (["--e", "1e9", "--e-c", "4e8", "--t-r", "1e9"], 1e9),
        ],
    )
    def test_tolerance_below_one_ulp_terminates(self, args, scale):
        result = _run(["crossing", *args])
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["sign_changes"] == 2
        assert all(math.isfinite(v) for v in payload.values())
        pinned = crossing_report(MachineSpec.two_qubit(0.4, 1.0), 1e-10).delta_f_crit
        assert payload["delta_f_crit"] == pytest.approx(scale * pinned, rel=1e-7)

    @seed(20261019)
    @settings(max_examples=150)
    @given(
        e=_log_uniform(1e-6, 1e6),
        e_c=st.one_of(_log_uniform(1e-300, 1e-8), _log_uniform(1e-8, 1e6)),
        t_room=_log_uniform(1e-6, 1e6),
    )
    def test_any_machine_exits_cleanly_with_finite_numbers(self, e, e_c, t_room):
        # Cold targets, tiny E_C and huge E_B/T_R, where the sign's
        # denominator s r_B + r s_B and the excited populations underflow.
        payload = _clean_exit_payload(
            ["crossing", "--e", repr(e), "--e-c", repr(e_c), "--t-r", repr(t_room)]
        )
        if payload is not None:
            assert all(v is None or math.isfinite(v) for v in payload.values())

    def test_crossing_exists_in_the_kinked_regime(self):
        # with e_c > e the coherent curve has a derivative kink at mu = 1/2
        # but the crossing geometry is unchanged
        rep = crossing_report(MachineSpec.two_qubit(1.7, 1.0), 1e-10)
        assert rep.sign_changes == 2
        assert rep.delta_f_crit > 0.0


class TestSummaryCommand:
    def test_infinite_target_gap_is_usage_error_naming_it(self, capsys):
        rc = main(["summary", "--e-c", "0.4", "--e", "inf"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "target gap" in captured.err

    @pytest.mark.parametrize("e_c", ["0", "0.4"])
    def test_zero_target_gap_is_usage_error_naming_it(self, e_c, capsys):
        # E = E_C = 0 made T_R E/E_B a ZeroDivisionError with a traceback.
        rc = main(["summary", "--e", "0", "--e-c", e_c])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: the two-qubit protocols need a target gap > 0, got 0.0\n"

    @seed(20261019)
    @settings(max_examples=150)
    @given(
        e=st.one_of(st.just(0.0), _log_uniform(1e-6, 1e6)),
        e_c=st.one_of(st.just(0.0), _log_uniform(1e-300, 1e-8), _log_uniform(1e-8, 1e6)),
        t_room=_log_uniform(1e-6, 1e6),
        hot_share=st.one_of(st.none(), st.just(INFINITE), _log_uniform(1.0, 1e6)),
    )
    def test_any_machine_exits_cleanly_without_nan(self, e, e_c, t_room, hot_share):
        argv = ["summary", "--e", repr(e), "--e-c", repr(e_c), "--t-r", repr(t_room)]
        if hot_share is not None:
            argv += ["--t-h", repr(hot_share * t_room)]
        _clean_exit_payload(argv)

    def test_reference_values(self, capsys):
        rc = main(["summary", "--e-c", "1", "--t-r", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        two = payload["two_qubit"]
        r = boltzmann_population(1.0, 1.0)
        r_b = boltzmann_population(2.0, 1.0)
        assert two["t_coh_star"] == pytest.approx(0.5, rel=1e-14)
        assert two["r_inc_star"] == pytest.approx(0.5 * (r + r_b), rel=1e-14)
        assert two["delta_f_inc_star"] == pytest.approx(r - 0.5, rel=1e-13)
        assert two["t_algo_inf"] == pytest.approx(0.25, rel=1e-14)
        assert payload["one_qubit"]["t_coh_star"] == pytest.approx(0.5, rel=1e-14)

    def test_infinite_environment_temperature_zeroes_all_costs(self, capsys):
        rc = main(["summary", "--e-c", "0.4", "--t-r", "inf"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        two = payload["two_qubit"]
        for key in (
            "delta_f_inc_star",
            "delta_f_auto_star",
            "delta_f_coh_star",
            "delta_f_coh_inf",
            "delta_f_algo_inf",
        ):
            assert two[key] == pytest.approx(0.0, abs=1e-12)

    def test_vanishing_ec_collapses_both_scenarios_to_zero_cost(self, capsys):
        rc = main(["summary", "--e-c", "1e-9", "--t-r", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        two = payload["two_qubit"]
        assert two["delta_f_coh_star"] == pytest.approx(0.0, abs=1e-9)
        assert two["delta_f_inc_star"] == pytest.approx(0.0, abs=1e-9)

    def test_saturated_target_reports_zero_temperature(self, capsys):
        # r = r_B = 1.0 in double precision at E/T_R = 40
        rc = main(["summary", "--e-c", "0.4", "--t-r", "0.025"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["two_qubit"]["t_inc_star"] == 0.0

    @pytest.mark.parametrize(
        "e_c, t_room",
        [
            (0.4, 1.0),
            (1.7, 1.0),
            (0.05, 5.0),
            (5.0, 5.0),
            (3.5306839722763645, 0.2469289964268594),
        ],
    )
    def test_algorithmic_cost_is_the_optimal_sequence_floor(self, e_c, t_room):
        # unsaturated machines: below r_coh_inf == 1.0 the sequence keeps its
        # full-precooling tail
        spec = MachineSpec.two_qubit(e_c, t_room)
        two = protocols.boxed_limits(spec)["two_qubit"]
        assert two["r_coh_inf"] < 1.0
        floor = protocols.optimal_sequence(spec, two["t_algo_inf"])
        assert floor.work_cost == pytest.approx(two["delta_f_algo_inf"], rel=1e-12)

    @pytest.mark.parametrize("t_hot", [[], ["--t-h", "3"]], ids=["no-hot-bath", "hot-bath"])
    def test_one_machine_record_per_call(self, t_hot, monkeypatch, capsys):
        # 11 records when summary re-entered the public evaluators.
        records = []
        real = protocols._Machine

        def counted(spec):
            records.append(spec)
            return real(spec)

        monkeypatch.setattr(protocols, "_Machine", counted)
        assert main(["summary", *STANDARD, *t_hot]) == 0
        assert json.loads(capsys.readouterr().out)["two_qubit"]["t_coh_star"] > 0.0
        assert len(records) == 1

    def test_missing_machine_gap_is_usage_error(self):
        result = _run(["summary"])
        assert result.returncode == 2

    def test_full_table_rederived_by_dense_simulation(self):
        # E = E_C = T_R = 1: every applicable entry through the dense route
        from qfridge import oracle

        spec = MachineSpec.two_qubit(1.0, 1.0)
        hot = MachineSpec.two_qubit(1.0, 1.0, INFINITE)
        two = protocols.boxed_limits(spec)["two_qubit"]

        (r_inc,), (heat_inc,), (work_inc,) = oracle.simulate_incoherent_single([hot])
        assert two["r_inc_star"] == pytest.approx(r_inc, abs=1e-14)
        assert two["delta_f_inc_star"] == pytest.approx(work_inc, abs=1e-14)

        (r_coh,), (work_coh,) = oracle.simulate_coherent_single([spec], [1.0])
        assert two["r_coh_star"] == pytest.approx(r_coh, abs=1e-14)
        assert two["delta_f_coh_star"] == pytest.approx(work_coh, abs=1e-14)

        (rs,), (heats,) = oracle.simulate_repeated_incoherent([hot], 120)
        assert two["r_auto_star"] == pytest.approx(rs[-1], abs=1e-13)
        assert two["delta_f_auto_star"] == pytest.approx(heats[-1], abs=1e-13)

        (rs,), (works,) = oracle.simulate_repeated_coherent([spec], 120)
        assert two["r_coh_inf"] == pytest.approx(rs[-1], abs=1e-13)
        assert two["delta_f_coh_inf"] == pytest.approx(works[-1], abs=1e-13)

        (rs,), (works,) = oracle.simulate_algorithmic([spec], 120, nu=1.0, r0=two["r_coh_inf"])
        assert two["r_algo_inf"] == pytest.approx(rs[-1], abs=1e-13)
        assert two["delta_f_algo_inf"] == pytest.approx(
            two["delta_f_coh_inf"] + works[-1], abs=1e-13
        )

    def test_optimal_sequence_floor_keeps_its_tail_once_populations_saturate(self):
        # r_coh_inf and the floor population both round to 1.0 here
        spec = MachineSpec.two_qubit(4.474630967944784, 0.20440071400440712)
        two = protocols.boxed_limits(spec)["two_qubit"]
        assert two["r_coh_inf"] == two["r_algo_inf"] == 1.0
        floor = protocols.optimal_sequence(spec, spec.t_room * spec.e / (2.0 * spec.e_b))
        assert floor.flag == "precool mixing nu=1.0"
        assert floor.work_cost == pytest.approx(two["delta_f_algo_inf"], rel=1e-15, abs=0.0)


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        rc = main(
            [
                "verify",
                "--samples",
                "500",
                "--machines",
                "6",
                "--instances",
                "6",
                "--seed",
                "11",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["passed"] is True
        assert payload["seed"] == 11
        names = {c["name"] for c in payload["checks"]}
        assert "pareto_sweep" in names

    def test_negative_samples_is_usage_error(self, capsys):
        rc = main(["verify", "--samples", "-5", "--machines", "2", "--instances", "2"])
        assert rc == 2
        assert capsys.readouterr().out == ""

    def test_unknown_mutation_is_usage_error_naming_the_valid_ones(self):
        from qfridge.verify import MUTATIONS

        result = _run(["verify", "--mutate", "nope"])
        assert result.returncode == 2
        assert result.stdout == ""
        assert "'nope'" in result.stderr
        assert all(repr(name) in result.stderr for name in MUTATIONS)

    def test_negative_machine_and_instance_counts_are_usage_error(self, capsys):
        rc = main(["verify", "--machines", "-3", "--instances", "-2", "--samples", "0"])
        assert rc == 2
        assert capsys.readouterr().out == ""

    def test_zero_samples_skips_pareto(self, capsys):
        rc = main(
            ["verify", "--samples", "0", "--machines", "4", "--instances", "4"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        names = {c["name"] for c in payload["checks"]}
        assert "pareto_sweep" not in names

    @pytest.mark.parametrize("mutation", ["r_inc", "vertex", "pareto"])
    def test_mutation_fails_named_check(self, mutation, capsys):
        rc = main(
            [
                "verify",
                "--samples",
                "200",
                "--machines",
                "4",
                "--instances",
                "4",
                "--mutate",
                mutation,
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        failed = {c["name"] for c in payload["checks"] if not c["passed"]}
        expected = {
            "r_inc": "formula_dense_equivalence",
            "vertex": "vertex_oracle",
            "pareto": "pareto_sweep",
        }[mutation]
        assert failed == {expected}
        if mutation == "r_inc":
            (check,) = [c for c in payload["checks"] if not c["passed"]]
            assert "; worst: incoherent single cycle on machine " in check["detail"]
            for name in ("e_c=", "t_room=", "t_hot=", "n="):
                assert name in check["detail"]

    def test_machine_flags_are_unrecognized(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--e-c", "2"])
        out, err = capsys.readouterr()
        assert exit_info.value.code == 2
        assert out == ""
        assert "unrecognized arguments: --e-c 2" in err

    def test_config_machine_keys_are_not_read(self, tmp_path, capsys):
        # The config file is shared by every subcommand; verify reads its seed.
        config = tmp_path / "machine.cfg"
        config.write_text("E_C = 2\nseed = 5\n")
        args = ["--samples", "0", "--machines", "2", "--instances", "2"]
        assert main(["verify", "--config", str(config), *args]) == 0
        from_config = capsys.readouterr().out
        assert main(["verify", "--seed", "5", *args]) == 0
        assert from_config == capsys.readouterr().out
        assert json.loads(from_config)["seed"] == 5

    def test_environment_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("FRIDGE_SEED", "4242")
        rc = main(["verify", "--samples", "0", "--machines", "3", "--instances", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["seed"] == 4242

    def test_default_seed_recorded(self, capsys, monkeypatch):
        monkeypatch.delenv("FRIDGE_SEED", raising=False)
        rc = main(["verify", "--samples", "0", "--machines", "3", "--instances", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["seed"] == DEFAULT_SEED


class TestLadderCommand:
    def test_coherent_and_incoherent_payload(self, capsys):
        rc = main(
            ["ladder", "--e-c", "0.4", "--t-r", "1", "--t-h", "10", "--t-c", "0.5", "--n", "8"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["coherent"]["gap"] > 0.0
        assert payload["incoherent"]["w_total"] > payload["coherent"]["w_total"]
        assert payload["incoherent"]["q_init"] > 0.0

    def test_coherent_ladder_is_built_once(self, capsys, monkeypatch):
        lspec = LadderSpec(256, 0.5, 1.0, t_hot=10.0)
        coh, inc = coherent_ladder(lspec), incoherent_ladder(lspec)
        payload = {
            "n": 256,
            "coherent": {"w_total": coh.w_total, "df_target": coh.df_target, "gap": coh.gap},
            "incoherent": {
                "w_total": inc.w_total,
                "df_target": inc.df_target,
                "gap": inc.gap,
                "q_init": inc.q_init,
            },
        }
        calls = []

        def counted(spec):
            calls.append(spec)
            return coherent_ladder(spec)

        monkeypatch.setattr(cli, "coherent_ladder", counted)
        monkeypatch.setattr(ladder, "coherent_ladder", counted)
        rc = main(
            ["ladder", "--e-c", "0.4", "--t-r", "1", "--t-h", "10", "--t-c", "0.5", "--n", "256"]
        )
        assert rc == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
        assert calls == [lspec]

    def test_needs_stage_count(self, capsys):
        rc = main(["ladder", "--e-c", "0.4", "--t-c", "0.5"])
        assert rc == 2

    def test_ground_offset_without_hot_bath_is_usage_error_naming_it(self, capsys):
        # Only the incoherent twin reads --e-g, and it needs T_H.
        rc = main(["ladder", "--t-c", "0.5", "--n", "4", "--e-g", "10"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "--e-g" in captured.err

    def test_embedded_ladder_at_infinite_hot_bath_is_usage_error(self):
        result = _run(
            ["ladder", "--t-c", "0.5", "--t-h", "inf", "--e-c", "0.4", "--n", "4", "--e-g", "10"]
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "finite t_hot" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "command",
        [["ladder", "--n", "4"], ["curve", "ladder-coh"], ["curve", "ladder-inc", "--t-h", "inf"]],
    )
    def test_infinite_room_temperature_is_usage_error(self, command, capsys):
        rc = main([*command, "--t-c", "0.5", "--e-c", "0.4", "--t-r", "inf"])
        assert rc == 2
        assert capsys.readouterr().out == ""

    def test_room_temperature_hot_bath_is_usage_error(self):
        result = _run(
            ["ladder", "--t-c", "0.5", "--t-h", "1", "--t-r", "1", "--e-c", "0.4", "--n", "4"]
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("e_g", ["inf", "nan"])
    def test_non_finite_ground_offset_is_usage_error(self, e_g, capsys):
        rc = main(
            ["ladder", "--t-c", "0.5", "--t-h", "10", "--n", "4", "--e-c", "0.4", "--e-g", e_g]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "e_ground_offset" in captured.err

    def test_ground_offset_whose_top_level_overflows_is_usage_error(self, capsys):
        rc = main(
            ["ladder", "--n", "4", "--t-c", "0.5", "--t-r", "1", "--t-h", "10", "--e", "1e306"]
            + ["--e-g", "1.79e308"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: e_ground_offset 1.79e+308 overflows")

    def test_ground_offset_whose_level_sum_overflows_is_usage_error(self, capsys):
        # Each level is finite, but five of them near 1e308 at weight ~0.3
        # sum past the float range at T_H.
        rc = main(
            ["ladder", "--n", "4", "--t-c", "0.5", "--t-r", "1e307", "--t-h", "1e308"]
            + ["--e", "1", "--e-g", "1e308"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: e_ground_offset 1e+308 overflows")
        assert "t_hot = 1e+308" in captured.err

    @pytest.mark.parametrize(
        "command", [["ladder", "--n", "4"], ["curve", "ladder-coh", "--grid", "3"]]
    )
    def test_infinite_target_gap_is_usage_error_naming_it(self, command, capsys):
        rc = main([*command, "--t-c", "0.5", "--t-h", "10", "--e-c", "0.4", "--e", "inf"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "target gap" in captured.err

    @pytest.mark.parametrize(
        "command, fault",
        [
            (["ladder", "--e", "1e308", "--t-r", "2", "--t-c", "1", "--n", "3"], "overflows"),
            (
                ["curve", "ladder-coh", "--e", "1e308", "--t-r", "1e308", "--t-c", "700",
                 "--grid", "2"],
                "overflows",
            ),
            (
                ["curve", "ladder-coh", "--e", "5e-324", "--t-r", "1e300", "--t-c", "1e300",
                 "--grid", "5"],
                "underflows",
            ),
        ],
    )
    def test_target_gap_out_of_float_range_is_usage_error_naming_it(
        self, command, fault, capsys
    ):
        # These printed NaN or inf rows, or raised ZeroDivisionError.
        rc = main(command)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: target gap")
        assert fault in captured.err

    @pytest.mark.parametrize(
        "command",
        [
            ["ladder", "--n", "4", "--t-c", "1e-320"],
            ["ladder", "--n", "4", "--t-c", "1e-320", "--t-h", "10"],
            ["ladder", "--n", "4", "--t-c", "1e-300", "--t-h", "10", "--e", "1e10"],
            ["curve", "ladder-coh", "--grid", "3", "--t-c", "1e-320"],
            ["curve", "ladder-inc", "--grid", "3", "--t-c", "1e-320", "--t-h", "10"],
        ],
    )
    def test_cold_temperature_that_overflows_the_ladder_is_usage_error_naming_it(
        self, command, capsys
    ):
        # E/t_cold or t_room/t_cold overflows.
        rc = main(command)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: t_cold")

    @seed(20261019)
    @settings(max_examples=150)
    @given(
        n=st.integers(0, 8),
        e=st.one_of(st.just(0.0), _log_uniform(1e-6, 1e6)),
        t_room=_log_uniform(1e-6, 1e6),
        cold_share=st.one_of(_log_uniform(1e-6, 1.0), st.floats(1.0, 2.0)),
        hot_share=st.one_of(
            st.none(), st.just(INFINITE), _log_uniform(1.0, 1e6), st.floats(0.5, 1.0)
        ),
        e_g=st.one_of(st.none(), st.just(0.0), _log_uniform(1e-6, 1e6)),
    )
    def test_any_small_ladder_exits_cleanly_without_nan(
        self, n, e, t_room, cold_share, hot_share, e_g
    ):
        argv = ["ladder", "--n", str(n), "--e", repr(e), "--t-r", repr(t_room)]
        argv += ["--t-c", repr(cold_share * t_room)]
        if hot_share is not None:
            argv += ["--t-h", repr(hot_share * t_room)]
        if e_g is not None:
            argv += ["--e-g", repr(e_g)]
        _clean_exit_payload(argv)

    @pytest.mark.parametrize("e_g", [[], ["--e-g", "0"]], ids=["real-qubits", "embedded"])
    def test_cold_target_at_room_temperature_preheats_nothing(self, e_g, capsys):
        # The largest stage gap rounded one ulp below E at T_C = T_R, and the
        # negative spacing overflowed exp(-e_ci/T_R) with a traceback.
        rc = main(
            ["ladder", "--n", "13", "--t-c", "1e-300", "--t-r", "1e-300",
             "--t-h", "8.399427804489325e+270", "--e", "3.800660451864983e-87", *e_g]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["incoherent"]["q_init"] == 0.0

    def test_hot_bath_whose_reciprocal_rounds_to_the_room_one_is_usage_error(self):
        # 1/t_hot == 1/t_room although t_hot > t_room.
        result = _run(
            ["ladder", "--t-c", "0.75", "--t-r", "1.5000000000000002",
             "--t-h", "1.5000000000000004", "--n", "4"]
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert "t_hot" in result.stderr


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path, capsys):
        config = tmp_path / "machine.cfg"
        config.write_text("# reference machine\nE = 1\nE_C = 1.0\nT_R = 1\nT_H = inf\n")
        rc = main(["summary", "--config", str(config)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["machine"]["e_c"] == 1.0
        assert payload["machine"]["t_hot"] == math.inf

        rc = main(["summary", "--config", str(config), "--e-c", "0.4"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["machine"]["e_c"] == 0.4

    def test_whitespace_separated_pairs(self, tmp_path):
        config = tmp_path / "machine.cfg"
        config.write_text("E_C 0.7\nseed 123\n")
        values = load_config(str(config))
        assert values == {"e_c": 0.7, "seed": 123.0}

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "machine.cfg"
        config.write_text("E_Q = 3\n")
        rc = main(["summary", "--config", str(config)])
        assert rc == 2

    @pytest.mark.parametrize("value", ["inf", "2.5", "nan", "-inf"])
    def test_non_integer_stage_count_is_usage_error(self, value, tmp_path, capsys):
        config = tmp_path / "machine.cfg"
        config.write_text(f"N = {value}\n")
        rc = main(["ladder", "--config", str(config), "--e-c", "0.4", "--t-c", "0.5"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: N must be an integer")

    @pytest.mark.parametrize("value", ["inf", "1.5", "nan"])
    def test_non_integer_seed_is_usage_error(self, value, tmp_path, capsys):
        config = tmp_path / "machine.cfg"
        config.write_text(f"seed = {value}\n")
        rc = main(["verify", "--config", str(config), "--samples", "0"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: seed must be an integer")

    def test_infinite_stage_count_exits_without_traceback(self, tmp_path):
        config = tmp_path / "machine.cfg"
        config.write_text("N = inf\n")
        result = _run(["ladder", "--config", str(config), "--e-c", "0.4", "--t-c", "0.5"])
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr

    def test_integer_valued_counts_accepted(self, tmp_path, capsys):
        config = tmp_path / "machine.cfg"
        config.write_text("N = 32\nseed = 123.0\n")
        rc = main(["ladder", "--config", str(config), "--e-c", "0.4", "--t-c", "0.5"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["n"] == 32
        args = ["--samples", "0", "--machines", "2", "--instances", "2"]
        rc = main(["verify", "--config", str(config), *args])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 123

    def test_negative_seed_flag_is_named(self, capsys):
        rc = main(["verify", "--seed", "-3", "--samples", "0"])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == "error: seed must be an integer >= 0, got -3 from --seed\n"

    def test_negative_config_seed_is_named(self, tmp_path, capsys):
        config = tmp_path / "machine.cfg"
        config.write_text("seed = -3\n")
        rc = main(["verify", "--config", str(config), "--samples", "0"])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == f"error: seed must be an integer >= 0, got -3 from the seed key of {config}\n"

    @pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
    def test_bad_environment_seed_is_named(self, value, monkeypatch, capsys):
        monkeypatch.setenv("FRIDGE_SEED", value)
        rc = main(["verify", "--samples", "0"])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == f"error: seed must be an integer >= 0, got {value!r} from FRIDGE_SEED\n"

    def test_integer_seed_keeps_every_digit(self, tmp_path):
        config = tmp_path / "machine.cfg"
        config.write_text("seed = 9007199254740993\n")
        args = argparse.Namespace(seed=None)
        assert cli._default_seed(args, load_config(str(config))) == 9007199254740993


class TestParserReuse:
    LADDER = ["ladder", "--e-c", "0.4", "--t-r", "1", "--t-h", "10", "--t-c", "0.5", "--n", "8"]

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_flag_does_not_outlive_its_call(self, capsys):
        assert main([*self.LADDER, "--e-g", "5"]) == 0
        offset = json.loads(capsys.readouterr().out)
        assert main(self.LADDER) == 0
        plain = json.loads(capsys.readouterr().out)
        lspec = LadderSpec(8, 0.5, 1.0, t_hot=10.0, target_gap=1.0)
        assert plain["incoherent"]["w_total"] == incoherent_ladder(lspec).w_total
        assert offset["incoherent"]["w_total"] != plain["incoherent"]["w_total"]

    def test_usage_error_does_not_poison_the_next_call(self, capsys):
        with pytest.raises(SystemExit) as usage:
            main(["crossing", "--e-c", "0.4", "--tolerance", "tight"])
        assert usage.value.code == 2
        assert main(["crossing", *STANDARD]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta_f_crit"] == 0.005055054214935581


# Each subcommand's flags, a few values for them (valid and not), and tokens
# no subcommand knows.
_MACHINE_FLAGS = ["--config", "--e", "--e-c", "--t-r", "--t-h"]
_COMMAND_FLAGS = {
    "curve": [*_MACHINE_FLAGS, "--grid", "--nu", "--r0", "--t-c", "--output", "-o", "--full-precision"],
    "crossing": [*_MACHINE_FLAGS, "--tolerance"],
    "summary": _MACHINE_FLAGS,
    "verify": ["--config", "--seed", "--samples", "--machines", "--instances", "--mutate"],
    "ladder": [*_MACHINE_FLAGS, "--n", "--t-c", "--e-g"],
}
_VALUES = ["0.4", "1", "10", "inf", "-1", "1e-8", "x", "", "nan", "vertex", *cli.SCENARIOS]
_STRAYS = ["--bogus", "-x", "--tol", "--e-", "--t", "--", "-", "-h", "--help", "--e-c=0.4"]


@st.composite
def _argv(draw):
    # A subcommand and tokens drawn from its own flags, its values, other
    # subcommands' flags and strays, with the subcommand sometimes moved
    # away from the front or left out.
    command = draw(st.sampled_from(list(_COMMAND_FLAGS)))
    own = st.sampled_from(_COMMAND_FLAGS[command])
    pair = st.tuples(own, st.sampled_from(_VALUES)).map(list)
    foreign = st.sampled_from([f for flags in _COMMAND_FLAGS.values() for f in flags])
    token = st.one_of(
        pair, pair, pair, own.map(lambda f: [f]), st.sampled_from(_VALUES).map(lambda v: [v]),
        foreign.map(lambda f: [f]), st.sampled_from(_STRAYS).map(lambda f: [f]),
    )
    rest = [t for chunk in draw(st.lists(token, max_size=6)) for t in chunk]
    where = draw(st.sampled_from(["first"] * 6 + ["moved", "absent"]))
    if where == "absent":
        return rest
    at = draw(st.integers(0, len(rest))) if where == "moved" else 0
    return rest[:at] + [command] + rest[at:]


def _parse_outcome(parse, argv):
    """(namespace as {name: repr}, exit code, stdout, stderr) of one parse.

    Values are compared by repr, so that a parsed NaN equals itself.
    """
    out, err = io.StringIO(), io.StringIO()
    args, code = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = {name: repr(value) for name, value in vars(parse(argv)).items()}
        except SystemExit as exc:
            code = exc.code
    return args, code, out.getvalue(), err.getvalue()


class TestOneParsePerCall:
    """main parses with the named subcommand's parser alone, as the full parser would."""

    @seed(20261019)
    @settings(max_examples=600)
    @given(argv=_argv())
    def test_same_namespace_or_usage_error_as_the_full_parser(self, argv):
        full = _parse_outcome(cli._build_parser().parse_args, argv)
        assert _parse_outcome(cli._parse_args, argv) == full

    def test_one_shot_call_builds_only_its_subcommands_parser(self):
        # No parser at import; a one-shot crossing builds one, not all six.
        script = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import qfridge.cli
print(built)
with contextlib.redirect_stdout(io.StringIO()):
    assert qfridge.cli.main(["crossing", "--e-c", "0.4", "--t-r", "1"]) == 0
print(built)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[]", "['qfridge crossing']"]

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["bogus"],
            ["crossing", "-h"],
            ["summary", "--e-c", "0.4", "--bogus"],
            ["crossing", "--e-c", "0.4", "--tolerance", "x"],
            ["curve"],
            ["--", "crossing", "--e-c", "0.4"],
            ["--e-c", "0.4", "crossing"],
        ],
        ids=repr,
    )
    def test_help_and_usage_errors_print_the_full_parsers_bytes(self, argv):
        # Each in a fresh interpreter, against the full parser alone.
        env = dict(os.environ, COLUMNS="80")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        full = "import sys; from qfridge import cli; cli._build_parser().parse_args(sys.argv[1:])"
        outcomes = [
            subprocess.run([sys.executable, *cmd, *argv], capture_output=True, env=env, timeout=60)
            for cmd in (["-m", "qfridge.cli"], ["-c", full])
        ]
        (rc, out, err), (rc_full, out_full, err_full) = (
            (r.returncode, r.stdout, r.stderr) for r in outcomes
        )
        assert rc == rc_full in (0, 2)
        assert (out, err) == (out_full, err_full)
        assert (out if rc == 0 else err).startswith(b"usage: qfridge")


class TestConsoleInterface:
    def test_module_entry_point_succeeds(self):
        result = _run(["summary", "--e-c", "0.4"])
        assert result.returncode == 0
        assert json.loads(result.stdout)["machine"]["e_c"] == 0.4

    def test_csv_goes_to_stdout(self):
        result = _run(["curve", "coh-single", "--e-c", "0.4", "--grid", "3"])
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == CSV_HEADER

    def test_reader_closing_the_pipe_ends_quietly(self):
        # ~740 kB of CSV: far more than the pipe holds, so the writer is
        # still writing when the reader goes away after one line.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        cmd = [sys.executable, "-m", "qfridge.cli", "curve", "coh-single", *STANDARD]
        with subprocess.Popen(
            [*cmd, "--grid", "20000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as child:
            assert child.stdout.readline().decode().strip() == CSV_HEADER
            child.stdout.close()
            stderr = child.stderr.read()
            assert child.wait(timeout=60) == 141
        assert stderr == b""

    @pytest.mark.parametrize(
        "argv",
        [
            ["summary", *STANDARD, "--t-h", "inf"],
            ["crossing", *STANDARD],
            ["ladder", *STANDARD, "--t-h", "10", "--t-c", "0.5", "--n", "8"],
            ["verify", "--samples", "0", "--machines", "2", "--instances", "2"],
        ],
    )
    def test_json_payload_is_one_write_of_the_json_dump_text(self, argv, monkeypatch):
        class Recorder(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return super().write(text)

        out = Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv) == 0
        (text,) = out.writes
        chunked = io.StringIO()
        json.dump(json.loads(text), chunked, indent=2)
        assert text == chunked.getvalue() + "\n"

    def test_reader_gone_before_the_json_payload_ends_quietly(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        cmd = [sys.executable, "-m", "qfridge.cli", "ladder", *STANDARD, "--t-c", "0.5", "--n", "8"]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
            child.stdout.close()  # before the child has imported qfridge
            stderr = child.stderr.read()
            assert child.wait(timeout=60) == 141
        assert stderr == b""

    def test_closed_form_commands_never_load_numpy(self):
        # Only verify needs the dense oracle; everything else is scalar
        # closed forms and must start without numpy's import cost.  The
        # ladder's series constants are float literals, so neither
        # fractions nor decimal is imported either.
        script = """
import contextlib, io, sys
import qfridge, qfridge.cli
machine = ["--e-c", "0.4", "--t-r", "1", "--t-h", "10"]
values = {"t_h": "10", "nu": "0.5", "r0": "0.9", "t_c": "0.5"}
ops = [
    ["summary", *machine],
    ["crossing", *machine],
    ["ladder", *machine, "--t-c", "0.5", "--n", "8"],
] + [
    ["curve", s, "--e-c", "0.4", "--t-r", "1", "--grid", "5"]
    + [arg for flag in reads for arg in ("--" + flag.replace("_", "-"), values[flag])]
    for s, reads in qfridge.cli.SCENARIOS.items()
]
for argv in ops:
    with contextlib.redirect_stdout(io.StringIO()):
        assert qfridge.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
print(sorted(m for m in ("qfridge.majorization", "qfridge.oracle", "qfridge.verify") if m in sys.modules))
print(sorted(m for m in ("fractions", "decimal", "_pydecimal") if m in sys.modules))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[]", "[]", "[]"]
