"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line through the ``criterion`` fixture
(bypassing pytest capture) so the gate's outcome is visible in any run mode.
"""

import time

import numpy as np

from qfridge import ladder, oracle, protocols, virtual
from qfridge.cli import (
    coherent_temperature_of_work,
    crossing_report,
    incoherent_temperature_of_work,
)
from qfridge.thermal import (
    INFINITE,
    MachineSpec,
    QubitSpec,
    boltzmann_population,
    hamiltonian_diagonal,
    temperature_from_population,
)
from qfridge.verify import (
    check_formula_dense_equivalence,
    check_vertex_oracle,
    coherent_single_cycle_curve,
)

SEED = oracle.DEFAULT_SEED


def test_criterion_1_formula_oracle_equivalence(criterion):
    with criterion(1, "closed forms match dense simulation to 1e-12 on 500 machines"):
        start = time.monotonic()
        result = check_formula_dense_equivalence(SEED, machines=500)
        elapsed = time.monotonic() - start
        assert result.tolerance == 1e-12
        assert result.passed, f"residual {result.residual}"
        assert result.residual <= 1e-12
        assert elapsed <= 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_pareto_optimality(criterion):
    with criterion(2, "1e5 seeded Haar unitaries never dominate the coherent frontier"):
        start = time.monotonic()
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = coherent_single_cycle_curve(spec)
        report = oracle.haar_pareto_sweep(
            spec, 100_000, curve, seed=SEED, slack=1e-9
        )
        elapsed = time.monotonic() - start
        assert report.samples == 100_000
        assert report.passed, f"{len(report.dominating)} dominating points"
        assert elapsed <= 60.0, f"took {elapsed:.1f} s"


def test_criterion_3_majorization_solver_vs_vertex_oracle(criterion):
    with criterion(3, "analytic minimizer equals the permutation-edge oracle to 1e-10"):
        result = check_vertex_oracle(SEED + 1, instances=200)
        assert result.tolerance == 1e-10
        assert result.passed, f"residual {result.residual}"


def test_criterion_4_crossing_point_geometry(criterion):
    with criterion(4, "crossing point and endpoint orderings of the two frontiers"):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        report = crossing_report(spec, 1e-10)
        assert report.delta_f_crit is not None and report.delta_f_crit > 0.0
        assert report.delta_f_crit_prime >= report.delta_f_crit
        f_max = protocols.single_cycle_coherent_cost(spec)
        for frac in np.linspace(0.01, 0.99, 50):
            below = float(report.delta_f_crit * frac)
            assert incoherent_temperature_of_work(
                spec, below
            ) < coherent_temperature_of_work(spec, below)
            above = float(
                report.delta_f_crit_prime + (f_max - report.delta_f_crit_prime) * frac
            )
            assert incoherent_temperature_of_work(
                spec, above
            ) > coherent_temperature_of_work(spec, above)

        for e_c in np.linspace(0.05, 5.0, 10):
            for t_room in np.linspace(0.2, 5.0, 10):
                machine = MachineSpec.two_qubit(float(e_c), float(t_room))
                r = boltzmann_population(machine.e, machine.t_room)
                r_b = boltzmann_population(machine.e_b, machine.t_room)
                r_c = boltzmann_population(machine.e_c, machine.t_room)
                t_coh_star = machine.t_room * machine.e / machine.e_b
                t_inc_star = temperature_from_population(machine.e, 0.5 * (r + r_b))
                assert t_coh_star < t_inc_star
                assert protocols.single_cycle_coherent_cost(machine) < machine.e_c * (
                    r_c - 0.5
                )


def test_criterion_5_asymptotic_identities(criterion):
    with criterion(5, "autonomous identity to 1e-14 and exact asymptotic temperatures"):
        for e_c in (0.1, 0.4, 1.0, 2.5):
            for t_room in (0.3, 1.0, 3.0):
                for t_hot in (t_room, 2.0 * t_room, 10.0 * t_room, INFINITE):
                    spec = MachineSpec.two_qubit(e_c, t_room, t_hot)
                    rep = protocols.repeated_incoherent(spec, INFINITE)
                    auto = protocols.autonomous_steady_state(spec)
                    assert abs(rep.r_final - auto.r_final) <= 1e-14
                    assert abs(rep.heat_drawn - auto.heat_drawn) <= 1e-14

                machine = MachineSpec.two_qubit(e_c, t_room)
                t_coh_star = machine.t_room * machine.e / machine.e_b
                algo = protocols.algorithmic_cooling(machine, INFINITE, nu=1.0)
                assert algo.t_final == t_coh_star / 2.0  # exact
                coh = protocols.repeated_coherent(machine, INFINITE)
                assert coh.t_final == machine.t_room * machine.e / (
                    machine.e_b + machine.e_c
                )  # exact


def test_criterion_6_second_law_saturation(criterion):
    with criterion(6, "ladder gap positive, O(1/N) halving, embedded preheat offset"):
        gaps = {}
        for n in (1, 2, 3, 5, 8, 16, 32, 64, 128):
            out = ladder.coherent_ladder(ladder.LadderSpec(n, 0.5, 1.0))
            assert out.gap > 0.0
            gaps[n] = out.gap
        for n in (16, 32, 64):
            ratio = gaps[2 * n] / gaps[n]
            assert 0.4 <= ratio <= 0.6, f"gap(2N)/gap(N) = {ratio} at N={n}"
        t_hot = 10.0
        for n in (4, 8, 16):
            spec = ladder.LadderSpec(
                n, 0.5, 1.0, t_hot=t_hot, e_ground_offset=50.0 * t_hot * (n + 1)
            )
            w_inc = ladder.incoherent_ladder(spec).w_total
            w_coh = ladder.coherent_ladder(spec).w_total
            assert abs(w_inc - w_coh) < 1e-9


def _degenerate_pairs(gaps):
    h = hamiltonian_diagonal(gaps)
    scale = max(1.0, float(np.max(np.abs(h))))
    pairs = []
    for i in range(8):
        for j in range(i + 1, 8):
            if abs(h[i] - h[j]) <= 1e-9 * scale:
                pairs.append((i, j))
    return pairs


def _machines_of_type(kind: str, rng, count: int):
    machines = []
    while len(machines) < count:
        a = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(0.2, 3.0))
        if kind == "E_A=0":
            gaps = (0.0, a, b)
            if abs(a - b) < 0.05:  # would satisfy the resonance
                continue
        elif kind == "E_B=0":
            gaps = (a, 0.0, b)
        elif kind == "E_C=0":
            gaps = (a, b, 0.0)
            if abs(b - a) < 0.05:
                continue
        elif kind == "E_A=E_B":
            gaps = (a, a, b)
            if b < 0.05:
                continue
        elif kind == "E_A=E_C":
            gaps = (a, b, a)
            if abs(b - 2.0 * a) < 0.05:
                continue
        elif kind == "E_B=E_C":
            gaps = (a, b, b)
            if a < 0.05:
                continue
        elif kind == "E_A=E_B+E_C":
            gaps = (a + b, a, b)
        elif kind == "E_C=E_A+E_B":
            gaps = (a, b, a + b)
        else:
            raise ValueError(kind)
        t_room = float(rng.uniform(0.3, 3.0))
        t_hot = float(rng.uniform(t_room, 12.0))
        machines.append(
            MachineSpec(
                QubitSpec(gaps[0]),
                (QubitSpec(gaps[1]), QubitSpec(gaps[2])),
                t_room,
                t_hot,
            )
        )
    return machines


def test_criterion_7_degeneracy_classification(criterion):
    kinds = (
        "E_A=0",
        "E_B=0",
        "E_C=0",
        "E_A=E_B",
        "E_A=E_C",
        "E_B=E_C",
        "E_A=E_B+E_C",
        "E_C=E_A+E_B",
    )
    with criterion(7, "only the resonance degeneracy cools, 50 machines per type"):
        rng = np.random.default_rng(SEED + 7)
        for kind in kinds:
            for spec in _machines_of_type(kind, rng, 50):
                assert not protocols.degeneracy_classifier(
                    spec.e, spec.e_b, spec.e_c
                ).cooling_enabled
                pairs = _degenerate_pairs(spec.gaps)
                assert pairs, f"type {kind} produced no degenerate pair"
                for pair in pairs:
                    report = oracle.degenerate_subspace_sweep(spec, pair, grid=21)
                    assert report.improvement <= 1e-12, (
                        f"type {kind}, pair {pair}: improvement {report.improvement}"
                    )
        # positive control: the resonance type does cool
        for _ in range(50):
            e_c = float(rng.uniform(0.2, 3.0))
            t_room = float(rng.uniform(0.3, 3.0))
            t_hot = float(rng.uniform(1.5 * t_room, 12.0 * t_room))
            spec = MachineSpec.two_qubit(e_c, t_room, t_hot)
            assert protocols.degeneracy_classifier(
                spec.e, spec.e_b, spec.e_c
            ).cooling_enabled
            report = oracle.degenerate_subspace_sweep(spec, (2, 5), grid=21)
            assert report.improvement > 1e-6


def test_criterion_8_contraction_law(criterion):
    with criterion(8, "iterated swaps follow the geometric law to 1e-13 for n <= 50"):
        rng = np.random.default_rng(SEED + 8)
        for _ in range(25):
            e_c = float(rng.uniform(0.1, 3.0))
            t_room = float(rng.uniform(0.3, 3.0))
            t_hot = float(rng.uniform(t_room, 15.0))
            spec = MachineSpec.two_qubit(e_c, t_room, t_hot)
            r_b = boltzmann_population(spec.e_b, t_room)
            r_ch = boltzmann_population(spec.e_c, t_hot)
            machine_state = np.kron([r_b, 1 - r_b], [r_ch, 1 - r_ch])
            vq = virtual.extract_virtual_qubit(machine_state, 1, 2, spec.e)
            r = boltzmann_population(spec.e, t_room)
            iterated = r
            for n in range(51):
                closed = virtual.n_swap_population(r, vq, n)
                assert abs(closed - iterated) <= 1e-13
                distance = abs(iterated - vq.r_v)
                expected = abs(r - vq.r_v) * (1 - vq.norm) ** n
                assert abs(distance - expected) <= 1e-13
                iterated = virtual.swap_update(iterated, vq)
