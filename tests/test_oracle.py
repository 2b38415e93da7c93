import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracle_reference as ref
from qfridge import oracle, protocols
from qfridge.oracle import (
    DEFAULT_SEED,
    DenseState,
    UnitaryOp,
    apply_and_measure,
    build_thermal_state,
    degenerate_subspace_sweep,
    dominates_curve,
    haar_pareto_sweep,
    haar_unitaries,
    partial_swap_unitary,
    replace_qubit_marginal,
    rethermalize,
    swap_unitary,
    thermalization_gradient_check,
)
from qfridge.thermal import (
    DomainError,
    INFINITE,
    MachineSpec,
    QubitSpec,
    boltzmann_population,
    hamiltonian_diagonal,
    thermal_populations,
)
from qfridge.verify import coherent_single_cycle_curve


class TestBuildThermalState:
    def test_all_infinite_temperatures_is_maximally_mixed(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (INFINITE,) * 3)
        assert np.allclose(state.matrix, np.eye(8) / 8.0, atol=1e-15)

    def test_heated_machine_state(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 2.0)
        state = build_thermal_state(spec, (1.0, 1.0, 2.0))
        r = boltzmann_population(1.0, 1.0)
        r_b = boltzmann_population(1.4, 1.0)
        r_ch = boltzmann_population(0.4, 2.0)
        assert state.diagonal()[2] == pytest.approx(r * (1 - r_b) * r_ch, abs=1e-15)
        assert state.diagonal()[5] == pytest.approx(
            (1 - r) * r_b * (1 - r_ch), abs=1e-15
        )

    def test_matches_population_vector_construction(self):
        spec = MachineSpec.two_qubit(0.7, 1.3)
        state = build_thermal_state(spec, (1.3, 1.3, 1.3))
        pops = thermal_populations(spec.gaps, (1.3, 1.3, 1.3))
        assert np.allclose(state.diagonal(), pops, atol=1e-15)

    def test_rejects_wrong_temperature_count(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        with pytest.raises(DomainError):
            build_thermal_state(spec, (1.0, 1.0))


class TestApplyAndMeasure:
    def test_identity_changes_nothing(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        h = hamiltonian_diagonal(spec.gaps)
        u = UnitaryOp(np.eye(8), tag="energy_conserving")
        r, delta, _ = apply_and_measure(state, u, h)
        assert r == pytest.approx(state.target_ground_population(), abs=1e-15)
        assert delta == 0.0

    def test_degenerate_swap_reproduces_incoherent_formula(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 2.0)
        state = build_thermal_state(spec, (1.0, 1.0, 2.0))
        h = hamiltonian_diagonal(spec.gaps)
        swap = swap_unitary(8, 2, 5, tag="energy_conserving")
        r, delta, _ = apply_and_measure(state, swap, h)
        assert r == pytest.approx(
            protocols.two_qubit_incoherent_single(spec).r_final, abs=1e-14
        )
        assert abs(delta) < 1e-12

    def test_full_machine_swap_reaches_machine_population(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        h = hamiltonian_diagonal(spec.gaps)
        u = UnitaryOp(
            partial_swap_unitary(8, 2, 4, 1.0).matrix
            @ partial_swap_unitary(8, 3, 5, 1.0).matrix
        )
        r, _, _ = apply_and_measure(state, u, h)
        assert r == pytest.approx(boltzmann_population(1.4, 1.0), abs=1e-14)

    def test_returns_the_evolved_state(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        h = hamiltonian_diagonal(spec.gaps)
        u = oracle.qubit_swap_unitary(3, 0, 2)
        r, delta, evolved = apply_and_measure(state, u, h)
        assert isinstance(evolved, DenseState)
        assert np.array_equal(evolved.matrix, u.matrix @ state.matrix @ u.matrix.conj().T)
        assert r == evolved.target_ground_population()
        assert delta == float((evolved.diagonal() - state.diagonal()) @ h)

    def test_energy_conserving_tag_enforced(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        h = hamiltonian_diagonal(spec.gaps)
        bad = swap_unitary(8, 0, 7, tag="energy_conserving")
        with pytest.raises(DomainError):
            apply_and_measure(state, bad, h)

    def test_dimension_mismatch(self):
        spec = MachineSpec.one_qubit(1.4, 1.0)
        state = build_thermal_state(spec, (1.0, 1.0))
        with pytest.raises(DomainError):
            apply_and_measure(state, swap_unitary(8, 0, 1), np.zeros(4))


class TestRethermalize:
    def test_resets_marginal_and_decorrelates(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        swapped = swap_unitary(8, 3, 4).matrix
        state = DenseState(swapped @ state.matrix @ swapped.conj().T)
        fresh = rethermalize(state, 1, spec.e_b, 1.0)
        diag = fresh.diagonal()
        b_ground = diag[[0, 1, 4, 5]].sum()
        assert b_ground == pytest.approx(boltzmann_population(1.4, 1.0), abs=1e-14)
        assert fresh.matrix.trace().real == pytest.approx(1.0, abs=1e-14)

    def test_replace_marginal_population(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        out = replace_qubit_marginal(state, 2, 0.9)
        assert out.diagonal()[[0, 2, 4, 6]].sum() == pytest.approx(0.9, abs=1e-14)


def _whole_batch_haar(dim, count, rng):
    # The out-of-place construction: one QR call over the whole batch.
    z = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal(
        (count, dim, dim)
    )
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _whole_batch_sweep(spec, samples, curve, seed, slack=1e-9):
    # The sweep's dominance test on whole-batch unitaries, as (index, r,
    # delta_f, excess) tuples; the curve must be ordered by increasing r.
    curve_f = np.array([f for f, _ in curve])
    curve_r = np.array([r for _, r in curve])
    pops = build_thermal_state(spec, (spec.t_room,) * spec.n_qubits).diagonal()
    h = hamiltonian_diagonal(spec.gaps)
    dim = pops.size
    rng = np.random.default_rng(seed)
    points = []
    for start in range(0, samples, oracle.HAAR_BATCH):
        count = min(oracle.HAAR_BATCH, samples - start)
        final_pops = np.abs(_whole_batch_haar(dim, count, rng)) ** 2 @ pops
        r_s = final_pops[:, : dim // 2].sum(axis=1)
        f_s = final_pops @ h - float(pops @ h)
        needed = np.interp(r_s, curve_r, curve_f)
        bad = (r_s > curve_r[-1] + slack) | (
            (r_s > curve_r[0] + slack) & (f_s < needed - slack)
        )
        for i in np.nonzero(bad)[0]:
            excess = max(float(needed[i] - f_s[i]), float(r_s[i] - curve_r[-1]))
            points.append((start + int(i), float(r_s[i]), float(f_s[i]), excess))
    return points


class TestHaarSweep:
    def test_unitaries_are_unitary(self):
        rng = np.random.default_rng(7)
        units = haar_unitaries(8, 16, rng)
        for u in units:
            assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12

    @pytest.mark.parametrize(
        "dim, count", [(8, 1), (8, 300), (4, 50), (2, 9), (8, 1100)]
    )
    def test_same_stream_as_the_out_of_place_construction(self, dim, count):
        for seed in (0, 7, DEFAULT_SEED):
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):
                assert np.array_equal(
                    haar_unitaries(dim, count, rng_new),
                    _whole_batch_haar(dim, count, rng_old),
                )

    @pytest.mark.parametrize("dim, count", [(0, 3), (-1, 3), (8, -1)])
    def test_bad_sizes_rejected(self, dim, count):
        with pytest.raises(DomainError):
            haar_unitaries(dim, count, np.random.default_rng(0))

    def test_sweep_across_a_batch_boundary_matches_whole_batch_factoring(self):
        # A deliberately wrong frontier (r lowered by 0.25, cost x3 + 0.5)
        # is beaten thousands of times, in both batches.
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = [
            (3.0 * f + 0.5, r - 0.25)
            for f, r in coherent_single_cycle_curve(spec, grid=101)
        ]
        samples = oracle.HAAR_BATCH + 1000
        report = haar_pareto_sweep(spec, samples, curve, seed=DEFAULT_SEED)
        expected = _whole_batch_sweep(spec, samples, curve, DEFAULT_SEED)
        got = [(p.index, p.r, p.delta_f, p.excess) for p in report.dominating]
        assert got == expected
        assert len(got) > 1000
        assert got[0][0] < oracle.HAAR_BATCH <= got[-1][0]

    def test_sweep_holds_about_one_batch_of_unitaries(self):
        # The traced peak stays under two batches of complex 8x8 matrices:
        # one batch of Gaussians, the real draw that fills half of it, and
        # one QR chunk's temporaries.
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = coherent_single_cycle_curve(spec, grid=101)
        batch_bytes = oracle.HAAR_BATCH * 64 * 16
        tracemalloc.start()
        try:
            haar_pareto_sweep(spec, 2 * oracle.HAAR_BATCH + 1, curve)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * batch_bytes

    def test_zero_samples_gives_empty_report(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = coherent_single_cycle_curve(spec, grid=21)
        report = haar_pareto_sweep(spec, 0, curve)
        assert report.passed and report.samples == 0

    def test_seed_reproducibility(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = coherent_single_cycle_curve(spec, grid=21)
        a = haar_pareto_sweep(spec, 500, curve, seed=99)
        b = haar_pareto_sweep(spec, 500, curve, seed=99)
        assert a == b
        assert a.seed == 99

    def test_small_sweep_finds_no_dominating_point(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = coherent_single_cycle_curve(spec, grid=101)
        report = haar_pareto_sweep(spec, 2000, curve, seed=DEFAULT_SEED)
        assert report.passed

    def test_identity_never_dominates(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = coherent_single_cycle_curve(spec, grid=101)
        state = build_thermal_state(spec, (1.0,) * 3)
        h = hamiltonian_diagonal(spec.gaps)
        r_id, f_id, _ = apply_and_measure(state, UnitaryOp(np.eye(8)), h)
        dominates, _ = dominates_curve(r_id, f_id, curve)
        assert not dominates

    def test_optimal_unitaries_sit_on_the_frontier(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = coherent_single_cycle_curve(spec, grid=101)
        from qfridge.oracle import simulate_coherent_single

        probes = [simulate_coherent_single(spec, mu) for mu in (0.1, 0.5, 0.9, 1.0)]
        r_probe, f_probe = np.array(probes).T
        dominates, _ = dominates_curve(r_probe, f_probe, curve)
        assert not dominates.any()

    def test_sweep_on_the_kinked_frontier(self):
        # e_c > e: the frontier has a slope kink at mu = 1/2; the curve grid
        # includes it, so interpolation is exact and nothing dominates
        spec = MachineSpec.two_qubit(1.7, 1.0)
        curve = coherent_single_cycle_curve(spec, grid=101)
        report = haar_pareto_sweep(spec, 5000, curve, seed=DEFAULT_SEED)
        assert report.passed
        from qfridge.oracle import simulate_coherent_single

        probes = [simulate_coherent_single(spec, mu) for mu in (0.25, 0.5, 0.75, 1.0)]
        r_probe, f_probe = np.array(probes).T
        dominates, _ = dominates_curve(r_probe, f_probe, curve)
        assert not dominates.any()

    def test_pessimistic_curve_is_dominated_by_optimal_unitary(self):
        # falsifiability: overstate the frontier cost and the claimed-optimal
        # unitary beats it
        spec = MachineSpec.two_qubit(0.4, 1.0)
        curve = [
            (f * 1.5 + 1e-6, r) for (f, r) in coherent_single_cycle_curve(spec, 101)
        ]
        from qfridge.oracle import simulate_coherent_single

        r_probe, f_probe = simulate_coherent_single(spec, 0.5)
        dominates, _ = dominates_curve(r_probe, f_probe, curve)
        assert dominates


class TestDegenerateSubspaceSweep:
    def test_equal_target_and_c_gap_cannot_improve(self):
        # E_A = E_C degeneracy: pair |001>, |100>
        spec = MachineSpec(QubitSpec(1.0), (QubitSpec(1.4), QubitSpec(1.0)), 1.0, 3.0)
        report = degenerate_subspace_sweep(spec, (1, 4), grid=41)
        assert report.improvement <= 1e-12

    def test_resonance_subspace_improvement_matches_formula(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 3.0)
        report = degenerate_subspace_sweep(spec, (2, 5), grid=41)
        out = protocols.two_qubit_incoherent_single(spec)
        r = boltzmann_population(1.0, 1.0)
        assert report.best_r == pytest.approx(out.r_final, abs=1e-13)
        assert report.improvement == pytest.approx(out.r_final - r, abs=1e-13)
        assert report.best_weight == 1.0

    def test_non_degenerate_pair_rejected(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 3.0)
        with pytest.raises(DomainError):
            degenerate_subspace_sweep(spec, (0, 1), grid=11)

    def test_grid_below_two_points_rejected(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 3.0)
        with pytest.raises(DomainError, match="grid"):
            degenerate_subspace_sweep(spec, (2, 5), grid=1)

    def test_stacked_sweep_equals_the_per_weight_loop(self):
        # Every degeneracy relation, each with its gaps drawn, with and without
        # a hot bath; flat sweeps (no pair cools) test that ties keep the first
        # weight, as the loop's strict > did.
        rng = np.random.default_rng(DEFAULT_SEED)
        relations = [
            lambda a, b: (0.0, a, b),
            lambda a, b: (a, 0.0, b),
            lambda a, b: (a, b, 0.0),
            lambda a, b: (a, a, b),
            lambda a, b: (a, b, a),
            lambda a, b: (a, b, b),
            lambda a, b: (a + b, a, b),
            lambda a, b: (a, a + b, b),
            lambda a, b: (a, b, a + b),
        ]
        cases = 0
        for gaps_of in relations:
            for t_hot in (None, 4.0, INFINITE):
                a, b = (float(x) for x in rng.uniform(0.2, 3.0, size=2))
                gaps = gaps_of(a, b)
                spec = MachineSpec(QubitSpec(gaps[0]), tuple(map(QubitSpec, gaps[1:])), 1.1, t_hot)
                h = hamiltonian_diagonal(gaps)
                pairs = [
                    (i, j)
                    for i in range(8)
                    for j in range(i + 1, 8)
                    if abs(h[i] - h[j]) <= 1e-9 * max(1.0, float(np.abs(h).max()))
                ]
                for pair in pairs:
                    for grid in (2, 21):
                        got = degenerate_subspace_sweep(spec, pair, grid)
                        assert got == ref.degenerate_subspace_sweep(spec, pair, grid)
                        cases += 1
        assert cases >= 100


class TestThermalizationGradients:
    def test_slope_signs_at_room_temperature(self):
        spec = MachineSpec.two_qubit(0.4, 1.0, 3.0)
        slope_b, slope_c = thermalization_gradient_check(spec, 1.0, 1.0)
        assert slope_b < 0.0 < slope_c

    def test_matches_analytic_derivatives(self):
        spec = MachineSpec.two_qubit(0.7, 1.0, 4.0)
        t_b, t_c = 1.5, 2.5
        slope_b, slope_c = thermalization_gradient_check(spec, t_b, t_c)
        r = boltzmann_population(spec.e, spec.t_room)
        r_b = boltzmann_population(spec.e_b, t_b)
        r_c = boltzmann_population(spec.e_c, t_c)
        ref_b = -spec.e_b * r_b * (1 - r_b) / t_b**2 * (r * r_c + (1 - r) * (1 - r_c))
        ref_c = spec.e_c * r_c * (1 - r_c) / t_c**2 * (r * (1 - r_b) + (1 - r) * r_b)
        assert slope_b == pytest.approx(ref_b, rel=1e-6)
        assert slope_c == pytest.approx(ref_c, rel=1e-6)

    def test_vanishing_gap_decouples_c(self):
        spec = MachineSpec(QubitSpec(1.0), (QubitSpec(1.0), QubitSpec(0.0)), 1.0, 3.0)
        _, slope_c = thermalization_gradient_check(spec, 1.0, 1.0)
        assert abs(slope_c) < 1e-10


class TestKron:
    @pytest.mark.parametrize(
        "shape_a, shape_b", [((1, 1), (2, 2)), ((2, 2), (2, 2)), ((4, 4), (2, 2)), ((4, 4), (4, 4))]
    )
    def test_entries_equal_numpy_kron(self, shape_a, shape_b):
        rng = np.random.default_rng(3)
        a_real = rng.standard_normal(shape_a)
        b_real = rng.standard_normal(shape_b)
        a_cplx = a_real + 1j * rng.standard_normal(shape_a)
        b_cplx = b_real + 1j * rng.standard_normal(shape_b)
        for a, b in ((a_real, b_real), (a_cplx, b_cplx), (a_real, b_cplx)):
            assert np.array_equal(oracle._kron(a, b), np.kron(a, b))


def test_oracle_never_imports_the_closed_forms():
    # The dense route is an independent check only while it cannot reach the
    # protocol evaluators it is checking.
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported if "protocols" in name.split(".")]


def _reference_machines():
    # Drawn machines, which include t_hot = inf, plus one of each e_c route
    # at both a finite and an infinite hot bath.
    from qfridge.verify import _draw_machine

    rng = np.random.default_rng(DEFAULT_SEED)
    drawn = [_draw_machine(rng) for _ in range(40)]
    fixed = [
        MachineSpec.two_qubit(e_c, 1.0, t_hot) for e_c in (0.4, 1.7) for t_hot in (3.0, INFINITE)
    ]
    machines = drawn + fixed
    assert any(s.t_hot == INFINITE for s in drawn)
    assert {s.e_c <= s.e for s in drawn} == {True, False}
    return machines


def _assert_rows_match(stacked, per_machine):
    # Every stacked output against the reference run of the same machine.
    for got, want in zip(stacked, zip(*per_machine)):
        assert np.asarray(got).shape == np.asarray(want).shape
        assert np.abs(np.asarray(got) - np.asarray(want)).max(initial=0.0) <= 1e-15


class TestStackedSimulatorsMatchTheReference:
    MACHINES = _reference_machines()

    def test_incoherent_single(self):
        stacked = oracle.simulate_incoherent_single(self.MACHINES)
        _assert_rows_match(stacked, [ref.simulate_incoherent_single(s) for s in self.MACHINES])

    def test_coherent_single(self):
        mus = np.random.default_rng(5).uniform(0.0, 1.0, len(self.MACHINES))
        mus[:3] = (0.0, 0.5, 1.0)
        stacked = oracle.simulate_coherent_single(self.MACHINES, mus)
        _assert_rows_match(
            stacked, [ref.simulate_coherent_single(s, mu) for s, mu in zip(self.MACHINES, mus)]
        )

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("r0", [None, 0.8])
    def test_repeated_incoherent(self, n, r0):
        stacked = oracle.simulate_repeated_incoherent(self.MACHINES, n, r0=r0)
        _assert_rows_match(
            stacked, [ref.simulate_repeated_incoherent(s, n, r0=r0) for s in self.MACHINES]
        )

    @pytest.mark.parametrize("n", range(6))
    def test_repeated_coherent(self, n):
        stacked = oracle.simulate_repeated_coherent(self.MACHINES, n)
        _assert_rows_match(stacked, [ref.simulate_repeated_coherent(s, n) for s in self.MACHINES])

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("nu, r0", [(1.0, None), (0.4, None), (1.0, 0.8), (0.4, 0.8)])
    def test_algorithmic(self, n, nu, r0):
        stacked = oracle.simulate_algorithmic(self.MACHINES, n, nu=nu, r0=r0)
        _assert_rows_match(
            stacked, [ref.simulate_algorithmic(s, n, nu=nu, r0=r0) for s in self.MACHINES]
        )

    def test_one_spec_is_a_stack_of_one_with_the_old_return_types(self):
        for spec in (self.MACHINES[0], self.MACHINES[-1], self.MACHINES[-3]):
            assert oracle.simulate_incoherent_single(spec) == ref.simulate_incoherent_single(spec)
            assert oracle.simulate_coherent_single(spec, 0.3) == ref.simulate_coherent_single(
                spec, 0.3
            )
            for n in (0, 3):
                for got, want in (
                    (
                        oracle.simulate_repeated_incoherent(spec, n, r0=0.8),
                        ref.simulate_repeated_incoherent(spec, n, r0=0.8),
                    ),
                    (
                        oracle.simulate_repeated_coherent(spec, n),
                        ref.simulate_repeated_coherent(spec, n),
                    ),
                    (
                        oracle.simulate_algorithmic(spec, n, nu=0.4),
                        ref.simulate_algorithmic(spec, n, nu=0.4),
                    ),
                ):
                    assert got == want
                    assert all(type(x) is float for values in got for x in values)
            stack_of_one = oracle.simulate_repeated_coherent([spec], 3)
            assert [values[0].tolist() for values in stack_of_one] == list(
                oracle.simulate_repeated_coherent(spec, 3)
            )

    def test_an_empty_stack_gives_empty_arrays(self):
        rs, works = oracle.simulate_algorithmic([], 4)
        assert rs.shape == works.shape == (0, 5)

    def test_coherent_single_needs_one_mu_per_machine(self):
        with pytest.raises(DomainError, match="one mu per machine"):
            oracle.simulate_coherent_single(self.MACHINES[:3], [0.5, 0.5])
        with pytest.raises(DomainError, match=r"stack index 1"):
            oracle.simulate_coherent_single(self.MACHINES[:3], [0.5, 1.5, 0.5])


def _thermal_stack(count):
    spec = MachineSpec.two_qubit(0.4, 1.0)
    state = build_thermal_state(spec, (1.0,) * 3)
    return np.repeat(state.matrix[None], count, axis=0), hamiltonian_diagonal(spec.gaps)


class TestStackChecks:
    def test_one_non_psd_matrix_is_named_by_its_index(self):
        mats, _ = _thermal_stack(5)
        mats[3] = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0])
        with pytest.raises(DomainError, match=r"positive semidefinite \(stack index 3\)"):
            DenseState(mats)

    def test_one_bad_trace_is_named_by_its_index(self):
        mats, _ = _thermal_stack(4)
        mats[2] *= 1.01
        with pytest.raises(DomainError, match=r"unit trace \(stack index 2\)"):
            DenseState(mats)

    def test_one_non_unitary_matrix_is_named_by_its_index(self):
        units = np.repeat(np.eye(8)[None], 3, axis=0)
        units[1, 0, 0] = 1.1
        with pytest.raises(DomainError, match=r"not unitary .*\(stack index 1\)"):
            UnitaryOp(units)

    def test_stacked_unitary_drift_is_caught_on_application(self):
        mats, h = _thermal_stack(3)
        u = UnitaryOp(np.repeat(np.eye(8)[None], 3, axis=0))
        u.matrix[2, 0, 0] = 1.1
        with pytest.raises(DomainError, match=r"drifted .*\(stack index 2\)"):
            apply_and_measure(DenseState(mats), u, h)

    def test_energy_conservation_is_checked_per_machine(self):
        # The swap conserves energy on resonant machines only.
        mats, _ = _thermal_stack(3)
        h = np.array([hamiltonian_diagonal(MachineSpec.two_qubit(0.4, 1.0).gaps)] * 3)
        h[1] = hamiltonian_diagonal((1.0, 1.5, 0.4))
        swap = swap_unitary(8, 2, 5, tag="energy_conserving")
        with pytest.raises(DomainError, match=r"commute with H \(stack index 1\)"):
            apply_and_measure(DenseState(mats), swap, h)

    def test_stacks_of_different_lengths_are_rejected(self):
        mats, h = _thermal_stack(3)
        u = UnitaryOp(np.repeat(np.eye(8)[None], 2, axis=0))
        with pytest.raises(DomainError, match="differ in length"):
            apply_and_measure(DenseState(mats), u, h)

    def test_stacked_blocks_equal_their_per_matrix_results(self):
        spec = MachineSpec.two_qubit(0.7, 1.3)
        rng = np.random.default_rng(11)
        local = haar_unitaries(8, 4, rng)
        base = build_thermal_state(spec, (1.3,) * 3).matrix
        mats = local @ base @ np.swapaxes(local.conj(), -1, -2)
        h = hamiltonian_diagonal(spec.gaps)
        u = UnitaryOp(haar_unitaries(8, 4, rng))
        r, delta, final = apply_and_measure(DenseState(mats), u, np.array([h] * 4))
        pops = np.array([0.9, 0.8, 0.7, 0.6])
        marginal = replace_qubit_marginal(final, 1, pops)
        fresh = rethermalize(final, 2, np.array([0.4, 0.5, 0.6, 0.7]), 2.0)
        for i in range(4):
            r_i, delta_i, final_i = apply_and_measure(
                DenseState(mats[i]), UnitaryOp(u.matrix[i]), h
            )
            assert (r[i], delta[i]) == (r_i, delta_i)
            assert np.array_equal(final.matrix[i], final_i.matrix)
            assert np.array_equal(
                marginal.matrix[i], replace_qubit_marginal(final_i, 1, pops[i]).matrix
            )
            assert np.array_equal(
                fresh.matrix[i], rethermalize(final_i, 2, 0.4 + 0.1 * i, 2.0).matrix
            )


class TestNonFiniteInputs:
    def test_all_nan_state_is_rejected(self):
        with pytest.raises(DomainError):
            DenseState(np.full((2, 2), np.nan))

    def test_nan_off_diagonal_state_is_rejected(self):
        with pytest.raises(DomainError):
            DenseState(np.array([[0.5, np.nan], [np.nan, 0.5]]))

    def test_all_nan_unitary_is_rejected(self):
        with pytest.raises(DomainError):
            UnitaryOp(np.full((4, 4), np.nan))

    def test_unitary_turned_nan_after_construction_is_caught_on_application(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        u = swap_unitary(8, 3, 4)
        u.matrix[0, 1] = np.nan
        with pytest.raises(DomainError, match="drifted"):
            apply_and_measure(state, u, hamiltonian_diagonal(spec.gaps))

    def test_nan_energy_fails_the_conservation_check(self):
        spec = MachineSpec.two_qubit(0.4, 1.0)
        state = build_thermal_state(spec, (1.0,) * 3)
        h = hamiltonian_diagonal(spec.gaps)
        h[5] = np.nan
        with pytest.raises(DomainError):
            apply_and_measure(state, swap_unitary(8, 2, 5, tag="energy_conserving"), h)
